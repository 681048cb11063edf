import random
from itertools import product

import pytest

from nbhd.core import (
    CapExceededError,
    FrameMorphism,
    InvalidInputError,
    NeighborhoodAlgebra,
    NeighborhoodFrame,
    Relation,
    algebra_from_json,
    algebra_to_json,
    box_n,
    complement_frame,
    famask_members,
    famask_of,
    frame_from_json,
    frame_to_json,
    from_relation,
    full_mask,
    hom_from_json,
    hom_to_json,
    is_nbhd_morphism,
    morphism_from_json,
    morphism_to_json,
    relation_from_json,
    relation_to_json,
    to_relation,
    up_cone,
)
from nbhd.core import CompleteHom
from nbhd.bax import baxspace_from_json
from nbhd.duality import lax_from_json
from nbhd.genframe import GeneralFrame, general_frame_from_json

import oracles
from oracles import kripke_box, mask_to_set


def all_frames(n):
    total = 1 << (1 << n)
    for key in range(total**n):
        famasks = []
        rest = key
        for _ in range(n):
            famasks.append(rest % total)
            rest //= total
        yield NeighborhoodFrame(n, famasks)


def test_frame_checks_name_the_first_bad_point():
    # Point 2 holds member 9, which needs four points; the key check finds
    # it with one shift and the scan names it.  N(0) holds every valid
    # member, so a check of the first famask alone would pass.
    families = [[0, 1, 2, 3, 4, 5, 6, 7], [1], [2, 9]]
    key = tuple(famask_of(fam) for fam in families)
    message = "N\\(2\\): member 9 is not a subset mask for n=3"
    with pytest.raises(InvalidInputError, match="^frame: " + message):
        NeighborhoodFrame(3, key)
    with pytest.raises(InvalidInputError, match="^frame: " + message):
        frame_from_json({"n": 3, "N": families})
    with pytest.raises(InvalidInputError, match="^general frame: " + message):
        general_frame_from_json({"n": 3, "N": families, "A": [0, 7]})
    with pytest.raises(InvalidInputError, match="^general frame: " + message):
        GeneralFrame(3, key, famask_of((0, 7)))
    # With two bad points the first is named, although the second holds
    # the larger member.
    with pytest.raises(InvalidInputError, match="N\\(1\\): member 8 is not"):
        NeighborhoodFrame(3, (1, 1 << 8, 1 << 9))
    with pytest.raises(InvalidInputError, match="general frame: A: member 8 is not"):
        GeneralFrame(3, (0,) * 3, famask_of((0, 8)))


def test_constructors_refuse_negative_and_bool_famasks():
    # A famask is a nonnegative int: a negative one would pass the width
    # check and break the JSON encoder later, and a bool is not an int
    # famask, as the JSON decoders already hold.
    for key, bad in (((-1, 0), "N\\(0\\): -1"), ((0, -4), "N\\(1\\): -4"), ((True, 0), "N\\(0\\): True"), ((1, 2.0), "N\\(1\\): 2.0")):
        with pytest.raises(InvalidInputError, match="^frame: " + bad + " is not a famask"):
            NeighborhoodFrame(2, key)
        with pytest.raises(InvalidInputError, match="^general frame: " + bad + " is not a famask"):
            GeneralFrame(2, key, famask_of((0, 3)))
    with pytest.raises(InvalidInputError, match="^frame: N\\(0\\): True is not a famask"):
        NeighborhoodFrame(1, (True,))
    for bad in (-1, True, 1.0):
        with pytest.raises(InvalidInputError, match=f"^general frame: A: {bad!r} is not a famask"):
            GeneralFrame(1, (0,), bad)
    # A type fault at a later point does not hide a width fault before it.
    with pytest.raises(InvalidInputError, match="N\\(0\\): member 4 is not"):
        NeighborhoodFrame(2, (1 << 4, -1))
    for bad in (-1, 2.0, True):
        with pytest.raises(InvalidInputError, match="family members must be nonnegative ints"):
            famask_of([1, bad])


def test_wide_frames_with_small_members_construct():
    # Members below 2^16 fit a famask whatever n is; the frame classes
    # refuse such a frame later, at their width check.
    key = tuple(famask_of((x, 1 << (x % 16))) for x in range(40))
    frame = NeighborhoodFrame(40, key)
    assert frame.key() == key
    assert frame_from_json(frame_to_json(frame)) == frame


def test_family_is_ordered_and_round_trips():
    famask = famask_of([3, 0, 2, 0])
    assert famask == 0b1101
    assert famask_members(famask) == (0, 2, 3)
    assert famask_of(iter(())) == 0
    for famask in range(256):
        assert famask_of(famask_members(famask)) == famask
    # Random famasks at n <= 5, and sparse families at n = 16 with members
    # near 2^16 - 1, against a brute decode of the bits.
    rng = random.Random(5)
    famasks = [rng.getrandbits(1 << n) for n in range(6) for _ in range(40)]
    famasks += [sum(1 << (0xFFFF - rng.randrange(64)) for _ in range(rng.randrange(1, 6))) | rng.randrange(2) for _ in range(40)]
    for famask in famasks:
        members = tuple(a for a in range(famask.bit_length()) if famask >> a & 1)
        assert famask_members(famask) == members
        assert famask_of(members) == famask_of(reversed(members + members)) == famask


def test_frame_and_algebra_validation():
    with pytest.raises(InvalidInputError):
        NeighborhoodFrame(1, ())
    with pytest.raises(InvalidInputError):
        NeighborhoodFrame(1, (famask_of((2,)),))
    with pytest.raises(InvalidInputError):
        NeighborhoodAlgebra(1, (0,))
    with pytest.raises(InvalidInputError):
        NeighborhoodAlgebra(1, (0, 4))
    with pytest.raises(InvalidInputError):
        Relation(2, (4, 0))
    with pytest.raises(InvalidInputError):
        FrameMorphism(2, 1, (0, 1))
    with pytest.raises(InvalidInputError):
        CompleteHom(1, 2, (0, 1))


def test_up_cone_examples():
    assert famask_members(up_cone(2, 2)) == (2, 3)
    assert famask_members(up_cone(0, 2)) == (0, 1, 2, 3)
    assert famask_members(up_cone(3, 2)) == (3,)
    assert famask_members(up_cone(0, 0)) == (0,)


def test_box_n_and_complement():
    frame = NeighborhoodFrame(2, (famask_of((1, 3)), famask_of((0,))))
    assert box_n(frame, 1) == 1
    assert box_n(frame, 0) == 2
    assert box_n(frame, 3) == 1
    comp = complement_frame(frame)
    assert famask_members(comp.key()[0]) == (0, 2)
    assert complement_frame(comp) == frame


def test_kripke_bridge_examples():
    rel = Relation(2, (3, 0))
    frame = from_relation(rel)
    assert frame.key() == (famask_of((3,)), famask_of((0, 1, 2, 3)))
    assert to_relation(frame) == rel
    empty = NeighborhoodFrame(1, (0,))
    assert to_relation(empty).succ == (1,)


def test_kripke_round_trip_exhaustive():
    for n in (0, 1, 2, 3):
        m = 1 << n
        for key in range(m**n):
            succ = []
            rest = key
            for _ in range(n):
                succ.append(rest % m)
                rest //= m
            rel = Relation(n, tuple(succ))
            assert to_relation(from_relation(rel)) == rel


def test_from_relation_box_matches_direct_oracle():
    for n in (1, 2):
        m = 1 << n
        for key in range(m**n):
            succ = tuple((key // m**x) % m for x in range(n))
            frame = from_relation(Relation(n, succ))
            succ_sets = [mask_to_set(s) for s in succ]
            for a in range(m):
                want = 0
                for x in kripke_box(succ_sets, mask_to_set(a), n):
                    want |= 1 << x
                assert box_n(frame, a) == want


def test_morphism_preimage():
    f = FrameMorphism(3, 2, (0, 0, 1))
    assert f.preimage(0b01) == 0b011
    assert f.preimage(0b10) == 0b100


def test_is_nbhd_morphism_biconditional():
    dom = NeighborhoodFrame(2, (famask_of((1, 3)), famask_of((1, 3))))
    cod = NeighborhoodFrame(1, (famask_of((1,)),))
    f = FrameMorphism(2, 1, (0, 0))
    # preimage of {0} is {0,1}=3, in both N(x); preimage of {} is {}, absent.
    assert is_nbhd_morphism(f, dom, cod)
    bad_dom = NeighborhoodFrame(2, (famask_of((1,)), famask_of((1, 3))))
    assert not is_nbhd_morphism(f, bad_dom, cod)
    with pytest.raises(InvalidInputError):
        is_nbhd_morphism(f, dom, NeighborhoodFrame(2, (0, 0)))


def test_is_nbhd_morphism_matches_set_oracle():
    # Every map and every frame pair with n_dom, n_cod <= 2: 265,493 triples.
    frames = {n: list(all_frames(n)) for n in range(3)}
    sets = {n: [[oracles.family_to_sets(famask_members(fm)) for fm in frame.key()] for frame in frames[n]] for n in range(3)}
    morphisms = 0
    for n_dom, n_cod in product(range(3), repeat=2):
        universe = oracles.subsets(range(n_cod))
        for fmap in product(range(n_cod), repeat=n_dom):
            f = FrameMorphism(n_dom, n_cod, fmap)
            for dom, dom_sets in zip(frames[n_dom], sets[n_dom]):
                for cod, cod_sets in zip(frames[n_cod], sets[n_cod]):
                    want = next(oracles.morphism_failures(fmap, dom_sets, cod_sets, universe), None) is None
                    assert is_nbhd_morphism(f, dom, cod) == want, (fmap, dom, cod)
                    morphisms += want
    assert 0 < morphisms


def test_identity_and_constant_morphisms_exhaustive_n2():
    ident = FrameMorphism(2, 2, (0, 1))
    for frame in all_frames(2):
        assert is_nbhd_morphism(ident, frame, frame)


def test_json_round_trips():
    frame = NeighborhoodFrame(2, (famask_of((1, 3)), famask_of((0,))))
    assert frame_from_json(frame_to_json(frame)) == frame
    assert frame_to_json(frame) == {"n": 2, "N": [[1, 3], [0]]}
    alg = NeighborhoodAlgebra(2, (2, 1, 0, 1))
    assert algebra_from_json(algebra_to_json(alg)) == alg
    assert algebra_to_json(alg) == {"n": 2, "box": [2, 1, 0, 1]}
    rel = Relation(2, (3, 0))
    assert relation_from_json(relation_to_json(rel)) == rel
    assert relation_to_json(rel) == {"n": 2, "R": [3, 0]}
    f = FrameMorphism(2, 1, (0, 0))
    assert morphism_from_json(morphism_to_json(f)) == f
    assert morphism_to_json(f) == {"n_dom": 2, "n_cod": 1, "map": [0, 0]}
    h = CompleteHom(1, 2, (0, 0))
    assert hom_from_json(hom_to_json(h)) == h
    assert hom_to_json(h) == {"n_dom": 1, "n_cod": 2, "atom_map": [0, 0]}
    # Every frame at n <= 2: the constructor keeps the famasks it is given,
    # and the JSON codecs decode and repack them.
    for n in range(3):
        for frame in all_frames(n):
            key = frame.key()
            assert NeighborhoodFrame(n, list(key)).key() == key and type(key) is tuple
            obj = frame_to_json(frame)
            assert obj == {"n": n, "N": [[a for a in range(fm.bit_length()) if fm >> a & 1] for fm in key]}
            back = frame_from_json(obj)
            assert back == frame and hash(back) == hash(frame) and repr(back) == repr(frame)


def test_json_rejects_bad_shapes():
    with pytest.raises(InvalidInputError):
        frame_from_json({"n": 1})
    with pytest.raises(InvalidInputError):
        frame_from_json({"n": 1, "N": [[0]], "extra": 1})
    with pytest.raises(InvalidInputError):
        algebra_from_json({"n": 1, "box": [0, "x"]})
    with pytest.raises(InvalidInputError):
        morphism_from_json({"n_dom": 1, "n_cod": 1, "map": "00"})
    # Members are range-checked against n before a famask is packed, so a
    # huge member fails at once instead of allocating 2^member bits.
    for member in (4, 2**40, 2**4000):
        with pytest.raises(InvalidInputError, match="is not a subset mask for n=2"):
            frame_from_json({"n": 2, "N": [[1], [0, member]]})
    with pytest.raises(InvalidInputError):
        frame_from_json({"n": 2, "N": [[True], [0]]})


def test_every_decoder_and_constructor_refuses_a_bad_size():
    # A bool is an int to isinstance, so true once passed as n = 1 and was
    # echoed back as "n":true; sizes must be nonnegative ints proper.
    valid = {
        frame_from_json: {"n": 1, "N": [[1]]},
        algebra_from_json: {"n": 1, "box": [0, 1]},
        relation_from_json: {"n": 1, "R": [1]},
        morphism_from_json: {"n_dom": 1, "n_cod": 1, "map": [0]},
        hom_from_json: {"n_dom": 1, "n_cod": 1, "atom_map": [0]},
        general_frame_from_json: {"n": 1, "N": [[1]], "A": [0, 1]},
        baxspace_from_json: {"n": 1, "axioms": ["@M"], "members": [[1]]},
        lax_from_json: {"n": 1, "axioms": ["@M"], "members": [[1]], "gen": [[], [0]]},
    }
    for decode, obj in valid.items():
        decode(obj)
        for key in [k for k in obj if k.startswith("n")]:
            for bad in (True, False, -1, 1.0, "1", None):
                with pytest.raises(InvalidInputError, match=f"{key} must be a nonnegative int"):
                    decode({**obj, key: bad})
    constructors = (
        lambda n: NeighborhoodFrame(n, (0,)),
        lambda n: NeighborhoodAlgebra(n, (0, 0)),
        lambda n: Relation(n, (0,)),
        lambda n: FrameMorphism(n, 1, (0,)),
        lambda n: FrameMorphism(1, n, (0,)),
        lambda n: CompleteHom(n, 1, (0,)),
        lambda n: CompleteHom(1, n, (0,)),
        lambda n: GeneralFrame(n, (0,), 0b11),
    )
    for construct in constructors:
        construct(1)
        for bad in (True, -1, 1.0):
            with pytest.raises(InvalidInputError, match="must be a nonnegative int"):
                construct(bad)


def test_json_family_faults_keep_their_messages():
    # One pass packs a well-formed list; a faulty one is named by the full
    # checks, types before ranges, and the cap as CapExceededError.
    assert frame_from_json({"n": 2, "N": [[3, 1, 3], []]}).key() == (famask_of((1, 3)), 0)
    for raw in ([True], [0, 1.5], [4, False], ["1"], 3):
        with pytest.raises(InvalidInputError, match="N\\(0\\): expected a list of ints"):
            frame_from_json({"n": 2, "N": [raw, []]})
    with pytest.raises(InvalidInputError, match="N\\(1\\): member 7 is not a subset mask for n=2"):
        frame_from_json({"n": 2, "N": [[], [1, 7, 5]]})
    with pytest.raises(InvalidInputError, match="nonnegative ints, got -1"):
        frame_from_json({"n": 2, "N": [[], [1, -1]]})
    with pytest.raises(CapExceededError, match="member 131072 needs more than 16 points"):
        frame_from_json({"n": 18, "N": [[0, 1 << 17]] + [[]] * 17})


def test_algebra_table_faults_name_the_first_bad_entry():
    assert NeighborhoodAlgebra(2, (0, 1, 2, 3)).box == (0, 1, 2, 3)
    cases = (
        ((0, 1, 4, 9), "box\\[2\\]: 4"),
        ((0, 0, 0, 4), "box\\[3\\]: 4"),
        ((0, -1, 0, 0), "box\\[1\\]: -1"),
        ((0, 0, 0, "3"), "box\\[3\\]: '3'"),
    )
    for box, bad in cases:
        with pytest.raises(InvalidInputError, match=bad + " is not a subset mask for n=2"):
            NeighborhoodAlgebra(2, box)
    with pytest.raises(InvalidInputError, match="box\\[0\\]: 2 is not a subset mask for n=1"):
        algebra_from_json({"n": 1, "box": [2, 0]})


def test_width_caps_raise():
    # A famask holds subsets of at most PLAIN_OP_CAP = 16 points.
    assert famask_of((0xFFFF,)) == 1 << 0xFFFF
    with pytest.raises(CapExceededError):
        famask_of((1 << 16,))
    with pytest.raises(CapExceededError):
        frame_from_json({"n": 17, "N": [[1 << 16]] + [[]] * 16})
    frame = NeighborhoodFrame(17, (0,) * 17)
    with pytest.raises(CapExceededError):
        box_n(frame, 0)
    with pytest.raises(CapExceededError):
        complement_frame(frame)
    with pytest.raises(CapExceededError):
        to_relation(frame)
    # Refused before any of the 2^40 supersets is listed.
    with pytest.raises(CapExceededError):
        up_cone(0, 40)


def test_hom_apply_preserves_structure():
    rng = random.Random(11)
    for _ in range(200):
        n_dom = rng.randrange(1, 4)
        n_cod = rng.randrange(0, 4)
        h = CompleteHom(n_dom, n_cod, tuple(rng.randrange(n_dom) for _ in range(n_cod)))
        full_d = full_mask(n_dom)
        for _ in range(10):
            a = rng.randrange(full_d + 1)
            b = rng.randrange(full_d + 1)
            assert h.apply(a & b) == h.apply(a) & h.apply(b)
            assert h.apply(a | b) == h.apply(a) | h.apply(b)
            assert h.apply(full_d ^ a) == full_mask(n_cod) ^ h.apply(a)
