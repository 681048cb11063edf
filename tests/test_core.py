import random
from itertools import product

import pytest

from nbhd.core import (
    CapExceededError,
    Family,
    FrameMorphism,
    InvalidInputError,
    NeighborhoodAlgebra,
    NeighborhoodFrame,
    Relation,
    algebra_from_json,
    algebra_to_json,
    box_n,
    complement_frame,
    effective_cap,
    family_from_famask,
    frame_from_json,
    frame_from_key,
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
from nbhd.genframe import GeneralFrame, general_frame_from_json

from conftest import given, st
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
        yield NeighborhoodFrame(n, tuple(family_from_famask(fm) for fm in famasks))


def assert_same_frame(n, key):
    """frame_from_key and the constructor give the same frame, seen through
    every accessor."""
    built = NeighborhoodFrame(n, tuple(family_from_famask(fm) for fm in key))
    frame = frame_from_key(n, key)
    assert frame == built and hash(frame) == hash(built)
    assert frame.key() == built.key() == tuple(key)
    assert frame.nbhd == built.nbhd == tuple(Family(tuple(a for a in range(fm.bit_length()) if fm >> a & 1)) for fm in key)
    assert repr(frame) == repr(built)
    assert frame_to_json(frame) == frame_to_json(built) == {"n": n, "N": [list(fam.members) for fam in built.nbhd]}


def test_frame_from_key_matches_the_constructor_on_every_small_frame():
    for n in range(3):
        for frame in all_frames(n):
            assert_same_frame(n, frame.key())


@given(st.integers(3, 4), st.data())
def test_property_frame_from_key_matches_the_constructor(n, data):
    assert_same_frame(n, tuple(data.draw(st.lists(st.integers(0, (1 << (1 << n)) - 1), min_size=n, max_size=n))))


def test_frame_checks_name_the_first_bad_point():
    # Point 2 holds member 9, which needs four points; the key check finds
    # it with one shift and the scan names it.  N(0) holds every valid
    # member, so a check of the first famask alone would pass.
    families = [[0, 1, 2, 3, 4, 5, 6, 7], [1], [2, 9]]
    key = tuple(sum(1 << a for a in fam) for fam in families)
    message = "N\\(2\\): member 9 is not a subset mask for n=3"
    with pytest.raises(InvalidInputError, match="^frame: " + message):
        NeighborhoodFrame(3, tuple(Family(tuple(fam)) for fam in families))
    with pytest.raises(InvalidInputError, match="^frame: " + message):
        frame_from_key(3, key)
    with pytest.raises(InvalidInputError, match="^frame: " + message):
        frame_from_json({"n": 3, "N": families})
    with pytest.raises(InvalidInputError, match="^general frame: " + message):
        general_frame_from_json({"n": 3, "N": families, "A": [0, 7]})
    with pytest.raises(InvalidInputError, match="^general frame: " + message):
        GeneralFrame(3, tuple(Family(tuple(fam)) for fam in families), Family((0, 7)))
    # With two bad points the first is named, although the second holds
    # the larger member.
    with pytest.raises(InvalidInputError, match="N\\(1\\): member 8 is not"):
        frame_from_key(3, (1, 1 << 8, 1 << 9))
    with pytest.raises(InvalidInputError, match="general frame: A: member 8 is not"):
        GeneralFrame(3, (Family(()),) * 3, Family((0, 8)))


def test_wide_frames_with_small_members_construct():
    # Members below 2^16 fit a famask whatever n is; the frame classes
    # refuse such a frame later, at their width check.
    families = tuple(Family.of((x, 1 << (x % 16))) for x in range(40))
    frame = NeighborhoodFrame(40, families)
    assert frame == frame_from_key(40, [fam.famask() for fam in families])
    assert frame_from_json(frame_to_json(frame)) == frame
    assert frame.nbhd == families


def test_family_is_ordered_and_round_trips():
    fam = Family.of([3, 0, 2, 0])
    assert fam.members == (0, 2, 3)
    assert fam.famask() == 0b1101
    assert family_from_famask(fam.famask()) == fam
    assert 2 in fam and 1 not in fam
    for famask in range(256):
        assert family_from_famask(famask).famask() == famask
    # Random famasks at n <= 5, and sparse families at n = 16 with members
    # near 2^16 - 1, against a brute decode of the bits.
    rng = random.Random(5)
    famasks = [rng.getrandbits(1 << n) for n in range(6) for _ in range(40)]
    famasks += [sum(1 << (0xFFFF - rng.randrange(64)) for _ in range(rng.randrange(1, 6))) | rng.randrange(2) for _ in range(40)]
    for famask in famasks:
        members = tuple(a for a in range(famask.bit_length()) if famask >> a & 1)
        fam = family_from_famask(famask)
        assert fam.members == members and tuple(fam) == members and len(fam) == len(members)
        probes = set(members) | {a ^ 1 for a in members} | {0, famask.bit_length()}
        assert all((a in fam) == (famask >> a & 1 == 1) for a in probes)
        assert Family(members) == fam and hash(Family(members)) == hash(fam)
        assert Family(members).famask() == famask


def test_family_rejects_disorder_and_negatives():
    with pytest.raises(InvalidInputError):
        Family((2, 1))
    with pytest.raises(InvalidInputError):
        Family((1, 1))
    with pytest.raises(InvalidInputError):
        Family((-1,))


def test_frame_and_algebra_validation():
    with pytest.raises(InvalidInputError):
        NeighborhoodFrame(1, ())
    with pytest.raises(InvalidInputError):
        NeighborhoodFrame(1, (Family((2,)),))
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
    assert up_cone(2, 2).members == (2, 3)
    assert up_cone(0, 2).members == (0, 1, 2, 3)
    assert up_cone(3, 2).members == (3,)
    assert up_cone(0, 0).members == (0,)


def test_box_n_and_complement():
    frame = NeighborhoodFrame(2, (Family((1, 3)), Family((0,))))
    assert box_n(frame, 1) == 1
    assert box_n(frame, 0) == 2
    assert box_n(frame, 3) == 1
    comp = complement_frame(frame)
    assert comp.nbhd[0].members == (0, 2)
    assert complement_frame(comp) == frame


def test_kripke_bridge_examples():
    rel = Relation(2, (3, 0))
    frame = from_relation(rel)
    assert frame.nbhd[0].members == (3,)
    assert frame.nbhd[1].members == (0, 1, 2, 3)
    assert to_relation(frame) == rel
    empty = NeighborhoodFrame(1, (Family(()),))
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
    dom = NeighborhoodFrame(2, (Family((1, 3)), Family((1, 3))))
    cod = NeighborhoodFrame(1, (Family((1,)),))
    f = FrameMorphism(2, 1, (0, 0))
    # preimage of {0} is {0,1}=3, in both N(x); preimage of {} is {}, absent.
    assert is_nbhd_morphism(f, dom, cod)
    bad_dom = NeighborhoodFrame(2, (Family((1,)), Family((1, 3))))
    assert not is_nbhd_morphism(f, bad_dom, cod)
    with pytest.raises(InvalidInputError):
        is_nbhd_morphism(f, dom, NeighborhoodFrame(2, (Family(()), Family(()))))


def test_is_nbhd_morphism_matches_set_oracle():
    # Every map and every frame pair with n_dom, n_cod <= 2: 265,493 triples.
    frames = {n: list(all_frames(n)) for n in range(3)}
    sets = {n: [[oracles.family_to_sets(fam.members) for fam in frame.nbhd] for frame in frames[n]] for n in range(3)}
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
    frame = NeighborhoodFrame(2, (Family((1, 3)), Family((0,))))
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


def test_json_family_faults_keep_their_messages():
    # One pass packs a well-formed list; a faulty one is named by the full
    # checks, types before ranges, and the cap as CapExceededError.
    assert frame_from_json({"n": 2, "N": [[3, 1, 3], []]}).nbhd[0] == Family((1, 3))
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


def test_effective_cap_env(monkeypatch):
    assert effective_cap(5) == 5
    monkeypatch.setenv("NBHD_MAX_N", "3")
    assert effective_cap(5) == 3
    monkeypatch.setenv("NBHD_MAX_N", "9")
    assert effective_cap(5) == 5
    monkeypatch.setenv("NBHD_MAX_N", "zebra")
    with pytest.raises(InvalidInputError):
        effective_cap(5)


def test_width_caps_raise():
    # A famask holds subsets of at most PLAIN_OP_CAP = 16 points.
    assert len(Family((0xFFFF,))) == 1
    with pytest.raises(CapExceededError):
        Family((1 << 16,))
    with pytest.raises(CapExceededError):
        frame_from_json({"n": 17, "N": [[1 << 16]] + [[]] * 16})
    frame = NeighborhoodFrame(17, tuple(Family(()) for _ in range(17)))
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
