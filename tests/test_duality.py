import json
import random
from itertools import product

import pytest

from nbhd.core import (
    CompleteHom,
    FrameMorphism,
    InvalidInputError,
    NeighborhoodAlgebra,
    NeighborhoodFrame,
    _set_lanes,
    box_n,
    famask_of,
    is_nbhd_morphism,
)
from nbhd.duality import (
    LaxAlgebra,
    atom_frame,
    complex_algebra,
    dualize_complete_hom,
    dualize_frame_morphism,
    is_complete_nbhd_hom,
    lax_algebra,
    lax_from_json,
    lax_text,
    lax_to_json,
    onestep_top_check,
)
from nbhd.evaluate import assignment_at, theta_t_member
from nbhd.formulas import axiom_set_from_specs, expand_named, free_vars, parse


def all_frames(n):
    total = 1 << (1 << n)
    for key in product(range(total), repeat=n):
        yield NeighborhoodFrame(n, key)


def random_frame(rng, n):
    total = 1 << (1 << n)
    return NeighborhoodFrame(n, [rng.randrange(total) for _ in range(n)])


def test_complex_algebra_example():
    frame = NeighborhoodFrame(2, (famask_of((1, 3)), famask_of((0,))))
    assert complex_algebra(frame).box == (2, 1, 0, 1)


def test_frame_algebra_round_trips_exhaustive():
    for n in (0, 1, 2):
        for frame in all_frames(n):
            assert complex_algebra(frame).box == tuple(box_n(frame, a) for a in range(1 << n))
            assert atom_frame(complex_algebra(frame)) == frame
        m = 1 << n
        for box in product(range(m), repeat=m):
            alg = NeighborhoodAlgebra(n, box)
            assert complex_algebra(atom_frame(alg)) == alg


def test_frame_algebra_round_trips_random_wide():
    rng = random.Random(21)
    for n in (3, 4):
        total = 1 << (1 << n)
        m = 1 << n
        for _ in range(300):
            frame = random_frame(rng, n)
            assert atom_frame(complex_algebra(frame)) == frame
            alg = NeighborhoodAlgebra(n, tuple(rng.randrange(m) for _ in range(m)))
            assert complex_algebra(atom_frame(alg)) == alg
        assert total == 1 << m


def test_morphism_duality_biconditional():
    frames1 = list(all_frames(1))
    frames2 = list(all_frames(2))
    agree = disagree = 0
    cases = [(d, c) for d in frames2 for c in frames1] + [(d, c) for d in frames1 for c in frames2]
    for dom, cod in cases:
        for fmap in product(range(cod.n), repeat=dom.n):
            f = FrameMorphism(dom.n, cod.n, fmap)
            h = dualize_frame_morphism(f)
            forward = is_nbhd_morphism(f, dom, cod)
            dual = is_complete_nbhd_hom(h, complex_algebra(cod), complex_algebra(dom))
            assert forward == dual
            if forward:
                agree += 1
            else:
                disagree += 1
    assert agree and disagree


def test_dualize_round_trips():
    f = FrameMorphism(3, 2, (0, 1, 1))
    h = dualize_frame_morphism(f)
    assert h == CompleteHom(2, 3, (0, 1, 1))
    assert dualize_complete_hom(h) == f
    assert dualize_frame_morphism(dualize_complete_hom(h)) == h


def test_hom_apply_is_preimage():
    f = FrameMorphism(2, 1, (0, 0))
    h = dualize_frame_morphism(f)
    for a in range(2):
        assert h.apply(a) == f.preimage(a)


def test_is_complete_nbhd_hom_size_guard():
    h = CompleteHom(1, 2, (0, 0))
    alg1 = NeighborhoodAlgebra(1, (0, 1))
    with pytest.raises(InvalidInputError):
        is_complete_nbhd_hom(h, alg1, alg1)


def brute_gen(lax):
    famasks = lax.space.famasks()
    return tuple(sum(1 << i for i, fm in enumerate(famasks) if fm >> a & 1) for a in range(1 << lax.n))


def test_lax_algebra_structure():
    lax = lax_algebra(2, axiom_set_from_specs(["@M"], 2))
    assert lax.n == 2
    assert lax.n_atoms == 6
    # gen[full set] covers every nonempty up-closed family.
    full_members = [i for i in range(lax.n_atoms) if lax.gen[3] >> i & 1]
    assert len(full_members) == 5
    assert lax.gen[0] == 1 << lax.space.index_of(0b1111)
    for n, specs in ((3, ["@M"]), (4, ["@Cont"]), (5, ["@M"])):
        lax = lax_algebra(n, axiom_set_from_specs(specs, n))
        assert lax.gen == brute_gen(lax)


def test_onestep_top_check_on_member_axioms():
    lax = lax_algebra(2, axiom_set_from_specs(["@M"], 2))
    assert onestep_top_check(lax, expand_named("@M"))
    assert not onestep_top_check(lax, expand_named("@N"))
    assert not onestep_top_check(lax, expand_named("@C"))
    laxn = lax_algebra(2, axiom_set_from_specs(["@M", "@N"], 2))
    assert onestep_top_check(laxn, expand_named("@M"))
    assert onestep_top_check(laxn, expand_named("@N"))
    laxp = lax_algebra(2, axiom_set_from_specs(["@CInf"], 2))
    assert onestep_top_check(laxp, expand_named("@CInf"))
    assert onestep_top_check(laxp, expand_named("@M"))
    # The shape test reads every famask of the space, the first included:
    # {1, 2} is not closed under intersection.
    laxq = lax_from_json(
        {"n": 2, "axioms": ["@CInf"], "members": [[1, 2], [0, 1, 2, 3]], "gen": [[1], [0, 1], [0, 1], [1]]}
    )
    assert not onestep_top_check(laxq, expand_named("@CInf"))
    with pytest.raises(InvalidInputError):
        onestep_top_check(lax, expand_named("@T"))


def test_lax_every_space_axiom_holds():
    for specs in (["@M"], ["@M", "@N"], ["@C"], ["@Cont"], ["@M", "@C", "@N"]):
        for n in (0, 1, 2):
            axs = axiom_set_from_specs(specs, n)
            lax = lax_algebra(n, axs)
            assert lax.gen == brute_gen(lax)
            for ax in axs:
                assert onestep_top_check(lax, ax), (specs, n, ax.name)


def definitional_top(lax, f):
    """Every W_i = {a : bit i of gen[a]} is in the transposed value of f
    under every assignment."""
    names = free_vars(f)
    m = 1 << lax.n
    for i in range(lax.n_atoms):
        w = famask_of(a for a in range(m) if lax.gen[a] >> i & 1)
        if not all(theta_t_member(w, f, assignment_at(names, lax.n, idx), lax.n) for idx in range(m ** len(names))):
            return False
    return True


def test_onestep_top_check_reads_gen_like_theta_t_member():
    # Random gen tables mostly disagree with the members, so a check that
    # read the members instead of gen would answer true where this is false.
    rng = random.Random(8)
    specs = ["@M", "@C", "@N", "@Cont", "@Conv", "@CoConv", "box u | box ~u", "~box (u & v) | box u & box ~v"]
    outcomes = set()
    for n in range(3):
        axs = axiom_set_from_specs(specs, n)
        for base in (["@M"], ["@C"], ["@Cont"], ["@M", "@N"]):
            lax = lax_algebra(n, axiom_set_from_specs(base, n))
            m = 1 << n
            # The true table, one from the members in shuffled order, and random ones.
            shuffled = rng.sample(lax.space.famasks(), lax.n_atoms)
            gens = [lax.gen, tuple(sum(1 << i for i, fm in enumerate(shuffled) if fm >> a & 1) for a in range(m))]
            gens += [tuple(rng.getrandbits(lax.n_atoms) for _ in range(m)) for _ in range(6)]
            for gen in gens:
                table = LaxAlgebra(lax.space, gen)
                for ax in axs:
                    want = definitional_top(table, ax.formula)
                    assert onestep_top_check(table, ax) == want, (n, base, gen, ax.name)
                    outcomes.add((want, gen == lax.gen))
    assert outcomes == {(True, True), (False, True), (True, False), (False, False)}


def test_lax_json_round_trip():
    lax = lax_algebra(2, axiom_set_from_specs(["@M", "@N"], 2))
    obj = lax_to_json(lax)
    assert set(obj) == {"n", "axioms", "members", "gen"}
    back = lax_from_json(obj)
    assert back == lax
    with pytest.raises(InvalidInputError):
        lax_from_json({"n": 1, "axioms": [], "members": []})
    bad = dict(obj)
    bad["gen"] = obj["gen"][:-1]
    with pytest.raises(InvalidInputError):
        lax_from_json(bad)
    bad2 = dict(obj)
    bad2["gen"] = [[99]] * len(obj["gen"])
    with pytest.raises(InvalidInputError):
        lax_from_json(bad2)
    bad3 = dict(obj)
    bad3["gen"] = [[lax.n_atoms]] * len(obj["gen"])
    with pytest.raises(InvalidInputError, match="atom indices"):
        lax_from_json(bad3)


def test_lax_text_equals_dict_codec():
    def compact(lax):
        return json.dumps(lax_to_json(lax), separators=(",", ":"))

    for n, specs in [(0, ["@M"]), (2, ["@M", "@N"]), (3, ["@Cont"]), (4, ["@M", "@C"]), (4, ["@N"]), (5, ["@M"])]:
        lax = lax_algebra(n, axiom_set_from_specs(specs, n))
        assert lax_text(lax) == compact(lax), (n, specs)
    # The atom index texts are cached by atom count: spaces of 20 and of
    # 168 atoms written back to back, each way round, keep their own.
    small, large = (lax_algebra(n, axiom_set_from_specs(["@M"], n)) for n in (3, 4))
    assert (small.n_atoms, large.n_atoms) == (20, 168)
    for pair in ((small, large), (large, small)):
        for lax in pair:
            assert lax_text(lax) == compact(lax), lax.n_atoms
    # Subsets 0 and 2 are in no member and subset 3 in every one, so the
    # gen table has empty entries and a full one; the empty space has
    # only empty entries.
    for members, gen in (([[3], [1, 3]], (0, 2, 0, 3)), ([], (0, 0, 0, 0))):
        lax = lax_from_json({"n": 2, "axioms": ["@M"], "members": members, "gen": [_set_lanes(g) for g in gen]})
        assert lax.gen == gen
        assert lax_text(lax) == compact(lax), members
