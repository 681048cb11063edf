import pytest

from nbhd.bax import (
    BaxSpace,
    bax_map,
    baxspace_from_json,
    baxspace_to_json,
    compose_morphisms,
    enumerate_bax,
    naturality_check,
    principal_iso,
)
from nbhd.core import CapExceededError, Family, FrameMorphism, InvalidInputError, family_from_famask, up_cone
from nbhd.formulas import axiom_set_from_specs

import oracles


def space(n, specs, **kw):
    return enumerate_bax(n, axiom_set_from_specs(specs, n), **kw)


def test_monotone_space_counts_match_up_closed_oracle():
    for n in (0, 1, 2, 3):
        got = len(space(n, ["@M"]).members)
        assert got == oracles.up_closed_family_count(n)
    assert [len(space(n, ["@M"]).members) for n in (0, 1, 2, 3)] == [2, 3, 6, 20]


def test_meet_spaces_have_power_of_two_size():
    for n in (0, 1, 2, 3):
        assert len(space(n, ["@N", "@C"]).members) == 1 << n


def test_members_match_brute_axiom_oracle():
    for n in (0, 1, 2):
        for names in (["M"], ["N"], ["C"], ["Cont"], ["M", "N"], ["M", "C"]):
            got = list(space(n, ["@" + x for x in names]).famasks())
            assert got == oracles.axiom_subset_families(n, names)


# Every spec and size both strategies accept.  A kappa axiom is only a
# closure guarantee once it degrades to the shape test; while it keeps its
# formula (@Ck(2) from n = 2), backtrack must refuse it.
BOTH_STRATEGIES = [
    (n, specs)
    for n in (0, 1, 2, 3)
    for specs in (["@M"], ["@M", "@N"], ["@M", "@C", "@N"], ["@M", "@Cont"], ["@CInf"], ["@M", "@Ck(2)"])
] + [(n, ["@Ck(2)"]) for n in (0, 1)]


def test_famasks_ascending_and_index_of():
    for n, specs in BOTH_STRATEGIES:
        for strategy in ("filter", "backtrack"):
            sp = space(n, specs, strategy=strategy)
            fams = sp.famasks()
            assert fams is sp.famasks()
            assert all(a < b for a, b in zip(fams, fams[1:])), (n, specs, strategy)
            assert tuple(fam.famask() for fam in sp.members) == fams
            for i, fam in enumerate(sp.members):
                assert sp.index_of(fam) == i
            outside = set(range(1 << (1 << n))).difference(fams)
            for fm in sorted(outside)[:3] + sorted(outside)[-3:]:
                with pytest.raises(InvalidInputError, match="not a member"):
                    sp.index_of(family_from_famask(fm))
    with pytest.raises(InvalidInputError):
        space(2, ["@M"]).index_of(Family((1,)))


def test_filter_equals_backtrack():
    for n, specs in BOTH_STRATEGIES:
        a = space(n, specs, strategy="filter").famasks()
        b = space(n, specs, strategy="backtrack").famasks()
        assert a == b, (n, specs)
    with pytest.raises(InvalidInputError):
        space(2, ["@Ck(2)"], strategy="backtrack")


def test_worker_pools_agree_with_serial():
    serial = space(4, ["@M", "@N"], strategy="filter", workers=1).famasks()
    pooled = space(4, ["@M", "@N"], strategy="filter", workers=4).famasks()
    assert serial == pooled


def test_strategy_errors_and_caps():
    with pytest.raises(InvalidInputError):
        space(2, ["@M"], strategy="bogus")
    with pytest.raises(InvalidInputError):
        space(2, ["@Cont"], strategy="backtrack")
    with pytest.raises(CapExceededError):
        space(5, ["@Cont"], strategy="filter")
    with pytest.raises(CapExceededError):
        space(6, ["@M"], strategy="backtrack")
    # auto picks a sound strategy either way.
    assert space(2, ["@Cont"]).famasks() == space(2, ["@Cont"], strategy="filter").famasks()
    assert space(2, ["@M"]).famasks() == space(2, ["@M"], strategy="backtrack").famasks()


def test_bax_map_example_and_membership_guard():
    axs = axiom_set_from_specs(["@M"], 2)
    f = FrameMorphism(2, 1, (0, 0))
    assert bax_map(f, Family((3,)), axs) == Family((1,))
    assert bax_map(f, Family((1, 3)), axs) == Family((1,))
    assert bax_map(f, Family(()), axs) == Family(())
    with pytest.raises(InvalidInputError):
        bax_map(f, Family((1,)), axs)
    # Members outside the domain's powerset are refused, not mapped to [].
    with pytest.raises(InvalidInputError, match="is not a subset mask for n=2"):
        bax_map(f, Family((3, 1 << 10)), axs)


def test_bax_map_refuses_a_wide_codomain():
    # The image ranges over all 2^n_cod codomain subsets, so the width is
    # refused before any of them is visited.
    axs = axiom_set_from_specs(["@M"])
    for n_cod in (17, 24, 40):
        with pytest.raises(CapExceededError, match=f"bax_map: n={n_cod} exceeds cap 16"):
            bax_map(FrameMorphism(0, n_cod, ()), Family(()), axs)
    assert bax_map(FrameMorphism(0, 3, ()), Family(()), axs) == Family(())


def test_bax_map_lands_in_codomain_space():
    axs2 = axiom_set_from_specs(["@M", "@N"], 2)
    dom = enumerate_bax(2, axs2)
    cod_famasks = set(enumerate_bax(2, axs2).famasks())
    for f_map in ((0, 0), (0, 1), (1, 0), (1, 1)):
        f = FrameMorphism(2, 2, f_map)
        for w in dom.members:
            assert bax_map(f, w, axs2).famask() in cod_famasks


def test_principal_iso_bijection():
    for n in (0, 1, 2, 3):
        for c in range(1 << n):
            fam = principal_iso(n, "from_subset", c)
            assert fam == up_cone(c, n)
            assert principal_iso(n, "to_subset", fam) == c
    with pytest.raises(InvalidInputError):
        principal_iso(2, "to_subset", Family(()))
    with pytest.raises(InvalidInputError):
        principal_iso(2, "to_subset", Family((1, 2)))
    with pytest.raises(InvalidInputError):
        principal_iso(2, "sideways", 0)
    with pytest.raises(CapExceededError):
        principal_iso(40, "to_subset", Family((1,)))


def test_compose_morphisms():
    f = FrameMorphism(3, 2, (0, 0, 1))
    g = FrameMorphism(2, 2, (1, 0))
    assert compose_morphisms(g, f) == FrameMorphism(3, 2, (1, 1, 0))
    with pytest.raises(InvalidInputError):
        compose_morphisms(f, f)


def test_naturality_check():
    axs = axiom_set_from_specs(["@M"], 2)
    f = FrameMorphism(2, 1, (0, 0))
    report = naturality_check(f, axs)
    assert report["functorial"] and not report["failures"]
    assert report["checked"] == len(enumerate_bax(2, axs).members)
    g = FrameMorphism(1, 2, (1,))
    both = naturality_check(f, axs, g=g)
    assert both["functorial"]
    assert both["checked"] == 2 * len(enumerate_bax(2, axs).members)
    sampled = naturality_check(f, axs, g=g, sample=3, seed=1)
    again = naturality_check(f, axs, g=g, sample=3, seed=1)
    assert sampled == again
    assert sampled["checked"] == len(enumerate_bax(2, axs).members) + 3


def test_baxspace_json_round_trip():
    sp = space(2, ["@M", "@N"])
    obj = baxspace_to_json(sp)
    assert obj["n"] == 2 and obj["axioms"] == ["@M", "@N"]
    back = baxspace_from_json(obj)
    assert back == sp
    with pytest.raises(InvalidInputError):
        baxspace_from_json({"n": 2, "axioms": []})
    with pytest.raises(InvalidInputError):
        baxspace_from_json({"n": "2", "axioms": [], "members": []})
    with pytest.raises(InvalidInputError, match="members must be a list"):
        baxspace_from_json({"n": 2, "axioms": [], "members": 5})


def test_baxspace_from_json_refuses_unordered_members():
    # Out of order, or repeated: index_of would miss members that are there.
    for members in ([[2, 3], [3], [1, 3], [0, 1, 2, 3], []], [[1], [1]]):
        with pytest.raises(InvalidInputError, match="strictly ascending by famask"):
            baxspace_from_json({"n": 2, "axioms": ["@M"], "members": members})
    # The same families in famask order decode, and every one is found.
    ordered = [[], [3], [1, 3], [2, 3], [0, 1, 2, 3]]
    sp = baxspace_from_json({"n": 2, "axioms": ["@M"], "members": ordered})
    assert baxspace_to_json(sp)["members"] == ordered
    for i, fam in enumerate(sp.members):
        assert sp.index_of(fam) == i
    assert baxspace_from_json({"n": 2, "axioms": ["@M"], "members": [[1]]}).famasks() == (2,)
    with pytest.raises(InvalidInputError, match="member 4 is not a subset mask for n=2"):
        baxspace_from_json({"n": 2, "axioms": ["@M"], "members": [[], [0, 4]]})
