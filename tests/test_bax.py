import hashlib
import io
import json
import sys
from contextlib import redirect_stdout
from itertools import product

import pytest

from nbhd import bax, bitslice, core
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
from nbhd.bitslice import Lanes
from nbhd.classes import AXIOM_TESTS
from nbhd.cli import main
from nbhd.core import CapExceededError, FrameMorphism, InvalidInputError, famask_members, famask_of, up_cone
from nbhd.evaluate import compile_membership, realize_axiom
from nbhd.formulas import axiom_set_from_specs, expand_named

from conftest import given, st
import oracles


def space(n, specs):
    return enumerate_bax(n, axiom_set_from_specs(specs, n))


def baxspace_text(sp):
    """The text `bax enum` prints: the space's chunks, joined."""
    return "".join(bax.baxspace_chunks(sp))


def test_monotone_space_counts_match_up_closed_oracle():
    for n in (0, 1, 2, 3):
        got = len(space(n, ["@M"]).famasks())
        assert got == oracles.up_closed_family_count(n)
    assert [len(space(n, ["@M"]).famasks()) for n in (0, 1, 2, 3)] == [2, 3, 6, 20]


def test_meet_spaces_have_power_of_two_size():
    for n in (0, 1, 2, 3):
        assert len(space(n, ["@N", "@C"]).famasks()) == 1 << n


def test_members_match_brute_axiom_oracle():
    for n in (0, 1, 2):
        for names in (["M"], ["N"], ["C"], ["Cont"], ["M", "N"], ["M", "C"]):
            got = list(space(n, ["@" + x for x in names]).famasks())
            assert got == oracles.axiom_subset_families(n, names)


# Specs and sizes where the up-set route runs, and a kappa axiom that
# keeps its formula (@Ck(2) from n = 2), which the filter sweep takes.
SPACES = [
    (n, specs)
    for n in (0, 1, 2, 3, 4)
    for specs in (
        ["@M"],
        ["@M", "@N"],
        ["@M", "@C", "@N"],
        ["@C"],
        ["@N", "@C"],
        ["@M", "@Cont"],
        ["@CInf"],
        ["@M", "@Ck(2)"],
        ["@Ck(2)"],
        ["@Ck(16)"],
        ["@M", "@Conv"],
        ["@N", "@M", "@CoConv"],
        ["@M", "box u | box ~u"],
    )
]


def full_sweep(n, specs):
    """The membership programs run on all 2^(2^n) famasks: the sweep that
    the up-set route must agree with."""
    axs = axiom_set_from_specs(specs, n)
    return tuple(bitslice.family_filter(0, 1 << (1 << n), [compile_membership(realize_axiom(ax, n), n) for ax in axs]))


def test_famasks_ascending_and_index_of():
    for n, specs in SPACES:
        sp = space(n, specs)
        fams = sp.famasks()
        assert fams is sp.famasks()
        assert all(a < b for a, b in zip(fams, fams[1:])), (n, specs)
        for i, fm in enumerate(fams):
            assert sp.index_of(fm) == i
        outside = set(range(1 << (1 << n))).difference(fams)
        for fm in sorted(outside)[:3] + sorted(outside)[-3:]:
            with pytest.raises(InvalidInputError, match="not a member"):
                sp.index_of(fm)
    with pytest.raises(InvalidInputError):
        space(2, ["@M"]).index_of(famask_of((1,)))


def test_filter_equals_backtrack():
    # enumerate_bax takes the up-set route exactly when an axiom forces
    # up-closure: @M, @C (whose right-to-left half is @M), @CInf or a
    # degraded @Ck(k).  In SPACES only @Ck(2) from n = 2 forces none.
    # Every space equals the full membership sweep.
    for n, specs in SPACES:
        up_set_route = specs != ["@Ck(2)"] or n < 2
        assert bax._forces_up_closure(axiom_set_from_specs(specs, n)) == up_set_route, (n, specs)
        assert space(n, specs).famasks() == full_sweep(n, specs), (n, specs)
    assert len(space(4, ["@M", "@N"]).famasks()) == 167


def test_enumeration_caps():
    # The filter sweep stops at n = 4 and the up-set route, which is
    # refused under its old name, at n = 5.
    with pytest.raises(CapExceededError, match=r"enumerate_bax\[filter\]: n=5 exceeds cap 4"):
        space(5, ["@Cont"])
    with pytest.raises(CapExceededError, match=r"enumerate_bax\[backtrack\]: n=6 exceeds cap 5"):
        space(6, ["@M"])
    assert len(space(5, ["@M"]).famasks()) == 7581
    assert space(4, ["@Cont"]).famasks() == full_sweep(4, ["@Cont"])


# Spaces at n = 5, with the family tests that decide them and their sizes.
N5_SPACES = (
    (["@M", "@N"], ("M", "N"), 7580),
    (["@CInf"], ("N", "C"), 32),
    (["@C"], ("C",), 33),
    (["@Ck(32)"], ("C",), 33),
    (["@M", "@Cont"], ("M", "Cont"), 2),
    (["@M", "@C", "@N"], ("M", "C", "N"), 32),
    (["@M", "@N", "@Cont"], ("M", "N", "Cont"), 1),
)


def test_n5_spaces_equal_the_family_test_route():
    # At n = 5 the up-set route runs neither the @M nor the @N program;
    # the family tests of classes.AXIOM_TESTS decide each axiom another
    # way, on every up-closed family.
    upsets = space(5, ["@M"]).famasks()
    for specs, names, count in N5_SPACES:
        want = tuple(fm for fm in upsets if all(AXIOM_TESTS[name](fm, 5) for name in names))
        assert len(want) == count, specs
        assert space(5, specs).famasks() == want, specs


def test_up_set_route_compiles_no_program_it_drops():
    # @M is dropped by name before compiling: at n = 5 the @M program
    # alone is 1,024 assignments.  Of @M,@N,@Cont, @N and @Cont are
    # compiled.
    n = 5
    compile_membership.cache_clear()
    assert len(space(n, ["@M"]).famasks()) == 7581
    assert compile_membership.cache_info().currsize == 0
    assert len(space(n, ["@M", "@N", "@Cont"]).famasks()) == 1
    assert compile_membership.cache_info().currsize == 2
    hits = compile_membership.cache_info().hits
    compile_membership(realize_axiom(expand_named("@N"), n), n)
    compile_membership(realize_axiom(expand_named("@Cont"), n), n)
    assert compile_membership.cache_info().hits == hits + 2
    compile_membership(realize_axiom(expand_named("@M"), n), n)
    assert compile_membership.cache_info().currsize == 3


def test_bax_map_example_and_membership_guard():
    axs = axiom_set_from_specs(["@M"], 2)
    f = FrameMorphism(2, 1, (0, 0))
    assert bax_map(f, famask_of((3,)), axs) == famask_of((1,))
    assert bax_map(f, famask_of((1, 3)), axs) == famask_of((1,))
    assert bax_map(f, 0, axs) == 0
    with pytest.raises(InvalidInputError):
        bax_map(f, famask_of((1,)), axs)
    # Members outside the domain's powerset are refused, not mapped to [].
    with pytest.raises(InvalidInputError, match="is not a subset mask for n=2"):
        bax_map(f, famask_of((3, 1 << 10)), axs)
    with pytest.raises(InvalidInputError, match="bax_map: -2 is not a famask"):
        bax_map(f, -2, axs)


def test_bax_map_refuses_a_wide_codomain():
    # The image ranges over all 2^n_cod codomain subsets, so the width is
    # refused before any of them is visited.
    axs = axiom_set_from_specs(["@M"])
    for n_cod in (17, 24, 40):
        with pytest.raises(CapExceededError, match=f"bax_map: n={n_cod} exceeds cap 16"):
            bax_map(FrameMorphism(0, n_cod, ()), 0, axs)
    assert bax_map(FrameMorphism(0, 3, ()), 0, axs) == 0


def test_bax_map_lands_in_codomain_space():
    axs2 = axiom_set_from_specs(["@M", "@N"], 2)
    dom = enumerate_bax(2, axs2)
    cod_famasks = set(enumerate_bax(2, axs2).famasks())
    for f_map in ((0, 0), (0, 1), (1, 0), (1, 1)):
        f = FrameMorphism(2, 2, f_map)
        for w in dom.famasks():
            assert bax_map(f, w, axs2) in cod_famasks


def test_principal_iso_bijection():
    for n in (0, 1, 2, 3):
        for c in range(1 << n):
            fam = principal_iso(n, "from_subset", c)
            assert fam == up_cone(c, n)
            assert principal_iso(n, "to_subset", fam) == c
    with pytest.raises(InvalidInputError):
        principal_iso(2, "to_subset", 0)
    with pytest.raises(InvalidInputError):
        principal_iso(2, "to_subset", famask_of((1, 2)))
    with pytest.raises(InvalidInputError):
        principal_iso(2, "sideways", 0)
    with pytest.raises(CapExceededError):
        principal_iso(40, "to_subset", famask_of((1,)))


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
    assert report["checked"] == len(enumerate_bax(2, axs).famasks())
    g = FrameMorphism(1, 2, (1,))
    both = naturality_check(f, axs, g=g)
    assert both["functorial"]
    assert both["checked"] == 2 * len(enumerate_bax(2, axs).famasks())
    with pytest.raises(InvalidInputError, match="codomain of f must match domain of g"):
        naturality_check(f, axs, g=f)


def bax_map_report(f, axs, g):
    """naturality_check's report, built member by member through bax_map."""
    dom = enumerate_bax(f.n_dom, axs).famasks()
    cod = set(enumerate_bax(f.n_cod, axs).famasks())
    failures = [{"family": list(famask_members(w)), "image": list(famask_members(bax_map(f, w, axs)))} for w in dom if bax_map(f, w, axs) not in cod]
    if g is not None:
        gf = compose_morphisms(g, f)
        for w in dom:
            direct, staged = bax_map(gf, w, axs), bax_map(g, bax_map(f, w, axs), axs)
            if direct != staged:
                failures.append({"family": list(famask_members(w)), "direct": list(famask_members(direct)), "staged": list(famask_members(staged))})
    return {"functorial": not failures, "checked": len(dom) * (1 if g is None else 2), "failures": failures}


def test_naturality_check_equals_the_bax_map_route():
    # Every point map between carriers of at most two points, alone and
    # followed by every map out of its codomain.
    maps = {n: [FrameMorphism(n, m, t) for m in range(3) for t in product(range(m), repeat=n)] for n in range(3)}
    for specs in (["@M"], ["@Conv"], ["@Cont"], ["@CInf"], ["@N", "@C"]):
        for f in (f for fs in maps.values() for f in fs):
            axs = axiom_set_from_specs(specs, f.n_dom)
            for g in [None] + maps[f.n_cod]:
                assert naturality_check(f, axs, g) == bax_map_report(f, axs, g), (specs, f, g)


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


def compact(sp):
    return json.dumps(baxspace_to_json(sp), separators=(",", ":"))


def famask_space(n, famasks):
    """A space holding the given famasks, ascending, whatever they are:
    the text writer reads only n, the axioms and the famasks."""
    return BaxSpace(n, axiom_set_from_specs([], n), tuple(sorted(set(famasks))))


def test_baxspace_text_equals_dict_codec():
    # The run writer against the definitional dict codec.
    for n, specs in SPACES + [(5, ["@M"]), (4, ["@N"])]:
        sp = space(n, specs)
        assert baxspace_text(sp) == compact(sp), (n, specs)
    # Every set of famasks at n <= 2.
    for n in (0, 1, 2):
        m = 1 << (1 << n)
        for chosen in range(1 << m):
            sp = famask_space(n, [w for w in range(m) if chosen >> w & 1])
            assert baxspace_text(sp) == compact(sp), (n, sp.famasks())
    # Below 2^8 at n = 4, below 2^16 at n = 5 and below 2^32 at n = 6 no
    # set of a family holds the top point, and a multiple of those bounds
    # is a family whose every set holds it.  The lists mix both kinds with
    # the empty family, and one-member runs with longer ones.
    for n, famasks in (
        (4, [0, 3, 255, 0x100, 0x107, 0x109, 0x8000, 0xFFFF]),
        (4, [0x100]),
        (4, [5, 0x8000]),
        (5, [0, 1, 0xFFFF, 0x10000, 0x10005, 0x1FFFF, 0x80000000, 0xFFFFFFFF]),
        (5, [0x10000, 0x20000, 0x30001]),
        (6, [0, 1 << 32, (1 << 32) + 1, (1 << 33) + 7, (1 << 64) - 1]),
    ):
        sp = famask_space(n, famasks)
        assert baxspace_text(sp) == compact(sp), (n, famasks)
    # The empty family alone, and the empty space.
    for n in (0, 3, 4, 5, 6, 7):
        for famasks in ([0], []):
            sp = famask_space(n, famasks)
            assert baxspace_text(sp) == compact(sp), (n, famasks)
    # Famasks of 2^32 or more arrive only through the decoder, at n >= 6.
    for members in ([], [[]], [[0, 7, 8, 31]], [[], [5, 31], [63], [0, 31, 32, 63]]):
        sp = baxspace_from_json({"n": 6, "axioms": ["@M"], "members": members})
        assert baxspace_text(sp) == compact(sp), members
    assert max(sp.famasks()) >> 32


@given(st.integers(3, 6), st.data())
def test_property_baxspace_text_equals_dict_codec(n, data):
    # Famasks that share their bits above a split point sit next to each
    # other, wherever the split falls; a few random ones join them.
    width = 1 << n
    split = data.draw(st.integers(1, width - 1))
    highs = data.draw(st.lists(st.integers(0, (1 << (width - split)) - 1), max_size=4))
    lows = data.draw(st.lists(st.integers(0, (1 << split) - 1), max_size=8))
    loose = data.draw(st.lists(st.integers(0, (1 << width) - 1), max_size=4))
    sp = famask_space(n, [high << split | low for high in highs for low in lows] + loose)
    assert baxspace_text(sp) == compact(sp)


def test_baxspace_from_json_refuses_unordered_members():
    # Out of order, or repeated: index_of would miss members that are there.
    for members in ([[2, 3], [3], [1, 3], [0, 1, 2, 3], []], [[1], [1]]):
        with pytest.raises(InvalidInputError, match="strictly ascending by famask"):
            baxspace_from_json({"n": 2, "axioms": ["@M"], "members": members})
    # The same families in famask order decode, and every one is found.
    ordered = [[], [3], [1, 3], [2, 3], [0, 1, 2, 3]]
    sp = baxspace_from_json({"n": 2, "axioms": ["@M"], "members": ordered})
    assert baxspace_to_json(sp)["members"] == ordered
    for i, fm in enumerate(sp.famasks()):
        assert sp.index_of(fm) == i
    assert baxspace_from_json({"n": 2, "axioms": ["@M"], "members": [[1]]}).famasks() == (2,)
    with pytest.raises(InvalidInputError, match="member 4 is not a subset mask for n=2"):
        baxspace_from_json({"n": 2, "axioms": ["@M"], "members": [[], [0, 4]]})


def cli_out(*argv):
    """Exit code and stdout of one CLI command, run in process."""
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def test_count_equals_the_members_written():
    # `--count` reads the popcount of the accepted lanes and the text
    # writer reads the lanes per run: neither decodes, so each is held
    # to the other and to the decoded famasks.
    cases = [(n, specs) for n, specs in SPACES] + [(n, [spec]) for n in range(5) for spec in ("@N", "@Cont", "@Ck(32)")]
    cases += [(5, specs) for specs, _, _ in N5_SPACES]
    for n, specs in cases:
        argv = ["bax", "enum", "--n", str(n), "--axioms", ",".join(specs)]
        code, counted = cli_out(*argv, "--count")
        assert code == 0, (n, specs)
        code, written = cli_out(*argv)
        assert code == 0, (n, specs)
        count = json.loads(counted)["count"]
        assert count == len(json.loads(written)["members"]) == len(space(n, specs).famasks()), (n, specs)


# The pinned outputs of the bax benchmark workloads: SHA-256 of the text.
PINNED = {
    "bax enum --n 4 --axioms @N": "e4f6c634e45601fa7792383a8e0bf4c6c6307291b59532a7120dcde65a8cb465",
    "bax enum --n 5 --axioms @M": "4201916d31e5786061d2efe14477d5d0d8019f03871aac02bed07df266186880",
    "bax enum --n 4 --axioms @Cont --count": hashlib.sha256(b'{"count":256}\n').hexdigest(),
}


def test_bax_enum_decodes_no_lanes(monkeypatch):
    # Once the tables of the two bases exist, writing or counting a space
    # never decodes a lane: every binding of the two decoders raises.
    for line, digest in PINNED.items():
        assert hashlib.sha256(cli_out(*line.split())[1].encode()).hexdigest() == digest, line

    def refuse(*args):
        raise AssertionError("a lane was decoded")

    for decoder in (core._set_lanes, core._lane_picker):
        for module in [m for name, m in sys.modules.items() if name == "nbhd" or name.startswith("nbhd.")]:
            for attr, value in list(vars(module).items()):
                if value is decoder:
                    monkeypatch.setattr(module, attr, refuse)
    with pytest.raises(AssertionError, match="a lane was decoded"):
        space(2, ["@M"]).famasks()
    for line, digest in PINNED.items():
        code, out = cli_out(*line.split())
        assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == digest, line


# Bases of lane views: the sweeps at n = 3 and 4, the up-closed families
# at n = 4 and 5, and famasks chosen by hand at n = 6, across 2^32.
BASES = (
    (3, range(1 << 8)),
    (4, range(1 << 16)),
    (4, bitslice._upsets(4)),
    (5, bitslice._upsets(5)),
    (6, (0, 1, 0xFFFF, 1 << 31, 1 << 32, (1 << 32) + 1, (1 << 33) + 7, 5 << 40, (1 << 64) - 1)),
)


def lane_space(n, base, mask):
    return BaxSpace(n, axiom_set_from_specs([], n), Lanes(base, mask))


def test_text_of_edge_lane_subsets():
    for n, base in BASES:
        top = len(base) - 1
        for mask in (0, (1 << len(base)) - 1, 1, 1 << top, 1 | 1 << top):
            sp = lane_space(n, base, mask)
            assert baxspace_text(sp) == compact(sp), (n, len(base), mask)


@given(st.sampled_from(range(len(BASES))), st.data())
def test_property_text_of_random_lane_subsets(which, data):
    # Dense masks drawn whole, and sparse ones as a few lanes.
    n, base = BASES[which]
    lanes = len(base)
    mask = data.draw(
        st.one_of(
            st.integers(0, (1 << lanes) - 1),
            st.lists(st.integers(0, lanes - 1), max_size=12).map(lambda picked: sum(1 << i for i in set(picked))),
        )
    )
    sp = lane_space(n, base, mask)
    assert baxspace_text(sp) == compact(sp)


def test_decoded_space_equals_and_hashes_like_the_enumerated_one():
    for n, specs in SPACES + [(5, ["@M"]), (5, ["@M", "@Cont"])]:
        sp = space(n, specs)
        back = baxspace_from_json(baxspace_to_json(sp))
        assert back == sp and hash(back) == hash(sp), (n, specs)
        assert back.lanes.base is not sp.lanes.base
        assert baxspace_text(back) == baxspace_text(sp), (n, specs)
    assert space(3, ["@M"]) != space(3, ["@M", "@N"])
