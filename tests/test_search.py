import random
from itertools import cycle, permutations, product

import pytest

from conftest import given, st
import oracles
from nbhd import search
from nbhd.classes import AXIOM_TESTS, FRAME_TAGS, frame_class_check, frame_tag_axioms
from nbhd.core import (
    CapExceededError,
    InvalidInputError,
    NeighborhoodAlgebra,
    NeighborhoodFrame,
    box_n,
    famask_of,
    frame_from_json,
    full_mask,
)
from nbhd.bitslice import block_refute
from nbhd.duality import complex_algebra
from nbhd.evaluate import assignment_at, compile_algebra, eval_formula, find_refuting_assignment
from nbhd.bax import enumerate_bax
from nbhd.formulas import axiom_set_from_specs, free_vars, parse
from nbhd.search import (
    MODES,
    SearchSpec,
    apply_perm_mask,
    canonical_form,
    compile_target,
    count_frames,
    enumerate_frames,
    find_countermodel,
    relabel_frame,
)


def families(n: int):
    return range(1 << (1 << n))


def all_frames(n: int):
    return [NeighborhoodFrame(n, nbhd) for nbhd in product(families(n), repeat=n)]


def test_apply_perm_mask_and_relabel():
    assert apply_perm_mask(0b011, (2, 0, 1)) == 0b101
    assert apply_perm_mask(0, (1, 0)) == 0
    frame = NeighborhoodFrame(2, (famask_of((1, 3)), famask_of((0,))))
    swapped = relabel_frame(frame, (1, 0))
    assert swapped.key() == (famask_of((0,)), famask_of((2, 3)))
    assert relabel_frame(swapped, (1, 0)) == frame
    with pytest.raises(InvalidInputError):
        relabel_frame(frame, (0, 0))


def test_canonical_form_example():
    a = NeighborhoodFrame(2, (famask_of((2,)), 0))
    b = relabel_frame(a, (1, 0))
    assert b.key() == (0, famask_of((1,)))
    assert canonical_form(a) == canonical_form(b)
    assert canonical_form(a).key() == (0, 2)


def test_canonical_form_idempotent_and_invariant():
    for frame in all_frames(2):
        canon = canonical_form(frame)
        assert canon.key() <= frame.key()
        assert canonical_form(canon) == canon
        for perm in permutations(range(2)):
            assert canonical_form(relabel_frame(frame, perm)) == canon


def test_canonical_form_invariant_sampled_n3():
    rng = random.Random(11)
    fams = families(3)
    for _ in range(30):
        frame = NeighborhoodFrame(3, tuple(rng.choice(fams) for _ in range(3)))
        canon = canonical_form(frame)
        for perm in permutations(range(3)):
            assert canonical_form(relabel_frame(frame, perm)) == canon




@st.composite
def frame_keys(draw, widths):
    n = draw(widths)
    return n, tuple(draw(st.lists(st.integers(0, (1 << (1 << n)) - 1), min_size=n, max_size=n)))


def definitionally_canonical(n, key):
    return canonical_form(NeighborhoodFrame(n, key)).key() == key


def test_canonical_key_test_exhaustive_small():
    for n in range(3):
        for key in product(range(1 << (1 << n)), repeat=n):
            assert search._is_canonical_key(n, key) == definitionally_canonical(n, key), key
    for constraints in (("filter",), ("monotone",)):
        for frame in enumerate_frames(3, constraints):
            key = frame.key()
            assert search._is_canonical_key(3, key) == definitionally_canonical(3, key), key


@given(frame_keys(st.integers(3, 4)))
def test_property_canonical_key_test(case):
    n, key = case
    canon = canonical_form(NeighborhoodFrame(n, key)).key()
    assert search._is_canonical_key(n, key) == (canon == key)
    assert search._is_canonical_key(n, canon)


@given(frame_keys(st.integers(0, 4)), st.data())
def test_property_canonical_form_invariant_under_relabeling(case, data):
    n, key = case
    frame = NeighborhoodFrame(n, key)
    perm = tuple(data.draw(st.permutations(range(n))))
    assert canonical_form(relabel_frame(frame, perm)) == canonical_form(frame)


def test_canonical_form_width_cap():
    wide = NeighborhoodFrame(9, (0,) * 9)
    with pytest.raises(CapExceededError):
        canonical_form(wide)


def test_enumerate_order_and_raw_counts():
    assert count_frames(0) == 1
    assert count_frames(1) == 4
    assert count_frames(2) == 256
    keys = [f.key() for f in enumerate_frames(2)]
    assert len(keys) == 256
    assert keys == sorted(keys)
    assert keys[0] == (0, 0) and keys[-1] == (15, 15)
    assert len(list(enumerate_frames(0))) == 1
    for constraints in ((), ("filter",), ("monotone", "contingency")):
        got = list(enumerate_frames(2, constraints, canonical=True))
        assert len(got) == count_frames(2, constraints, canonical=True)


def test_filter_counts_raw_and_canonical():
    raw = [f.key() for f in enumerate_frames(2, ("filter",))]
    assert len(raw) == 16
    assert count_frames(2, ("filter",), canonical=True) == 10
    assert oracles.orbit_count(raw) == 10


def test_canonical_counts_match_orbit_oracle():
    for constraints in ((), ("monotone",), ("contingency",), ("iv",), ("kappa:2",)):
        raw = [f.key() for f in enumerate_frames(2, constraints)]
        assert count_frames(2, constraints, canonical=True) == oracles.orbit_count(raw)
    raw3 = [f.key() for f in enumerate_frames(3, ("filter",))]
    assert len(raw3) == 8 ** 3
    assert count_frames(3, ("filter",), canonical=True) == oracles.orbit_count(raw3)
    raw3 = [f.key() for f in enumerate_frames(3, ("monotone",))]
    assert len(raw3) == 20 ** 3
    assert count_frames(3, ("monotone",), canonical=True) == oracles.orbit_count(raw3) == 1440


def test_workers_match_serial():
    for canonical in (False, True):
        serial = [f.key() for f in enumerate_frames(2, ("monotone",), canonical)]
        parallel = [f.key() for f in enumerate_frames(2, ("monotone",), canonical, workers=4)]
        assert parallel == serial
    serial = [f.key() for f in enumerate_frames(3, ("filter",), canonical=True)]
    assert [f.key() for f in enumerate_frames(3, ("filter",), canonical=True, workers=4)] == serial
    assert count_frames(2, (), canonical=True, workers=4) == count_frames(2, (), canonical=True)


def test_constraint_semantics_against_direct_check():
    # Every frame tag alone and a few pairs, against the conjunction of
    # frame_class_check over every frame with n <= 2, in scan order.
    singles = [(tag,) for tag in FRAME_TAGS if tag != "kappa"] + [("kappa:2",), ("kappa:3",)]
    pairs = [
        ("centered", "iv"),
        ("contingency", "topological"),
        ("monotone", "centered"),
        ("kappa:2", "iv"),
        ("convex", "pretopological"),
        ("coconvex", "filter"),
    ]
    for n in range(3):
        frames = all_frames(n)
        for tags in singles + pairs:
            parsed = [search.parse_class_tag(text) for text in tags]
            brute = [frame.key() for frame in frames if all(frame_class_check(frame, tag) for tag in parsed)]
            assert count_frames(n, tags) == len(brute), (n, tags)
            assert [frame.key() for frame in enumerate_frames(n, tags)] == brute, (n, tags)
    # An axiom constraint prunes per point exactly like its family class.
    assert count_frames(2, ("@M",)) == count_frames(2, ("monotone",)) == 36
    assert count_frames(2, ("@M", "contingency")) == count_frames(2, ("monotone", "contingency"))


def test_tag_candidates_equal_their_family_tests_n4():
    # The search enumerates a tag's one-step axioms with enumerate_bax; the
    # class checks' family tests and the centered test give the same lists.
    passing = {name: {fm for fm in families(4) if test(fm, 4)} for name, test in AXIOM_TESTS.items()}
    planes = [sum(1 << a for a in range(16) if a >> x & 1) for x in range(4)]
    for text in [tag for tag in FRAME_TAGS if tag != "kappa"] + [f"kappa:{k}" for k in (1, 2, 3, 4)]:
        axioms = frame_tag_axioms(search.parse_class_tag(text))
        shared = [fm for fm in families(4) if all(fm in passing[name] for name in axioms if name in passing)]
        want = [[fm for fm in shared if "T" not in axioms or fm & plane == fm] for plane in planes]
        cands, iv = search._compile_constraints(4, (text,))
        assert [list(c) for c in cands] == want, text
        assert iv == ("Four" in axioms), text


def test_tag_axioms_follow_the_specs():
    # A tag's axioms skip a spec already listed; the specs keep their
    # duplicates, and a bad tag is reported before a bad spec.
    assert count_frames(2, ("monotone", "@M")) == count_frames(2, ("@M", "monotone")) == 36
    assert count_frames(2, ("filter", "kappa:3", "@N")) == count_frames(2, ("filter",)) == 16
    with pytest.raises(InvalidInputError, match="duplicate names"):
        count_frames(2, ("@M", "@M"))
    with pytest.raises(InvalidInputError, match="kappa >= 1"):
        count_frames(2, ("@Bogus", "kappa:0"))


def test_family_classes_are_presented_by_one_step_axioms():
    # Each one-step registry axiom's family test picks out exactly the
    # families of its formula, at every n <= 4; every per-family class is
    # a conjunction of these tests.  The semantic axioms equal the formula
    # axioms they stand for.
    def space(n, specs):
        return enumerate_bax(n, axiom_set_from_specs(specs, n)).famasks()

    for n in range(5):
        for name, test in AXIOM_TESTS.items():
            assert tuple(fm for fm in range(1 << (1 << n)) if test(fm, n)) == space(n, ["@" + name]), (n, name)
        assert space(n, ["@CInf"]) == space(n, ["@N", "@C"]), n
        assert space(n, [f"@Ck({1 << n})"]) == space(n, ["@C"]), n


def test_compile_target_shapes():
    assert compile_target(None, 2) is None
    assert compile_target("box u -> u", 1) == parse("box u -> u")
    assert compile_target(" @M ", 2) == parse("box (u & v) -> box u")
    # @Ck(4) degrades to the @C formula on one point and keeps its four
    # variables on three.
    assert compile_target("@Ck(4)", 1) == parse("box u & box v <-> box(u & v)")
    assert free_vars(compile_target("@Ck(4)", 3)) == ["v1", "v2", "v3", "v4"]
    assert compile_target("@CInf", 1) == parse("box T & (box u & box v <-> box(u & v))")


def test_find_refuting_golden_m():
    result = find_countermodel(SearchSpec(target="@M"))
    assert result == {
        "found": True,
        "frame": {"n": 1, "N": [[0]]},
        "assignment": {"u": 1, "v": 0},
        "checked": 3,
    }


def test_find_refuting_golden_t_over_filters():
    result = find_countermodel(SearchSpec(target="box v -> v", constraints=("filter",)))
    assert result == {
        "found": True,
        "frame": {"n": 1, "N": [[0, 1]]},
        "assignment": {"v": 0},
        "checked": 3,
    }


def test_find_refuting_monotone_m_exhausts():
    result = find_countermodel(SearchSpec(target="@M", constraints=("monotone",), max_n=2))
    assert result == {"found": False, "frame": None, "assignment": None, "checked": 25}


def test_find_refuting_predicate_target():
    # A semantic axiom's countermodel comes with the least assignment
    # refuting its registry formulas, rechecked here by eval_formula.
    for target, frame, assignment, checked in (
        ("@Ck(4)", {"n": 1, "N": [[0]]}, {"u": 0, "v": 1}, 3),
        ("@CInf", {"n": 1, "N": [[]]}, {"u": 0, "v": 0}, 2),
    ):
        result = find_countermodel(SearchSpec(target=target, max_n=1))
        assert result == {"found": True, "frame": frame, "assignment": assignment, "checked": checked}
        alg = complex_algebra(frame_from_json(frame))
        assert eval_formula(alg, compile_target(target, 1), assignment) != 1


def test_find_validating_hits_empty_carrier():
    # Every formula holds on the 0-point frame, so smallest-first search
    # always answers with it.
    result = find_countermodel(SearchSpec(target="box v & ~v", mode="find_validating"))
    assert result == {
        "found": True,
        "frame": {"n": 0, "N": []},
        "assignment": None,
        "checked": 1,
    }


def test_count_mode():
    spec = SearchSpec(constraints=("monotone",), mode="count", max_n=2)
    assert find_countermodel(spec) == {"count": 25, "checked": 25}
    spec = SearchSpec(target="@M", constraints=("monotone",), mode="count", max_n=2)
    assert find_countermodel(spec) == {"count": 25, "checked": 25}
    spec = SearchSpec(target="@CInf", mode="count", max_n=1)
    assert find_countermodel(spec) == {"count": 3, "checked": 5}


def test_count_mode_cross_checked_against_enumeration():
    target = parse("box v -> v")
    expected = 0
    total = 0
    for n in range(3):
        for frame in enumerate_frames(n, ("filter",), canonical=True):
            total += 1
            if find_refuting_assignment(complex_algebra(frame), target) is None:
                expected += 1
    spec = SearchSpec(target="box v -> v", constraints=("filter",), mode="count", max_n=2)
    assert find_countermodel(spec) == {"count": expected, "checked": total}
    assert total == 13


def test_count_mode_pins_the_centered_correspondence():
    # @T holds exactly on the centered frames (CentT): 1 + 2 + 10 canonical
    # ones at n <= 2 among 141, and all 765 centered ones at n <= 3.
    assert find_countermodel(SearchSpec(target="@T", mode="count", max_n=2)) == {"count": 13, "checked": 141}
    spec = SearchSpec(target="@T", constraints=("centered",), mode="count", max_n=3)
    assert find_countermodel(spec) == {"count": 765, "checked": 765}


BLOCK_TARGETS = ("@T", "@Four", "@M", "@C", "box v", "~box ~u | box (u & ~v) | v", "T")


def box_n_refutation(n, key, f):
    """First refuting assignment index of f on the frame with this key,
    through box_n tables and eval_formula, or -1."""
    frame = NeighborhoodFrame(n, key)
    alg = NeighborhoodAlgebra(n, tuple(box_n(frame, a) for a in range(1 << n)))
    names = free_vars(f)
    for idx in range((1 << n) ** len(names)):
        if eval_formula(alg, f, assignment_at(names, n, idx)) != full_mask(n):
            return idx
    return -1


def assert_block_check_is_definitional(n, keys, texts):
    """The search's block check, one block_refute sweep, on consecutive
    blocks of mixed sizes gives each frame's eval_formula verdict, and as
    the least refuted frame of a block every refuting frame gets its first
    refuting assignment."""
    for text in texts:
        f = compile_target(text, n)
        program = compile_algebra(f)
        names = free_vars(f)
        assert list(program.names) == names

        def check(block):
            refuted, idx = block_refute(block, n, program.opcodes, program.opargs, len(names))
            return refuted, None if idx < 0 else assignment_at(names, n, idx)

        cap = 1 << max(0, search.TARGET_BLOCK_BITS - n * len(names))
        want = [box_n_refutation(n, key, f) for key in keys]
        start = 0
        for size in cycle((1, 2, 7, 64, cap)):
            block = keys[start:start + size]
            if not block:
                break
            refuted, _ = check(block)
            assert refuted == sum(1 << j for j, w in enumerate(want[start:start + size]) if w >= 0), (n, text)
            start += size
        for j, w in enumerate(want):
            if w >= 0:
                refuted, env = check(keys[j:j + 1 + j % 4])
                assert refuted & 1 and env == assignment_at(names, n, w), (n, keys[j], text)


def test_block_check_matches_eval_formula_on_small_spaces():
    for n in range(3):
        # @Ck(4) is the @C formula up to n = 2; @CInf adds @N to it.
        assert_block_check_is_definitional(n, [frame.key() for frame in all_frames(n)], BLOCK_TARGETS + ("@CInf", "@Ck(4)"))


def test_block_check_matches_eval_formula_on_filter_and_monotone_n3():
    filters = [frame.key() for frame in enumerate_frames(3, ("filter",))]
    assert_block_check_is_definitional(3, filters, BLOCK_TARGETS)
    monotone = [frame.key() for frame in enumerate_frames(3, ("monotone",))]
    assert len(monotone) == 20 ** 3
    assert_block_check_is_definitional(3, monotone, ("@T", "@Four", "box v"))


def test_find_countermodel_workers_match():
    specs = (
        SearchSpec(target="@M"),
        SearchSpec(target="@M", constraints=("monotone",), max_n=2),
        SearchSpec(constraints=("filter",), mode="count", max_n=2),
        SearchSpec(target="@T", constraints=("filter",), max_n=3),
        SearchSpec(target="@Four", constraints=("filter",), max_n=4),
        SearchSpec(target="@Four", constraints=("monotone",), mode="find_validating", max_n=3),
    )
    for spec in specs:
        assert find_countermodel(spec, workers=4) == find_countermodel(spec, workers=1)


def test_spec_and_cap_errors():
    assert MODES == ("find_refuting", "find_validating", "count")
    with pytest.raises(InvalidInputError):
        SearchSpec(target="@M", mode="hunt")
    with pytest.raises(InvalidInputError):
        SearchSpec(mode="find_refuting")
    with pytest.raises(InvalidInputError):
        SearchSpec(mode="find_validating")
    with pytest.raises(CapExceededError):
        find_countermodel(SearchSpec(target="@M", max_n=5))
    with pytest.raises(CapExceededError):
        enumerate_frames(4)
    with pytest.raises(CapExceededError):
        count_frames(4)
    with pytest.raises(InvalidInputError):
        count_frames(1, ("zebra",))
    with pytest.raises(InvalidInputError):
        count_frames(1, ("@T",))


def test_verify_hit_rechecks_witnesses():
    target = compile_target("box v", 1)
    principal = NeighborhoodFrame(1, (famask_of((1,)),))
    both = NeighborhoodFrame(1, (famask_of((0, 1)),))
    assert search._verify_hit(principal, target, "find_refuting", {"v": 0}) is None
    with pytest.raises(AssertionError):
        search._verify_hit(principal, target, "find_refuting", {"v": 1})
    assert search._verify_hit(both, target, "find_validating", None) is None
    with pytest.raises(AssertionError):
        search._verify_hit(principal, target, "find_validating", None)
    ck = compile_target("@Ck(4)", 1)
    assert search._verify_hit(NeighborhoodFrame(1, (famask_of((0,)),)), ck, "find_refuting", {"u": 0, "v": 1}) is None
    with pytest.raises(AssertionError):
        search._verify_hit(principal, ck, "find_refuting", {"u": 0, "v": 1})
    # Key (0, 2) is the canonical form of key (4, 0): both refute box v at
    # v = 0, but only the canonical one may be a witness.
    empty_first = NeighborhoodFrame(2, (0, famask_of((1,))))
    assert search._verify_hit(empty_first, target, "find_refuting", {"v": 0}) is None
    with pytest.raises(AssertionError, match="canonical"):
        search._verify_hit(relabel_frame(empty_first, (1, 0)), target, "find_refuting", {"v": 0})
