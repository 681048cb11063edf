import json
import random
from functools import lru_cache
from itertools import permutations, product
from pathlib import Path

import pytest

from conftest import given, st
import oracles
from nbhd import search
from nbhd.classes import AXIOM_TESTS, CLASS_TABLE, FRAME_TAGS, frame_class_check, frame_tag_axioms, iv_holds
from nbhd.core import (
    CapExceededError,
    InvalidInputError,
    NeighborhoodAlgebra,
    NeighborhoodFrame,
    Relation,
    box_n,
    famask_members,
    famask_of,
    frame_from_json,
    frame_to_json,
    from_relation,
    full_mask,
    to_relation,
)
from nbhd.bitslice import transpose
from nbhd.duality import complex_algebra
from nbhd.evaluate import assignment_at, compile_algebra, eval_formula, find_refuting_assignment
from nbhd.bax import enumerate_bax
from nbhd.formulas import axiom_set_from_specs, free_vars, is_one_step, modal_depth, parse
from nbhd.search import (
    MODES,
    SearchSpec,
    apply_perm_mask,
    canonical_form,
    compile_target,
    count_frames,
    enumerate_frames,
    find_countermodel,
    frames_chunks,
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


def definitional_scan(n, cands, iv, canonical):
    """The in-class keys of the product of cands, key by key through
    canonical_form and iv_holds."""
    return [
        key
        for key in product(*cands)
        if (not canonical or definitionally_canonical(n, key)) and (not iv or iv_holds(key, transpose(key, 1 << n)))
    ]


FOUR = compile_target("@Four", 1)


def scan(level, canonical, text, mode):
    """`search._scan` of the level, with the target text compiled at its
    width."""
    target = compile_target(text, level.n)
    return search._scan(level, canonical, target, mode, target is not None and modal_depth(target) > 1)


def iv_level(n, cands, iv):
    """A level of the candidate lists, with Four as its one whole-frame
    constraint when iv is set."""
    return search._Level(n, tuple(map(tuple, cands)), (compile_algebra(FOUR),) if iv else ())


def scan_keys(n, cands, iv, canonical):
    """The keys of search._in_class's blocks, in scan order.  Each block
    is non-empty and holds one column per point, each of its count."""
    keys = []
    for count, columns in search._in_class(iv_level(n, cands, iv), canonical):
        assert count > 0 and len(columns) == n and all(len(column) == count for column in columns)
        keys += zip(*columns) if n else [()] * count
    return keys


def test_scan_canonical_keys_equal_canonical_form_exhaustive_small():
    for n in range(3):
        keys = [f.key() for f in enumerate_frames(n, (), canonical=True)]
        assert keys == [key for key in product(families(n), repeat=n) if definitionally_canonical(n, key)], n
    for constraints in (("filter",), ("monotone",)):
        keys = [f.key() for f in enumerate_frames(3, constraints)]
        canonical = [f.key() for f in enumerate_frames(3, constraints, canonical=True)]
        assert canonical == [key for key in keys if definitionally_canonical(3, key)], constraints


def test_lane_iv_equals_iv_holds():
    for n in range(3):
        cands = [list(families(n))] * n
        assert scan_keys(n, cands, True, False) == definitional_scan(n, cands, True, False), n
    cands, _ = search._compile_constraints(3, ("monotone",))
    assert scan_keys(3, cands, True, False) == definitional_scan(3, cands, True, False)


MONOTONE = {n: enumerate_bax(n, axiom_set_from_specs(["@M"], n)).famasks() for n in (3, 4)}


@st.composite
def candidate_lists(draw):
    """n in {3, 4}, per point a short ascending list of famasks drawn from
    every family and from the monotone ones, the iv flag, and a scan
    block of 2^bits < 2^n lanes, so that a block fixes at least one point."""
    n = draw(st.integers(3, 4))
    famask = st.one_of(st.integers(0, (1 << (1 << n)) - 1), st.sampled_from(MONOTONE[n]))
    cands = [sorted(draw(st.sets(famask, min_size=2, max_size=4))) for _ in range(n)]
    return n, cands, draw(st.booleans()), draw(st.integers(1, n - 1))


@given(candidate_lists())
def test_property_plane_scan_matches_definitions(case):
    n, cands, iv, bits = case
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(search, "SCAN_BLOCK_BITS", bits)
        p, _, _ = search._level_shape(cands)
        assert p >= 1
        for canonical in (False, True):
            want = definitional_scan(n, cands, iv, canonical)
            assert scan_keys(n, cands, iv, canonical) == want
            assert search._scan(iv_level(n, cands, iv), canonical, None, "count", False) == (len(want), 0, None)


def test_block_shapes_fix_one_and_two_points(monkeypatch):
    monkeypatch.setattr(search, "SCAN_BLOCK_BITS", 2)
    assert search._level_shape([[1, 2]] * 3)[:2] == (1, 4)
    assert search._level_shape([[1, 2, 3]] * 3)[:2] == (2, 3)
    assert search._level_shape([[1], [], [2]]) == (3, 1, [])


def test_canonical_counts_at_n3_are_pinned():
    # The values of the key-by-key scan that the plane scan replaced.
    assert count_frames(3, (), canonical=True) == 2_804_480
    assert count_frames(3, ("convex",), canonical=True) == 173_417
    assert count_frames(3, ("iv",), canonical=True) == 43_383


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


def frames_json(frames) -> str:
    return json.dumps({"frames": [frame_to_json(frame) for frame in frames]}, separators=(",", ":"))


def frames_text(n, constraints=(), canonical=False):
    return "".join(frames_chunks(n, constraints, canonical))


def test_frames_text_equals_the_dict_codec():
    # The text `search enumerate` prints, its chunks joined, against the
    # frames enumerate_frames streams, encoded from frame_to_json's dicts.
    # A level of more than 2^18 frames is left out for time.
    left_out = set()
    for n in range(4):
        for constraints in ((), ("filter",), ("monotone",), ("iv",), ("topological",), ("centered",), ("kappa:1",), ("@Conv",), ("box(u)",)):
            for canonical in (False, True):
                if count_frames(n, constraints, canonical=canonical) > 1 << 18:
                    left_out.add((n, constraints, canonical))
                    continue
                expected = frames_json(enumerate_frames(n, constraints, canonical=canonical))
                assert frames_text(n, constraints, canonical=canonical) == expected, (n, constraints, canonical)
    assert left_out == {(3, (), False), (3, (), True), (3, ("@Conv",), False)}
    assert frames_text(4, ("filter",)) == frames_json(enumerate_frames(4, ("filter",)))
    # 32^5 keys at n = 5: refused before any plane is built.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(search, "_lane_blocks", lambda *args: pytest.fail("a level was scanned"))
        with pytest.raises(CapExceededError, match=f"level n=5 has {1 << 25} keys, exceeds cap {1 << 24}"):
            frames_text(5, ("filter",))


def test_frame_text_of_wide_famasks():
    # Famasks of 9 to 32 bits, as frames at n = 4 and 5 have, written
    # from hand-made columns as the scan yields them.
    rng = random.Random(24)
    for n in (4, 5):
        widths = [0, 9, *range(9, (1 << n) + 1, 3), 1 << n]
        keys = [tuple(rng.getrandbits(w - 1) | 1 << (w - 1) if w else 0 for w in rng.sample(widths, n)) for _ in range(20)]
        keys.append(((1 << (1 << n)) - 1,) * n)
        columns = [list(column) for column in zip(*keys)]
        text = "".join(search._frames_chunks(n, columns, [(12, [column[:12] for column in columns]), (9, [column[12:] for column in columns])]))
        assert text == frames_json(NeighborhoodFrame(n, key) for key in keys)


def test_topological_counts_match_the_literature():
    # Labeled and unlabeled topologies on n points: OEIS A000798 and
    # A001930 (Evans, Harary and Lynn, Comm. ACM 10, 1967).
    assert [count_frames(n, ("topological",)) for n in range(6)] == [1, 1, 4, 29, 355, 6942]
    assert [count_frames(n, ("topological",), canonical=True) for n in range(6)] == [1, 1, 3, 9, 33, 139]


def test_canonical_topologies_at_n5_are_the_orbit_minima():
    labeled = [f.key() for f in enumerate_frames(5, ("topological",))]
    assert len(labeled) == 6942
    assert [f.key() for f in enumerate_frames(5, ("topological",), canonical=True)] == oracles.orbit_minima(labeled)


def test_count_enumerate_and_text_routes_agree():
    # The scan's count, the frames enumerate_frames streams and the frames
    # frames_text writes; the count mode sums the canonical counts.
    for tag in [frame_tag for frame_tag, _, _ in CLASS_TABLE] + ["kappa:2"]:
        max_n = 4 if tag in ("filter", "topological", "pretopological") else 3
        for n in range(max_n + 1):
            for canonical in (False, True):
                count = count_frames(n, (tag,), canonical=canonical)
                streamed = sum(1 for _ in enumerate_frames(n, (tag,), canonical=canonical))
                written = frames_text(n, (tag,), canonical=canonical).count('{"n":')
                assert count == streamed == written, (tag, n, canonical)
        total = sum(count_frames(n, (tag,), canonical=True) for n in range(max_n + 1))
        assert find_countermodel(SearchSpec(constraints=(tag,), mode="count", max_n=max_n)) == {"count": total, "checked": total}


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
        cands, whole = search._compile_constraints(4, (text,))
        assert [list(c) for c in cands] == want, text
        assert whole == ((compile_algebra(FOUR),) if "Four" in axioms else ()), text


def test_tag_axioms_follow_the_specs():
    # A tag's axioms skip a spec already listed, a repeated spec counts
    # once, and a bad tag is reported before a bad spec.
    assert count_frames(2, ("monotone", "@M")) == count_frames(2, ("@M", "monotone")) == 36
    assert count_frames(2, ("filter", "kappa:3", "@N")) == count_frames(2, ("filter",)) == 16
    assert count_frames(2, ("@M", " @M ")) == count_frames(2, ("@M",)) == 36
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


@lru_cache(maxsize=None)
def box_n_refutation(n, key, f):
    """First refuting assignment index of f on the frame with this key,
    through box_n tables and eval_formula, or -1; kept per (n, key, f),
    since the oracle searches ask it again across modes."""
    frame = NeighborhoodFrame(n, key)
    alg = NeighborhoodAlgebra(n, tuple(box_n(frame, a) for a in range(1 << n)))
    names = free_vars(f)
    for idx in range((1 << n) ** len(names)):
        if eval_formula(alg, f, assignment_at(names, n, idx)) != full_mask(n):
            return idx
    return -1


def assert_block_check_is_definitional(n, cands, texts):
    """The whole-frame lane test of the search, `_whole_lanes` on each
    block of the level of these candidate lists, in blocks of mixed sizes,
    keeps of the lanes it is given exactly those whose frame validates
    the formula by eval_formula: every lane of the block, or its
    canonical ones."""
    for text in texts:
        f = compile_target(text, n)
        program = compile_algebra(f)
        for bits in (2, 5, search.SCAN_BLOCK_BITS):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(search, "SCAN_BLOCK_BITS", bits)
                level = search._Level(n, tuple(cands), ())
                p = level.plan[0]
                for canonical in (False, True):
                    for prefix, planes, lanes in search._lane_blocks(level, canonical):
                        keys = [prefix + tail for tail in product(*cands[p:])]
                        want = sum(1 << i for i, key in enumerate(keys) if lanes >> i & 1 and box_n_refutation(n, key, f) < 0)
                        assert search._whole_lanes(planes, n, lanes, program) == want, (n, text, bits, prefix)


def test_block_check_matches_eval_formula_on_small_spaces():
    for n in range(3):
        # @Ck(4) is the @C formula up to n = 2; @CInf adds @N to it.
        assert_block_check_is_definitional(n, [tuple(families(n))] * n, BLOCK_TARGETS + ("@CInf", "@Ck(4)"))


def test_block_check_matches_eval_formula_on_filter_and_monotone_n3():
    filters, _ = search._compile_constraints(3, ("filter",))
    assert_block_check_is_definitional(3, filters, BLOCK_TARGETS)
    monotone, _ = search._compile_constraints(3, ("monotone",))
    assert len(monotone[0]) ** 3 == 20 ** 3
    assert_block_check_is_definitional(3, monotone, ("@T", "@Four", "box v"))


def whole_formulas(n, constraints):
    """The constraints of modal depth 2 or more, as formulas: the registry
    axioms of that depth of each tag, and each such spec."""
    found = []
    for spec in constraints:
        if spec in FRAME_TAGS or spec.startswith("kappa:"):
            texts = [f"@{name}" for name in frame_tag_axioms(search.parse_class_tag(spec))]
        else:
            texts = [spec]
        found += [f for f in map(compile_target, texts, [n] * len(texts)) if modal_depth(f) > 1]
    return found


def key_by_key_search(spec):
    """find_countermodel, definitionally: each level's in-class keys in
    scan order, every constraint of modal depth 2 or more and every target
    check an eval_formula sweep."""
    checked = count = 0
    for n in range(spec.max_n + 1):
        cands, _ = search._compile_constraints(n, spec.constraints)
        target = compile_target(spec.target, n)
        whole = whole_formulas(n, spec.constraints)
        for key in definitional_scan(n, cands, False, True):
            if any(box_n_refutation(n, key, f) >= 0 for f in whole):
                continue
            checked += 1
            if target is None:
                count += 1
                continue
            refuting = box_n_refutation(n, key, target)
            count += refuting < 0
            if spec.mode == "find_refuting" and refuting >= 0:
                env = assignment_at(free_vars(target), n, refuting)
                return {"found": True, "frame": {"n": n, "N": [list(famask_members(fm)) for fm in key]}, "assignment": env, "checked": checked}
            if spec.mode == "find_validating" and refuting < 0:
                return {"found": True, "frame": {"n": n, "N": [list(famask_members(fm)) for fm in key]}, "assignment": None, "checked": checked}
    if spec.mode == "count":
        return {"count": count, "checked": checked}
    return {"found": False, "frame": None, "assignment": None, "checked": checked}


def traced_search(spec, patch):
    """find_countermodel with a log of the target's whole-frame lane
    tests: per level, the number of lanes of each call, one entry per
    scan block with an in-class lane."""
    levels = {}
    whole = search._whole_lanes

    def logged(planes, n, lanes, program):
        if spec.target is not None and program == compile_algebra(compile_target(spec.target, n)):
            levels.setdefault(n, []).append(lanes.bit_count())
        return whole(planes, n, lanes, program)

    patch.setattr(search, "_whole_lanes", logged)
    return find_countermodel(spec), levels


def test_find_countermodel_matches_key_by_key_search():
    # Again with scan blocks of at most 8 keys.  A target of modal depth
    # 2 takes the whole-frame lane test on each block with an in-class
    # lane: a count and a refuting search then span several blocks at a
    # level, and a refuting hit lies past its level's first block.  A
    # validating search always stops at the 0-point frame, one block of
    # one lane.  A target of depth at most 1, or none, is decided by pass
    # planes: it is never given to the lane test.  Constraints of depth
    # 2 or more take the lane test too.
    specs = (
        SearchSpec(target="@M"),
        SearchSpec(target="@M", constraints=("monotone",), max_n=2),
        SearchSpec(constraints=("filter",), mode="count", max_n=2),
        SearchSpec(target="@T", constraints=("filter",), max_n=3),
        SearchSpec(target="@Four", constraints=("filter",), max_n=4),
        SearchSpec(target="@Four", constraints=("monotone",), mode="find_validating", max_n=3),
        SearchSpec(target="@T", constraints=("iv",), mode="count", max_n=2),
        SearchSpec(target="box v", constraints=("topological",), max_n=3),
        SearchSpec(target="@T", constraints=("monotone",), mode="count", max_n=2),
        SearchSpec(target="box v -> box box v", constraints=("centered",), max_n=3),
        SearchSpec(target="@Four", constraints=("monotone",), mode="count", max_n=2),
        SearchSpec(target="box box v -> box v", constraints=("monotone",), max_n=2),
        SearchSpec(target="@T", constraints=("box b -> box box b",), mode="count", max_n=2),
        SearchSpec(target="@Four", constraints=("~box~box p -> box~box~p",), max_n=2),
        SearchSpec(target="box~box~p -> ~box~box p", constraints=("topological",), mode="count", max_n=3),
        SearchSpec(target="box v", constraints=("monotone", "box~box~p -> ~box~box p"), mode="count", max_n=2),
        SearchSpec(target="~box~box p -> box~box~p", constraints=("filter", "box box v -> box v"), max_n=3),
    )
    spread = {"count": False, "find_refuting": False}
    late_hit = False
    for spec in specs:
        want = key_by_key_search(spec)
        assert find_countermodel(spec) == want, spec
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(search, "SCAN_BLOCK_BITS", 3)
            got, levels = traced_search(spec, patch)
        assert got == want, spec
        target = compile_target(spec.target, 1)
        if target is None or modal_depth(target) <= 1:
            assert levels == {}, spec
            continue
        if spec.mode in spread:
            spread[spec.mode] |= any(len(calls) > 1 for calls in levels.values())
        if spec.mode == "find_refuting" and want["found"]:
            late_hit |= len(levels[want["frame"]["n"]]) > 1
        if spec.mode == "find_validating":
            assert levels == {0: [1]}, spec
    assert all(spread.values()) and late_hit, (spread, late_hit)


RANK1_AXIOMS = ("@M", "@C", "@N", "@Cont", "@Conv", "@CoConv", "@T", "@Ck(2)", "@CInf")
# The classes whose n = 3 level the definitional search walks quickly.
SMALL_AT_N3 = ("filter", "pretopological", "topological")
# Targets of modal depth 2: Four, its converse, S4.2 and McKinsey.
DEEP_TARGETS = ("@Four", "box v -> box box v", "box box v -> box v", "~box~box p -> box~box~p", "box~box~p -> ~box~box p")
# (tag, target, mode, result) of each DEEP_TARGETS search over each class
# tag, pinned from a search that swept each in-class frame on its own.
DEEP_PINS = json.loads((Path(__file__).parent / "data" / "deep_targets.json").read_text())


def test_pointwise_route_matches_key_by_key_search_on_every_class():
    # Every rank-1 registry axiom over every class tag, in all three
    # modes: the pass-plane route against the definitional search.  The
    # depth-2 targets, decided by the whole-frame lane test, give the
    # answers pinned from the frame-by-frame sweep it replaced, which the
    # definitional search gives too.
    assert len(DEEP_PINS) == len(CLASS_TABLE) * len(DEEP_TARGETS) * len(MODES)
    pins = {(tag, target, mode): result for tag, target, mode, result in DEEP_PINS}
    for tag, _, _ in CLASS_TABLE:
        max_n = 3 if tag in SMALL_AT_N3 else 2
        for target in RANK1_AXIOMS:
            for mode in MODES:
                spec = SearchSpec(target=target, constraints=(tag,), mode=mode, max_n=max_n)
                assert find_countermodel(spec) == key_by_key_search(spec), spec
        for target in DEEP_TARGETS:
            for mode in MODES:
                spec = SearchSpec(target=target, constraints=(tag,), mode=mode, max_n=max_n)
                assert find_countermodel(spec) == pins[tag, target, mode] == key_by_key_search(spec), spec


@st.composite
def rank1_formulas(draw):
    """A formula of modal depth 1 with a naked variable: a Boolean
    combination of a part with boxes over box-free formulas and a
    box-free part, over the variables p and q."""
    atoms = st.sampled_from(["p", "q", "T", "~p", "~q"])
    box_free = st.recursive(atoms, lambda inner: st.tuples(inner, st.sampled_from(["&", "|", "->"]), inner).map(lambda t: f"({t[0]} {t[1]} {t[2]})"), max_leaves=3)
    boxed = st.recursive(
        box_free.map(lambda text: f"box {text}"),
        lambda inner: st.one_of(inner.map(lambda text: f"~{text}"), st.tuples(inner, st.sampled_from(["&", "|"]), inner).map(lambda t: f"({t[0]} {t[1]} {t[2]})")),
        max_leaves=3,
    )
    naked = draw(st.sampled_from(["p", "q", "~p", "(p & q)", "(p | ~q)"]))
    op = draw(st.sampled_from(["&", "|", "->", "<->"]))
    first, second = draw(boxed), naked
    if draw(st.booleans()):
        first, second = second, first
    return f"{first} {op} {second}"


@given(rank1_formulas(), st.sampled_from([(), ("monotone",), ("filter",), ("centered",), ("contingency",)]), st.sampled_from(MODES))
def test_property_rank1_targets_and_constraints_match_definitions(text, constraints, mode):
    f = parse(text)
    assert modal_depth(f) == 1 and not is_one_step(f)
    spec = SearchSpec(target=text, constraints=constraints, mode=mode, max_n=2)
    assert find_countermodel(spec) == key_by_key_search(spec)
    # As a constraint it keeps exactly the frames it is valid on.
    for n in range(3):
        cands, _ = search._compile_constraints(n, (text,))
        assert [list(c) for c in cands] == [[fm for fm in families(n) if pointwise_passes(n, x, fm, f)] for x in range(n)], (text, n)


def pointwise_passes(n, x, famask, f):
    """f holds at x under every assignment in every frame whose N(x) is
    famask, by eval_formula: the other points' neighborhoods do not
    matter at depth 1, so they are left empty."""
    key = tuple(famask if y == x else 0 for y in range(n))
    frame = NeighborhoodFrame(n, key)
    alg = NeighborhoodAlgebra(n, tuple(box_n(frame, a) for a in range(1 << n)))
    names = free_vars(f)
    return all(eval_formula(alg, f, assignment_at(names, n, idx)) >> x & 1 for idx in range((1 << n) ** len(names)))


def brute_valid(frame, f):
    """f holds under every assignment on the frame, by eval_formula over
    its complex algebra."""
    alg = complex_algebra(frame)
    names = free_vars(f)
    return all(eval_formula(alg, f, assignment_at(names, frame.n, idx)) == full_mask(frame.n) for idx in range((1 << frame.n) ** len(names)))


def test_whole_frame_constraints_match_a_brute_count():
    # A constraint of modal depth 2 keeps exactly the frames that validate
    # it: every frame at n <= 2 and every monotone frame at n = 3, counted
    # and enumerated, and canonically against the orbit oracle.
    for n, tags in ((0, ()), (1, ()), (2, ()), (3, ("monotone",))):
        frames = list(enumerate_frames(n, tags))
        for text in DEEP_TARGETS[1:]:
            f = parse(text)
            brute = [frame.key() for frame in frames if brute_valid(frame, f)]
            specs = (*tags, text)
            assert [frame.key() for frame in enumerate_frames(n, specs)] == brute, (n, text)
            assert count_frames(n, specs) == len(brute), (n, text)
            assert count_frames(n, specs, canonical=True) == oracles.orbit_count(brute), (n, text)


def test_topological_s4_2_and_mckinsey_frames_are_their_preorders():
    # A finite topological frame is its specialization preorder
    # (to_relation).  It validates S4.2 exactly when the preorder is
    # confluent, and McKinsey exactly when every point sees a point whose
    # only successor is itself: the counts under each constraint equal
    # the oracle's over the canonical topological frames, labeled and
    # canonical.
    s42, mckinsey = DEEP_TARGETS[3:]
    for text, oracle in ((s42, oracles.is_confluent), (mckinsey, oracles.sees_an_end)):
        for n in range(5):
            for canonical in (False, True):
                frames = enumerate_frames(n, ("topological",), canonical=canonical)
                want = sum(1 for frame in frames if oracle(to_relation(frame)))
                assert count_frames(n, ("topological", text), canonical=canonical) == want, (text, n, canonical)
    # The 2-point cluster separates them: it is confluent, and no point of
    # it has itself as its only successor.
    cluster = Relation(2, (0b11, 0b11))
    frame = from_relation(cluster)
    assert oracles.is_confluent(cluster) and not oracles.sees_an_end(cluster)
    assert brute_valid(frame, parse(s42)) and not brute_valid(frame, parse(mckinsey))
    assert find_countermodel(SearchSpec(target=mckinsey, constraints=("topological", s42), max_n=3))["frame"] == frame_to_json(frame)


def test_a_level_refused_by_its_cap_raises_on_every_call():
    # The refusal is decided on every call, and no plane is built for it:
    # the unconstrained n = 4 level is past both caps, and filter at n = 5
    # is scannable but refused by enumeration, which holds every frame.
    search._class_level.cache_clear()
    for cap in (search.SCAN_KEYS_CAP, search.EXHAUSTIVE_FRAMES_CAP):
        texts = []
        for _ in range(2):
            with pytest.raises(CapExceededError) as refused:
                search._level(4, (), cap)
            texts.append(str(refused.value))
        assert texts == [f"search: level n=4 has {1 << 64} keys, exceeds cap {cap}"] * 2
    texts = []
    for _ in range(2):
        with pytest.raises(CapExceededError) as refused:
            frames_text(5, ("filter",))
        texts.append(str(refused.value))
    assert texts == [f"search: level n=5 has {1 << 25} keys, exceeds cap {search.EXHAUSTIVE_FRAMES_CAP}"] * 2
    for n, specs in ((4, ()), (5, ("filter",))):
        assert "plan" not in vars(search._class_level(n, specs, search.SCAN_BLOCK_BITS))
    assert search._class_level.cache_info().currsize == 2


def test_a_level_is_immutable_and_shared_by_repeated_specs():
    for specs in (("filter",), ("@T", "monotone")):
        level = search._level(3, specs, search.SCAN_KEYS_CAP)
        p, size, runs, free = level.plan
        assert type(level.cands) is tuple and all(type(cand) is tuple for cand in level.cands)
        assert type(runs) is tuple and type(free) is tuple and all(type(planes) is tuple for planes in free)
        assert (level.cands, level.whole) == search._compile_constraints(3, specs)
        assert (p, size, list(runs)) == search._level_shape(level.cands)
        assert search._level(3, (*specs, f" {specs[0]} ", *reversed(specs)), search.SCAN_KEYS_CAP) is level
        with pytest.raises(AttributeError):
            level.cands = ()


def test_a_level_is_keyed_by_the_block_bits(monkeypatch):
    # A plan is built for the block bits in force, so other bits name
    # another level; both scan alike.
    wide = search._level(3, ("filter",), search.SCAN_KEYS_CAP)
    assert wide.plan[:2] == (0, 512)
    monkeypatch.setattr(search, "SCAN_BLOCK_BITS", 3)
    narrow = search._level(3, ("filter",), search.SCAN_KEYS_CAP)
    assert narrow is not wide and narrow.cands == wide.cands and narrow.plan[:2] == (2, 8)
    for target in ("@Conv", "box box v -> box v", None):
        assert scan(narrow, True, target, "count") == scan(wide, True, target, "count"), target
    monkeypatch.undo()
    assert search._level(3, ("filter",), search.SCAN_KEYS_CAP) is wide


# Targets of depth 1, decided by pass planes, of depth 2, swept, and none.
CACHE_TARGETS = RANK1_AXIOMS + ("@Four", "box v", "box v -> v", "box box v -> box v", "box v -> box box v", None)


def test_cold_and_warm_levels_give_the_same_answers():
    # Every target and mode over every class, each search once with no
    # level cached and once with the class's levels warm.
    for tag, _, _ in CLASS_TABLE:
        specs = [SearchSpec(target=target, constraints=(tag,), mode=mode, max_n=3) for target in CACHE_TARGETS for mode in MODES if target or mode == "count"]
        cold = []
        for spec in specs:
            search._class_level.cache_clear()
            cold.append(find_countermodel(spec))
        assert [find_countermodel(spec) for spec in specs] == cold, tag


def test_level_work_guard():
    # The iv level at n = 4 has 65,536^4 keys and a whole-frame
    # constraint, so it is scanned: refused before any plane is built,
    # after the levels below it were scanned.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(search, "_lane_blocks", lambda *args: pytest.fail("a level was scanned"))
        with pytest.raises(CapExceededError, match=f"level n=4 has {1 << 64} keys, exceeds cap {search.SCAN_KEYS_CAP}"):
            search._scan_level(4, ("iv",), True, None, "count")
    with pytest.raises(CapExceededError, match="n=4"):
        find_countermodel(SearchSpec(mode="count", constraints=("iv",), max_n=4))
    assert 1 << 24 <= search.SCAN_KEYS_CAP < 1 << 64
    assert find_countermodel(SearchSpec(constraints=("filter",), mode="count", max_n=4)) == {"count": 3161, "checked": 3161}


def test_orbit_counts_equal_the_scan_up_to_n3():
    # Every class tag without a whole-frame constraint, with every rank-1
    # target and none, canonical and labeled: Burnside's count of a level
    # against the scan of the same level.
    pointwise = []
    for tag, _, _ in CLASS_TABLE:
        levels = [search._level(n, (tag,), None) for n in range(4)]
        if any(level.whole for level in levels):
            continue
        pointwise.append(tag)
        for level in levels:
            for canonical in (False, True):
                for text in (None, *RANK1_AXIOMS):
                    want = scan(level, canonical, text, "count")
                    assert search._orbit_scan(level, canonical, compile_target(text, level.n)) == want, (tag, level.n, canonical, text)
    assert pointwise == ["monotone", "convex", "coconvex", "contingency", "filter", "centered", "pretopological"]


def test_orbit_counts_equal_the_scan_at_n4():
    # The n = 4 levels the scan reaches in seconds, with no target and
    # with @T: the scan gives both counts at once.  A pointwise count
    # takes the orbit route and scans no block.
    for tag in ("filter", "pretopological", "monotone"):
        level = search._level(4, (tag,), search.SCAN_KEYS_CAP)
        want = scan(level, True, "@T", "count")
        assert search._orbit_scan(level, True, compile_target("@T", 4)) == want, tag
        assert search._orbit_scan(level, True, None) == (want[0], 0, None), tag
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(search, "_lane_blocks", lambda *args: pytest.fail("a level was scanned"))
            assert search._scan_level(4, (tag,), True, "@T", "count") == want, tag
    spec = SearchSpec(constraints=("monotone",), mode="count", max_n=4)
    assert find_countermodel(spec) == {"count": 33_302_299, "checked": 33_302_299}


def test_orbit_counts_past_the_scan_are_pinned_by_a_second_route():
    # The unconstrained class against the closed form.  Complementing a
    # family maps the convex ones onto the coconvex ones, and W -> W ∩ {a :
    # x in a} maps the complement-closed ones onto those centered at x;
    # both maps commute with relabeling, so each pair of classes has one
    # orbit count.
    for n in range(5):
        assert count_frames(n, (), canonical=True) == oracles.unconstrained_orbit_count(n), n
    assert count_frames(4, (), canonical=True) == 768_614_611_824_951_296
    assert count_frames(4, ()) == 1 << 64
    full = (1 << 16) - 1
    convex, coconvex = (search._level(4, (tag,), None).cands[0] for tag in ("convex", "coconvex"))
    assert sorted(full ^ famask for famask in convex) == list(coconvex)
    contingency = search._level(4, ("contingency",), None).cands[0]
    for x, centered in enumerate(search._level(4, ("centered",), None).cands):
        at_x = sum(1 << a for a in range(16) if a >> x & 1)
        assert sorted(famask & at_x for famask in contingency) == list(centered), x
    assert count_frames(4, ("contingency",), canonical=True) == count_frames(4, ("centered",), canonical=True) == 179_228_736
    assert count_frames(4, ("convex",), canonical=True) == count_frames(4, ("coconvex",), canonical=True) == 10_020_825_483_867


def test_a_string_is_not_a_constraint_sequence():
    for call in (
        lambda: count_frames(2, "filter"),
        lambda: enumerate_frames(2, "filter"),
        lambda: SearchSpec(mode="count", constraints="filter"),
    ):
        with pytest.raises(InvalidInputError, match="sequence of specs"):
            call()
    assert count_frames(2, ["filter"]) == count_frames(2, ("filter",)) == 16


def test_spec_and_cap_errors():
    assert MODES == ("find_refuting", "find_validating", "count")
    with pytest.raises(InvalidInputError):
        SearchSpec(target="@M", mode="hunt")
    with pytest.raises(InvalidInputError):
        SearchSpec(mode="find_refuting")
    with pytest.raises(InvalidInputError):
        SearchSpec(mode="find_validating")
    assert find_countermodel(SearchSpec(target="@M", max_n=5))["checked"] == 3
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(search, "_compile_constraints", lambda *args: pytest.fail("a level was compiled"))
        with pytest.raises(CapExceededError, match="n=6 exceeds cap 5"):
            find_countermodel(SearchSpec(target="@M", max_n=6))
    with pytest.raises(CapExceededError):
        enumerate_frames(4)
    with pytest.raises(CapExceededError):
        count_frames(4, ("iv",))
    with pytest.raises(InvalidInputError):
        count_frames(1, ("zebra",))
    assert count_frames(2, ("box b -> box box b",)) == count_frames(2, ("iv",))
    for n in range(4):
        for canonical in (False, True):
            assert count_frames(n, ("@T",), canonical=canonical) == count_frames(n, ("centered",), canonical=canonical), n


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
