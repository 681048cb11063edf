import random
from itertools import product

import pytest

import oracles
from nbhd import search
from nbhd.classes import (
    ALGEBRA_TAGS,
    AXIOM_TESTS,
    CLASS_TABLE,
    CORRESPONDENCE_PAIRS,
    FRAME_TAGS,
    ClassTag,
    algebra_class_check,
    correspondence_check,
    frame_class_check,
    frame_tag_axioms,
    iv_holds,
    parse_class_tag,
)
from nbhd.core import (
    CapExceededError,
    InvalidInputError,
    NeighborhoodAlgebra,
    NeighborhoodFrame,
    Relation,
    famask_members,
    famask_of,
    from_relation,
    full_mask,
    up_cone,
)
from nbhd.duality import complex_algebra


def families(n: int):
    return range(1 << (1 << n))


def frames(n: int):
    return [NeighborhoodFrame(n, nbhd) for nbhd in product(families(n), repeat=n)]


def as_sets(famask: int):
    return oracles.family_to_sets(famask_members(famask))


def family_tag(famask: int, n: int, tag: ClassTag) -> bool:
    return all(AXIOM_TESTS[name](famask, n) for name in frame_tag_axioms(tag))


def test_family_predicates_match_oracles():
    for n in range(4):
        universe = set(oracles.subsets(range(n)))
        for famask in families(n):
            sets = as_sets(famask)
            holds = {name: test(famask, n) for name, test in AXIOM_TESTS.items()}
            assert holds["M"] == oracles.is_up_closed(sets, n)
            assert holds["Conv"] == oracles.is_convex(sets, n)
            assert holds["CoConv"] == oracles.is_convex(universe - sets, n)
            assert holds["Cont"] == oracles.is_contingency_family(sets, n)
            assert holds["N"] == (frozenset(range(n)) in sets)
            assert holds["C"] == (not sets or oracles.is_filter_family(sets, n))
            assert (holds["N"] and holds["C"]) == oracles.is_filter_family(sets, n)


def test_kappa_complete_matches_oracle_and_collapses():
    for n in range(4):
        for famask in families(n):
            sets = as_sets(famask)
            results = {k: family_tag(famask, n, ClassTag("kappa", k)) for k in (1, 2, 3, 4, 17)}
            for k in (1, 2, 3, 4):
                assert results[k] == oracles.is_kappa_complete_family(sets, n, k)
            # Meets of size zero and two decide everything on a finite carrier.
            assert results[1] == results[2]
            assert results[3] == results[4] == results[17]
            assert results[3] == family_tag(famask, n, ClassTag("filter"))
    with pytest.raises(InvalidInputError, match="kappa >= 1"):
        frame_tag_axioms(ClassTag("kappa", 0))


def test_parse_class_tag():
    assert parse_class_tag("monotone") == ClassTag("monotone")
    assert parse_class_tag("  iv ") == ClassTag("iv")
    assert parse_class_tag("kappa:3") == ClassTag("kappa", 3)
    assert parse_class_tag("kappa:17") == ClassTag("kappa", 17)
    with pytest.raises(InvalidInputError):
        parse_class_tag("kappa:three")


def oracle_frame_tag(frame: NeighborhoodFrame, name: str, kappa=None) -> bool:
    n = frame.n
    traces = [as_sets(famask) for famask in frame.key()]
    if name == "monotone":
        return all(oracles.is_up_closed(t, n) for t in traces)
    if name == "convex":
        return all(oracles.is_convex(t, n) for t in traces)
    if name == "coconvex":
        universe = set(oracles.subsets(range(n)))
        return all(oracles.is_convex(universe - t, n) for t in traces)
    if name == "contingency":
        return all(oracles.is_contingency_family(t, n) for t in traces)
    if name == "filter":
        return all(oracles.is_filter_family(t, n) for t in traces)
    if name == "kappa":
        return all(oracles.is_kappa_complete_family(t, n, kappa) for t in traces)
    if name == "centered":
        return all(x in a for x, t in enumerate(traces) for a in t)
    if name == "iv":
        for t in traces:
            for a in t:
                box_a = frozenset(x for x in range(n) if a in traces[x])
                if box_a not in t:
                    return False
        return True
    if name == "pretopological":
        return oracle_frame_tag(frame, "filter") and oracle_frame_tag(frame, "centered")
    if name == "topological":
        return oracle_frame_tag(frame, "pretopological") and oracle_frame_tag(frame, "iv")
    raise AssertionError(name)


def test_frame_tags_match_oracle_exhaustively():
    for n in range(3):
        for frame in frames(n):
            for name in FRAME_TAGS:
                kappa = 3 if name == "kappa" else None
                got = frame_class_check(frame, ClassTag(name, kappa))
                assert got == oracle_frame_tag(frame, name, kappa), (frame, name)
    # Pretopological and topological first part at n = 3: all 64 frames
    # whose N(x) is the up-cone of a set holding x, some of them not iv.
    cones = [[up_cone(a, 3) for a in range(8) if a >> x & 1] for x in range(3)]
    seen = set()
    for nbhd in product(*cones):
        frame = NeighborhoodFrame(3, nbhd)
        for name in ("centered", "filter", "iv", "pretopological", "topological"):
            assert frame_class_check(frame, ClassTag(name)) == oracle_frame_tag(frame, name), (frame, name)
        seen.add(oracle_frame_tag(frame, "topological"))
    assert seen == {True, False}


def test_key_level_iv_agrees_with_four_on_the_complex_algebra():
    rng = random.Random(8)
    cases = [frame for n in range(3) for frame in frames(n)]
    cases += [NeighborhoodFrame(3, [rng.randrange(256) for _ in range(3)]) for _ in range(300)]
    seen = set()
    for frame in cases:
        alg = complex_algebra(frame)
        holds = iv_holds(frame.key(), alg.box)
        assert holds == algebra_class_check(alg, ClassTag("four")), frame
        seen.add(holds)
    assert seen == {True, False}


def test_kappa_tag_on_frames_equals_filter_tag():
    for frame in frames(2):
        for k in (3, 4, 9):
            assert frame_class_check(frame, ClassTag("kappa", k)) == frame_class_check(
                frame, ClassTag("filter")
            )


def oracle_algebra_tag(alg: NeighborhoodAlgebra, name: str) -> bool:
    size = 1 << alg.n
    full = full_mask(alg.n)
    box = alg.box
    if name == "bam":
        return all(
            not (box[a] & ~box[b])
            for a in range(size)
            for b in range(size)
            if a & b == a
        )
    if name == "normal":
        meets = all(box[a] & box[b] == box[a & b] for a in range(size) for b in range(size))
        return box[full] == full and meets
    if name == "t":
        return all(not (box[a] & ~a) for a in range(size))
    if name == "four":
        return all(not (box[a] & ~box[box[a]]) for a in range(size))
    if name == "preinterior":
        return oracle_algebra_tag(alg, "normal") and oracle_algebra_tag(alg, "t")
    if name == "interior":
        return oracle_algebra_tag(alg, "preinterior") and oracle_algebra_tag(alg, "four")
    if name == "contingency":
        return all(box[a] == box[full ^ a] for a in range(size))
    if name == "convex":
        return all(
            not (box[v & v1] & box[v | v2] & ~box[v])
            for v in range(size)
            for v1 in range(size)
            for v2 in range(size)
        )
    raise AssertionError(name)


def test_algebra_tags_match_oracle_exhaustively_n2():
    for boxes in product(range(4), repeat=4):
        alg = NeighborhoodAlgebra(2, boxes)
        for name in ALGEBRA_TAGS:
            got = algebra_class_check(alg, ClassTag(name))
            assert got == oracle_algebra_tag(alg, name), (boxes, name)


def test_algebra_tags_match_oracle_sampled_n3():
    rng = random.Random(7)
    for _ in range(150):
        alg = NeighborhoodAlgebra(3, tuple(rng.randrange(8) for _ in range(8)))
        for name in ALGEBRA_TAGS:
            assert algebra_class_check(alg, ClassTag(name)) == oracle_algebra_tag(alg, name)


def test_algebra_tags_match_oracle_sampled_n4():
    # Random box tables fail almost every tag, so most samples are the
    # complex algebras of frames drawn from each class's candidate lists.
    rng = random.Random(4)
    algebras = [NeighborhoodAlgebra(4, tuple(rng.randrange(16) for _ in range(16))) for _ in range(20)]
    for frame_tag, _, _ in CLASS_TABLE:
        cands, _ = search._compile_constraints(4, (frame_tag,))
        for _ in range(8):
            algebras.append(complex_algebra(NeighborhoodFrame(4, [rng.choice(c) for c in cands])))
    seen = set()
    for alg in algebras:
        for name in ALGEBRA_TAGS:
            holds = algebra_class_check(alg, ClassTag(name))
            assert holds == oracle_algebra_tag(alg, name), (alg, name)
            seen.add((name, holds))
    assert len(seen) == 2 * len(ALGEBRA_TAGS)


def test_frame_algebra_tag_bridge():
    # Each frame tag names the same class as its algebra tag through the
    # complex algebra; checking all 256 two-point frames exercises every pair.
    bridge = [(frame_tag, algebra_tag) for frame_tag, algebra_tag, _ in CLASS_TABLE if algebra_tag]
    assert sorted(algebra_tag for _, algebra_tag in bridge) == sorted(ALGEBRA_TAGS)
    for n in range(3):
        for frame in frames(n):
            alg = complex_algebra(frame)
            for frame_tag, algebra_tag in bridge:
                assert frame_class_check(frame, ClassTag(frame_tag)) == algebra_class_check(
                    alg, ClassTag(algebra_tag)
                ), (frame, frame_tag)


def test_correspondence_report_shape():
    frame = NeighborhoodFrame(2, (famask_of((0, 1)), 0))
    assert complex_algebra(frame).box == (1, 1, 0, 0)
    assert correspondence_check(frame, "IV4") == {
        "pair": "IV4",
        "frame_side": True,
        "algebra_side": True,
        "agree": True,
    }
    assert correspondence_check(frame, "CentT") == {
        "pair": "CentT",
        "frame_side": False,
        "algebra_side": False,
        "agree": True,
    }
    with pytest.raises(InvalidInputError):
        correspondence_check(frame, "IV5")


def test_correspondence_on_relation_frames():
    transitive = from_relation(Relation(2, (3, 2)))
    for pair in CORRESPONDENCE_PAIRS:
        report = correspondence_check(transitive, pair)
        assert report["frame_side"] and report["algebra_side"]
    loop = from_relation(Relation(2, (2, 1)))
    report = correspondence_check(loop, "IV4")
    assert not report["frame_side"] and not report["algebra_side"] and report["agree"]


def test_correspondence_agrees_exhaustively_small():
    for n in range(3):
        for frame in frames(n):
            for pair in CORRESPONDENCE_PAIRS:
                assert correspondence_check(frame, pair)["agree"]


def test_correspondence_agrees_sampled_n3():
    rng = random.Random(23)
    fams = families(3)
    for _ in range(200):
        frame = NeighborhoodFrame(3, tuple(rng.choice(fams) for _ in range(3)))
        for pair in CORRESPONDENCE_PAIRS:
            assert correspondence_check(frame, pair)["agree"]


def test_tag_errors():
    frame = NeighborhoodFrame(1, (0,))
    with pytest.raises(InvalidInputError):
        frame_class_check(frame, ClassTag("open"))
    with pytest.raises(InvalidInputError):
        frame_class_check(frame, ClassTag("kappa"))
    with pytest.raises(InvalidInputError):
        algebra_class_check(NeighborhoodAlgebra(1, (0, 0)), ClassTag("monotone"))
    with pytest.raises(InvalidInputError, match="unknown algebra class 'coconvex'"):
        algebra_class_check(NeighborhoodAlgebra(1, (0, 0)), ClassTag("coconvex"))
    # Planes and masks over 40 points take 2^40 bits: refused at once.
    # (@N is one shift: no family over 40 points holds the full set.)
    famask = famask_of((1,))
    assert not AXIOM_TESTS["N"](famask, 40)
    for name, test in AXIOM_TESTS.items():
        if name != "N":
            with pytest.raises(CapExceededError):
                test(famask, 40)
    with pytest.raises(CapExceededError):
        frame_class_check(NeighborhoodFrame(40, (0,) * 40), ClassTag("iv"))
