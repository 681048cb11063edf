"""The bit-sliced engine against the definitional route and the oracles.

Each entry point of nbhd.bitslice is checked against a computation that
shares no code with it: theta_t_member and eval_formula over every
assignment, up-closure tested member by member, and tests/oracles.py.
"""

import random
from itertools import product

from nbhd import bitslice
from nbhd.bax import _immediate_superset_famasks, enumerate_bax
from nbhd.core import NeighborhoodAlgebra, NeighborhoodFrame, _set_lanes, box_n, full_mask
from nbhd.duality import complex_algebra
from nbhd.evaluate import (
    assignment_at,
    compile_algebra,
    compile_membership,
    eval_formula,
    find_refuting_assignment,
    theta_t_member,
)
from nbhd.formulas import axiom_set_from_specs, expand_named, free_vars, parse

from conftest import example, given, st
import oracles

AXIOMS = ("@M", "@C", "@N", "@Cont", "@Conv", "@CoConv")


def program(spec, n):
    return compile_membership(expand_named(spec, n).formula, n)


def theta_holds(famask, spec, n):
    """The family is in the transposed value of the axiom under every assignment."""
    f = expand_named(spec, n).formula
    names = free_vars(f)
    return all(theta_t_member(famask, f, assignment_at(names, n, idx), n) for idx in range((1 << n) ** len(names)))


def first_refutation(alg, f):
    """Index of the first assignment where eval_formula falls short of the full set, or -1."""
    names = free_vars(f)
    for idx in range((1 << alg.n) ** len(names)):
        if eval_formula(alg, f, assignment_at(names, alg.n, idx)) != full_mask(alg.n):
            return idx
    return -1


def refute(alg, f):
    prog = compile_algebra(f)
    return bitslice.algebra_refute(alg.box, alg.n, prog.opcodes, prog.opargs, len(prog.names))


def is_up_closed(famask, n):
    """Every member's one-point extensions are members too."""
    members = [a for a in range(1 << n) if famask >> a & 1]
    return all(famask >> (a | 1 << i) & 1 for a in members for i in range(n))


def test_membership_of_every_famask_matches_theta():
    for n in (1, 2, 3):
        total = 1 << (1 << n)
        for spec in AXIOMS:
            want = [fm for fm in range(total) if theta_holds(fm, spec, n)]
            prog = program(spec, n)
            assert bitslice.family_filter(0, total, [prog]) == want, (spec, n)
            assert [fm for fm in range(total) if bitslice.family_accepts(fm, 1 << n, [prog])] == want, (spec, n)


def test_filter_windows_stitch_to_the_full_run(monkeypatch):
    rng = random.Random(7)
    for n in (2, 3, 4):
        specs = ["@M", "@C"]
        programs = [program(spec, n) for spec in specs]
        total = 1 << (1 << n)
        full_run = bitslice.family_filter(0, total, programs)
        assert full_run == list(enumerate_bax(n, axiom_set_from_specs(specs, n)).famasks())
        if n < 4:
            assert full_run == oracles.axiom_subset_families(n, ["M", "C"])
        for _ in range(3):
            bounds = [0] + sorted(rng.sample(range(1, total), 5)) + [total]
            pieces = []
            for start, stop in zip(bounds, bounds[1:]):
                pieces += bitslice.family_filter(start, stop, programs)
            assert pieces == full_run
        assert bitslice.family_filter(5, 5, programs) == []
        # Blocks of 8 lanes: every window spans several blocks.
        monkeypatch.setattr(bitslice, "FILTER_BLOCK_BITS", 3)
        assert bitslice.family_filter(3, total - 3, programs) == [fm for fm in full_run if 3 <= fm < total - 3]
        monkeypatch.undo()


def test_upset_enumerate_matches_brute_up_closure(monkeypatch):
    for block_bits in (bitslice.UPSET_BLOCK_BITS, 2):
        monkeypatch.setattr(bitslice, "UPSET_BLOCK_BITS", block_bits)
        for n in (1, 2, 3, 4):
            m = 1 << n
            succ = _immediate_superset_famasks(n)
            up_closed = [fm for fm in range(1 << m) if is_up_closed(fm, n)]
            for required in (0, 1 << full_mask(n)):
                for specs in ([], ["@C"]):
                    got = bitslice.upset_enumerate(m, succ, required, [program(spec, n) for spec in specs])
                    brute = [
                        fm
                        for fm in up_closed
                        if fm & required == required and all(theta_holds(fm, spec, n) for spec in specs)
                    ]
                    assert got == brute, (block_bits, n, required, specs)


def test_upset_enumerate_runs_many_blocks_at_n5(monkeypatch):
    n, m = 5, 32
    succ = _immediate_superset_famasks(n)
    upsets = bitslice.upset_enumerate(m, succ, 0, [])
    assert len(upsets) == 7581  # the Dedekind number M(5)
    assert upsets == sorted(set(upsets))
    assert all(is_up_closed(fm, n) for fm in upsets)

    blocks = []
    filter_leaves = bitslice._filter_leaves

    def counted(block, *args):
        blocks.append(len(block))
        return filter_leaves(block, *args)

    monkeypatch.setattr(bitslice, "_filter_leaves", counted)
    got = bitslice.upset_enumerate(m, succ, 0, [program("@C", n)])
    assert len(blocks) > 1 and sum(blocks) == 7581
    # Up-closed and closed under binary meets: the empty family and the
    # principal filters, one per subset.
    universe = oracles.subsets(range(n))
    cones = [{s for s in universe if c <= s} for c in universe]
    assert got == sorted({0} | {sum(1 << oracles.set_to_mask(s) for s in cone) for cone in cones})


def test_algebra_refute_matches_first_eval_formula_failure():
    rng = random.Random(5)
    texts = (
        "box (u & v) -> box u",
        "box u & box v <-> box (u & v)",
        "box b -> b",
        "box b -> box box b",
        "box T",
        "~box ~u | box (u & ~v) | v",
        "T",
    )
    for _ in range(40):
        n = rng.randrange(4)
        alg = NeighborhoodAlgebra(n, tuple(rng.randrange(1 << n) for _ in range(1 << n)))
        for text in texts:
            f = parse(text)
            idx = first_refutation(alg, f)
            assert refute(alg, f) == idx, (alg, text)
            names = free_vars(f)
            witness = find_refuting_assignment(alg, f)
            assert witness == (None if idx < 0 else assignment_at(names, n, idx))


def formula_texts(names):
    atoms = st.sampled_from(names + ["T", "F"])
    return st.recursive(
        atoms,
        lambda sub: st.one_of(
            sub.map(lambda x: f"~{x}"),
            sub.map(lambda x: f"box {x}"),
            st.tuples(sub, st.sampled_from(["&", "|", "->", "<->"]), sub).map(lambda t: f"({t[0]} {t[1]} {t[2]})"),
        ),
        max_leaves=8,
    )


@st.composite
def frames_and_formulas(draw):
    n = draw(st.integers(0, 4))
    families = draw(st.lists(st.integers(0, (1 << (1 << n)) - 1), min_size=n, max_size=n))
    frame = NeighborhoodFrame(n, families)
    names = ["p", "q"] if n == 4 else ["p", "q", "r"]
    return frame, draw(formula_texts(names))


@given(frames_and_formulas())
def test_property_refutation_on_random_frames(case):
    frame, text = case
    alg = complex_algebra(frame)
    f = parse(text)
    assert refute(alg, f) == first_refutation(alg, f)


def box_n_refutation(n, key, f):
    """First refuting assignment index of f on the frame with this key,
    through box_n tables and eval_formula, or -1."""
    frame = NeighborhoodFrame(n, key)
    return first_refutation(NeighborhoodAlgebra(n, tuple(box_n(frame, a) for a in range(1 << n))), f)


@st.composite
def key_blocks_and_formulas(draw):
    n = draw(st.integers(3, 4))
    key = st.lists(st.integers(0, (1 << (1 << n)) - 1), min_size=n, max_size=n).map(tuple)
    keys = draw(st.lists(key, min_size=1, max_size=8))
    sizes = [1] + draw(st.lists(st.integers(1, 8), min_size=1, max_size=3))
    return n, keys, sizes, draw(formula_texts(["p", "q"]))


@given(key_blocks_and_formulas())
def test_property_block_refute_matches_eval_formula(case):
    # Blocks of mixed sizes, a block of one among them: each frame's
    # verdict, and the least refuted frame's first refuting assignment.
    n, keys, sizes, text = case
    f = parse(text)
    prog = compile_algebra(f)
    want = [box_n_refutation(n, key, f) for key in keys]
    start = 0
    for size in sizes * len(keys):
        block, wanted = keys[start:start + size], want[start:start + size]
        if not block:
            break
        refuted, idx = bitslice.block_refute(block, n, prog.opcodes, prog.opargs, len(prog.names))
        assert refuted == sum(1 << j for j, w in enumerate(wanted) if w >= 0), (block, text)
        assert idx == next((w for w in wanted if w >= 0), -1), (block, text)
        start += size


@given(st.integers(1, 3), st.sampled_from(AXIOMS), st.data())
def test_property_membership_of_random_families(n, spec, data):
    famask = data.draw(st.integers(0, (1 << (1 << n)) - 1))
    prog = program(spec, n)
    want = theta_holds(famask, spec, n)
    assert bitslice.family_accepts(famask, 1 << n, [prog]) == want
    assert bitslice.family_filter(famask, famask + 1, [prog]) == ([famask] if want else [])


@given(st.integers(2, 4), st.data())
def test_property_filter_windows(n, data):
    total = 1 << (1 << n)
    start = data.draw(st.integers(0, total))
    stop = data.draw(st.integers(start, total))
    programs = [program("@M", n), program("@Cont", n)]
    full_run = bitslice.family_filter(0, total, programs)
    assert bitslice.family_filter(start, stop, programs) == [fm for fm in full_run if start <= fm < stop]


def brute_transpose(rows, width):
    return tuple(sum(1 << j for j, row in enumerate(rows) if row >> a & 1) for a in range(width))


def test_transpose_matches_box_n_on_every_small_frame():
    for n in (0, 1, 2):
        for key in product(range(1 << (1 << n)), repeat=n):
            frame = NeighborhoodFrame(n, key)
            assert bitslice.transpose(key, 1 << n) == tuple(box_n(frame, a) for a in range(1 << n))


@given(st.integers(3, 4), st.data())
def test_property_transpose_matches_box_n(n, data):
    key = tuple(data.draw(st.lists(st.integers(0, (1 << (1 << n)) - 1), min_size=n, max_size=n)))
    frame = NeighborhoodFrame(n, key)
    box = bitslice.transpose(key, 1 << n)
    assert box == tuple(box_n(frame, a) for a in range(1 << n))
    assert bitslice.transpose(box, n) == key


def test_transpose_of_uneven_and_long_row_lists():
    # Row counts off a power of two, and beyond one leaf block; widths
    # below a byte, at a byte boundary and between byte sizes.
    rng = random.Random(5)
    for count in (0, 1, 3, 5, 511, 513, 1100):
        for width in (0, 1, 5, 8, 9, 16, 32, 40):
            rows = [rng.getrandbits(width) for _ in range(count)]
            assert bitslice.transpose(rows, width) == brute_transpose(rows, width)


def test_family_accepts_one_lane_wide_famasks():
    # Seven points: 128-bit famasks, beyond any machine word.
    n = 7
    prog = program("@N", n)
    assert bitslice.family_accepts(1 << full_mask(n), 1 << n, [prog])
    assert not bitslice.family_accepts((1 << full_mask(n)) - 1, 1 << n, [prog])


@given(st.integers(0, 1 << 40), st.sampled_from((0, 8, 24, 32, 65536)))
@example((1 << 32) - 1, 0)
@example(1 << 32, 0)
@example((1 << 40) - 1, 8)
def test_property_set_lanes_matches_bit_loop(mask, offset):
    assert _set_lanes(mask, offset) == [offset + i for i in range(mask.bit_length()) if mask >> i & 1]
