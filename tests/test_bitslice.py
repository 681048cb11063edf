"""The bit-sliced engine against the definitional route and the oracles.

Each entry point of nbhd.bitslice is checked against a computation that
shares no code with it: theta_t_member and eval_formula over every
assignment, up-closure tested member by member, and tests/oracles.py.
"""

import random
from dataclasses import FrozenInstanceError
from itertools import product

import pytest

from nbhd import bitslice, core
from nbhd.bax import enumerate_bax
from nbhd.core import NeighborhoodAlgebra, NeighborhoodFrame, _lane_picker, _set_lanes, box_n, full_mask
from nbhd.duality import complex_algebra
from nbhd.evaluate import (
    assignment_at,
    compile_algebra,
    compile_membership,
    eval_formula,
    find_refuting_assignment,
    theta_t_member,
)
from nbhd.formulas import And, axiom_set_from_specs, expand_named, free_vars, parse

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
            assert list(bitslice.family_filter(0, total, [prog])) == want, (spec, n)
            assert [fm for fm in range(total) if bitslice.family_accepts(fm, 1 << n, [prog])] == want, (spec, n)


def test_filter_windows_stitch_to_the_full_run(monkeypatch):
    rng = random.Random(7)
    for n in (2, 3, 4):
        specs = ["@M", "@C"]
        programs = [program(spec, n) for spec in specs]
        total = 1 << (1 << n)
        full_run = list(bitslice.family_filter(0, total, programs))
        assert full_run == list(enumerate_bax(n, axiom_set_from_specs(specs, n)).famasks())
        if n < 4:
            assert full_run == oracles.axiom_subset_families(n, ["M", "C"])
        for _ in range(3):
            bounds = [0] + sorted(rng.sample(range(1, total), 5)) + [total]
            pieces = []
            for start, stop in zip(bounds, bounds[1:]):
                pieces += list(bitslice.family_filter(start, stop, programs))
            assert pieces == full_run
        assert list(bitslice.family_filter(5, 5, programs)) == []
        # Blocks of 8 lanes: every window spans several blocks.
        monkeypatch.setattr(bitslice, "FILTER_BLOCK_BITS", 3)
        assert list(bitslice.family_filter(3, total - 3, programs)) == [fm for fm in full_run if 3 <= fm < total - 3]
        monkeypatch.undo()


def test_upset_enumerate_matches_brute_up_closure(monkeypatch):
    brute_up_closed = {n: [fm for fm in range(1 << (1 << n)) if is_up_closed(fm, n)] for n in (1, 2, 3, 4)}
    for block_bits in (bitslice.FILTER_BLOCK_BITS, 2):
        monkeypatch.setattr(bitslice, "FILTER_BLOCK_BITS", block_bits)
        for n, up_closed in brute_up_closed.items():
            for nonempty in (False, True):
                for specs in ([], ["@C"]):
                    got = list(bitslice.upset_enumerate(n, nonempty, [program(spec, n) for spec in specs]))
                    brute = [
                        fm
                        for fm in up_closed
                        if (fm or not nonempty) and all(theta_holds(fm, spec, n) for spec in specs)
                    ]
                    assert got == brute, (block_bits, n, nonempty, specs)


def test_upset_enumerate_runs_many_blocks_at_n5(monkeypatch):
    # The Dedekind numbers M(0), ..., M(5) (OEIS A000372).
    assert [len(bitslice.upset_enumerate(k, False, [])) for k in range(6)] == [2, 3, 6, 20, 168, 7581]
    n = 5
    upsets = list(bitslice.upset_enumerate(n, False, []))
    assert len(upsets) == 7581  # the Dedekind number M(5)
    assert upsets == sorted(set(upsets))
    assert all(is_up_closed(fm, n) for fm in upsets)

    blocks = []
    accepted = bitslice._accepted

    def counted(planes, lanes, programs):
        # Each block runs its programs once, over one lane per family.
        blocks.append(lanes.bit_length())
        return accepted(planes, lanes, programs)

    monkeypatch.setattr(bitslice, "_accepted", counted)
    # Blocks of 512 lanes: the 7,581 families fill 15 of them.
    monkeypatch.setattr(bitslice, "FILTER_BLOCK_BITS", 9)
    got = list(bitslice.upset_enumerate(n, False, [program("@C", n)]))
    assert len(blocks) > 1 and sum(blocks) == 7581
    # Up-closed and closed under binary meets: the empty family and the
    # principal filters, one per subset.
    universe = oracles.subsets(range(n))
    cones = [{s for s in universe if c <= s} for c in universe]
    assert got == sorted({0} | {sum(1 << oracles.set_to_mask(s) for s in cone) for cone in cones})


def dedekind_recursion(n):
    """The up-closed famasks over n points, sorted: pairs L <= H of those
    over n - 1 points, as famask L | H << 2^(n-1)."""
    if not n:
        return [0, 1]
    prev = dedekind_recursion(n - 1)
    return sorted(low | high << (1 << n - 1) for low in prev for high in prev if low & ~high == 0)


def test_upset_tables_match_the_dedekind_recursion(monkeypatch):
    for n in range(6):
        table = bitslice._upsets(n)
        assert isinstance(table, tuple) and list(table) == dedekind_recursion(n), n
        for bits in (bitslice.FILTER_BLOCK_BITS, 9, 2):
            blocks = bitslice._upset_blocks(n, bits)
            assert [fm for block, _ in blocks for fm in block] == list(table)
            assert all(len(block) == 1 << bits for block, _ in blocks[:-1])
            for block, planes in blocks:
                assert planes == brute_transpose(block, 1 << n), (n, bits)
    # upset_enumerate reads its block size when called.
    monkeypatch.setattr(bitslice, "FILTER_BLOCK_BITS", 2)
    assert list(bitslice.upset_enumerate(3, True, [program("@C", 3)])) == [fm for fm in bitslice._upsets(3) if fm and theta_holds(fm, "@C", 3)]


def test_upset_enumerate_result_cannot_alter_the_table():
    # The view shares the cached table `_upsets(n)` as its base, so it
    # must refuse every change: to its items, its lanes and its base.
    for programs in ([], [program("@C", 4)]):
        for nonempty in (False, True):
            want = list(bitslice.upset_enumerate(4, nonempty, programs))
            got = bitslice.upset_enumerate(4, nonempty, programs)
            with pytest.raises(TypeError):
                got[0] = -1
            with pytest.raises(AttributeError):
                got.append(-2)
            with pytest.raises(FrozenInstanceError):
                got.mask = -1
            with pytest.raises(FrozenInstanceError):
                got.base = [-1]
            with pytest.raises(TypeError):
                got.base[0] = -1
            with pytest.raises(TypeError):
                got.famasks[0] = -1
            assert list(got) == want
            assert list(bitslice.upset_enumerate(4, nonempty, programs)) == want
    assert len(bitslice._upsets(4)) == 168
    assert list(bitslice._upsets(4)) == dedekind_recursion(4)


def test_generated_sweep_of_a_long_conjunction_matches_theta():
    # A flat conjunction of 5,000 items: M, N twice negated, T, C and the
    # empty conjunction, in turn.  One expression of that many operators
    # is more than CPython's compiler nests (it raises RecursionError
    # from about 3,000 chained `&`); the generated sweep is one
    # statement per operation.
    kinds = [parse(text) for text in ("box (p & q) -> box p", "~~box T", "T", "box p & box q -> box (p & q)")] + [And(())]
    f = And(tuple(kinds[i % len(kinds)] for i in range(5000)))
    n = 2
    names = free_vars(f)
    want = [
        fm
        for fm in range(1 << (1 << n))
        if all(theta_t_member(fm, f, assignment_at(names, n, idx), n) for idx in range((1 << n) ** len(names)))
    ]
    assert 1 < len(want) < 1 << (1 << n)
    assert list(bitslice.family_filter(0, 1 << (1 << n), [compile_membership(f, n)])) == want


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
    # Blocks of mixed sizes, a block of one among them, each given as its
    # columns: each frame's verdict, and the least refuted frame's first
    # refuting assignment.
    n, keys, sizes, text = case
    f = parse(text)
    prog = compile_algebra(f)
    want = [box_n_refutation(n, key, f) for key in keys]
    start = 0
    for size in sizes * len(keys):
        block, wanted = keys[start:start + size], want[start:start + size]
        if not block:
            break
        columns = [[key[y] for key in block] for y in range(n)]
        refuted, idx = bitslice.block_refute(columns, len(block), n, prog.opcodes, prog.opargs, len(prog.names))
        assert refuted == sum(1 << j for j, w in enumerate(wanted) if w >= 0), (block, text)
        assert idx == next((w for w in wanted if w >= 0), -1), (block, text)
        start += size


@given(st.integers(1, 3), st.sampled_from(AXIOMS), st.data())
def test_property_membership_of_random_families(n, spec, data):
    famask = data.draw(st.integers(0, (1 << (1 << n)) - 1))
    prog = program(spec, n)
    want = theta_holds(famask, spec, n)
    assert bitslice.family_accepts(famask, 1 << n, [prog]) == want
    assert list(bitslice.family_filter(famask, famask + 1, [prog])) == ([famask] if want else [])


# Every one-step registry axiom (@Ck(1) to @Ck(3) keep their formula
# at some n <= 3 and degrade to @C at the others), then T, the empty
# conjunction (opcode 3 with arg 0) and a double negation.
ORACLE_SPECS = ("@M", "@C", "@N", "@Cont", "@Conv", "@CoConv", "@CInf", "@Ck(1)", "@Ck(2)", "@Ck(3)", "T", "()", "~~box p")


def oracle_program(spec, n):
    if spec == "()":
        return compile_membership(And(()), n)
    return compile_membership(expand_named(spec, n).formula if spec.startswith("@") else parse(spec), n)


def assert_accepted_matches_oracle(n, specs, planes, lanes):
    programs = [oracle_program(spec, n) for spec in specs]
    got = bitslice._accepted(planes, lanes, programs)
    assert got == oracles.membership_program_lanes(programs, planes, lanes), (n, specs)
    assert got & ~lanes == 0


def test_accepted_matches_lane_oracle_for_every_registry_axiom():
    # Planes reach 8 lanes past the top of `lanes` and set lanes it
    # leaves out; the oracle reads each lane on its own.
    rng = random.Random(22)
    assert oracle_program("()", 2).opcodes == (3,) and oracle_program("()", 2).opargs == (0,)
    for n in range(4):
        for spec in ORACLE_SPECS:
            for width in (1, 7, 40):
                lanes = rng.getrandbits(width) | 1 << width - 1
                planes = [rng.getrandbits(width + 8) for _ in range(1 << n)]
                assert_accepted_matches_oracle(n, [spec], planes, lanes)
            # Every lane, and the families of famasks 0 to 255 on the 2^n
            # subsets (lane j holding subset a when bit a of j is set).
            planes = [sum(1 << j for j in range(256) if j >> a & 1) for a in range(1 << n)]
            assert_accepted_matches_oracle(n, [spec], planes, (1 << 256) - 1)


@st.composite
def planes_and_programs(draw):
    n = draw(st.integers(0, 3))
    specs = draw(st.lists(st.sampled_from(ORACLE_SPECS), min_size=1, max_size=3))
    width = draw(st.integers(1, 48))
    lanes = draw(st.integers(0, (1 << width) - 1))
    planes = draw(st.lists(st.integers(0, (1 << width + 8) - 1), min_size=1 << n, max_size=1 << n))
    return n, specs, planes, lanes


@given(planes_and_programs())
def test_property_accepted_matches_lane_oracle(case):
    assert_accepted_matches_oracle(*case)


@given(st.integers(2, 4), st.data())
def test_property_filter_windows(n, data):
    total = 1 << (1 << n)
    start = data.draw(st.integers(0, total))
    stop = data.draw(st.integers(start, total))
    programs = [program("@M", n), program("@Cont", n)]
    full_run = list(bitslice.family_filter(0, total, programs))
    assert list(bitslice.family_filter(start, stop, programs)) == [fm for fm in full_run if start <= fm < stop]


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
    # below a byte, at a byte boundary and between byte sizes, up to the
    # 8-byte rows packed through an array and past them.
    rng = random.Random(5)
    for count in (0, 1, 3, 5, 511, 513, 1100):
        for width in (0, 1, 5, 8, 9, 16, 32, 40, 64, 65, 128):
            rows = [rng.getrandbits(width) for _ in range(count)]
            assert bitslice.transpose(rows, width) == brute_transpose(rows, width)


def test_family_accepts_one_lane_wide_famasks():
    # Seven points: 128-bit famasks, beyond any machine word.
    n = 7
    prog = program("@N", n)
    assert bitslice.family_accepts(1 << full_mask(n), 1 << n, [prog])
    assert not bitslice.family_accepts((1 << full_mask(n)) - 1, 1 << n, [prog])


def bit_loop(mask):
    """The set bits of mask, ascending, tested one at a time within each
    64-bit word."""
    out = []
    for base in range(0, mask.bit_length(), 64):
        word = mask >> base & (1 << 64) - 1
        out += [base + i for i in range(64) if word >> i & 1]
    return out


@st.composite
def lane_masks(draw):
    """Masks over up to 2^12 lanes, from every lane set to one in 32."""
    width = draw(st.integers(0, 1 << 12))
    share = draw(st.integers(1, 32))
    rng = draw(st.randoms(use_true_random=False))
    return int("".join("1" if rng.randrange(share) == 0 else "0" for _ in range(width)) or "0", 2)


@given(st.one_of(st.integers(0, 1 << 40), lane_masks()))
@example((1 << 32) - 1)
@example(1 << 32)
@example((1 << 40) - 1)
def test_property_set_lanes_matches_bit_loop(mask):
    lanes = bit_loop(mask)
    assert _set_lanes(mask) == lanes
    items = [f"item {i}" for i in range(mask.bit_length())]
    assert _lane_picker(mask)(items) == [items[i] for i in lanes]


def test_lane_decodes_of_filter_blocks_match_bit_loop():
    # Masks over the 2^16 lanes of a filter block, top lane set: random
    # lanes at densities 1/2, 1/11, 1/13 (either side of the switch to
    # `compress`) and 1/256, every lane, and the top lane alone.
    lanes = 1 << bitslice.FILTER_BLOCK_BITS
    rng = random.Random(21)
    masks = [
        int("1" + "".join("1" if rng.randrange(share) == 0 else "0" for _ in range(lanes - 1)), 2)
        for share in (2, 11, 13, 256)
    ]
    masks += [(1 << lanes) - 1, 1 << lanes - 1]
    dense = [core._dense(mask) for mask in masks]
    assert dense == [True, True, False, False, True, False]
    items = [f"item {i}" for i in range(lanes)]
    for mask in masks:
        set_bits = bit_loop(mask)
        assert _set_lanes(mask) == set_bits
        for seq in (items, tuple(items), range(lanes, 2 * lanes)):
            assert _lane_picker(mask)(seq) == [seq[i] for i in set_bits]
