"""Bit-sliced evaluation of membership and algebra programs.

Python ints serve as bit vectors with one lane per candidate (Knuth,
TAOCP 4A, 7.1.3; Biham, FSE 1997).  A membership program is evaluated for
many families at once: plane[a] holds, in lane f, whether subset a is a
member of family f, so each deduplicated row of the program is a few
ANDs, ORs and XORs of whole planes, and the families that pass are the
lanes left set after the rows are AND-ed together.  The lowering
(`evaluate._lower`) gives each connective one operation: a -> b and
a | b are one OR (after a NOT of a for ->), a <-> b one XNOR, that is an
XOR and a NOT.  Each program shape
(opcodes, opargs) runs as a row sweep generated once (`_row_sweep`):
straight-line Python with one operator per statement and the row loop
inside, so no interpreter steps through the opcodes per row.  An algebra
program (`_refuted`) is evaluated on every lane at once: a subset value
is n planes (one per point), and a box node splits the lanes by the
value's subset a and takes, within each part, the n planes of box a; it
is interpreted, once per call.  `algebra_refute` gives each assignment
of one algebra a lane, and the search's whole-frame test gives each
pair of a frame of a scan block and a value of the low assignment
digits a lane, one call per value of the high digits.  The up-closed
families over n points are built once per n, as pairs L <= H of
up-closed families over one point fewer, and cut once per block size
into blocks of lanes with their planes (`transpose`,
which also turns per-point famasks into box tables and back).  Both
filters return their accepted lanes over the base they swept, as a
`Lanes` view: its length is the popcount of the lanes, and it decodes
them at most once, when iterated or indexed, by `core._lane_picker`
(through `itertools.compress` when more than one lane in twelve is set,
by a byte loop over the mask otherwise).  A caller that only counts, or
that writes text per base as `bax.baxspace_chunks` does, decodes nothing.

Lanes are Python ints, so nothing here assumes a word width.  Planes of
lane indices are built on first use and cached by their number of bits,
the up-closed families by n and their blocks by (n, block size).  Up to
n = 5, the widest `bax.enumerate_bax` asks for, the families number
7,780 in all and the blocks' planes hold the same bits transposed: about
0.35 MB for every n at once.
"""

from __future__ import annotations

import sys
from array import array
from collections.abc import Sequence
from functools import cached_property, lru_cache

from .core import _lane_picker, _setattr, _Value

# The family filter sweeps famasks, and the up-set filter up-closed
# families, in blocks of at most 2^16 lanes.
FILTER_BLOCK_BITS = 16

# Unsigned array item codes by item size in bytes, for packing rows.
_ARRAY_CODES = {array(code).itemsize: code for code in "BHILQ"}


@lru_cache(maxsize=32)
def _index_planes(bits: int) -> tuple[int, ...]:
    """Over 2^bits lanes, plane b has lane i set iff bit b of i is set."""
    total = 1 << bits
    planes = []
    for b in range(bits):
        half = 1 << b
        plane = ((1 << half) - 1) << half
        width = half << 1
        while width < total:
            plane |= plane << width
            width <<= 1
        planes.append(plane)
    return tuple(planes)


@lru_cache(maxsize=512)
def _row_sweep(opcodes: tuple[int, ...], opargs: tuple[int, ...]):
    """The row sweep of one program shape, generated once: a function
    sweep(planes, lanes, rows, acc) that ANDs into acc, row by row, the
    lanes of `lanes` where the program holds and returns acc, 0 as soon
    as no lane is left.

    Postfix opcodes: 0 pushes the plane the row names in slot arg (a
    subset's membership plane, or for a naked variable one of the two
    constant planes after them), 1 pushes true, 2 negates the top, 3
    folds an and of arg operands (true when arg is 0), 5 an or of arg
    operands (arg at least 1), and 6 replaces the top two by their
    equality (`evaluate._lower`).  Stack position d holds an operand
    text: `lanes`, a plane `planes[s<slot>]`, or the local v<d> once an
    operation wrote it.  Each operation is one statement with one
    operator on such operands, so the code never nests however long the
    formula: a not is `v = a ^ lanes`, an and or an or of k operands k - 1
    statements `v = a & b`, `v &= c`, ... or `v = a | b`, ..., and an
    equality `v = a ^ b; v ^= lanes`.  Bits outside `lanes` may hold
    anything: every operation is lane-wise and acc stays inside it."""
    slots = 1 + max((int(arg) for op, arg in zip(opcodes, opargs) if op == 0), default=-1)
    stack = []
    body = []
    for op, arg in zip(opcodes, opargs):
        op, arg = int(op), int(arg)
        if op == 0:
            stack.append(f"planes[s{arg}]")
        elif op == 2:
            d = len(stack) - 1
            body.append(f"v{d} = {stack[d]} ^ lanes")
            stack[d] = f"v{d}"
        elif op == 6:
            d = len(stack) - 2
            body += [f"v{d} = {stack[d]} ^ {stack[d + 1]}", f"v{d} ^= lanes"]
            stack[d:] = [f"v{d}"]
        elif op == 1 or not arg:
            stack.append("lanes")
        elif arg > 1:  # an and or an or of one operand is that operand
            sign = "&" if op == 3 else "|"
            d = len(stack) - arg
            first, *rest = stack[d:]
            del stack[d:]
            body.append(f"v{d} = {first} {sign} {rest[0]}")
            body += [f"v{d} {sign}= {operand}" for operand in rest[1:]]
            stack.append(f"v{d}")
    targets = "".join(f"s{i}, " for i in range(slots))
    lines = ["def sweep(planes, lanes, rows, acc):", f"    for ({targets}) in rows:"]
    lines += [f"        {statement}" for statement in body]
    lines += [f"        acc &= {stack[0]}", "        if not acc:", "            return 0", "    return acc"]
    namespace: dict = {}
    exec(compile("\n".join(lines), "<row sweep>", "exec"), namespace)
    return namespace["sweep"]


def _accepted(planes, lanes: int, programs) -> int:
    """Lanes of `lanes` that every membership program accepts, each program
    run by its generated row sweep (`_row_sweep`)."""
    acc = lanes
    for prog in programs:
        acc = _row_sweep(prog.opcodes, prog.opargs)(planes, lanes, prog.rows, acc)
        if not acc:
            break
    return acc


def family_accepts(famask: int, m: int, programs) -> bool:
    """True when every membership program accepts the one family famask
    over m subset masks."""
    return bool(_accepted([famask >> a & 1 for a in range(m)], 1, programs))


class Lanes(_Value):
    """The famasks base[i] at the set bits i of mask, in base order: the
    lanes a filter accepted over the famasks it swept.  Its length is the
    popcount of mask; iterating or indexing it decodes the lanes, once,
    into the tuple `famasks`.  Views holding the same famasks are equal
    and hash alike, whatever their bases."""

    _fields = ("base", "mask")

    def __init__(self, base: Sequence[int], mask: int) -> None:
        _setattr(self, "base", base)
        _setattr(self, "mask", mask)

    def __len__(self) -> int:
        return self.mask.bit_count()

    @cached_property
    def famasks(self) -> tuple[int, ...]:
        return tuple(_lane_picker(self.mask)(self.base))

    def __iter__(self):
        return iter(self.famasks)

    def __getitem__(self, i):
        return self.famasks[i]

    def __eq__(self, other) -> bool:
        return isinstance(other, Lanes) and self.famasks == other.famasks

    def __hash__(self) -> int:
        return hash(self.famasks)


def family_filter(start: int, stop: int, programs) -> Lanes:
    """The famasks in [start, stop) accepted by every program, as lanes
    over range(start, stop).

    Lane j of a block at base is famask base + j, so below the block's
    bit width the planes are the lane-index planes and above it each
    plane is constant."""
    if start >= stop:
        return Lanes(range(start, stop), 0)
    width = max((1 << prog.n for prog in programs), default=0)
    bits = min(FILTER_BLOCK_BITS, (stop - start - 1).bit_length())
    size = 1 << bits
    index = _index_planes(bits)
    full = (1 << size) - 1
    origin = start >> bits << bits
    mask = 0
    for base in range(origin, stop, size):
        lanes = full
        if base < start:
            lanes ^= (1 << (start - base)) - 1
        if stop - base < size:
            lanes &= (1 << (stop - base)) - 1
        planes = [index[a] if a < bits else full * (base >> a & 1) for a in range(width)]
        mask |= _accepted(planes, lanes, programs) << (base - origin)
    return Lanes(range(start, stop), mask >> (start - origin))


@lru_cache(maxsize=None)
def _transpose_plan(lane_bits: int, width_bits: int) -> tuple[tuple[int, int], ...]:
    """Delta swaps that move bit j * 2^width_bits + a of a packed block to
    bit a * 2^lane_bits + j, i.e. rotate the bit-index fields [lane | a]
    to [a | lane] one swap of two index bits at a time.  Unbounded: the
    pairs in use are few, and an evicted plan is rebuilt on its next call."""
    k = lane_bits + width_bits
    index = _index_planes(k)
    full = (1 << (1 << k)) - 1
    held = list(range(k))  # held[p]: the original index bit now at position p
    swaps = []
    for p in range(k):
        want = (p - lane_bits) % k
        q = held.index(want)
        if q != p:
            lo, hi = min(p, q), max(p, q)
            # Positions with index bit lo set and hi clear trade places
            # with their partners 2^hi - 2^lo above.
            swaps.append(((1 << hi) - (1 << lo), index[lo] & (full ^ index[hi])))
            held[p], held[q] = held[q], held[p]
    return tuple(swaps)


def transpose(rows, width: int) -> tuple[int, ...]:
    """Bit j of entry a (a < width) is bit a of rows[j]; every row is below
    2^width.  Per-point famasks (width 2^n) give the box table, and the box
    table (width n) gives them back.  The rows are packed a power-of-two
    number of bytes apart into one int, through an `array` when a row is
    1, 2, 4 or 8 bytes, and moved by delta swaps (Warren, Hacker's
    Delight, ch. 7): a few whole-int steps per index bit."""
    if not rows:
        return (0,) * width
    lane_bits = (len(rows) - 1).bit_length()
    width_bits = max(3, (width - 1).bit_length())  # at least one byte per row
    row_bytes = 1 << (width_bits - 3)
    if row_bytes in _ARRAY_CODES:
        packed_rows = array(_ARRAY_CODES[row_bytes], rows)
        if sys.byteorder == "big":
            packed_rows.byteswap()
    else:
        packed_rows = b"".join([row.to_bytes(row_bytes, "little") for row in rows])
    packed = int.from_bytes(packed_rows, "little")
    for delta, mask in _transpose_plan(lane_bits, width_bits):
        t = (packed ^ packed >> delta) & mask
        packed ^= t | t << delta
    lane_mask = (1 << len(rows)) - 1
    return tuple([packed >> (a << lane_bits) & lane_mask for a in range(width)])


@lru_cache(maxsize=None)
def _upsets(n: int) -> tuple[int, ...]:
    """Ascending famasks of the up-closed families over n points, built
    once per n from those over n - 1.

    Over k + 1 points a family is up-closed exactly when L, its members
    without point k, and H, those with point k, k removed, are up-closed
    over k points and L is inside H (the recursion behind the Dedekind
    numbers).  Famask L | H << 2^k runs through the pairs in ascending
    order, H outer.  L inside H makes L <= H as ints, and the tuple is
    ascending, so each H is tried only with the L's up to it."""
    if not n:
        return (0, 1)
    ups = _upsets(n - 1)
    shift = 1 << (n - 1)
    return tuple([low | high << shift for i, high in enumerate(ups) for low in ups[:i + 1] if not low & ~high])


@lru_cache(maxsize=32)
def _upset_blocks(n: int, bits: int) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """`_upsets(n)` cut into blocks of 2^bits families, each with its
    2^n planes (the block's `transpose`), built once per (n, bits)."""
    ups = _upsets(n)
    size = 1 << bits
    blocks = [ups[start:start + size] for start in range(0, len(ups), size)]
    return tuple([(block, transpose(block, 1 << n)) for block in blocks])


def upset_enumerate(n: int, programs) -> Lanes:
    """The up-closed families over n points that every program accepts,
    as lanes over the per-width table `_upsets(n)`, in its ascending
    order.

    The families are filtered in the table's cached blocks of
    2^FILTER_BLOCK_BITS families, one lane each (`_upset_blocks`), so a
    call builds and transposes nothing that an earlier call at the same
    width built; with no programs every lane is set and no block is
    used.  The empty family, famask 0, is lane 0: the first of the table
    and the only up-closed family without the full set, so the one row
    of @N drops that lane alone."""
    ups = _upsets(n)
    if programs:
        bits = FILTER_BLOCK_BITS
        mask = 0
        for i, (block, planes) in enumerate(_upset_blocks(n, bits)):
            mask |= _accepted(planes, (1 << len(block)) - 1, programs) << (i << bits)
    else:
        mask = (1 << len(ups)) - 1
    return Lanes(ups, mask)


@lru_cache(maxsize=32)
def _variable_planes(n: int, n_vars: int) -> tuple[tuple[int, ...], ...]:
    """Per variable, its n planes over the lanes of every assignment,
    plane x holding the lanes whose value contains point x.  Lane i is
    assignment i, and variable i is digit i base 2^n of i, first most
    significant."""
    index = _index_planes(n * n_vars)
    return tuple(tuple(index[n * (n_vars - 1 - i) + x] for x in range(n)) for i in range(n_vars))


@lru_cache(maxsize=32)
def _subset_values(n: int, bits: int) -> tuple[tuple[int, ...], ...]:
    """Per subset a of the n points, the value that is a on each of 2^bits
    lanes: n planes, plane x full when x is in a and empty otherwise."""
    full = (1 << (1 << bits)) - 1
    return tuple(tuple(full if a >> x & 1 else 0 for x in range(n)) for a in range(1 << n))


def _lane_parts(value, lanes: int) -> list[tuple[int, int]]:
    """(a, part) for each subset a that some lane of `lanes` holds, part
    being those lanes, where value[x] is the plane of the lanes holding
    point x: the lanes split one point at a time."""
    parts = [(0, lanes)]
    for x, plane in enumerate(value):
        split = []
        for a, part in parts:
            inside = part & plane
            if inside:
                split.append((a | 1 << x, inside))
            if inside != part:
                split.append((a, part ^ inside))
        parts = split
    return parts


def _apply_box(images, value: tuple[int, ...], full: int) -> tuple[int, ...]:
    """Planes of box[value], where images[a] is the value of box a: a
    constant value, each of its planes empty or full, is the image of its
    subset, and otherwise each part (a, part) of `_lane_parts` takes the
    planes of images[a] within it."""
    a = 0
    for x, plane in enumerate(value):
        if plane == full:
            a |= 1 << x
        elif plane:
            break
    else:
        return images[a]
    out = [0] * len(value)
    for a, part in _lane_parts(value, full):
        for y, plane in enumerate(images[a]):
            if plane:
                out[y] |= part & plane
    return tuple(out)


def _refuted(images, opcodes, opargs, variables, full: int) -> int:
    """Lanes of `full` where the program evaluates below the full set.
    variables[i] is the n planes of variable i, and images[a] the n planes
    of box a, as `_apply_box` reads them.

    Postfix opcodes: 0 pushes variable arg, 1 the full set, 2 complements
    the top, 3 folds an and of arg operands, 5 an or of arg operands, 6
    replaces the top two by their equality, and 4 applies the box to the
    top, arg numbering the boxed subformula, so a number already seen
    reuses its image.  Every value is a tuple of n planes, and each
    operation is one step per plane: an equality is `x ^ y ^ full`."""
    top = (full,) * len(images[0])
    boxed: dict[int, tuple[int, ...]] = {}
    stack = []
    for op, arg in zip(opcodes, opargs):
        if op == 0:
            stack.append(variables[arg])
        elif op == 1:
            stack.append(top)
        elif op == 2:
            stack[-1] = tuple([plane ^ full for plane in stack[-1]])
        elif op == 3:
            if arg:
                value = stack.pop()
                for _ in range(arg - 1):
                    value = tuple([x & y for x, y in zip(value, stack.pop())])
                stack.append(value)
            else:
                stack.append(top)
        elif op == 5:
            value = stack.pop()
            for _ in range(arg - 1):
                value = tuple([x | y for x, y in zip(value, stack.pop())])
            stack.append(value)
        elif op == 6:
            value = stack.pop()
            stack[-1] = tuple([x ^ y ^ full for x, y in zip(stack[-1], value)])
        else:
            if arg not in boxed:
                boxed[arg] = _apply_box(images, stack[-1], full)
            stack[-1] = boxed[arg]
    holds = full
    for plane in stack[-1]:
        holds &= plane
    return full ^ holds


def algebra_refute(box, n: int, opcodes, opargs, n_vars: int) -> int:
    """Index of the first assignment where the program evaluates below the
    full set in the algebra with this box table, or -1: one lane per
    assignment.  Assignment index idx encodes variable i (first-occurrence
    order) as digit i base 2^n, first variable most significant."""
    values = _subset_values(n, n * n_vars)
    full = (1 << (1 << n * n_vars)) - 1
    refuted = _refuted([values[b] for b in box], opcodes, opargs, _variable_planes(n, n_vars), full)
    return (refuted & -refuted).bit_length() - 1
