"""Bit-sliced evaluation of membership and algebra programs.

Python ints serve as bit vectors with one lane per candidate (Knuth,
TAOCP 4A, 7.1.3; Biham, FSE 1997).  A membership program is evaluated for
many families at once: plane[a] holds, in lane f, whether subset a is a
member of family f, so each deduplicated row of the program is a few
ANDs and XORs of whole planes, and the families that pass are the lanes
left set after the rows are AND-ed together.  An algebra program is
evaluated for every assignment of a block of frames at once: lane
i * 2^b + f is assignment i of frame f, a subset value is n planes (one
per point), and a box node ANDs each of the 2^n "value equals a" masks
with the plane of the frames whose N(y) holds a and ORs it into plane y.
A single algebra is a block of one frame.  The up-closed
families over n points are built as plain ints, as pairs L <= H of
up-closed families over one point fewer, and filtered in blocks of
lanes, transposed into planes by `transpose`, which also turns per-point
famasks into box tables and back.  Accepted lanes are decoded by
`core._set_lanes` and picked from a block by `core._lane_picker`: through
`itertools.compress` when more than one lane in twelve is set, by a byte
loop over the mask otherwise.

Lanes are Python ints, so nothing here assumes a word width.  Planes of
lane indices are built on first use and cached by their number of bits.
"""

from __future__ import annotations

import sys
from array import array
from functools import lru_cache

from .core import _lane_picker, _set_lanes

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


def _accepted(planes, lanes: int, programs) -> int:
    """Lanes of `lanes` that every membership program accepts.

    Postfix opcodes: 0 pushes the plane of the row's subset in slot arg,
    1 pushes true, 2 negates the top, 3 folds an and of arg operands.
    Bits outside `lanes` may hold anything: every operation is lane-wise
    and the result is masked by `lanes`."""
    acc = lanes
    for prog in programs:
        code = tuple(zip(prog.opcodes, prog.opargs))
        for row in prog.rows:
            stack = []
            for op, arg in code:
                if op == 0:
                    stack.append(planes[row[arg]])
                elif op == 1:
                    stack.append(lanes)
                elif op == 2:
                    stack[-1] ^= lanes
                elif arg:
                    value = stack.pop()
                    for _ in range(arg - 1):
                        value &= stack.pop()
                    stack.append(value)
                else:
                    stack.append(lanes)
            acc &= stack[-1]
            if not acc:
                return 0
    return acc


def family_accepts(famask: int, m: int, programs) -> bool:
    """True when every membership program accepts the one family famask
    over m subset masks."""
    return bool(_accepted([famask >> a & 1 for a in range(m)], 1, programs))


def family_filter(start: int, stop: int, programs) -> list[int]:
    """Ascending famasks in [start, stop) accepted by every program.

    Lane j of a block at base is famask base + j, so below the block's
    bit width the planes are the lane-index planes and above it each
    plane is constant."""
    if start >= stop:
        return []
    width = max((1 << prog.n for prog in programs), default=0)
    bits = min(FILTER_BLOCK_BITS, (stop - start - 1).bit_length())
    size = 1 << bits
    index = _index_planes(bits)
    full = (1 << size) - 1
    out = []
    for base in range(start >> bits << bits, stop, size):
        lanes = full
        if base < start:
            lanes ^= (1 << (start - base)) - 1
        if stop - base < size:
            lanes &= (1 << (stop - base)) - 1
        planes = [index[a] if a < bits else full * (base >> a & 1) for a in range(width)]
        out += _set_lanes(_accepted(planes, lanes, programs), base)
    return out


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


def _filter_leaves(block: list[int], m: int, programs) -> list[int]:
    """The famasks of block that every program accepts, in block order,
    picked from the block by the accepted lanes through `_lane_picker`."""
    return _lane_picker(_accepted(transpose(block, m), (1 << len(block)) - 1, programs))(block)


def upset_enumerate(n: int, nonempty: bool, programs) -> list[int]:
    """Ascending famasks of the up-closed families over n points that every
    program accepts, without the empty family when nonempty is set.

    Over k + 1 points a family is up-closed exactly when L, its members
    without point k, and H, those with point k, k removed, are up-closed
    over k points and L is inside H (the recursion behind the Dedekind
    numbers).  Famask L | H << 2^k runs through the pairs in ascending
    order, H outer.  L inside H makes L <= H as ints, and the list is
    ascending, so each H is tried only with the L's up to it.  The empty
    family is the only up-closed one without the full set.  The programs
    run bit-sliced over blocks of 2^FILTER_BLOCK_BITS families, one lane
    each."""
    ups = [0, 1]
    for k in range(n):
        ups = [low | high << (1 << k) for i, high in enumerate(ups) for low in ups[:i + 1] if not low & ~high]
    if nonempty:
        del ups[0]
    if not programs:
        return ups
    size = 1 << FILTER_BLOCK_BITS
    out = []
    for start in range(0, len(ups), size):
        out += _filter_leaves(ups[start:start + size], 1 << n, programs)
    return out


@lru_cache(maxsize=32)
def _variable_planes(n: int, n_vars: int, frame_bits: int) -> tuple[tuple[int, ...], ...]:
    """Per variable, its n planes over the lanes of 2^frame_bits frames'
    assignments, plane x holding the lanes whose value contains point x.
    Lane i * 2^frame_bits + f is assignment i of frame f, and variable i
    is digit i base 2^n of i, first most significant."""
    index = _index_planes(n * n_vars + frame_bits)
    return tuple(tuple(index[frame_bits + n * (n_vars - 1 - i) + x] for x in range(n)) for i in range(n_vars))


@lru_cache(maxsize=32)
def _points(n: int) -> tuple[tuple[int, ...], ...]:
    """For each subset mask over n points, its points in ascending order."""
    return tuple(tuple(y for y in range(n) if a >> y & 1) for a in range(1 << n))


def _repeat(mask: int, frame_bits: int, assign_bits: int) -> int:
    """A plane with lane i * 2^frame_bits + f set iff bit f of mask is,
    for every assignment i below 2^assign_bits."""
    for b in range(frame_bits, frame_bits + assign_bits):
        mask |= mask << (1 << b)
    return mask


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


def _apply_box(whole, within, n: int, value: tuple[int, ...], full: int) -> tuple[int, ...]:
    """Planes of box[value]: each part of `_lane_parts` joins the planes
    of the points of whole[a] and, for each pair (y, plane) of within[a],
    plane y within the given plane."""
    parts = _lane_parts(value, full)
    out = [0] * n
    for a, part in parts:
        for y in whole[a]:
            out[y] |= part
    if within:
        for a, part in parts:
            for y, plane in within[a]:
                out[y] |= part & plane
    return tuple(out)


def _refuted(whole, within, n: int, opcodes, opargs, n_vars: int, frame_bits: int) -> int:
    """Lanes (i * 2^frame_bits + f) where the program evaluates below the
    full set in frame f under assignment i.  whole[a] lists the points
    whose N holds a in every frame, and within[a] the rest, as
    `_apply_box` reads them.

    Postfix opcodes: 0 pushes variable arg, 1 the full set, 2 complements
    the top, 3 folds an and of arg operands, 4 applies the box.  Every
    value is a tuple of n planes over all lanes."""
    full = (1 << (1 << n * n_vars + frame_bits)) - 1
    variables = _variable_planes(n, n_vars, frame_bits)
    top = (full,) * n
    boxed: dict[tuple[int, ...], tuple[int, ...]] = {}  # equal values, equal images
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
        else:
            value = stack[-1]
            if value not in boxed:
                boxed[value] = _apply_box(whole, within, n, value, full)
            stack[-1] = boxed[value]
    holds = full
    for plane in stack[-1]:
        holds &= plane
    return full ^ holds


def algebra_refute(box, n: int, opcodes, opargs, n_vars: int) -> int:
    """Index of the first assignment where the program evaluates below the
    full set in the algebra with this box table, or -1: the sweep of a
    block of one frame.  Assignment index idx encodes variable i
    (first-occurrence order) as digit i base 2^n, first variable most
    significant."""
    points = _points(n)
    refuted = _refuted([points[b] for b in box], (), n, opcodes, opargs, n_vars, 0)
    return (refuted & -refuted).bit_length() - 1


def block_refute(columns, frames: int, n: int, opcodes, opargs, n_vars: int) -> tuple[int, int]:
    """Sweep every assignment of a block of frames at once.

    The block holds `frames` frames on n points, and columns[y][f] is the
    famask of N(y) in frame f.  With 2^b the number of frames rounded up
    to a power of two, lane i * 2^b + f is assignment i of frame f, and
    the box node reads, per subset a and point y, the frames whose N(y)
    holds a (a transpose of column y) repeated over the assignments.
    Returns (bit f set when frame f has a refuting assignment, the least
    refuting assignment of the least such frame or -1)."""
    frame_bits = (frames - 1).bit_length()
    assign_bits = n * n_vars
    members = [transpose(column, 1 << n) for column in columns]
    every = (1 << frames) - 1
    # Per subset a: the points whose N(y) holds a in every frame, and the
    # points where only some frames do, with the plane of those frames.
    whole = [[y for y, slot in enumerate(members) if slot[a] == every] for a in range(1 << n)]
    within = [
        [(y, _repeat(slot[a], frame_bits, assign_bits)) for y, slot in enumerate(members) if 0 < slot[a] < every]
        for a in range(1 << n)
    ]
    refuted = _refuted(whole, within, n, opcodes, opargs, n_vars, frame_bits)
    # Fold the assignments onto lane f: bit f is then frame f's any-refuted bit.
    hit = refuted
    for b in range(frame_bits, frame_bits + assign_bits):
        hit |= hit >> (1 << b)
    hit &= every
    if not hit:
        return 0, -1
    first = (refuted >> (hit & -hit).bit_length() - 1) & _repeat(1, frame_bits, assign_bits)
    return hit, ((first & -first).bit_length() - 1) >> frame_bits
