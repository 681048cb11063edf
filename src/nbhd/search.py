"""Frame enumeration and countermodel search over small carriers.

A frame on n points is a product of n independent family choices, so
pointwise constraints shrink each point's candidate list before any
frame is assembled.  A class tag stands for its registry axioms
(`classes.frame_tag_axioms`); they join the axiom specs, each of which
`formulas.resolve` turns into an `Axiom`, and one `bax.enumerate_bax`
call of the one-step ones gives the candidates every point shares.  A
formula of modal depth 1 with a naked variable, such as T (the centered
condition of `centered` and the topological tags), is still a test on x
and N(x) alone: `evaluate.compile_pointwise` gives one membership
program per point, and each point keeps the candidates that pass its
program (`_pass_masks`, run on `_candidate_planes`, one transpose of
the shared list).  A formula of
depth 2 or more, such as Four (the iv condition), reads other points'
neighborhoods and is decided per frame.

The product is scanned serially in blocks, first point outermost and
famasks ascending, which is the ascending lexicographic order on keys.
A block fixes the first points and gives one lane to each key of the
others' candidates; plane (x, a) holds the lanes whose N(x) contains a,
and canonicity and every formula of depth 2 or more are decided
lane-wise on the planes.  `_whole_lanes` is that one whole-frame test:
the lanes whose frame validates a formula's algebra program, the box of
a subset read off the planes.  The low digits of the assignment index
take lanes too, the block copied once per value of them, and the high
digits are constants, one run of the program per value.
`enumerate_frames` and `frames_chunks` decode the passing lanes into one
famask column per point; only `enumerate_frames` zips the columns into
keys, while `frames_chunks`, the compact JSON text of its frames in
chunks of at most _FRAMES_CHUNK_CHARS characters, joins one text per
candidate family along the columns.

A level, the frames on n points in a class, does not depend on the
formula tested against it, so every target and mode shares one compiled
`_Level`: its candidate tuples, the algebra programs of its whole-frame
constraints and, each built on first use, its block plan (the block
shape (p, size, runs) and the free points' planes), its candidate planes
and its table of fixed candidates; it holds nothing that depends on a
target.  `_class_level` is one `lru_cache` of at most 16 levels, keyed
by n, the constraint specs (each stripped, a repeat dropped) and
SCAN_BLOCK_BITS, which the plan reads.  `_level` refuses a level of more
keys than its route's cap on every call, before any plane is built.  The
cache serves a process that scans one class more than once, with several
targets or commands; one CLI search visits each of its levels once.

A count of a pointwise level, one without a whole-frame constraint and
with a target of modal depth at most 1 or none, scans no key: every
class here is closed under relabeling, so `_orbit_scan` counts its
frames up to relabeling by Burnside's lemma, as the mean over the
permutations σ of the frames σ fixes.  Such a frame is set by one
candidate per cycle c of σ, one that σ^|c| fixes, and the level's
`fixed` table holds those candidates as one mask per cycle, decided on
the candidate planes.  The labeled count is the identity's
term, and a target's count takes each mask within the target's pass
masks.  Its work is bounded by the candidate lists, not by keys, so it
answers past SCAN_KEYS_CAP: the unconstrained class at n = 4 and the
monotone one at n = 5.  The find modes, the other counts,
`enumerate_frames` and `frames_chunks` scan.

A target is a `_Target`, resolved once per stripped text and width by
`_target`: the formula `evaluate.compile_target` gives, whether its
depth is 2 or more, its variable count and, built at the first level
with an in-class frame, its program; a warm level resolves, compiles
and walks no formula.  A target of modal depth at most 1 is valid on a
frame exactly when every N(x) passes x's program, so it is decided by
the same pass masks: a block's validating lanes are its in-class lanes
within the passing runs of its free points, when every fixed point
passes.  A target of depth 2 or more is decided on the in-class lanes
by `_whole_lanes`.  Either way a count sums both popcounts, and a find
mode takes the least lane of the validating or of the other in-class
lanes; only that frame's key is built, and a refuting frame's least
assignment comes from `find_refuting_assignment` on its box table.

The search visits n = 0, 1, ... and scans canonical representatives
only (every class here is closed under point relabeling), so ties break
toward the least canonical frame and then the least assignment index.
"checked" counts the in-class frames examined up to and including the
hit; in mode "count", which tallies the frames that validate the target
(all of them when there is none), it is the full in-class total.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import chain, islice, permutations, product, repeat
from math import prod

from .bax import _lane_text, enumerate_bax
from .bitslice import _accepted, _index_planes, _refuted, transpose
from .classes import FRAME_TAGS, frame_tag_axioms, parse_class_tag
from .core import (
    CANONICAL_CAP,
    ENUM_BACKTRACK_CAP,
    EXHAUSTIVE_FRAMES_CAP,
    SCAN_KEYS_CAP,
    CapExceededError,
    InvalidInputError,
    NeighborhoodAlgebra,
    NeighborhoodFrame,
    _lane_picker,
    _set_lanes,
    _setattr,
    _Value,
    box_n,
    check_width,
    frame_to_json,
    full_mask,
)
from .evaluate import (
    assignment_at,
    assignment_space,
    compile_algebra,
    compile_pointwise,
    compile_target,
    eval_formula,
    find_refuting_assignment,
)
from .formulas import Axiom, AxiomSet, Formula, free_vars, modal_depth, resolve

MODES = ("find_refuting", "find_validating", "count")
# A scan block holds at most 2^16 keys, one lane each.
SCAN_BLOCK_BITS = 16
# The whole-frame lane test copies a block's lanes once per low
# assignment digit value while they stay within 2^WHOLE_LANE_BITS lanes.
WHOLE_LANE_BITS = 12


class SearchSpec(_Value):
    __slots__ = _fields = ("target", "constraints", "mode", "max_n")

    def __init__(self, target: str | None = None, constraints: tuple[str, ...] = (), mode: str = "find_refuting", max_n: int = 3) -> None:
        _constraint_tuple(constraints)
        if mode not in MODES:
            raise InvalidInputError(f"search mode must be one of {MODES}, got {mode!r}")
        if mode != "count" and target is None:
            raise InvalidInputError(f"search mode {mode} needs a target")
        _setattr(self, "target", target)
        _setattr(self, "constraints", constraints)
        _setattr(self, "mode", mode)
        _setattr(self, "max_n", max_n)


def apply_perm_mask(a: int, perm: tuple[int, ...]) -> int:
    out = 0
    for i, p in enumerate(perm):
        if a >> i & 1:
            out |= 1 << p
    return out


def relabel_frame(frame: NeighborhoodFrame, perm: tuple[int, ...]) -> NeighborhoodFrame:
    """Rename point x to perm[x], inside every subset mask as well."""
    if sorted(perm) != list(range(frame.n)):
        raise InvalidInputError(f"relabel_frame: {perm!r} is not a permutation of 0..{frame.n - 1}")
    key = [0] * frame.n
    for x, famask in enumerate(frame.key()):
        for a in _set_lanes(famask):
            key[perm[x]] |= 1 << apply_perm_mask(a, perm)
    return NeighborhoodFrame(frame.n, key)


def canonical_form(frame: NeighborhoodFrame) -> NeighborhoodFrame:
    """Least relabeling of the frame, by the per-point famask key."""
    check_width(frame.n, CANONICAL_CAP, "canonical_form")
    return min((relabel_frame(frame, perm) for perm in permutations(range(frame.n))), key=NeighborhoodFrame.key)


def _candidate_planes(n: int, cands) -> tuple[tuple[int, ...], ...]:
    """Per point x, the planes of cands[x], plane a holding the candidates
    that contain subset a, with the empty and the full plane after them,
    the constants a naked variable reads.  Points that share one list
    share its planes, transposed once."""
    planes = {}
    for cand in cands:
        if id(cand) not in planes:
            planes[id(cand)] = (*transpose(cand, 1 << n), 0, (1 << len(cand)) - 1)
    return tuple(planes[id(cand)] for cand in cands)


def _pass_masks(planes, programs) -> list[int]:
    """Per point x, the mask over its candidates of the famasks that pass
    at x under every formula of modal depth at most 1: each formula's
    `compile_pointwise` programs, program x run on x's `_candidate_planes`."""
    return [_accepted(p, p[-1], [program[x] for program in programs]) for x, p in enumerate(planes)]


def _compile_constraints(n: int, specs: tuple[str, ...]):
    """Per-point famask candidate tuples plus the algebra programs of the
    whole-frame constraints, of stripped specs.  The axiom specs keep
    their order; each frame tag's registry axioms follow them, skipping
    any already listed.  Each spec is an `Axiom` of `formulas.resolve`,
    and a formula spec stands for its parsed formula, so two spellings of
    one formula are one constraint.  The one-step axioms give the
    candidates every point shares, one `enumerate_bax` call of their set.
    Each other spec of modal depth 1, such as T, has a naked
    variable: it cuts every point's list to the famasks that pass at that
    point.  A spec of depth 2 or more, such as Four, reads other points'
    neighborhoods and is a whole-frame constraint, decided per block by
    `_whole_lanes`.  A box-free spec with a variable (a misspelt tag
    parses as one) is refused, and an empty spec once every other spec
    has resolved."""
    axioms: list[str] = []
    tag_axioms: list[str] = []
    for text in specs:
        if text in FRAME_TAGS or text.startswith("kappa:"):
            tag_axioms += frame_tag_axioms(parse_class_tag(text))
        else:
            axioms.append(text)
    for name in tag_axioms:
        if f"@{name}" not in axioms:
            axioms.append(f"@{name}")
    one_step: list[Axiom] = []
    pointwise: list[Formula] = []
    whole: list[Formula] = []
    for spec in filter(None, axioms):
        ax = resolve(spec, n)
        f = ax.formula
        if ax.one_step:
            if ax not in one_step:
                one_step.append(ax)
        elif not modal_depth(f):
            raise InvalidInputError(
                f"constraint {spec!r} has modal depth 0: a constraint is a class tag, an @name or a formula with a box"
            )
        elif f not in pointwise and f not in whole:
            (pointwise if modal_depth(f) == 1 else whole).append(f)
    if "" in axioms:
        raise InvalidInputError("axiom set: empty entry")
    shared = enumerate_bax(n, AxiomSet(tuple(one_step))).famasks()
    programs = tuple(compile_algebra(f) for f in whole)
    if not pointwise:
        return (shared,) * n, programs
    masks = _pass_masks(_candidate_planes(n, (shared,) * n), [compile_pointwise(f, n) for f in pointwise])
    return tuple(tuple(_lane_picker(mask)(shared)) for mask in masks), programs


@lru_cache(maxsize=None)
def _relabel_orders(n: int) -> tuple[tuple[tuple[int, int, int, int], ...], ...]:
    """Per non-identity permutation q of the n points, the bits (j, b) of a
    key in comparison order, slot j ascending and within it subset b
    descending, each as (q[j], q.b, j, b): bit b of slot j of the key
    relabeled by q^-1 is bit q.b of slot q[j] of the key, q.b being the
    image of subset b under q."""
    return tuple(
        tuple((q[j], apply_perm_mask(b, q), j, b) for j in range(n) for b in reversed(range(1 << n)))
        for q in islice(permutations(range(n)), 1, None)
    )


def _canonical_lanes(planes, n: int, lanes: int) -> int:
    """The lanes whose key no relabeling lowers.  Per permutation, "equal
    so far" starts as every live lane and the comparison walks the key's
    bits in order; a lane where the relabeled key has 0 and the key 1 is
    lowered, and the walk stops once no lane is equal so far."""
    for order in _relabel_orders(n):
        equal = lanes
        for x, c, j, b in order:
            relabeled, plane = planes[x][c], planes[j][b]
            if relabeled is plane:
                continue
            differ = (relabeled ^ plane) & equal
            if differ:
                lanes ^= differ & plane
                equal ^= differ
                if not equal:
                    break
        if not lanes:
            break
    return lanes


@lru_cache(maxsize=None)
def _digit_lanes(bits: int, low: int) -> tuple[int, tuple[int, ...]]:
    """(repunit, digits) over 2^low copies of a block of 2^bits lanes:
    the repunit has the first lane of each copy set, so a plane of the
    block times it is that plane in every copy, and digit j holds the
    copies whose index has bit j set, as `_index_planes` gives them.
    bits is at most SCAN_BLOCK_BITS and bits + low at most
    WHOLE_LANE_BITS when low > 0, so the cache stays small."""
    if not low:
        return 1, ()
    return ((1 << (1 << bits + low)) - 1) // ((1 << (1 << bits)) - 1), _index_planes(bits + low)[bits:]


def _whole_lanes(planes, n: int, lanes: int, program) -> int:
    """The lanes of `lanes` whose frame validates the algebra program,
    under every assignment, `bitslice._refuted` running the program on
    every lane at once.  The box of a subset a is read off the planes: its
    plane y is plane (y, a), the lanes whose N(y) holds a.

    Bit j of an assignment index (`evaluate.assignment_at`, the first of
    the k variables most significant) tells whether point j mod n is in
    variable k - 1 - j div n.  The block's lanes, rounded up to 2^bits,
    are copied 2^low times, the most that stay within 2^WHOLE_LANE_BITS
    lanes and no more than the n * k bits, and copy c takes the
    assignments whose low bits are c: each image plane is multiplied by
    the repunit of `_digit_lanes`, and a low bit's variable plane is its
    digit plane, masked to the live lanes.  The high bits are constants,
    each plane empty or full, run through by `itertools.product`, one
    `_refuted` call per value; the refuted lanes are ORed down onto the
    first copy in low halvings, where the bits above it hold no lane.
    With low = 0 every variable is a constant.  Stops once no lane is
    left."""
    if not lanes:
        return 0
    k = len(program.names)
    assignment_space(n, k, "validates")
    bits = (lanes.bit_length() - 1).bit_length()
    low = min(n * k, max(0, WHOLE_LANE_BITS - bits))
    repunit, digits = _digit_lanes(bits, low)
    full = lanes * repunit
    images = [tuple([row[a] & lanes for row in planes]) for a in range(1 << n)]
    if low:
        images = [tuple([plane * repunit for plane in image]) for image in images]
    choices = []
    for i in range(k):
        # Variable i's plane x is bit j + x: a digit plane below bit low.
        j = n * (k - 1 - i)
        fixed = tuple([plane & full for plane in digits[j:j + n]])
        choices.append([fixed + high for high in product((0, full), repeat=n - len(fixed))])
    for variables in product(*choices):
        refuted = _refuted(images, program.opcodes, program.opargs, variables, full)
        for s in reversed(range(low)):
            refuted |= refuted >> (1 << bits + s)
        lanes &= ~refuted
        if not lanes:
            break
    return lanes


def _level_shape(cands) -> tuple[int, int, list[tuple[int, int, int]]]:
    """(p, size, runs): a block fixes the first p points, the fewest that
    leave at most 2^SCAN_BLOCK_BITS keys over the others, which are its
    size lanes in scan order.  runs holds (x, stride, times) per free
    point x: each of its candidates fills a run of stride lanes, and the
    runs repeat times over the block.  An empty list fixes every point,
    so there is no block."""
    p, size = len(cands), 1
    while p and all(cands) and size * len(cands[p - 1]) <= 1 << SCAN_BLOCK_BITS:
        p -= 1
        size *= len(cands[p])
    runs = []
    stride = size
    for x in range(p, len(cands)):
        stride //= len(cands[x])
        runs.append((x, stride, size // (stride * len(cands[x]))))
    return p, size, runs


class _Level(_Value):
    """The frames on n points in a class: the candidate tuple of each
    point, the algebra programs of its whole-frame constraints and, each
    built on first use, the plan every block of a scan shares, the
    candidate planes and the fixed candidates of each relabeling.  A
    level is equal only to itself."""

    _fields = ("n", "cands", "whole")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, n: int, cands: tuple[tuple[int, ...], ...], whole: tuple) -> None:
        _setattr(self, "n", n)
        _setattr(self, "cands", cands)
        _setattr(self, "whole", whole)

    @cached_property
    def plan(self):
        """(p, size, runs, free): the `_level_shape` of the candidate
        tuples, and per free point its planes over a block's lanes, plane
        a holding the lanes whose famask contains subset a."""
        cands = self.cands
        p, size, runs = _level_shape(cands)
        free = tuple(
            tuple(int("".join("01"[famask >> a & 1] * stride for famask in reversed(cands[x])) * times, 2) for a in range(1 << self.n))
            for x, stride, times in runs
        )
        return p, size, tuple(runs), free

    @cached_property
    def planes(self):
        """The `_candidate_planes` of the candidate tuples."""
        return _candidate_planes(self.n, self.cands)

    @cached_property
    def fixed(self):
        """Per permutation σ of the points, identity first, per cycle c of
        σ: (x, mask), x the cycle's least point and mask the candidates F
        of x with q.F = F for q = σ^|c|.  That holds when every subset a
        and its image q.a are in F together, so mask is the AND over a of
        the complement of plane a XOR plane q.a."""
        n = self.n
        table = []
        for perm in permutations(range(n)):
            cycles = []
            seen = set()
            for x in range(n):
                if x in seen:
                    continue
                # Walking the cycle of x takes q from σ to σ^|c|.
                seen.add(x)
                q, y = perm, perm[x]
                while y != x:
                    seen.add(y)
                    q, y = [perm[i] for i in q], perm[y]
                plane = self.planes[x]
                mask = plane[-1]
                for a in range(1 << n):
                    mask &= ~(plane[a] ^ plane[apply_perm_mask(a, q)])
                cycles.append((x, mask))
            table.append(tuple(cycles))
        return tuple(table)


def _lane_blocks(level: _Level, canonical: bool):
    """(prefix, planes, in-class lanes) per block, in scan order.  Plane
    (x, a) of a block holds the lanes whose N(x) contains a: a constant
    for a fixed point, and for a free point its plane in the level's plan.
    The lanes are those whose key no relabeling lowers, when canonical is
    set, and whose frame validates every whole-frame constraint."""
    n, cands = level.n, level.cands
    p, size, _, free = level.plan
    full = (1 << size) - 1
    for prefix in product(*cands[:p]):
        planes = [[full if famask >> a & 1 else 0 for a in range(1 << n)] for famask in prefix] + list(free)
        lanes = _canonical_lanes(planes, n, full) if canonical else full
        for program in level.whole:
            lanes = _whole_lanes(planes, n, lanes, program)
        yield prefix, planes, lanes


def _in_class(level: _Level, canonical: bool):
    """(count, columns) per block with an in-class key, in scan order: the
    block's in-class lanes decoded into one column per point, entry i the
    famask of that point in the block's i-th in-class key."""
    cands = level.cands
    runs = level.plan[2]
    columns = [list(chain.from_iterable(repeat(famask, stride) for famask in cands[x])) * times for x, stride, times in runs]
    for prefix, _, lanes in _lane_blocks(level, canonical):
        if lanes:
            count = lanes.bit_count()
            pick = _lane_picker(lanes)
            yield count, [[famask] * count for famask in prefix] + [pick(column) for column in columns]


def _scan(level: _Level, canonical, target, mode):
    """Count the in-class frames and the ones that validate the target, a
    `_Target` at the level's width or None.  Returns (in_class,
    validating, hit) where hit = (frame key, refuting env).  Find modes
    stop at the first hit, so in_class then counts frames up to and
    including it.

    A target of modal depth at most 1 holds on a block's lane when every
    point's famask passes that point's program: the fixed points' famasks
    are looked up in their passing sets, and the free points' passing
    candidates fill runs of lanes, as their famasks fill the planes.  A
    deep target holds on the lanes `_whole_lanes` keeps."""
    n, cands = level.n, level.cands
    if target is None:
        return sum(lanes.bit_count() for _, _, lanes in _lane_blocks(level, canonical)), 0, None
    p, _, runs, _ = level.plan
    in_class = validating = 0
    passing = None
    for prefix, planes, lanes in _lane_blocks(level, canonical):
        if not lanes:
            continue
        if target.deep:
            holding = _whole_lanes(planes, n, lanes, target.program)
        else:
            if passing is None:
                # Built at the level's first in-class frame: a level without
                # one meets no assignment guard, as with the lane test.
                masks = _pass_masks(level.planes, [target.program])
                passing = [set(_lane_picker(mask)(cand)) for mask, cand in zip(masks, cands[:p])]
                free = -1
                for x, stride, times in runs:
                    free &= int("".join(bit * stride for bit in bin(masks[x])[2:].zfill(len(cands[x]))) * times, 2)
            holding = lanes & free if all(map(set.__contains__, passing, prefix)) else 0
        hits = 0 if mode == "count" else holding if mode == "find_validating" else lanes ^ holding
        if hits:
            lane = (hits & -hits).bit_length() - 1
            key = prefix + tuple(cands[x][lane // stride % len(cands[x])] for x, stride, _ in runs)
            env = None if mode == "find_validating" else find_refuting_assignment(NeighborhoodAlgebra(n, transpose(key, 1 << n)), target.formula)
            upto = (2 << lane) - 1
            return in_class + (lanes & upto).bit_count(), validating + (holding & upto).bit_count(), (key, env)
        in_class += lanes.bit_count()
        validating += holding.bit_count()
    return in_class, validating, None


def _constraint_tuple(constraints) -> tuple[str, ...]:
    if isinstance(constraints, str):
        raise InvalidInputError(f"constraints must be a sequence of specs, not the string {constraints!r}")
    return tuple(constraints)


@lru_cache(maxsize=16)
def _class_level(n: int, specs: tuple[str, ...], bits: int) -> _Level:
    """The `_Level` of normalized specs at n.  bits is SCAN_BLOCK_BITS,
    which the level's plan reads."""
    return _Level(n, *_compile_constraints(n, specs))


def _level(n: int, constraints, cap: int | None) -> _Level:
    """`_class_level` of the constraints, each spec stripped and kept at its
    first occurrence, so a repeated spec names the same level; refused, on
    every call, when a cap is given and the product of the candidate
    counts exceeds it (`_capped`)."""
    specs = tuple(dict.fromkeys(map(str.strip, _constraint_tuple(constraints))))
    level = _class_level(n, specs, SCAN_BLOCK_BITS)
    return level if cap is None else _capped(level, cap)


def _capped(level: _Level, cap: int) -> _Level:
    """The level, refused when the product of its candidate counts
    exceeds cap."""
    keys = prod(map(len, level.cands))
    if keys > cap:
        raise CapExceededError(f"search: level n={level.n} has {keys} keys, exceeds cap {cap}")
    return level


class _Target(_Value):
    """A search target resolved at width n: its formula, whether its
    modal depth is 2 or more (deep) and its number of variables.  Its
    program, built on first use behind the assignment guard, is the
    algebra program of a deep target and the `compile_pointwise`
    programs of any other.  A target is equal only to itself."""

    _fields = ("n", "formula", "deep", "n_vars")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, n: int, formula: Formula, deep: bool, n_vars: int) -> None:
        _setattr(self, "n", n)
        _setattr(self, "formula", formula)
        _setattr(self, "deep", deep)
        _setattr(self, "n_vars", n_vars)

    @cached_property
    def program(self):
        assignment_space(self.n, self.n_vars, "validates")
        return compile_algebra(self.formula) if self.deep else compile_pointwise(self.formula, self.n)


@lru_cache(maxsize=64)
def _resolved_target(spec: str, n: int) -> _Target:
    f = compile_target(spec, n)
    return _Target(n, f, modal_depth(f) > 1, len(free_vars(f)))


def _target(text: str | None, n: int) -> _Target | None:
    """The `_Target` of a target string at width n, or None: resolved once
    per stripped text and n, so a warm level walks no formula tree."""
    return None if text is None else _resolved_target(text.strip(), n)


def _orbit_scan(level: _Level, canonical, target):
    """`_scan`'s count of a pointwise level, one without a whole-frame
    constraint and with a target of modal depth at most 1 or none, by
    Burnside's lemma: the orbits under relabeling number (1/n!) times the
    sum over permutations σ of the frames σ fixes.  A frame is fixed by σ
    exactly when, for each cycle c of σ with least point x, N(x) is a
    candidate fixed by σ^|c|, which sets N on the rest of c; so σ fixes
    the product over its cycles of the candidates in its `fixed` masks.
    The labeled count is the identity's term alone, and the validating
    count is the same sum over the candidates that pass the target."""
    terms = level.fixed if canonical else level.fixed[:1]

    def orbits(cut) -> int:
        total = sum(prod((mask & cut[x]).bit_count() for x, mask in cycles) for cycles in terms)
        count, rest = divmod(total, len(terms))
        if rest:
            raise AssertionError(f"search: orbit sum {total} is not a multiple of {len(terms)}")
        return count

    in_class = orbits([-1] * level.n)
    if target is None or not in_class:
        return in_class, 0, None
    # Only a level with an in-class frame builds the target's program and
    # meets its assignment guard, as with the scan.
    return in_class, orbits(_pass_masks(level.planes, [target.program])), None


def _scan_level(n, constraints, canonical, target_text, mode):
    """One carrier size: a count of a pointwise level by `_orbit_scan`,
    past any key cap, and any other search by `_scan` in serial order."""
    level = _level(n, constraints, None)
    target = _target(target_text, n)
    if mode == "count" and not level.whole and not (target and target.deep):
        return _orbit_scan(level, canonical, target)
    return _scan(_capped(level, SCAN_KEYS_CAP), canonical, target, mode)


def _class_blocks(n: int, constraints, canonical: bool):
    """The candidate lists of the constrained class and its `_in_class` blocks."""
    level = _level(n, constraints, EXHAUSTIVE_FRAMES_CAP)
    return level.cands, _in_class(level, canonical)


def enumerate_frames(n: int, constraints=(), canonical: bool = False):
    """Stream every frame in the constrained class, one representative
    per relabeling orbit when canonical is set."""
    _, blocks = _class_blocks(n, constraints, canonical)
    return (NeighborhoodFrame(n, key) for count, columns in blocks for key in (zip(*columns) if n else [()] * count))


# Characters per chunk of frames text, at most.
_FRAMES_CHUNK_CHARS = 1 << 14


def _frames_chunks(n: int, cands, blocks) -> list[str]:
    """The frames JSON text of (count, columns) blocks as `_in_class`
    yields them, whose famasks are drawn from the candidate lists cands,
    in chunks: each candidate's text is built once, through
    `bax._lane_text`, and a frame's text joins the texts of its points'
    famasks.  A block's frames are joined in chunks of as many frames as
    fit in _FRAMES_CHUNK_CHARS at their longest, and at least one; the ","
    between two chunks is an item of its own."""
    text_of = {famask: f"[{_lane_text(famask)[:-1]}]" for famask in set(chain.from_iterable(cands))}
    head = f'{{"n":{n},"N":['
    # A frame's text and the comma after it take at most width characters.
    width = len(head) + 3 + n * (1 + max(map(len, text_of.values()), default=0))
    step = max(1, _FRAMES_CHUNK_CHARS // width)
    chunks = ['{"frames":[']
    for count, columns in blocks:
        rows = zip(*[map(text_of.__getitem__, column) for column in columns]) if n else repeat((), count)
        texts = [head + ",".join(row) + "]}" for row in rows]
        for start in range(0, count, step):
            chunks += (",".join(texts[start:start + step]), ",")
    if len(chunks) > 1:
        chunks.pop()
    chunks.append("]}")
    return chunks


def frames_chunks(n: int, constraints=(), canonical: bool = False) -> list[str]:
    """`{"frames": [frame_to_json(f) for f in enumerate_frames(...)]}` as
    compact JSON text in chunks, written from the scan's famask columns,
    so no frame or key is built."""
    return _frames_chunks(n, *_class_blocks(n, constraints, canonical))


def count_frames(n: int, constraints=(), canonical: bool = False) -> int:
    return _scan_level(n, constraints, canonical, None, "count")[0]


def _verify_hit(frame: NeighborhoodFrame, target: Formula, mode: str, env: dict[str, int] | None) -> None:
    """Recheck a witness through the definitional evaluator before it is
    returned; a failure here means the fast path lied.  Its box table comes
    from box_n, sharing no code with the scan's transpose.  The witness
    must also be its own canonical form, which rechecks the key-level
    canonicity test against the definitional relabeling."""
    if canonical_form(frame).key() != frame.key():
        raise AssertionError("search: witness is not its canonical form")
    alg = NeighborhoodAlgebra(frame.n, tuple(box_n(frame, a) for a in range(1 << frame.n)))
    if mode == "find_refuting":
        if eval_formula(alg, target, env) == full_mask(frame.n):
            raise AssertionError("search: refuting assignment failed re-verification")
        return
    names = free_vars(target)
    total = assignment_space(frame.n, len(names), "search verify")
    for idx in range(total):
        if eval_formula(alg, target, assignment_at(names, frame.n, idx)) != full_mask(frame.n):
            raise AssertionError("search: validating frame failed re-verification")


def find_countermodel(spec: SearchSpec) -> dict:
    """Smallest-n-first search over canonical representatives.

    Returns {"found", "frame", "assignment", "checked"} for the find
    modes and {"count", "checked"} for mode "count"."""
    # No level past ENUM_BACKTRACK_CAP has candidates: refuse before any scan.
    check_width(spec.max_n, ENUM_BACKTRACK_CAP, "find_countermodel")
    checked = 0
    count = 0
    for n in range(spec.max_n + 1):
        in_class, validating, hit = _scan_level(n, spec.constraints, True, spec.target, spec.mode)
        checked += in_class
        if spec.mode == "count":
            count += validating if spec.target is not None else in_class
        elif hit is not None:
            key, env = hit
            frame = NeighborhoodFrame(n, key)
            _verify_hit(frame, _target(spec.target, n).formula, spec.mode, env)
            return {"found": True, "frame": frame_to_json(frame), "assignment": env, "checked": checked}
    if spec.mode == "count":
        return {"count": count, "checked": checked}
    return {"found": False, "frame": None, "assignment": None, "checked": checked}
