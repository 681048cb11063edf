"""Frame enumeration and countermodel search over small carriers.

A frame on n points is a product of n independent family choices, so
pointwise constraints shrink each point's candidate list before any
frame is assembled.  A class tag stands for its registry axioms
(`classes.frame_tag_axioms`); its one-step axioms join the axiom specs,
and one `bax.enumerate_bax` call of them gives the candidates every
point shares.  A formula of modal depth 1 with a naked variable, such as
T (the centered condition of `centered` and the topological tags), is
still a test on x and N(x) alone: `evaluate.compile_pointwise` gives one
membership program per point, and each point keeps the candidates that
pass its program (`_pass_masks`, one transpose of the shared list).
Four, the iv condition, reads other points' neighborhoods and is
decided per frame.

The product is scanned serially in blocks, first point outermost and
famasks ascending, which is the ascending lexicographic order on keys.
A block fixes the first points and gives one lane to each key of the
others' candidates; plane (x, a) holds the lanes whose N(x) contains a,
and canonicity and the iv condition are decided lane-wise on the planes.
`enumerate_frames` and `frames_text` decode the passing lanes into one
famask column per point; only `enumerate_frames` zips the columns into
keys, while `frames_text`, the compact JSON text of its frames, joins
one text per candidate family along the columns.

A level, the frames on n points in a class, does not depend on the
formula tested against it, so every target and mode shares one compiled
`_Level`: its candidate tuples, its iv flag and, built on its first
scan, its block plan, the block shape (p, size, runs) and the free
points' planes; it holds nothing that depends on a target.  `_class_level`
is one `lru_cache` of at most 16 levels, keyed by n, the constraint specs
(each stripped, a repeat dropped) and SCAN_BLOCK_BITS, which the plan
reads.  `_level` refuses a level of more keys than its route's cap on
every call, before any plane is built.  The cache serves a process that
scans one class more than once, with several targets or commands; one
CLI search visits each of its levels once.

A target of modal depth at most 1 is valid on a frame exactly when every
N(x) passes x's program, so it is decided by the same pass masks: a
block's validating lanes are its in-class lanes within the passing runs
of its free points, when every fixed point passes.  A count sums both
popcounts, and a find mode takes the least lane of the validating or of
the other in-class lanes; only that frame's key is built, and a
refuting frame's least assignment comes from `find_refuting_assignment`
on its box table.  A target of depth 2 or more is checked on slices of
a block's columns in scan order, each of at most 2^TARGET_BLOCK_BITS
lanes, by one `bitslice.block_refute` sweep, lane i * 2^b + f for
assignment i of frame f.  The least frame with a refuted lane is the
slice's first refuting frame and its least refuted lane the least
assignment, so slicing changes neither the hit nor "checked".

The search visits n = 0, 1, ... and scans canonical representatives
only (every class here is closed under point relabeling), so ties break
toward the least canonical frame and then the least assignment index.
"checked" counts the in-class frames examined up to and including the
hit; in mode "count", which tallies the frames that validate the target
(all of them when there is none), it is the full in-class total.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import chain, islice, permutations, product, repeat
from math import prod

from .bax import _lane_text, enumerate_bax
from .bitslice import _accepted, _lane_parts, block_refute, transpose
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
    eval_formula,
    find_refuting_assignment,
    realize_axiom,
)
from .formulas import Formula, axiom_set_from_specs, expand_named, free_vars, is_one_step, modal_depth, parse

MODES = ("find_refuting", "find_validating", "count")
# A target block holds at most 2^16 lanes (frames times assignments) and
# at least one frame; a scan block at most 2^16 keys, one lane each.
TARGET_BLOCK_BITS = 16
SCAN_BLOCK_BITS = 16


@dataclass(frozen=True)
class SearchSpec:
    target: str | None = None
    constraints: tuple[str, ...] = ()
    mode: str = "find_refuting"
    max_n: int = 3

    def __post_init__(self) -> None:
        _constraint_tuple(self.constraints)
        if self.mode not in MODES:
            raise InvalidInputError(f"search mode must be one of {MODES}, got {self.mode!r}")
        if self.mode != "count" and self.target is None:
            raise InvalidInputError(f"search mode {self.mode} needs a target")


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


def _pass_masks(n: int, cands, formulas) -> list[int]:
    """Per point x, the mask over cands[x] of the famasks that pass at x
    under every formula of modal depth at most 1: their `compile_pointwise`
    programs at x run on the planes of cands[x], with the empty and the
    full plane after them.  Points that share one list share its planes,
    transposed once."""
    programs = [compile_pointwise(f, n) for f in formulas]
    planes = {}
    masks = []
    for x, cand in enumerate(cands):
        full = (1 << len(cand)) - 1
        if id(cand) not in planes:
            planes[id(cand)] = (*transpose(cand, 1 << n), 0, full)
        masks.append(_accepted(planes[id(cand)], full, [program[x] for program in programs]))
    return masks


def _compile_constraints(n: int, specs: tuple[str, ...]):
    """Per-point famask candidate tuples plus the whole-frame iv flag, of
    stripped specs.  The axiom specs keep their order; each frame tag's
    registry axioms follow them, skipping any already listed, and Four
    sets the iv flag.  The one-step specs give the candidates every point
    shares, one `enumerate_bax` call of them.  Each other spec of modal
    depth 1, such as T, has a naked variable: it cuts every point's list
    to the famasks that pass at that point.  A box-free spec with a
    variable (a misspelt tag parses as one) and a spec of depth 2 or more
    are refused."""
    axioms: list[str] = []
    tag_axioms: list[str] = []
    for text in specs:
        if text in FRAME_TAGS or text.startswith("kappa:"):
            tag_axioms += frame_tag_axioms(parse_class_tag(text))
        else:
            axioms.append(text)
    for name in tag_axioms:
        if name != "Four" and f"@{name}" not in axioms:
            axioms.append(f"@{name}")
    one_step: list[str] = []
    pointwise: list[Formula] = []
    for spec in axioms:
        if spec.startswith("@"):
            ax = expand_named(spec, n)
            f, one = ax.formula, ax.one_step
        else:
            f = parse(spec) if spec else None
            one = f is None or is_one_step(f)
        if one:
            one_step.append(spec)
        elif modal_depth(f) == 1:
            pointwise.append(f)
        else:
            raise InvalidInputError(
                f"constraint {spec!r} has modal depth {modal_depth(f)}: a constraint is a class tag, a one-step formula"
                " or a formula of modal depth 1"
            )
    shared = enumerate_bax(n, axiom_set_from_specs(one_step, n)).famasks()
    if not pointwise:
        return (shared,) * n, "Four" in tag_axioms
    masks = _pass_masks(n, [shared] * n, pointwise)
    return tuple(tuple(_lane_picker(mask)(shared)) for mask in masks), "Four" in tag_axioms


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


def _iv_lanes(planes, n: int, lanes: int) -> int:
    """The lanes whose frame meets the iv condition: whenever a is in
    N(x), so is box a.  Per subset a, `_lane_parts` splits the lanes by
    the value of box a, read from the planes (y, a); a part with box a = c
    fails at x where N(x) holds a but not c."""
    for a in range(1 << n):
        parts = _lane_parts([planes[y][a] for y in range(n)], lanes)
        for x in range(n):
            holds = planes[x][a]
            if holds:
                for c, part in parts:
                    lanes &= ~(part & holds & ~planes[x][c])
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


@dataclass(frozen=True, eq=False)
class _Level:
    """The frames on n points in a class: the candidate tuple of each
    point, the iv flag and, built on the level's first scan, the plan
    every block shares."""

    n: int
    cands: tuple[tuple[int, ...], ...]
    iv: bool

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


def _lane_blocks(level: _Level, canonical: bool):
    """(prefix, in-class lanes) per block, in scan order.  Plane (x, a) of
    a block holds the lanes whose N(x) contains a: a constant for a fixed
    point, and for a free point its plane in the level's plan."""
    n, cands = level.n, level.cands
    p, size, _, free = level.plan
    full = (1 << size) - 1
    for prefix in product(*cands[:p]):
        planes = [[full if famask >> a & 1 else 0 for a in range(1 << n)] for famask in prefix] + list(free)
        lanes = _iv_lanes(planes, n, full) if level.iv else full
        if canonical and lanes:
            lanes = _canonical_lanes(planes, n, lanes)
        yield prefix, lanes


def compile_target(text: str | None, n: int) -> Formula | None:
    """The target formula, or None, from a target string, resolving
    registry names at width n."""
    if text is None:
        return None
    text = text.strip()
    if text.startswith("@"):
        return realize_axiom(expand_named(text, n), n)
    return parse(text)


def _in_class(level: _Level, canonical: bool):
    """(count, columns) per block with an in-class key, in scan order: the
    block's in-class lanes decoded into one column per point, entry i the
    famask of that point in the block's i-th in-class key."""
    cands = level.cands
    runs = level.plan[2]
    columns = [list(chain.from_iterable(repeat(famask, stride) for famask in cands[x])) * times for x, stride, times in runs]
    for prefix, lanes in _lane_blocks(level, canonical):
        if lanes:
            count = lanes.bit_count()
            pick = _lane_picker(lanes)
            yield count, [[famask] * count for famask in prefix] + [pick(column) for column in columns]


def _scan(level: _Level, canonical, target_text, mode):
    """Count the in-class frames and the ones that validate the target.
    Returns (in_class, validating, hit) where hit = (frame key, refuting
    env).  Find modes stop at the first hit, so in_class then counts
    frames up to and including it.

    A target of modal depth at most 1 holds on a block's lane when every
    point's famask passes that point's program: the fixed points' famasks
    are looked up in their passing sets, and the free points' passing
    candidates fill runs of lanes, as their famasks fill the planes."""
    n, cands = level.n, level.cands
    target = compile_target(target_text, n)
    if target is None:
        return sum(lanes.bit_count() for _, lanes in _lane_blocks(level, canonical)), 0, None
    if modal_depth(target) > 1:
        return _sweep_scan(level, canonical, target, mode)
    p, _, runs, _ = level.plan
    in_class = validating = 0
    passing = None
    for prefix, lanes in _lane_blocks(level, canonical):
        if not lanes:
            continue
        if passing is None:
            # Built at the level's first in-class frame: a level without
            # one meets no assignment guard, as with a sweep.
            assignment_space(n, len(free_vars(target)), "validates")
            masks = _pass_masks(n, cands, [target])
            passing = [set(_lane_picker(mask)(cand)) for mask, cand in zip(masks, cands[:p])]
            free = -1
            for x, stride, times in runs:
                free &= int("".join(bit * stride for bit in bin(masks[x])[2:].zfill(len(cands[x]))) * times, 2)
        holding = lanes & free if all(map(set.__contains__, passing, prefix)) else 0
        hits = 0 if mode == "count" else holding if mode == "find_validating" else lanes ^ holding
        if hits:
            lane = (hits & -hits).bit_length() - 1
            key = prefix + tuple(cands[x][lane // stride % len(cands[x])] for x, stride, _ in runs)
            env = None if mode == "find_validating" else find_refuting_assignment(NeighborhoodAlgebra(n, transpose(key, 1 << n)), target)
            upto = (2 << lane) - 1
            return in_class + (lanes & upto).bit_count(), validating + (holding & upto).bit_count(), (key, env)
        in_class += lanes.bit_count()
        validating += holding.bit_count()
    return in_class, validating, None


def _sweep_scan(level: _Level, canonical, target, mode):
    """`_scan` for a target of modal depth 2 or more: slices of each
    block's in-class columns go through one `block_refute` sweep each."""
    n = level.n
    program = compile_algebra(target)
    names = list(program.names)
    cap = 1 << max(0, TARGET_BLOCK_BITS - n * len(names))
    in_class = 0
    validating = 0
    for count, columns in _in_class(level, canonical):
        for start in range(0, count, cap):
            assignment_space(n, len(names), "validates")
            block = [column[start:start + cap] for column in columns]
            frames = min(cap, count - start)
            refuted, idx = block_refute(block, frames, n, program.opcodes, program.opargs, len(names))
            if mode == "find_refuting" and refuted:
                f = (refuted & -refuted).bit_length() - 1
                return in_class + f + 1, validating + f, (tuple(column[f] for column in block), assignment_at(names, n, idx))
            holding = ((1 << frames) - 1) ^ refuted
            if mode == "find_validating" and holding:
                f = (holding & -holding).bit_length() - 1
                return in_class + f + 1, validating + 1, (tuple(column[f] for column in block), None)
            in_class += frames
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


def _level(n: int, constraints, cap: int) -> _Level:
    """`_class_level` of the constraints, each spec stripped and kept at its
    first occurrence, so a repeated spec names the same level; refused, on
    every call, when the product of the candidate counts exceeds cap keys."""
    specs = tuple(dict.fromkeys(map(str.strip, _constraint_tuple(constraints))))
    level = _class_level(n, specs, SCAN_BLOCK_BITS)
    keys = prod(map(len, level.cands))
    if keys > cap:
        raise CapExceededError(f"search: level n={n} has {keys} keys, exceeds cap {cap}")
    return level


def _scan_level(n, constraints, canonical, target_text, mode):
    """One carrier size, scanned in serial order."""
    return _scan(_level(n, constraints, SCAN_KEYS_CAP), canonical, target_text, mode)


def _class_blocks(n: int, constraints, canonical: bool):
    """The candidate lists of the constrained class and its `_in_class` blocks."""
    level = _level(n, constraints, EXHAUSTIVE_FRAMES_CAP)
    return level.cands, _in_class(level, canonical)


def enumerate_frames(n: int, constraints=(), canonical: bool = False):
    """Stream every frame in the constrained class, one representative
    per relabeling orbit when canonical is set."""
    _, blocks = _class_blocks(n, constraints, canonical)
    return (NeighborhoodFrame(n, key) for count, columns in blocks for key in (zip(*columns) if n else [()] * count))


def _frames_text(n: int, cands, blocks) -> str:
    """The frames JSON text of (count, columns) blocks as `_in_class`
    yields them, whose famasks are drawn from the candidate lists cands:
    each candidate's text is built once, through `bax._lane_text`, and a
    frame's text joins the texts of its points' famasks."""
    text_of = {famask: f"[{_lane_text(famask)[:-1]}]" for famask in set(chain.from_iterable(cands))}
    head = f'{{"n":{n},"N":['
    texts = []
    for count, columns in blocks:
        rows = zip(*[map(text_of.__getitem__, column) for column in columns]) if n else repeat((), count)
        texts.append(",".join([head + ",".join(row) + "]}" for row in rows]))
    return '{"frames":[' + ",".join(texts) + "]}"


def frames_text(n: int, constraints=(), canonical: bool = False) -> str:
    """`{"frames": [frame_to_json(f) for f in enumerate_frames(...)]}` as
    compact JSON text, written from the scan's famask columns, so no frame
    or key is built."""
    return _frames_text(n, *_class_blocks(n, constraints, canonical))


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
            _verify_hit(frame, compile_target(spec.target, n), spec.mode, env)
            return {"found": True, "frame": frame_to_json(frame), "assignment": env, "checked": checked}
    if spec.mode == "count":
        return {"count": count, "checked": checked}
    return {"found": False, "frame": None, "assignment": None, "checked": checked}
