"""Frame enumeration and countermodel search over small carriers.

A frame on n points is a product of n independent family choices, so
the stream factors: pointwise constraints (one-step axiom sets, and the
per-family tests and centered condition that `classes.frame_tag_parts`
gives for each class tag) shrink each point's candidate list before any
frame is assembled.  One key loop walks the product: canonicity is
tested on the famask key itself, through per-permutation relabel
tables, and a key that passes is transposed into its box table only for
the iv condition.  Counting, the find modes and enumeration all read
that loop, and only emitted frames and hits are assembled.  The loop
follows the product order with the first point outermost and famasks
ascending, which is exactly the ascending lexicographic order on frame
keys.

A target formula is checked on blocks of in-class keys, taken in scan
order (1, 2, 4, ... keys, up to 2^TARGET_BLOCK_BITS lanes): one
`bitslice.block_refute` sweep evaluates it with one lane per frame and
assignment, lane i * 2^b + f for assignment i of frame f, the box node
reading per subset a and point y the frames whose N(y) holds a, a
transpose of the block's keys.  The least frame with a refuted lane is
the block's first refuting frame, and its least refuted lane is the
least assignment, so blocks change neither the hit nor "checked".

Workers partition the first point's candidate list into contiguous
chunks and results merge in chunk order, so output is identical for
every worker count.  Countermodel search scans canonical
representatives only (every class here is closed under point
relabeling), visiting n = 0, 1, ... in turn; ties break toward the
lexicographically least canonical frame and then the least assignment
index.  "checked" counts the in-class frames examined up to and
including the hit, in serial order.

Mode "count" tallies the in-class frames that validate the target, or
every in-class frame when no target is given; "checked" is always the
full in-class total there.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, islice, permutations, product

from .bax import enumerate_bax
from .bitslice import _index_planes, block_refute, transpose
from .classes import FRAME_TAGS, frame_tag_parts, iv_holds, parse_class_tag
from .core import (
    CANONICAL_CAP,
    EXHAUSTIVE_FRAMES_CAP,
    SEARCH_MAX_N_CAP,
    InvalidInputError,
    NeighborhoodAlgebra,
    NeighborhoodFrame,
    _pool_map,
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
    eval_formula,
    realize_axiom,
)
from .formulas import Formula, axiom_set_from_specs, expand_named, free_vars, parse

MODES = ("find_refuting", "find_validating", "count")
# A target block holds at most 2^16 lanes (frames times assignments) and
# at least one frame.
TARGET_BLOCK_BITS = 16


@dataclass(frozen=True)
class SearchSpec:
    target: str | None = None
    constraints: tuple[str, ...] = ()
    mode: str = "find_refuting"
    max_n: int = 3

    def __post_init__(self) -> None:
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
        for a in _set_lanes(famask, 0):
            key[perm[x]] |= 1 << apply_perm_mask(a, perm)
    return NeighborhoodFrame(frame.n, key)


def canonical_form(frame: NeighborhoodFrame) -> NeighborhoodFrame:
    """Least relabeling of the frame, by the per-point famask key."""
    check_width(frame.n, CANONICAL_CAP, "canonical_form")
    return min((relabel_frame(frame, perm) for perm in permutations(range(frame.n))), key=NeighborhoodFrame.key)


def _compile_constraints(n: int, constraints: tuple[str, ...]):
    """Per-point famask candidate lists plus the whole-frame iv flag: each
    frame tag contributes its `frame_tag_parts`, every other constraint is
    an axiom spec."""
    axiom_specs: list[str] = []
    tests = []
    centered = iv = False
    for text in map(str.strip, constraints):
        if text in FRAME_TAGS or text.startswith("kappa:"):
            tag_tests, tag_centered, tag_iv = frame_tag_parts(parse_class_tag(text))
            tests += tag_tests
            centered |= tag_centered
            iv |= tag_iv
        else:
            axiom_specs.append(text)
    if axiom_specs:
        base = enumerate_bax(n, axiom_set_from_specs(axiom_specs, n)).famasks()
    else:
        base = range(1 << (1 << n))
    shared = [fm for fm in base if all(test(fm, n) for test in tests)]
    if not centered:
        return [shared] * n, iv
    # Centered at x: every member holds x, i.e. the famask lies in plane x.
    return [[fm for fm in shared if fm & plane == fm] for plane in _index_planes(n)], iv


@lru_cache(maxsize=None)
def _perm_tables(n: int) -> tuple[tuple[tuple[int, ...], tuple[tuple[int, ...], ...]], ...]:
    """(inverse, byte tables) for every non-identity permutation p of the
    n points.  The famask of a family relabeled by p is the OR over i of
    tables[i][(famask >> 8i) & 255]; slot j of the relabeled key is the
    relabeled famask of slot inverse[j] of the original."""
    out = []
    for perm in permutations(range(n)):
        if perm == tuple(range(n)):
            continue
        inverse = [0] * n
        for x, p in enumerate(perm):
            inverse[p] = x
        tables = []
        for low in range(0, 1 << n, 8):
            table = [0]
            for a in range(low, min(low + 8, 1 << n)):
                bit = 1 << apply_perm_mask(a, perm)
                table += [t | bit for t in table]
            tables.append(tuple(table))
        out.append((tuple(inverse), tuple(tables)))
    return tuple(out)


def _is_canonical_key(n: int, key: tuple[int, ...]) -> bool:
    """Whether no relabeling gives a lower key, i.e. whether
    canonical_form(NeighborhoodFrame(n, key)).key() == key, decided on the key
    alone.  Each permutation stops at the first slot that differs."""
    for inverse, tables in _perm_tables(n):
        for j, x in enumerate(inverse):
            famask = key[x]
            image = 0
            for i, table in enumerate(tables):
                image |= table[famask >> 8 * i & 255]
            if image != key[j]:
                if image < key[j]:
                    return False
                break
    return True


def compile_target(text: str | None, n: int) -> Formula | None:
    """The target formula, or None, from a target string, resolving
    registry names at width n."""
    if text is None:
        return None
    text = text.strip()
    if text.startswith("@"):
        return realize_axiom(expand_named(text, n), n)
    return parse(text)


def _in_class(n: int, cands, iv: bool, canonical: bool):
    """Each in-class key of the product of the per-point candidate lists,
    in scan order."""
    for key in product(*cands):
        if canonical and not _is_canonical_key(n, key):
            continue
        if iv and not iv_holds(key, transpose(key, 1 << n)):
            continue
        yield key


def _blocks(keys, cap: int):
    """Consecutive lists of keys of 1, 2, 4, ... up to cap keys, so that
    a find mode whose hit comes early sweeps little past it."""
    keys = iter(keys)
    size = 1
    while block := list(islice(keys, size)):
        yield block
        size = min(2 * size, cap)


def _scan(n, cands, iv, canonical, target_text, mode):
    """Count the in-class frames and the ones that validate the target.
    Returns (in_class, validating, hit) where hit = (serial in-class
    position, frame key, refuting env).  Find modes stop at the first
    hit, so in_class then counts frames up to and including it."""
    target = compile_target(target_text, n)
    keys = _in_class(n, cands, iv, canonical)
    if target is None:
        return sum(1 for _ in keys), 0, None
    program = compile_algebra(target)
    names = list(program.names)
    in_class = 0
    validating = 0
    for block in _blocks(keys, 1 << max(0, TARGET_BLOCK_BITS - n * len(names))):
        assignment_space(n, len(names), "validates")
        refuted, idx = block_refute(block, n, program.opcodes, program.opargs, len(names))
        if mode == "find_refuting" and refuted:
            f = (refuted & -refuted).bit_length() - 1
            return in_class + f + 1, validating + f, (in_class + f + 1, block[f], assignment_at(names, n, idx))
        holding = ((1 << len(block)) - 1) ^ refuted
        if mode == "find_validating" and holding:
            f = (holding & -holding).bit_length() - 1
            return in_class + f + 1, validating + 1, (in_class + f + 1, block[f], None)
        in_class += len(block)
        validating += holding.bit_count()
    return in_class, validating, None


def _scan_task(args):
    first, n, rest, *scan_args = args
    return _scan(n, [first, *rest], *scan_args)


def _keys_task(args):
    first, n, rest, iv, canonical = args
    return list(_in_class(n, [first, *rest], iv, canonical))


def _pooled(n: int, cands, workers: int) -> bool:
    return workers > 1 and n > 0 and len(cands[0]) > 1


def _scan_level(n, constraints, canonical, target_text, mode, workers):
    """One carrier size, all first-point chunks merged in serial order."""
    cands, iv = _compile_constraints(n, constraints)
    args = (iv, canonical, target_text, mode)
    if not _pooled(n, cands, workers):
        return _scan(n, cands, *args)
    in_class = 0
    validating = 0
    for chunk_in_class, chunk_validating, hit in _pool_map(_scan_task, cands[0], workers, n, cands[1:], *args):
        if hit is not None:
            pos, key, env = hit
            return in_class + pos, validating + chunk_validating, (in_class + pos, key, env)
        in_class += chunk_in_class
        validating += chunk_validating
    return in_class, validating, None


def enumerate_frames(n: int, constraints=(), canonical: bool = False, workers: int = 1):
    """Stream every frame in the constrained class, one representative
    per relabeling orbit when canonical is set."""
    check_width(n, EXHAUSTIVE_FRAMES_CAP, "enumerate_frames")
    cands, iv = _compile_constraints(n, tuple(constraints))
    if _pooled(n, cands, workers):
        keys = chain.from_iterable(_pool_map(_keys_task, cands[0], workers, n, cands[1:], iv, canonical))
    else:
        keys = _in_class(n, cands, iv, canonical)
    return (NeighborhoodFrame(n, key) for key in keys)


def count_frames(n: int, constraints=(), canonical: bool = False, workers: int = 1) -> int:
    check_width(n, EXHAUSTIVE_FRAMES_CAP, "count_frames")
    in_class, _, _ = _scan_level(n, tuple(constraints), canonical, None, "count", workers)
    return in_class


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


def find_countermodel(spec: SearchSpec, workers: int = 1) -> dict:
    """Smallest-n-first search over canonical representatives.

    Returns {"found", "frame", "assignment", "checked"} for the find
    modes and {"count", "checked"} for mode "count"."""
    check_width(spec.max_n, SEARCH_MAX_N_CAP, "find_countermodel")
    checked = 0
    count = 0
    for n in range(spec.max_n + 1):
        in_class, validating, hit = _scan_level(n, spec.constraints, True, spec.target, spec.mode, workers)
        if spec.mode == "count":
            checked += in_class
            count += validating if spec.target is not None else in_class
            continue
        if hit is not None:
            pos, key, env = hit
            frame = NeighborhoodFrame(n, key)
            _verify_hit(frame, compile_target(spec.target, n), spec.mode, env)
            return {
                "found": True,
                "frame": frame_to_json(frame),
                "assignment": env,
                "checked": checked + pos,
            }
        checked += in_class
    if spec.mode == "count":
        return {"count": count, "checked": checked}
    return {"found": False, "frame": None, "assignment": None, "checked": checked}
