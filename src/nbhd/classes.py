"""Frame and algebra class predicates and the two correspondence pairs.

This module is the one definition of the frame classes:
`frame_tag_parts` decomposes every frame tag into per-family tests plus
the whole-frame centered and iv conditions.  Every family test reads a
famask and n, so frames and the search's candidates are tested on their
keys as they are stored.  `frame_class_check` is the
conjunction of those parts, and the search folds the same parts into
its per-point candidate lists.  Algebra tags test the box table.

The bridge pairs tie the sides together: a frame is centered exactly
when its complex algebra satisfies box a <= a, and satisfies the iv
condition exactly when the complex algebra satisfies box a <= box box a.
The sides are different computations, so the agreement stays a real
check: the frame side tests members against each N(x), the algebra side
compares box table entries.  Both read the box table through
`bitslice.transpose`, which the tests hold to `core.box_n`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bitslice import _index_planes, transpose
from .core import (
    PLAIN_OP_CAP,
    CapExceededError,
    InvalidInputError,
    NeighborhoodAlgebra,
    NeighborhoodFrame,
    _set_lanes,
    check_width,
    full_mask,
)
from .duality import complex_algebra
from .evaluate import validates
from .formulas import expand_named


def _family_width(n: int) -> int:
    """n, refused above PLAIN_OP_CAP: the planes and masks of a famask over
    n points take 2^n bits, so a wider n is stopped before they are built."""
    if n > PLAIN_OP_CAP:
        raise CapExceededError(f"family over n={n} points exceeds cap {PLAIN_OP_CAP}")
    return n


def _up_closure(famask: int, n: int) -> int:
    """Famask of the supersets of members: plane i holds the subsets with
    point i, and shifting by 2^i adds point i to the rest."""
    for i, plane in enumerate(_index_planes(_family_width(n))):
        famask |= (famask & ~plane) << (1 << i)
    return famask


def _down_closure(famask: int, n: int) -> int:
    for i, plane in enumerate(_index_planes(_family_width(n))):
        famask |= (famask & plane) >> (1 << i)
    return famask


def _complements(famask: int, n: int) -> int:
    """Famask of the complements of members: toggle every point."""
    for i, plane in enumerate(_index_planes(_family_width(n))):
        famask = (famask & plane) >> (1 << i) | (famask & ~plane) << (1 << i)
    return famask


def family_is_up_closed(famask: int, n: int) -> bool:
    return _up_closure(famask, n) == famask


def family_is_convex(famask: int, n: int) -> bool:
    """Every subset between two members is a member."""
    return _up_closure(famask, n) & _down_closure(famask, n) == famask


def family_is_pair_intersection_closed(famask: int) -> bool:
    members = _set_lanes(famask, 0)
    return all(famask >> (a & b) & 1 for a in members for b in members)


def family_is_filter(famask: int, n: int) -> bool:
    """Up-closed, closed under pair meets, and containing the full set."""
    return famask >> full_mask(n) & 1 == 1 and family_is_up_closed(famask, n) and family_is_pair_intersection_closed(famask)


def family_is_contingency(famask: int, n: int) -> bool:
    return _complements(famask, n) == famask


def family_is_kappa_complete(famask: int, n: int, kappa: int) -> bool:
    """Up-closed and closed under meets of fewer than kappa members, the
    empty meet (the full set) included.  On a finite carrier the pair meet
    generates every larger finite meet, so sizes 0 and 2 decide it."""
    if kappa < 1:
        raise InvalidInputError("kappa completeness needs kappa >= 1")
    return family_is_up_closed(famask, n) and famask >> full_mask(n) & 1 == 1 and (kappa < 3 or family_is_pair_intersection_closed(famask))


FRAME_TAGS = ("monotone", "convex", "coconvex", "contingency", "filter", "kappa", "centered", "iv", "pretopological", "topological")
ALGEBRA_TAGS = ("bam", "normal", "t", "four", "preinterior", "interior", "contingency", "convex")


@dataclass(frozen=True)
class ClassTag:
    name: str
    kappa: int | None = None


def parse_class_tag(text: str) -> ClassTag:
    text = text.strip()
    if text.startswith("kappa:"):
        try:
            k = int(text.split(":", 1)[1])
        except ValueError:
            raise InvalidInputError(f"bad kappa tag {text!r}")
        return ClassTag("kappa", k)
    return ClassTag(text)


_FRAME_TAG_PARTS = {
    "monotone": ((family_is_up_closed,), False, False),
    "convex": ((family_is_convex,), False, False),
    "coconvex": ((lambda famask, n: family_is_convex(famask ^ full_mask(1 << _family_width(n)), n),), False, False),
    "contingency": ((family_is_contingency,), False, False),
    "filter": ((family_is_filter,), False, False),
    "centered": ((), True, False),
    "iv": ((), False, True),
    "pretopological": ((family_is_filter,), True, False),
    "topological": ((family_is_filter,), True, True),
}


def frame_tag_parts(tag: ClassTag):
    """The one decomposition of a frame tag: (per-family tests, centered,
    iv).  A frame has the tag when every famask passes every test
    (famask, n) -> bool, every member of N(x) holds x if centered is set,
    and the iv condition holds if iv is set."""
    if tag.name == "kappa":
        if tag.kappa is None:
            raise InvalidInputError("kappa tag needs a parameter, e.g. kappa:3")
        return (lambda famask, n: family_is_kappa_complete(famask, n, tag.kappa),), False, False
    parts = _FRAME_TAG_PARTS.get(tag.name)
    if parts is None:
        raise InvalidInputError(f"unknown frame class {tag.name!r}")
    return parts


def iv_holds(key: tuple[int, ...], box: tuple[int, ...]) -> bool:
    """The iv condition on a frame given as its famask key and its box
    table: whenever a is in N(x), so is box a."""
    return all(famask >> box[a] & 1 for famask in key for a in _set_lanes(famask, 0))


def frame_class_check(frame: NeighborhoodFrame, tag: ClassTag) -> bool:
    """The conjunction of the tag's parts, as frame_tag_parts names them."""
    check_width(frame.n, PLAIN_OP_CAP, "frame_class_check")
    tests, centered, iv = frame_tag_parts(tag)
    key = frame.key()
    if not all(test(famask, frame.n) for test in tests for famask in key):
        return False
    # Centered at x: every member holds x, i.e. the famask lies in plane x.
    if centered and any(famask & plane != famask for famask, plane in zip(key, _index_planes(frame.n))):
        return False
    return not iv or iv_holds(key, transpose(key, 1 << frame.n))


def algebra_class_check(alg: NeighborhoodAlgebra, tag: ClassTag) -> bool:
    name = tag.name
    full = full_mask(alg.n)
    if name == "bam":
        # Single-bit steps generate the full inclusion order.
        for a in range(1 << alg.n):
            for i in range(alg.n):
                if a >> i & 1:
                    continue
                if alg.box[a] & ~alg.box[a | 1 << i]:
                    return False
        return True
    if name == "normal":
        return validates(alg, expand_named("@N").formula) and validates(alg, expand_named("@C").formula)
    if name == "t":
        return all(alg.box[a] & ~a == 0 for a in range(1 << alg.n))
    if name == "four":
        return all(alg.box[a] & ~alg.box[alg.box[a]] == 0 for a in range(1 << alg.n))
    if name == "preinterior":
        return algebra_class_check(alg, ClassTag("normal")) and algebra_class_check(alg, ClassTag("t"))
    if name == "interior":
        return algebra_class_check(alg, ClassTag("preinterior")) and algebra_class_check(alg, ClassTag("four"))
    if name == "contingency":
        return all(alg.box[a] == alg.box[full ^ a] for a in range(1 << alg.n))
    if name == "convex":
        return validates(alg, expand_named("@Conv").formula)
    raise InvalidInputError(f"unknown algebra class {name!r}")


CORRESPONDENCE_PAIRS = ("CentT", "IV4")


def correspondence_check(frame: NeighborhoodFrame, pair: str) -> dict:
    """Two-sided report for one of the frame/algebra bridge pairs."""
    alg = complex_algebra(frame)
    if pair == "CentT":
        frame_side = frame_class_check(frame, ClassTag("centered"))
        algebra_side = algebra_class_check(alg, ClassTag("t"))
    elif pair == "IV4":
        frame_side = frame_class_check(frame, ClassTag("iv"))
        algebra_side = algebra_class_check(alg, ClassTag("four"))
    else:
        raise InvalidInputError(f"unknown correspondence pair {pair!r}")
    return {"pair": pair, "frame_side": frame_side, "algebra_side": algebra_side, "agree": frame_side == algebra_side}
