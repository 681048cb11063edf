"""Frame and algebra classes, each one set of registry axioms.

`CLASS_TABLE` is the one definition of every class tag: it names the
registry axioms of each class, with its frame tag and, where the class
has one, its algebra tag.  The search reads a frame tag's axioms through
`frame_tag_axioms` and enumerates the one-step ones with
`bax.enumerate_bax`.  The class checks here decide the same axioms
another way, up to PLAIN_OP_CAP points: each one-step registry axiom has
exactly one family test (famask, n) -> bool in `AXIOM_TESTS`, run on a
frame's key as it is stored.  T and Four are not one-step: on a frame
they are the centered condition (every member of N(x) holds x) and the
iv condition (whenever a is in N(x), so is box a), both read off the
key.  By Thomason duality an algebra lies in a class exactly when its
atom frame does, so an algebra tag runs the one-step tests on the atom
frame's key, the box table transposed, and reads T and Four off the box
table as box a <= a and box a <= box box a.

The correspondence pairs tie the sides together: a frame is centered
exactly when its complex algebra satisfies box a <= a, and satisfies
the iv condition exactly when the complex algebra satisfies
box a <= box box a.  The frame side tests the key, the algebra side
compares box table entries, so the agreement stays a real check.
"""

from __future__ import annotations

from .bitslice import _index_planes, transpose
from .core import (
    PLAIN_OP_CAP,
    CapExceededError,
    InvalidInputError,
    NeighborhoodAlgebra,
    NeighborhoodFrame,
    _set_lanes,
    _setattr,
    _Value,
    check_width,
    full_mask,
)


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


def family_is_contingency(famask: int, n: int) -> bool:
    return _complements(famask, n) == famask


def _is_coconvex(famask: int, n: int) -> bool:
    return family_is_convex(famask ^ full_mask(1 << _family_width(n)), n)


def _holds_full_set(famask: int, n: int) -> bool:
    return famask >> full_mask(n) & 1 == 1


def _is_cone_or_empty(famask: int, n: int) -> bool:
    """Closed under pair meets and supersets: on a finite carrier, empty or
    the up-cone of the members' intersection.  Plane x is the famask of
    the subsets holding point x, so that up-cone is the meet of the planes
    that contain the family."""
    cone = full_mask(1 << _family_width(n))
    for plane in _index_planes(n):
        if famask & plane == famask:
            cone &= plane
    return famask in (0, cone)


# The one family test of each one-step registry axiom.
AXIOM_TESTS = {
    "M": family_is_up_closed,
    "C": _is_cone_or_empty,
    "N": _holds_full_set,
    "Cont": family_is_contingency,
    "Conv": family_is_convex,
    "CoConv": _is_coconvex,
}

# (frame tag, algebra tag or None, registry axioms) for every class but
# kappa:k, which frame_tag_axioms resolves from k.
CLASS_TABLE = (
    ("monotone", "bam", ("M",)),
    ("convex", "convex", ("Conv",)),
    ("coconvex", None, ("CoConv",)),
    ("contingency", "contingency", ("Cont",)),
    ("filter", "normal", ("N", "C")),
    ("centered", "t", ("T",)),
    ("iv", "four", ("Four",)),
    ("pretopological", "preinterior", ("N", "C", "T")),
    ("topological", "interior", ("N", "C", "T", "Four")),
)
_FRAME_CLASSES = {frame: axioms for frame, _, axioms in CLASS_TABLE}
_ALGEBRA_CLASSES = {algebra: axioms for _, algebra, axioms in CLASS_TABLE if algebra}
FRAME_TAGS = (*_FRAME_CLASSES, "kappa")
ALGEBRA_TAGS = tuple(_ALGEBRA_CLASSES)


class ClassTag(_Value):
    __slots__ = _fields = ("name", "kappa")

    def __init__(self, name: str, kappa: int | None = None) -> None:
        _setattr(self, "name", name)
        _setattr(self, "kappa", kappa)


def parse_class_tag(text: str) -> ClassTag:
    text = text.strip()
    if text.startswith("kappa:"):
        try:
            k = int(text.split(":", 1)[1])
        except ValueError:
            raise InvalidInputError(f"bad kappa tag {text!r}")
        return ClassTag("kappa", k)
    return ClassTag(text)


def frame_tag_axioms(tag: ClassTag) -> tuple[str, ...]:
    """The registry axioms of a frame tag.  kappa:k is closure under
    supersets and under meets of fewer than k members, the empty meet
    (the full set) included; on a finite carrier pair meets generate
    every larger finite meet, so k <= 2 is @N,@M and k >= 3 is @N,@C."""
    if tag.name == "kappa":
        if tag.kappa is None:
            raise InvalidInputError("kappa tag needs a parameter, e.g. kappa:3")
        if tag.kappa < 1:
            raise InvalidInputError("kappa completeness needs kappa >= 1")
        return ("N", "M") if tag.kappa < 3 else ("N", "C")
    axioms = _FRAME_CLASSES.get(tag.name)
    if axioms is None:
        raise InvalidInputError(f"unknown frame class {tag.name!r}")
    return axioms


def _parts(axioms: tuple[str, ...]):
    """(family tests, T, Four) of a tuple of registry axioms."""
    return tuple(AXIOM_TESTS[name] for name in axioms if name in AXIOM_TESTS), "T" in axioms, "Four" in axioms


def iv_holds(key: tuple[int, ...], box: tuple[int, ...]) -> bool:
    """The iv condition on a frame given as its famask key and its box
    table: whenever a is in N(x), so is box a."""
    return all(famask >> box[a] & 1 for famask in key for a in _set_lanes(famask))


def frame_class_check(frame: NeighborhoodFrame, tag: ClassTag) -> bool:
    """The conjunction of the tag's axioms: each famask passes the family
    test of every one-step axiom, every member of N(x) holds x under T,
    and the iv condition holds under Four."""
    check_width(frame.n, PLAIN_OP_CAP, "frame_class_check")
    tests, centered, iv = _parts(frame_tag_axioms(tag))
    key = frame.key()
    if not all(test(famask, frame.n) for test in tests for famask in key):
        return False
    # Centered at x: every member holds x, i.e. the famask lies in plane x.
    if centered and any(famask & plane != famask for famask, plane in zip(key, _index_planes(frame.n))):
        return False
    return not iv or iv_holds(key, transpose(key, 1 << frame.n))


def algebra_class_check(alg: NeighborhoodAlgebra, tag: ClassTag) -> bool:
    """The tag's one-step axioms on the atom frame's key, T and Four on
    the box table."""
    axioms = _ALGEBRA_CLASSES.get(tag.name)
    if axioms is None:
        raise InvalidInputError(f"unknown algebra class {tag.name!r}")
    check_width(alg.n, PLAIN_OP_CAP, "algebra_class_check")
    tests, t, four = _parts(axioms)
    box = alg.box
    if t and any(box[a] & ~a for a in range(1 << alg.n)):
        return False
    if four and any(box[a] & ~box[box[a]] for a in range(1 << alg.n)):
        return False
    key = transpose(box, alg.n) if tests else ()
    return all(test(famask, alg.n) for test in tests for famask in key)


# Each pair's frame tag and algebra tag.
CORRESPONDENCE_PAIRS = {"CentT": ("centered", "t"), "IV4": ("iv", "four")}


def correspondence_check(frame: NeighborhoodFrame, pair: str) -> dict:
    """Two-sided report for one of the frame/algebra bridge pairs."""
    if pair not in CORRESPONDENCE_PAIRS:
        raise InvalidInputError(f"unknown correspondence pair {pair!r}")
    frame_tag, algebra_tag = CORRESPONDENCE_PAIRS[pair]
    frame_side = frame_class_check(frame, ClassTag(frame_tag))
    # The complex algebra, built here rather than by duality.complex_algebra:
    # duality imports bax, which imports this module.
    alg = NeighborhoodAlgebra(frame.n, transpose(frame.key(), 1 << frame.n))
    algebra_side = algebra_class_check(alg, ClassTag(algebra_tag))
    return {"pair": pair, "frame_side": frame_side, "algebra_side": algebra_side, "agree": frame_side == algebra_side}
