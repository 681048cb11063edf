"""Finite neighborhood frames over bitmask-coded ground sets.

A ground set of size n is the points 0..n-1.  A subset is an int in
[0, 2^n) whose bit i records membership of point i.  A family of subsets
is a "famask": a nonnegative int whose bit a records membership of the
subset-mask a, i.e. one element of the double powerset.  `famask_of`
packs masks into one and `famask_members` decodes one, ascending.  A
frame, a coalgebra X -> 2^2^X, is its key: the famask of each N(x),
which its one constructor checks.  A point map f is a frame morphism
when N'(f(x)) = F(f)(N(x)) at every x, F(f)(W) being the push-forward
{a' : f^-1[a'] in W}.  A famask takes 2^n bits, so families hold subsets
of at most PLAIN_OP_CAP points, and the JSON decoders range-check
members against n before packing them.  Famasks are ints and frames,
algebras, relations and morphisms are frozen, so every value in the
package is immutable.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import compress
from typing import Iterable

PLAIN_OP_CAP = 16
ENUM_FILTER_CAP = 4
ENUM_BACKTRACK_CAP = 5
CANONICAL_CAP = 8
# Most keys (product of the candidate counts) of a search level that is
# scanned, and of one whose every frame is held (256^3, n = 3).
SCAN_KEYS_CAP = 1 << 30
EXHAUSTIVE_FRAMES_CAP = 1 << 24


class NbhdError(Exception):
    """Base class for package errors."""


class InvalidInputError(NbhdError, ValueError):
    """Malformed value: width mismatch, bad JSON shape, broken invariant."""


class CapExceededError(NbhdError):
    """A size cap or work guard was exceeded."""


def effective_cap(default: int) -> int:
    """Apply the NBHD_MAX_N environment override, which only lowers caps."""
    raw = os.environ.get("NBHD_MAX_N")
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise InvalidInputError(f"NBHD_MAX_N must be an integer, got {raw!r}")
    if value < 0:
        raise InvalidInputError("NBHD_MAX_N must be nonnegative")
    return min(default, value)


def _check_size(n, what: str) -> None:
    """Refuse a carrier size that is not a nonnegative int; a bool is not one."""
    if type(n) is not int or n < 0:
        raise InvalidInputError(f"{what} must be a nonnegative int, got {n!r}")


def check_width(n: int, cap: int, what: str) -> None:
    if type(n) is not int or n < 0:
        raise InvalidInputError(f"{what}: ground set size must be a nonnegative int")
    limit = effective_cap(cap)
    if n > limit:
        raise CapExceededError(f"{what}: n={n} exceeds cap {limit}")


def full_mask(n: int) -> int:
    return (1 << n) - 1


_INT_TYPE = frozenset((int,))


def check_subset(a: int, n: int, what: str = "subset") -> None:
    if not isinstance(a, int) or a < 0 or a > full_mask(n):
        raise InvalidInputError(f"{what}: {a!r} is not a subset mask for n={n}")


_BYTE_BITS = tuple(tuple(j for j in range(8) if byte >> j & 1) for byte in range(256))
# The rows of _BYTE_BITS shifted to byte positions 1-3: a famask at n <= 5
# has at most 32 bits, so it decodes one looked-up row per byte.
_ROW1, _ROW2, _ROW3 = (tuple(tuple(8 * k + j for j in row) for row in _BYTE_BITS) for k in (1, 2, 3))


# bin() digits as the bytes 0 and 1, for `itertools.compress`.
_BIT_FLAGS = bytes.maketrans(b"01", b"\0\1")
# A mask is dense when more than one lane in _DENSE_SHARE is set: on 2^16
# lanes `compress` beats the byte loop at densities 1/2 and 1/6 and loses
# at 1/24 and 1/256.
_DENSE_SHARE = 12


def _lane_flags(mask: int) -> bytes:
    """One byte per lane of mask, 1 where the lane is set, lowest first."""
    return bin(mask)[:1:-1].encode().translate(_BIT_FLAGS)


def _dense(mask: int) -> bool:
    """More than one lane in _DENSE_SHARE set: decode through `compress`."""
    return mask.bit_count() * _DENSE_SHARE > mask.bit_length()


def _set_lanes(mask: int) -> list[int]:
    """Ascending indices of the set bits of mask: four looked-up rows below
    2^32, else `compress` for a dense mask and a byte loop for a sparse one."""
    if not mask >> 32:
        return [*_BYTE_BITS[mask & 255], *_ROW1[mask >> 8 & 255], *_ROW2[mask >> 16 & 255], *_ROW3[mask >> 24]]
    if _dense(mask):
        return list(compress(range(mask.bit_length()), _lane_flags(mask)))
    out = []
    for i, byte in enumerate(mask.to_bytes((mask.bit_length() + 7) >> 3, "little")):
        if byte:
            out += map((i << 3).__add__, _BYTE_BITS[byte])
    return out


def _lane_picker(mask: int):
    """A function from a sequence s to the list of its items s[i] at the
    set bits i of mask, ascending; s has at least mask.bit_length() items.
    A dense mask selects through `compress` with its lane flags, a sparse
    one indexes s at the lanes `_set_lanes` finds."""
    if _dense(mask):
        flags = _lane_flags(mask)
        return lambda seq: list(compress(seq, flags))
    lanes = _set_lanes(mask)
    return lambda seq: list(map(seq.__getitem__, lanes))


def famask_of(masks: Iterable[int]) -> int:
    """Famask of masks given in any order, repeats allowed, each a subset of
    at most PLAIN_OP_CAP points."""
    famask = 0
    for m in masks:
        if type(m) is not int or m < 0:
            raise InvalidInputError(f"family members must be nonnegative ints, got {m!r}")
        if m >> PLAIN_OP_CAP:
            raise CapExceededError(f"family: member {m} needs more than {PLAIN_OP_CAP} points")
        famask |= 1 << m
    return famask


def famask_members(famask: int) -> tuple[int, ...]:
    """The members of a famask, ascending."""
    return tuple(_set_lanes(famask))


def _check_members_below(top: int, n: int, what: str) -> None:
    """Raise unless the largest member top is a subset mask for n; shifts
    only, so a huge n or member allocates nothing."""
    if top > 0 and top >> n:
        raise InvalidInputError(f"{what}: member {top} is not a subset mask for n={n}")


def _check_famask(famask, n: int, what: str) -> None:
    if type(famask) is not int or famask < 0:
        raise InvalidInputError(f"{what}: {famask!r} is not a famask")
    _check_members_below(famask.bit_length() - 1, n, what)


def _check_key(key: tuple[int, ...], n: int, what: str) -> None:
    """The entry types, the least famask and the largest, which holds the
    top member, check the key at once; on a fault a scan names the first
    bad x."""
    if key and not (_INT_TYPE.issuperset(map(type, key)) and min(key) >= 0 and max(key).bit_length() - 1 >> n <= 0):
        for x, famask in enumerate(key):
            _check_famask(famask, n, f"{what}: N({x})")


@dataclass(frozen=True, init=False)
class NeighborhoodFrame:
    """(X, N) with N assigning an arbitrary family of subsets to each point,
    held as its key: the famask of each N(x)."""

    n: int
    _key: tuple[int, ...]

    def __init__(self, n: int, key: Iterable[int]) -> None:
        key = tuple(key)
        _check_size(n, "frame: n")
        if len(key) != n:
            raise InvalidInputError(f"frame: expected {n} neighborhood families, got {len(key)}")
        _check_key(key, n, "frame")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_key", key)

    def key(self) -> tuple[int, ...]:
        """Total-order key: per-point famasks, compared left to right."""
        return self._key


@dataclass(frozen=True)
class NeighborhoodAlgebra:
    """Powerset algebra over n atoms with an arbitrary unary box table."""

    n: int
    box: tuple[int, ...]

    def __post_init__(self) -> None:
        _check_size(self.n, "algebra: n")
        if len(self.box) != 1 << self.n:
            raise InvalidInputError(f"algebra: box table must have {1 << self.n} entries, got {len(self.box)}")
        box = self.box
        if not (_INT_TYPE.issuperset(map(type, box)) and min(box) >= 0 and max(box) <= full_mask(self.n)):
            # Name the first bad entry; entries of int subclasses pass here.
            for a, value in enumerate(box):
                check_subset(value, self.n, f"algebra: box[{a}]")


@dataclass(frozen=True)
class Relation:
    """Kripke relation given by successor masks."""

    n: int
    succ: tuple[int, ...]

    def __post_init__(self) -> None:
        _check_size(self.n, "relation: n")
        if len(self.succ) != self.n:
            raise InvalidInputError(f"relation: expected {self.n} successor masks, got {len(self.succ)}")
        for x, s in enumerate(self.succ):
            check_subset(s, self.n, f"relation: R[{x}]")


@dataclass(frozen=True)
class FrameMorphism:
    """Point map between ground sets, stored as an image table."""

    n_dom: int
    n_cod: int
    map: tuple[int, ...]

    def __post_init__(self) -> None:
        _check_size(self.n_dom, "morphism: n_dom")
        _check_size(self.n_cod, "morphism: n_cod")
        if len(self.map) != self.n_dom:
            raise InvalidInputError(f"morphism: expected {self.n_dom} entries, got {len(self.map)}")
        for x, y in enumerate(self.map):
            if not isinstance(y, int) or not 0 <= y < self.n_cod:
                raise InvalidInputError(f"morphism: map[{x}]={y!r} is not a point of the codomain")

    def preimage(self, a_cod: int) -> int:
        return _preimage(self.map, a_cod)


def _preimage(point_map: tuple[int, ...], a: int) -> int:
    """Points x whose image point_map[x] lies in a."""
    return sum(1 << x for x, y in enumerate(point_map) if a >> y & 1)


def _push_forward(f: FrameMorphism):
    """F(f) on famasks: W goes to {a' : f^-1[a'] in W}, read off one table
    of preimages.  Famask members have at most PLAIN_OP_CAP points, so the
    table stops there."""
    preimages = [f.preimage(a) for a in range(1 << min(f.n_cod, PLAIN_OP_CAP))]
    return lambda famask: sum(1 << a for a, p in enumerate(preimages) if famask >> p & 1)


def _disagreement(f: FrameMorphism, dom_key: tuple[int, ...], cod_key: tuple[int, ...], within: int) -> tuple[int, int] | None:
    """The first (x, a'), a' in the famask within, where N'(f(x)) and
    F(f)(N(x)) disagree, or None: the lowest set bit of their XOR."""
    push = _push_forward(f)
    for x, (y, famask) in enumerate(zip(f.map, dom_key)):
        diff = (cod_key[y] ^ push(famask)) & within
        if diff:
            return x, (diff & -diff).bit_length() - 1
    return None


@dataclass(frozen=True)
class CompleteHom:
    """Complete Boolean-with-box hom between powerset algebras.

    Stored by its atom map: atom_map[y] is the domain atom under the
    codomain atom y, i.e. the left adjoint restricted to atoms.  The full
    table is h(a) = { y | atom_map[y] in a }, which preserves all meets
    and joins by construction.
    """

    n_dom: int
    n_cod: int
    atom_map: tuple[int, ...]

    def __post_init__(self) -> None:
        _check_size(self.n_dom, "hom: n_dom")
        _check_size(self.n_cod, "hom: n_cod")
        if len(self.atom_map) != self.n_cod:
            raise InvalidInputError(f"hom: expected {self.n_cod} atom entries, got {len(self.atom_map)}")
        for y, x in enumerate(self.atom_map):
            if not isinstance(x, int) or not 0 <= x < self.n_dom:
                raise InvalidInputError(f"hom: atom_map[{y}]={x!r} is not a domain atom")

    def apply(self, a_dom: int) -> int:
        return _preimage(self.atom_map, a_dom)


def box_n(frame: NeighborhoodFrame, a: int) -> int:
    """Points whose neighborhood family contains a."""
    check_width(frame.n, PLAIN_OP_CAP, "box_n")
    check_subset(a, frame.n, "box_n: a")
    out = 0
    for x, famask in enumerate(frame.key()):
        if famask >> a & 1:
            out |= 1 << x
    return out


def complement_frame(frame: NeighborhoodFrame) -> NeighborhoodFrame:
    """Swap every family for its complement within the full powerset."""
    check_width(frame.n, PLAIN_OP_CAP, "complement_frame")
    full = full_mask(1 << frame.n)
    return NeighborhoodFrame(frame.n, [famask ^ full for famask in frame.key()])


def up_cone(c: int, n: int) -> int:
    """Famask of all supersets of c within the n-wide powerset."""
    check_width(n, PLAIN_OP_CAP, "up_cone")
    check_subset(c, n, "up_cone: c")
    rest = full_mask(n) & ~c
    famask = 0
    t = 0
    while True:
        famask |= 1 << (c | t)
        if t == rest:
            return famask
        t = (t - rest) & rest


def from_relation(rel: Relation) -> NeighborhoodFrame:
    """Kripke frame as a neighborhood frame: N(x) is the up-cone of R[x]."""
    check_width(rel.n, PLAIN_OP_CAP, "from_relation")
    return NeighborhoodFrame(rel.n, tuple(up_cone(s, rel.n) for s in rel.succ))


def to_relation(frame: NeighborhoodFrame) -> Relation:
    """Successor of x is the intersection of N(x); empty family gives X."""
    check_width(frame.n, PLAIN_OP_CAP, "to_relation")
    succ = []
    for famask in frame.key():
        s = full_mask(frame.n)
        for a in _set_lanes(famask):
            s &= a
        succ.append(s)
    return Relation(frame.n, tuple(succ))


def is_nbhd_morphism(f: FrameMorphism, dom: NeighborhoodFrame, cod: NeighborhoodFrame) -> bool:
    """Check the coalgebra square: N'(f(x)) = F(f)(N(x)) for every x."""
    if f.n_dom != dom.n or f.n_cod != cod.n:
        raise InvalidInputError("is_nbhd_morphism: morphism and frame sizes disagree")
    check_width(max(dom.n, cod.n), PLAIN_OP_CAP, "is_nbhd_morphism")
    return _disagreement(f, dom.key(), cod.key(), full_mask(1 << cod.n)) is None


# JSON codecs.  Dict shapes double as the CLI wire formats.

def _expect_keys(obj: dict, keys: tuple[str, ...], what: str) -> None:
    if not isinstance(obj, dict) or set(obj) != set(keys):
        raise InvalidInputError(f"{what}: expected keys {list(keys)}")


def _int_list(raw, what: str) -> tuple[int, ...]:
    if not isinstance(raw, list) or not all(isinstance(v, int) and not isinstance(v, bool) for v in raw):
        raise InvalidInputError(f"{what}: expected a list of ints")
    return tuple(raw)


def _json_famask(raw, n: int, what: str) -> int:
    """Famask of a JSON list of subset masks, in any order, repeats allowed.
    One pass checks each member's type and range against n before packing
    it; on a fault the full checks below name it, in their order."""
    if isinstance(raw, list):
        limit = 1 << (n if 0 <= n < PLAIN_OP_CAP else PLAIN_OP_CAP)
        famask = 0
        for m in raw:
            if type(m) is not int or not 0 <= m < limit:
                break
            famask |= 1 << m
        else:
            return famask
    members = _int_list(raw, what)
    if members and n >= 0:
        _check_members_below(max(members), n, what)
    return famask_of(members)


def frame_to_json(frame: NeighborhoodFrame) -> dict:
    return {"n": frame.n, "N": [_set_lanes(famask) for famask in frame.key()]}


def frame_from_json(obj: dict) -> NeighborhoodFrame:
    _expect_keys(obj, ("n", "N"), "frame")
    _check_size(obj["n"], "frame: n")
    if not isinstance(obj["N"], list):
        raise InvalidInputError("frame: N must be a list")
    return NeighborhoodFrame(obj["n"], [_json_famask(raw, obj["n"], f"frame: N({x})") for x, raw in enumerate(obj["N"])])


def algebra_to_json(alg: NeighborhoodAlgebra) -> dict:
    return {"n": alg.n, "box": list(alg.box)}


def algebra_from_json(obj: dict) -> NeighborhoodAlgebra:
    _expect_keys(obj, ("n", "box"), "algebra")
    return NeighborhoodAlgebra(obj["n"], _int_list(obj["box"], "algebra: box"))


def relation_to_json(rel: Relation) -> dict:
    return {"n": rel.n, "R": list(rel.succ)}


def relation_from_json(obj: dict) -> Relation:
    _expect_keys(obj, ("n", "R"), "relation")
    return Relation(obj["n"], _int_list(obj["R"], "relation: R"))


def morphism_to_json(f: FrameMorphism) -> dict:
    return {"n_dom": f.n_dom, "n_cod": f.n_cod, "map": list(f.map)}


def morphism_from_json(obj: dict) -> FrameMorphism:
    _expect_keys(obj, ("n_dom", "n_cod", "map"), "morphism")
    return FrameMorphism(obj["n_dom"], obj["n_cod"], _int_list(obj["map"], "morphism: map"))


def hom_to_json(h: CompleteHom) -> dict:
    return {"n_dom": h.n_dom, "n_cod": h.n_cod, "atom_map": list(h.atom_map)}


def hom_from_json(obj: dict) -> CompleteHom:
    _expect_keys(obj, ("n_dom", "n_cod", "atom_map"), "hom")
    return CompleteHom(obj["n_dom"], obj["n_cod"], _int_list(obj["atom_map"], "hom: atom_map"))
