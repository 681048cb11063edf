"""General neighborhood frames and the sigma / pi neighborhood extensions.

A general frame carries a distinguished Boolean subalgebra A of the
powerset that must be closed under the box of its own neighborhood map.
On a finite carrier the closed and open admissibles both coincide with A,
so interval conditions quantify over plain pairs c, d in A.  A general
frame is held as its frame's key and the famask of A, which its one
constructor checks; `truncate`, `subalgebra_from_partition` and
`all_subalgebras` take and return famasks too.

Validity is decided on the planes of A, never member by member: the
block at(x) = {y : every member of A holding x holds y} is the atom of x
when A is a subalgebra, so A is one exactly when the blocks are pairwise
disjoint and A is the famask of their unions.  Only when that test fails
are the members searched for the first witness, and "differentiated"
means every block is a single point.

The sigma extension fills a neighborhood family upward from admissible
evidence: e enters N^sigma(x) when some admissible interval [c, d]
around e sits entirely inside N(x).  The pi extension is the dual: e
enters when every admissible interval around e meets N(x).  Taking
complements within A swaps the two, which the complement_* helpers and
tests exercise as a two-route identity rather than by definition.  Both
extensions are unions of interval famasks, one mask test per interval.
Every finite frame is compact, so the report's "compact" is always true.
"""

from __future__ import annotations

from .bitslice import _index_planes, transpose
from .classes import _down_closure, _up_closure, family_is_convex
from .core import (
    PLAIN_OP_CAP,
    FrameMorphism,
    InvalidInputError,
    NeighborhoodFrame,
    _check_famask,
    _check_key,
    _check_size,
    _disagreement,
    _json_famask,
    _push_forward,
    _set_lanes,
    _setattr,
    _Value,
    check_width,
    full_mask,
)


class GeneralFrame(_Value):
    """A frame with admissible sets A, held as its key and the famask of A."""

    __slots__ = _fields = ("n", "_key", "_admissible")

    def __init__(self, n: int, key, admissible: int) -> None:
        key = tuple(key)
        _check_size(n, "general frame: n")
        if len(key) != n:
            raise InvalidInputError(f"general frame: expected {n} neighborhood families")
        _check_key(key, n, "general frame")
        _check_famask(admissible, n, "general frame: A")
        _setattr(self, "n", n)
        _setattr(self, "_key", key)
        _setattr(self, "_admissible", admissible)


def _unions(blocks) -> int:
    """Famask of every union of the pairwise disjoint blocks: each block
    doubles the famask by a shift, since u | block = u + block."""
    famask = 1
    for block in blocks:
        famask |= famask << block
    return famask


def _blocks(admissible: int, n: int) -> list[int]:
    """at(x) for each point x: the points y in every member of A that holds x."""
    planes = _index_planes(n)
    blocks = []
    for plane_x in planes:
        holding = admissible & plane_x
        block = 0
        for y, plane_y in enumerate(planes):
            if holding & plane_y == holding:
                block |= 1 << y
        blocks.append(block)
    return blocks


def _is_subalgebra(admissible: int, n: int) -> bool:
    """A is a Boolean subalgebra exactly when its distinct blocks at(x) are
    pairwise disjoint (each holds its own x, so their sizes then sum to n)
    and A is the famask of their unions."""
    blocks = set(_blocks(admissible, n))
    return sum(map(int.bit_count, blocks)) == n and _unions(blocks) == admissible


def _closure_fault(admissible: int, n: int) -> str:
    """The first member a, then the first b, where A is not closed under
    complement or union, as the member-by-member check finds it.  The
    members b with a | b in A are the preimage of A under b -> b | a,
    one shift per point of a."""
    full = full_mask(n)
    planes = _index_planes(n)
    for a in _set_lanes(admissible):
        if not admissible >> (full ^ a) & 1:
            return f"general frame: A not closed under complement at {a}"
        closed = admissible
        for x in _set_lanes(a):
            hit = closed & planes[x]
            closed = hit | hit >> (1 << x)
        missed = admissible & ~closed
        if missed:
            return f"general frame: A not closed under union at {a}, {(missed & -missed).bit_length() - 1}"
    raise AssertionError("general frame: A is a subalgebra")


def validate_general_frame(gf: GeneralFrame) -> None:
    """Raise unless A is a Boolean subalgebra closed under the frame box."""
    check_width(gf.n, PLAIN_OP_CAP, "general frame")
    admissible = gf._admissible
    full = full_mask(gf.n)
    if not admissible & 1 or not admissible >> full & 1:
        raise InvalidInputError("general frame: A must contain the empty and full sets")
    if not _is_subalgebra(admissible, gf.n):
        raise InvalidInputError(_closure_fault(admissible, gf.n))
    box = transpose(gf._key, 1 << gf.n)
    for a in _set_lanes(admissible):
        if not admissible >> box[a] & 1:
            raise InvalidInputError(f"general frame: A not closed under box at {a}")


def is_tight(gf: GeneralFrame) -> bool:
    return all(famask & gf._admissible == famask for famask in gf._key)


def is_differentiated(gf: GeneralFrame) -> bool:
    """Every point x is told from every other point y by an admissible set:
    every block at(x) is {x}.  Its planes take 2^n bits, so n is capped."""
    check_width(gf.n, PLAIN_OP_CAP, "is_differentiated")
    return _blocks(gf._admissible, gf.n) == [1 << x for x in range(gf.n)]


def general_frame_report(gf: GeneralFrame) -> dict:
    try:
        validate_general_frame(gf)
        reason = None
    except InvalidInputError as exc:
        reason = str(exc)
    return {"valid": reason is None, "reason": reason, "tight": is_tight(gf), "differentiated": is_differentiated(gf), "compact": True}


def subalgebra_from_partition(blocks: list[int], n: int) -> int:
    """Famask of the subalgebra of all unions of the given partition blocks."""
    check_width(n, PLAIN_OP_CAP, "subalgebra_from_partition")
    full = full_mask(n)
    seen = 0
    for block in blocks:
        if not isinstance(block, int) or block <= 0 or block > full:
            raise InvalidInputError(f"partition: bad block {block!r}")
        if block & seen:
            raise InvalidInputError("partition: blocks overlap")
        seen |= block
    if seen != full:
        raise InvalidInputError("partition: blocks must cover the ground set")
    return _unions(blocks)


def all_partitions(n: int):
    """Set partitions of the ground set, as lists of block masks."""
    if n == 0:
        yield []
        return

    def rec(i: int, blocks: list[int]):
        if i == n:
            yield [b for b in blocks]
            return
        for j in range(len(blocks)):
            blocks[j] |= 1 << i
            yield from rec(i + 1, blocks)
            blocks[j] &= ~(1 << i)
        blocks.append(1 << i)
        yield from rec(i + 1, blocks)
        blocks.pop()

    yield from rec(1, [1])


def all_subalgebras(n: int) -> list[int]:
    """Famask of every Boolean subalgebra of the powerset, one per
    partition, ascending."""
    return sorted(subalgebra_from_partition(blocks, n) for blocks in all_partitions(n))


def _require_tight(gf: GeneralFrame, what: str) -> None:
    validate_general_frame(gf)
    if not is_tight(gf):
        raise InvalidInputError(f"{what}: general frame is not tight")


def _extend(gf: GeneralFrame, sigma: bool) -> tuple[int, ...]:
    """Famask of the sigma (or pi) extension of each N(x), read from its
    admissible trace.  An admissible interval [c, d] spans the subsets
    between c and d: e enters N^sigma when an interval around it has all
    its admissible members in the trace, and leaves N^pi when one has
    none of them there."""
    admissible = gf._admissible
    members = _set_lanes(admissible)
    downs = [_down_closure(1 << d, gf.n) for d in members]
    spans = []
    for c in members:
        up = _up_closure(1 << c, gf.n)
        spans += [(up & down, up & down & admissible) for d, down in zip(members, downs) if c & d == c]
    out = []
    for famask in gf._key:
        trace = famask & admissible
        # The admissible sets an interval's admissible members must avoid.
        avoid = admissible ^ trace if sigma else trace
        filled = 0
        for span, inside in spans:
            if not inside & avoid:
                filled |= span
        out.append(filled if sigma else full_mask(1 << gf.n) ^ filled)
    return tuple(out)


def sigma_extend(gf: GeneralFrame) -> NeighborhoodFrame:
    """Largest frame whose admissible trace is N, filled by interval evidence."""
    _require_tight(gf, "sigma_extend")
    return NeighborhoodFrame(gf.n, _extend(gf, True))


def pi_extend(gf: GeneralFrame) -> NeighborhoodFrame:
    _require_tight(gf, "pi_extend")
    return NeighborhoodFrame(gf.n, _extend(gf, False))


def complement_within_admissible(gf: GeneralFrame) -> GeneralFrame:
    """Swap each N(x) for its complement inside A, keeping A."""
    _require_tight(gf, "complement_within_admissible")
    admissible = gf._admissible
    return GeneralFrame(gf.n, [admissible & ~famask for famask in gf._key], admissible)


def truncate(frame: NeighborhoodFrame, admissible: int) -> GeneralFrame:
    """Restrict every family to the members of the famask admissible;
    errors when the result is not a valid general frame."""
    _check_famask(admissible, frame.n, "truncate: A")
    gf = GeneralFrame(frame.n, [famask & admissible for famask in frame.key()], admissible)
    validate_general_frame(gf)
    return gf


def is_sigma_descriptive(gf: GeneralFrame) -> bool:
    """Membership everywhere coincides with sigma interval evidence."""
    validate_general_frame(gf)
    return _extend(gf, True) == gf._key


def is_pi_descriptive(gf: GeneralFrame) -> bool:
    validate_general_frame(gf)
    return _extend(gf, False) == gf._key


def check_general_morphism(f: FrameMorphism, dom: GeneralFrame, cod: GeneralFrame) -> None:
    """Raise with a witness unless f is a general-frame morphism: admissible
    preimages are admissible and the membership biconditional holds over
    the codomain's admissible sets, each read off the push-forward F(f)."""
    if f.n_dom != dom.n or f.n_cod != cod.n:
        raise InvalidInputError("general morphism: sizes disagree")
    lost = cod._admissible & ~_push_forward(f)(dom._admissible)
    if lost:
        a_cod = (lost & -lost).bit_length() - 1
        raise InvalidInputError(f"general morphism: preimage of admissible {a_cod} is not admissible")
    witness = _disagreement(f, dom._key, cod._key, cod._admissible)
    if witness is not None:
        raise InvalidInputError(f"general morphism: membership disagrees at point {witness[0]}, admissible {witness[1]}")


def sigma_morphism_transfer(f: FrameMorphism, dom: GeneralFrame, cod: GeneralFrame) -> dict:
    """Does a map stay a neighborhood morphism after sigma extension?

    Accepts any map satisfying the admissible-restricted biconditional
    (checked, with a witness on failure) and reports whether the sigma
    extensions are related by a full neighborhood morphism.  The guarantee
    "both extensions convex implies yes" holds for maps that are already
    full neighborhood morphisms on the underlying frames; under the weaker
    admissible-restricted precondition the report can honestly say no, so
    callers exercising the guarantee should pre-filter with
    is_nbhd_morphism.  The report carries the convexity flags and a
    witness when the full condition fails."""
    _require_tight(dom, "sigma_morphism_transfer")
    _require_tight(cod, "sigma_morphism_transfer")
    check_general_morphism(f, dom, cod)
    dom_sigma = sigma_extend(dom)
    cod_sigma = sigma_extend(cod)
    witness = _disagreement(f, dom_sigma.key(), cod_sigma.key(), full_mask(1 << cod.n))
    return {
        "is_morphism": witness is None,
        "dom_convex": all(family_is_convex(famask, dom.n) for famask in dom_sigma.key()),
        "cod_convex": all(family_is_convex(famask, cod.n) for famask in cod_sigma.key()),
        "witness": None if witness is None else {"x": witness[0], "a_cod": witness[1]},
    }


def general_frame_to_json(gf: GeneralFrame) -> dict:
    return {"n": gf.n, "N": [_set_lanes(famask) for famask in gf._key], "A": _set_lanes(gf._admissible)}


def general_frame_from_json(obj: dict) -> GeneralFrame:
    if not isinstance(obj, dict) or set(obj) != {"n", "N", "A"}:
        raise InvalidInputError("general frame: expected keys ['n', 'N', 'A']")
    _check_size(obj["n"], "general frame: n")
    if not isinstance(obj["N"], list):
        raise InvalidInputError("general frame: N must be a list")
    n = obj["n"]
    key = [_json_famask(raw, n, f"general frame: N({x})") for x, raw in enumerate(obj["N"])]
    return GeneralFrame(n, key, _json_famask(obj["A"], n, "general frame: A"))
