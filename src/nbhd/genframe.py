"""General neighborhood frames and the sigma / pi neighborhood extensions.

A general frame carries a distinguished Boolean subalgebra A of the
powerset that must be closed under the box of its own neighborhood map.
On a finite carrier the closed and open admissibles both coincide with A,
so interval conditions quantify over plain pairs c, d in A.

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

from dataclasses import dataclass
from itertools import combinations

from .bitslice import transpose
from .classes import _down_closure, _up_closure, family_is_convex
from .core import (
    PLAIN_OP_CAP,
    Family,
    FrameMorphism,
    InvalidInputError,
    NeighborhoodFrame,
    _family_list,
    check_family,
    check_width,
    family_from_famask,
    full_mask,
    is_nbhd_morphism,
)


@dataclass(frozen=True)
class GeneralFrame:
    n: int
    nbhd: tuple[Family, ...]
    admissible: Family

    def __post_init__(self) -> None:
        if self.n < 0:
            raise InvalidInputError("general frame: n must be nonnegative")
        if len(self.nbhd) != self.n:
            raise InvalidInputError(f"general frame: expected {self.n} neighborhood families")
        for x, fam in enumerate(self.nbhd):
            check_family(fam, self.n, f"general frame: N({x})")
        check_family(self.admissible, self.n, "general frame: A")


def validate_general_frame(gf: GeneralFrame) -> None:
    """Raise unless A is a Boolean subalgebra closed under the frame box."""
    check_width(gf.n, PLAIN_OP_CAP, "general frame")
    admissible = gf.admissible.famask()
    members = gf.admissible.members
    full = full_mask(gf.n)
    if not admissible & 1 or not admissible >> full & 1:
        raise InvalidInputError("general frame: A must contain the empty and full sets")
    for a in members:
        if not admissible >> (full ^ a) & 1:
            raise InvalidInputError(f"general frame: A not closed under complement at {a}")
        for b in members:
            if not admissible >> (a | b) & 1:
                raise InvalidInputError(f"general frame: A not closed under union at {a}, {b}")
    box = transpose([fam.famask() for fam in gf.nbhd], 1 << gf.n)
    for a in members:
        if not admissible >> box[a] & 1:
            raise InvalidInputError(f"general frame: A not closed under box at {a}")


def is_tight(gf: GeneralFrame) -> bool:
    admissible = gf.admissible.famask()
    return all(fam.famask() & admissible == fam.famask() for fam in gf.nbhd)


def is_differentiated(gf: GeneralFrame) -> bool:
    for x in range(gf.n):
        for y in range(gf.n):
            if x == y:
                continue
            if not any(a >> x & 1 and not a >> y & 1 for a in gf.admissible):
                return False
    return True


def general_frame_report(gf: GeneralFrame) -> dict:
    try:
        validate_general_frame(gf)
    except InvalidInputError as exc:
        return {"valid": False, "reason": str(exc), "tight": is_tight(gf), "differentiated": is_differentiated(gf), "compact": True}
    return {"valid": True, "reason": None, "tight": is_tight(gf), "differentiated": is_differentiated(gf), "compact": True}


def subalgebra_from_partition(blocks: list[int], n: int) -> Family:
    """Subalgebra of all unions of the given partition blocks."""
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
    unions = set()
    for r in range(len(blocks) + 1):
        for combo in combinations(blocks, r):
            u = 0
            for block in combo:
                u |= block
            unions.add(u)
    return Family.of(unions)


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


def all_subalgebras(n: int) -> list[Family]:
    """Every Boolean subalgebra of the powerset, one per partition."""
    out = {subalgebra_from_partition(blocks, n) if blocks else Family((0,)) for blocks in all_partitions(n)}
    return sorted(out, key=Family.famask)


def _require_tight(gf: GeneralFrame, what: str) -> None:
    validate_general_frame(gf)
    if not is_tight(gf):
        raise InvalidInputError(f"{what}: general frame is not tight")


def _extend(gf: GeneralFrame, sigma: bool) -> list[int]:
    """Famask of the sigma (or pi) extension of each N(x), read from its
    admissible trace.  An admissible interval [c, d] spans the subsets
    between c and d: e enters N^sigma when an interval around it has all
    its admissible members in the trace, and leaves N^pi when one has
    none of them there."""
    admissible = gf.admissible.famask()
    members = gf.admissible.members
    downs = [_down_closure(1 << d, gf.n) for d in members]
    spans = []
    for c in members:
        up = _up_closure(1 << c, gf.n)
        spans += [(up & down, up & down & admissible) for d, down in zip(members, downs) if c & d == c]
    out = []
    for fam in gf.nbhd:
        trace = fam.famask() & admissible
        # The admissible sets an interval's admissible members must avoid.
        avoid = admissible ^ trace if sigma else trace
        filled = 0
        for span, inside in spans:
            if not inside & avoid:
                filled |= span
        out.append(filled if sigma else full_mask(1 << gf.n) ^ filled)
    return out


def sigma_extend(gf: GeneralFrame) -> NeighborhoodFrame:
    """Largest frame whose admissible trace is N, filled by interval evidence."""
    _require_tight(gf, "sigma_extend")
    return NeighborhoodFrame(gf.n, tuple(map(family_from_famask, _extend(gf, True))))


def pi_extend(gf: GeneralFrame) -> NeighborhoodFrame:
    _require_tight(gf, "pi_extend")
    return NeighborhoodFrame(gf.n, tuple(map(family_from_famask, _extend(gf, False))))


def complement_within_admissible(gf: GeneralFrame) -> GeneralFrame:
    """Swap each N(x) for its complement inside A, keeping A."""
    _require_tight(gf, "complement_within_admissible")
    admissible = gf.admissible.famask()
    families = tuple(family_from_famask(admissible & ~fam.famask()) for fam in gf.nbhd)
    return GeneralFrame(gf.n, families, gf.admissible)


def truncate(frame: NeighborhoodFrame, admissible: Family) -> GeneralFrame:
    """Restrict every family to its admissible members; errors when the
    result is not a valid general frame."""
    check_family(admissible, frame.n, "truncate: A")
    families = tuple(family_from_famask(fam.famask() & admissible.famask()) for fam in frame.nbhd)
    gf = GeneralFrame(frame.n, families, admissible)
    validate_general_frame(gf)
    return gf


def is_sigma_descriptive(gf: GeneralFrame) -> bool:
    """Membership everywhere coincides with sigma interval evidence."""
    validate_general_frame(gf)
    return _extend(gf, True) == [fam.famask() for fam in gf.nbhd]


def is_pi_descriptive(gf: GeneralFrame) -> bool:
    validate_general_frame(gf)
    return _extend(gf, False) == [fam.famask() for fam in gf.nbhd]


def check_general_morphism(f: FrameMorphism, dom: GeneralFrame, cod: GeneralFrame) -> None:
    """Raise with a witness unless f is a general-frame morphism: admissible
    preimages are admissible and the membership biconditional holds over
    the codomain's admissible sets."""
    if f.n_dom != dom.n or f.n_cod != cod.n:
        raise InvalidInputError("general morphism: sizes disagree")
    cod_admissible = cod.admissible.members
    for a_cod in cod_admissible:
        if f.preimage(a_cod) not in dom.admissible:
            raise InvalidInputError(f"general morphism: preimage of admissible {a_cod} is not admissible")
    for x in range(dom.n):
        target = cod.nbhd[f.map[x]]
        source = dom.nbhd[x]
        for a_cod in cod_admissible:
            if (a_cod in target) != (f.preimage(a_cod) in source):
                raise InvalidInputError(f"general morphism: membership disagrees at point {x}, admissible {a_cod}")


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
    ok = is_nbhd_morphism(f, dom_sigma, cod_sigma)
    witness = None
    if not ok:
        for x in range(dom.n):
            for a_cod in range(1 << cod.n):
                if (a_cod in cod_sigma.nbhd[f.map[x]]) != (f.preimage(a_cod) in dom_sigma.nbhd[x]):
                    witness = {"x": x, "a_cod": a_cod}
                    break
            if witness:
                break
    return {
        "is_morphism": ok,
        "dom_convex": all(family_is_convex(fam, dom.n) for fam in dom_sigma.nbhd),
        "cod_convex": all(family_is_convex(fam, cod.n) for fam in cod_sigma.nbhd),
        "witness": witness,
    }


def general_frame_to_json(gf: GeneralFrame) -> dict:
    return {"n": gf.n, "N": [list(fam) for fam in gf.nbhd], "A": list(gf.admissible)}


def general_frame_from_json(obj: dict) -> GeneralFrame:
    if not isinstance(obj, dict) or set(obj) != {"n", "N", "A"}:
        raise InvalidInputError("general frame: expected keys ['n', 'N', 'A']")
    if not isinstance(obj["n"], int) or not isinstance(obj["N"], list):
        raise InvalidInputError("general frame: n must be an int and N a list")
    n = obj["n"]
    families = tuple(_family_list(raw, n, f"general frame: N({x})") for x, raw in enumerate(obj["N"]))
    return GeneralFrame(n, families, _family_list(obj["A"], n, "general frame: A"))
