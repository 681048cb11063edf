"""Ax-subset spaces of the double powerset and their action on point maps.

For an axiom set Ax over ground size n, the space collects every family
of subsets that is a phi-subset for all phi in Ax, in ascending famask
order so indices are stable atom identifiers.  A point map f acts by
sending a family W to { a' | preimage of a' lies in W }, which stays
inside the codomain space; enumerate + act is the finite functor.
Families are famask ints throughout: a space is a tuple of them, and
`bax_map`, `index_of` and `principal_iso` take and return them.
`baxspace_text` writes a space's compact JSON straight from its famasks,
through tables of decimal text: every famask's low half (the sets
without the top point) is looked up once, at n <= 4 by the famask itself,
and famasks that share their high half (the sets with it) form a run,
written by one join of their low texts; `baxspace_to_json` is the
definitional dict codec it must match.

`enumerate_bax` is the one route from an axiom set to its families.
When some axiom forces up-closure (@M, @C, @CInf, or a degraded @Ck) it
takes the up-set route, n <= 5: the up-closed families are built in
ascending order as pairs of up-closed families over one point fewer,
and bit-sliced blocks of them are filtered.  Otherwise it sweeps all
2^(2^n) famasks through the membership programs, bit-sliced with one
lane per famask, n <= 4.  Both give the same ascending space wherever
both apply.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat
from operator import and_, itemgetter, lt

from .bitslice import family_filter, upset_enumerate
from .classes import AXIOM_TESTS
from .core import (
    ENUM_BACKTRACK_CAP,
    ENUM_FILTER_CAP,
    PLAIN_OP_CAP,
    FrameMorphism,
    InvalidInputError,
    _BYTE_BITS,
    _ROW1,
    _ROW2,
    _ROW3,
    _check_famask,
    _check_size,
    _json_famask,
    _push_forward,
    _set_lanes,
    check_width,
    up_cone,
)
from .evaluate import _split_axioms, is_ax_subset
from .formulas import AxiomSet, axiom_set_from_specs


@dataclass(frozen=True)
class BaxSpace:
    """The Ax-subset families over n points, held as their famasks in
    strictly ascending order; the index of a famask is its atom."""

    n: int
    axioms: AxiomSet
    _famasks: tuple[int, ...]

    def famasks(self) -> tuple[int, ...]:
        return self._famasks

    def index_of(self, famask: int) -> int:
        i = bisect_left(self._famasks, famask)
        if i == len(self._famasks) or self._famasks[i] != famask:
            raise InvalidInputError("family is not a member of the space")
        return i


def _forces_up_closure(axs: AxiomSet) -> bool:
    # box(u & v) -> box u is @M and one half of @C.
    return any(ax.name in ("M", "C") or ax.semantic is not None for ax in axs)


def enumerate_bax(n: int, axs: AxiomSet) -> BaxSpace:
    """All Ax-subset families over ground size n, ascending famask order:
    from the up-closed families when an axiom forces up-closure (refused
    past its cap under the name `enumerate_bax[backtrack]`), filtered
    otherwise."""
    if not _forces_up_closure(axs):
        check_width(n, ENUM_FILTER_CAP, "enumerate_bax[filter]")
        famasks = family_filter(0, 1 << (1 << n), [prog for _, prog in _split_axioms(axs, n)])
    else:
        check_width(n, ENUM_BACKTRACK_CAP, "enumerate_bax[backtrack]")
        # Up-closure is guaranteed by construction, and @N then only drops
        # the empty family, so the @M and @N rows would pass every family.
        leaf_programs = [prog for ax, prog in _split_axioms(axs, n) if ax.name not in ("M", "N")]
        nonempty = any("N" in (ax.name, *(ax.semantic or ())) for ax in axs)
        famasks = upset_enumerate(n, nonempty, leaf_programs)
    return BaxSpace(n, axs, tuple(famasks))


def bax_map(f: FrameMorphism, w: int, axs: AxiomSet) -> int:
    """Image of an Ax-subset famask along a point map: the push-forward
    F(f)(W) = {a' : f^-1[a'] in W}."""
    _check_famask(w, f.n_dom, "bax_map")
    if not is_ax_subset(w, axs, f.n_dom):
        raise InvalidInputError("bax_map: family is not an Ax-subset of the domain")
    # The image is built over all 2^n_cod codomain subsets.
    check_width(f.n_cod, PLAIN_OP_CAP, "bax_map")
    return _push_forward(f)(w)


def principal_iso(n: int, direction: str, value: int) -> int:
    """Bijection between principal up-cone famasks and plain subsets."""
    check_width(n, PLAIN_OP_CAP, "principal_iso")
    if direction == "from_subset":
        return up_cone(value, n)
    if direction == "to_subset":
        if not value:
            raise InvalidInputError("principal_iso: empty family has no generating subset")
        if not (AXIOM_TESTS["N"](value, n) and AXIOM_TESTS["C"](value, n)):
            raise InvalidInputError("principal_iso: family is not a principal up-cone")
        # The generating subset lies inside every member, so it is the least.
        return (value & -value).bit_length() - 1
    raise InvalidInputError(f"principal_iso: unknown direction {direction!r}")


def compose_morphisms(g: FrameMorphism, f: FrameMorphism) -> FrameMorphism:
    if f.n_cod != g.n_dom:
        raise InvalidInputError("compose: codomain of f must match domain of g")
    return FrameMorphism(f.n_dom, g.n_cod, tuple(g.map[y] for y in f.map))


def naturality_check(f: FrameMorphism, axs: AxiomSet, g: FrameMorphism | None = None) -> dict:
    """Functoriality report over every member of the domain space: images
    land in the codomain space, and when a composable g is supplied,
    acting by g after f equals acting by g of f.  Each map pushes members
    forward through one table, as `bax_map` does."""
    dom = enumerate_bax(f.n_dom, axs).famasks()
    cod_famasks = set(enumerate_bax(f.n_cod, axs).famasks())
    images = list(map(_push_forward(f), dom))
    failures = [{"family": _set_lanes(w, 0), "image": _set_lanes(image, 0)} for w, image in zip(dom, images) if image not in cod_famasks]
    checked = len(dom)
    if g is not None:
        push_gf, push_g = _push_forward(compose_morphisms(g, f)), _push_forward(g)
        for w, image in zip(dom, images):
            direct, staged = push_gf(w), push_g(image)
            if direct != staged:
                failures.append({"family": _set_lanes(w, 0), "direct": _set_lanes(direct, 0), "staged": _set_lanes(staged, 0)})
        checked += len(dom)
    return {"functorial": not failures, "checked": checked, "failures": failures}


def baxspace_to_json(space: BaxSpace) -> dict:
    return {"n": space.n, "axioms": space.axioms.specs(), "members": [_set_lanes(fm, 0) for fm in space.famasks()]}


@lru_cache(maxsize=None)
def _byte_texts() -> tuple[tuple[str, ...], ...]:
    """Per byte position k, the indices 8k + j of a byte's set bits j as
    decimal text, each followed by a comma; built on first use, not at
    import."""
    return tuple(tuple("".join(f"{i}," for i in row) for row in rows) for rows in (_BYTE_BITS, _ROW1, _ROW2, _ROW3))


@lru_cache(maxsize=None)
def _famask_texts(n: int) -> tuple[str, ...]:
    """At n <= 4, entry w is the text of famask w's low byte: the byte
    texts repeated to 2^(2^n) entries, at least 256; built on first use."""
    return _byte_texts()[0] * max(1, (1 << (1 << n)) >> 8)


def _lane_text(x: int) -> str:
    """The indices of x's set bits as decimal text, each followed by a
    comma: four table lookups below 2^32, `_set_lanes` above."""
    if not x >> 32:
        t0, t1, t2, t3 = _byte_texts()
        return t0[x & 255] + t1[x >> 8 & 255] + t2[x >> 16 & 255] + t3[x >> 24]
    return "".join([f"{i}," for i in _set_lanes(x, 0)])


def baxspace_text(space: BaxSpace) -> str:
    """`baxspace_to_json(space)` as compact JSON text, written in runs.

    Each famask splits at bit `shift` = max(8, 2^(n-1)) into a low half,
    the members without the top point, and a high half, those with it
    (the L/H split of `upset_enumerate`).  Every member's low text is
    looked up in one C-level pass: at n <= 4 the famask indexes
    `_famask_texts(n)` through `itemgetter`, above it the low half indexes
    a dict built once per distinct low half.  Famasks that share a high
    half are adjacent in the ascending tuple, and each such run is one
    join of a slice of those texts, with the high half's text and `],[`
    as the separator.  Only the first run can have an empty high half;
    its members are their low texts without the last comma.  The head
    and tail of the JSON ride on the first and last runs, so the whole
    text is copied by one last join."""
    famasks = space.famasks()
    shift = max(8, (1 << space.n) >> 1)
    if shift == 8:
        # The trailing 0 keeps the result a tuple when there is one famask.
        texts = itemgetter(*famasks, 0)(_famask_texts(space.n))
    else:
        lows = list(map(and_, famasks, repeat((1 << shift) - 1)))
        low_texts = {low: _lane_text(low) for low in set(lows)}
        texts = list(map(low_texts.__getitem__, lows))
    runs = []
    start = 0
    while start < len(famasks):
        high = famasks[start] >> shift
        stop = bisect_left(famasks, (high + 1) << shift, start)
        if high:
            high_text = _lane_text(high << shift)[:-1]
            runs.append((high_text + "],[").join(texts[start:stop]) + high_text)
        else:
            runs.append("],[".join(map(str.rstrip, texts[start:stop], repeat(","))))
        start = stop
    head = json.dumps({"n": space.n, "axioms": space.axioms.specs()}, separators=(",", ":"))[:-1] + ',"members":['
    if not runs:
        return head + "]}"
    runs[0] = head + "[" + runs[0]
    runs[-1] += "]]}"
    return "],[".join(runs)


def baxspace_from_json(obj: dict) -> BaxSpace:
    if not isinstance(obj, dict) or set(obj) != {"n", "axioms", "members"}:
        raise InvalidInputError("bax space: expected keys ['n', 'axioms', 'members']")
    n = obj["n"]
    _check_size(n, "bax space: n")
    axs = axiom_set_from_specs([str(s) for s in obj["axioms"]], n)
    if not isinstance(obj["members"], list):
        raise InvalidInputError("bax space: members must be a list")
    famasks = tuple(_json_famask(raw, n, "bax space: member") for raw in obj["members"])
    if not all(map(lt, famasks, famasks[1:])):
        raise InvalidInputError("bax space: members must be strictly ascending by famask")
    return BaxSpace(n, axs, famasks)
