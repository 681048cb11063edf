"""Ax-subset spaces of the double powerset and their action on point maps.

For an axiom set Ax over ground size n, the space collects every family
of subsets that is a phi-subset for all phi in Ax, in ascending famask
order so indices are stable atom identifiers.  A point map f acts by
sending a family W to { a' | preimage of a' lies in W }, which stays
inside the codomain space; enumerate + act is the finite functor.
Families are famask ints throughout: a space is a tuple of them, and
`bax_map`, `index_of` and `principal_iso` take and return them.

`enumerate_bax` is the one route from an axiom set to its families.
When some axiom forces up-closure (@M, @CInf, or a degraded @Ck) it
backtracks: up-closed families are built in descending popcount order
and bit-sliced blocks of them are filtered, n <= 5.  Otherwise it sweeps
all 2^(2^n) famasks through the membership programs, bit-sliced with one
lane per famask, n <= 4.  Both give the same ascending space wherever
both apply.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from operator import lt

from .bitslice import family_filter, upset_enumerate
from .classes import AXIOM_TESTS
from .core import (
    ENUM_BACKTRACK_CAP,
    ENUM_FILTER_CAP,
    PLAIN_OP_CAP,
    FrameMorphism,
    InvalidInputError,
    _check_famask,
    _check_size,
    _json_famask,
    _push_forward,
    _set_lanes,
    check_width,
    full_mask,
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


def _backtrack_sound(axs: AxiomSet) -> bool:
    return any(ax.name == "M" or ax.semantic is not None for ax in axs)


def _immediate_superset_famasks(n: int) -> tuple[int, ...]:
    m = 1 << n
    succ = []
    for s in range(m):
        bits = 0
        for i in range(n):
            if not s >> i & 1:
                bits |= 1 << (s | 1 << i)
        succ.append(bits)
    return tuple(succ)


def enumerate_bax(n: int, axs: AxiomSet) -> BaxSpace:
    """All Ax-subset families over ground size n, ascending famask order:
    backtracked when an axiom forces up-closure, filtered otherwise."""
    if not _backtrack_sound(axs):
        check_width(n, ENUM_FILTER_CAP, "enumerate_bax[filter]")
        famasks = family_filter(0, 1 << (1 << n), [prog for _, prog in _split_axioms(axs, n)])
    else:
        check_width(n, ENUM_BACKTRACK_CAP, "enumerate_bax[backtrack]")
        # Up-closure is guaranteed by construction; the @M rows would pass
        # every leaf, so only the other programs are worth running there.
        leaf_programs = [prog for ax, prog in _split_axioms(axs, n) if ax.name != "M"]
        required = 0
        if any("N" in (ax.name, *(ax.semantic or ())) for ax in axs):
            required = 1 << full_mask(n)
        famasks = upset_enumerate(1 << n, _immediate_superset_famasks(n), required, leaf_programs)
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
