"""Ax-subset spaces of the double powerset and their action on point maps.

For an axiom set Ax over ground size n, the space collects every family
of subsets that is a phi-subset for all phi in Ax, in ascending famask
order so indices are stable atom identifiers.  A point map f acts by
sending a family W to { a' | preimage of a' lies in W }, which stays
inside the codomain space; enumerate + act is the finite functor.

Enumeration strategies:

  filter     sweep of all 2^(2^n) famasks through the membership
             programs, bit-sliced with one lane per famask, n <= 4
  backtrack  descending-popcount construction of up-closed families,
             bit-sliced filtering of blocks of them, n <= 5; sound only
             when some axiom forces up-closure (@M, @CInf, or a degraded
             @Ck)
  auto       backtrack when sound, otherwise filter
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from operator import lt

from .bitslice import family_filter, upset_enumerate
from .core import (
    ENUM_BACKTRACK_CAP,
    ENUM_FILTER_CAP,
    PLAIN_OP_CAP,
    Family,
    FrameMorphism,
    InvalidInputError,
    _json_famask,
    _push_forward,
    _set_lanes,
    check_family,
    check_width,
    family_from_famask,
    full_mask,
    up_cone,
)
from .evaluate import compile_membership, is_ax_subset, realize_axiom
from .formulas import AxiomSet, axiom_set_from_specs, famask_is_principal


@dataclass(frozen=True)
class BaxSpace:
    """The Ax-subset families over n points, held as their famasks in
    strictly ascending order; the index of a famask is its atom."""

    n: int
    axioms: AxiomSet
    _famasks: tuple[int, ...]

    def famasks(self) -> tuple[int, ...]:
        return self._famasks

    @property
    def members(self) -> tuple[Family, ...]:
        return tuple(map(family_from_famask, self._famasks))

    def index_of(self, fam: Family) -> int:
        famask = fam.famask()
        i = bisect_left(self._famasks, famask)
        if i == len(self._famasks) or self._famasks[i] != famask:
            raise InvalidInputError("family is not a member of the space")
        return i


def _split_axioms(axs: AxiomSet, n: int):
    """(axiom, compiled membership program) pairs and residual famask
    predicates."""
    programs = []
    predicates = []
    for ax in axs:
        kind, payload = realize_axiom(ax, n)
        if kind == "formula":
            programs.append((ax, compile_membership(payload, n)))
        else:
            predicates.append(payload)
    return programs, predicates


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


def _filter_chunk(n: int, axiom_specs: list[str], start: int, stop: int) -> list[int]:
    axs = axiom_set_from_specs(axiom_specs, n)
    programs, predicates = _split_axioms(axs, n)
    hits = family_filter(start, stop, [prog for _, prog in programs])
    if predicates:
        hits = [fm for fm in hits if all(pred(fm, n) for pred in predicates)]
    return hits


def _filter_chunk_task(args) -> list[int]:
    return _filter_chunk(*args)


def enumerate_bax(n: int, axs: AxiomSet, strategy: str = "auto", workers: int = 1) -> BaxSpace:
    """All Ax-subset families over ground size n, ascending famask order."""
    if strategy not in ("auto", "filter", "backtrack"):
        raise InvalidInputError(f"unknown strategy {strategy!r}")
    if strategy == "auto":
        strategy = "backtrack" if _backtrack_sound(axs) else "filter"
    if strategy == "backtrack" and not _backtrack_sound(axs):
        raise InvalidInputError("backtrack strategy needs an up-closure axiom (@M or a semantic closure axiom)")
    check_width(n, ENUM_BACKTRACK_CAP if strategy == "backtrack" else ENUM_FILTER_CAP, f"enumerate_bax[{strategy}]")

    if strategy == "filter":
        total = 1 << (1 << n)
        specs = axs.specs()
        if workers > 1 and total >= 1 << 12:
            import multiprocessing

            chunk_count = workers * 4
            bounds = [total * i // chunk_count for i in range(chunk_count + 1)]
            tasks = [(n, specs, bounds[i], bounds[i + 1]) for i in range(chunk_count)]
            with multiprocessing.get_context("fork").Pool(workers) as pool:
                chunks = pool.map(_filter_chunk_task, tasks)
            famasks = [fm for chunk in chunks for fm in chunk]
        else:
            famasks = _filter_chunk(n, specs, 0, total)
    else:
        programs, predicates = _split_axioms(axs, n)
        # Up-closure is guaranteed by construction; the @M rows would pass
        # every leaf, so only the other programs are worth running there.
        leaf_programs = [prog for ax, prog in programs if ax.name != "M"]
        required = 0
        if any(ax.name == "N" for ax in axs):
            required = 1 << full_mask(n)
        famasks = upset_enumerate(1 << n, _immediate_superset_famasks(n), required, leaf_programs)
        if predicates:
            famasks = [fm for fm in famasks if all(pred(fm, n) for pred in predicates)]

    return BaxSpace(n, axs, tuple(famasks))


def bax_map(f: FrameMorphism, w: Family, axs: AxiomSet) -> Family:
    """Image of an Ax-subset along a point map: the push-forward
    F(f)(W) = {a' : f^-1[a'] in W}."""
    check_family(w, f.n_dom, "bax_map")
    if not is_ax_subset(w, axs, f.n_dom):
        raise InvalidInputError("bax_map: family is not an Ax-subset of the domain")
    # The image is built over all 2^n_cod codomain subsets.
    check_width(f.n_cod, PLAIN_OP_CAP, "bax_map")
    return family_from_famask(_push_forward(f)(w.famask()))


def principal_iso(n: int, direction: str, value):
    """Bijection between principal up-cone families and plain subsets."""
    check_width(n, PLAIN_OP_CAP, "principal_iso")
    if direction == "from_subset":
        return up_cone(value, n)
    if direction == "to_subset":
        famask = value.famask()
        if not famask:
            raise InvalidInputError("principal_iso: empty family has no generating subset")
        if not famask_is_principal(famask, n):
            raise InvalidInputError("principal_iso: family is not a principal up-cone")
        # The generating subset lies inside every member, so it is the least.
        return (famask & -famask).bit_length() - 1
    raise InvalidInputError(f"principal_iso: unknown direction {direction!r}")


def compose_morphisms(g: FrameMorphism, f: FrameMorphism) -> FrameMorphism:
    if f.n_cod != g.n_dom:
        raise InvalidInputError("compose: codomain of f must match domain of g")
    return FrameMorphism(f.n_dom, g.n_cod, tuple(g.map[y] for y in f.map))


def naturality_check(f: FrameMorphism, axs: AxiomSet, g: FrameMorphism | None = None, sample: int | None = None, seed: int = 0) -> dict:
    """Functoriality report: images land in the codomain space, and when a
    composable g is supplied, acting by g after f equals acting by g of f."""
    dom = enumerate_bax(f.n_dom, axs)
    cod = enumerate_bax(f.n_cod, axs)
    cod_famasks = set(cod.famasks())
    failures = []
    checked = 0
    for w in dom.members:
        checked += 1
        image = bax_map(f, w, axs)
        if image.famask() not in cod_famasks:
            failures.append({"family": list(w.members), "image": list(image.members)})
    if g is not None:
        gf = compose_morphisms(g, f)
        members = list(dom.members)
        if sample is not None and sample < len(members):
            import random

            members = random.Random(seed).sample(members, sample)
        for w in members:
            checked += 1
            direct = bax_map(gf, w, axs)
            staged = bax_map(g, bax_map(f, w, axs), axs)
            if direct != staged:
                failures.append({"family": list(w.members), "direct": list(direct.members), "staged": list(staged.members)})
    return {"functorial": not failures, "checked": checked, "failures": failures}


def baxspace_to_json(space: BaxSpace) -> dict:
    return {"n": space.n, "axioms": space.axioms.specs(), "members": [_set_lanes(fm, 0) for fm in space.famasks()]}


def baxspace_from_json(obj: dict) -> BaxSpace:
    if not isinstance(obj, dict) or set(obj) != {"n", "axioms", "members"}:
        raise InvalidInputError("bax space: expected keys ['n', 'axioms', 'members']")
    n = obj["n"]
    if not isinstance(n, int):
        raise InvalidInputError("bax space: n must be an int")
    axs = axiom_set_from_specs([str(s) for s in obj["axioms"]], n)
    if not isinstance(obj["members"], list):
        raise InvalidInputError("bax space: members must be a list")
    famasks = tuple(_json_famask(raw, n, "bax space: member") for raw in obj["members"])
    if not all(map(lt, famasks, famasks[1:])):
        raise InvalidInputError("bax space: members must be strictly ascending by famask")
    return BaxSpace(n, axs, famasks)
