"""Dualities between finite frames and powerset algebras with a box.

The complex algebra of a frame reads the box table off the membership
relation box[a] = { x | a in N(x) }; the atom frame reads it back,
N(x) = { a | x in box[a] }.  Both are one `bitslice.transpose`, which
the tests hold to the definitional `core.box_n`.  Point maps dualize to
complete homs stored by their atom maps, and back.  The one-step space
of an axiom set is realized as the powerset algebra over the enumerated
Ax-subsets, with the generator table gen[a] = { atom index i | a is a
member of family i }, the transpose of their famasks, standing in for
the free one-step box; the JSON decoder refuses any other gen table.
Checking an axiom on it is one run of the bit-sliced membership engine,
with gen as the planes and the atoms as the lanes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import compress

from .bax import BaxSpace, enumerate_bax, baxspace_to_json, baxspace_from_json, baxspace_text
from .bitslice import _accepted, transpose
from .core import (
    PLAIN_OP_CAP,
    CompleteHom,
    FrameMorphism,
    InvalidInputError,
    NeighborhoodAlgebra,
    NeighborhoodFrame,
    _lane_flags,
    _set_lanes,
    check_width,
)
from .evaluate import assignment_space, compile_membership, realize_axiom
from .formulas import Axiom, AxiomSet, free_vars, is_one_step, render


def complex_algebra(frame: NeighborhoodFrame) -> NeighborhoodAlgebra:
    check_width(frame.n, PLAIN_OP_CAP, "complex_algebra")
    return NeighborhoodAlgebra(frame.n, transpose(frame.key(), 1 << frame.n))


def atom_frame(alg: NeighborhoodAlgebra) -> NeighborhoodFrame:
    check_width(alg.n, PLAIN_OP_CAP, "atom_frame")
    return NeighborhoodFrame(alg.n, transpose(alg.box, alg.n))


def is_complete_nbhd_hom(h: CompleteHom, dom: NeighborhoodAlgebra, cod: NeighborhoodAlgebra) -> bool:
    """Does the atom-map table commute with the two box tables?"""
    if h.n_dom != dom.n or h.n_cod != cod.n:
        raise InvalidInputError("is_complete_nbhd_hom: hom and algebra sizes disagree")
    for a in range(1 << dom.n):
        if h.apply(dom.box[a]) != cod.box[h.apply(a)]:
            return False
    return True


def dualize_frame_morphism(f: FrameMorphism) -> CompleteHom:
    """Preimage hom between the complex algebras, codomain frame first."""
    return CompleteHom(n_dom=f.n_cod, n_cod=f.n_dom, atom_map=f.map)


def dualize_complete_hom(h: CompleteHom) -> FrameMorphism:
    return FrameMorphism(n_dom=h.n_cod, n_cod=h.n_dom, map=h.atom_map)


@dataclass(frozen=True)
class LaxAlgebra:
    """Powerset algebra over the atoms of an Ax-subset space.

    gen[a] is the atom set of the generator at subset a: bit i is set when
    subset-mask a is a member of the family space.famasks()[i].
    """

    space: BaxSpace
    gen: tuple[int, ...]

    @property
    def n(self) -> int:
        return self.space.n

    @property
    def n_atoms(self) -> int:
        return len(self.space.lanes)

    def full_atoms(self) -> int:
        return (1 << self.n_atoms) - 1


def lax_algebra(n: int, axs: AxiomSet) -> LaxAlgebra:
    space = enumerate_bax(n, axs)
    return LaxAlgebra(space, transpose(space.famasks(), 1 << n))


def onestep_top_check(lax: LaxAlgebra, ax: Axiom) -> bool:
    """Does the axiom evaluate to the top atom set under every assignment?
    Its formula runs on the membership engine with the generator
    table as its planes: lane i of gen[a] says whether subset a is in
    the i-th family, so the accepted lanes are the atoms where the axiom
    holds under every assignment."""
    f = realize_axiom(ax, lax.n)
    if not is_one_step(f):
        raise InvalidInputError(f"onestep_top_check: {render(f)} is not one-step")
    assignment_space(lax.n, len(free_vars(f)), "onestep_top_check")
    top = lax.full_atoms()
    return _accepted(lax.gen, top, [compile_membership(f, lax.n)]) == top


def lax_to_json(lax: LaxAlgebra) -> dict:
    obj = baxspace_to_json(lax.space)
    obj["gen"] = [_set_lanes(bits) for bits in lax.gen]
    return obj


@lru_cache(maxsize=8)
def _index_texts(count: int) -> tuple[str, ...]:
    """Entry i is atom index i as decimal text followed by a comma, for
    the `count` atoms of a space; built once per atom count, and kept for
    the last 8 counts (32,768 atoms, @N at n = 4, take about 2 MB)."""
    return tuple([f"{i}," for i in range(count)])


def lax_text(lax: LaxAlgebra) -> str:
    """`lax_to_json(lax)` as compact JSON text: the members from
    `baxspace_text`, then the gen table.  The atoms' index texts come
    from `_index_texts`; a gen entry joins those its bits select, read as
    flags from its binary digits, lowest first."""
    texts = _index_texts(lax.n_atoms)
    gen = "],[".join(["".join(compress(texts, _lane_flags(bits)))[:-1] for bits in lax.gen])
    return baxspace_text(lax.space)[:-1] + ',"gen":[[' + gen + "]]}"


def lax_from_json(obj: dict) -> LaxAlgebra:
    if not isinstance(obj, dict) or set(obj) != {"n", "axioms", "members", "gen"}:
        raise InvalidInputError("lax algebra: expected keys ['n', 'axioms', 'members', 'gen']")
    space = baxspace_from_json({k: obj[k] for k in ("n", "axioms", "members")})
    raw_gen = obj["gen"]
    if not isinstance(raw_gen, list) or len(raw_gen) != 1 << space.n:
        raise InvalidInputError("lax algebra: gen must list atom sets for every subset mask")
    n_atoms = len(space.famasks())
    gen = []
    for entry in raw_gen:
        bits = 0
        for i in entry:
            if not isinstance(i, int) or not 0 <= i < n_atoms:
                raise InvalidInputError("lax algebra: gen entries must be atom indices")
            bits |= 1 << i
        gen.append(bits)
    if tuple(gen) != transpose(space.famasks(), 1 << space.n):
        raise InvalidInputError("lax algebra: gen must be the transpose of members")
    return LaxAlgebra(space, tuple(gen))
