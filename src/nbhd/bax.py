"""Ax-subset spaces of the double powerset and their action on point maps.

For an axiom set Ax over ground size n, the space collects every family
of subsets that is a phi-subset for all phi in Ax, in ascending famask
order so indices are stable atom identifiers.  A point map f acts by
sending a family W to { a' | preimage of a' lies in W }, which stays
inside the codomain space; enumerate + act is the finite functor.
Families are famask ints throughout: `bax_map`, `index_of` and
`principal_iso` take and return them.  A space holds its families as a
`bitslice.Lanes` view, the lanes its route accepted over the famasks it
swept, so `len(space.lanes)` counts them without decoding any, and
`famasks()` decodes them once, into a tuple.  `baxspace_chunks` writes
a space's compact JSON from its lanes, as a list of text chunks that
is never joined into one string, through a text table per base: the
base's famasks split into runs that share their high half (the sets
with the top point), each with its high half's text and its famasks'
low-half texts (the sets without it).  A run is selected by comparing
its span of the mask's bytes with all-set and all-clear, and a run with
every lane set is written from its text, joined once and kept in the
table.  The tables of the two bases `enumerate_bax` sweeps are built
once and cached.  `baxspace_to_json` is the definitional dict codec the
joined chunks must match.

`enumerate_bax` is the one route from an axiom set to its families.
When some axiom forces up-closure (@M, @C, @CInf, or a degraded @Ck) it
takes the up-set route, n <= 5: the up-closed families, tabulated once
per n in ascending order as pairs of up-closed families over one point
fewer, are filtered in cached bit-sliced blocks.  The @M program is
not compiled there, as the construction guarantees @M; @N is one row,
which drops only the empty family.  Otherwise it sweeps all 2^(2^n)
famasks through the membership programs, bit-sliced with one lane per
famask, n <= 4.  Both give the same ascending space wherever
both apply.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from functools import lru_cache
from itertools import compress
from operator import lt

from .bitslice import Lanes, _upsets, family_filter, upset_enumerate
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
    _dense,
    _json_famask,
    _lane_flags,
    _push_forward,
    _set_lanes,
    _setattr,
    _Value,
    check_width,
    up_cone,
)
from .evaluate import _membership_programs, is_ax_subset
from .formulas import AxiomSet, axiom_set_from_specs, expand_named


class BaxSpace(_Value):
    """The Ax-subset families over n points, as the lanes that accepted
    them, whose famasks run in strictly ascending order; the index of a
    famask is its atom.  Given famasks instead of a view, the space holds
    every lane of them."""

    __slots__ = _fields = ("n", "axioms", "lanes")

    def __init__(self, n: int, axioms: AxiomSet, lanes: Lanes) -> None:
        if not isinstance(lanes, Lanes):
            famasks = tuple(lanes)
            lanes = Lanes(famasks, (1 << len(famasks)) - 1)
        _setattr(self, "n", n)
        _setattr(self, "axioms", axioms)
        _setattr(self, "lanes", lanes)

    def famasks(self) -> tuple[int, ...]:
        """The famasks, decoded on the first call; later calls return the
        same tuple."""
        return self.lanes.famasks

    def index_of(self, famask: int) -> int:
        famasks = self.famasks()
        i = bisect_left(famasks, famask)
        if i == len(famasks) or famasks[i] != famask:
            raise InvalidInputError("family is not a member of the space")
        return i


def _is_registry(ax, name: str) -> bool:
    """Is ax the registry axiom of that name, not only named like it?"""
    entry = expand_named(name)
    return ax is entry or ax.name == name and ax == entry


def _forces_up_closure(axs: AxiomSet) -> bool:
    # box(u & v) -> box u is @M and one half of @C.
    return any(_is_registry(ax, "M") or _is_registry(ax, "C") or ax.semantic is not None for ax in axs)


def enumerate_bax(n: int, axs: AxiomSet) -> BaxSpace:
    """All Ax-subset families over ground size n, ascending famask order:
    from the up-closed families when an axiom forces up-closure (refused
    past its cap under the name `enumerate_bax[backtrack]`), filtered
    otherwise."""
    if not _forces_up_closure(axs):
        check_width(n, ENUM_FILTER_CAP, "enumerate_bax[filter]")
        lanes = family_filter(0, 1 << (1 << n), _membership_programs(axs, n))
    else:
        check_width(n, ENUM_BACKTRACK_CAP, "enumerate_bax[backtrack]")
        # Up-closure is guaranteed by construction, so the @M rows would
        # pass every family: @M is dropped before it is compiled.
        lanes = upset_enumerate(n, _membership_programs([ax for ax in axs if not _is_registry(ax, "M")], n))
    return BaxSpace(n, axs, lanes)


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
    failures = [{"family": _set_lanes(w), "image": _set_lanes(image)} for w, image in zip(dom, images) if image not in cod_famasks]
    checked = len(dom)
    if g is not None:
        push_gf, push_g = _push_forward(compose_morphisms(g, f)), _push_forward(g)
        for w, image in zip(dom, images):
            direct, staged = push_gf(w), push_g(image)
            if direct != staged:
                failures.append({"family": _set_lanes(w), "direct": _set_lanes(direct), "staged": _set_lanes(staged)})
        checked += len(dom)
    return {"functorial": not failures, "checked": checked, "failures": failures}


def baxspace_to_json(space: BaxSpace) -> dict:
    return {"n": space.n, "axioms": space.axioms.specs(), "members": [_set_lanes(fm) for fm in space.famasks()]}


@lru_cache(maxsize=None)
def _byte_texts() -> tuple[tuple[str, ...], ...]:
    """Per byte position k, the indices 8k + j of a byte's set bits j as
    decimal text, each followed by a comma; built on first use, not at
    import."""
    return tuple(tuple("".join(f"{i}," for i in row) for row in rows) for rows in (_BYTE_BITS, _ROW1, _ROW2, _ROW3))


def _lane_text(x: int) -> str:
    """The indices of x's set bits as decimal text, each followed by a
    comma: four table lookups below 2^32, `_set_lanes` above."""
    if not x >> 32:
        t0, t1, t2, t3 = _byte_texts()
        return t0[x & 255] + t1[x >> 8 & 255] + t2[x >> 16 & 255] + t3[x >> 24]
    return "".join([f"{i}," for i in _set_lanes(x)])


def _runs(base, n: int):
    """The text table of a base of ascending famasks over n points, as
    (per_bit, rows, kept).  A row is a run of lanes [a, b) whose famasks
    share their high half: the span [i, j) of the run in the mask's
    selection bytes, the span's values with every lane set and with none,
    the low texts of the run's famasks, the separator between members and
    the tail after the last.  kept[k] is the text of row k with every
    lane set, None until a call first writes it.

    The selection bytes hold one bit per lane, `mask.to_bytes`, when
    every run starts on a byte (per_bit, as in every sweep), and one flag
    byte per lane otherwise.

    Each famask splits at bit `shift` = max(8, 2^(n-1)) into a low half,
    the members without the top point, and a high half, those with it
    (the L/H split of `bitslice._upsets`).  A member's text is its low
    text, then its high half's text without the last comma.  Only the
    first run can have an empty high half; its low texts lose their last
    comma instead.  In a sweep below 2^16, the low texts of a run of
    consecutive famasks are one slice of the byte texts; elsewhere each
    distinct low half's text is built once."""
    shift = max(8, (1 << n) >> 1)
    low = (1 << shift) - 1
    byte_texts = _byte_texts()[0]
    if shift == 8 and type(base) is range:
        low_texts = None
    else:
        lows = [famask & low for famask in base]
        text_of = {x: _lane_text(x) for x in set(lows)}
        low_texts = tuple(map(text_of.__getitem__, lows))
    runs = []
    a = 0
    while a < len(base):
        high = base[a] >> shift
        b = bisect_left(base, (high + 1) << shift, a)
        texts = byte_texts[base[a] & low:(base[b - 1] & low) + 1] if low_texts is None else low_texts[a:b]
        if high:
            high_text = _lane_text(high << shift)[:-1]
            runs.append((a, b, texts, high_text + "],[", high_text))
        else:
            runs.append((a, b, tuple([text[:-1] for text in texts]), "],[", ""))
        a = b
    per_bit = all(not a & 7 for a, *_ in runs)
    rows = []
    for a, b, texts, sep, tail in runs:
        if per_bit:
            i, j = a >> 3, (b + 7) >> 3
            full = ((1 << (b - a)) - 1).to_bytes(j - i, "little")
        else:
            i, j, full = a, b, b"\1" * (b - a)
        rows.append((i, j, full, bytes(j - i), texts, sep, tail))
    return per_bit, tuple(rows), [None] * len(rows)


@lru_cache(maxsize=32)
def _kept_runs(n: int, sweep: range | None):
    """`_runs` of a range of famasks, or of `bitslice._upsets(n)` when
    sweep is None: built once per base, with the texts of its full runs
    kept as calls write them.  A base keeps at most the text of its every
    famask, 1.38 MB for the sweep at n = 4 and 0.36 MB for the
    up-closed families at n = 5, and at most 32 bases are kept."""
    return _runs(_upsets(n) if sweep is None else sweep, n)


def _text_table(base, n: int):
    """The text table of base: kept for a range, as `family_filter`
    sweeps, and for `_upsets(n)`, told by identity so that no lookup
    hashes its famasks; built on the call for any other base."""
    if type(base) is range:
        return _kept_runs(n, base)
    if n <= ENUM_BACKTRACK_CAP and base is _upsets(n):
        return _kept_runs(n, None)
    return _runs(base, n)


def _picked(texts, bits: int):
    """The texts at the set bits of bits, lowest first: one lookup per
    set bit, or `compress` over flag bytes when bits is dense."""
    if _dense(bits):
        return compress(texts, _lane_flags(bits))
    picked = []
    while bits:
        low = bits & -bits
        picked.append(texts[low.bit_length() - 1])
        bits ^= low
    return picked


def baxspace_chunks(space: BaxSpace) -> list[str]:
    """`baxspace_to_json(space)` as compact JSON text in chunks, written
    from the space's lanes without decoding them: the head, one chunk per
    run of the base's text table (`_runs`) that holds a member, with the
    "],[" between two runs as an item of its own, and the closing "]]}".

    Each run reads its span of the mask's selection bytes and compares
    it whole: a run with no lane set is skipped, and a run with every
    lane set is the table's kept text, joined on the first call that
    writes it and the same object on every later one.  Any other run
    selects its low texts from its set lanes (`_picked`), or through
    `compress` when the table holds flag bytes."""
    lanes = space.lanes
    per_bit, rows, kept = _text_table(lanes.base, space.n)
    if per_bit:
        select = lanes.mask.to_bytes((len(lanes.base) + 7) >> 3, "little")
    else:
        select = _lane_flags(lanes.mask).ljust(len(lanes.base), b"\0")
    chunks = []
    for k, (i, j, full, empty, texts, sep, tail) in enumerate(rows):
        run = select[i:j]
        if run == empty:
            continue
        if run == full:
            text = kept[k]
            if text is None:
                text = kept[k] = sep.join(texts) + tail
        else:
            members = _picked(texts, int.from_bytes(run, "little")) if per_bit else compress(texts, run)
            text = sep.join(members) + tail
        chunks += ("],[", text)
    head = '{"n":%d,"axioms":[%s],"members":[' % (space.n, ",".join(map(json.dumps, space.axioms.specs())))
    if not chunks:
        return [head + "]}"]
    chunks[0] = head + "["
    chunks.append("]]}")
    return chunks


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
