"""Formula evaluation on powerset algebras and family membership tests.

Two routes compute every semantic question.  The definitional route
(eval_formula, theta_t_member) recurses over the AST and is the reference.
The compiled route lowers a formula to postfix programs once and runs
them bit-sliced (nbhd.bitslice) over every assignment or every family at
once; validates and is_ax_subset use it.  Tests hold the two routes equal.

A family W is a phi-subset when the transposed valuation puts W inside
the value of phi under every assignment of subsets to variables: a boxed
box-free argument contributes "argument value is a member of W", and the
Boolean structure is evaluated on top.  Families of that kind are never
materialized as sets of families; everything is a membership predicate.
A formula of modal depth 1 with naked variables is such a predicate at
each point x, the naked variables read at x (`compile_pointwise`).

A membership program holds one row per distinct constraint on W, not one
per assignment.  Its rows are built bit-sliced as well: every assignment
is a lane, each boxed argument is evaluated over all lanes at once, and
the subsets it takes are read off its planes as one column.  A one-step
formula constrains W under an assignment only through the memberships of
the subsets that assignment names (Schroeder and Pattinson, "Shallow
models for non-iterative modal logics", KI 2008), so assignments that
name the same subsets and forbid the same memberships of them give one
row, and an assignment that forbids none gives no row.

A formula reaches this module resolved at a width n: `compile_target`
gives a target string's formula through `formulas.resolve`, and
`realize_axiom` an axiom's, a kappa axiom resolved again at n.
"""

from __future__ import annotations

import sys
from array import array
from collections.abc import Iterable
from functools import lru_cache

from .bitslice import _ARRAY_CODES, _index_planes, _row_sweep, _variable_planes, algebra_refute, family_accepts
from .core import PLAIN_OP_CAP, CapExceededError, InvalidInputError, NeighborhoodAlgebra, _check_famask, _setattr, _Value, check_width, full_mask
from .formulas import And, Axiom, AxiomSet, Box, Formula, Not, Top, Var, expand_named, free_vars, is_one_step, modal_depth, render, resolve

ASSIGN_SPACE_GUARD = 1 << 18

# Binary digits "0" and "1" as flag bytes 0 and 1.
_FLAGS = bytes.maketrans(b"01", b"\x00\x01")


def assignment_space(n: int, k: int, what: str) -> int:
    space = (1 << n) ** k
    if space > ASSIGN_SPACE_GUARD:
        raise CapExceededError(f"{what}: assignment space (2^{n})^{k} exceeds guard {ASSIGN_SPACE_GUARD}")
    return space


def eval_box_free(f: Formula, env: dict[str, int], n: int) -> int:
    """Subset value of the box-free f over n points.  Only the full set
    `full_mask(n)` enters, so values given as planes laid end to end, n
    planes of L lanes each, are evaluated on every lane at once at width
    n * L (`_membership_program`)."""
    full = full_mask(n)
    if isinstance(f, Var):
        try:
            return env[f.name]
        except KeyError:
            raise InvalidInputError(f"unbound variable {f.name!r}")
    if isinstance(f, Top):
        return full
    if isinstance(f, Not):
        return full ^ eval_box_free(f.sub, env, n)
    if isinstance(f, And):
        value = full
        for item in f.items:
            value &= eval_box_free(item, env, n)
        return value
    raise InvalidInputError("eval_box_free: formula contains a box")


def eval_formula(alg: NeighborhoodAlgebra, f: Formula, env: dict[str, int]) -> int:
    """Subset value of f in the algebra under the given assignment."""
    full = full_mask(alg.n)
    if isinstance(f, Var):
        try:
            value = env[f.name]
        except KeyError:
            raise InvalidInputError(f"unbound variable {f.name!r}")
        if type(value) is not int or not 0 <= value <= full:
            raise InvalidInputError(f"assignment for {f.name!r} is not a subset mask for n={alg.n}")
        return value
    if isinstance(f, Top):
        return full
    if isinstance(f, Not):
        return full ^ eval_formula(alg, f.sub, env)
    if isinstance(f, And):
        value = full
        for item in f.items:
            value &= eval_formula(alg, item, env)
        return value
    if isinstance(f, Box):
        return alg.box[eval_formula(alg, f.sub, env)]
    raise InvalidInputError(f"eval_formula: not a formula node: {f!r}")


def theta_t_member(famask: int, f: Formula, env: dict[str, int], n: int) -> bool:
    """Membership of the family famask in the transposed value of a one-step f."""
    if isinstance(f, Box):
        return famask >> eval_box_free(f.sub, env, n) & 1 == 1
    if isinstance(f, Top):
        return True
    if isinstance(f, Not):
        return not theta_t_member(famask, f.sub, env, n)
    if isinstance(f, And):
        return all(theta_t_member(famask, item, env, n) for item in f.items)
    raise InvalidInputError("theta_t_member: formula is not one-step")


def assignment_at(names: list[str], n: int, idx: int) -> dict[str, int]:
    """Assignment for index idx: first variable is the most significant digit."""
    m = 1 << n
    values = {}
    for i in range(len(names) - 1, -1, -1):
        values[names[i]] = idx % m
        idx //= m
    return {name: values[name] for name in names}


class MembershipProgram(_Value):
    """Postfix membership code over slots at width n.

    n_rows counts the assignments.  An assignment gives a row, its tuple of
    slot entries: a boxed argument's subset mask, or for a naked variable
    2^n or 2^n + 1 (`_membership_program`).  The row's constraint is its
    sorted distinct entries with the memberships of them under which the
    code fails, entry 2^n read as never a member and 2^n + 1 as always
    one.  rows holds one row per distinct constraint, the first in
    assignment order, and none whose code never fails.  A family is
    accepted when the code holds on every row."""

    __slots__ = _fields = ("names", "opcodes", "opargs", "n", "n_rows", "rows")

    def __init__(
        self, names: tuple[str, ...], opcodes: tuple[int, ...], opargs: tuple[int, ...], n: int, n_rows: int, rows: tuple[tuple[int, ...], ...]
    ) -> None:
        _setattr(self, "names", names)
        _setattr(self, "opcodes", opcodes)
        _setattr(self, "opargs", opargs)
        _setattr(self, "n", n)
        _setattr(self, "n_rows", n_rows)
        _setattr(self, "rows", rows)


class AlgebraProgram(_Value):
    __slots__ = _fields = ("names", "opcodes", "opargs")

    def __init__(self, names: tuple[str, ...], opcodes: tuple[int, ...], opargs: tuple[int, ...]) -> None:
        _setattr(self, "names", names)
        _setattr(self, "opcodes", opcodes)
        _setattr(self, "opargs", opargs)


def _implication(f: Formula) -> tuple[Formula, Formula] | None:
    """(a, b) when f is a -> b as the parser stores it, ~(a & ~b), else None."""
    if isinstance(f, Not) and isinstance(f.sub, And) and len(f.sub.items) == 2 and isinstance(f.sub.items[1], Not):
        return f.sub.items[0], f.sub.items[1].sub
    return None


def _iff_operands(f: And) -> tuple[Formula, Formula] | None:
    """(a, b) when f is a <-> b as the parser stores it, the and of
    a -> b and b -> a, else None."""
    if len(f.items) != 2:
        return None
    first, second = map(_implication, f.items)
    return first if first is not None and second is not None and first == second[::-1] else None


def _lower(f: Formula, opcodes: list[int], opargs: list[int], on_box, var_slot) -> None:
    """Append f's postfix code: opcode 0 for a boxed or naked slot
    (through the callbacks), 1 true, 2 not, 3 an and of arg operands, 5
    an or of arg operands, 6 the equality of two.  Two patterns of the
    desugared connectives fuse into one operation.  ~(x1 & ... & xk)
    with at least half its items negations is the or of their
    complements, the complement of ~y being y: a -> b, stored as
    ~(a & ~b), is ~a | b, and a | b, stored as ~(~a & ~b), one or.
    a <-> b (`_iff_operands`) is the xnor of a and b, each lowered once.  Slots keep the order in
    which they first occur, left to right."""
    if isinstance(f, Box):
        on_box(f, opcodes, opargs)
    elif isinstance(f, Top):
        opcodes.append(1)
        opargs.append(0)
    elif isinstance(f, Not):
        sub = f.sub
        if isinstance(sub, And) and sub.items and 2 * sum(isinstance(item, Not) for item in sub.items) >= len(sub.items):
            for item in sub.items:
                _lower(item.sub if isinstance(item, Not) else Not(item), opcodes, opargs, on_box, var_slot)
            opcodes.append(5)
            opargs.append(len(sub.items))
        else:
            _lower(sub, opcodes, opargs, on_box, var_slot)
            opcodes.append(2)
            opargs.append(0)
    elif isinstance(f, And):
        pair = _iff_operands(f)
        items, op, arg = (f.items, 3, len(f.items)) if pair is None else (pair, 6, 0)
        for item in items:
            _lower(item, opcodes, opargs, on_box, var_slot)
        opcodes.append(op)
        opargs.append(arg)
    elif isinstance(f, Var):
        var_slot(f, opcodes, opargs)
    else:
        raise InvalidInputError(f"cannot lower {f!r}")


def _column(value: int, bits: int, lanes: int, size: int) -> array:
    """Per lane i, the entry whose bit x is bit x * lanes + i of value, as
    an array of `size`-byte items: the value's binary digits give one flag
    byte per lane per bit, and each bit's flags are spread `size` bytes
    apart and shifted into place.  (`bitslice.transpose` would cut one
    shift of the whole block per lane, quadratic in the lanes.)"""
    flags = format(value, f"0{bits * lanes}b")[::-1].encode().translate(_FLAGS)
    packed = 0
    for x in range(bits):
        spread = bytearray(lanes * size)
        spread[::size] = flags[x * lanes:(x + 1) * lanes]
        packed |= int.from_bytes(spread, "little") << x
    column = array(_ARRAY_CODES[size], packed.to_bytes(lanes * size, "little"))
    if sys.byteorder == "big":
        column.byteswap()
    return column


def _membership_program(f: Formula, n: int, point: int | None) -> MembershipProgram:
    """The one row builder: f, of modal depth at most 1, lowered with one
    slot per distinct boxed argument and per distinct naked variable.  A
    boxed slot's row entry is its argument's value, a subset mask below
    2^n.  A naked variable p is read at the point: its entry is 2^n + 1
    when the point lies in V(p) and 2^n otherwise, so the membership
    planes of the subsets are followed by an empty and a full plane.

    Every assignment is a lane: each slot's value is `eval_box_free` over
    all lanes at once, its n planes laid end to end (`_variable_planes`),
    and its entries are read off as one column (`_column`).  Which
    memberships a row forbids (`MembershipProgram`) depends only on which
    of its slots share an entry, so the program's own row sweep decides
    it once per such pattern, over the 2^d membership lanes of the row's
    d distinct entries."""
    names = free_vars(f)
    n_rows = assignment_space(n, len(names), "compile_membership")
    slots: dict[Formula, int] = {}
    opcodes: list[int] = []
    opargs: list[int] = []

    def slot(node: Formula, ops: list[int], args: list[int]) -> None:
        ops.append(0)
        args.append(slots.setdefault(node, len(slots)))

    _lower(f, opcodes, opargs, slot, slot)
    planes = _variable_planes(n, len(names))
    env = {name: sum(plane << x * n_rows for x, plane in enumerate(value)) for name, value in zip(names, planes)}
    width = n * n_rows  # a value's n planes, end to end
    lane_mask = (1 << n_rows) - 1
    size = min(size for size in _ARRAY_CODES if n < 8 * size)
    columns = []
    for node in sorted(slots, key=slots.get):
        if isinstance(node, Box):
            value = eval_box_free(node.sub, env, width)
        else:
            value = env[node.name] >> point * n_rows & lane_mask | lane_mask << width
        columns.append(_column(value, n + 1, n_rows, size))
    sweep = _row_sweep(tuple(opcodes), tuple(opargs))
    forbidden: dict[tuple[int, ...], int] = {}
    rows: dict[tuple[tuple[int, ...], int], tuple[int, ...]] = {}
    # Without slots, the one assignment gives the empty row.
    for row in dict.fromkeys(zip(*columns)) if columns else [()]:
        entries = sorted(set(row))
        rank = {entry: i for i, entry in enumerate(entries)}
        pattern = tuple([rank[entry] for entry in row])
        if pattern not in forbidden:
            every = (1 << (1 << len(entries))) - 1
            forbidden[pattern] = every ^ sweep(_index_planes(len(entries)), every, (pattern,), every)
        fails = forbidden[pattern]
        for entry in entries[-2:]:
            if entry >> n:  # a naked variable's plane: empty at 2^n, full at 2^n + 1
                plane = _index_planes(len(entries))[rank[entry]]
                fails &= plane if entry > 1 << n else ~plane
        if fails:
            rows.setdefault((tuple(entries), fails), row)
    return MembershipProgram(tuple(names), tuple(opcodes), tuple(opargs), n, n_rows, tuple(rows.values()))


@lru_cache(maxsize=512)
def compile_membership(f: Formula, n: int) -> MembershipProgram:
    """Lower a one-step formula for the family-membership kernel."""
    if not is_one_step(f):
        raise InvalidInputError(f"not a one-step formula: {render(f)}")
    return _membership_program(f, n, None)


@lru_cache(maxsize=512)
def compile_pointwise(f: Formula, n: int) -> tuple[MembershipProgram, ...]:
    """Per point x of an n-point frame, the membership program of a formula
    of modal depth at most 1 at x: a family W passes when f holds at x in
    every model on a frame whose N(x) is W.  The test reads only x and
    N(x), so f is valid on a frame exactly when every N(x) passes at x.
    Without a naked variable f is one-step and every point shares its
    `compile_membership` program."""
    depth = modal_depth(f)
    if depth > 1:
        raise InvalidInputError(f"modal depth {depth} exceeds 1: {render(f)}")
    if is_one_step(f):
        return (compile_membership(f, n),) * n
    return tuple(_membership_program(f, n, x) for x in range(n))


@lru_cache(maxsize=512)
def compile_algebra(f: Formula) -> AlgebraProgram:
    """Lower any formula for the assignment-sweep kernel over a box table.
    A box's oparg numbers its argument, so equal boxed subformulas share
    one number and the kernel applies the box to them once."""
    names = free_vars(f)
    index = {name: i for i, name in enumerate(names)}
    opcodes: list[int] = []
    opargs: list[int] = []
    boxes: dict[Formula, int] = {}

    def on_box(node: Box, ops: list[int], args: list[int]) -> None:
        _lower(node.sub, ops, args, on_box, var_slot)
        ops.append(4)
        args.append(boxes.setdefault(node.sub, len(boxes)))

    def var_slot(node: Var, ops: list[int], args: list[int]) -> None:
        ops.append(0)
        args.append(index[node.name])

    _lower(f, opcodes, opargs, on_box, var_slot)
    return AlgebraProgram(tuple(names), tuple(opcodes), tuple(opargs))


def find_refuting_assignment(alg: NeighborhoodAlgebra, f: Formula) -> dict[str, int] | None:
    """First assignment (lexicographic, first variable outermost) where f
    falls short of the full set, or None when f is valid."""
    program = compile_algebra(f)
    assignment_space(alg.n, len(program.names), "validates")
    idx = algebra_refute(alg.box, alg.n, program.opcodes, program.opargs, len(program.names))
    if idx < 0:
        return None
    return assignment_at(list(program.names), alg.n, idx)


def validates(alg: NeighborhoodAlgebra, f: Formula) -> bool:
    return find_refuting_assignment(alg, f) is None


def realize_axiom(ax: Axiom, n: int) -> Formula:
    """The axiom's formula at width n: a kappa axiom is resolved again at
    n, so one resolved at another width degrades or not as n asks."""
    if ax.kappa is not None:
        ax = expand_named(ax.name, n)
    return ax.formula


def compile_target(text: str | None, n: int) -> Formula | None:
    """The target formula, or None, from a target string, resolving
    registry names at width n."""
    return None if text is None else resolve(text.strip(), n).formula


def _membership_programs(axioms: Iterable[Axiom], n: int) -> list[MembershipProgram]:
    """The compiled membership program of each axiom at width n, kept on
    the axiom by width: only the first lookup hashes its formula."""
    programs = []
    for ax in axioms:
        program = ax._programs.get(n)
        if program is None:
            program = ax._programs[n] = compile_membership(realize_axiom(ax, n), n)
        programs.append(program)
    return programs


def is_ax_subset(famask: int, axs: AxiomSet, n: int) -> bool:
    """True when the family famask is a phi-subset for every axiom in the
    set: one engine run of all their membership programs."""
    check_width(n, PLAIN_OP_CAP, "is_ax_subset")
    _check_famask(famask, n, "is_ax_subset")
    return family_accepts(famask, 1 << n, _membership_programs(axs, n))
