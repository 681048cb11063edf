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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .bitslice import algebra_refute, family_accepts
from .core import PLAIN_OP_CAP, CapExceededError, InvalidInputError, NeighborhoodAlgebra, check_width, full_mask
from .formulas import And, Axiom, AxiomSet, Box, Formula, Not, Top, Var, expand_named, free_vars, is_one_step, render

ASSIGN_SPACE_GUARD = 1 << 18


def assignment_space(n: int, k: int, what: str) -> int:
    space = (1 << n) ** k
    if space > ASSIGN_SPACE_GUARD:
        raise CapExceededError(f"{what}: assignment space (2^{n})^{k} exceeds guard {ASSIGN_SPACE_GUARD}")
    return space


def eval_box_free(f: Formula, env: dict[str, int], n: int) -> int:
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


@dataclass(frozen=True)
class MembershipProgram:
    """Postfix membership code over box-argument slots at width n.

    n_rows counts the assignments; rows holds the distinct tuples of
    box-argument masks they produce, one mask per slot, in first-seen
    order.  A family is accepted when the code holds on every row."""

    names: tuple[str, ...]
    opcodes: tuple[int, ...]
    opargs: tuple[int, ...]
    n: int
    n_slots: int
    n_rows: int
    rows: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class AlgebraProgram:
    names: tuple[str, ...]
    opcodes: tuple[int, ...]
    opargs: tuple[int, ...]


def _lower(f: Formula, opcodes: list[int], opargs: list[int], on_box, var_slot) -> None:
    if isinstance(f, Box):
        on_box(f, opcodes, opargs)
    elif isinstance(f, Top):
        opcodes.append(1)
        opargs.append(0)
    elif isinstance(f, Not):
        _lower(f.sub, opcodes, opargs, on_box, var_slot)
        opcodes.append(2)
        opargs.append(0)
    elif isinstance(f, And):
        for item in f.items:
            _lower(item, opcodes, opargs, on_box, var_slot)
        opcodes.append(3)
        opargs.append(len(f.items))
    elif isinstance(f, Var):
        var_slot(f, opcodes, opargs)
    else:
        raise InvalidInputError(f"cannot lower {f!r}")


@lru_cache(maxsize=512)
def compile_membership(f: Formula, n: int) -> MembershipProgram:
    """Lower a one-step formula for the family-membership kernel."""
    if not is_one_step(f):
        raise InvalidInputError(f"not a one-step formula: {render(f)}")
    names = free_vars(f)
    n_rows = assignment_space(n, len(names), "compile_membership")
    slots: dict[Formula, int] = {}
    opcodes: list[int] = []
    opargs: list[int] = []

    def on_box(node: Box, ops: list[int], args: list[int]) -> None:
        slot = slots.setdefault(node.sub, len(slots))
        ops.append(0)
        args.append(slot)

    def var_slot(node: Var, ops: list[int], args: list[int]) -> None:
        raise InvalidInputError("naked variable in one-step formula")

    _lower(f, opcodes, opargs, on_box, var_slot)
    slot_asts = sorted(slots, key=slots.get)
    rows: dict[tuple[int, ...], None] = {}
    for idx in range(n_rows):
        env = assignment_at(names, n, idx)
        rows[tuple(eval_box_free(ast, env, n) for ast in slot_asts)] = None
    return MembershipProgram(tuple(names), tuple(opcodes), tuple(opargs), n, len(slots), n_rows, tuple(rows))


@lru_cache(maxsize=512)
def compile_algebra(f: Formula) -> AlgebraProgram:
    """Lower any formula for the assignment-sweep kernel over a box table."""
    names = free_vars(f)
    index = {name: i for i, name in enumerate(names)}
    opcodes: list[int] = []
    opargs: list[int] = []

    def on_box(node: Box, ops: list[int], args: list[int]) -> None:
        _lower(node.sub, ops, args, on_box, var_slot)
        ops.append(4)
        args.append(0)

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


def _split_axioms(axs: AxiomSet, n: int):
    """(axiom, compiled membership program) pairs."""
    return [(ax, compile_membership(realize_axiom(ax, n), n)) for ax in axs]


def is_ax_subset(famask: int, axs: AxiomSet, n: int) -> bool:
    """True when the family famask is a phi-subset for every axiom in the
    set: one engine run of all their membership programs."""
    check_width(n, PLAIN_OP_CAP, "is_ax_subset")
    return family_accepts(famask, 1 << n, [prog for _, prog in _split_axioms(axs, n)])
