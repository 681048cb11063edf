import dataclasses
import random
from itertools import product

import pytest

from nbhd import evaluate
from nbhd.bitslice import family_accepts, family_filter
from nbhd.core import CapExceededError, InvalidInputError, NeighborhoodAlgebra, famask_members, full_mask
from nbhd.evaluate import (
    ASSIGN_SPACE_GUARD,
    assignment_at,
    assignment_space,
    compile_algebra,
    compile_membership,
    compile_pointwise,
    eval_box_free,
    eval_formula,
    find_refuting_assignment,
    is_ax_subset,
    realize_axiom,
    theta_t_member,
    validates,
)
from nbhd.formulas import And, Box, Not, Top, Var, axiom_set_from_specs, expand_named, is_one_step, parse

import oracles
from conftest import given, st
from test_bax import SPACES


ALG = NeighborhoodAlgebra(2, (2, 1, 0, 1))


def to_tree(f):
    if isinstance(f, Var):
        return ("var", f.name)
    if isinstance(f, Top):
        return ("top",)
    if isinstance(f, Not):
        return ("not", to_tree(f.sub))
    if isinstance(f, And):
        return ("and", [to_tree(item) for item in f.items])
    if isinstance(f, Box):
        return ("box", to_tree(f.sub))
    raise AssertionError(f)


def test_eval_formula_on_fixed_algebra():
    assert eval_formula(ALG, parse("box u"), {"u": 3}) == 1
    assert eval_formula(ALG, parse("box u"), {"u": 0}) == 2
    assert eval_formula(ALG, parse("~u"), {"u": 1}) == 2
    assert eval_formula(ALG, parse("u & v"), {"u": 3, "v": 2}) == 2
    assert eval_formula(ALG, parse("T"), {}) == 3
    assert eval_formula(ALG, parse("box box u"), {"u": 3}) == 1
    with pytest.raises(InvalidInputError):
        eval_formula(ALG, parse("u"), {})
    with pytest.raises(InvalidInputError):
        eval_formula(ALG, parse("u"), {"u": 9})


def test_eval_box_free_matches_set_oracle():
    rng = random.Random(3)
    texts = ("u", "~u", "u & v", "~(u & ~v)", "T", "F", "u | v", "u -> v")
    for n in (0, 1, 2, 3):
        full = full_mask(n)
        for text in texts:
            f = parse(text)
            tree = to_tree(f)
            for _ in range(20):
                env = {"u": rng.randint(0, full), "v": rng.randint(0, full)}
                env_sets = {k: oracles.mask_to_set(v) for k, v in env.items()}
                want = oracles.set_to_mask(oracles.eval_box_free(tree, env_sets, n))
                assert eval_box_free(f, env, n) == want
    with pytest.raises(InvalidInputError):
        eval_box_free(parse("box u"), {"u": 0}, 1)


def test_theta_membership_matches_set_oracle():
    rng = random.Random(5)
    for n in (1, 2, 3):
        full = full_mask(n)
        for name in ("M", "N", "C", "Cont"):
            f = expand_named(name).formula
            tree = to_tree(f)
            for _ in range(40):
                famask = rng.randint(0, (1 << (full + 1)) - 1)
                fam_sets = {oracles.mask_to_set(a) for a in famask_members(famask)}
                env = {"u": rng.randint(0, full), "v": rng.randint(0, full)}
                env_sets = {k: oracles.mask_to_set(v) for k, v in env.items()}
                assert theta_t_member(famask, f, env, n) == oracles.theta_member(fam_sets, tree, env_sets, n)
    with pytest.raises(InvalidInputError):
        theta_t_member(0, parse("u"), {"u": 0}, 1)


def test_membership_program_equals_all_assignment_sweep():
    n = 2
    full = full_mask(n)
    for name in ("M", "N", "C", "Cont", "Conv", "CoConv"):
        f = expand_named(name).formula
        names = compile_membership(f, n).names
        prog = compile_membership(f, n)
        for famask in range(1 << (full + 1)):
            want = all(
                theta_t_member(famask, f, dict(zip(names, vals)), n)
                for vals in product(range(full + 1), repeat=len(names))
            )
            assert family_accepts(famask, 1 << n, [prog]) == want


def test_compile_membership_dedupes_box_arguments():
    # The biconditional repeats each boxed argument; three distinct ones remain.
    prog = compile_membership(expand_named("C").formula, 1)
    assert prog.n_slots == 3
    assert prog.n_rows == 4
    with pytest.raises(InvalidInputError):
        compile_membership(parse("box b -> b"), 1)


# Rows kept per width n = 2, 3, 4, 5: one per distinct constraint.
REDUCED_ROWS = {
    "@M": (5, 19, 65, 211),
    "@C": (6, 28, 120, 496),
    "@Cont": (2, 4, 8, 16),
    "@Conv": (2, 18, 110, 570),
    "@CoConv": (2, 18, 110, 570),
    "@N": (1, 1, 1, 1),
}


def test_compile_membership_keeps_one_row_per_constraint():
    # n_rows still counts the assignments, which the benchmark's
    # evaluate.membership_rows counter sums.
    for spec, counts in REDUCED_ROWS.items():
        for n, count in zip((2, 3, 4, 5), counts):
            f = realize_axiom(expand_named(spec, n), n)
            prog = compile_membership(f, n)
            assert len(prog.rows) == count, (spec, n)
            assert prog.n_rows == (1 << n) ** len(prog.names), (spec, n)
    # T at x: a row whose b holds x reads the full plane and never fails.
    for n in (2, 3, 4):
        f = realize_axiom(expand_named("@T", n), n)
        assert [len(prog.rows) for prog in compile_pointwise(f, n)] == [1 << (n - 1)] * n
    # A valid formula constrains nothing; an unsatisfiable one keeps its row.
    assert compile_membership(parse("box u | ~box u"), 3).rows == ()
    assert compile_membership(parse("F"), 3).rows == ((),)


def test_compile_membership_refuses_before_building_planes(monkeypatch):
    def no_planes(*args):
        raise AssertionError("a plane was built for a refused program")

    monkeypatch.setattr(evaluate, "_variable_planes", no_planes)
    with pytest.raises(CapExceededError, match="exceeds guard"):
        compile_membership(parse("box v1 & box v2 & box v3 & box v4 & box v5"), 4)


def famask_planes(n, famasks):
    """Over one lane per listed famask on n points: each subset's
    membership plane, then the empty and the full plane a naked variable
    reads."""
    planes = [sum(1 << j for j, fm in enumerate(famasks) if fm >> a & 1) for a in range(1 << n)]
    lanes = (1 << len(famasks)) - 1
    return planes + [0, lanes], lanes


def assert_rows_match_oracle(f, n, planes, lanes):
    """At every point (once for a one-step f), the program decides each
    lane as the program with the rows built one assignment at a time
    does; every row it keeps is one of those rows."""
    points = [None] if is_one_step(f) else range(n)
    for point in points:
        prog = compile_membership(f, n) if point is None else compile_pointwise(f, n)[point]
        rows = oracles.membership_rows(f, n, point)
        assert prog.n_rows == (1 << n) ** len(prog.names)
        assert set(prog.rows) <= set(rows), (f, n, point)
        oracle = dataclasses.replace(prog, rows=rows)
        want = oracles.membership_program_lanes([oracle], planes, lanes)
        assert oracles.membership_program_lanes([prog], planes, lanes) == want, (f, n, point)


def test_rows_match_the_assignment_oracle_on_every_famask():
    # Every one-step registry axiom and T, at every point, on every
    # famask through n = 3 (@Ck(1) to @Ck(3) keep their formula at some
    # n and degrade to @C at the others).
    specs = ("@M", "@C", "@N", "@Cont", "@Conv", "@CoConv", "@CInf", "@Ck(1)", "@Ck(2)", "@Ck(3)", "@T")
    for n in range(4):
        planes, lanes = famask_planes(n, range(1 << (1 << n)))
        for spec in specs:
            assert_rows_match_oracle(realize_axiom(expand_named(spec, n), n), n, planes, lanes)


def test_rows_match_the_assignment_oracle_on_every_n4_space():
    for n, specs in SPACES:
        if n == 4:
            formulas = [realize_axiom(ax, n) for ax in axiom_set_from_specs(specs, n)]
            programs = [compile_membership(f, n) for f in formulas]
            oracle = [dataclasses.replace(prog, rows=oracles.membership_rows(f, n)) for prog, f in zip(programs, formulas)]
            assert family_filter(0, 1 << 16, programs) == family_filter(0, 1 << 16, oracle), specs


def test_rows_match_the_assignment_oracle_on_wide_samples():
    # A naked variable's entries, 2^n and 2^n + 1, need two bytes from
    # n = 8, and a boxed argument's from n = 9.  The famasks sampled: the
    # empty and the full family, the up-cone and its complement of a few
    # subsets, and random families.
    rng = random.Random(30)
    cases = [(8, "box (p & q) -> box p"), (8, "box (p & q) | q"), (9, "box p -> p"), (10, "box ~p | p"), (10, "box p & box ~p")]
    for n, text in cases:
        m = 1 << n
        cones = [rng.randrange(m) for _ in range(4)]
        famasks = [0, (1 << m) - 1] + [rng.getrandbits(m) for _ in range(6)]
        for c in cones:
            cone = sum(1 << a for a in range(m) if a & c == c)
            famasks += [cone, cone ^ ((1 << m) - 1)]
        f = parse(text)
        planes, lanes = famask_planes(n, famasks)
        assert_rows_match_oracle(f, n, planes, lanes)
        if not is_one_step(f):
            assert max(entry for prog in compile_pointwise(f, n) for row in prog.rows for entry in row) >= m


@st.composite
def depth1_formulas(draw):
    """A Boolean combination of boxed box-free formulas and box-free
    formulas over p, q and r: one-step when no variable is naked."""
    atoms = st.sampled_from(["p", "q", "r", "T", "F"])
    box_free = st.recursive(
        atoms,
        lambda inner: st.one_of(inner.map(lambda text: f"~{text}"), st.tuples(inner, st.sampled_from(["&", "|", "->"]), inner).map(lambda t: f"({t[0]} {t[1]} {t[2]})")),
        max_leaves=4,
    )
    boxed = box_free.map(lambda text: f"box {text}")
    parts = st.one_of(boxed, boxed, box_free)  # two boxed parts to one naked
    whole = st.recursive(
        parts,
        lambda inner: st.one_of(inner.map(lambda text: f"~{text}"), st.tuples(inner, st.sampled_from(["&", "|", "->", "<->"]), inner).map(lambda t: f"({t[0]} {t[1]} {t[2]})")),
        max_leaves=4,
    )
    return draw(whole)


@given(depth1_formulas(), st.integers(0, 3))
def test_property_rows_match_the_assignment_oracle(text, n):
    planes, lanes = famask_planes(n, range(1 << (1 << n)))
    assert_rows_match_oracle(parse(text), n, planes, lanes)


def test_assignment_at_order_and_keys():
    assert assignment_at(["u", "v"], 1, 0) == {"u": 0, "v": 0}
    assert assignment_at(["u", "v"], 1, 1) == {"u": 0, "v": 1}
    assert assignment_at(["u", "v"], 1, 2) == {"u": 1, "v": 0}
    assert list(assignment_at(["u", "v"], 2, 7)) == ["u", "v"]
    assert assignment_at(["u", "v"], 2, 7) == {"u": 1, "v": 3}
    assert assignment_at([], 2, 0) == {}


def test_assignment_space_guard():
    assert assignment_space(2, 2, "t") == 16
    with pytest.raises(CapExceededError):
        assignment_space(4, 5, "t")
    wide = parse("box v1 & box v2 & box v3 & box v4 & box v5")
    with pytest.raises(CapExceededError):
        compile_membership(wide, 4)
    alg = NeighborhoodAlgebra(4, tuple(0 for _ in range(16)))
    with pytest.raises(CapExceededError):
        find_refuting_assignment(alg, wide)


def test_find_refuting_assignment_is_first_in_documented_order():
    rng = random.Random(9)
    formulas = [expand_named(name).formula for name in ("M", "N", "C", "Cont")]
    formulas.append(parse("box u -> box(u & v)"))
    for _ in range(60):
        n = rng.randrange(0, 3)
        m = 1 << n
        alg = NeighborhoodAlgebra(n, tuple(rng.randrange(m) for _ in range(m)))
        for f in formulas:
            names = compile_algebra(f).names
            want = None
            for idx in range(m ** len(names)):
                env = assignment_at(list(names), n, idx)
                if eval_formula(alg, f, env) != full_mask(n):
                    want = env
                    break
            got = find_refuting_assignment(alg, f)
            assert got == want
            assert validates(alg, f) == (want is None)


def test_validates_on_fixed_algebra():
    assert not validates(ALG, expand_named("M").formula)
    assert not validates(ALG, expand_named("N").formula)
    assert validates(ALG, parse("box T -> box T"))


def test_realize_axiom():
    assert realize_axiom(expand_named("@M"), 2) == parse("box(u & v) -> box u")
    c = parse("box u & box v <-> box(u & v)")
    assert realize_axiom(expand_named("@Ck(4)"), 1) == c
    assert len(compile_algebra(realize_axiom(expand_named("@Ck(4)"), 3)).names) == 4
    assert realize_axiom(expand_named("@CInf"), 2) == parse("box T & (box u & box v <-> box(u & v))")
    # A kappa axiom resolved at one width re-realizes correctly at another.
    degraded = expand_named("@Ck(2)", n=1)
    assert realize_axiom(degraded, 1) == c
    assert realize_axiom(degraded, 3) == expand_named("@Ck(2)").formula


def test_is_ax_subset_matches_axiom_family_oracle():
    for n in (0, 1, 2):
        for names in (["M"], ["N"], ["C"], ["Cont"], ["M", "N"], ["M", "C", "N"]):
            axs = axiom_set_from_specs(["@" + name for name in names], n)
            got = [
                fm
                for fm in range(1 << (1 << n))
                if is_ax_subset(fm, axs, n)
            ]
            assert got == oracles.axiom_subset_families(n, names)


def test_is_ax_subset_refuses_wide_n():
    # Refused before a famask over 2^40 subsets or a membership program is built.
    for specs in (["@M"], ["@CInf"]):
        with pytest.raises(CapExceededError):
            is_ax_subset(0, axiom_set_from_specs(specs), 40)


def test_is_ax_subset_refuses_non_famasks():
    axs = axiom_set_from_specs(["@M"], 2)
    for famask in (-1, 1 << 20 | 8, "8", 8.0):
        with pytest.raises(InvalidInputError, match="is_ax_subset"):
            is_ax_subset(famask, axs, 2)


def test_is_ax_subset_semantic_axioms():
    axs = axiom_set_from_specs(["@CInf"], 2)
    got = sorted(fm for fm in range(16) if is_ax_subset(fm, axs, 2))
    # Exactly the nonempty principal families: up-cones of 0..3.
    sets = {fm: {oracles.mask_to_set(a) for a in famask_members(fm)} for fm in range(16)}
    want = sorted(fm for fm in range(16) if fm and oracles.is_up_closed(sets[fm], 2) and oracles.is_pair_meet_closed(sets[fm]))
    assert got == want
