import random
from itertools import product

import pytest

from nbhd.bitslice import family_accepts
from nbhd.core import CapExceededError, InvalidInputError, NeighborhoodAlgebra, famask_members, full_mask
from nbhd.evaluate import (
    ASSIGN_SPACE_GUARD,
    assignment_at,
    assignment_space,
    compile_algebra,
    compile_membership,
    eval_box_free,
    eval_formula,
    find_refuting_assignment,
    is_ax_subset,
    realize_axiom,
    theta_t_member,
    validates,
)
from nbhd.formulas import And, Box, Not, Top, Var, axiom_set_from_specs, expand_named, parse

import oracles


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


def test_is_ax_subset_semantic_axioms():
    axs = axiom_set_from_specs(["@CInf"], 2)
    got = sorted(fm for fm in range(16) if is_ax_subset(fm, axs, 2))
    # Exactly the nonempty principal families: up-cones of 0..3.
    sets = {fm: {oracles.mask_to_set(a) for a in famask_members(fm)} for fm in range(16)}
    want = sorted(fm for fm in range(16) if fm and oracles.is_up_closed(sets[fm], 2) and oracles.is_pair_meet_closed(sets[fm]))
    assert got == want
