import random

import pytest

from nbhd.classes import AXIOM_TESTS
from nbhd.core import CapExceededError, InvalidInputError
from nbhd.evaluate import is_ax_subset, realize_axiom
from nbhd.formulas import (
    TOP,
    And,
    Box,
    Not,
    ParseError,
    REGISTRY_NAMES,
    Top,
    Var,
    AxiomSet,
    Axiom,
    axiom_set_from_specs,
    bot,
    disj,
    expand_named,
    free_vars,
    iff,
    implies,
    is_box_free,
    is_one_step,
    modal_depth,
    parse,
    render,
)

U, V, W = Var("u"), Var("v"), Var("w")


def test_parse_basic_shapes():
    assert parse("u") == U
    assert parse("T") == TOP
    assert parse("F") == bot()
    assert parse("~u") == Not(U)
    assert parse("box u") == Box(U)
    assert parse("u & v & w") == And((U, V, W))
    assert parse("u | v") == disj(U, V)
    assert parse("u -> v") == implies(U, V)
    assert parse("u <-> v") == iff(U, V)
    assert parse("(u)") == U


def test_precedence_and_associativity():
    assert parse("~u & v") == And((Not(U), V))
    assert parse("box u & v") == And((Box(U), V))
    assert parse("box (u & v)") == Box(And((U, V)))
    assert parse("u | v & w") == disj(U, And((V, W)))
    assert parse("u -> v -> w") == implies(U, implies(V, W))
    assert parse("u & v -> w") == implies(And((U, V)), W)
    assert parse("~box u") == Not(Box(U))
    assert parse("box ~u") == Box(Not(U))
    assert parse("box box u") == Box(Box(U))


def test_identifiers():
    assert parse("boxer") == Var("boxer")
    assert parse("v1_x") == Var("v1_x")
    with pytest.raises(ParseError):
        parse("box")
    with pytest.raises(ParseError):
        parse("Box u")


def test_parse_error_offsets():
    with pytest.raises(ParseError) as e:
        parse("u &")
    assert e.value.offset == 3
    assert e.value.found == "end of input"
    with pytest.raises(ParseError) as e:
        parse("(u & v")
    assert e.value.offset == 6
    assert e.value.expected == ("')'",)
    with pytest.raises(ParseError) as e:
        parse("u @ v")
    assert e.value.offset == 2
    with pytest.raises(ParseError) as e:
        parse("u v")
    assert e.value.offset == 2
    with pytest.raises(ParseError):
        parse("")
    assert issubclass(ParseError, InvalidInputError)


def test_render_round_trips():
    for text in (
        "u",
        "T",
        "F",
        "~~u",
        "box(u & v) -> box u",
        "box u & box v <-> box(u & v)",
        "box v <-> box ~v",
        "box(v & v1) & box(v | v2) -> box v",
        "box v -> box(v & v1) | box(v | v2)",
        "box b -> b",
        "box b -> box box b",
        "u & (v & w)",
        "(u -> v) -> w",
        "box T",
        "~(u & v) & w",
    ):
        node = parse(text)
        assert parse(render(node)) == node


def test_render_and_arities():
    assert render(And(())) == "T"
    assert render(And((U,))) == "u"
    assert render(And((U, And((V, W))))) == "u & (v & w)"
    assert render(Not(And((U, V)))) == "~(u & v)"
    assert render(Box(And((U, V)))) == "box (u & v)"
    assert render(Not(And((U,)))) == "~u"


def test_render_round_trips_random_asts():
    rng = random.Random(7)
    names = ("u", "v", "w", "p1")

    def gen(depth):
        roll = rng.randrange(6 if depth else 2)
        if roll == 0:
            return Var(rng.choice(names))
        if roll == 1:
            return TOP
        if roll == 2:
            return Not(gen(depth - 1))
        if roll == 3:
            return Box(gen(depth - 1))
        # The parser only ever builds And nodes of arity >= 2.
        return And(tuple(gen(depth - 1) for _ in range(rng.randrange(2, 4))))

    for _ in range(300):
        node = gen(4)
        assert parse(render(node)) == node


def test_free_vars_first_occurrence_order():
    assert free_vars(parse("box(u & v) -> box u")) == ["u", "v"]
    assert free_vars(parse("w & u & w")) == ["w", "u"]
    assert free_vars(TOP) == []


def test_predicates():
    assert is_box_free(parse("u & ~v"))
    assert not is_box_free(parse("box u"))
    assert is_one_step(parse("box(u & v) -> box u"))
    assert is_one_step(parse("box T"))
    assert is_one_step(parse("T"))
    assert not is_one_step(parse("box b -> b"))
    assert not is_one_step(parse("u"))
    assert not is_one_step(parse("box box u"))
    assert modal_depth(parse("u")) == 0
    assert modal_depth(parse("box(u & v) -> box u")) == 1
    assert modal_depth(parse("box b -> box box b")) == 2


def test_registry_fixed_axioms():
    m = expand_named("@M")
    assert m.name == "M" and m.one_step and m.formula == parse("box(u & v) -> box u")
    assert expand_named("C").formula == parse("box u & box v <-> box(u & v)")
    assert expand_named("@N").formula == Box(TOP)
    assert expand_named("@Cont").formula == parse("box v <-> box ~v")
    assert expand_named("@Conv").formula == parse("box(v & v1) & box(v | v2) -> box v")
    assert expand_named("@CoConv").formula == parse("box v -> box(v & v1) | box(v | v2)")
    t = expand_named("@T")
    assert t.formula == parse("box b -> b") and not t.one_step
    four = expand_named("@Four")
    assert four.formula == parse("box b -> box box b") and not four.one_step
    with pytest.raises(InvalidInputError):
        expand_named("@Zed")
    for name in ("M", "C", "N", "Cont", "Conv", "CoConv", "T", "Four", "Ck(k)", "CInf"):
        assert name in REGISTRY_NAMES


def test_registry_kappa_degrade():
    plain = expand_named("@Ck(2)")
    assert plain.kappa == 2 and plain.semantic is None
    assert free_vars(plain.formula) == ["v1", "v2"]
    wide = expand_named("@Ck(2)", n=3)
    assert wide.formula == plain.formula
    tight = expand_named("@Ck(2)", n=1)
    assert tight.formula == expand_named("@C").formula and tight.semantic == ("C",)
    assert tight.kappa == 2 and tight.one_step
    assert expand_named("@Ck(4)", n=2).semantic == ("C",)
    assert expand_named("@Ck(3)", n=2).semantic is None
    with pytest.raises(InvalidInputError):
        expand_named("@Ck(0)")
    one = expand_named("@Ck(1)")
    assert one.formula == iff(Box(Var("v1")), Box(Var("v1")))
    # A k-variable formula is refused above 2^16 variables, where every
    # carrier size up to 16 points degrades it to @C anyway.
    top = expand_named("@Ck(65536)")
    assert free_vars(top.formula) == [f"v{i}" for i in range(1, 65537)]
    for n in (None, 17):
        with pytest.raises(CapExceededError, match="k=65537 exceeds cap 65536"):
            expand_named("@Ck(65537)", n)
    assert expand_named("@Ck(65537)", 16).semantic == ("C",)


def test_registry_cinf():
    ax = expand_named("@CInf")
    assert ax.formula == And((expand_named("@N").formula, expand_named("@C").formula))
    assert ax.semantic == ("N", "C") and ax.one_step and ax.kappa is None


def test_famask_is_principal():
    # The principal families are the @CInf ones: @N and @C hold, by the
    # family tests and by one engine run of the @CInf formula alike.
    # n=2 masks: family {2,3} is the up-cone of {1}; {1,2} has meet 0 but misses 0.
    cases = ((0b1100, 2, True), (0b1000, 2, True), (0b1111, 2, True), (0, 2, False), (0b0110, 2, False), (0b1101, 2, False), (0b1, 0, True))
    for famask, n, principal in cases:
        assert (AXIOM_TESTS["N"](famask, n) and AXIOM_TESTS["C"](famask, n)) == principal
        assert is_ax_subset(famask, axiom_set_from_specs(["@CInf"], n), n) == principal
    # A degraded @Ck(k) is @C alone, which also takes the empty family.
    assert realize_axiom(expand_named("@Ck(4)", 2), 2) == expand_named("@C").formula
    degraded = axiom_set_from_specs(["@Ck(4)"], 2)
    for famask, holds in ((0, True), (0b1100, True), (0b0110, False)):
        assert AXIOM_TESTS["C"](famask, 2) == is_ax_subset(famask, degraded, 2) == holds


def test_axiom_set_from_specs():
    axs = axiom_set_from_specs(["@M", "@N", "box w"])
    assert [ax.name for ax in axs] == ["M", "N", "box w"]
    assert axs.specs() == ["@M", "@N", "box w"]
    # An inline axiom is its own rendering, so inline T is not the registry @T.
    inline = axiom_set_from_specs(["T", "@CInf", "box T"])
    assert inline.specs() == ["T", "@CInf", "box T"]
    assert axiom_set_from_specs(inline.specs()) == inline
    assert len(axs) == 3
    degraded = axiom_set_from_specs(["@Ck(2)"], n=1)
    assert degraded.specs() == ["@Ck(2)"]
    with pytest.raises(InvalidInputError):
        axiom_set_from_specs(["@T"])
    with pytest.raises(InvalidInputError):
        axiom_set_from_specs(["box b -> b"])
    with pytest.raises(InvalidInputError):
        axiom_set_from_specs(["@M", "@M"])
    with pytest.raises(InvalidInputError):
        axiom_set_from_specs([""])
    with pytest.raises(InvalidInputError):
        AxiomSet((Axiom("T", parse("box b -> b"), False),))
