import os
import pickle
import random
import subprocess
import sys

import pytest

from srcenv import source_env

from nbhd.classes import AXIOM_TESTS
from nbhd.core import CapExceededError, InvalidInputError
from nbhd.evaluate import compile_target, is_ax_subset, realize_axiom
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
    resolve,
)
from nbhd.search import count_frames
from nbhd import formulas

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


def test_equal_formulas_hash_equal():
    text = "box (u & ~v) <-> (box u | v & T)"
    first, second = parse(text), parse(text)
    assert first is not second and first == second and hash(first) == hash(second)
    assert {first: 1}[second] == 1
    assert hash(first) == hash(first) and first != parse("box (u & ~v) <-> (box u | v & F)")
    # Nodes of different shapes over one child stay unequal.
    assert Not(U) != Box(U) and And((U,)) != U and Top() == TOP


def test_a_hashed_node_holds_only_its_fields():
    f = parse("box (u & box v) -> ~w")
    hash(f)
    # A node has no __dict__, so its slots, its fields, are all it holds.
    for node, fields in ((f, {"sub": f.sub}), (f.sub, {"items": f.sub.items}), (U, {"name": "u"}), (TOP, {})):
        assert not hasattr(node, "__dict__")
        assert {name: getattr(node, name) for cls in type(node).__mro__ for name in getattr(cls, "__slots__", ())} == fields


def test_a_pickled_formula_hashes_like_a_fresh_parse():
    # A str hash differs between processes.
    text = "box (u & box v) -> ~w"
    hashed = parse(text)
    hash(hashed)
    assert pickle.dumps(hashed) == pickle.dumps(parse(text))
    code = f"import pickle, sys; from nbhd.formulas import parse; f = parse({text!r}); hash(f); sys.stdout.buffer.write(pickle.dumps(f))"
    env = source_env() | {"PYTHONHASHSEED": str(os.getpid() % 4000 + 1)}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, env=env)
    assert proc.returncode == 0, proc.stderr
    loaded = pickle.loads(proc.stdout)
    assert loaded == parse(text) and hash(loaded) == hash(parse(text))


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


def test_specs_keep_their_text_and_render_once(monkeypatch):
    # Registry names, inline formulas (named by their rendering), @CInf and
    # a @Ck(16) that degrades to @C's formula at n = 2: each spec is
    # rendered on the first call, and later calls give the same text.
    cases = (
        (["@M", "@Cont", "@Ck(2)", "@CInf"], None, ["@M", "@Cont", "@Ck(2)", "@CInf"]),
        (["box w", "T", "box(u & v) -> box u", "box p | box ~p"], None, ["box w", "T", "~(box (u & v) & ~box u)", "~(~box p & ~box ~p)"]),
        (["@Ck(16)", "@CInf"], 2, ["@Ck(16)", "@CInf"]),
    )
    sets = [(axiom_set_from_specs(specs, n), n, want) for specs, n, want in cases]
    for axs, n, want in sets:
        assert axs.specs() == want
        assert axiom_set_from_specs(want, n) == axs
    assert sets[2][0].axioms[0].formula == expand_named("C").formula

    def refuse(f):
        raise AssertionError("a spec was rendered again")

    monkeypatch.setattr(formulas, "render", refuse)
    for axs, n, want in sets:
        assert axs.specs() == want


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


def test_resolve_answers_as_the_target_and_axiom_set_routes_did():
    # Per spec: its axiom (name, formula, one_step), and the refusal of
    # axiom_set_from_specs, if any.  The target is the axiom's formula.
    c = "box u & box v <-> box(u & v)"
    cases = [
        ("@M", 2, "M", "box(u & v) -> box u", True, None),
        (" @M ", 2, "M", "box(u & v) -> box u", True, None),
        ("@Ck(4)", 1, "Ck(4)", c, True, None),
        ("@Ck(4)", 3, "Ck(4)", "box v1 & box v2 & box v3 & box v4 <-> box(v1 & v2 & v3 & v4)", True, None),
        ("@CInf", 2, "CInf", f"box T & ({c})", True, None),
        ("@T", 2, "T", "box b -> b", False, "axiom set: @T is not a one-step axiom"),
        ("box u -> box(u | v)", 2, "~(box u & ~box ~(~u & ~v))", "box u -> box(u | v)", True, None),
        ("box u -> box box u", 2, "~(box u & ~box box u)", "box u -> box box u", False, "axiom set: 'box u -> box box u' is not one-step"),
    ]
    for spec, n, name, text, one_step, refusal in cases:
        ax = resolve(spec.strip(), n)
        assert (ax.name, ax.formula, ax.one_step) == (name, parse(text), one_step), spec
        assert compile_target(spec, n) == ax.formula
        if refusal is None:
            assert tuple(axiom_set_from_specs([spec], n)) == (ax,)
        else:
            with pytest.raises(InvalidInputError) as info:
                axiom_set_from_specs([spec], n)
            assert str(info.value) == refusal
    for spec, error, message in (
        ("@Zed", InvalidInputError, "unknown axiom name '@Zed'"),
        ("box (u", ParseError, "at byte 6: expected one of ')'; found end of input"),
    ):
        for call in (resolve, compile_target, lambda spec, n: axiom_set_from_specs([spec], n)):
            with pytest.raises(error) as info:
                call(spec, 2)
            assert str(info.value) == message
    # A constraint tuple names its first bad spec; an empty one comes last.
    with pytest.raises(InvalidInputError, match="^constraint 'topologcal' has modal depth 0: "):
        count_frames(2, ("", "topologcal"))
    with pytest.raises(InvalidInputError, match="^axiom set: empty entry$"):
        count_frames(2, ("", "box u"))
