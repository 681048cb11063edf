"""The package's value types keep value semantics.

A value equals a value of its own type with equal fields, and only such
a value, and hashes alike; its repr lists its fields; assigning or
deleting a field raises AttributeError; and pickle, `copy.copy` and
`copy.deepcopy` give an equal value of the same type.  A search level and
a search target are the exceptions to equality: each is equal only to
itself.
"""

import copy
import pickle

import pytest

from nbhd import search
from nbhd.bax import BaxSpace, enumerate_bax
from nbhd.bitslice import Lanes
from nbhd.classes import ClassTag
from nbhd.core import CompleteHom, FrameMorphism, NeighborhoodAlgebra, NeighborhoodFrame, Relation
from nbhd.duality import LaxAlgebra, lax_algebra
from nbhd.evaluate import AlgebraProgram, MembershipProgram, compile_algebra, compile_membership
from nbhd.formulas import TOP, And, Axiom, AxiomSet, Box, Not, Top, Var, expand_named, parse
from nbhd.genframe import GeneralFrame

U, V = Var("u"), Var("v")
M, C = expand_named("@M"), expand_named("@C")
SPACE = enumerate_bax(1, AxiomSet((M,)))
LAX = lax_algebra(1, AxiomSet((M,)))
N_PROGRAM = compile_membership(expand_named("@N").formula, 1)
CONT_PROGRAM = compile_membership(expand_named("@Cont").formula, 1)
T_PROGRAM = compile_algebra(parse("box u -> u"))
LEVEL = search._level(2, ("@T", "@Four"), search.SCAN_KEYS_CAP)
FOUR = parse("box v -> box box v")


def program_fields(prog):
    return prog.names, prog.opcodes, prog.opargs, prog.n, prog.n_rows, prog.rows


# Per type: its fields, the positional arguments of a value, keyword
# arguments that build the same value (defaults left out where a type
# has them), the arguments of an unequal value of the type, and a value
# of another type with the same field values, or None.
CASES = {
    "NeighborhoodFrame": (("n", "_key"), (2, (10, 1)), {"n": 2, "key": [10, 1]}, (2, (10, 2)), None),
    "NeighborhoodAlgebra": (("n", "box"), (1, (0, 1)), {"n": 1, "box": (0, 1)}, (1, (1, 1)), None),
    "Relation": (("n", "succ"), (2, (1, 3)), {"n": 2, "succ": (1, 3)}, (2, (1, 2)), None),
    "FrameMorphism": (("n_dom", "n_cod", "map"), (1, 1, (0,)), {"n_dom": 1, "n_cod": 1, "map": (0,)}, (2, 2, (0, 1)), CompleteHom(1, 1, (0,))),
    "CompleteHom": (("n_dom", "n_cod", "atom_map"), (1, 1, (0,)), {"n_dom": 1, "n_cod": 1, "atom_map": (0,)}, (1, 2, (0, 0)), FrameMorphism(1, 1, (0,))),
    "Var": (("name",), ("u",), {"name": "u"}, ("v",), None),
    "Top": ((), (), {}, None, And(())),
    "Not": (("sub",), (U,), {"sub": U}, (V,), Box(U)),
    "And": (("items",), ((U, TOP),), {"items": (U, TOP)}, ((U,),), None),
    "Box": (("sub",), (U,), {"sub": U}, (Not(U),), Not(U)),
    "Axiom": (
        ("name", "formula", "one_step", "kappa", "semantic"),
        ("u", U, False),
        {"name": "u", "formula": U, "one_step": False},
        ("u", U, False, 2),
        None,
    ),
    "AxiomSet": (("axioms",), ((M,),), {"axioms": (M,)}, ((C,),), None),
    "MembershipProgram": (
        ("names", "opcodes", "opargs", "n", "n_rows", "rows"),
        program_fields(CONT_PROGRAM),
        dict(zip(("names", "opcodes", "opargs", "n", "n_rows", "rows"), program_fields(CONT_PROGRAM))),
        program_fields(N_PROGRAM),
        None,
    ),
    "AlgebraProgram": (
        ("names", "opcodes", "opargs"),
        (T_PROGRAM.names, T_PROGRAM.opcodes, T_PROGRAM.opargs),
        {"names": T_PROGRAM.names, "opcodes": T_PROGRAM.opcodes, "opargs": T_PROGRAM.opargs},
        (T_PROGRAM.names, T_PROGRAM.opcodes, (0,) * len(T_PROGRAM.opargs)),
        None,
    ),
    "Lanes": (("base", "mask"), (range(4), 10), {"base": range(4), "mask": 10}, (range(4), 6), None),
    # Given famasks for its lanes, a space holds every lane of them.
    "BaxSpace": (("n", "axioms", "lanes"), (SPACE.n, SPACE.axioms, SPACE.lanes), {"n": 1, "axioms": AxiomSet((M,)), "lanes": (0, 2, 3)}, (1, AxiomSet((M,)), (0, 2)), None),
    "ClassTag": (("name", "kappa"), ("filter",), {"name": "filter"}, ("filter", 3), None),
    "LaxAlgebra": (("space", "gen"), (LAX.space, LAX.gen), {"space": SPACE, "gen": LAX.gen}, (LAX.space, (0,) * len(LAX.gen)), None),
    "GeneralFrame": (("n", "_key", "_admissible"), (1, (2,), 3), {"n": 1, "key": (2,), "admissible": 3}, (1, (3,), 3), None),
    "SearchSpec": (("target", "constraints", "mode", "max_n"), ("@M",), {"target": "@M"}, ("@M", (), "find_refuting", 2), None),
    "_Level": (("n", "cands", "whole"), (LEVEL.n, LEVEL.cands, LEVEL.whole), {"n": LEVEL.n, "cands": LEVEL.cands, "whole": LEVEL.whole}, (1, LEVEL.cands, ()), None),
    "_Target": (("n", "formula", "deep", "n_vars"), (2, FOUR, True, 1), {"n": 2, "formula": FOUR, "deep": True, "n_vars": 1}, (3, FOUR, True, 1), None),
}
TYPES = {
    cls.__name__: cls
    for cls in (
        *(NeighborhoodFrame, NeighborhoodAlgebra, Relation, FrameMorphism, CompleteHom),
        *(Var, Top, Not, And, Box, Axiom, AxiomSet, MembershipProgram, AlgebraProgram),
        *(Lanes, BaxSpace, ClassTag, LaxAlgebra, GeneralFrame, search.SearchSpec, search._Level, search._Target),
    )
}
# The reprs, as the frozen dataclasses these types once were wrote them.
REPRS = {
    'NeighborhoodFrame': 'NeighborhoodFrame(n=2, _key=(10, 1))',
    'NeighborhoodAlgebra': 'NeighborhoodAlgebra(n=1, box=(0, 1))',
    'Relation': 'Relation(n=2, succ=(1, 3))',
    'FrameMorphism': 'FrameMorphism(n_dom=1, n_cod=1, map=(0,))',
    'CompleteHom': 'CompleteHom(n_dom=1, n_cod=1, atom_map=(0,))',
    'Var': "Var(name='u')",
    'Top': 'Top()',
    'Not': "Not(sub=Var(name='u'))",
    'And': "And(items=(Var(name='u'), Top()))",
    'Box': "Box(sub=Var(name='u'))",
    'Axiom': "Axiom(name='u', formula=Var(name='u'), one_step=False, kappa=None, semantic=None)",
    'AxiomSet': "AxiomSet(axioms=(Axiom(name='M', formula=Not(sub=And(items=(Box(sub=And(items=(Var(name='u'), Var(name='v')))), Not(sub=Box(sub=Var(name='u')))))), one_step=True, kappa=None, semantic=None),))",
    'MembershipProgram': "MembershipProgram(names=('v',), opcodes=(0, 0, 6), opargs=(0, 1, 0), n=1, n_rows=2, rows=((0, 1),))",
    'AlgebraProgram': "AlgebraProgram(names=('u',), opcodes=(0, 4, 2, 0, 5), opargs=(0, 0, 0, 0, 2))",
    'Lanes': 'Lanes(base=range(0, 4), mask=10)',
    'BaxSpace': "BaxSpace(n=1, axioms=AxiomSet(axioms=(Axiom(name='M', formula=Not(sub=And(items=(Box(sub=And(items=(Var(name='u'), Var(name='v')))), Not(sub=Box(sub=Var(name='u')))))), one_step=True, kappa=None, semantic=None),)), lanes=Lanes(base=(0, 2, 3), mask=7))",
    'ClassTag': "ClassTag(name='filter', kappa=None)",
    'LaxAlgebra': "LaxAlgebra(space=BaxSpace(n=1, axioms=AxiomSet(axioms=(Axiom(name='M', formula=Not(sub=And(items=(Box(sub=And(items=(Var(name='u'), Var(name='v')))), Not(sub=Box(sub=Var(name='u')))))), one_step=True, kappa=None, semantic=None),)), lanes=Lanes(base=(0, 2, 3), mask=7)), gen=(4, 6))",
    'GeneralFrame': 'GeneralFrame(n=1, _key=(2,), _admissible=3)',
    'SearchSpec': "SearchSpec(target='@M', constraints=(), mode='find_refuting', max_n=3)",
    '_Level': "_Level(n=2, cands=((0, 2, 8, 10), (0, 4, 8, 12)), whole=(AlgebraProgram(names=('b',), opcodes=(0, 4, 2, 0, 4, 4, 5), opargs=(0, 0, 0, 0, 0, 1, 2)),))",
    '_Target': "_Target(n=2, formula=Not(sub=And(items=(Box(sub=Var(name='v')), Not(sub=Box(sub=Box(sub=Var(name='v'))))))), deep=True, n_vars=1)",
}
# Types that keep a __dict__, for the properties they cache.
CACHING = ("Lanes", "_Level", "_Target")
# Equal only to itself.
BY_IDENTITY = ("_Level", "_Target")


def assert_same(name, value, twin):
    """twin is value rebuilt: of its type, with its repr, and equal to it
    unless the type is compared by identity."""
    assert type(twin) is type(value) and repr(twin) == repr(value)
    if name in BY_IDENTITY:
        assert twin is value or twin != value
    else:
        assert twin == value and not twin != value and hash(twin) == hash(value)


@pytest.mark.parametrize("name", CASES)
def test_a_value_type_keeps_value_semantics(name):
    fields, args, kwargs, other_args, lookalike = CASES[name]
    cls = TYPES[name]
    value = cls(*args)
    assert repr(value) == REPRS[name]
    assert value == value and hash(value) == hash(value)
    assert_same(name, value, cls(**kwargs))
    if other_args is not None:
        other = cls(*other_args)
        assert other != value and not other == value and repr(other) != repr(value)
    # Unequal to every other type's value, one with the same field values too.
    others = [TYPES[key](*CASES[key][1]) for key in CASES if key != name]
    assert all(value != v and v != value for v in [*others, lookalike] if v is not None)
    assert hasattr(value, "__dict__") == (name in CACHING)
    for field in fields:
        kept = getattr(value, field)
        with pytest.raises(AttributeError):
            setattr(value, field, kept)
        with pytest.raises(AttributeError):
            delattr(value, field)
        assert getattr(value, field) is kept
    with pytest.raises(AttributeError):
        value.unknown_field = 0
    for rebuilt in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert_same(name, value, rebuilt)
