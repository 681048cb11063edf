"""No module of the package imports a name it never uses or keeps a
private name nothing reads.

Each `from ... import` binding of a module must be read somewhere in
it as a name.  Each private name a module binds at top level must be
read as a name in that module, or imported by name into another module
that reads it.  `__init__` re-exports its imports and `_backend` picks
a module by name, so both are left out.  Every name a module binds at
top level, public or private, is read by the code of some other
statement of the package, its tests or the benchmark.  No parameter of
a private function takes the same literal at every call in the
package.  Every `lru_cache` is bounded by a numeric maxsize, or caches
a function whose parameters are all ints, or that has none.

`import nbhd` loads no submodule, each public name resolves to the
object its module defines, and a process loads only the modules of the
commands it runs, and no module the package does not use.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import nbhd
from srcenv import source_env

PACKAGE = Path(nbhd.__file__).resolve().parent
ROOT = PACKAGE.parent.parent
EXEMPT = {"__init__.py", "_backend.py"}


def unused_from_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = [
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for alias in node.names
    ]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in used]


def loaded(tree) -> set[str]:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def top_level_private(tree) -> list[str]:
    """Names starting with one underscore that a def, class or assignment
    at module level binds."""
    bound = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound += [name.id for target in targets for name in ast.walk(target) if isinstance(name, ast.Name)]
    return [name for name in bound if name.startswith("_") and not name.startswith("__")]


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """"module.name" for each module-level private name of a module in
    sources (file name to text) that no module reads: not its own module,
    and no module that binds it by `from .module import name` and reads
    that binding."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    reads = set()
    for name, tree in trees.items():
        used = loaded(tree)
        reads |= {(name, read) for read in used}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                reads |= {(f"{node.module}.py", alias.name) for alias in node.names if (alias.asname or alias.name) in used}
    return [
        f"{name[:-3]}.{private}"
        for name, tree in trees.items()
        if name not in EXEMPT
        for private in top_level_private(tree)
        if (name, private) not in reads
    ]


def constant_parameters(sources: dict[str, str]) -> list[str]:
    """"module.function(parameter)" for each parameter of a module-level
    private function that every call in sources (file name to text)
    passes as one and the same literal, by position or by keyword.  A
    call `name(...)` in a module is a call of that module's own function
    or of the one it imports by `from .module import name`; a function
    read other than as the callee of such a call is left out, since its
    calls cannot all be seen."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    defs = {
        (name, node.name): node
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name.startswith("_") and not node.name.startswith("__")
    }
    calls = {target: [] for target in defs}
    escaped = set()
    for name, tree in trees.items():
        resolve = {function: (name, function) for module, function in defs if module == name}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                resolve |= {alias.asname or alias.name: (f"{node.module}.py", alias.name) for alias in node.names}
        callees = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and resolve.get(node.func.id) in calls:
                calls[resolve[node.func.id]].append(node)
                callees.add(id(node.func))
        escaped |= {
            resolve[node.id]
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and id(node) not in callees and node.id in resolve
        }
    found = []
    for target, function in defs.items():
        if target in escaped or not calls[target]:
            continue
        for i, param in enumerate(function.args.posonlyargs + function.args.args):
            passed = set()
            for call in calls[target]:
                if any(isinstance(arg, ast.Starred) for arg in call.args) or any(kw.arg is None for kw in call.keywords):
                    passed.add(None)
                    break
                arg = call.args[i] if i < len(call.args) else next((kw.value for kw in call.keywords if kw.arg == param.arg), None)
                passed.add(repr(arg.value) if isinstance(arg, ast.Constant) else None)
            if len(passed) == 1 and None not in passed:
                found.append(f"{target[0][:-3]}.{target[1]}({param.arg})")
    return found


def unbounded_caches(source: str) -> list[str]:
    """The functions under an `lru_cache` (or `cache`) with no numeric
    maxsize, by position or keyword, unless every parameter is annotated
    int or there is none."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.FunctionDef):
            continue
        for deco in node.decorator_list:
            func = deco.func if isinstance(deco, ast.Call) else deco
            if (func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)) not in ("lru_cache", "cache"):
                continue
            sizes = [*deco.args[:1], *(kw.value for kw in deco.keywords if kw.arg == "maxsize")] if isinstance(deco, ast.Call) else []
            if any(isinstance(size, ast.Constant) and type(size.value) is int for size in sizes):
                continue
            args = node.args
            params = args.posonlyargs + args.args + args.kwonlyargs + [a for a in (args.vararg, args.kwarg) if a]
            if not all(isinstance(param.annotation, ast.Name) and param.annotation.id == "int" for param in params):
                found.append(node.name)
    return found


def test_the_check_catches_an_unbounded_cache():
    source = (
        "@lru_cache(maxsize=16)\ndef _a(f, n: int): pass\n"
        "@lru_cache(8)\ndef _b(f): pass\n"
        "@lru_cache(maxsize=None)\ndef _c(n: int, bits: int): pass\n"
        "@functools.lru_cache(maxsize=None)\ndef _d(): pass\n"
        "@lru_cache(maxsize=None)\ndef _e(n: int, f): pass\n"
        "@lru_cache\ndef _f(f: str): pass\n"
        "@cache\ndef _g(*ns: int): pass\n"
        "@functools.cache\ndef _h(f: Formula): pass\n"
    )
    assert unbounded_caches(source) == ["_e", "_f", "_h"]


def test_every_cache_is_bounded():
    sources = [path.read_text() for path in PACKAGE.glob("*.py")]
    assert sum(text.count("@lru_cache") for text in sources) >= 15
    assert [name for text in sources for name in unbounded_caches(text)] == []


def test_the_check_catches_an_unused_import():
    assert unused_from_imports("from .core import a, b as c\nprint(a)\n") == ["c"]
    assert unused_from_imports("from __future__ import annotations\nfrom .x import T\ndef f(v: T): pass\n") == []


def test_no_module_has_an_unused_from_import():
    modules = sorted(path for path in PACKAGE.glob("*.py") if path.name not in EXEMPT)
    assert len(modules) >= 10
    unused = {path.name: names for path in modules if (names := unused_from_imports(path.read_text()))}
    assert unused == {}


def test_the_check_catches_an_unread_private_name():
    sources = {
        "a.py": "_SIZE = 2\ndef _used(): return _SIZE\ndef _shared(): pass\ndef _blocks(): pass\n_used()\n",
        "b.py": "from .a import _shared\ndef _blocks(): pass\n_shared(_blocks)\n",
        "c.py": "from .a import _blocks\n",
    }
    # b reads its own _blocks, and c imports a's without reading it.
    assert unread_private_names(sources) == ["a._blocks"]


def test_every_module_level_private_name_is_read():
    sources = {path.name: path.read_text() for path in PACKAGE.glob("*.py")}
    assert sum(len(top_level_private(ast.parse(text))) for name, text in sources.items() if name not in EXEMPT) >= 70
    assert unread_private_names(sources) == []


def top_level_bound(stmt) -> list[str]:
    """The names other than dunders that a module-level def, class or
    assignment binds."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        bound = [stmt.name]
    elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        bound = [name.id for target in targets for name in ast.walk(target) if isinstance(name, ast.Name)]
    else:
        bound = []
    return [name for name in bound if not name.startswith("__")]


def referenced(stmt) -> set[str]:
    """The names a statement's code reads: names, attributes, and string
    constants that are one identifier (a name in the package's lazy
    table, or given to setattr), docstrings and other bare strings left
    out."""
    bare = {id(node.value) for node in ast.walk(stmt) if isinstance(node, ast.Expr)}
    names = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier() and id(node) not in bare:
            names.add(node.value)
    return names


def unreferenced_names(package: dict[str, str], others: dict[str, str]) -> list[str]:
    """"module.name" for each name that a module of package (file name to
    text) binds at top level and that no statement of package or others
    reads, the statement that binds it aside."""
    reads = set()
    bound = []
    for name, text in [*package.items(), *others.items()]:
        for stmt in ast.parse(text).body:
            names = top_level_bound(stmt)
            reads |= referenced(stmt) - set(names)
            if name in package:
                bound += [(name, binding) for binding in names]
    return [f"{name[:-3]}.{binding}" for name, binding in bound if binding not in reads]


def test_the_check_catches_an_unreferenced_name():
    package = {
        "a.py": '"""_docs names _spare."""\ndef _repeat(m): return _repeat(m)\ndef public(): pass\nLIMIT = 2\n_CAP = LIMIT\n_spare = 0\n',
        "b.py": "from .a import public\n",
    }
    others = {"test_a.py": 'import a\n"""_CAP"""\ndef test(monkeypatch): monkeypatch.setattr(a, "_CAP", 3)\n'}
    # _repeat only calls itself, b only imports public, and _spare is
    # named in a docstring alone.
    assert unreferenced_names(package, others) == ["a._repeat", "a.public", "a._spare"]


def test_every_module_level_name_is_referenced():
    package = {path.name: path.read_text() for path in PACKAGE.glob("*.py")}
    others = {f"{path.parent.name}/{path.name}": path.read_text() for folder in ("tests", "perfbench") for path in (ROOT / folder).glob("*.py")}
    assert sum(len(top_level_bound(stmt)) for text in package.values() for stmt in ast.parse(text).body) >= 250
    assert unreferenced_names(package, others) == []


def test_the_check_catches_a_parameter_every_call_fixes():
    sources = {
        "a.py": "def _pick(mask, offset): pass\ndef _spread(x, k): pass\ndef _seen(x, k): pass\n_pick(3, 0)\n_spread(1, k=2)\nmap(_seen, [])\n_seen(1, 2)\n",
        "b.py": "from .a import _pick, _spread\ndef _pick2(v): pass\n_pick(mask=4, offset=0)\n_spread(2, 3)\n_pick2(*[1])\n",
    }
    # _spread's k varies, _seen escapes as a value, _pick2 is called with *args.
    assert constant_parameters(sources) == ["a._pick(offset)"]
    assert constant_parameters({"a.py": "def _f(x): pass\n_f(0)\n_f(False)\n_f(0.0)\n"}) == []


def test_no_private_function_has_a_parameter_every_call_fixes():
    sources = {path.name: path.read_text() for path in PACKAGE.glob("*.py")}
    assert constant_parameters(sources) == []


SUBMODULES = ("bax", "bitslice", "classes", "core", "duality", "evaluate", "formulas", "genframe", "search")
# The public names of the package, its submodules among them.
ALL = sorted(
    (
        *SUBMODULES,
        *"Axiom AxiomSet BaxSpace CapExceededError ClassTag CompleteHom FrameMorphism GeneralFrame".split(),
        *"InvalidInputError LaxAlgebra NbhdError NeighborhoodAlgebra NeighborhoodFrame ParseError".split(),
        *"Relation SearchSpec algebra_class_check algebra_from_json algebra_to_json all_subalgebras".split(),
        *"atom_frame axiom_set_from_specs bax_map baxspace_from_json baxspace_to_json".split(),
        *"box_n canonical_form complement_frame complement_within_admissible complex_algebra".split(),
        *"compose_morphisms correspondence_check count_frames dualize_complete_hom".split(),
        *"dualize_frame_morphism enumerate_bax enumerate_frames eval_formula expand_named".split(),
        *"famask_members famask_of find_countermodel find_refuting_assignment frame_class_check".split(),
        *"frame_from_json frame_to_json free_vars from_relation full_mask general_frame_from_json".split(),
        *"general_frame_report general_frame_to_json hom_from_json hom_to_json is_ax_subset".split(),
        *"is_complete_nbhd_hom is_nbhd_morphism is_one_step is_pi_descriptive is_sigma_descriptive".split(),
        *"lax_algebra lax_from_json lax_to_json morphism_from_json morphism_to_json".split(),
        *"naturality_check onestep_top_check parse parse_class_tag pi_extend principal_iso".split(),
        *"relabel_frame relation_from_json relation_to_json render sigma_extend".split(),
        *"sigma_morphism_transfer subalgebra_from_partition theta_t_member to_relation truncate".split(),
        *"up_cone validate_general_frame validates".split(),
    )
)


def run_command(*argv: str) -> str:
    """A statement that runs `python -m nbhd argv` as -m does, through runpy."""
    return f"import runpy; sys.argv = ['nbhd', *{list(argv)!r}]; runpy.run_module('nbhd', run_name='__main__', alter_sys=True)"


LAZY = tuple(f"nbhd.{name}" for name in ("bax", "search", "genframe", "duality", "evaluate"))
# dataclasses imports inspect, and inspect imports ast, dis and tokenize;
# the package's value types are plain classes and need none of them.
UNUSED = ("dataclasses", "inspect")
# Per process: interpreter flags, the statement it runs, modules it must
# load and modules it must not.  The loaded modules are read from
# sys.modules at exit.  multiprocessing and typing cost start-up time and
# the package needs neither; -S keeps site from loading typing first.
LOADS = {
    "package": ([], "import nbhd", ("nbhd",), tuple(f"nbhd.{path.stem}" for path in PACKAGE.glob("*.py") if path.stem != "__init__")),
    "cli": ([], "import nbhd, nbhd.cli", ("nbhd.cli", "nbhd.core"), ("argparse", "multiprocessing", *UNUSED, *LAZY)),
    "everything-without-site": (["-S"], "import nbhd.cli; from nbhd import *", LAZY, ("typing", "multiprocessing", *UNUSED)),
    "bax-enum": (
        [],
        run_command("bax", "enum", "--n", "2", "--axioms", "@M", "--count"),
        ("nbhd.bax", "nbhd.formulas", "nbhd.evaluate"),
        ("argparse", "nbhd.search", "nbhd.genframe", "nbhd.duality", *UNUSED),
    ),
    # A command line the command table reads builds no argparse tree, so
    # parse needs neither argparse nor the classes tables of its help.
    "parse": (
        [],
        run_command("parse", "--formula", "@M"),
        ("nbhd.formulas",),
        ("argparse", "nbhd.classes", "nbhd.bitslice", *LAZY, *UNUSED),
    ),
    "help": ([], run_command("-h"), ("argparse", "nbhd.classes"), ("nbhd.search", "nbhd.bax", *UNUSED)),
    # On stdin, the one-point algebra whose box is the identity, so @T is valid.
    "valid": (
        [],
        "import io; sys.stdin = io.StringIO('{\"n\":1,\"box\":[0,1]}'); " + run_command("valid", "--algebra", "-", "--formula", "@T"),
        ("nbhd.evaluate", "nbhd.formulas"),
        ("nbhd.search", "nbhd.bax", "nbhd.duality", "nbhd.genframe", *UNUSED),
    ),
}


@pytest.mark.parametrize("case", LOADS)
def test_a_process_loads_only_the_modules_it_runs(case):
    flags, statement, present, absent = LOADS[case]
    code = f"import atexit, sys\natexit.register(lambda: print(*sorted(sys.modules), file=sys.stderr))\n{statement}"
    proc = subprocess.run([sys.executable, *flags, "-c", code], capture_output=True, text=True, env=source_env())
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stderr.split())
    assert set(present) <= loaded, sorted(set(present) - loaded)
    assert sorted(loaded & set(absent)) == []


def test_the_package_names_resolve_to_their_modules():
    assert nbhd.__all__ == ALL and len(ALL) == 93
    for name in ALL:
        value = getattr(nbhd, name)
        home = sys.modules[f"nbhd.{name}"] if name in SUBMODULES else sys.modules[value.__module__]
        assert (value if name in SUBMODULES else getattr(home, name)) is value, name
        assert name in SUBMODULES or home.__name__.startswith("nbhd."), name
    star = {}
    exec("from nbhd import *", star)
    assert sorted(set(star) - {"__builtins__"}) == ALL
    assert all(star[name] is getattr(nbhd, name) for name in ALL)
    with pytest.raises(AttributeError, match="no_such_name"):
        nbhd.no_such_name
    assert getattr(nbhd, "backend_name", None) is None
    # A fresh package lists its public names and dunders, and nothing of how it loads them.
    code = "import nbhd; print(' '.join(dir(nbhd)))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=source_env())
    listed = proc.stdout.split()
    assert [name for name in listed if not name.startswith("__")] == ALL
    assert "__version__" in listed and "__getattr__" not in listed
