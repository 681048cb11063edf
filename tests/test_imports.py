"""No module of the package imports a name it never uses or keeps a
private name nothing reads.

Each `from ... import` binding of a module must be read somewhere in
it as a name.  Each private name a module binds at top level must be
read as a name in that module, or imported by name into another module
that reads it.  `__init__` re-exports its imports and `_backend` picks
a module by name, so both are left out.  No parameter of a private
function takes the same literal at every call in the package.  Every
`lru_cache` is bounded by a numeric maxsize, or caches a function whose
parameters are all ints, or that has none.  Importing the CLI loads no
module the package does not use.
"""

import ast
import subprocess
import sys
from pathlib import Path

import nbhd
from srcenv import source_env

PACKAGE = Path(nbhd.__file__).resolve().parent
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


def test_importing_the_cli_loads_no_multiprocessing():
    # The search runs in one process; multiprocessing costs import time.
    code = "import sys, nbhd, nbhd.cli; print('multiprocessing' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=source_env())
    assert (proc.returncode, proc.stdout) == (0, "False\n"), proc.stderr
