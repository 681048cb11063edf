"""No module of the package imports a name it never uses.

Each `from ... import` binding of a module must be read somewhere in
it as a name.  `__init__` re-exports its imports and `_backend` picks
a module by name, so both are left out.
"""

import ast
from pathlib import Path

import nbhd

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


def test_the_check_catches_an_unused_import():
    assert unused_from_imports("from .core import a, b as c\nprint(a)\n") == ["c"]
    assert unused_from_imports("from __future__ import annotations\nfrom .x import T\ndef f(v: T): pass\n") == []


def test_no_module_has_an_unused_from_import():
    modules = sorted(path for path in PACKAGE.glob("*.py") if path.name not in EXEMPT)
    assert len(modules) >= 10
    unused = {path.name: names for path in modules if (names := unused_from_imports(path.read_text()))}
    assert unused == {}
