"""No module of the package imports a name it never uses.

Each `from ... import` binding of a module must be read somewhere in
it as a name.  `__init__` re-exports its imports and `_backend` picks
a module by name, so both are left out.  Importing the CLI loads no
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


def test_the_check_catches_an_unused_import():
    assert unused_from_imports("from .core import a, b as c\nprint(a)\n") == ["c"]
    assert unused_from_imports("from __future__ import annotations\nfrom .x import T\ndef f(v: T): pass\n") == []


def test_no_module_has_an_unused_from_import():
    modules = sorted(path for path in PACKAGE.glob("*.py") if path.name not in EXEMPT)
    assert len(modules) >= 10
    unused = {path.name: names for path in modules if (names := unused_from_imports(path.read_text()))}
    assert unused == {}


def test_importing_the_cli_loads_no_multiprocessing():
    # The search runs in one process; multiprocessing costs import time.
    code = "import sys, nbhd, nbhd.cli; print('multiprocessing' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=source_env())
    assert (proc.returncode, proc.stdout) == (0, "False\n"), proc.stderr
