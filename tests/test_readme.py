"""The README's Python Quick start, run as written.

Each statement of the block runs in turn.  A statement followed by a
comment, on its own line or on the comment lines after it, shows its
result: the comment is read as a Python literal and must equal the value
of the expression.
"""

import ast
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_start_block() -> str:
    section = README.read_text().split("\n## Quick start\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def statements_and_shown_results(block: str):
    """(statement node, shown result text or None) for each top-level statement."""
    lines = block.splitlines()
    for node in ast.parse(block).body:
        tail = lines[node.end_lineno - 1][node.end_col_offset :].strip()
        shown = [tail[1:].strip()] if tail.startswith("#") else []
        for line in lines[node.end_lineno :]:
            if not line.startswith("#"):
                break
            shown.append(line[1:].strip())
        yield node, " ".join(shown) or None


def test_readme_quick_start_shows_its_results():
    block = quick_start_block()
    namespace: dict = {}
    checked = 0
    for node, shown in statements_and_shown_results(block):
        if shown is None:
            exec(compile(ast.Module([node], type_ignores=[]), "README.md", "exec"), namespace)
            continue
        assert isinstance(node, ast.Expr), ast.unparse(node)
        value = eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace)
        assert value == ast.literal_eval(shown), ast.unparse(node)
        checked += 1
    # The block shows five results: the key, a decoded family, the box
    # table, the validity verdict and the countermodel.
    assert checked == 5
