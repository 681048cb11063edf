"""The README's Python Quick start, run as written, and its tables
against the code.

Each statement of the block runs in turn.  A statement followed by a
comment, on its own line or on the comment lines after it, shows its
result: the comment is read as a Python literal and must equal the value
of the expression.
"""

import argparse
import ast
import re
from pathlib import Path

from nbhd.classes import CLASS_TABLE, ClassTag, frame_tag_axioms
from nbhd.cli import build_parser
from nbhd.formulas import REGISTRY_NAMES

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


def table_rows(heading: str) -> list[list[str]]:
    """The cells of each body row of the first table under a heading; a
    cell's backslash-escaped pipes stay inside it."""
    section = README.read_text().split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    lines = [line for line in section.splitlines() if line.startswith("|")]
    return [[cell.strip() for cell in re.split(r"(?<!\\)\|", line)[1:-1]] for line in lines[2:]]


def test_readme_registry_table_lists_every_registry_name():
    names = [row[0] for row in table_rows("Formulas and named axioms")]
    assert names == [f"`@{name}`" for name in REGISTRY_NAMES]


def test_readme_class_table_is_the_code_table():
    def cells(frame_tag, algebra_tag, axioms):
        return [frame_tag, f"`{algebra_tag}`" if algebra_tag else "", ", ".join(f"`@{name}`" for name in axioms)]

    want = [cells(f"`{frame_tag}`", algebra_tag, axioms) for frame_tag, algebra_tag, axioms in CLASS_TABLE]
    for label, ks in (("`kappa:k`, k ≤ 2", (1, 2)), ("`kappa:k`, k ≥ 3", (3, 4, 17))):
        (axioms,) = {frame_tag_axioms(ClassTag("kappa", k)) for k in ks}
        want.append(cells(label, None, axioms))
    assert table_rows("Class tags") == want


def long_options(parser: argparse.ArgumentParser) -> set[str]:
    """Every long option of a parser and of its subparsers, --help aside."""
    out = set()
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                out |= long_options(sub)
        out.update(opt for opt in action.option_strings if opt.startswith("--") and opt != "--help")
    return out


def test_readme_command_line_names_every_flag_and_no_other():
    section = README.read_text().split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    assert set(re.findall(r"--[a-z][a-z-]*", section)) == long_options(build_parser())
