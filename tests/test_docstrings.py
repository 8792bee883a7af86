"""Every public module-level function and class in the package has a docstring.

A static check with :mod:`ast`: a top-level ``def`` or ``class`` whose
name does not start with an underscore must open with a docstring.
"""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted((ROOT / "src" / "posid").glob("*.py"))


def undocumented(source: str) -> list[str]:
    """``"<line>: <name>"`` for every public top-level definition that has
    no docstring."""
    return [f"{node.lineno}: {node.name}" for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))
            and not node.name.startswith("_")
            and ast.get_docstring(node) is None]


def test_checker_reports_public_undocumented_names_only():
    source = (
        "def bare():\n"
        "    return 1\n"
        "def _private():\n"
        "    pass\n"
        "def documented():\n"
        "    '''Does a thing.'''\n"
        "class Record:\n"
        "    x: int\n"
        "    def method(self):\n"
        "        pass\n"
        "if True:\n"
        "    def nested():\n"
        "        pass\n")
    assert undocumented(source) == ["1: bare", "7: Record"]


@pytest.mark.parametrize("path", FILES,
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_every_public_name_has_a_docstring(path):
    assert undocumented(path.read_text()) == []
