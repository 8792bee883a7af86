"""Every import in the package and in its tests is used, and importing
the package stays cheap.

A static check with :mod:`ast`: a name an import binds must be read
somewhere in the same module, or be listed in its ``__all__``.  A dotted
``import a.b`` counts as used only where ``a.b`` itself is read, so an
import kept only for a sibling submodule is still reported.
"""
import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted([*(ROOT / "src" / "posid").glob("*.py"),
                *(ROOT / "tests").glob("*.py")])


def _dotted(node) -> str | None:
    """``"a.b.c"`` for an attribute chain on a plain name, else ``None``."""
    attrs = []
    while isinstance(node, ast.Attribute):
        attrs.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return ".".join([node.id, *reversed(attrs)])


def unused_imports(source: str) -> list[str]:
    """``"<line>: <name>"`` for every imported name the module never reads."""
    tree = ast.parse(source)
    used = set()
    imports = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Name, ast.Attribute)):
            used.add(_dotted(node))
        elif isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            used.update(ast.literal_eval(node.value))
        elif isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom)
                and node.module != "__future__"):
            imports += [(node.lineno, alias.asname or alias.name)
                        for alias in node.names]
    return [f"{line}: {name}" for line, name in imports if name not in used]


def test_checker_reports_unused_names_only():
    source = (
        "import os\n"
        "import scipy.linalg\n"
        "import scipy.optimize\n"
        "import numpy as np\n"
        "from .errors import ConfigError, DataError\n"
        "from .kernels import gram\n"
        "__all__ = ['gram']\n"
        "np.zeros(scipy.optimize.nnls)\n"
        "raise ConfigError\n")
    assert unused_imports(source) == ["1: os", "2: scipy.linalg",
                                      "5: DataError"]


@pytest.mark.parametrize("path", FILES,
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_importing_the_package_leaves_scipy_optimize_unloaded():
    # scipy.optimize adds about 20 MB to the peak RSS of every process
    # that loads it, and the package needs none of it.  Tests import it
    # in this process, so a fresh interpreter checks.
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ,
           "PYTHONPATH": src if not path else os.pathsep.join([src, path])}
    code = ("import sys, posid\n"
            "sys.exit('scipy.optimize' in sys.modules)")
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode \
        == 0
