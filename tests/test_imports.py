"""Every module of the package, and every test module, uses each name it
imports.

No linter runs on this code base, so this AST scan keeps unused imports
out.  A name imported into ``__init__.py`` and listed in its ``__all__``
is a re-export and counts as used.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = (sorted((ROOT / "src" / "principal_config").glob("*.py"))
           + sorted((ROOT / "tests").glob("*.py")))


def unused_imports(source):
    """Names that ``source`` imports and never reads, with their lines."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def test_scan_flags_only_unused_names():
    source = ("from __future__ import annotations\n"
              "import math\nimport os.path\nimport numpy as np\n"
              "from .geometry import MAXIMAL, MINIMAL\n"
              "from .jets import Poly\n"
              "__all__ = ['Poly']\n"
              "def f(x):\n    return np.sqrt(x) + os.path.sep.count(MINIMAL)\n")
    assert unused_imports(source) == ["MAXIMAL (line 5)", "math (line 2)"]


@pytest.mark.parametrize("path", MODULES,
                         ids=lambda p: p.relative_to(ROOT).as_posix())
def test_module_imports_are_used(path):
    assert unused_imports(path.read_text()) == []
