"""Every module of the package, and every test module, uses each name it
imports; and the package runs on numpy alone.

No linter runs on this code base, so this AST scan keeps unused imports
out.  A name imported into ``__init__.py`` and listed in its ``__all__``
is a re-export and counts as used.  The tests may use scipy as a
reference; the package imports none of it, at import time or in a
command.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE_MODULES = sorted((ROOT / "src" / "principal_config").glob("*.py"))
MODULES = PACKAGE_MODULES + sorted((ROOT / "tests").glob("*.py"))


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


def imported_modules(source):
    """Top-level names of the modules that ``source`` imports."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            out.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            out.add(node.module.split(".")[0])
    return out


@pytest.mark.parametrize("path", PACKAGE_MODULES,
                         ids=lambda p: p.relative_to(ROOT).as_posix())
def test_package_imports_no_scipy(path):
    assert "scipy" not in imported_modules(path.read_text())


def test_a_cycles_command_loads_no_scipy(tmp_path):
    script = (
        "import json, sys\n"
        "from principal_config.cli import main\n"
        "code = main(['cycles', '--surface', 'torus:2,1', '--seeds',\n"
        "             '0.3,0.9;1.5,0.9', '--foliation', 'maximal',\n"
        f"             '--out', {str(tmp_path / 'out')!r}])\n"
        "print(json.dumps([code, sorted(m for m in sys.modules\n"
        "                               if m.split('.')[0] == 'scipy')]))\n")
    r = subprocess.run([sys.executable, "-c", script], capture_output=True,
                       text=True, timeout=300,
                       env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert r.returncode == 0, r.stderr
    code, scipy_modules = json.loads(r.stdout.splitlines()[-1])
    assert code == 0 and scipy_modules == []
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert len(report["results"]["cycles"]) == 1     # the second merged
