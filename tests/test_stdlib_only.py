"""The package stays stdlib-only: every absolute import is a standard library module."""

import ast
import sys
from pathlib import Path

import zerohalf

PACKAGE = Path(zerohalf.__file__).parent


def _foreign_imports(source: str) -> list[tuple[int, str]]:
    """(line, module) of each absolute import outside the standard library."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found += [(node.lineno, name) for name in names
                  if name.split(".")[0] not in sys.stdlib_module_names]
    return found


def test_every_package_module_imports_only_the_standard_library():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert {"simplex.py", "cli.py", "__init__.py"} <= {p.name for p in modules}
    foreign = {p.name: _foreign_imports(p.read_text(encoding="utf-8")) for p in modules}
    assert {name: found for name, found in foreign.items() if found} == {}


def test_the_check_sees_absolute_imports_in_every_form():
    source = ("import os, numpy.linalg\nfrom fractions import Fraction\n"
              "from . import core\nfrom .core import Cut\n"
              "def f():\n    from scipy import optimize\n")
    assert _foreign_imports(source) == [(1, "numpy.linalg"), (6, "scipy")]
