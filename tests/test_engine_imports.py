"""The engine in src/nashblowup imports nothing outside the standard library;
sympy and the other test extras serve only as references in the tests."""

import ast
import sys
from pathlib import Path

ENGINE = Path(__file__).resolve().parents[1] / "src" / "nashblowup"


def foreign_imports(source: str) -> list[tuple[int, str]]:
    """(line, module) of every import that is neither relative, `__future__`,
    nor a standard-library module."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        for name in names:
            top = name.split(".")[0]
            if top != "__future__" and top not in sys.stdlib_module_names:
                found.append((node.lineno, name))
    return found


def test_foreign_imports_fixture():
    source = ("from __future__ import annotations\nimport math, sympy.polys\n"
              "from . import linalg\nfrom .groebner import Ideal\n"
              "from fractions import Fraction\nfrom numpy import array\n")
    assert foreign_imports(source) == [(2, "sympy.polys"), (6, "numpy")]


def test_engine_imports_only_the_standard_library():
    paths = sorted(ENGINE.glob("*.py"))
    assert paths
    found = {path.name: foreign_imports(path.read_text()) for path in paths}
    assert {name: imports for name, imports in found.items() if imports} == {}
