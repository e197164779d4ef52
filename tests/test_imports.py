"""Source hygiene of the package: every name a module imports is used.

A deletion that leaves an import behind shows up here.  __init__ is left
out: it imports names to re-export them.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "gradedhh"
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


def imported_names(tree):
    """The names that the import statements anywhere in tree bind."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(set(imported_names(tree)) - used)


def test_unused_imports_finds_what_is_not_read():
    source = (
        "from __future__ import annotations\n"
        "import os.path\nimport sys as system\n"
        "from fractions import Fraction, gcd as g\n"
        "def f():\n    from math import pi\n    return os.path, Fraction\n"
    )
    assert unused_imports(source) == ["g", "pi", "system"]


def test_the_package_has_modules():
    assert len(MODULES) >= 7


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.stem)
def test_every_imported_name_is_used(path):
    unused = unused_imports(path.read_text())
    assert not unused, f"{path.name} imports names it never uses: {unused}"
