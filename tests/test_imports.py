"""Source hygiene of the package: every name a module imports is used, and
every entry point the benchmark tracer wraps by name still exists.

A deletion that leaves an import behind shows up here.  __init__ is left
out: it imports names to re-export them.
"""

import ast
import importlib
import importlib.util
import sys
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


def _load_tracer():
    path = PACKAGE.parent.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _wrappers_left(mark):
    """(module or class, name) of every binding in gradedhh that still
    holds a benchmark wrapper."""
    modules = [m for n, m in sys.modules.items() if n == "gradedhh" or n.startswith("gradedhh.")]
    owners = modules + [v for m in modules for v in vars(m).values() if isinstance(v, type)]
    return [(owner, name) for owner in owners for name, value in vars(owner).items()
            if hasattr(value, mark)]


def test_every_name_the_benchmark_tracer_wraps_resolves():
    """The benchmark tracer wraps gradedhh entry points by name; a renamed or
    deleted one would break only the traced benchmark run.  Install and
    uninstall it here: every entry resolves and is wrapped, and uninstall
    leaves no wrapper behind."""
    importlib.import_module("gradedhh.cli")
    tracer = _load_tracer()
    entries = tracer.SPANS + tracer.COUNTERS
    for module_name, attr, _ in entries:
        owner, key = tracer._resolve(module_name, attr)
        assert key in vars(owner), f"{module_name}.{attr} does not resolve"
    assert _wrappers_left(tracer.MARK) == []
    installed = tracer.Tracer()
    try:
        installed.install()
        for module_name, attr, _ in entries:
            owner, key = tracer._resolve(module_name, attr)
            assert hasattr(vars(owner)[key], tracer.MARK), f"{module_name}.{attr} not wrapped"
    finally:
        installed.uninstall()
    assert _wrappers_left(tracer.MARK) == []
