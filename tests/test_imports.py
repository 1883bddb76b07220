"""Guard the package's dependencies: the standard library and numpy.

scipy and mpmath are test oracles only; a module of ``src/fsosec`` that
imports anything else fails here.  Threads are started in one place,
the Monte Carlo batches of ``mc.py``.
"""
import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "fsosec"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "fsosec"}


def _imported_roots(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_package_imports_only_the_standard_library_and_numpy():
    found = {(path.name, root)
             for path in sorted(PACKAGE.glob("*.py"))
             for root in _imported_roots(ast.parse(path.read_text()))
             if root not in ALLOWED}
    assert found == set()


def test_only_mc_starts_threads():
    found = {path.name
             for path in sorted(PACKAGE.glob("*.py"))
             if {"concurrent", "threading"}
             & set(_imported_roots(ast.parse(path.read_text())))}
    assert found == {"mc.py"}
