"""The library names the benchmark reaches into must exist.

``bench/spans.py`` wraps library functions by name when tracing, and
``bench/workloads.py`` and ``bench/run.py`` import library names; deleting or
renaming one of them would only show when ``bench/run.py`` runs.  These tests
read ``bench/`` and change nothing there.
"""

import ast
import importlib
import runpy
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _missing(pairs, check):
    return [f"{module}.{name}" for module, name in pairs
            if not check(getattr(importlib.import_module(module), name, None))]


def test_traced_functions_exist():
    traced = runpy.run_path(str(BENCH / "spans.py"))["TRACED"]
    pairs = [(module, name) for module, names, _ in traced.values() for name in names]
    assert pairs
    assert _missing(pairs, callable) == []


def test_imported_names_exist():
    pairs = []
    for script in ("workloads.py", "run.py"):
        tree = ast.parse((BENCH / script).read_text())
        pairs += [
            (node.module, alias.name)
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("semforge.")
            for alias in node.names
        ]
    assert pairs
    assert _missing(pairs, lambda value: value is not None) == []
