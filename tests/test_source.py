"""Checks on the package source itself."""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "torusfloer"

# module.name -> why it stays without a caller in src/
UNCALLED_ALLOWED = {"runner.solve_seed": "wrapped by perfbench/tracing.py"}


def test_no_uncalled_helpers():
    """Every top-level def and class of src/torusfloer has a reference in src/ outside its own body.

    A reference is a name load in its own module or a `from .module import
    name` in another one, the package's exports in __init__ included.
    """
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    imported = {
        (node.module, alias.name)
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    }
    uncalled = []
    for module, tree in trees.items():
        loads = Counter(node.id for node in ast.walk(tree) if isinstance(node, ast.Name))
        for top in tree.body:
            if not isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                continue
            own = Counter(node.id for node in ast.walk(top) if isinstance(node, ast.Name))
            if loads[top.name] == own[top.name] and (module, top.name) not in imported:
                uncalled.append(f"{module}.{top.name}")
    assert sorted(uncalled) == sorted(UNCALLED_ALLOWED)
