"""Checks on the package source itself."""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "torusfloer"

# module.name or module.class.method -> why it stays without a caller in src/
UNCALLED_ALLOWED = {
    "runner.solve_seed": "wrapped by perfbench/tracing.py",
    "cli._Parser.error": "argparse calls it on a usage error",
}

# module.name -> why a module imports the name without using it
UNUSED_IMPORTS_ALLOWED = {
    f"floer.{name}": "re-imported for perfbench/tracing.py, which wraps it on floer"
    for name in ("grad_h_tilde", "h_tilde", "hamiltonian_residual", "hamiltonian_value")
}


def _attribute_loads(tree) -> Counter:
    attributes = (node for node in ast.walk(tree) if isinstance(node, ast.Attribute))
    return Counter(node.attr for node in attributes if isinstance(node.ctx, ast.Load))


def test_no_uncalled_helpers():
    """Every top-level def and class of src/torusfloer, and every method of its classes, has a reference in src/.

    A reference to a top-level name is a name load in its own module or a
    `from .module import name` in another one, the package's exports in
    __init__ included.  A reference to a method or property is a load of its
    name as an attribute.  Either counts only outside the definition's own
    body.  Dunder methods are left out: Python calls them.
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
    attributes = sum((_attribute_loads(tree) for tree in trees.values()), Counter())
    for module, tree in trees.items():
        for cls in (top for top in tree.body if isinstance(top, ast.ClassDef)):
            for method in (node for node in cls.body if isinstance(node, ast.FunctionDef)):
                if method.name.startswith("__") and method.name.endswith("__"):
                    continue
                if attributes[method.name] == _attribute_loads(method)[method.name]:
                    uncalled.append(f"{module}.{cls.name}.{method.name}")
    assert sorted(uncalled) == sorted(UNCALLED_ALLOWED)


def test_no_unused_imports():
    """Every name that a module of src/torusfloer imports is used in that module.

    A use is a name load anywhere in the module, an attribute's base
    included.  The package's __init__ is left out: its imports are its exports.
    """
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text())
        loads = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom) and node.module != "__future__"):
                bound = [(alias.asname or alias.name).split(".")[0] for alias in node.names]
                unused += [f"{path.stem}.{name}" for name in bound if name not in loads]
    assert sorted(unused) == sorted(UNUSED_IMPORTS_ALLOWED)
