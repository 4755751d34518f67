"""Checks on the package source itself."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "torusfloer"

# module.name or module.class.method -> why it stays without a caller in src/
UNCALLED_ALLOWED = {
    "runner.solve_seed": "wrapped by perfbench/tracing.py",
    "cli._Parser.error": "argparse calls it on a usage error",
}

# module.name -> why a module imports the name without using it
UNUSED_IMPORTS_ALLOWED = {
    f"floer.{name}": "re-imported for perfbench/tracing.py, which wraps it on floer"
    for name in ("grad_h_tilde", "h_tilde", "hamiltonian_residual", "hamiltonian_value")
} | {"cli.locale": "build_parser's first gettext lookup imports it; cli imports it at start-up instead"}

# module.function.parameter or module.class.method.parameter -> why an optional parameter stays unset
UNSET_ALLOWED = {
    "floer.run_homotopy.triple": "pinned by test_knob_census; general compatible triples are an open ROADMAP item",
}

# module.class -> why the class stays a dataclass (each validates in __post_init__); a plain record is a NamedTuple
DATACLASS_ALLOWED = {
    "spectral.TorusField": "validates and freezes its values in __post_init__",
    "structures.StructureTriple": "validates and freezes its matrices in __post_init__",
    "structures.CurrentSample": "validates its shapes in __post_init__",
    "floer.BetaProfile": "validates r and k in __post_init__",
    "hamiltonians.HamiltonianSpec": "validates n_pairs and rho in __post_init__, holds the cached_property "
    "has_cutoff and has its fields pinned by test_knob_census",
    "hamiltonians.LagrangianSpec": "takes the InitVar check_convexity and validates in __post_init__",
    "runner.ExperimentConfig": "validates in __post_init__, holds the cached_property spec and has its fields "
    "pinned by test_knob_census",
}


def _attribute_loads(tree) -> Counter:
    attributes = (node for node in ast.walk(tree) if isinstance(node, ast.Attribute))
    return Counter(node.attr for node in attributes if isinstance(node.ctx, ast.Load))


def test_no_uncalled_helpers():
    """Every top-level def and class of src/torusfloer, and every method of its classes, has a reference in src/.

    A reference to a top-level name is a name load in its own module or a
    `from .module import name` in another one, the package's exports in
    __init__ included.  A reference to a method or property is a load of its
    name as an attribute, on any object: a load of another attribute with the
    same name, such as a NamedTuple field, counts as a call too.  Either
    counts only outside the definition's own body.  Dunder methods are left
    out: Python calls them.
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


def _optional_parameters(fn: ast.FunctionDef, bound: bool) -> dict:
    """{name: position in a call, or None for keyword-only} of fn's parameters with a default.

    A method called on an instance or a class called for its __init__ has
    its first parameter bound, so the positions of a call start after it.
    """
    args = fn.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    optional = {arg.arg: k - bound for k, arg in enumerate(positional) if k >= first}
    optional.update((arg.arg, None) for arg, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None)
    return optional


def test_no_unset_parameters():
    """Every optional parameter of a function or method of src/torusfloer is set by a call in src/, tests/ or perfbench.

    A call sets a parameter by position or by keyword.  Calls match by the
    called name alone: `f(...)` and `x.f(...)` both call every def named
    f, and a call of a class calls its __init__.  A call with *args or
    **kwargs sets every parameter.  A parameter that no call sets is a
    fixed value and belongs in the body, or in a module constant.
    """
    defs = []  # (qualified name, called name, optional parameters)
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            if isinstance(top, ast.FunctionDef):
                defs.append((f"{path.stem}.{top.name}", top.name, _optional_parameters(top, False)))
            elif isinstance(top, ast.ClassDef):
                for method in (node for node in top.body if isinstance(node, ast.FunctionDef)):
                    static = any(getattr(d, "id", None) == "staticmethod" for d in method.decorator_list)
                    called = top.name if method.name == "__init__" else method.name
                    qualified = f"{path.stem}.{top.name}.{method.name}"
                    defs.append((qualified, called, _optional_parameters(method, not static)))
    calls = {}
    for path in sorted(path for folder in ("src", "tests", "perfbench") for path in (ROOT / folder).rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
                calls.setdefault(getattr(node.func, "id", None) or node.func.attr, []).append(node)

    def sets(call: ast.Call, name: str, position) -> bool:
        if any(isinstance(arg, ast.Starred) for arg in call.args) or any(k.arg is None for k in call.keywords):
            return True
        return any(k.arg == name for k in call.keywords) or (position is not None and len(call.args) > position)

    unset = [
        f"{qualified}.{name}"
        for qualified, called, optional in defs
        for name, position in optional.items()
        if not any(sets(call, name, position) for call in calls.get(called, []))
    ]
    assert sorted(unset) == sorted(UNSET_ALLOWED)


def test_dataclasses_are_the_allowed_ones():
    """Every @dataclass of src/torusfloer is in DATACLASS_ALLOWED and defines __post_init__.

    A frozen dataclass compiles its generated methods at import, about 1 ms
    a class; a typing.NamedTuple with the same fields and methods is
    defined in about 0.1 ms.  So a class stays a dataclass only when it
    validates in __post_init__, and a plain record is a NamedTuple, rebuilt
    with `_replace`.
    """
    dataclasses = {
        f"{path.stem}.{top.name}": top
        for path in sorted(SRC.glob("*.py"))
        for top in ast.parse(path.read_text()).body
        if isinstance(top, ast.ClassDef)
        and any(ast.unparse(d).split("(")[0] == "dataclass" for d in top.decorator_list)
    }
    assert sorted(dataclasses) == sorted(DATACLASS_ALLOWED)
    for name, top in dataclasses.items():
        methods = {node.name for node in top.body if isinstance(node, ast.FunctionDef)}
        assert "__post_init__" in methods, name
