"""The package's layers point one way: core, then the solvers, generators
and formats, then instances, the CLI and the package root; every name the
package exports has a user; and every exception type can be raised."""

import ast
from pathlib import Path

import mpgsolve
from mpgsolve import errors

PACKAGE = Path(mpgsolve.__file__).parent
ROOT = Path(__file__).resolve().parents[1]

_BELOW_CORE = {"core", "errors"}
ALLOWED = {
    "errors": set(),
    "core": {"errors"},
    "kasi": _BELOW_CORE,
    "checker": _BELOW_CORE,
    "value_iteration": _BELOW_CORE,
    "oracle": _BELOW_CORE,
    "generators": _BELOW_CORE,
    "formats": _BELOW_CORE,
}
#: May import any module of the package.
TOP = {"__init__", "instances", "cli"}


def _package_imports(path: Path) -> set[str]:
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            if node.level == 0:
                parts = (node.module or "").split(".")
                if parts[0] == "mpgsolve" and len(parts) > 1:
                    found.add(parts[1])
            elif node.module:
                found.add(node.module.split(".")[0])
            else:  # from . import a, b
                found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "mpgsolve" and len(parts) > 1:
                    found.add(parts[1])
    return found


def test_every_module_has_a_layer():
    modules = {p.stem for p in PACKAGE.glob("*.py")}
    assert modules == set(ALLOWED) | TOP


def test_imports_point_down():
    for name, allowed in ALLOWED.items():
        imported = _package_imports(PACKAGE / f"{name}.py")
        assert imported <= allowed, f"{name} imports {sorted(imported - allowed)}"


def test_only_core_calls_validate():
    # a game is checked once, when core builds it; nothing checks it again
    for path in PACKAGE.glob("*.py"):
        calls = [
            node.lineno
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Call)
            and (getattr(node.func, "id", None) == "validate" or getattr(node.func, "attr", None) == "validate")
        ]
        assert path.stem == "core" or not calls, f"{path.stem} calls validate on lines {calls}"


def _used_names(path: Path) -> set[str]:
    """Names a file takes from the package: those it imports from it, and
    attributes it reads off one of the package's modules."""
    tree = ast.parse(path.read_text())
    modules = set()  # local names bound to the package or one of its modules
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.split(".")[0] == "mpgsolve"):
            for alias in node.names:
                used.add(alias.name)
                if (PACKAGE / f"{alias.name}.py").exists():
                    modules.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "mpgsolve":
                    modules.add(alias.asname or "mpgsolve")
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in modules:
            used.add(node.attr)
    return used


def test_every_exported_name_has_a_user():
    # a user is a demo, a non-test file of the benchmark, or a module of the
    # package other than the name's own; tests and the re-export do not count
    home = {
        alias.asname or alias.name: node.module
        for node in ast.parse((PACKAGE / "__init__.py").read_text()).body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    users = [*ROOT.glob("demos/*.py"), *ROOT.glob("perfbench/*.py")]
    used = set().union(*(_used_names(p) for p in users if not p.stem.startswith("test_")))
    for path in PACKAGE.glob("*.py"):
        if path.stem != "__init__":
            used.update(name for name in _used_names(path) if home.get(name) != path.stem)
    unused = [name for name in mpgsolve.__all__ if name not in used]
    assert not unused, f"exported without a user: {unused}"


def test_every_import_is_used():
    # no linter guards the package, so this walk does: every name a module
    # imports must be read somewhere in it (attribute reads start from a
    # name too); the package root imports only to re-export
    for path in PACKAGE.glob("*.py"):
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text())
        imported = {
            (alias.asname or alias.name).split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        unused = sorted(imported - read)
        assert not unused, f"{path.stem} imports {unused} without using them"


def test_every_private_name_is_used():
    # a function or class named with one leading underscore is internal, so
    # some code of the package must read it, or it is left behind
    trees = [ast.parse(path.read_text()) for path in PACKAGE.glob("*.py")]
    defined = {
        node.name
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_") and not node.name.startswith("__")
    }
    read = {
        node.id if isinstance(node, ast.Name) else node.attr
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    }
    unused = sorted(defined - read)
    assert not unused, f"private names without a reader: {unused}"


def test_every_public_name_has_a_user():
    # a public module-level function or class of the package needs a reader
    # in the package (its own module included), a demo or a non-test file
    # of the benchmark; tests and the re-export do not count, so a helper
    # that only tests read lives under tests/ instead
    trees = [ast.parse(path.read_text()) for path in PACKAGE.glob("*.py")]
    defined = {
        node.name
        for tree in trees
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    }
    read = {
        node.id if isinstance(node, ast.Name) else node.attr
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    }
    users = [*ROOT.glob("demos/*.py"), *ROOT.glob("perfbench/*.py")]
    read.update(*(_used_names(p) for p in users if not p.stem.startswith("test_")))
    unused = sorted(defined - read)
    assert not unused, f"public names without a user: {unused}"


def test_every_error_is_raised():
    # an exception type that no module of the package raises, and that is
    # no base of one that is raised, is a name no caller can meet
    raised = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(exc.id if isinstance(exc, ast.Name) else getattr(exc, "attr", None))
    classes = [c for c in vars(errors).values() if isinstance(c, type) and c.__module__ == errors.__name__]
    raised_classes = [c for c in classes if c.__name__ in raised]
    unraised = [c.__name__ for c in classes if not any(issubclass(r, c) for r in raised_classes)]
    assert not unraised, f"never raised: {unraised}"
