"""The package's layers point one way: core, then the solvers, generators
and formats, then instances, the CLI and the package root."""

import ast
from pathlib import Path

import mpgsolve

PACKAGE = Path(mpgsolve.__file__).parent

_BELOW_CORE = {"core", "errors"}
ALLOWED = {
    "errors": set(),
    "core": {"errors"},
    "kasi": _BELOW_CORE,
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
