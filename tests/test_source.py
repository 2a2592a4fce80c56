"""Checks on the package source itself, read with `ast` (no linter is
installed)."""

import ast
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parent.parent / "src" / "oscillint"


# __init__ imports the public names it re-exports
@pytest.mark.parametrize("path", sorted(p for p in SOURCE.glob("*.py") if p.name != "__init__.py"),
                         ids=lambda p: p.name)
def test_no_unused_import(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {(alias.asname or alias.name).partition(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used) == []


REPO = SOURCE.parent.parent
# functions __init__ re-exports that nothing outside their module reads,
# each with the reason it stays public
UNREFERENCED_EXPORTS = {
    "load_config": "reads a config file into the ProblemConfig that `run` "
                   "takes; a report's provenance echo reloads through it",
    "differentiate": "ROADMAP item 11: mean-value enclosures of the q >= 0 guard",
    "shift_system": "ROADMAP item 1 deletes it with the rest of the "
                    "surface only the tracer and tests hold",
}


def _exported_functions() -> dict[str, Path]:
    """Each function __init__ re-exports, and the module defining it."""
    exported = {}
    for node in ast.parse((SOURCE / "__init__.py").read_text(encoding="utf-8")).body:
        if isinstance(node, ast.ImportFrom):
            module = SOURCE / f"{node.module}.py"
            defined = {d.name for d in ast.parse(module.read_text(encoding="utf-8")).body
                       if isinstance(d, ast.FunctionDef)}
            exported.update((alias.name, module) for alias in node.names
                            if alias.name in defined)
    return exported


def _names_read(path: Path) -> set[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return ({node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)})


def test_every_exported_function_is_used():
    readers = [p for p in SOURCE.glob("*.py") if p.name != "__init__.py"]
    readers += [*(REPO / "demos").glob("*.py"), *(REPO / "bench").glob("*.py"),
                REPO / "tests" / "test_acceptance.py"]
    names = {path: _names_read(path) for path in readers}
    exported = _exported_functions()
    unused = sorted(name for name, module in exported.items()
                    if not any(name in read for path, read in names.items() if path != module))
    assert unused == sorted(UNREFERENCED_EXPORTS)
