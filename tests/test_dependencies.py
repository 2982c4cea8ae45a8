"""Checks over the package source: it depends on the standard library only,
changes no process-wide interpreter setting, keeps the trace module off
the parser, and keeps slow standard modules out of its import."""

from __future__ import annotations

import ast
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "proleg"


def imported_modules(path: Path) -> set[str]:
    """Top-level names of the absolute imports in one module."""
    names: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_every_module_imports_only_the_standard_library_or_proleg():
    modules = sorted(SRC.rglob("*.py"))
    assert len(modules) > 5
    allowed = set(sys.stdlib_module_names) | {"proleg"}
    outside = {
        str(path.relative_to(SRC)): sorted(imported_modules(path) - allowed) for path in modules
    }
    assert {name: found for name, found in outside.items() if found} == {}


def names_used(path: Path) -> set[str]:
    """Every attribute, variable and imported name one module mentions."""
    names: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.alias):
            names.add(node.name.split(".")[-1])
    return names


def test_no_module_changes_the_recursion_limit():
    # Every walk and the search itself run on explicit stacks, so nothing
    # needs a raised limit, and a raised limit would outlive the call.
    modules = sorted(SRC.rglob("*.py"))
    assert [str(path.relative_to(SRC)) for path in modules
            if "setrecursionlimit" in names_used(path)] == []


def package_imports(path: Path) -> set[str]:
    """The ``proleg`` modules one top-level module of the package imports,
    relatively or absolutely, as ``proleg.<name>``."""
    found: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names if alias.name.startswith("proleg."))
        elif isinstance(node, ast.ImportFrom):
            module = ("proleg." + (node.module or "")).rstrip(".") if node.level else node.module
            if module == "proleg":  # from . import x: x is a module
                found.update(f"proleg.{alias.name}" for alias in node.names)
            elif module.startswith("proleg."):
                found.add(module)
    return found


def test_the_trace_module_imports_only_the_data_model():
    # trace_from_json builds goals from term rows through the ast
    # constructors; it must never go back to parsing goal text. The first
    # line shows the helper sees the relative imports the package uses.
    assert package_imports(SRC / "engine.py") >= {"proleg.ast", "proleg.trace"}
    assert package_imports(SRC / "trace.py") == {"proleg.ast"}


def test_importing_the_package_loads_neither_dataclasses_nor_inspect():
    # Every run of the command line starts a fresh interpreter. Loading
    # these two modules, and compiling the methods ``dataclasses`` writes,
    # was about a third of importing the package. ``-S`` keeps site hooks
    # from loading them first.
    script = ("import sys; sys.path.insert(0, sys.argv[1]); import proleg, proleg.cli; "
              "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    found = subprocess.run([sys.executable, "-S", "-c", script, str(SRC.parent)],
                           capture_output=True, text=True, check=True)
    assert found.stdout == "[]\n"
