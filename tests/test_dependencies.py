"""Checks over the package source: it depends on the standard library only,
changes no process-wide interpreter setting, keeps the trace module off
the parser, keeps slow standard modules out of its import, loads only the
modules each command runs, and keeps its public names whatever the import
order."""

from __future__ import annotations

import argparse
import ast
import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from proleg.cli import build_arg_parser

SRC = Path(__file__).resolve().parents[1] / "src" / "proleg"
DATA = SRC / "gdpr" / "data"


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
    # from loading them first. The package and the command line load
    # ``lint``, ``convert`` and ``gdpr`` only on use, so they are named here.
    script = ("import sys; sys.path.insert(0, sys.argv[1]); "
              "import proleg, proleg.cli, proleg.lint, proleg.convert, proleg.gdpr; "
              "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    found = subprocess.run([sys.executable, "-S", "-c", script, str(SRC.parent)],
                           capture_output=True, text=True, check=True)
    assert found.stdout == "[]\n"


# The modules every command loads: the command line, and the package with
# the four modules a query needs.
QUERY_PATH = ["proleg.ast", "proleg.cli", "proleg.engine", "proleg.parser", "proleg.trace"]


def test_each_command_loads_only_the_modules_it_runs(tmp_path):
    # Without a bytecode cache a fresh process compiles every module it
    # imports, and that is most of a cold `proleg run`. So `run` and
    # `check` load no module they do not call, and each other command adds
    # only its own.
    draft = tmp_path / "draft.pl"
    draft.write_text("lawful(P) :- consent(P), \\+ withdrawn(P).\n", encoding="utf-8")
    commands = {
        "run": (["run", str(DATA / "article6_curated.proleg"), str(DATA / "withdrawal.facts"),
                 "--query", "lawful_processing(case1)", "--text",
                 "--dot", str(tmp_path / "run.dot"), "--trace", str(tmp_path / "run.json")],
                1, []),
        "check": (["check", str(DATA / "article6_curated.proleg")], 0, []),
        "lint": (["lint", str(DATA / "article6_curated.proleg"),
                  "--config", str(DATA / "article6_lint.json"), "--fail-on", "warning"],
                 0, ["proleg.lint"]),
        "convert": (["convert", str(draft), str(tmp_path / "out.proleg")], 0, ["proleg.convert"]),
        "case run": (["case", "run", str(DATA / "cases" / "withdrawal.case.json"), "--text"],
                     0, ["proleg.gdpr"]),
    }
    script = ("import json, sys; sys.path.insert(0, sys.argv[1]); from proleg.cli import main; "
              "code = main(sys.argv[2:]); "
              "loaded = sorted(m for m in sys.modules if m.startswith('proleg.')); "
              "print(json.dumps([code, loaded]), file=sys.stderr)")
    for command, (argv, code, own) in commands.items():
        found = subprocess.run([sys.executable, "-S", "-c", script, str(SRC.parent), *argv],
                               capture_output=True, text=True)
        assert found.returncode == 0, found.stderr
        assert json.loads(found.stderr.splitlines()[-1]) == [code, sorted(QUERY_PATH + own)], \
            command

    # `--fail-on` spells lint's two severities without importing it.
    lint_module = importlib.import_module("proleg.lint")
    subparsers = next(action for action in build_arg_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    fail_on = next(action for action in subparsers.choices["lint"]._actions
                   if action.dest == "fail_on")
    assert list(fail_on.choices) == [lint_module.WARNING, lint_module.ERROR]
    assert fail_on.default == lint_module.ERROR


# The public names of the package, by the module that defines them.
EXPORTS = {
    "ast": "Atom Compound Constant ExceptionDecl FactBase Integer Program Rule SourceRef "
           "Substitution Term Text Variable apply unify",
    "convert": "ConvertReport convert_source to_proleg",
    "engine": "DepthExceeded EngineConfig EngineError StepsExceeded Unstratified holds_all "
              "solve stratify",
    "lint": "LintConfig LintFinding lint",
    "parser": "ParseError ParseFailure PrologClause parse_atom parse_facts parse_program "
              "parse_prolog_subset serialize",
    "trace": "EdgeKind Outcome TraceNode render_dot render_json render_text trace_from_json",
}

# Each import order binds ``bound``: the public names its statement bound
# itself, each of which must be the package's own.
IMPORT_ORDERS = {
    "package": "import proleg\nbound = {}",
    "lint module": "import proleg.lint\nbound = {}",
    "from lint module": "from proleg.lint import LintConfig\nbound = {'LintConfig': LintConfig}",
    "lint module as": "import proleg.lint as m\nbound = {'lint': m}",
    "convert module": "import proleg.convert\nbound = {}",
    "star": "from proleg import *\nbound = {name: globals()[name] for name in defined}",
}

API_CHECK = """\
import importlib, sys
sys.path.insert(0, sys.argv[1])
exports = {exports!r}
defined = {{name: module for module, names in exports.items() for name in names.split()}}
{order}
import proleg
public = {{name: getattr(proleg, name) for name in proleg.__all__}}
assert public.keys() == defined.keys(), sorted(public.keys() ^ defined.keys())
for name, module in defined.items():
    expected = getattr(importlib.import_module("proleg." + module), name)
    assert public[name] is expected, name
    assert getattr(proleg, name) is expected, name
    assert bound.get(name, expected) is expected, name
assert proleg.lint is sys.modules["proleg.lint"].lint
assert set(proleg.__all__) <= set(dir(proleg))
try:
    proleg.no_such_name
except AttributeError as exc:
    assert str(exc) == "module 'proleg' has no attribute 'no_such_name'", exc
else:
    raise AssertionError("proleg.no_such_name is bound")
"""


@pytest.mark.parametrize("order", IMPORT_ORDERS)
def test_the_public_api_holds_under_every_import_order(order):
    # ``convert`` and ``lint`` load on first use, and ``lint`` names both a
    # module and its function: whichever import loads the module, every
    # public name is the object its module defines, and ``proleg.lint`` is
    # the function, as it was when the package imported every module.
    script = API_CHECK.format(exports=EXPORTS, order=IMPORT_ORDERS[order])
    checked = subprocess.run([sys.executable, "-S", "-c", script, str(SRC.parent)],
                             capture_output=True, text=True)
    assert checked.returncode == 0, checked.stderr
