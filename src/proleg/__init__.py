"""proleg: a toolchain for the PROLEG legal-reasoning language.

Parse rule bases and case facts, evaluate queries under
rule-with-exception semantics with full reasoning traces, render traces
as text, DOT, or JSON, convert a restricted Prolog dialect into PROLEG,
and lint rule bases for structural defects. The ``gdpr`` subpackage
ships an executable formalization of GDPR Article 6 with test cases.

The names of ``convert`` and ``lint`` load their module on first use:
a fresh process without a bytecode cache compiles every module it
imports, and ``proleg run`` or ``proleg check`` calls neither.
"""

import sys
from importlib import import_module
from types import ModuleType

from .ast import (
    Atom,
    Compound,
    Constant,
    ExceptionDecl,
    FactBase,
    Integer,
    Program,
    Rule,
    SourceRef,
    Substitution,
    Term,
    Text,
    Variable,
    apply,
    unify,
)
from .engine import (
    DepthExceeded,
    EngineConfig,
    EngineError,
    StepsExceeded,
    Unstratified,
    holds_all,
    solve,
    stratify,
)
from .parser import (
    ParseError,
    ParseFailure,
    PrologClause,
    parse_atom,
    parse_facts,
    parse_program,
    parse_prolog_subset,
    serialize,
)
from .trace import (
    EdgeKind,
    Outcome,
    TraceNode,
    render_dot,
    render_json,
    render_text,
    trace_from_json,
)

__version__ = "0.1.0"

__all__ = [
    "Atom",
    "Compound",
    "Constant",
    "ConvertReport",
    "DepthExceeded",
    "EdgeKind",
    "EngineConfig",
    "EngineError",
    "ExceptionDecl",
    "FactBase",
    "Integer",
    "LintConfig",
    "LintFinding",
    "Outcome",
    "ParseError",
    "ParseFailure",
    "Program",
    "PrologClause",
    "Rule",
    "SourceRef",
    "StepsExceeded",
    "Substitution",
    "Term",
    "Text",
    "TraceNode",
    "Unstratified",
    "Variable",
    "apply",
    "convert_source",
    "holds_all",
    "lint",
    "parse_atom",
    "parse_facts",
    "parse_program",
    "parse_prolog_subset",
    "render_dot",
    "render_json",
    "render_text",
    "serialize",
    "solve",
    "stratify",
    "to_proleg",
    "trace_from_json",
    "unify",
]

# The names each lazily loaded module exports to the package.
_LAZY = {
    "convert": ("ConvertReport", "convert_source", "to_proleg"),
    "lint": ("LintConfig", "LintFinding", "lint"),
}
_LAZY_MODULE = {name: module for module, names in _LAZY.items() for name in names}


class _Package(ModuleType):
    """The package's module type, which loads ``convert`` and ``lint`` on
    first use of one of their names."""

    def __getattr__(self, name: str):
        module = _LAZY_MODULE.get(name)
        if module is None:
            raise AttributeError(f"module {self.__name__!r} has no attribute {name!r}")
        return getattr(import_module(f"{self.__name__}.{module}"), name)

    def __setattr__(self, name: str, value) -> None:
        # The import system binds a submodule it has loaded here, whichever
        # import loaded it. Binding its names with it keeps ``proleg.lint``
        # the function, never the module of the same name.
        super().__setattr__(name, value)
        if name in _LAZY and value is sys.modules.get(f"{self.__name__}.{name}"):
            for export in _LAZY[name]:
                super().__setattr__(export, getattr(value, export))

    def __dir__(self) -> list[str]:
        return sorted(set(super().__dir__()) | set(__all__))


sys.modules[__name__].__class__ = _Package
