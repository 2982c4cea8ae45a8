"""Static checks over PROLEG rule bases.

The checks mechanize recurring structural defects of machine-drafted
legal rules, plus ordinary rule-base hygiene:

* PRESUPPOSED_CLAUSE: a body condition the rule's applicability already
  implies (configurable predicate list, e.g. ``data_is_processed/1``).
* INCONSISTENT_SIBLING_CONDITION: a condition that, if it belongs
  anywhere, belongs to every rule sharing the head, yet appears in only
  some of them.
* ORPHAN_EXCEPTION: an exception declared for a conclusion no rule
  derives.
* UNDEFINED_PREDICATE: a body or exception predicate with no defining
  rule that is not part of the declared fact schema.
* UNSTRATIFIED_EXCEPTION_CYCLE: a dependency cycle through an exception
  edge, which the evaluator would reject.

Linting is pure. Findings come back by source line, ties in check
order; findings for statements without a line, as in a program built
in code, come after all the others, in check order.
"""

from __future__ import annotations

import json
import re
from enum import Enum
from pathlib import Path
from typing import Optional, Sequence, Union

from .ast import (
    IDENT_PATTERN,
    Atom,
    PredicateKey,
    Program,
    Record,
    Variable,
    indicator,
    rename_apart,
    unify_atoms,
    variables_of,
)
from .engine import Unstratified

WARNING = "warning"
ERROR = "error"

_SEVERITY_RANK = {WARNING: 1, ERROR: 2}


class LintCheck(Enum):
    PRESUPPOSED_CLAUSE = "PRESUPPOSED_CLAUSE"
    INCONSISTENT_SIBLING_CONDITION = "INCONSISTENT_SIBLING_CONDITION"
    ORPHAN_EXCEPTION = "ORPHAN_EXCEPTION"
    UNDEFINED_PREDICATE = "UNDEFINED_PREDICATE"
    UNSTRATIFIED_EXCEPTION_CYCLE = "UNSTRATIFIED_EXCEPTION_CYCLE"


_INDICATOR_RE = re.compile(f"({IDENT_PATTERN})/([0-9]+)")


def _parse_indicator(item: object) -> PredicateKey:
    match = _INDICATOR_RE.fullmatch(item) if isinstance(item, str) else None
    if match is None:
        raise ValueError(f"expected 'name/arity', got {item!r}")
    return (match[1], int(match[2]))


class LintConfig(Record):
    """Predicate lists driving the configurable checks.

    Defaults target the GDPR Article 6 vocabulary but are plain data so
    the same checks transfer to other rule bases.
    """

    __slots__ = _fields = ("presupposed_predicates", "universal_condition_predicates",
                           "declared_fact_schema")

    def __init__(
        self,
        presupposed_predicates: tuple[PredicateKey, ...] = (
            ("data_is_processed", 1),
            ("processing_occurs", 1),
        ),
        universal_condition_predicates: tuple[PredicateKey, ...] = (
            ("compliant_with_art5_principles", 1),
        ),
        declared_fact_schema: tuple[PredicateKey, ...] = (),
    ) -> None:
        self._init(presupposed_predicates, universal_condition_predicates, declared_fact_schema)

    @classmethod
    def from_obj(cls, obj: object) -> "LintConfig":
        """Build a config from parsed JSON; raises ValueError unless it is
        an object of known fields whose lists hold ``name/arity`` strings."""
        if not isinstance(obj, dict):
            raise ValueError(f"expected a JSON object, got {obj!r}")
        for name in obj:
            if name not in cls._fields:
                raise ValueError(f"unknown field {name!r}")
        values = {}
        for name in cls._fields:  # a field left out keeps its default
            if name in obj:
                if not isinstance(obj[name], list):
                    raise ValueError(f"'{name}' must be a list, got {obj[name]!r}")
                values[name] = tuple(_parse_indicator(item) for item in obj[name])
        return cls(**values)

    @classmethod
    def from_json_file(cls, path: Union[str, Path]) -> "LintConfig":
        """Read a config file; raises OSError if it cannot be read and
        ValueError if it is not UTF-8 JSON of the shape ``from_obj`` takes."""
        try:
            obj = json.loads(Path(path).read_text(encoding="utf-8-sig"))
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path} is not UTF-8 text: {exc}") from None
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path} is not JSON: {exc}") from None
        except RecursionError:  # the C decoder recurses once per container
            raise ValueError(f"{path} is nested too deeply") from None
        return cls.from_obj(obj)


DEFAULT_LINT_CONFIG = LintConfig()


class LintFinding(Record):
    """One problem a check found, at a statement and its source line."""

    __slots__ = _fields = ("check_id", "severity", "statement", "line", "message", "related")

    def __init__(self, check_id: LintCheck, severity: str, statement: str, line: Optional[int],
                 message: str, related: tuple[str, ...] = ()) -> None:
        self._init(check_id, severity, statement, line, message, related)

    def to_obj(self) -> dict:
        return {
            "check_id": self.check_id.value,
            "severity": self.severity,
            "statement": self.statement,
            "line": self.line,
            "message": self.message,
            "related": list(self.related),
        }

    def __str__(self) -> str:
        where = f" (line {self.line})" if self.line is not None else ""
        suffix = f" [related: {', '.join(self.related)}]" if self.related else ""
        return (
            f"{self.severity}: {self.check_id.value} at {self.statement}{where}: "
            f"{self.message}{suffix}"
        )


def findings_to_json(findings: list[LintFinding]) -> str:
    return json.dumps([f.to_obj() for f in findings], indent=2)


def _unifies_with_every_instance(head: Atom) -> bool:
    """True when the head's arguments are distinct variables, so that it
    unifies with every atom of its predicate that shares none of them."""
    return len({arg.name for arg in head.args if arg.__class__ is Variable}) == len(head.args)


def lint(program: Program, config: Optional[LintConfig] = None) -> list[LintFinding]:
    """Run every check. Findings are ordered by source line, ties in check
    order, then come the findings without a line, in check order.

    One walk over the rules, then one over the exception declarations,
    takes each atom's predicate key once and feeds every check. The
    cycle check reads the first closing declaration, and its cycle, from
    the Program's ``dependency_graph``, the graph ``stratify`` and
    ``solve`` check, built on first use and kept. A program with no
    exception declaration has no cycle through one, so it skips this. A
    statement's label is only formatted for a finding.
    """
    cfg = config or DEFAULT_LINT_CONFIG
    findings: list[LintFinding] = []
    presupposed = set(cfg.presupposed_predicates)
    universal = set(cfg.universal_condition_predicates)
    rules = program.rules
    # Each rule's body keys, in program order, for the sibling check. A
    # rule with no candidate condition keeps none, so a large base does
    # not hold one list per rule for the length of the call.
    body_keys: list[Sequence[PredicateKey]] = []
    by_head: dict[PredicateKey, list[int]] = {}  # the rules' positions under each head key
    # The first statement using each body or exception predicate, by its
    # position in program order: the rules, then the exception declarations.
    first_use: dict[PredicateKey, int] = {}
    for position, rule in enumerate(rules):
        head = rule.head
        head_key = (head.predicate, len(head.args))
        keys = [(atom.predicate, len(atom.args)) for atom in rule.body]
        body_keys.append(() if universal.isdisjoint(keys) else keys)
        by_head.setdefault(head_key, []).append(position)
        for key in keys:
            if key not in first_use:
                first_use[key] = position
        if presupposed.isdisjoint(keys):
            continue
        for atom, key in zip(rule.body, keys):
            if key in presupposed:
                findings.append(
                    LintFinding(
                        LintCheck.PRESUPPOSED_CLAUSE,
                        WARNING,
                        f"rule {rule.id}",
                        rule.line,
                        f"condition '{atom}' is presupposed by the rule's "
                        "applicability and should be omitted",
                    )
                )

    candidates = sorted(universal)
    for head_key, group in by_head.items():
        if len(group) < 2:
            continue
        for candidate in candidates:
            having = [position for position in group if candidate in body_keys[position]]
            if having and len(having) < len(group):
                first = rules[having[0]]
                findings.append(
                    LintFinding(
                        LintCheck.INCONSISTENT_SIBLING_CONDITION,
                        WARNING,
                        f"rule {first.id}",
                        first.line,
                        f"condition '{indicator(candidate)}' appears in "
                        f"{len(having)} of {len(group)} rules for "
                        f"'{indicator(head_key)}'; a condition that applies to "
                        "every instance belongs in all sibling rules or none",
                        related=tuple(rules[position].id for position in group
                                      if candidate not in body_keys[position]),
                    )
                )

    for index, decl in enumerate(program.exceptions, start=1):
        exception = decl.exception
        key = (exception.predicate, len(exception.args))
        if key not in first_use:
            first_use[key] = len(rules) + index - 1
        head = decl.head
        group = by_head.get((head.predicate, len(head.args)))
        if group:
            heads = [rules[at].head for at in group]
            if any(map(_unifies_with_every_instance, heads)):
                continue
            # Renamed apart from the rule heads; only rules under its key can unify.
            (head,) = rename_apart((head,), variables_of(head), index)
            if any(unify_atoms(head, rule_head) is not None for rule_head in heads):
                continue
        findings.append(
            LintFinding(
                LintCheck.ORPHAN_EXCEPTION,
                WARNING,
                f"exception {index}",
                decl.line,
                f"exception declared for '{decl.head}' but no rule concludes it",
            )
        )

    schema = set(cfg.declared_fact_schema)
    for key, position in first_use.items():
        if key in by_head or key in schema:
            continue
        if position < len(rules):
            statement, line = f"rule {rules[position].id}", rules[position].line
        else:
            statement = f"exception {position - len(rules) + 1}"
            line = program.exceptions[position - len(rules)].line
        findings.append(
            LintFinding(
                LintCheck.UNDEFINED_PREDICATE,
                WARNING,
                statement,
                line,
                f"predicate '{indicator(key)}' has no defining rule and is "
                "not in the declared fact schema",
            )
        )

    cycle = program.dependency_graph.cycle if program.exceptions else None
    if cycle is not None:
        position, keys = cycle
        findings.append(
            LintFinding(
                LintCheck.UNSTRATIFIED_EXCEPTION_CYCLE,
                ERROR,
                f"exception {position + 1}",
                program.exceptions[position].line,
                str(Unstratified(keys)),
            )
        )

    findings.sort(key=lambda f: f.line if f.line is not None else 10**9)
    return findings


def severity_at_least(severity: str, threshold: str) -> bool:
    return _SEVERITY_RANK[severity] >= _SEVERITY_RANK[threshold]
