"""GDPR Article 6 rule base and its executable case corpus.

Bundled data:

* ``article6_curated.proleg`` — the expert-shaped lawful-basis rules,
  one rule per Article 6(1) ground, with consent sub-rules (Art. 7 and
  8) and the public-authority carve-out for legitimate interests.
* ``article6_llm.proleg`` — a deliberately flawed machine-drafted
  variant kept as a linter regression fixture; never run as a case
  ruleset.
* ``article6_lint.json`` — lint configuration declaring the fact
  schema for the curated rules.
* ``cases/*.case.json`` — thirteen executable cases: one positive and
  one negative per basis (the consent-withdrawal scenario is the
  consent negative) plus an empty-facts case.

A case file is JSON::

    {"id": str, "description": str, "ruleset": path,
     "facts": [atoms] | {"path": path}, "query": atom,
     "expected": "o" | "x",
     "expected_trace_fragments": [{"goal": pattern, "outcome": "o"|"x",
                                   "edge": "condition"|"exception"|"root"}]}

Paths are resolved relative to the case file. Goal patterns use ``_``
as a wildcard argument.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import NamedTuple, Optional, Union

from ..ast import Atom, Compound, FactBase, Program, Record, Term, Variable, is_ground
from ..engine import EngineConfig, solve
from ..parser import ParseFailure, parse_atom, parse_facts, parse_program
from ..trace import Outcome, TraceNode, iter_nodes

_DATA = Path(__file__).parent / "data"


def data_dir() -> Path:
    return _DATA


def curated_ruleset_path() -> Path:
    return _DATA / "article6_curated.proleg"


def llm_ruleset_path() -> Path:
    return _DATA / "article6_llm.proleg"


def lint_config_path() -> Path:
    return _DATA / "article6_lint.json"


def cases_dir() -> Path:
    return _DATA / "cases"


def bundled_case_paths() -> list[Path]:
    return sorted(cases_dir().glob("*.case.json"))


class CaseLoadError(Exception):
    """A case file could not be loaded; carries every problem found."""

    def __init__(self, errors: list[str]):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


class TraceFragment(Record):
    """An assertion that some trace node matches goal, outcome, and edge.

    ``edge`` is "condition", "exception", or "root" (the root node has
    no incoming edge).
    """

    __slots__ = _fields = ("goal", "outcome", "edge")

    def __init__(self, goal: Atom, outcome: Outcome, edge: str) -> None:
        self._init(goal, outcome, edge)


class CaseFile(Record):
    """One executable scenario: facts, a query, and the expected result."""

    __slots__ = _fields = ("id", "description", "ruleset_path", "program", "facts", "query",
                           "expected", "fragments")

    def __init__(self, id: str, description: str, ruleset_path: Path, program: Program,
                 facts: FactBase, query: Atom, expected: Outcome,
                 fragments: tuple[TraceFragment, ...] = ()) -> None:
        self._init(id, description, ruleset_path, program, facts, query, expected, fragments)


class CaseResult(NamedTuple):
    passed: bool
    actual: Outcome
    trace: TraceNode


def _pattern_matches_term(pattern: Term, value: Term) -> bool:
    if isinstance(pattern, Variable):
        return True
    if isinstance(pattern, Compound) and isinstance(value, Compound):
        return (
            pattern.functor == value.functor
            and len(pattern.args) == len(value.args)
            and all(_pattern_matches_term(p, v) for p, v in zip(pattern.args, value.args))
        )
    return pattern == value


def pattern_matches(pattern: Atom, goal: Atom) -> bool:
    """Structural match; any variable in the pattern is a wildcard."""
    return pattern.key == goal.key and all(
        _pattern_matches_term(p, v) for p, v in zip(pattern.args, goal.args)
    )


def fragment_matches(trace: TraceNode, fragment: TraceFragment) -> bool:
    for node, edge in iter_nodes(trace):
        if fragment.edge == "root":
            if edge is not None:
                continue
        elif edge is None or edge.value != fragment.edge:
            continue
        if node.outcome is fragment.outcome and pattern_matches(fragment.goal, node.goal):
            return True
    return False


_EDGES = {"condition", "exception", "root"}


def load_case(path: Union[str, Path]) -> CaseFile:
    """Load and validate a case file; raises CaseLoadError on any problem."""
    path = Path(path)
    errors: list[str] = []
    if not path.is_file():
        raise CaseLoadError([f"case file not found: {path}"])
    try:
        obj = json.loads(path.read_text(encoding="utf-8-sig"))
    except (OSError, ValueError) as exc:  # ValueError: not JSON, or not UTF-8
        raise CaseLoadError([f"unreadable case file {path}: {exc}"]) from exc
    except RecursionError:  # the C decoder recurses once per container
        raise CaseLoadError([f"case file {path} is nested too deeply"]) from None
    if not isinstance(obj, dict):
        raise CaseLoadError([f"case file {path} must hold a JSON object"])

    def require(name: str, kind: type) -> object:
        value = obj.get(name)
        if not isinstance(value, kind):
            errors.append(f"field '{name}' must be a {kind.__name__}")
            return None
        return value

    case_id = require("id", str)
    description = require("description", str)
    ruleset_rel = require("ruleset", str)
    query_text = require("query", str)
    expected_text = require("expected", str)
    if errors:
        raise CaseLoadError(errors)

    if expected_text not in ("o", "x"):
        errors.append(f"field 'expected' must be 'o' or 'x', got {expected_text!r}")

    ruleset_path = (path.parent / ruleset_rel).resolve()
    program: Optional[Program] = None
    try:
        program = parse_program(ruleset_path.read_text(encoding="utf-8-sig"))
    except (OSError, UnicodeDecodeError) as exc:
        errors.append(f"unreadable ruleset {ruleset_path}: {exc}")
    except ParseFailure as exc:
        errors.extend(f"ruleset {ruleset_path.name}:{e}" for e in exc.errors)

    query: Optional[Atom] = None
    try:
        query = parse_atom(query_text)
    except ParseFailure as exc:
        errors.append(f"query does not parse as an atom: {query_text!r} ({exc})")
    if query is not None and program is not None:
        if query.key not in program.defined_predicates():
            errors.append(f"query predicate '{query.indicator}' is not defined in the ruleset")

    facts: Optional[FactBase] = None
    facts_field = obj.get("facts")
    if isinstance(facts_field, list):
        atoms = []
        for text in facts_field:
            try:
                atom = parse_atom(str(text))
            except ParseFailure as exc:
                errors.append(f"fact does not parse as an atom: {text!r} ({exc})")
                continue
            if not is_ground(atom):
                errors.append(f"facts must be ground: {text!r}")
                continue
            atoms.append(atom)
        facts = FactBase(frozenset(atoms))
    elif isinstance(facts_field, dict) and isinstance(facts_field.get("path"), str):
        facts_path = (path.parent / facts_field["path"]).resolve()
        try:
            facts = parse_facts(facts_path.read_text(encoding="utf-8-sig"))
        except (OSError, UnicodeDecodeError) as exc:
            errors.append(f"unreadable facts file {facts_path}: {exc}")
        except ParseFailure as exc:
            errors.extend(f"facts {facts_path.name}:{e}" for e in exc.errors)
    else:
        errors.append("field 'facts' must be a list of atoms or {\"path\": ...}")

    fragments: list[TraceFragment] = []
    raw_fragments = obj.get("expected_trace_fragments", [])
    if not isinstance(raw_fragments, list):
        errors.append("field 'expected_trace_fragments' must be a list")
        raw_fragments = []
    for raw in raw_fragments:
        if not isinstance(raw, dict):
            errors.append(f"trace fragment must be an object: {raw!r}")
            continue
        try:
            goal = parse_atom(str(raw.get("goal")))
        except ParseFailure as exc:
            errors.append(f"fragment goal does not parse: {raw.get('goal')!r} ({exc})")
            continue
        outcome_text = raw.get("outcome")
        edge = raw.get("edge")
        if outcome_text not in ("o", "x"):
            errors.append(f"fragment outcome must be 'o' or 'x', got {outcome_text!r}")
            continue
        if edge not in _EDGES:
            errors.append(f"fragment edge must be one of {sorted(_EDGES)}, got {edge!r}")
            continue
        fragments.append(TraceFragment(goal, Outcome(outcome_text), edge))

    if errors:
        raise CaseLoadError(errors)
    assert program is not None and facts is not None and query is not None
    return CaseFile(
        id=case_id,
        description=description,
        ruleset_path=ruleset_path,
        program=program,
        facts=facts,
        query=query,
        expected=Outcome(expected_text),
        fragments=tuple(fragments),
    )


def run_case(case: CaseFile, config: Optional[EngineConfig] = None) -> CaseResult:
    """Evaluate the case query; passes when the outcome matches and every
    expected trace fragment appears in the trace. Engine errors propagate."""
    actual, trace = solve(case.program, case.facts, case.query, config)
    passed = actual is case.expected and all(
        fragment_matches(trace, fragment) for fragment in case.fragments
    )
    return CaseResult(passed, actual, trace)
