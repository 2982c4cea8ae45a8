"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

from __future__ import annotations

import json
import random
import time

import pytest

from proleg.ast import Atom, FactBase
from proleg.cli import main as cli_main
from proleg.convert import to_proleg
from proleg.engine import DepthExceeded, EngineConfig, holds_all, solve
from proleg.gdpr import (
    bundled_case_paths,
    cases_dir,
    curated_ruleset_path,
    llm_ruleset_path,
    load_case,
    run_case,
)
from proleg.lint import DEFAULT_LINT_CONFIG, LintCheck, lint
from proleg.parser import ParseFailure, parse_atom, parse_program, serialize
from proleg.trace import (
    EdgeKind,
    Outcome,
    iter_nodes,
    render_dot,
    render_json,
    trace_from_json,
)

from helpers import (
    assert_trace_invariants,
    naf_fixpoint,
    random_ground_program,
    random_prolog_program,
    random_source_program,
    validate_dot,
)


def _report(number: int, name: str) -> None:
    print(f"ACCEPTANCE {number} ({name}): PASS")


def test_criterion_1_golden_withdrawal_case():
    """The bundled withdrawal case reproduces the reference diagram."""
    case = load_case(cases_dir() / "withdrawal.case.json")
    started = time.perf_counter()
    result = run_case(case)
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"golden case took {elapsed:.3f}s"
    assert result.passed
    assert result.actual is Outcome.FAILURE

    consent_nodes = [
        node
        for node, _ in iter_nodes(result.trace)
        if node.goal == parse_atom("basis_consent(case1)")
    ]
    assert consent_nodes, "trace must evaluate basis_consent(case1)"
    node = consent_nodes[0]
    assert node.outcome is Outcome.FAILURE and node.defeated
    children = {(kind, str(child.goal), child.outcome) for kind, child in node.children}
    assert (EdgeKind.CONDITION, "consent_given(case1)", Outcome.SUCCESS) in children
    assert (EdgeKind.EXCEPTION, "consent_withdrawn(case1)", Outcome.SUCCESS) in children
    _report(1, "golden withdrawal case")


def test_criterion_2_engine_oracle_equivalence():
    """solve and holds_all agree on every atom of 1000 random programs."""
    rng = random.Random(46116)
    started = time.perf_counter()
    disagreements = 0
    for _ in range(1000):
        program, facts, universe = random_ground_program(rng)
        model = holds_all(program, facts)
        for atom in universe:
            outcome, _ = solve(program, facts, atom)
            if (outcome is Outcome.SUCCESS) != (atom in model):
                disagreements += 1
    elapsed = time.perf_counter() - started
    assert disagreements == 0
    assert elapsed < 60.0, f"equivalence sweep took {elapsed:.1f}s"
    _report(2, "engine agrees with the bottom-up fixpoint")


def test_criterion_3_conversion_soundness():
    """Converted programs answer exactly like the source clauses."""
    rng = random.Random(73302)
    for _ in range(500):
        clauses, universe = random_prolog_program(rng)
        program, _ = to_proleg(clauses)
        original_keys = {a.key for a in universe}
        converted = {a for a in holds_all(program, FactBase()) if a.key in original_keys}
        reference = naf_fixpoint(clauses)
        assert converted == reference
    _report(3, "conversion soundness over 500 programs")


def _seeded_error_files(tmp_path):
    """Twenty one-error files; each returns (path, line carrying the error)."""
    fillers = ["p <= q.", "q <=.", "r <= p, q.", "exception(p, e)."]
    bad_statements = [
        "p <= q r.",
        "p <= q,.",
        "p <= (q).",
        "Pp <= q.",
        "p < q.",
        "exception(p).",
        "exception(p, q, r).",
        "exception(p, X).",
        "p(X Y) <= q.",
        '#source broken\np2 <= q.',
    ]
    files = []
    index = 0
    for position in (0, 2):
        for bad in bad_statements:
            lines = list(fillers)
            lines.insert(position, bad)
            path = tmp_path / f"seeded_{index}.proleg"
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
            files.append((path, position + 1))
            index += 1
    return files


def test_criterion_4_parser_round_trip_and_positions(tmp_path):
    """Round-trip fixpoints plus faithful error positions."""
    for bundled in (curated_ruleset_path(), llm_ruleset_path()):
        first = parse_program(bundled.read_text(encoding="utf-8"))
        second = parse_program(serialize(first))
        assert first == second
        assert serialize(first) == serialize(second)

    rng = random.Random(58230)
    for _ in range(500):
        program = random_source_program(rng)
        text = serialize(program)
        reparsed = parse_program(text)
        assert reparsed == program
        assert serialize(reparsed) == text

    files = _seeded_error_files(tmp_path)
    assert len(files) == 20
    for path, expected_line in files:
        with pytest.raises(ParseFailure) as info:
            parse_program(path.read_text(encoding="utf-8"))
        assert info.value.errors, path
        for error in info.value.errors:
            assert error.line == expected_line, (
                f"{path.name}: error at line {error.line}, seeded at {expected_line}: "
                f"{error.message}"
            )
    _report(4, "parser round-trip and error positions")


def test_criterion_5_linter_fidelity():
    """Exactly the seeded defect counts on the fixture; curated stays clean."""
    fixture = parse_program(llm_ruleset_path().read_text(encoding="utf-8"))
    findings = lint(fixture, DEFAULT_LINT_CONFIG)
    counts = {}
    for finding in findings:
        counts[finding.check_id] = counts.get(finding.check_id, 0) + 1
    assert counts.get(LintCheck.PRESUPPOSED_CLAUSE, 0) == 1
    assert counts.get(LintCheck.INCONSISTENT_SIBLING_CONDITION, 0) == 1
    assert counts.get(LintCheck.ORPHAN_EXCEPTION, 0) == 1

    curated = parse_program(curated_ruleset_path().read_text(encoding="utf-8"))
    curated_findings = lint(curated, DEFAULT_LINT_CONFIG)
    assert not any(
        f.check_id
        in (LintCheck.PRESUPPOSED_CLAUSE, LintCheck.INCONSISTENT_SIBLING_CONDITION)
        for f in curated_findings
    )
    _report(5, "linter fidelity to the defect catalogue")


def test_criterion_6_six_basis_coverage(capsys):
    """All thirteen bundled cases pass, via the CLI batch runner."""
    code = cli_main(["case", "run", "--all", str(cases_dir())])
    out = capsys.readouterr().out
    assert code == 0, out
    assert "13/13 cases passed" in out

    expectations = {}
    for path in bundled_case_paths():
        case = load_case(path)
        expectations[case.id] = case.expected
    positives = [
        "consent_granted",
        "contract_performance",
        "legal_obligation_union_law",
        "vital_interests_property",
        "public_task_statutory",
        "legitimate_interests_marketing",
    ]
    negatives = [
        "withdrawal",
        "contract_controller_initiated",
        "legal_obligation_foreign_law",
        "vital_interests_unsubstantiated",
        "public_task_no_legal_basis",
        "legitimate_interests_public_authority",
    ]
    assert all(expectations[name] is Outcome.SUCCESS for name in positives)
    assert all(expectations[name] is Outcome.FAILURE for name in negatives)
    assert expectations["empty_facts"] is Outcome.FAILURE
    assert len(expectations) == 13
    _report(6, "six-basis case coverage, 13/13")


def test_criterion_7_withdrawal_sensitivity():
    """Dropping the withdrawal fact flips the outcome to lawful."""
    case = load_case(cases_dir() / "withdrawal.case.json")
    before, _ = solve(case.program, case.facts, case.query)
    assert before is Outcome.FAILURE
    mutated = FactBase(
        frozenset(a for a in case.facts.facts if a.predicate != "consent_withdrawn")
    )
    after, _ = solve(case.program, mutated, case.query)
    assert after is Outcome.SUCCESS
    _report(7, "consent-withdrawal sensitivity")


def test_criterion_8_termination():
    """Self-recursion fails finitely under the loop check; a chain deeper
    than the depth bound stops at the bound."""
    program = parse_program("p <= p.")
    started = time.perf_counter()
    outcome, _ = solve(program, FactBase(), Atom("p"))
    elapsed = time.perf_counter() - started
    assert outcome is Outcome.FAILURE
    assert elapsed < 1.0

    chain = parse_program("".join(f"p{i} <= p{i + 1}. " for i in range(70)))
    config = EngineConfig(max_depth=64)
    with pytest.raises(DepthExceeded) as info:
        solve(chain, FactBase(), Atom("p0"), config)
    assert (info.value.goal, info.value.depth, info.value.steps) == (Atom("p64"), 65, 65)
    assert "at p64 (depth 65, after 65 steps)" in str(info.value)
    _report(8, "termination under the loop check and depth bound")


def test_criterion_9_trace_validity():
    """Every trace the other criteria exercise is structurally valid,
    JSON round-trips, and renders as syntactically valid DOT."""
    traces = []
    for path in bundled_case_paths():
        traces.append(run_case(load_case(path)).trace)
    toy, _ = parse_program("p <= p."), None
    traces.append(solve(toy, FactBase(), Atom("p"))[1])
    rng = random.Random(90125)
    for _ in range(150):
        program, facts, universe = random_ground_program(rng)
        if universe:
            traces.append(solve(program, facts, rng.choice(universe))[1])
    assert len(traces) >= 150
    for trace in traces:
        assert_trace_invariants(trace)
        text = render_json(trace)
        assert trace_from_json(text) == trace
        assert json.loads(text)["trace_version"] == 2
        validate_dot(render_dot(trace))
    _report(9, "trace invariants, JSON round-trip, DOT validity")
