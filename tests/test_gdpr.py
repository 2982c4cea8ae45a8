"""The Article 6 rulebase and its executable case corpus."""

from __future__ import annotations

import json
from itertools import combinations
from pathlib import Path

import pytest

from proleg.ast import Atom, Constant, FactBase
from proleg.engine import holds_all, solve, stratify
from proleg.gdpr import (
    CaseLoadError,
    bundled_case_paths,
    cases_dir,
    curated_ruleset_path,
    data_dir,
    fragment_matches,
    load_case,
    pattern_matches,
    run_case,
    TraceFragment,
)
from proleg.parser import parse_atom, parse_program
from proleg.trace import (
    Outcome,
    iter_nodes,
    render_dot,
    render_json,
    render_text,
    trace_from_json,
)

from helpers import assert_trace_invariants, ground_with

CASE1 = Constant("case1")


@pytest.fixture(scope="module")
def curated():
    return parse_program(curated_ruleset_path().read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def withdrawal_case():
    return load_case(cases_dir() / "withdrawal.case.json")


def facts_of(*names: str) -> FactBase:
    return FactBase(frozenset(Atom(name, (CASE1,)) for name in names))


BASIS_GOALS = [
    "basis_consent",
    "basis_contract",
    "basis_legal_obligation",
    "basis_vital_interests",
    "basis_public_task",
    "basis_legitimate_interests",
]


class TestCuratedRuleset:
    def test_stratifies(self, curated):
        strata = stratify(curated)
        level = {key: i for i, stratum in enumerate(strata) for key in stratum}
        assert level[("basis_consent", 1)] > level[("consent_withdrawn", 1)]
        assert level[("basis_consent", 1)] > level[("consent_invalid", 1)]

    def test_shape(self, curated):
        assert len(curated.rules) == 16
        assert len(curated.exceptions) == 4
        lawful_rules = [r for r in curated.rules if r.head.predicate == "lawful_processing"]
        assert len(lawful_rules) == 6

    def test_every_statement_cites_a_source(self, curated):
        assert all(r.source is not None for r in curated.rules)
        assert all(d.source is not None for d in curated.exceptions)

    def test_no_presupposed_or_blanket_conditions(self, curated):
        body_preds = {a.predicate for r in curated.rules for a in r.body}
        assert "data_is_processed" not in body_preds
        assert "compliant_with_art5_principles" not in body_preds


class TestCaseLoading:
    def test_withdrawal_case_fields(self, withdrawal_case):
        assert withdrawal_case.id == "withdrawal"
        assert withdrawal_case.query == Atom("lawful_processing", (CASE1,))
        assert withdrawal_case.expected is Outcome.FAILURE
        assert len(withdrawal_case.fragments) == 4
        assert withdrawal_case.facts == facts_of("consent_given", "consent_withdrawn")

    def test_rejects_bad_expected(self, tmp_path):
        case = {
            "id": "bad",
            "description": "",
            "ruleset": str(curated_ruleset_path()),
            "facts": [],
            "query": "lawful_processing(case1)",
            "expected": "maybe",
        }
        path = tmp_path / "bad.case.json"
        path.write_text(json.dumps(case), encoding="utf-8")
        with pytest.raises(CaseLoadError) as info:
            load_case(path)
        assert any("'o' or 'x'" in e for e in info.value.errors)

    def test_rejects_undefined_query_predicate(self, tmp_path):
        case = {
            "id": "bad",
            "description": "",
            "ruleset": str(curated_ruleset_path()),
            "facts": [],
            "query": "no_such_predicate(case1)",
            "expected": "x",
        }
        path = tmp_path / "bad.case.json"
        path.write_text(json.dumps(case), encoding="utf-8")
        with pytest.raises(CaseLoadError) as info:
            load_case(path)
        assert any("no_such_predicate/1" in e for e in info.value.errors)

    def test_missing_file(self, tmp_path):
        with pytest.raises(CaseLoadError):
            load_case(tmp_path / "nope.case.json")

    @pytest.mark.parametrize("where", ["case", "ruleset", "facts"])
    def test_undecodable_file_is_a_case_load_error(self, tmp_path, where):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"\xff\xfe")
        case = {
            "id": "bad",
            "description": "",
            "ruleset": str(bad if where == "ruleset" else curated_ruleset_path()),
            "facts": {"path": str(bad if where == "facts" else data_dir() / "withdrawal.facts")},
            "query": "lawful_processing(case1)",
            "expected": "x",
        }
        path = bad if where == "case" else tmp_path / "bad.case.json"
        if where != "case":
            path.write_text(json.dumps(case), encoding="utf-8")
        with pytest.raises(CaseLoadError) as info:
            load_case(path)
        assert len(info.value.errors) == 1 and str(bad) in info.value.errors[0]

    def test_deeply_nested_case_is_a_case_load_error(self, tmp_path):
        path = tmp_path / "deep.case.json"
        path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
        with pytest.raises(CaseLoadError) as info:
            load_case(path)
        assert info.value.errors == [f"case file {path} is nested too deeply"]

    def test_nonground_inline_fact_rejected(self, tmp_path):
        case = {
            "id": "bad",
            "description": "",
            "ruleset": str(curated_ruleset_path()),
            "facts": ["consent_given(X)"],
            "query": "lawful_processing(case1)",
            "expected": "x",
        }
        path = tmp_path / "bad.case.json"
        path.write_text(json.dumps(case), encoding="utf-8")
        with pytest.raises(CaseLoadError) as info:
            load_case(path)
        assert any("ground" in e for e in info.value.errors)


class TestRunCase:
    def test_withdrawal_case_passes_with_defeat(self, withdrawal_case):
        result = run_case(withdrawal_case)
        assert result.passed
        assert result.actual is Outcome.FAILURE
        defeated = [
            node
            for node, _ in iter_nodes(result.trace)
            if node.defeated and node.goal.predicate == "basis_consent"
        ]
        assert defeated, "basis_consent should be recorded as defeated"
        assert_trace_invariants(result.trace)

    def test_consent_without_withdrawal_is_lawful(self, curated):
        outcome, _ = solve(curated, facts_of("consent_given"), parse_atom("lawful_processing(case1)"))
        assert outcome is Outcome.SUCCESS
        # Cross-check via the bottom-up route on the case1 grounding.
        model = holds_all(ground_with(curated), facts_of("consent_given"))
        assert Atom("lawful_processing", (CASE1,)) in model

    def test_empty_facts_unlawful(self, curated):
        outcome, _ = solve(curated, FactBase(), parse_atom("lawful_processing(case1)"))
        assert outcome is Outcome.FAILURE

    def test_all_bundled_cases_pass(self):
        paths = bundled_case_paths()
        assert len(paths) == 13
        for path in paths:
            case = load_case(path)
            result = run_case(case)
            assert result.passed, f"{case.id}: expected {case.expected}, got {result.actual}"
            assert_trace_invariants(result.trace)

    def test_bundled_case_traces_are_pinned(self):
        # render_text shows every TraceNode field, so this pins each node
        # of the 13 traces; regenerate the file only for an intended change.
        pinned = Path(__file__).parent / "data" / "bundled_case_traces.txt"
        rendered = "".join(
            render_text(run_case(load_case(path)).trace) for path in bundled_case_paths()
        )
        assert rendered == pinned.read_text(encoding="utf-8")

    @pytest.mark.parametrize("render, name", [
        (render_json, "bundled_case_traces_json.txt"),
        (render_dot, "bundled_case_traces_dot.txt"),
    ], ids=["json", "dot"])
    def test_bundled_case_renderings_are_pinned(self, render, name):
        # Byte-for-byte pins of the two other renderers over the same
        # traces, one newline after each case's rendering.
        pinned = Path(__file__).parent / "data" / name
        rendered = "".join(
            render(run_case(load_case(path)).trace) + "\n"
            for path in bundled_case_paths()
        )
        assert rendered == pinned.read_text(encoding="utf-8")

    def test_pinned_json_reads_back_to_the_solved_traces(self):
        pinned = Path(__file__).parent / "data" / "bundled_case_traces_json.txt"
        lines = pinned.read_text(encoding="utf-8").splitlines()
        paths = bundled_case_paths()
        assert len(lines) == len(paths)
        for line, path in zip(lines, paths):
            assert trace_from_json(line) == run_case(load_case(path)).trace, path.name

    def test_withdrawal_sensitivity(self, withdrawal_case):
        outcome, _ = solve(
            withdrawal_case.program, withdrawal_case.facts, withdrawal_case.query
        )
        assert outcome is Outcome.FAILURE
        without = FactBase(
            frozenset(
                a for a in withdrawal_case.facts.facts if a.predicate != "consent_withdrawn"
            )
        )
        outcome, _ = solve(withdrawal_case.program, without, withdrawal_case.query)
        assert outcome is Outcome.SUCCESS


FACT_UNIVERSE = [
    "consent_given",
    "consent_withdrawn",
    "consent_not_freely_given",
    "contract_with_subject",
    "necessary_for_contract_performance",
    "legal_obligation",
    "obligation_laid_down_in_union_or_member_state_law",
    "necessary_to_protect_vital_interest",
    "necessary_for_legitimate_interests",
    "overriding_data_subject_interests",
]


def test_lawfulness_is_the_disjunction_of_undefeated_bases(curated):
    """Brute force over every subset of a ten-fact universe."""
    query = parse_atom("lawful_processing(case1)")
    basis_queries = [Atom(name, (CASE1,)) for name in BASIS_GOALS]
    for size in range(len(FACT_UNIVERSE) + 1):
        for subset in combinations(FACT_UNIVERSE, size):
            facts = facts_of(*subset)
            overall, _ = solve(curated, facts, query)
            any_basis = any(
                solve(curated, facts, basis)[0] is Outcome.SUCCESS
                for basis in basis_queries
            )
            assert (overall is Outcome.SUCCESS) == any_basis, subset


class TestPatternMatching:
    def test_wildcards(self):
        assert pattern_matches(parse_atom("basis_consent(_)"), parse_atom("basis_consent(case1)"))
        assert not pattern_matches(parse_atom("basis_consent(case2)"), parse_atom("basis_consent(case1)"))
        assert not pattern_matches(parse_atom("other(_)"), parse_atom("basis_consent(case1)"))

    def test_fragment_edge_context(self, withdrawal_case):
        trace = run_case(withdrawal_case).trace
        root = TraceFragment(parse_atom("lawful_processing(_)"), Outcome.FAILURE, "root")
        assert fragment_matches(trace, root)
        wrong_edge = TraceFragment(
            parse_atom("consent_withdrawn(_)"), Outcome.SUCCESS, "condition"
        )
        assert not fragment_matches(trace, wrong_edge)
        right_edge = TraceFragment(
            parse_atom("consent_withdrawn(_)"), Outcome.SUCCESS, "exception"
        )
        assert fragment_matches(trace, right_edge)
