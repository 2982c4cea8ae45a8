"""Static checks over rule bases."""

from __future__ import annotations

import json
import random
import re

import pytest

from proleg.ast import Program
from proleg.engine import Unstratified, stratify
from proleg.gdpr import curated_ruleset_path, lint_config_path, llm_ruleset_path
from proleg.lint import (
    DEFAULT_LINT_CONFIG,
    ERROR,
    WARNING,
    LintCheck,
    LintConfig,
    findings_to_json,
    lint,
)
from proleg.parser import parse_program

from helpers import random_dependency_program, reference_cycle


def load(path):
    return parse_program(path.read_text(encoding="utf-8"))


def by_check(findings):
    grouped = {}
    for finding in findings:
        grouped.setdefault(finding.check_id, []).append(finding)
    return grouped


class TestFixtureFindings:
    def test_llm_fixture_has_the_seeded_defects(self):
        findings = lint(load(llm_ruleset_path()), DEFAULT_LINT_CONFIG)
        grouped = by_check(findings)
        assert len(grouped.get(LintCheck.PRESUPPOSED_CLAUSE, [])) == 1
        assert len(grouped.get(LintCheck.INCONSISTENT_SIBLING_CONDITION, [])) == 1
        assert len(grouped.get(LintCheck.ORPHAN_EXCEPTION, [])) == 1

    def test_presupposed_finding_names_the_literal(self):
        findings = lint(load(llm_ruleset_path()), DEFAULT_LINT_CONFIG)
        finding = by_check(findings)[LintCheck.PRESUPPOSED_CLAUSE][0]
        assert "data_is_processed" in finding.message
        assert finding.severity == WARNING

    def test_inconsistent_finding_lists_missing_siblings(self):
        findings = lint(load(llm_ruleset_path()), DEFAULT_LINT_CONFIG)
        finding = by_check(findings)[LintCheck.INCONSISTENT_SIBLING_CONDITION][0]
        assert "compliant_with_art5_principles" in finding.message
        assert len(finding.related) == 5

    def test_curated_ruleset_clean_on_the_defect_classes(self):
        findings = lint(load(curated_ruleset_path()), DEFAULT_LINT_CONFIG)
        grouped = by_check(findings)
        assert LintCheck.PRESUPPOSED_CLAUSE not in grouped
        assert LintCheck.INCONSISTENT_SIBLING_CONDITION not in grouped

    def test_curated_ruleset_fully_clean_with_bundled_schema(self):
        config = LintConfig.from_json_file(lint_config_path())
        findings = lint(load(curated_ruleset_path()), config)
        assert findings == []


class TestIndividualChecks:
    def test_empty_program(self):
        assert lint(parse_program(""), DEFAULT_LINT_CONFIG) == []

    def test_single_rule_head_never_inconsistent(self):
        program = parse_program(
            "only(P) <= compliant_with_art5_principles(P).\nother(P) <= x(P)."
        )
        findings = lint(program, DEFAULT_LINT_CONFIG)
        assert LintCheck.INCONSISTENT_SIBLING_CONDITION not in by_check(findings)

    def test_orphan_exception(self):
        program = parse_program("p <= q.\nexception(missing(P), e(P)).")
        findings = by_check(lint(program, DEFAULT_LINT_CONFIG))
        assert len(findings[LintCheck.ORPHAN_EXCEPTION]) == 1

    def test_exception_head_unifying_a_rule_is_not_orphan(self):
        program = parse_program("p(X) <= q(X).\nexception(p(a), e).")
        findings = by_check(lint(program, DEFAULT_LINT_CONFIG))
        assert LintCheck.ORPHAN_EXCEPTION not in findings

    @pytest.mark.parametrize(
        "head, exception_head, orphan",
        [("p(X, Y)", "p(a, b)", False), ("p(X, X)", "p(a, a)", False),
         ("p(X, X)", "p(a, b)", True), ("p(X, X)", "p(Y, b)", False),
         ("p(X, f(X))", "p(Y, Y)", True)],
    )
    def test_repeated_head_variables_conclude_only_unifying_instances(
            self, head, exception_head, orphan):
        program = parse_program(f"{head} <= q.\nexception({exception_head}, e).")
        findings = by_check(lint(program, DEFAULT_LINT_CONFIG))
        assert (LintCheck.ORPHAN_EXCEPTION in findings) is orphan

    @pytest.mark.parametrize("variable", ["V", "X", "_L_X", "_G0"])
    def test_orphan_check_renames_apart_from_any_rule_variable(self, variable):
        # p(b, V) unifies with p(X, a) whatever the rule calls V.
        program = parse_program(f"p(b, {variable}) <= q({variable}).\nexception(p(X, a), r(X)).")
        findings = by_check(lint(program, DEFAULT_LINT_CONFIG))
        assert LintCheck.ORPHAN_EXCEPTION not in findings

    def test_undefined_predicate_respects_fact_schema(self):
        program = parse_program("p <= q, r.")
        config = LintConfig(declared_fact_schema=(("q", 0),))
        findings = by_check(lint(program, config))
        undefined = findings[LintCheck.UNDEFINED_PREDICATE]
        assert [f.message for f in undefined] == [
            "predicate 'r/0' has no defining rule and is not in the declared fact schema"
        ]

    def test_undefined_reported_once_per_predicate(self):
        program = parse_program("p <= q, q.\ns <= q.")
        findings = by_check(lint(program, LintConfig()))
        assert len(findings[LintCheck.UNDEFINED_PREDICATE]) == 1

    def test_unstratified_cycle_is_an_error(self):
        program = parse_program("p <=. exception(p, q). q <=. exception(q, p).")
        findings = by_check(lint(program, DEFAULT_LINT_CONFIG))
        finding = findings[LintCheck.UNSTRATIFIED_EXCEPTION_CYCLE][0]
        assert finding.severity == ERROR
        assert "p/0" in finding.message and "q/0" in finding.message

    def test_unstratified_cycle_reported_at_the_closing_declaration(self):
        cases = [
            ("a <= c.\nc <= a.\nexception(a, x).\nexception(c, a).\n", 4, "c/0 -> a/0 -> c/0"),
            # A self-loop: the cycle has one element.
            ("p <= q.\nexception(q, r).\nexception(p, p).\n", 3, "p/0 -> p/0"),
        ]
        for source, line, cycle in cases:
            findings = by_check(lint(parse_program(source), DEFAULT_LINT_CONFIG))
            [finding] = findings[LintCheck.UNSTRATIFIED_EXCEPTION_CYCLE]
            assert (finding.statement, finding.line) == ("exception 2", line)
            assert finding.message == f"exception dependencies form a cycle: {cycle}"

    def test_cycle_check_matches_stratify_on_random_programs(self):
        # lint and stratify read one graph, kept on the Program; this ties
        # what each reports to the reference oracle, which closing
        # declaration included, and checks that lint before and after
        # stratify on the same object finds the same.
        rng = random.Random(18)
        shuffler = random.Random(19)
        outcomes = {True: 0, False: 0}
        for _ in range(2000):
            program = random_dependency_program(rng)
            shuffled = Program(tuple(shuffler.sample(program.rules, len(program.rules))),
                               program.exceptions)
            expected = reference_cycle(program)
            outcomes[expected is None] += 1
            for variant in (program, shuffled):
                findings = lint(variant, DEFAULT_LINT_CONFIG)
                cycles = by_check(findings).get(LintCheck.UNSTRATIFIED_EXCEPTION_CYCLE, [])
                try:
                    stratify(variant)
                except Unstratified as exc:
                    (head, exception), _ = expected
                    index = next(index for index, decl in enumerate(variant.exceptions, start=1)
                                 if (decl.head.key, decl.exception.key) == (head, exception))
                    [finding] = cycles
                    assert (finding.statement, finding.message) == (f"exception {index}", str(exc))
                else:
                    assert expected is None and cycles == []
                assert lint(variant, DEFAULT_LINT_CONFIG) == findings
        assert min(outcomes.values()) > 500


class TestOrderingAndOutput:
    def test_findings_sorted_by_line(self):
        program = parse_program(
            "z <= undefined_one.\n"
            "z <= data_is_processed(P).\n"
            "exception(nowhere, e).\n"
        )
        findings = lint(program, DEFAULT_LINT_CONFIG)
        lines = [f.line for f in findings if f.line is not None]
        assert lines == sorted(lines)

    def test_lint_is_deterministic(self):
        program = load(llm_ruleset_path())
        assert lint(program, DEFAULT_LINT_CONFIG) == lint(program, DEFAULT_LINT_CONFIG)

    def test_json_output_schema(self):
        findings = lint(load(llm_ruleset_path()), DEFAULT_LINT_CONFIG)
        parsed = json.loads(findings_to_json(findings))
        assert isinstance(parsed, list)
        for entry in parsed:
            assert {"check_id", "severity", "line", "message"} <= set(entry)


class TestConfigLoading:
    def test_from_json_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(
            json.dumps(
                {
                    "presupposed_predicates": ["foo/2"],
                    "declared_fact_schema": ["bar/0"],
                }
            ),
            encoding="utf-8",
        )
        config = LintConfig.from_json_file(path)
        assert config.presupposed_predicates == (("foo", 2),)
        assert config.declared_fact_schema == (("bar", 0),)
        # Unlisted fields keep their defaults.
        assert config.universal_condition_predicates == (
            ("compliant_with_art5_principles", 1),
        )

    def test_unreadable_text_is_a_value_error_naming_the_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        for data, detail in [(b"{\xff}", "is not UTF-8 text: "),
                             (b"[" * 100_000 + b"]" * 100_000, "is nested too deeply")]:
            path.write_bytes(data)
            with pytest.raises(ValueError, match=f"^{re.escape(f'{path} {detail}')}"):
                LintConfig.from_json_file(path)

    def test_bad_indicator_rejected(self):
        import pytest

        with pytest.raises(ValueError):
            LintConfig.from_obj({"presupposed_predicates": ["oops"]})

    @pytest.mark.parametrize("obj, message", [
        ([], "expected a JSON object, got []"),
        ({"declared_fact_schema": "p/1"}, "'declared_fact_schema' must be a list, got 'p/1'"),
        # An unknown field is named before a bad list, wherever it stands.
        ({"presupposed_predicates": 5, "nope": []}, "unknown field 'nope'"),
        # Of two bad lists, the one that comes first in LintConfig's fields.
        ({"declared_fact_schema": 1, "universal_condition_predicates": {}},
         "'universal_condition_predicates' must be a list, got {}"),
        ({"declared_fact_schema": ["oops"], "presupposed_predicates": ["p/x"]},
         "expected 'name/arity', got 'p/x'"),
    ])
    def test_from_obj_errors_and_their_order(self, obj, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            LintConfig.from_obj(obj)
