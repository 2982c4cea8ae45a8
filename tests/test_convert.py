"""Prolog-subset parsing and the clause-to-exception conversion."""

from __future__ import annotations

import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from proleg.ast import Atom, FactBase, Rule
from proleg.convert import (
    PrologClause,
    convert_source,
    parse_prolog_subset,
    to_proleg,
)
from proleg.engine import Unstratified, holds_all
from proleg.parser import ParseFailure, parse_program, serialize

from helpers import naf_fixpoint, random_prolog_program


def A(name, *consts):
    from proleg.ast import Constant

    return Atom(name, tuple(Constant(c) for c in consts))


class TestParseSubset:
    def test_clause_with_negation(self):
        clauses, warnings = parse_prolog_subset("p :- q, \\+ e.")
        assert warnings == []
        assert clauses == [PrologClause(Atom("p"), (Atom("q"),), (Atom("e"),))]

    def test_disjunction_rejected(self):
        with pytest.raises(ParseFailure) as info:
            parse_prolog_subset("p :- q ; r.")
        assert any("';'" in e.message for e in info.value.errors)

    def test_consent_pattern(self):
        clauses, _ = parse_prolog_subset("lawful :- consent, \\+ withdrawn.")
        assert clauses == [
            PrologClause(Atom("lawful"), (Atom("consent"),), (Atom("withdrawn"),))
        ]

    def test_cut_rejected(self):
        with pytest.raises(ParseFailure) as info:
            parse_prolog_subset("p :- q, !.")
        assert any("'!'" in e.message for e in info.value.errors)

    def test_nested_negation_rejected(self):
        with pytest.raises(ParseFailure) as info:
            parse_prolog_subset("p :- \\+ (\\+ g).")
        assert any("nested negation" in e.message for e in info.value.errors)

    def test_directives_and_queries_skipped_with_warnings(self):
        clauses, warnings = parse_prolog_subset(
            ":- dynamic(consent/1).\n?- lawful.\nfact_a.\n"
        )
        assert [c.head for c in clauses] == [Atom("fact_a")]
        assert len(warnings) == 2
        assert any("directive" in w for w in warnings)
        assert any("query" in w for w in warnings)

    def test_facts_become_bodiless_clauses(self):
        clauses, _ = parse_prolog_subset("consent(case1).")
        assert clauses == [PrologClause(A("consent", "case1"))]

    def test_multiple_errors_collected(self):
        with pytest.raises(ParseFailure) as info:
            parse_prolog_subset("p :- !.\nq :- a ; b.\n")
        assert len(info.value.errors) >= 2

    def test_exception_head_rejected_at_the_head(self):
        # PROLEG reads 'exception' at a statement's start as a declaration,
        # so a rule with that head would not parse back.
        source = ("q.\nexception(X, Y) :- a(X), b(Y).\n"
                  "  exception(X) :- a(X).\nexception :- a(z).\n")
        with pytest.raises(ParseFailure) as info:
            parse_prolog_subset(source)
        assert [(e.line, e.column) for e in info.value.errors] == [(2, 1), (3, 3), (4, 1)]
        assert all("'exception' is reserved" in e.message for e in info.value.errors)

    def test_exception_body_literals_round_trip(self):
        program, _ = convert_source("p(X) :- exception(X), \\+ exception(X, X).")
        assert serialize(program) == "p(X) <= exception(X).\nexception(p(X), exception(X, X)).\n"
        assert parse_program(serialize(program)) == program


def _models_agree(clauses, universe):
    """Compare the converted program's answers with the reference model."""
    program, report = to_proleg(clauses)
    original_keys = {a.key for a in universe}
    converted = {
        a for a in holds_all(program, FactBase()) if a.key in original_keys
    }
    reference = naf_fixpoint(clauses)
    assert converted == reference, (
        f"clauses: {clauses}\nconverted program:\n{serialize(program)}"
        f"converted model: {sorted(map(str, converted))}\n"
        f"reference model: {sorted(map(str, reference))}"
    )
    return program, report


class TestToProleg:
    def test_single_negation_becomes_exception(self):
        clauses, _ = parse_prolog_subset("p :- q, \\+ e.")
        program, report = to_proleg(clauses)
        assert program.rules == (Rule("r1", Atom("p"), (Atom("q"),)),)
        assert len(program.exceptions) == 1
        assert report.generated_exceptions == 1
        assert report.synthesized_predicates == ()
        # Outcome equivalence over all four fact combinations of {q, e}.
        for has_q, has_e in product([False, True], repeat=2):
            extended = list(clauses)
            if has_q:
                extended.append(PrologClause(Atom("q")))
            if has_e:
                extended.append(PrologClause(Atom("e")))
            _models_agree(extended, [Atom("p"), Atom("q"), Atom("e")])

    def test_negation_free_passthrough(self):
        clauses, _ = parse_prolog_subset("p :- q.")
        program, report = to_proleg(clauses)
        assert program.rules == (Rule("r1", Atom("p"), (Atom("q"),)),)
        assert program.exceptions == ()
        assert report.generated_exceptions == 0

    def test_multi_clause_head_splits_into_aux_predicates(self):
        clauses, _ = parse_prolog_subset("p :- a, \\+ e1.\np :- b, \\+ e2.")
        program, report = to_proleg(clauses)
        assert report.synthesized_predicates == ("p__via_1/0", "p__via_2/0")
        aux_heads = {r.head.predicate for r in program.rules if "__via" in r.head.predicate}
        assert aux_heads == {"p__via_1", "p__via_2"}
        exception_heads = {d.head.predicate for d in program.exceptions}
        assert exception_heads == {"p__via_1", "p__via_2"}
        # Equivalence over all sixteen fact combinations of {a, b, e1, e2}.
        for bits in product([False, True], repeat=4):
            extended = list(clauses)
            for present, name in zip(bits, ("a", "b", "e1", "e2")):
                if present:
                    extended.append(PrologClause(Atom(name)))
            _models_agree(
                extended, [Atom(n) for n in ("p", "a", "b", "e1", "e2")]
            )

    def test_shared_negation_set_needs_no_split(self):
        clauses, _ = parse_prolog_subset("p :- a, \\+ e.\np :- b, \\+ e.")
        program, report = to_proleg(clauses)
        assert report.synthesized_predicates == ()
        assert len(program.exceptions) == 1

    def test_aux_names_dodge_existing_predicates(self):
        clauses, _ = parse_prolog_subset(
            "p__via_1 :- x.\np :- a, \\+ e1.\np :- b, \\+ e2."
        )
        _, report = to_proleg(clauses)
        assert "p__via_1/0" not in report.synthesized_predicates
        assert len(report.synthesized_predicates) == 2

    def test_unstratified_negation_propagates(self):
        clauses, _ = parse_prolog_subset("p :- \\+ q.\nq :- \\+ p.")
        with pytest.raises(Unstratified):
            to_proleg(clauses)

    def test_unbound_negation_variables_warned(self):
        clauses, _ = parse_prolog_subset("p(X) :- q(X, Y), \\+ e(Y).")
        _, report = to_proleg(clauses)
        assert any("not bound by the head" in w for w in report.warnings)

    def test_convert_source_merges_parse_warnings(self):
        _, report = convert_source("?- p.\nq :- r.")
        assert any("query" in w for w in report.warnings)


@given(st.integers(min_value=0, max_value=2**32))
@settings(max_examples=60, deadline=None)
def test_conversion_soundness_hypothesis(seed):
    clauses, universe = random_prolog_program(random.Random(seed))
    program, _ = to_proleg(clauses)
    original_keys = {a.key for a in universe}
    converted = {a for a in holds_all(program, FactBase()) if a.key in original_keys}
    assert converted == naf_fixpoint(clauses)


def test_conversion_soundness_on_random_programs():
    rng = random.Random(20240813)
    for _ in range(120):
        clauses, universe = random_prolog_program(rng)
        program, report = to_proleg(clauses)
        original_keys = {a.key for a in universe}
        converted = {a for a in holds_all(program, FactBase()) if a.key in original_keys}
        reference = naf_fixpoint(clauses)
        assert converted == reference
        # Synthesized predicates never leak into the original vocabulary.
        for entry in report.synthesized_predicates:
            name = entry.split("/")[0]
            assert all(key[0] != name for key in original_keys)
