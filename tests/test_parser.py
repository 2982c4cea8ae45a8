"""Surface syntax: parsing, error collection, and round-trips."""

from __future__ import annotations

import pickle
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from proleg.ast import (
    IDENT_PATTERN,
    VARIABLE_PATTERN,
    Atom,
    Compound,
    Constant,
    ExceptionDecl,
    Integer,
    Program,
    Rule,
    SourceRef,
    Text,
    Variable,
    is_ground,
)
from proleg.parser import (
    MAX_TERM_DEPTH,
    ParseError,
    ParseFailure,
    parse_atom,
    parse_facts,
    parse_program,
    parse_prolog_subset,
    range_restriction_warnings,
    serialize,
    tokenize,
)

from helpers import random_source_program


def errors_of(source: str, parse=parse_program):
    with pytest.raises(ParseFailure) as info:
        parse(source)
    return info.value.errors


# One source holding every token kind, escape, line ending and lexical
# error the tokenizer knows.
TOKEN_SOURCE = (
    '#source "Art. 6(1)\\t\\"a\\"\\\\"\r\n'
    "#id r_1 % the next rule\n"
    "p(X, -12, 1-2, _y) <= q, \\+ r; !.\r\n"
    "h :- b. ?- g.\n"
    '"two\\\nlines" #foo # $\n'
    '"open\n'
)


def test_token_stream_is_pinned():
    tokens, errors = tokenize(TOKEN_SOURCE)
    assert [(t.kind, t.value, t.line, t.column) for t in tokens] == [
        ("annotation", "source", 1, 1),
        ("string", 'Art. 6(1)\t"a"\\', 1, 9),
        ("annotation", "id", 2, 1),
        ("ident", "r_1", 2, 5),
        ("ident", "p", 3, 1),
        ("punct", "(", 3, 2),
        ("variable", "X", 3, 3),
        ("punct", ",", 3, 4),
        ("integer", -12, 3, 6),
        ("punct", ",", 3, 9),
        ("integer", 1, 3, 11),
        ("integer", -2, 3, 12),
        ("punct", ",", 3, 14),
        ("variable", "_y", 3, 16),
        ("punct", ")", 3, 18),
        ("punct", "<=", 3, 20),
        ("ident", "q", 3, 23),
        ("punct", ",", 3, 24),
        ("punct", "\\+", 3, 26),
        ("ident", "r", 3, 29),
        ("punct", ";", 3, 30),
        ("punct", "!", 3, 32),
        ("punct", ".", 3, 33),
        ("ident", "h", 4, 1),
        ("punct", ":-", 4, 3),
        ("ident", "b", 4, 6),
        ("punct", ".", 4, 7),
        ("punct", "?-", 4, 9),
        ("ident", "g", 4, 12),
        ("punct", ".", 4, 13),
        ("string", "two\nlines", 5, 1),
        ("badchar", "$", 6, 15),
        ("eof", None, 8, 1),
    ]
    assert errors == [
        ParseError(6, 8, "unknown annotation '#foo'", 'lines" #foo # $'),
        ParseError(6, 13, "unknown annotation '#'", 'lines" #foo # $'),
        ParseError(7, 1, "unterminated string", '"open'),
    ]


# Characters that build statements, mixed with arbitrary Unicode.
_SOURCE_CHARS = st.one_of(st.sampled_from(list('pqX_(),.<=:-?\\+;!#"%17 \n')), st.characters())


@settings(max_examples=400, deadline=None)
@given(st.text(_SOURCE_CHARS))
@example("café(x) <= .")
@example("lawful_processing(ß)")
@example("p(²).")
@example("p(" + "1" * 5000 + ").")
def test_any_text_parses_or_raises_parse_failure(text):
    for parse in (parse_program, parse_facts, parse_atom, parse_prolog_subset):
        try:
            parse(text)
        except ParseFailure as failure:
            assert failure.errors
            assert all(e.line >= 1 and e.column >= 1 for e in failure.errors)


@settings(max_examples=300, deadline=None)
@given(st.text(st.one_of(st.sampled_from(list("aqZ_09éß٣²(),. \n-")), st.characters())))
def test_name_tokens_are_names_the_constructors_accept(text):
    # The parser builds names from these tokens without checking them again.
    tokens, _ = tokenize(text)
    for token in tokens:
        if token.kind == "ident":
            assert Constant(token.value).name == token.value
        elif token.kind == "variable":
            assert Variable(token.value).name == token.value


def _fresh(name: str) -> str:
    # A new string object, as each parsed token is: pickle writes a string
    # object seen before as a back reference, so sharing shows in its bytes.
    return "".join(list(name))


_NAMES = st.from_regex(IDENT_PATTERN, fullmatch=True).map(_fresh)
_TERMS = st.recursive(
    st.one_of(
        _NAMES.map(Constant),
        st.from_regex(VARIABLE_PATTERN, fullmatch=True).map(_fresh).map(Variable),
        st.integers().map(Integer),
        st.text().map(_fresh).map(Text),
    ),
    lambda args: st.builds(Compound, _NAMES, st.lists(args, min_size=1, max_size=3).map(tuple)),
    max_leaves=12,
)


@settings(max_examples=300, deadline=None)
@given(st.builds(Atom, _NAMES, st.lists(_TERMS, max_size=3).map(tuple)))
def test_parsed_atoms_are_the_constructed_ones(atom):
    parsed = [parse_atom(str(atom)), parse_program(f"{atom} <=.").rules[0].head]
    if is_ground(atom):
        parsed += parse_facts(f"{atom}.").facts
    for got in parsed:
        assert got == atom
        assert hash(got) == hash(atom)
        assert pickle.dumps(got) == pickle.dumps(atom)
        assert [hash(arg) for arg in got.args] == [hash(arg) for arg in atom.args]


def test_non_ascii_digits_and_letters_are_not_names_or_integers():
    # Names are ASCII and integers are ASCII digits; quoted strings hold anything.
    assert [str(e) for e in errors_of("p(٣).", parse=parse_facts)] == [
        "1:3: unexpected character '٣'"
    ]
    assert [str(e) for e in errors_of("café(x) <=.")] == ["1:4: expected '<=' after rule head"]
    assert parse_atom('p("café ٣")') == Atom("p", (Text("café ٣"),))


def test_snippet_is_the_line_the_position_counts():
    # A lone carriage return does not end a line for positions, nor for snippets.
    errors = errors_of("p <= q.\rr <= $.\n")
    assert [(e.line, e.column, e.snippet) for e in errors] == [(1, 14, "p <= q.\rr <= $.")]


# Errors no other test reaches, each at the position it names.
@pytest.mark.parametrize("parse, source, expected", [
    (parse_program, '#source "" p <= q.', ["1:9: '#source' citation must be non-empty"]),
    (parse_program, "#id a exception(p, q).",
     ["1:7: '#id' applies to rules, not exception declarations"]),
    (parse_prolog_subset, "p :- ; q.", ["1:6: disjunction ';' is outside the supported subset"]),
    (parse_prolog_subset, "p :- \\+ \\+ q.",
     ["1:9: nested negation is outside the supported subset"]),
    (parse_prolog_subset, "p :- \\+ (q).",
     ["1:9: parenthesized negation bodies are outside the supported subset"]),
    # At most one of each annotation per statement; a second one is not dropped silently.
    (parse_program, '#source "x" #source "y" p <= q.',
     ["1:13: a statement takes at most one '#source'"]),
    (parse_program, "#id a\n#id b\np <= q.", ["2:1: a statement takes at most one '#id'"]),
    (parse_program, '#source "x"\n#id a #source "y" #id b exception(p, q).',
     ["2:7: a statement takes at most one '#source'",
      "2:19: a statement takes at most one '#id'",
      "2:25: '#id' applies to rules, not exception declarations"]),
])
def test_statement_errors_are_pinned(parse, source, expected):
    assert [str(error) for error in errors_of(source, parse)] == expected


class TestParseProgram:
    def test_simple_rule(self):
        program = parse_program("p <= q, r.")
        assert program == Program(
            (Rule("r1", Atom("p"), (Atom("q"), Atom("r"))),)
        )

    def test_exception_declaration(self):
        program = parse_program("exception(basis_consent(P), consent_withdrawn(P)).")
        assert program.rules == ()
        assert program.exceptions == (
            ExceptionDecl(
                Atom("basis_consent", (Variable("P"),)),
                Atom("consent_withdrawn", (Variable("P"),)),
            ),
        )

    def test_missing_period_reports_position(self):
        errors = errors_of("p <= q")
        assert any(e.line == 1 and "'.'" in e.message for e in errors)

    def test_empty_body(self):
        program = parse_program("p <=.")
        assert program.rules[0].body == ()

    def test_comments_and_blank_lines(self):
        program = parse_program("% a comment\n\np <= q. % trailing\n")
        assert len(program.rules) == 1

    def test_terms(self):
        program = parse_program('p(f(X, c), -3, "two words", _) <=.')
        head = program.rules[0].head
        assert head.args[0].functor == "f"
        assert head.args[1] == Integer(-3)
        assert head.args[2] == Text("two words")
        assert head.args[3] == Variable("_")

    def test_source_annotation_attaches_to_next_statement(self):
        program = parse_program('#source "GDPR Art. 7(3)"\nexception(p, e).\np <= q.')
        assert program.exceptions[0].source == SourceRef("GDPR Art. 7(3)")
        assert program.rules[0].source is None

    def test_id_annotation_overrides_default(self):
        program = parse_program("#id first\np <= q.\nr <= s.")
        assert [r.id for r in program.rules] == ["first", "r2"]

    def test_duplicate_rule_id_is_an_error(self):
        errors = errors_of("#id same\np <=.\n#id same\nq <=.")
        assert any("duplicate rule id" in e.message for e in errors)

    def test_dangling_annotation_is_an_error(self):
        errors = errors_of('#source "x"')
        assert any("not followed by a statement" in e.message for e in errors)

    def test_reserved_exception_head(self):
        errors = errors_of("exception <= q.")
        assert any("reserved" in e.message for e in errors)

    def test_exception_arity_enforced(self):
        errors = errors_of("exception(p).")
        assert any("two arguments" in e.message for e in errors)

    def test_error_recovery_reports_every_statement(self):
        source = "p <= q r.\nq <= ok.\n<= r.\ns <= (.\n"
        errors = errors_of(source)
        bad_lines = {e.line for e in errors}
        assert {1, 3, 4} <= bad_lines

    def test_bad_exception_argument_does_not_skip_the_next_statement(self):
        errors = errors_of("exception(p, X). q <= r s.")
        assert [str(e) for e in errors] == [
            "1:1: exception arguments must be atoms",
            "1:25: expected '.' after rule body",
        ]

    def test_parse_error_has_snippet(self):
        errors = errors_of("p <= q r.")
        assert errors[0].snippet == "p <= q r."

    def test_statement_order_preserved(self):
        program = parse_program("b <=.\na <=.\nexception(b, e).\n")
        assert [r.head.predicate for r in program.rules] == ["b", "a"]

    def test_rule_lines_recorded(self):
        program = parse_program("p <= q.\n\nr <=.\n")
        assert [r.line for r in program.rules] == [1, 3]


class TestParseFacts:
    def test_two_facts(self):
        facts = parse_facts("consent_given(case1). consent_withdrawn(case1).")
        assert facts.facts == frozenset(
            {
                Atom("consent_given", (Constant("case1"),)),
                Atom("consent_withdrawn", (Constant("case1"),)),
            }
        )

    def test_empty_input(self):
        assert parse_facts("").facts == frozenset()

    def test_variables_rejected(self):
        # Each fact holding a variable, at any depth, is refused at its
        # first token, and the parse goes on: the ground fact after one is
        # read without an error, and the next bad one is reported too.
        errors = errors_of("consent_given(X).\np(f(X)). ok(a).\n  q(1, Y).", parse=parse_facts)
        assert [(e.line, e.column, e.message) for e in errors] == [
            (1, 1, "facts must be ground"),
            (2, 1, "facts must be ground"),
            (3, 3, "facts must be ground"),
        ]

    def test_duplicates_collapse(self):
        assert len(parse_facts("a. a. a.")) == 1

    def test_rule_syntax_rejected_in_facts(self):
        errors = errors_of("p <= q.", parse=parse_facts)
        assert errors


class TestParseAtom:
    def test_plain(self):
        assert parse_atom("lawful_processing(case1)") == Atom(
            "lawful_processing", (Constant("case1"),)
        )

    def test_term_nesting_is_bounded(self):
        def nested(levels):
            return "p(" + "f(" * levels + "a" + ")" * (levels + 1)

        term = parse_atom(nested(MAX_TERM_DEPTH)).args[0]
        for _ in range(MAX_TERM_DEPTH):
            term = term.args[0]
        assert term == Constant("a")
        errors = errors_of(nested(MAX_TERM_DEPTH + 1), parse=parse_atom)
        assert [str(e) for e in errors] == [
            f"1:{3 + 2 * MAX_TERM_DEPTH}: term nested deeper than {MAX_TERM_DEPTH} levels"
        ]

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ParseFailure):
            parse_atom("p(a).")


class TestSerialize:
    def test_single_rule(self):
        program = Program((Rule("r1", Atom("p"), (Atom("q"),)),))
        assert serialize(program) == "p <= q.\n"

    def test_exception_with_source(self):
        program = Program(
            exceptions=(
                ExceptionDecl(Atom("p"), Atom("e"), source=SourceRef("GDPR Art. 7(3)")),
            )
        )
        assert serialize(program) == '#source "GDPR Art. 7(3)"\nexception(p, e).\n'

    def test_empty_body_form(self):
        assert serialize(Program((Rule("r1", Atom("p")),))) == "p <=.\n"

    def test_no_rule_is_headed_by_exception(self):
        # The grammar reserves `exception` for declarations, so a rule with
        # that head, of any arity, would serialize as text that does not
        # parse; its constructor refuses it.
        a, b = Constant("a"), Constant("b")
        for args in ((), (a,), (a, b), (a, b, a)):
            head = Atom("exception", args)
            with pytest.raises(ValueError, match="'exception' is reserved"):
                Rule("r1", head)
            with pytest.raises(ParseFailure):
                parse_program(f"{head} <=.")
        # The name stays usable in a body and inside a declaration.
        program = Program((Rule("r1", Atom("p"), (Atom("exception", (a, b)),)),),
                          (ExceptionDecl(Atom("p"), Atom("exception", (a,))),))
        assert parse_program(serialize(program)) == program

    def test_custom_id_round_trips(self):
        program = Program((Rule("special", Atom("p")),))
        assert parse_program(serialize(program)) == program

    def test_round_trip_fixpoint_on_source(self):
        source = """
        % curated extract
        #source "GDPR Art. 6(1)(a)"
        lawful_processing(P) <= basis_consent(P).
        basis_consent(P) <= consent_given(P).
        exception(basis_consent(P), consent_withdrawn(P)).
        """
        first = parse_program(source)
        second = parse_program(serialize(first))
        assert first == second
        assert serialize(first) == serialize(second)


def test_round_trip_random_programs():
    rng = random.Random(20240811)
    for _ in range(150):
        program = random_source_program(rng)
        text = serialize(program)
        reparsed = parse_program(text)
        assert reparsed == program, text
        assert serialize(reparsed) == text


def test_range_restriction_warning():
    program = parse_program("p(X) <= q(Y).\ngood(X) <= base(X).")
    warnings = range_restriction_warnings(program)
    assert len(warnings) == 1
    assert "r1" in warnings[0]
