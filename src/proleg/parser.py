"""Surface syntax for PROLEG rule bases, case fact files, and the
restricted Prolog dialect the converter reads.

The grammar, in brief::

    program    := (annotation | statement | comment)*
    annotation := '#source' QUOTED_STRING | '#id' IDENT
    statement  := rule | exceptiondecl
    rule       := atom '<=' atomlist? '.'
    exceptiondecl := 'exception' '(' atom ',' atom ')' '.'
    atomlist   := atom (',' atom)*
    atom       := IDENT ( '(' term (',' term)* ')' )?
    term       := IDENT ('(' term (',' term)* ')')? | VARIABLE | INTEGER
                | QUOTED_STRING

IDENT and VARIABLE are the data model's name patterns
(``ast.IDENT_PATTERN``, ``ast.VARIABLE_PATTERN``), INTEGER is an
optional ``-`` and ASCII digits, and a quoted string may hold any
character. Any other character outside a string is a ``badchar`` token,
which every grammar rejects. Compound terms nest at most
``MAX_TERM_DEPTH`` (100) levels deep.

``%`` starts a line comment. An annotation line applies to the next
statement. Rules are given ids ``r1, r2, ...`` in textual order unless
an ``#id`` annotation overrides the default. Syntax errors are
collected rather than aborting at the first problem; the parser skips
to the next ``.`` and carries on.

Fact files use the same atom grammar, one ground atom per statement.

The tokenizer also knows the operators of the restricted Prolog dialect
(``:-``, ``?-``, ``\\+``, ``;``, ``!``), which ``parse_prolog_subset``
reads; the PROLEG grammar simply rejects those tokens.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from typing import Callable, Optional

from .ast import (
    IDENT_PATTERN,
    VARIABLE_PATTERN,
    Atom,
    Compound,
    Constant,
    ExceptionDecl,
    FactBase,
    Integer,
    Program,
    Rule,
    SourceRef,
    Term,
    Text,
    Variable,
    escape_text,
    is_ground,
)

# Token kinds.
IDENT = "ident"
VAR = "variable"
INT = "integer"
STRING = "string"
ANNOT = "annotation"
PUNCT = "punct"
BADCHAR = "badchar"
EOF = "eof"

_STRING_BODY = r'"(?:[^"\\\n]|\\[\s\S])*'
# One alternative per token kind, named after it, tried in this order;
# BADCHAR takes any single character nothing else matches. A backslash
# escapes any character, a line break too. An unterminated string runs
# to the end of its line, or of the input with a final lone backslash.
_TOKEN_RE = re.compile(
    "|".join(
        f"(?P<{kind}>{pattern})"
        for kind, pattern in (
            ("skip", r"[ \t\r\n]+|%[^\n]*"),
            (STRING, _STRING_BODY + '"'),
            ("unterminated", _STRING_BODY + r"\\?"),
            (ANNOT, r"#[A-Za-z0-9_]*"),
            (INT, r"-?[0-9]+"),
            (IDENT, IDENT_PATTERN),
            (VAR, VARIABLE_PATTERN),
            (PUNCT, r"<=|:-|\?-|\\\+|[(),.;!]"),
            (BADCHAR, r"[\s\S]"),
        )
    )
)
_ESCAPE_RE = re.compile(r"\\([\s\S])")
_STRING_UNESCAPES = {"\\": "\\", '"': '"', "n": "\n", "t": "\t", "r": "\r"}
# The deepest compound-term nesting the parser accepts. The parser takes
# one Python frame per level; the data model's own walks (equality,
# hashing, printing, substitution) take none, so terms the engine builds
# deeper than this still work.
MAX_TERM_DEPTH = 100


@dataclass(frozen=True)
class ParseError:
    """A syntax problem at a 1-based line/column position."""

    line: int
    column: int
    message: str
    snippet: str = ""

    def __str__(self) -> str:
        return f"{self.line}:{self.column}: {self.message}"


class ParseFailure(Exception):
    """Raised when parsing fails; carries every collected ParseError."""

    def __init__(self, errors: list[ParseError]):
        self.errors = list(errors)
        super().__init__("; ".join(str(e) for e in self.errors))


@dataclass(frozen=True)
class Token:
    kind: str
    value: object
    line: int
    column: int


def _with_snippets(text: str, errors: list[ParseError]) -> list[ParseError]:
    """The errors, each with its stripped source line as the snippet.
    Lines end at '\\n' only, the one break that positions count."""
    lines = text.split("\n")
    return [replace(e, snippet=lines[e.line - 1].strip()) for e in errors]


def _unescape(match: re.Match) -> str:
    return _STRING_UNESCAPES.get(match[1], match[1])


def tokenize(text: str) -> tuple[list[Token], list[ParseError]]:
    """Split source text into tokens, collecting lexical errors."""
    tokens: list[Token] = []
    errors: list[ParseError] = []
    line = 1
    line_start = 0
    for match in _TOKEN_RE.finditer(text):
        kind = match.lastgroup
        value = match.group()
        column = match.start() - line_start + 1
        if kind in (IDENT, PUNCT, VAR, BADCHAR):
            # BADCHAR is not an error yet: a statement the parser skips (say,
            # a Prolog directive) may legitimately contain it.
            tokens.append(Token(kind, value, line, column))
        elif kind == INT:
            try:
                tokens.append(Token(INT, int(value), line, column))
            except ValueError:  # more digits than int() converts
                errors.append(ParseError(line, column, "integer literal too long"))
        elif kind == STRING:
            tokens.append(Token(STRING, _ESCAPE_RE.sub(_unescape, value[1:-1]), line, column))
        elif kind == ANNOT and value in ("#source", "#id"):
            tokens.append(Token(ANNOT, value[1:], line, column))
        elif kind == ANNOT:
            errors.append(ParseError(line, column, f"unknown annotation '{value}'"))
        elif kind == "unterminated":
            errors.append(ParseError(line, column, "unterminated string"))
        if "\n" in value:
            line += value.count("\n")
            line_start = match.start() + value.rindex("\n") + 1
    tokens.append(Token(EOF, None, line, len(text) - line_start + 1))
    return tokens, _with_snippets(text, errors) if errors else errors


class _Abort(Exception):
    """Internal signal: a statement could not be parsed; recover and go on."""


class _TokenStream:
    def __init__(self, text: str):
        self.text = text
        self.tokens, self.errors = tokenize(text)
        self.pos = 0

    def peek(self, offset: int = 0) -> Token:
        index = min(self.pos + offset, len(self.tokens) - 1)
        return self.tokens[index]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != EOF:
            self.pos += 1
        return tok

    def at_punct(self, symbol: str, offset: int = 0) -> bool:
        tok = self.peek(offset)
        return tok.kind == PUNCT and tok.value == symbol

    def error(self, tok: Token, message: str) -> None:
        self.errors.append(ParseError(tok.line, tok.column, message))

    def fail(self, tok: Token, message: str) -> "_Abort":
        self.error(tok, message)
        return _Abort()

    def failure(self) -> ParseFailure:
        return ParseFailure(_with_snippets(self.text, self.errors))

    def expect_punct(self, symbol: str, context: str) -> Token:
        tok = self.peek()
        if not self.at_punct(symbol):
            raise self.fail(tok, f"expected '{symbol}' {context}")
        return self.advance()

    def recover_statement(self) -> None:
        """Skip past the next '.' (or to end of input)."""
        while self.peek().kind != EOF:
            tok = self.advance()
            if tok.kind == PUNCT and tok.value == ".":
                return


def _parse_term(ts: _TokenStream, depth: int) -> Term:
    """One term inside ``depth`` enclosing compounds."""
    tok = ts.peek()
    if tok.kind == IDENT:
        ts.advance()
        if ts.at_punct("("):
            if depth == MAX_TERM_DEPTH:
                raise ts.fail(tok, f"term nested deeper than {MAX_TERM_DEPTH} levels")
            ts.advance()
            args = [_parse_term(ts, depth + 1)]
            while ts.at_punct(","):
                ts.advance()
                args.append(_parse_term(ts, depth + 1))
            ts.expect_punct(")", "to close argument list")
            return Compound(tok.value, tuple(args))
        return Constant(tok.value)
    if tok.kind == VAR:
        ts.advance()
        return Variable(tok.value)
    if tok.kind == INT:
        ts.advance()
        return Integer(tok.value)
    if tok.kind == STRING:
        ts.advance()
        return Text(tok.value)
    if tok.kind == BADCHAR:
        raise ts.fail(tok, f"unexpected character {tok.value!r}")
    raise ts.fail(tok, "expected a term")


def _parse_atom(ts: _TokenStream) -> Atom:
    tok = ts.peek()
    if tok.kind == BADCHAR:
        raise ts.fail(tok, f"unexpected character {tok.value!r}")
    if tok.kind != IDENT:
        raise ts.fail(tok, "expected a predicate name")
    ts.advance()
    args: list[Term] = []
    if ts.at_punct("("):
        ts.advance()
        args.append(_parse_term(ts, 0))
        while ts.at_punct(","):
            ts.advance()
            args.append(_parse_term(ts, 0))
        ts.expect_punct(")", "to close argument list")
    return Atom(tok.value, tuple(args))


def _term_as_atom(term: Term) -> Optional[Atom]:
    if isinstance(term, Constant):
        return Atom(term.name)
    if isinstance(term, Compound):
        return Atom(term.functor, term.args)
    return None


def _parse_statements(source: str, statement: Callable[[_TokenStream, Token], None]) -> None:
    """Call ``statement`` at the start of each statement up to the end of
    input, skipping past the next '.' after one that fails; then raise
    ParseFailure if any error was collected."""
    ts = _TokenStream(source)
    while ts.peek().kind != EOF:
        try:
            statement(ts, ts.peek())
        except _Abort:
            ts.recover_statement()
    if ts.errors:
        raise ts.failure()


def parse_program(source: str) -> Program:
    """Parse PROLEG source text into a Program.

    Raises ParseFailure with every collected error when the text does
    not parse; rule and exception order follows the text.
    """
    rules: list[Rule] = []
    exceptions: list[ExceptionDecl] = []
    used_ids: set[str] = set()
    rule_count = 0

    def statement(ts: _TokenStream, tok: Token) -> None:
        nonlocal rule_count
        citation: Optional[SourceRef] = None
        rule_id: Optional[str] = None
        while tok.kind == ANNOT:
            annotation = ts.advance()
            value = ts.peek()
            if annotation.value == "source":
                if value.kind != STRING:
                    raise ts.fail(value, "expected a quoted citation after '#source'")
                ts.advance()
                if not value.value:
                    raise ts.fail(value, "'#source' citation must be non-empty")
                citation = SourceRef(value.value)
            else:
                if value.kind != IDENT:
                    raise ts.fail(value, "expected an identifier after '#id'")
                ts.advance()
                rule_id = value.value
            tok = ts.peek()
            if tok.kind == EOF:
                ts.error(annotation, "annotation is not followed by a statement")
                return
        if tok.kind == IDENT and tok.value == "exception" and ts.at_punct("(", 1):
            atom = _parse_atom(ts)
            if len(atom.args) != 2:
                raise ts.fail(tok, "exception declarations take exactly two arguments")
            ts.expect_punct(".", "after exception declaration")
            if rule_id is not None:
                ts.error(tok, "'#id' applies to rules, not exception declarations")
            # The '.' is consumed, so an error here must not abort: recovery
            # would skip the next statement.
            head, exc = _term_as_atom(atom.args[0]), _term_as_atom(atom.args[1])
            if head is None or exc is None:
                ts.error(tok, "exception arguments must be atoms")
            else:
                exceptions.append(ExceptionDecl(head, exc, source=citation, line=tok.line))
            return
        if tok.kind == IDENT:
            if tok.value == "exception":
                raise ts.fail(tok, "'exception' is reserved for exception declarations")
            head = _parse_atom(ts)
            ts.expect_punct("<=", "after rule head")
            body: list[Atom] = []
            if not ts.at_punct("."):
                body.append(_parse_atom(ts))
                while ts.at_punct(","):
                    ts.advance()
                    body.append(_parse_atom(ts))
            ts.expect_punct(".", "after rule body")
            rule_count += 1
            if rule_id is None:
                rule_id = f"r{rule_count}"
            if rule_id in used_ids:
                ts.error(tok, f"duplicate rule id '{rule_id}'")
            else:
                used_ids.add(rule_id)
                rules.append(Rule(rule_id, head, tuple(body), source=citation, line=tok.line))
            return
        if tok.kind == BADCHAR:
            raise ts.fail(tok, f"unexpected character {tok.value!r}")
        raise ts.fail(tok, "expected a rule or exception declaration")

    _parse_statements(source, statement)
    return Program(tuple(rules), tuple(exceptions))


def parse_facts(source: str) -> FactBase:
    """Parse a sequence of ground atoms, each terminated by '.'."""
    facts: set[Atom] = set()

    def fact(ts: _TokenStream, tok: Token) -> None:
        if tok.kind == ANNOT:
            raise ts.fail(tok, "annotations are not allowed in fact files")
        atom = _parse_atom(ts)
        ts.expect_punct(".", "after fact")
        if not is_ground(atom):
            ts.error(tok, "facts must be ground")
        else:
            facts.add(atom)

    _parse_statements(source, fact)
    return FactBase(frozenset(facts))


def parse_atom(source: str) -> Atom:
    """Parse a single atom, e.g. a query; the whole input must be consumed."""
    ts = _TokenStream(source)
    try:
        atom = _parse_atom(ts)
    except _Abort:
        raise ts.failure() from None
    trailing = ts.peek()
    if trailing.kind != EOF:
        ts.error(trailing, "unexpected input after atom")
    if ts.errors:
        raise ts.failure()
    return atom


@dataclass(frozen=True)
class PrologClause:
    """One source clause, with negated body literals split out."""

    head: Atom
    positive_body: tuple[Atom, ...] = ()
    negated_body: tuple[Atom, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "positive_body", tuple(self.positive_body))
        object.__setattr__(self, "negated_body", tuple(self.negated_body))


def parse_prolog_subset(source: str) -> tuple[list[PrologClause], list[str]]:
    """Parse dialect source into clauses plus skip warnings.

    Raises ParseFailure on constructs outside the subset, naming each
    offending construct with its position.
    """
    clauses: list[PrologClause] = []
    warnings: list[str] = []

    def clause(ts: _TokenStream, tok: Token) -> None:
        if tok.kind == ANNOT:
            raise ts.fail(tok, "annotations belong to PROLEG, not the Prolog subset")
        for symbol, what in ((":-", "directive"), ("?-", "query")):
            if ts.at_punct(symbol):
                ts.advance()
                ts.recover_statement()
                warnings.append(f"skipped {what} at line {tok.line}")
                return
        head = _parse_atom(ts)
        positive: list[Atom] = []
        negated: list[Atom] = []
        if ts.at_punct(":-"):
            ts.advance()
            _parse_literal(ts, positive, negated)
            while ts.at_punct(","):
                ts.advance()
                _parse_literal(ts, positive, negated)
            if ts.at_punct(";"):
                raise ts.fail(ts.peek(), "disjunction ';' is outside the supported subset")
        ts.expect_punct(".", "after clause")
        clauses.append(PrologClause(head, tuple(positive), tuple(negated)))

    _parse_statements(source, clause)
    return clauses, warnings


def _parse_literal(ts: _TokenStream, positive: list[Atom], negated: list[Atom]) -> None:
    tok = ts.peek()
    if ts.at_punct("!"):
        raise ts.fail(tok, "cut '!' is outside the supported subset")
    if ts.at_punct(";"):
        raise ts.fail(tok, "disjunction ';' is outside the supported subset")
    if ts.at_punct("\\+"):
        ts.advance()
        inner = ts.peek()
        if ts.at_punct("\\+"):
            raise ts.fail(inner, "nested negation is outside the supported subset")
        if ts.at_punct("("):
            ts.advance()
            if ts.at_punct("\\+"):
                raise ts.fail(ts.peek(), "nested negation is outside the supported subset")
            raise ts.fail(inner, "parenthesized negation bodies are outside the supported subset")
        negated.append(_parse_atom(ts))
        return
    positive.append(_parse_atom(ts))


def serialize(program: Program) -> str:
    """Emit canonical text: one statement per line, annotations ahead of
    their statement, comments dropped. Parsing the output reproduces a
    structurally equal Program.

    ``#id`` lines appear only where a rule's id differs from the
    position-derived default. Source notes have no surface form and are
    dropped.
    """
    lines: list[str] = []
    for index, rule in enumerate(program.rules, start=1):
        if rule.source is not None:
            lines.append(f'#source "{escape_text(rule.source.citation)}"')
        if rule.id != f"r{index}":
            lines.append(f"#id {rule.id}")
        if rule.body:
            body = ", ".join(str(a) for a in rule.body)
            lines.append(f"{rule.head} <= {body}.")
        else:
            lines.append(f"{rule.head} <=.")
    for decl in program.exceptions:
        if decl.source is not None:
            lines.append(f'#source "{escape_text(decl.source.citation)}"')
        lines.append(f"exception({decl.head}, {decl.exception}).")
    return "".join(line + "\n" for line in lines)


def range_restriction_warnings(program: Program) -> list[str]:
    """Warnings for rules whose head variables do not all occur in the body.

    Such rules parse and evaluate fine; the warning flags likely typos.
    """
    warnings = []
    for rule in program.rules:
        if not rule.is_range_restricted:
            where = f" (line {rule.line})" if rule.line is not None else ""
            warnings.append(f"rule {rule.id}{where} is not range-restricted")
    return warnings
