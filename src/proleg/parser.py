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
from typing import Callable, NamedTuple, Optional

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
    Record,
    Rule,
    SourceRef,
    Term,
    Text,
    Variable,
    _built,
    _record,
    escape_text,
)

# Token kinds. Inside the parser a punctuation token's kind is the symbol
# itself, e.g. "(" or "<="; ``tokenize`` reports them all as PUNCT.
IDENT = "ident"
VAR = "variable"
INT = "integer"
STRING = "string"
ANNOT = "annotation"
PUNCT = "punct"
BADCHAR = "badchar"
EOF = "eof"

_PUNCTS = ("<=", ":-", "?-", "\\+", "(", ")", ",", ".", ";", "!")
_STRING_BODY = r'"(?:[^"\\\n]|\\[\s\S])*'
_BLANKS = r"[ \t\r\n]*(?:%[^\n]*[ \t\r\n]*)*"  # blanks and line comments
# One match per token: blanks and comments, then one alternative per token
# kind, named after it. Only BADCHAR overlaps the others, so it comes last;
# the end-of-input alternative keeps trailing blanks from being given back
# as a BADCHAR. The name alternatives are the data model's own patterns, so
# the parser builds names without checking them again. A backslash escapes
# any character, a line break too. An unterminated string runs to the end
# of its line, or of the input with a final lone backslash.
_TOKEN_RE = re.compile(_BLANKS + "(?:" + "|".join(
    f"(?P<{kind}>{pattern})" for kind, pattern in [
        (IDENT, IDENT_PATTERN),
        (PUNCT, "|".join(map(re.escape, _PUNCTS))),
        (VAR, VARIABLE_PATTERN),
        (INT, r"-?[0-9]+"),
        (STRING, _STRING_BODY + '"'),
        ("unterminated", _STRING_BODY + r"\\?"),
        (ANNOT, r"#[A-Za-z0-9_]*"),
        (BADCHAR, r"[\s\S]"),
        (EOF, r"\Z"),
    ]) + ")")
# One match per flat ground fact, ``name.`` or ``name(c1, ..., cn).`` with
# constant arguments and no comment inside; then one match at the end of
# input, or one that takes the rest of a text this does not cover. That
# last alternative matches wherever the others fail, so a match never
# backtracks into the comments before it and never reads a fact there.
_FACT_RE = re.compile(_BLANKS + r"(?:({0}){1}(?:\(({1}{0}(?:{1},{1}{0})*){1}\){1})?\."
                      r"|\Z|([\s\S]+))".format(IDENT_PATTERN, r"[ \t\r\n]*"))
_ESCAPE_RE = re.compile(r"\\([\s\S])")
_LINE_RE = re.compile(r"[^\n]*")
_LITERALS = {INT: Integer, STRING: Text}
_STRING_UNESCAPES = {"\\": "\\", '"': '"', "n": "\n", "t": "\t", "r": "\r"}
# The deepest compound-term nesting the parser accepts. The parser takes
# one Python frame per level; the data model's own walks (equality,
# hashing, printing, substitution) take none, so terms the engine builds
# deeper than this still work.
MAX_TERM_DEPTH = 100


class ParseError(Record):
    """A syntax problem at a 1-based line/column position."""

    __slots__ = _fields = ("line", "column", "message", "snippet")

    def __init__(self, line: int, column: int, message: str, snippet: str = "") -> None:
        self._init(line, column, message, snippet)

    def __str__(self) -> str:
        return f"{self.line}:{self.column}: {self.message}"


class ParseFailure(Exception):
    """Raised when parsing fails; carries every collected ParseError."""

    def __init__(self, errors: list[ParseError]):
        self.errors = list(errors)
        super().__init__("; ".join(str(e) for e in self.errors))


Token = NamedTuple("Token", [("kind", str), ("value", object), ("line", int), ("column", int)])


def _unescape(match: re.Match) -> str:
    return _STRING_UNESCAPES.get(match[1], match[1])


def tokenize(text: str) -> tuple[list[Token], list[ParseError]]:
    """Split source text into tokens, collecting lexical errors."""
    p = _Parser(text)
    return ([Token(PUNCT if kind in _PUNCTS else kind, value, *p.position(offset))
             for kind, value, offset in p.tokens], p.failure().errors)


class _Abort(Exception):
    """Internal signal: skip the rest of this statement and go on."""


class _Parser:
    """One text's tokens, read by index: ``pos`` is the next token's.
    Errors are kept as (offset, message), lexical ones first."""

    def __init__(self, text: str):
        """Scan the text: tokens as (kind, value, offset), ending with EOF;
        lexical errors as (offset, message). A punctuation token's kind is
        its symbol. BADCHAR is not an error yet: a statement the parser
        skips (say, a Prolog directive) may hold one."""
        self.text, self.tokens, self.errors = text, [], []
        self.pos = self.variables = 0  # variables: how many Variables were built
        self.counted, self.line, self.line_start = 0, 1, 0  # see ``position``
        append = self.tokens.append
        for match in _TOKEN_RE.finditer(text):
            kind = match.lastgroup
            value = match[kind]
            offset = match.start(kind)
            if kind == IDENT or kind == VAR or kind == BADCHAR:
                append((kind, value, offset))
            elif kind == PUNCT:
                append((value, value, offset))
            elif kind == INT:
                try:
                    append((INT, int(value), offset))
                except ValueError:  # more digits than int() converts
                    self.errors.append((offset, "integer literal too long"))
            elif kind == STRING:
                append((STRING, _ESCAPE_RE.sub(_unescape, value[1:-1]), offset))
            elif kind == ANNOT and value in ("#source", "#id"):
                append((ANNOT, value[1:], offset))
            elif kind == ANNOT:
                self.errors.append((offset, f"unknown annotation '{value}'"))
            elif kind == EOF:  # after trailing blanks, an empty match at the end would follow
                append((EOF, None, offset))
                break
            else:
                self.errors.append((offset, "unterminated string"))

    def position(self, offset: int) -> tuple[int, int]:
        """The offset's 1-based line and column; lines end at '\\n' only.
        Counting goes on from the offset asked before, so offsets asked in
        increasing order cost time linear in the text."""
        if offset < self.counted:
            self.counted, self.line, self.line_start = 0, 1, 0
        breaks = self.text.count("\n", self.counted, offset)
        if breaks:
            self.line += breaks
            self.line_start = self.text.rfind("\n", self.counted, offset) + 1
        self.counted = offset
        return self.line, offset - self.line_start + 1

    def error(self, token: tuple, message: str) -> _Abort:
        """Record an error at the token; raise the result to abort the statement."""
        self.errors.append((token[2], message))
        return _Abort()

    def unexpected(self, token: tuple, expected: str) -> _Abort:
        if token[0] == BADCHAR:
            return self.error(token, f"unexpected character {token[1]!r}")
        return self.error(token, f"expected {expected}")

    def expect(self, symbol: str, context: str) -> None:
        token = self.tokens[self.pos]
        if token[0] != symbol:
            raise self.error(token, f"expected '{symbol}' {context}")
        self.pos += 1

    def statements(self, statement: Callable[[_Parser, tuple], None]) -> None:
        """Call ``statement`` at each statement's start up to the end of input,
        skipping past the next '.' after one that aborts; then raise any errors."""
        tokens = self.tokens
        while tokens[self.pos][0] != EOF:
            try:
                statement(self, tokens[self.pos])
            except _Abort:
                while tokens[self.pos][0] != EOF:
                    self.pos += 1
                    if tokens[self.pos - 1][0] == ".":
                        break
        if self.errors:
            raise self.failure()

    def failure(self) -> ParseFailure:
        """The errors so far, each with its stripped source line as the snippet."""
        errors = []
        for offset, message in self.errors:
            line, column = self.position(offset)
            snippet = _LINE_RE.match(self.text, self.line_start)[0].strip()
            errors.append(ParseError(line, column, message, snippet))
        return ParseFailure(errors)


def _parse_args(p: _Parser, pos: int, depth: int) -> tuple[tuple[Term, ...], int]:
    """The terms of the argument list whose '(' ends before token ``pos``,
    inside ``depth`` enclosing compounds; and the index after its ')'."""
    tokens = p.tokens
    args: list[Term] = []
    while True:
        token = tokens[pos]
        kind, value = token[0], token[1]
        pos += 1
        if kind == IDENT and tokens[pos][0] == "(":
            if depth == MAX_TERM_DEPTH:
                p.pos = pos
                raise p.error(token, f"term nested deeper than {MAX_TERM_DEPTH} levels")
            inner, pos = _parse_args(p, pos + 1, depth + 1)
            args.append(_built(Compound, value, inner))
        elif kind == IDENT:
            args.append(_built(Constant, value))
        elif kind == VAR:
            args.append(_built(Variable, value))
            p.variables += 1
        elif kind in _LITERALS:
            args.append(_LITERALS[kind](value))
        else:
            p.pos = pos - 1
            raise p.unexpected(token, "a term")
        kind = tokens[pos][0]
        if kind == ")":
            return tuple(args), pos + 1
        if kind != ",":
            p.pos = pos
            raise p.error(tokens[pos], "expected ')' to close argument list")
        pos += 1


def _parse_atom(p: _Parser) -> Atom:
    pos = p.pos
    token = p.tokens[pos]
    if token[0] != IDENT:
        raise p.unexpected(token, "a predicate name")
    if p.tokens[pos + 1][0] == "(":
        args, p.pos = _parse_args(p, pos + 2, 0)
        return _built(Atom, token[1], args)
    p.pos = pos + 1
    return _built(Atom, token[1], ())


def _comma_separated(p: _Parser, parse: Callable[[_Parser], object]) -> list:
    """One or more ``parse`` results, separated by commas."""
    items = [parse(p)]
    while p.tokens[p.pos][0] == ",":
        p.pos += 1
        items.append(parse(p))
    return items


def _term_as_atom(term: Term) -> Optional[Atom]:
    if isinstance(term, Constant):
        return _built(Atom, term.name, ())
    if isinstance(term, Compound):
        return _built(Atom, term.functor, term.args)
    return None


def parse_program(source: str) -> Program:
    """Parse PROLEG source text into a Program.

    Raises ParseFailure with every collected error when the text does
    not parse; rule and exception order follows the text.
    """
    rules: list[Rule] = []
    exceptions: list[ExceptionDecl] = []
    used_ids: set[str] = set()
    rule_count = 0

    def statement(p: _Parser, token: tuple) -> None:
        nonlocal rule_count
        tokens = p.tokens
        citation: Optional[SourceRef] = None
        rule_id: Optional[str] = None
        while token[0] == ANNOT:
            annotation, value = token, tokens[p.pos + 1]
            p.pos += 1
            if annotation[1] == "source":
                if citation is not None:
                    p.error(annotation, "a statement takes at most one '#source'")
                if value[0] != STRING:
                    raise p.error(value, "expected a quoted citation after '#source'")
                p.pos += 1
                if not value[1]:
                    raise p.error(value, "'#source' citation must be non-empty")
                citation = SourceRef(value[1])
            else:
                if rule_id is not None:
                    p.error(annotation, "a statement takes at most one '#id'")
                if value[0] != IDENT:
                    raise p.error(value, "expected an identifier after '#id'")
                p.pos += 1
                rule_id = value[1]
            token = tokens[p.pos]
            if token[0] == EOF:
                p.error(annotation, "annotation is not followed by a statement")
                return
        if token[0] != IDENT:
            raise p.unexpected(token, "a rule or exception declaration")
        line = p.position(token[2])[0]
        if token[1] == "exception" and tokens[p.pos + 1][0] == "(":
            atom = _parse_atom(p)
            if len(atom.args) != 2:
                raise p.error(token, "exception declarations take exactly two arguments")
            p.expect(".", "after exception declaration")
            if rule_id is not None:
                p.error(token, "'#id' applies to rules, not exception declarations")
            # The '.' is consumed, so an error here must not abort: recovery
            # would skip the next statement.
            head, exc = _term_as_atom(atom.args[0]), _term_as_atom(atom.args[1])
            if head is None or exc is None:
                p.error(token, "exception arguments must be atoms")
            else:
                exceptions.append(_record(ExceptionDecl, head, exc, citation, line))
            return
        if token[1] == "exception":
            raise p.error(token, "'exception' is reserved for exception declarations")
        head = _parse_atom(p)
        p.expect("<=", "after rule head")
        body = _comma_separated(p, _parse_atom) if tokens[p.pos][0] != "." else []
        p.expect(".", "after rule body")
        rule_count += 1
        if rule_id is None:
            rule_id = f"r{rule_count}"
        if rule_id in used_ids:
            p.error(token, f"duplicate rule id '{rule_id}'")
        else:
            used_ids.add(rule_id)
            rules.append(_record(Rule, rule_id, head, tuple(body), citation, line))

    _Parser(source).statements(statement)
    return _record(Program, tuple(rules), tuple(exceptions))


def parse_facts(source: str) -> FactBase:
    """Parse a sequence of ground atoms, each terminated by '.'.

    A text of flat ground facts is read one regex match per fact; any
    other text, errors included, goes whole to the token parser. Both add
    the atoms in textual order, so their fact sets iterate alike."""
    facts: set[Atom] = set()
    for name, args, rest in _FACT_RE.findall(source):
        if rest:
            return _token_facts(source)
        if name:
            facts.add(_built(Atom, name, tuple([_built(Constant, arg.strip())
                                                 for arg in args.split(",")])
                             if args else ()))
    return _record(FactBase, frozenset(facts))


def _token_facts(source: str) -> FactBase:
    """``parse_facts`` through the token parser, which reads any text."""
    facts: set[Atom] = set()

    def fact(p: _Parser, token: tuple) -> None:
        if token[0] == ANNOT:
            raise p.error(token, "annotations are not allowed in fact files")
        variables = p.variables
        atom = _parse_atom(p)
        p.expect(".", "after fact")
        if p.variables != variables:
            p.error(token, "facts must be ground")
        else:
            facts.add(atom)

    _Parser(source).statements(fact)
    return _record(FactBase, frozenset(facts))


def parse_atom(source: str) -> Atom:
    """Parse a single atom, e.g. a query; the whole input must be consumed."""
    p = _Parser(source)
    try:
        atom = _parse_atom(p)
    except _Abort:
        raise p.failure() from None
    if p.tokens[p.pos][0] != EOF:
        p.error(p.tokens[p.pos], "unexpected input after atom")
    if p.errors:
        raise p.failure()
    return atom


class PrologClause(Record):
    """One source clause, with negated body literals split out."""

    __slots__ = _fields = ("head", "positive_body", "negated_body")

    def __init__(self, head: Atom, positive_body: tuple[Atom, ...] = (),
                 negated_body: tuple[Atom, ...] = ()) -> None:
        self._init(head, tuple(positive_body), tuple(negated_body))


_SKIPPED = {":-": "directive", "?-": "query"}


def parse_prolog_subset(source: str) -> tuple[list[PrologClause], list[str]]:
    """Parse dialect source into clauses plus skip warnings.

    Raises ParseFailure on constructs outside the subset, naming each
    offending construct with its position, among them a clause headed by
    ``exception``, whose rule would parse back as an exception declaration.
    """
    clauses: list[PrologClause] = []
    warnings: list[str] = []

    def clause(p: _Parser, token: tuple) -> None:
        kind = token[0]
        if kind == ANNOT:
            raise p.error(token, "annotations belong to PROLEG, not the Prolog subset")
        if kind in _SKIPPED:
            warnings.append(f"skipped {_SKIPPED[kind]} at line {p.position(token[2])[0]}")
            raise _Abort()
        head = _parse_atom(p)
        if head.predicate == "exception":  # it would serialize as a declaration
            raise p.error(token, "'exception' is reserved for PROLEG exception declarations, "
                                 "so it cannot head a clause")
        body: list[tuple[bool, Atom]] = []
        if p.tokens[p.pos][0] == ":-":
            p.pos += 1
            body = _comma_separated(p, _parse_literal)
            if p.tokens[p.pos][0] == ";":
                raise p.error(p.tokens[p.pos], "disjunction ';' is outside the supported subset")
        p.expect(".", "after clause")
        clauses.append(PrologClause(head, tuple(atom for negated, atom in body if not negated),
                                    tuple(atom for negated, atom in body if negated)))

    _Parser(source).statements(clause)
    return clauses, warnings


def _parse_literal(p: _Parser) -> tuple[bool, Atom]:
    """Whether the literal is negated, and its atom."""
    token = p.tokens[p.pos]
    if token[0] == "!":
        raise p.error(token, "cut '!' is outside the supported subset")
    if token[0] == ";":
        raise p.error(token, "disjunction ';' is outside the supported subset")
    if token[0] != "\\+":
        return False, _parse_atom(p)
    p.pos += 1
    inner = p.tokens[p.pos]
    if inner[0] == "\\+":
        raise p.error(inner, "nested negation is outside the supported subset")
    if inner[0] == "(":
        p.pos += 1
        if p.tokens[p.pos][0] == "\\+":
            raise p.error(p.tokens[p.pos], "nested negation is outside the supported subset")
        raise p.error(inner, "parenthesized negation bodies are outside the supported subset")
    return True, _parse_atom(p)


def serialize(program: Program) -> str:
    """Emit canonical text: one statement per line, annotations ahead of
    their statement, comments dropped. Parsing the output reproduces a
    structurally equal Program.

    ``#id`` lines appear only where a rule's id differs from the
    position-derived default.
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
