"""Conversion from a restricted Prolog dialect into PROLEG.

``parser.parse_prolog_subset`` reads the dialect: clauses
``h :- b1, ..., bn.`` and facts ``h.``, whose body literals may be
negated with ``\\+`` (negation as failure). Directives (``:- ...``)
and queries (``?- ...``) are skipped with a warning, since only the
rule base converts. Disjunction, cut, nested negation, and clause heads
named ``exception`` (a name PROLEG reserves for exception declarations)
are outside the subset and rejected.

Negated literals become exception declarations: ``h :- B, \\+ g``
turns into a rule for ``h`` plus an exception defeating ``h`` when
``g`` is proven. When one head predicate has clauses with differing
negation sets, each clause is routed through a synthesized auxiliary
head (``h__via_1``, ...). That keeps defeat scoped per clause, because
an exception declaration otherwise defeats every derivation of the
conclusion, not just the clause it came from.
"""

from __future__ import annotations

from .ast import Atom, ExceptionDecl, Program, Record, Rule, variables_of
from .engine import stratify
from .parser import PrologClause, parse_prolog_subset


class ConvertReport(Record):
    """What the conversion produced, for humans and for tests."""

    __slots__ = _fields = ("converted_rules", "generated_exceptions", "synthesized_predicates",
                           "warnings")

    def __init__(self, converted_rules: int, generated_exceptions: int,
                 synthesized_predicates: tuple[str, ...] = (),
                 warnings: tuple[str, ...] = ()) -> None:
        self._init(converted_rules, generated_exceptions, synthesized_predicates, warnings)


def _vocabulary(clauses: list[PrologClause]) -> set[tuple[str, int]]:
    keys: set[tuple[str, int]] = set()
    for clause in clauses:
        keys.add(clause.head.key)
        for atom in clause.positive_body + clause.negated_body:
            keys.add(atom.key)
    return keys


def to_proleg(clauses: list[PrologClause],
              extra_warnings: tuple[str, ...] = ()) -> tuple[Program, ConvertReport]:
    """Convert parsed clauses into a PROLEG Program plus a report.

    Raises Unstratified when the source's negation is cyclic (the check
    runs on the converted program, whose exception graph mirrors the
    source's negation graph).
    """
    vocabulary = _vocabulary(clauses)
    by_head: dict[tuple[str, int], list[PrologClause]] = {}
    for clause in clauses:
        by_head.setdefault(clause.head.key, []).append(clause)

    split_heads = {
        key: group
        for key, group in by_head.items()
        if len(group) > 1
        and len({frozenset(clause.negated_body) for clause in group}) > 1
    }

    rules: list[Rule] = []
    exceptions: list[ExceptionDecl] = []
    seen_exceptions: set[tuple[Atom, Atom]] = set()
    synthesized: list[str] = []
    taken_names = {name for name, _ in vocabulary}
    warnings = list(extra_warnings)

    def add_rule(head: Atom, body: tuple[Atom, ...]) -> None:
        rules.append(Rule(f"r{len(rules) + 1}", head, body))

    def add_exception(head: Atom, exc: Atom) -> None:
        if (head, exc) not in seen_exceptions:
            seen_exceptions.add((head, exc))
            exceptions.append(ExceptionDecl(head, exc))

    def check_negation_scope(clause: PrologClause) -> None:
        head_vars = set(variables_of(clause.head))
        for atom in clause.negated_body:
            loose = [v for v in variables_of(atom) if v not in head_vars]
            if loose:
                warnings.append(
                    f"negated literal {atom} uses variables not bound by the head "
                    f"of {clause.head}; the exception is checked against the "
                    "conclusion instance only"
                )

    clause_index: dict[tuple[str, int], int] = {}
    for clause in clauses:
        check_negation_scope(clause)
        key = clause.head.key
        if key in split_heads:
            clause_index[key] = clause_index.get(key, 0) + 1
            base = f"{clause.head.predicate}__via_{clause_index[key]}"
            name = base
            bump = 1
            while name in taken_names:
                bump += 1
                name = f"{base}_{bump}"
            taken_names.add(name)
            synthesized.append(f"{name}/{len(clause.head.args)}")
            aux = Atom(name, clause.head.args)
            add_rule(clause.head, (aux,))
            add_rule(aux, clause.positive_body)
            for negated in clause.negated_body:
                add_exception(aux, negated)
        else:
            add_rule(clause.head, clause.positive_body)
            for negated in clause.negated_body:
                add_exception(clause.head, negated)

    program = Program(tuple(rules), tuple(exceptions))
    stratify(program)
    report = ConvertReport(
        converted_rules=len(program.rules),
        generated_exceptions=len(program.exceptions),
        synthesized_predicates=tuple(synthesized),
        warnings=tuple(warnings),
    )
    return program, report


def convert_source(source: str) -> tuple[Program, ConvertReport]:
    """Parse and convert in one step, merging parse-time skip warnings."""
    clauses, warnings = parse_prolog_subset(source)
    return to_proleg(clauses, tuple(warnings))
