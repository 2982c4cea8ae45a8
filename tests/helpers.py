"""Shared test utilities: independent oracles and random generators.

The oracles here deliberately re-derive results from first principles
(naive rewriting, enumeration, a standalone negation-as-failure
fixpoint, a standalone DOT grammar checker) so the tested code paths
never verify themselves.
"""

from __future__ import annotations

import os
import pickle
import random
import subprocess
import sys
from itertools import product
from pathlib import Path
from typing import Iterable, Optional

from proleg.ast import (
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
    canonical_atom,
    escape_text,
)
from proleg.convert import PrologClause
from proleg.trace import (FAILURE_NODE_COLOR, SUCCESS_NODE_COLOR, TRACE_VERSION, EdgeKind,
                          Outcome, TraceNode, iter_nodes)

# ----------------------------------------------------------------------
# Substitution oracles.


def naive_substitute_once(bindings: dict[str, Term], term: Term) -> Term:
    """One parallel rewrite pass; no dereferencing."""
    if isinstance(term, Variable):
        return bindings.get(term.name, term)
    if isinstance(term, Compound):
        return Compound(term.functor, tuple(naive_substitute_once(bindings, a) for a in term.args))
    return term


def naive_apply_fixpoint(bindings: dict[str, Term], term: Term, limit: int = 200) -> Term:
    """Rewrite until nothing changes; diverges only on cyclic bindings."""
    current = term
    for _ in range(limit):
        nxt = naive_substitute_once(bindings, current)
        if nxt == current:
            return current
        current = nxt
    raise AssertionError("naive rewrite did not reach a fixpoint")


def term_variables(term: Term) -> list[str]:
    if isinstance(term, Variable):
        return [term.name]
    if isinstance(term, Compound):
        names: list[str] = []
        for arg in term.args:
            for name in term_variables(arg):
                if name not in names:
                    names.append(name)
        return names
    return []


def term_variables_of_atom(atom: Atom) -> list[str]:
    names: list[str] = []
    for arg in atom.args:
        for name in term_variables(arg):
            if name not in names:
                names.append(name)
    return names


def reference_canonical(atom: Atom) -> Atom:
    """The atom with its variables renamed to ``_G0, _G1, ...`` in order of
    first occurrence, by one parallel rewrite through the constructors."""
    names = {name: Variable(f"_G{i}") for i, name in enumerate(term_variables_of_atom(atom))}
    return Atom(atom.predicate, tuple(naive_substitute_once(names, arg) for arg in atom.args))


def brute_force_unifiable(a: Term, b: Term, constants: Iterable[str]) -> bool:
    """Search all variable-to-constant assignments for a syntactic match."""
    names: list[str] = []
    for name in term_variables(a) + term_variables(b):
        if name not in names:
            names.append(name)
    pool = [Constant(c) for c in constants]
    for assignment in product(pool, repeat=len(names)):
        bindings = dict(zip(names, assignment))
        left = naive_apply_fixpoint(bindings, a)
        right = naive_apply_fixpoint(bindings, b)
        if left == right:
            return True
    return False


# ----------------------------------------------------------------------
# Random ground programs, stratified by construction: each predicate
# gets a level; rule bodies only mention same-or-lower levels, exception
# targets strictly lower ones. Any cycle then stays inside one level and
# cannot cross an exception edge.


def random_ground_program(
    rng: random.Random,
    max_preds: int = 12,
    max_rules: int = 20,
    max_exceptions: int = 6,
    arguments: tuple[Term, ...] = (Constant("c1"), Constant("c2")),
) -> tuple[Program, FactBase, list[Atom]]:
    """A program, its facts and its atom universe. About a third of the
    predicates are unary, with one atom per term of ``arguments``."""
    n_preds = rng.randint(2, max_preds)
    levels: dict[str, int] = {}
    universe: list[Atom] = []
    for i in range(n_preds):
        name = f"p{i}"
        levels[name] = rng.randint(0, 3)
        if rng.random() < 0.3:
            universe.extend(Atom(name, (term,)) for term in arguments)
        else:
            universe.append(Atom(name))
    rules = []
    for k in range(rng.randint(0, max_rules)):
        head = rng.choice(universe)
        candidates = [a for a in universe if levels[a.predicate] <= levels[head.predicate]]
        body = tuple(rng.choice(candidates) for _ in range(rng.randint(0, 3)))
        rules.append(Rule(f"r{k + 1}", head, body))
    exceptions = []
    lower_pairs = [
        (h, e)
        for h in universe
        for e in universe
        if levels[e.predicate] < levels[h.predicate]
    ]
    if lower_pairs:
        for _ in range(rng.randint(0, max_exceptions)):
            head, exc = rng.choice(lower_pairs)
            exceptions.append(ExceptionDecl(head, exc))
    # Uniform over subsets of the atom universe.
    facts = FactBase(frozenset(a for a in universe if rng.random() < 0.5))
    return Program(tuple(rules), tuple(exceptions)), facts, universe


_NONGROUND_VARS = ("X", "Y", "Z")


def _random_pattern(rng: random.Random, name: str, arity: int, constants: list[str],
                    variables: tuple[str, ...]) -> Atom:
    args = tuple(
        Constant(rng.choice(constants)) if rng.random() < 0.25 else Variable(rng.choice(variables))
        for _ in range(arity)
    )
    return Atom(name, args)


def random_nonground_program(
    rng: random.Random,
    max_preds: int = 6,
    max_rules: int = 8,
    max_exceptions: int = 4,
) -> tuple[Program, FactBase, list[str], list[Atom]]:
    """A range-restricted program with variables over 2-3 constants.

    Stratified by construction as in random_ground_program. Returns the
    program, its facts, the constants and every ground atom of its
    predicates over them.
    """
    constants = [f"c{i}" for i in range(1, rng.randint(2, 3) + 1)]
    n_preds = rng.randint(2, max_preds)
    arity = {f"p{i}": rng.randint(0, 2) for i in range(n_preds)}
    levels = {name: rng.randint(0, 3) for name in arity}
    universe = [
        Atom(name, tuple(Constant(c) for c in args))
        for name in arity
        for args in product(constants, repeat=arity[name])
    ]
    rules = []
    for k in range(rng.randint(0, max_rules)):
        name = rng.choice(list(arity))
        head = _random_pattern(rng, name, arity[name], constants, _NONGROUND_VARS)
        lower = [p for p in arity if levels[p] <= levels[name]]
        body = tuple(
            _random_pattern(rng, p, arity[p], constants, _NONGROUND_VARS)
            for p in (rng.choice(lower) for _ in range(rng.randint(0, 3)))
        )
        # Range restriction: a head variable the body never binds becomes a constant.
        bound = {v for atom in body for v in term_variables_of_atom(atom)}
        head = Atom(name, tuple(
            Constant(rng.choice(constants))
            if isinstance(arg, Variable) and arg.name not in bound else arg
            for arg in head.args
        ))
        rules.append(Rule(f"r{k + 1}", head, body))
    exceptions = []
    for _ in range(rng.randint(0, max_exceptions)):
        name = rng.choice(list(arity))
        lower = [p for p in arity if levels[p] < levels[name]]
        if not lower:
            continue
        target = rng.choice(lower)
        exceptions.append(ExceptionDecl(
            _random_pattern(rng, name, arity[name], constants, _NONGROUND_VARS[:2]),
            _random_pattern(rng, target, arity[target], constants, _NONGROUND_VARS),
        ))
    facts = FactBase(frozenset(a for a in universe if rng.random() < 0.3))
    return Program(tuple(rules), tuple(exceptions)), facts, constants, universe


def ground_over(program: Program, constants: list[str]) -> Program:
    """Every ground instance of every rule and exception over the constants.

    Variables of an exception that its head does not mention are
    existential, so one ground declaration per assignment expresses them.
    """

    def instances(atoms: tuple[Atom, ...]) -> Iterable[tuple[Atom, ...]]:
        names: list[str] = []
        for atom in atoms:
            for name in term_variables_of_atom(atom):
                if name not in names:
                    names.append(name)
        for values in product(constants, repeat=len(names)):
            bindings = {n: Constant(v) for n, v in zip(names, values)}
            yield tuple(
                Atom(a.predicate, tuple(naive_apply_fixpoint(bindings, t) for t in a.args))
                for a in atoms
            )

    rules = []
    for rule in program.rules:
        for index, (head, *body) in enumerate(instances((rule.head,) + rule.body)):
            rules.append(Rule(f"{rule.id}_{index}", head, tuple(body)))
    exceptions = [
        ExceptionDecl(head, exc)
        for decl in program.exceptions
        for head, exc in instances((decl.head, decl.exception))
    ]
    return Program(tuple(rules), tuple(exceptions))


# ``_G0`` is also the first name ``canonical_atom`` gives, so a clause that
# holds it meets goals written in the canonical names.
_COMPOUND_VARS = ("X", "Y", "_G0")


def _random_nested(rng: random.Random, constants: list[str], variables: tuple[str, ...],
                   depth: int = 0) -> Term:
    """A constant, one of ``variables`` or, above depth 2, an ``f/1`` or ``g/2`` term."""
    roll = rng.random()
    if depth < 2 and roll < 0.3:
        arity = 1 if roll < 0.15 else 2
        return Compound("fg"[arity - 1], tuple(
            _random_nested(rng, constants, variables, depth + 1) for _ in range(arity)))
    if variables and roll < 0.7:
        return Variable(rng.choice(variables))
    return Constant(rng.choice(constants))


def random_compound_program(
    rng: random.Random,
    max_preds: int = 5,
    max_rules: int = 7,
    max_exceptions: int = 3,
) -> tuple[Program, FactBase, list[str], dict[str, int]]:
    """A program whose rule heads and bodies, exception declarations and
    facts hold ``f/1`` and ``g/2`` terms nested at most 2 deep, over two
    constants and the variables ``X``, ``Y`` and ``_G0``.

    Stratified by construction as in random_ground_program. Nothing is
    range-restricted: a body may hold a variable its head lacks, a head
    one its body lacks, and an exception one its head lacks. Returns the
    program, its facts, the constants and each predicate's arity.
    """
    constants = ["c1", "c2"]
    arity = {f"p{i}": rng.randint(0, 2) for i in range(rng.randint(2, max_preds))}
    levels = {name: rng.randint(0, 3) for name in arity}

    def atom(name: str, variables: tuple[str, ...] = _COMPOUND_VARS) -> Atom:
        return Atom(name, tuple(_random_nested(rng, constants, variables)
                                for _ in range(arity[name])))

    rules = []
    for k in range(rng.randint(1, max_rules)):
        name = rng.choice(list(arity))
        lower = [p for p in arity if levels[p] <= levels[name]]
        body = tuple(atom(rng.choice(lower)) for _ in range(rng.randint(0, 2)))
        rules.append(Rule(f"r{k + 1}", atom(name), body))
    exceptions = []
    for _ in range(rng.randint(0, max_exceptions)):
        name = rng.choice(list(arity))
        lower = [p for p in arity if levels[p] < levels[name]]
        if lower:
            exceptions.append(ExceptionDecl(atom(name), atom(rng.choice(lower))))
    facts = FactBase(frozenset(atom(rng.choice(list(arity)), ())
                               for _ in range(rng.randint(0, 8))))
    return Program(tuple(rules), tuple(exceptions)), facts, constants, arity


def random_prolog_program(
    rng: random.Random,
    max_preds: int = 10,
    max_clauses: int = 15,
    max_negated: int = 4,
) -> tuple[list[PrologClause], list[Atom]]:
    """Ground, stratified clauses in the supported dialect."""
    n_preds = rng.randint(2, max_preds)
    levels: dict[str, int] = {}
    universe: list[Atom] = []
    for i in range(n_preds):
        name = f"q{i}"
        levels[name] = rng.randint(0, 3)
        if rng.random() < 0.3:
            universe.extend(Atom(name, (Constant(c),)) for c in ("c1", "c2"))
        else:
            universe.append(Atom(name))
    clauses: list[PrologClause] = []
    negation_budget = max_negated
    for _ in range(rng.randint(1, max_clauses)):
        head = rng.choice(universe)
        level = levels[head.predicate]
        positives = [a for a in universe if levels[a.predicate] <= level]
        negatives = [a for a in universe if levels[a.predicate] < level]
        pos = tuple(rng.choice(positives) for _ in range(rng.randint(0, 3)))
        neg: tuple[Atom, ...] = ()
        if negatives and negation_budget > 0:
            count = rng.randint(0, min(2, negation_budget))
            neg = tuple(rng.choice(negatives) for _ in range(count))
            negation_budget -= len(neg)
        clauses.append(PrologClause(head, pos, neg))
    # A few plain facts so something is derivable.
    for _ in range(rng.randint(0, 4)):
        clauses.append(PrologClause(rng.choice(universe)))
    return clauses, universe


def naf_fixpoint(clauses: list[PrologClause]) -> frozenset[Atom]:
    """Stratified negation-as-failure model of ground clauses.

    Levels are recomputed here from scratch (iterative relaxation), so
    this oracle shares nothing with the converter or the engine.
    """
    preds = {c.head.predicate for c in clauses}
    for clause in clauses:
        for atom in clause.positive_body + clause.negated_body:
            preds.add(atom.predicate)
    level = {p: 0 for p in preds}
    for _ in range(len(preds) + 2):
        changed = False
        for clause in clauses:
            head = clause.head.predicate
            for atom in clause.positive_body:
                if level[head] < level[atom.predicate]:
                    level[head] = level[atom.predicate]
                    changed = True
            for atom in clause.negated_body:
                if level[head] < level[atom.predicate] + 1:
                    level[head] = level[atom.predicate] + 1
                    changed = True
        if not changed:
            break
    else:
        raise AssertionError("clauses are not stratified")
    true: set[Atom] = set()
    for current in range(max(level.values()) + 1):
        layer = [c for c in clauses if level[c.head.predicate] == current]
        changed = True
        while changed:
            changed = False
            for clause in layer:
                if clause.head in true:
                    continue
                if all(b in true for b in clause.positive_body) and not any(
                    g in true for g in clause.negated_body
                ):
                    true.add(clause.head)
                    changed = True
    return frozenset(true)


# ----------------------------------------------------------------------
# Stratification oracle over predicate keys: reachability and least
# strata by relaxation, sharing no code with engine.stratify.


def random_dependency_program(rng: random.Random, max_preds: int = 8) -> Program:
    """Random rules and exception declarations over a few predicates of
    arity 0 or 1; about half the programs do not stratify."""
    keys = [(f"p{i}", rng.randint(0, 1)) for i in range(rng.randint(1, max_preds))]

    def atom() -> Atom:
        name, arity = rng.choice(keys)
        return Atom(name, (Variable("X"),) * arity)

    rules = tuple(
        Rule(f"r{k + 1}", atom(), tuple(atom() for _ in range(rng.randint(0, 3))))
        for k in range(rng.randint(0, 2 * len(keys)))
    )
    exceptions = tuple(ExceptionDecl(atom(), atom()) for _ in range(rng.randint(0, 3)))
    return Program(rules, exceptions)


def dependency_edges(program: Program) -> tuple[set, set]:
    """The (head, dependency) key pairs of rule bodies and of exceptions."""
    positive = {(r.head.key, a.key) for r in program.rules for a in r.body}
    negative = {(d.head.key, d.exception.key) for d in program.exceptions}
    return positive, negative


def shortest_path_length(edges: set, source, target) -> Optional[int]:
    """Edges on a shortest path from source to target, or None."""
    frontier, seen, length = {source}, {source}, 0
    while frontier:
        if target in frontier:
            return length
        frontier = {d for h, d in edges if h in frontier} - seen
        seen |= frontier
        length += 1
    return None


def reference_strata(program: Program) -> list[frozenset]:
    """The least strata: s[h] >= s[d] for a rule edge and s[h] >= s[d] + 1
    for an exception edge. Only meaningful for stratified programs."""
    positive, negative = dependency_edges(program)
    level = {key: 0 for edge in positive | negative for key in edge}
    level.update({r.head.key: 0 for r in program.rules})
    for _ in range(len(level) + 1):
        changed = False
        for edges, weight in ((positive, 0), (negative, 1)):
            for head, dep in edges:
                if level[head] < level[dep] + weight:
                    level[head] = level[dep] + weight
                    changed = True
        if not changed:
            break
    else:
        raise AssertionError("program is not stratified")
    if not level:
        return []
    return [
        frozenset(k for k, v in level.items() if v == n) for n in range(max(level.values()) + 1)
    ]


def reference_cycle(program: Program) -> Optional[tuple[tuple, int]]:
    """For the first exception declaration, in program order, whose
    exception reaches its head: ((head, exception) keys, length of the
    shortest cycle through that edge). None when the program stratifies."""
    positive, negative = dependency_edges(program)
    edges = positive | negative
    for decl in program.exceptions:
        pair = (decl.head.key, decl.exception.key)
        back = shortest_path_length(edges, pair[1], pair[0])
        if back is not None:
            return pair, back + 1
    return None


def ground_with(program: Program, constant: str = "case1") -> Program:
    """Instantiate every variable with one constant (exact for rule bases
    whose only terms are that case constant)."""
    c = Constant(constant)

    def g_term(term: Term) -> Term:
        if isinstance(term, Variable):
            return c
        if isinstance(term, Compound):
            return Compound(term.functor, tuple(g_term(a) for a in term.args))
        return term

    def g_atom(atom: Atom) -> Atom:
        return Atom(atom.predicate, tuple(g_term(a) for a in atom.args))

    rules = tuple(
        Rule(r.id, g_atom(r.head), tuple(g_atom(b) for b in r.body)) for r in program.rules
    )
    exceptions = tuple(
        ExceptionDecl(g_atom(d.head), g_atom(d.exception)) for d in program.exceptions
    )
    return Program(rules, exceptions)


# ----------------------------------------------------------------------
# Reachability over a ring with seeded chords. Almost every ground
# failure of `path(n0, zz)` meets a loop prune against an older
# ancestor, so it is searched again in every context: the query's step
# count measures the loop check's work.

PATH_RULES = "path(X, Y) <= edge(X, Y).\npath(X, Y) <= edge(X, Z), path(Z, Y).\n"


def path_ring_facts(n: int) -> str:
    """The edges n<i> -> n<i+1 mod n> of an n-node ring, then n chords
    n<a> -> n<b>, drawing a and then b from one ``random.Random(1)``."""
    rng = random.Random(1)
    edges = [(i, (i + 1) % n) for i in range(n)]
    edges += [(rng.randrange(n), rng.randrange(n)) for _ in range(n)]
    return "".join(f"edge(n{a}, n{b}).\n" for a, b in edges)


# ----------------------------------------------------------------------
# Random syntactically-rich programs for parser round-trips.

_TEXT_CHARS = list(" abcxyz\"\\\n\t%().,<=#éß")


def _random_term(rng: random.Random, depth: int) -> Term:
    roll = rng.random()
    if depth <= 0 or roll < 0.45:
        kind = rng.randrange(4)
        if kind == 0:
            return Constant(f"c{rng.randint(0, 30)}")
        if kind == 1:
            return Variable(rng.choice(["X", "Y", "Zz", "_Tmp"]) + str(rng.randint(0, 9)))
        if kind == 2:
            return Integer(rng.randint(-999, 999))
        return Text("".join(rng.choice(_TEXT_CHARS) for _ in range(rng.randint(0, 6))))
    args = tuple(_random_term(rng, depth - 1) for _ in range(rng.randint(1, 3)))
    return Compound(f"f{rng.randint(0, 9)}", args)


def _random_atom(rng: random.Random) -> Atom:
    args = tuple(_random_term(rng, 2) for _ in range(rng.randint(0, 3)))
    return Atom(f"pred{rng.randint(0, 20)}", args)


def random_source_program(rng: random.Random) -> Program:
    rules = []
    for k in range(rng.randint(0, 8)):
        rule_id = f"r{k + 1}" if rng.random() < 0.8 else f"custom{k + 1}"
        source = None
        if rng.random() < 0.4:
            source = SourceRef("".join(rng.choice(_TEXT_CHARS) for _ in range(rng.randint(1, 10))))
        body = tuple(_random_atom(rng) for _ in range(rng.randint(0, 3)))
        rules.append(Rule(rule_id, _random_atom(rng), body, source=source))
    exceptions = []
    for _ in range(rng.randint(0, 3)):
        source = SourceRef("cite") if rng.random() < 0.3 else None
        exceptions.append(ExceptionDecl(_random_atom(rng), _random_atom(rng), source=source))
    return Program(tuple(rules), tuple(exceptions))


# ----------------------------------------------------------------------
# Independent DOT syntax checker (tokenizer plus a small recursive
# parser for the digraph subset, with node-declaration bookkeeping).


class DotSyntaxError(AssertionError):
    pass


def _dot_tokens(text: str) -> list[tuple[str, str]]:
    tokens: list[tuple[str, str]] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch == '"':
            j = i + 1
            while j < n:
                if text[j] == "\\":
                    j += 2
                    continue
                if text[j] == '"':
                    break
                j += 1
            if j >= n:
                raise DotSyntaxError("unterminated quoted string")
            tokens.append(("string", text[i + 1 : j]))
            i = j + 1
            continue
        if text.startswith("->", i):
            tokens.append(("arrow", "->"))
            i += 2
            continue
        if ch in "{}[]=;,":
            tokens.append((ch, ch))
            i += 1
            continue
        if ch.isalnum() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("id", text[i:j]))
            i = j
            continue
        raise DotSyntaxError(f"unexpected character {ch!r} in DOT output")
    return tokens


def validate_dot(text: str) -> None:
    """Raise DotSyntaxError unless the text is a well-formed digraph."""
    tokens = _dot_tokens(text)
    pos = 0

    def peek() -> tuple[str, str]:
        return tokens[pos] if pos < len(tokens) else ("eof", "")

    def take(kind: str) -> tuple[str, str]:
        nonlocal pos
        tok = peek()
        if tok[0] != kind:
            raise DotSyntaxError(f"expected {kind}, found {tok}")
        pos += 1
        return tok

    def attr_list() -> None:
        take("[")
        while peek()[0] != "]":
            take("id")
            take("=")
            if peek()[0] in ("id", "string"):
                nonlocal_pos_advance()
            else:
                raise DotSyntaxError(f"bad attribute value: {peek()}")
            if peek()[0] == ",":
                take(",")
        take("]")

    def nonlocal_pos_advance() -> None:
        nonlocal pos
        pos += 1

    kind, value = take("id")
    if value != "digraph":
        raise DotSyntaxError("output must start with 'digraph'")
    if peek()[0] == "id":
        take("id")
    take("{")
    declared: set[str] = set()
    edges: list[tuple[str, str]] = []
    while peek()[0] != "}":
        tok = peek()
        if tok[0] not in ("id", "string"):
            raise DotSyntaxError(f"expected a statement, found {tok}")
        nonlocal_pos_advance()
        name = tok[1]
        if name in ("node", "edge", "graph") and peek()[0] == "[":
            attr_list()
        elif peek()[0] == "arrow":
            take("arrow")
            target = peek()
            if target[0] not in ("id", "string"):
                raise DotSyntaxError(f"bad edge target: {target}")
            nonlocal_pos_advance()
            if peek()[0] == "[":
                attr_list()
            edges.append((name, target[1]))
        else:
            declared.add(name)
            if peek()[0] == "[":
                attr_list()
        if peek()[0] == ";":
            take(";")
    take("}")
    if peek()[0] != "eof":
        raise DotSyntaxError(f"trailing content after '}}': {peek()}")
    for source, target in edges:
        if source not in declared or target not in declared:
            raise DotSyntaxError(f"edge references undeclared node: {source} -> {target}")


# ----------------------------------------------------------------------
# Trace invariants.


def assert_trace_invariants(root: TraceNode) -> None:
    for node, _edge in iter_nodes(root):
        # Every goal is shown canonically, so no internal name can leak.
        assert node.goal == canonical_atom(node.goal), f"goal not canonical: {node.goal}"
        assert node.outcome.glyph in ("o", "x")
        cond = [c for k, c in node.children if k is EdgeKind.CONDITION]
        exc = [c for k, c in node.children if k is EdgeKind.EXCEPTION]
        if node.defeated:
            assert node.outcome is Outcome.FAILURE, f"defeated success at {node.goal}"
            assert any(c.outcome is Outcome.SUCCESS for c in exc), (
                f"defeated node without a successful exception child: {node.goal}"
            )
        if node.via == "fact":
            assert node.children == ()
            assert node.outcome is Outcome.SUCCESS
        if node.outcome is Outcome.SUCCESS and node.via not in (None, "fact"):
            assert all(c.outcome is Outcome.SUCCESS for c in cond), (
                f"success node with failing condition: {node.goal}"
            )
            assert not any(c.outcome is Outcome.SUCCESS for c in exc), (
                f"success node with successful exception: {node.goal}"
            )
        if node.outcome is Outcome.FAILURE and node.children:
            if cond and all(c.outcome is Outcome.SUCCESS for c in cond):
                assert any(c.outcome is Outcome.SUCCESS for c in exc), (
                    f"failure with all conditions succeeding needs a defeat: {node.goal}"
                )


def assert_no_circular_proof(root: TraceNode) -> None:
    """No success node is justified by a success node for its own goal.

    Holds for ground programs, where every goal a trace shows is ground:
    the conditions under a success are its proof, so meeting the same
    goal proven again among them would be a circular justification.
    """
    for node, _edge in iter_nodes(root):
        if node.outcome is not Outcome.SUCCESS:
            continue
        stack = [c for k, c in node.children if k is EdgeKind.CONDITION]
        while stack:
            child = stack.pop()
            assert not (child.outcome is Outcome.SUCCESS and child.goal == node.goal), (
                f"{node.goal} is justified by itself"
            )
            stack.extend(c for k, c in child.children if k is EdgeKind.CONDITION)


# ----------------------------------------------------------------------
# Trace JSON reference and random trace trees.


def reference_trace_obj(root: TraceNode) -> dict:
    """The object render_json serialises, built by plain recursion;
    ``json.dumps(reference_trace_obj(t))`` is the reference rendering.
    Rows come in post-order, arguments and children first and left to
    right; equal terms share a row, and so does each node object."""
    terms: list[list] = []
    term_ids: dict[Term, int] = {}
    nodes: list[list] = []
    node_ids: dict[int, int] = {}

    def term_id(term: Term) -> int:
        if term not in term_ids:
            if isinstance(term, Compound):
                row = ["f", term.functor] + [term_id(arg) for arg in term.args]
            elif isinstance(term, (Constant, Variable)):
                row = ["c" if isinstance(term, Constant) else "v", term.name]
            else:
                row = ["i" if isinstance(term, Integer) else "t", term.value]
            term_ids[term] = len(terms)
            terms.append(row)
        return term_ids[term]

    def node_id(node: TraceNode) -> int:
        if id(node) not in node_ids:
            children = [[kind.value, node_id(child)] for kind, child in node.children]
            args = [term_id(arg) for arg in node.goal.args]
            node_ids[id(node)] = len(nodes)
            nodes.append([node.goal.predicate, args, node.outcome.glyph, node.via,
                          node.defeated, node.note, children])
        return node_ids[id(node)]

    root_id = node_id(root)
    return {"trace_version": TRACE_VERSION, "terms": terms, "nodes": nodes, "root": root_id}


# Reference text and DOT renderers that unfold a trace into its tree and
# write a shared node in full at every occurrence. On a trace with no
# shared node, render_text and render_dot must write exactly these bytes.


def tree_text(root: TraceNode) -> str:
    lines: list[str] = []
    stack: list[tuple[TraceNode, Optional[EdgeKind], int]] = [(root, None, 0)]
    while stack:
        node, edge, depth = stack.pop()
        prefix = "" if edge is None else "-> " if edge is EdgeKind.CONDITION else "~> "
        parts = [label for label in (node.via, node.note) if label is not None]
        if node.defeated:
            parts.append("defeated")
        annot = f" ({'; '.join(parts)})" if parts else ""
        lines.append(f"{'  ' * depth}{prefix}{node.goal} [{node.outcome.glyph}]{annot}\n")
        for kind, child in reversed(node.children):
            stack.append((child, kind, depth + 1))
    return "".join(lines)


def tree_dot(root: TraceNode) -> str:
    lines = ["digraph trace {\n", "  node [shape=box];\n"]
    # A node with its parent's id and incoming edge kind, or an edge line
    # to emit once the subtree above it is done.
    stack: list = [(root, None, None)]
    counter = 0
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            lines.append(item)
            continue
        node, parent_id, kind = item
        node_id = f"n{counter}"
        counter += 1
        color = SUCCESS_NODE_COLOR if node.outcome is Outcome.SUCCESS else FAILURE_NODE_COLOR
        lines.append(f'  {node_id} [label="{escape_text(str(node.goal))}\\n{node.outcome.glyph}", '
                     f'color="{color}"];\n')
        if parent_id is not None:
            style = "solid" if kind is EdgeKind.CONDITION else "dotted"
            stack.append(f"  {parent_id} -> {node_id} [style={style}];\n")
        for kind, child in reversed(node.children):
            stack.append((child, node_id, kind))
    lines.append("}\n")
    return "".join(lines)


def _random_label(rng: random.Random) -> Optional[str]:
    roll = rng.random()
    if roll < 0.4:
        return None
    if roll < 0.7:
        return rng.choice(["fact", "r1", "r12", "loop detected", "no rule matched"])
    return "".join(rng.choice(_TEXT_CHARS + ["\x01", "\u2028", "\x7f", "\U0001f600"])
                   for _ in range(rng.randint(0, 8)))


def random_trace(rng: random.Random, depth: int = 4,
                 built: Optional[list[TraceNode]] = None) -> TraceNode:
    """A trace tree of arbitrary shape: goals may hold Text terms with
    quotes, backslashes, newlines and non-ASCII characters, ``via`` and
    ``note`` may be None or any string, nodes may be leaves or have
    several children, and a child may be a node object already used
    elsewhere in the tree, as a memo-shared subtree is. A goal argument
    may be an argument object of a goal built before, as the engine's
    goals share terms no binding changed, or a copy of one that is equal
    but a separate object. It need not satisfy the engine's invariants."""
    built = [] if built is None else built
    children = ()
    if depth > 0 and rng.random() < 0.7:
        children = tuple(
            (rng.choice(list(EdgeKind)),
             rng.choice(built) if built and rng.random() < 0.2
             else random_trace(rng, depth - 1, built))
            for _ in range(rng.randint(1, 3))
        )
    goal = _random_atom(rng)
    earlier = [arg for node in built for arg in node.goal.args]
    if earlier and rng.random() < 0.5:
        args = [rng.choice(earlier) if rng.random() < 0.6 else arg for arg in goal.args]
        # pickle rebuilds a term through its constructors: equal, not the same.
        goal = Atom(goal.predicate, tuple(pickle.loads(pickle.dumps(arg))
                                          if rng.random() < 0.5 else arg for arg in args))
    node = TraceNode(
        goal,
        rng.choice(list(Outcome)),
        via=_random_label(rng),
        defeated=rng.random() < 0.3,
        children=children,
        note=_random_label(rng),
    )
    built.append(node)
    return node


def fresh_python_env(env: Optional[dict[str, str]] = None) -> dict[str, str]:
    """The inherited environment with ``env`` added or overriding, and
    this checkout's ``src`` first on ``PYTHONPATH``."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return dict(os.environ, **(env or {}), PYTHONPATH=os.pathsep.join(path))


def run_fresh_python(*args: str, env: Optional[dict[str, str]] = None
                     ) -> subprocess.CompletedProcess:
    """Run ``python ARGS`` in a new interpreter that imports proleg from
    this checkout's ``src``, so nothing earlier in the test process (such
    as a changed recursion limit) can affect it. ``env`` adds to
    or overrides the inherited environment, e.g. ``PYTHONHASHSEED``."""
    return subprocess.run([sys.executable, *args], env=fresh_python_env(env),
                          capture_output=True, text=True, timeout=120)


def first(iterable, default: Optional[object] = None):
    return next(iter(iterable), default)
