"""Answer checks, kept outside every timed region.

Traces are walked with explicit stacks, never by recursion, so a deep
trace cannot make the checks fail where the program itself did not.
"""

from __future__ import annotations

from proleg import (
    Atom,
    Constant,
    ExceptionDecl,
    FactBase,
    Outcome,
    Program,
    Rule,
    Substitution,
    apply,
    holds_all,
    parse_atom,
    parse_facts,
    trace_from_json,
)
from proleg.gdpr import TraceFragment, fragment_matches


def shape(root) -> tuple[int, int]:
    """(node count, depth) of a trace; the root alone has depth 1."""
    nodes, deepest = 0, 0
    stack = [(root, 1)]
    while stack:
        node, depth = stack.pop()
        nodes += 1
        deepest = max(deepest, depth)
        stack.extend((child, depth + 1) for _, child in node.children)
    return nodes, deepest


def same_tree(a, b) -> bool:
    """``a == b`` for traces, compared node by node without recursion."""
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        if (x.goal, x.outcome, x.via, x.defeated, x.note) != (
            y.goal, y.outcome, y.via, y.defeated, y.note
        ) or len(x.children) != len(y.children):
            return False
        for (kx, cx), (ky, cy) in zip(x.children, y.children):
            if kx is not ky:
                return False
            stack.append((cx, cy))
    return True


def program_shape(program: Program) -> tuple:
    """Rules and exceptions without source notes, for comparing programs."""
    return (
        [(r.id, r.head, r.body) for r in program.rules],
        [(d.head, d.exception) for d in program.exceptions],
    )


def _ground(atom: Atom, subst: Substitution) -> Atom:
    return Atom(atom.predicate, tuple(apply(subst, term) for term in atom.args))


def expect_by_holds_all(program: Program, facts_text: str, queries: list[dict]) -> None:
    """Fill each query's ``expected`` from ``holds_all`` on the program
    grounded for the query's subject. The program must be unary in one
    variable per statement, as the converted rule base is."""
    facts = parse_facts(facts_text).facts
    verdicts: dict[str, frozenset] = {}
    for query in queries:
        goal = parse_atom(query["query"])
        subject = str(goal.args[0])
        if subject not in verdicts:
            bind = Substitution({"X": Constant(subject)})
            grounded = Program(
                tuple(Rule(r.id, _ground(r.head, bind), tuple(_ground(a, bind) for a in r.body))
                      for r in program.rules),
                tuple(ExceptionDecl(_ground(d.head, bind), _ground(d.exception, bind))
                      for d in program.exceptions),
            )
            own = FactBase(frozenset(f for f in facts if f.args == goal.args))
            verdicts[subject] = holds_all(grounded, own)
        query["expected"] = "o" if goal in verdicts[subject] else "x"


class Checker:
    """Checks one query's outcome and trace against its expected answer."""

    def __init__(self, queries: list[dict]):
        self.fragments = {
            q["query"]: [
                TraceFragment(parse_atom(f["goal"]), Outcome(f["outcome"]), f["edge"])
                for f in q.get("fragments", ())
            ]
            for q in queries
        }

    def problem(self, query: dict, outcome, trace, json_text: str) -> str | None:
        """None when the answer is right, else what is wrong with it."""
        if outcome.glyph != query["expected"]:
            return f"verdict {outcome.glyph}, expected {query['expected']}"
        if "root" in query and str(trace.goal) != query["root"]:
            return f"root {trace.goal}, expected {query['root']}"
        if "nodes" in query and shape(trace) != (query["nodes"], query["depth"]):
            return f"trace shape {shape(trace)}, expected {(query['nodes'], query['depth'])}"
        for fragment in self.fragments[query["query"]]:
            if not fragment_matches(trace, fragment):
                return f"trace lacks fragment {fragment}"
        if not same_tree(trace_from_json(json_text), trace):
            return "trace_from_json(render_json(t)) != t"
        return None
