"""Query evaluation under rule-with-exception semantics.

A goal instance succeeds when it matches a case fact, or when some rule
(tried in program order, its variables renamed apart per use unless the
goal is ground) has a head unifying with the goal, every body atom
succeeds left to right under the accumulated substitution, and no
declared exception whose head unifies with the resolved goal instance
can itself be proven. An exception that succeeds defeats the conclusion
instance outright, for every rule deriving it.

Exception checking is negation as failure, so programs must stratify:
no dependency cycle may pass through an exception edge. ``stratify``
checks this and both evaluators require it.

Two evaluators are provided deliberately:

* ``solve``: backward chaining over a single goal, returning the
  outcome together with a full reasoning trace.
* ``holds_all``: a bottom-up stratum-by-stratum fixpoint over ground
  programs, returning every atom that holds. It shares no code with
  ``solve`` beyond the data model, so the two act as cross-checking
  routes to the same semantics.
"""

from __future__ import annotations

import sys
from collections import defaultdict, deque
from dataclasses import dataclass
from typing import Iterator, Optional

from .ast import (
    Atom,
    FactBase,
    PredicateKey,
    Program,
    Substitution,
    EMPTY_SUBSTITUTION,
    apply_atom,
    canonical_atom,
    indicator,
    rename_apart,
    unify_atoms,
    variables_of,
)
from .trace import EdgeKind, FACT_MARKER, Outcome, TraceNode

# Python stack frames per goal-nesting level: the goal's own frame plus
# one per body atom the body walk nests through (measured on chains), one
# spare, and never fewer than 8; plus slack for the caller's frames.
_MIN_FRAMES_PER_LEVEL = 8
_FRAME_SLACK = 512


@dataclass(frozen=True)
class EngineConfig:
    """Resource limits for one evaluation."""

    max_depth: int = 512
    max_steps: int = 100_000
    loop_check: bool = True

    def __post_init__(self) -> None:
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")


DEFAULT_CONFIG = EngineConfig()


class EngineError(Exception):
    """Base class for evaluation failures that are not plain goal failure."""


class Unstratified(EngineError):
    """The program has a dependency cycle through an exception edge."""

    def __init__(self, cycle: list[PredicateKey]):
        self.cycle = list(cycle)
        pretty = " -> ".join(indicator(k) for k in self.cycle + self.cycle[:1])
        super().__init__(f"exception dependencies form a cycle: {pretty}")


class DepthExceeded(EngineError):
    """The search nested goals deeper than ``max_depth``; ``goal`` is the
    goal it entered at ``depth``, the ``steps``-th entry of the search."""

    def __init__(self, goal: Atom, depth: int, steps: int):
        self.goal = goal
        self.depth = depth
        self.steps = steps
        super().__init__(
            f"goal nesting exceeded the depth limit at {goal} (depth {depth}, after {steps} steps)"
        )


class StepsExceeded(EngineError):
    """The search used its whole step budget; ``goal`` is the goal it was
    entering at ``depth`` when ``steps`` entries had been made."""

    def __init__(self, goal: Atom, depth: int, steps: int):
        self.goal = goal
        self.depth = depth
        self.steps = steps
        super().__init__(
            f"resolution step budget exhausted after {steps} steps at {goal} (depth {depth})"
        )


def _cycle_through(
    head: PredicateKey, target: PredicateKey, succ: dict[PredicateKey, dict[PredicateKey, bool]]
) -> list[PredicateKey]:
    """A shortest cycle [head, target, ...] using the negative edge head -> target.

    Every path from target back to head lies in their component, so the
    breadth-first search needs no restriction to it.
    """
    parents: dict[PredicateKey, PredicateKey] = {}
    work = deque([target])
    visited = {target}
    while work:
        node = work.popleft()
        if node == head:
            break
        for nxt in sorted(succ[node]):
            if nxt not in visited:
                visited.add(nxt)
                parents[nxt] = node
                work.append(nxt)
    path = [head]
    while path[-1] != target:
        path.append(parents[path[-1]])
    return [head] + path[:0:-1]  # head, then target back along the path


def stratify(program: Program) -> list[frozenset[PredicateKey]]:
    """Partition predicates into strata, lowest first.

    Within the returned partition, every rule-body dependency sits at
    the same stratum or lower, and every exception dependency sits
    strictly lower. Predicates defined only by facts land in stratum 0.
    Raises Unstratified when a cycle crosses an exception edge.

    One iterative pass of Tarjan's algorithm finds the strongly connected
    components, dependencies first, so each component takes its stratum
    from edges that leave it as it closes.
    """
    # succ[head][dependency] is True when some edge between them is an exception.
    succ: dict[PredicateKey, dict[PredicateKey, bool]] = {}
    for rule in program.rules:
        deps = succ.setdefault(rule.head.key, {})
        for atom in rule.body:
            key = atom.key
            deps.setdefault(key, False)
            succ.setdefault(key, {})
    for decl in program.exceptions:
        succ.setdefault(decl.head.key, {})[decl.exception.key] = True
        succ.setdefault(decl.exception.key, {})
    order: dict[PredicateKey, int] = {}  # discovery number
    low: dict[PredicateKey, int] = {}
    component: dict[PredicateKey, int] = {}  # set when the node's component closes
    level: list[int] = []  # stratum of each component
    stack: list[PredicateKey] = []
    for root in sorted(succ):
        if root in order:
            continue
        order[root] = low[root] = len(order)
        stack.append(root)
        work = [(root, iter(sorted(succ[root])))]
        while work:
            node, deps = work[-1]
            for dep in deps:
                if dep not in order:
                    order[dep] = low[dep] = len(order)
                    stack.append(dep)
                    work.append((dep, iter(sorted(succ[dep]))))
                    break
                if dep not in component and order[dep] < low[node]:  # still on the stack
                    low[node] = order[dep]
            else:
                work.pop()
                if work and low[node] < low[work[-1][0]]:
                    low[work[-1][0]] = low[node]
                if low[node] != order[node]:
                    continue
                index = len(level)
                members = [stack.pop()]
                while members[-1] != node:
                    members.append(stack.pop())
                component.update(dict.fromkeys(members, index))
                level.append(max((level[component[dep]] + negative for member in members
                                  for dep, negative in succ[member].items()
                                  if component[dep] != index), default=0))
    # The first exception declaration, in program order, that closes a cycle.
    for decl in program.exceptions:
        head, dep = decl.head.key, decl.exception.key
        if component[head] == component[dep]:
            raise Unstratified(_cycle_through(head, dep, succ))
    partition: list[set[PredicateKey]] = [set() for _ in range(max(level, default=-1) + 1)]
    for key, index in component.items():
        partition[level[index]].add(key)
    return [frozenset(keys) for keys in partition]


_Edges = tuple[tuple[EdgeKind, TraceNode], ...]
_Ancestors = dict[Atom, int]

# A clause's atoms, head first, and the variable names they hold.
_Clause = tuple[tuple[Atom, ...], tuple[str, ...]]


def _clause(*atoms: Atom) -> _Clause:
    names = dict.fromkeys(name for atom in atoms for name in variables_of(atom))
    return atoms, tuple(names)


class ProgramIndex:
    """The program-side state of ``solve``, built once per Program object.

    Building it checks that the program stratifies (raising Unstratified
    otherwise), groups the rules and the exception declarations by head
    key in program order, with each clause's variable names, and sizes the
    recursion headroom a goal level needs. ``Program`` keeps the index it
    builds on first use, so every later solve on that object reuses it.
    """

    def __init__(self, program: Program):
        stratify(program)
        rules: dict[PredicateKey, list[tuple[str, _Clause]]] = defaultdict(list)
        for rule in program.rules:
            rules[rule.head.key].append((rule.id, _clause(rule.head, *rule.body)))
        exceptions: dict[PredicateKey, list[_Clause]] = defaultdict(list)
        for decl in program.exceptions:
            exceptions[decl.head.key].append(_clause(decl.head, decl.exception))
        self.rules = dict(rules)
        self.exceptions = dict(exceptions)
        longest_body = max((len(rule.body) for rule in program.rules), default=0)
        self.frames_per_level = max(_MIN_FRAMES_PER_LEVEL, longest_body + 2)


class _Resolver:
    """Backward-chaining search state for one solve call.

    The search builds the trace as it goes: every solution comes with the
    node of the proof that found it, so a trace is the search's own proof.
    """

    def __init__(self, index: ProgramIndex, facts: FactBase, config: EngineConfig):
        self.config = config
        self.rules = index.rules
        self.exceptions = index.exceptions
        # Sorted for run-to-run determinism; fact sets have no inherent order.
        self.facts: dict[PredicateKey, list[Atom]] = defaultdict(list)
        for fact in sorted(facts.facts, key=str):
            self.facts[fact.key].append(fact)
        self.steps = 0
        self.rename_serial = 0
        # Ground-goal memo tables, from goal to node. A success is valid
        # in any context (the proof found cannot run through a pruned
        # ancestor). A plain failure is recorded only when no loop prune
        # fired against an ancestor older than the goal, since such a
        # prune could have cut a proof that exists in other contexts;
        # prune_log tracks the stack positions the loop check matched.
        self.success_cache: dict[Atom, TraceNode] = {}
        self.failure_cache: dict[Atom, TraceNode] = {}
        self.prune_log: list[int] = []

    def _fresh(self, clause: _Clause) -> tuple[Atom, ...]:
        """The clause's atoms with their variables renamed apart from every other use."""
        atoms, names = clause
        self.rename_serial += 1
        return rename_apart(atoms, names, self.rename_serial)

    # A goal that is ground under the current substitution can add no
    # binding its caller could see, so one solution settles it; defeat
    # is likewise settled by the first derivation, because every
    # derivation resolves to the same conclusion instance. For the same
    # reason a ground goal proves each clause in a substitution of its
    # own, made by unifying the unrenamed head with the resolved goal:
    # no variable of the caller's can meet the clause's there.

    def prove(self, goal: Atom, subst: Substitution, depth: int, ancestors: _Ancestors
              ) -> Iterator[tuple[Optional[Substitution], TraceNode]]:
        """Each solution of the goal in search order, with its proof node.

        A goal without solutions yields (None, failure node) once. The
        failure node holds, for every rule whose head matched, the
        first-solution path through the body up to its first failing
        condition, plus the exception checks when that path completed.
        ``ancestors`` maps each open goal of this branch to its stack
        position; each level passes its callees a copy extended by itself.
        """
        resolved = apply_atom(subst, goal)
        canon = canonical_atom(resolved)
        if self.steps == self.config.max_steps:
            raise StepsExceeded(canon, depth, self.steps)
        self.steps += 1
        if depth > self.config.max_depth:
            raise DepthExceeded(canon, depth, self.steps)
        ground = canon is resolved
        if ground:
            if canon in self.success_cache:
                yield subst, self.success_cache[canon]
                return
            if canon in self.failure_cache:
                yield None, self.failure_cache[canon]
                return
        if self.config.loop_check and canon in ancestors:
            self.prune_log.append(ancestors[canon])
            yield None, TraceNode(canon, Outcome.FAILURE, note="loop detected")
            return
        position = len(ancestors)
        mark = len(self.prune_log)
        ancestors = {**ancestors, canon: position}
        found = False
        for fact in self.facts.get(goal.key, ()):
            bound = unify_atoms(goal, fact, subst)
            if bound is None:
                continue
            if ground:
                node = TraceNode(canon, Outcome.SUCCESS, via=FACT_MARKER)
                self.success_cache[canon] = node
                yield subst, node
                return
            found = True
            yield bound, TraceNode(
                canonical_atom(apply_atom(bound, goal)), Outcome.SUCCESS, via=FACT_MARKER
            )
        attempts: list[tuple[EdgeKind, TraceNode]] = []
        defeated_via: Optional[str] = None
        settled = False
        for rule_id, clause in self.rules.get(goal.key, ()):
            if ground:
                head, *body = clause[0]
                bound = unify_atoms(head, resolved)
            else:
                head, *body = self._fresh(clause)
                bound = unify_atoms(head, goal, subst)
            if bound is None:
                continue
            # A failure shows the rule's first body item: the failed
            # first-solution path, or the first solution with its checks.
            shown: Optional[_Edges] = None
            for solution, conditions in self._conditions(body, bound, depth, ancestors):
                if solution is None:
                    shown = conditions
                    continue
                if ground:
                    instance, node_goal = resolved, canon
                else:
                    instance = apply_atom(solution, goal)
                    node_goal = canonical_atom(instance)
                checks, defeated = self._exception_checks(
                    instance, node_goal is instance, depth, ancestors
                )
                if shown is None:
                    shown = conditions + checks
                    if defeated and defeated_via is None:
                        defeated_via = rule_id
                if not defeated:
                    node = TraceNode(
                        node_goal,
                        Outcome.SUCCESS,
                        via=rule_id,
                        children=conditions + checks,
                    )
                    if ground:
                        self.success_cache[canon] = node
                        yield subst, node
                        return
                    found = True
                    yield solution, node
                elif ground:
                    # Every other derivation resolves to this same
                    # defeated instance; later rules are only shown.
                    settled = True
                    break
            attempts.extend(shown or ())
        if found:
            return
        node = TraceNode(
            canon,
            Outcome.FAILURE,
            via=defeated_via,
            defeated=defeated_via is not None,
            children=tuple(attempts),
            note=None if attempts else "no rule matched",
        )
        if ground and (settled or all(index >= position for index in self.prune_log[mark:])):
            self.failure_cache[canon] = node
        yield None, node

    def _conditions(self, body: list[Atom], subst: Substitution, depth: int,
                    ancestors: _Ancestors) -> Iterator[tuple[Optional[Substitution], _Edges]]:
        """Each solution of the conjunction with its condition edges.

        When the first-solution path fails, (None, that path up to its
        failing condition) comes first, then any solutions backtracking finds.
        """
        if not body:
            yield subst, ()
            return
        first_path = True
        for solution, node in self.prove(body[0], subst, depth + 1, ancestors):
            edge = ((EdgeKind.CONDITION, node),)
            if solution is None:
                yield None, edge
                return
            for rest, edges in self._conditions(body[1:], solution, depth, ancestors):
                if rest is not None or first_path:
                    yield rest, edge + edges
            first_path = False

    def _exception_checks(self, instance: Atom, ground: bool, depth: int,
                          ancestors: _Ancestors) -> tuple[_Edges, bool]:
        """Exception edges of a conclusion instance in declaration order, up
        to the first exception that holds, and whether one held. Each
        declaration unifies into a substitution of its own, so only a
        non-ground instance needs it renamed apart."""
        checks: list[tuple[EdgeKind, TraceNode]] = []
        for clause in self.exceptions.get(instance.key, ()):
            head, exception = clause[0] if ground else self._fresh(clause)
            bound = unify_atoms(head, instance)
            if bound is None:
                continue
            solution, node = next(self.prove(exception, bound, depth + 1, ancestors))
            checks.append((EdgeKind.EXCEPTION, node))
            if solution is not None:
                return tuple(checks), True
        return tuple(checks), False


def _ensure_recursion_headroom(frames_per_level: int, max_depth: int) -> None:
    needed = min(max_depth * frames_per_level + _FRAME_SLACK, 100_000_000)
    if sys.getrecursionlimit() < needed:
        sys.setrecursionlimit(needed)


def solve(program: Program, facts: FactBase, goal: Atom,
          config: Optional[EngineConfig] = None) -> tuple[Outcome, TraceNode]:
    """Evaluate one goal, returning its outcome and the full trace.

    The trace is the proof the search found. A success node shows the
    fact or rule that established the goal, with that rule's conditions
    and the exception checks that failed. A failure node shows, for every
    rule whose head matched, the first-solution path through the body up
    to its first failing condition, plus the exception checks when that
    path completed. The only notes a node carries are "loop detected" and
    "no rule matched". ``config.max_steps`` bounds the goal entries of
    the one search.

    The program is stratified and indexed once per Program object, on
    its first solve (``Program.solve_index``), and later solves reuse
    that; an unstratified program raises on every call.

    Deterministic: identical inputs produce identical traces. Raises
    Unstratified, DepthExceeded, or StepsExceeded; a goal that merely
    cannot be proven is a normal FAILURE outcome, not an error.
    """
    cfg = config or DEFAULT_CONFIG
    index = program.solve_index
    _ensure_recursion_headroom(index.frames_per_level, cfg.max_depth)
    resolver = _Resolver(index, facts, cfg)
    _, node = next(resolver.prove(goal, EMPTY_SUBSTITUTION, 1, {}))
    return node.outcome, node


def holds_all(program: Program, facts: FactBase) -> frozenset[Atom]:
    """Every ground atom that holds, computed bottom-up.

    Only defined for ground programs. Strata are processed lowest
    first; within a stratum, an atom is added once some rule's body all
    holds and no declared exception for it has been established. The
    fixpoint needs no resource limits because it is monotone per stratum.
    """
    for rule in program.rules:
        if variables_of(rule.head) or any(variables_of(a) for a in rule.body):
            raise ValueError("holds_all requires a ground program")
    for decl in program.exceptions:
        if variables_of(decl.head) or variables_of(decl.exception):
            raise ValueError("holds_all requires a ground program")
    strata = stratify(program)
    level: dict[PredicateKey, int] = {}
    for index, stratum in enumerate(strata):
        for key in stratum:
            level[key] = index
    exceptions_of: dict[Atom, list[Atom]] = defaultdict(list)
    for decl in program.exceptions:
        exceptions_of[decl.head].append(decl.exception)
    true: set[Atom] = set(facts.facts)
    for index in range(len(strata)):
        rules_here = [r for r in program.rules if level[r.head.key] == index]
        changed = True
        while changed:
            changed = False
            for rule in rules_here:
                if rule.head in true:
                    continue
                if not all(atom in true for atom in rule.body):
                    continue
                if not any(exception in true for exception in exceptions_of.get(rule.head, ())):
                    true.add(rule.head)
                    changed = True
    return frozenset(true)
