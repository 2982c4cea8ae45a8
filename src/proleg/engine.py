"""Query evaluation under rule-with-exception semantics.

A goal instance succeeds when it matches a case fact, or when some rule
(tried in program order) has a head unifying with the goal, every body
atom succeeds left to right under the accumulated substitution, and no
declared exception whose head unifies with the resolved goal instance
can itself be proven. An exception that succeeds defeats the conclusion
instance outright, for every rule deriving it. A rule is called without
renaming its variables when the goal is ground, or when the rule is
flat: each head argument a variable or a ground term, and each body
variable also in the head. Only open goals on other rules rename the
rule apart per use.

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

from collections import defaultdict, deque
from typing import Iterator, Optional

from .ast import (
    Atom,
    FactBase,
    PredicateKey,
    Program,
    Record,
    Substitution,
    EMPTY_SUBSTITUTION,
    Variable,
    _built,
    _unify,
    apply_atom,
    canonical_atom,
    indicator,
    is_ground,
    rename_apart,
    rename_term,
    unify_atoms,
    variables_of,
)
from .trace import (
    FACT_MARKER,
    Outcome,
    TraceNode,
    _CONDITION,
    _EXCEPTION,
    _FAILURE,
    _SUCCESS,
    _node,
)


class EngineConfig(Record):
    """Resource limits for one evaluation."""

    __slots__ = _fields = ("max_depth", "max_steps")

    def __init__(self, max_depth: int = 512, max_steps: int = 100_000) -> None:
        if max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if max_steps < 1:
            raise ValueError("max_steps must be >= 1")
        self._init(max_depth, max_steps)


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
    head: int, target: int, succ: list[list[int]], keys: list[PredicateKey]
) -> list[PredicateKey]:
    """A shortest cycle [head, target, ...] using the negative edge head -> target,
    over numbered nodes whose predicate keys are ``keys``.

    Every path from target back to head lies in their component, so the
    breadth-first search needs no restriction to it. Successors are taken
    in the order of their keys, so the cycle does not depend on program
    order or on the numbering.
    """
    parents: dict[int, int] = {}
    work = deque([target])
    visited = {target}
    while work:
        node = work.popleft()
        if node == head:
            break
        for nxt in sorted(set(succ[node]), key=keys.__getitem__):
            if nxt not in visited:
                visited.add(nxt)
                parents[nxt] = node
                work.append(nxt)
    path = [head]
    while path[-1] != target:
        path.append(parents[path[-1]])
    return [keys[node] for node in [head] + path[:0:-1]]  # head, then target back along the path


def _components(succ: list[list[int]]) -> tuple[list[int], list[int]]:
    """The strongly connected components of every node, by one iterative
    pass of Tarjan's algorithm: each node's component number, and the
    nodes in the order their components closed, each component's members
    together. A component closes only after every component it depends
    on, so the numbers and the order put dependencies first. No list is
    kept per component: on a graph of 11,536 nodes such lists set off 240
    garbage collections and made the pass a third slower.
    """
    count = len(succ)
    # order[node] is its discovery number, -1 before it is found and
    # count once its component closes, so it no longer lowers any low.
    order = [-1] * count
    low = [0] * count
    component = [-1] * count
    closed: list[int] = []
    stack: list[int] = []
    found = 0
    index = 0  # the number of the next component to close
    for root in range(count):
        if order[root] >= 0:
            continue
        order[root] = low[root] = found
        found += 1
        stack.append(root)
        work = [(root, iter(succ[root]))]
        while work:
            node, deps = work[-1]
            for dep in deps:
                if order[dep] < 0:
                    order[dep] = low[dep] = found
                    found += 1
                    stack.append(dep)
                    work.append((dep, iter(succ[dep])))
                    break
                if order[dep] < low[node]:  # still on the stack
                    low[node] = order[dep]
            else:
                work.pop()
                if work and low[node] < low[work[-1][0]]:
                    low[work[-1][0]] = low[node]
                if low[node] != order[node]:
                    continue
                member = -1
                while member != node:
                    member = stack.pop()
                    order[member] = count
                    component[member] = index
                    closed.append(member)
                index += 1
    return component, closed


class DependencyGraph:
    """The predicate dependency graph of one Program, built once per
    Program object (``Program.dependency_graph``) and read by ``stratify``,
    ``ProgramIndex`` and ``lint``.

    Each predicate key is numbered once, in order of first use: each
    rule's head, then its body, then each exception declaration's head
    and exception. ``keys`` lists the keys by number, ``succ`` every
    dependency of each node, with repeats, and ``exception_edges`` the
    exception dependencies in program order; ``component`` and ``closed``
    are one ``_components`` pass over every node. ``cycle`` is None when
    the program stratifies, else the position of the first exception
    declaration, in program order, whose edge closes a cycle, with that
    cycle's keys. It is data, not an Unstratified error: an error raised
    again would grow its traceback, so each check raises a fresh one.
    """

    __slots__ = ("keys", "succ", "exception_edges", "component", "closed", "cycle")

    def __init__(self, program: Program) -> None:
        number: dict[PredicateKey, int] = {}
        edges: list[tuple[int, int]] = []  # rule bodies', then exceptions', in program order
        for rule in program.rules:
            head = rule.head
            node = number.setdefault((head.predicate, len(head.args)), len(number))
            for atom in rule.body:
                edges.append((node, number.setdefault((atom.predicate, len(atom.args)),
                                                      len(number))))
        self.exception_edges = [(number.setdefault(decl.head.key, len(number)),
                                 number.setdefault(decl.exception.key, len(number)))
                                for decl in program.exceptions]
        edges += self.exception_edges
        self.keys = keys = list(number)
        self.succ = succ = [[] for _ in keys]
        for node, dep in edges:
            succ[node].append(dep)
        self.component, self.closed = _components(succ)
        self.cycle: Optional[tuple[int, list[PredicateKey]]] = None
        for position, (head, dep) in enumerate(self.exception_edges):
            if self.component[head] == self.component[dep]:
                self.cycle = position, _cycle_through(head, dep, succ, keys)
                break


def stratify(program: Program) -> list[frozenset[PredicateKey]]:
    """Partition predicates into strata, lowest first.

    Within the returned partition, every rule-body dependency sits at
    the same stratum or lower, and every exception dependency sits
    strictly lower. Predicates defined only by facts land in stratum 0.
    Raises Unstratified when a cycle crosses an exception edge; the cycle
    is that of the first exception declaration, in program order, that
    closes one.

    The strata come from the Program's ``dependency_graph``, built on
    first use and kept: its components are numbered dependencies first,
    so each takes its stratum from the edges that leave it. Neither the
    strata nor the cycle reported depend on the order nodes are visited.
    """
    graph = program.dependency_graph
    if graph.cycle is not None:
        raise Unstratified(graph.cycle[1])
    component, succ = graph.component, graph.succ
    negative: dict[int, list[int]] = {}  # exception dependencies only
    for head, dep in graph.exception_edges:
        negative.setdefault(head, []).append(dep)
    # Components close dependencies first, so an edge that leaves one
    # reads its target's final stratum; an edge inside one reads no more
    # than the stratum found so far, and no exception edge stays inside.
    level = [0] * len(graph.closed)  # stratum of each component
    for node in graph.closed:
        top = level[component[node]]
        for dep in succ[node]:
            if level[component[dep]] > top:
                top = level[component[dep]]
        for dep in negative.get(node, ()):
            if level[component[dep]] >= top:
                top = level[component[dep]] + 1
        level[component[node]] = top
    partition: list[set[PredicateKey]] = [set() for _ in range(max(level, default=-1) + 1)]
    for node, key in enumerate(graph.keys):
        partition[level[component[node]]].add(key)
    return [frozenset(keys) for keys in partition]


# A clause's atoms, head first, and the variable names they hold.
_Clause = tuple[tuple[Atom, ...], tuple[str, ...]]


def _clause(*atoms: Atom) -> _Clause:
    names = dict.fromkeys(name for atom in atoms for name in variables_of(atom))
    return atoms, tuple(names)


# A rule's argument plan: the head positions a goal must pass, each with
# a ground term or the earlier position of the same variable to equal,
# and each body atom's predicate with, per argument, the head position
# whose goal term it takes or a (term, ((variable, position), ...)) pair
# to fill in. The positions are those of the head's arguments.
_Plan = tuple[tuple[tuple[int, object], ...], tuple[tuple[str, tuple], ...]]


def _plan(head: Atom, body: tuple[Atom, ...]) -> Optional[_Plan]:
    """The rule's argument plan, or None unless every head argument is a
    variable or a ground term and every body variable occurs in the head.

    Such a rule has no variable left once its head has matched a goal, so
    calling it renames nothing and binds none of its own variables: the
    body is the goal's argument terms put into the head variables' places.
    """
    first: dict[str, int] = {}
    checks = []
    for position, arg in enumerate(head.args):
        if isinstance(arg, Variable):
            if arg.name in first:
                checks.append((position, first[arg.name]))
            else:
                first[arg.name] = position
        elif is_ground(arg):
            checks.append((position, arg))
        else:
            return None
    atoms = []
    for atom in body:
        specs: list = []
        for arg in atom.args:
            names = variables_of(arg)
            if not set(names) <= first.keys():
                return None
            if isinstance(arg, Variable):
                specs.append(first[arg.name])
            else:
                specs.append((arg, tuple((name, first[name]) for name in names)))
        atoms.append((atom.predicate, tuple(specs)))
    return tuple(checks), tuple(atoms)


def _body_atoms(goal: Atom, body: tuple[tuple[str, tuple], ...], args: tuple) -> list[Atom]:
    """The goal, then the plan's body atoms over the goal's argument terms."""
    atoms = [goal]
    for predicate, specs in body:
        atoms.append(_built(Atom, predicate, tuple([
            args[spec] if spec.__class__ is int
            else rename_term(spec[0], {name: args[at] for name, at in spec[1]}) if spec[1]
            else spec[0]
            for spec in specs])))
    return atoms


class ProgramIndex:
    """The program-side state of ``solve``, built once per Program object.

    Building it checks the Program's ``dependency_graph`` for a cycle
    through an exception edge, raising Unstratified when there is one,
    without computing the strata. It groups the rules and the exception
    declarations by head key in program order, with each clause's
    variable names and each rule's argument plan, if it has one.
    ``Program`` keeps the index it builds on first use, so every later
    solve on that object reuses it.
    """

    def __init__(self, program: Program):
        cycle = program.dependency_graph.cycle
        if cycle is not None:
            raise Unstratified(cycle[1])
        rules: dict[PredicateKey, list[tuple[str, _Clause, Optional[_Plan]]]] = defaultdict(list)
        for rule in program.rules:
            rules[rule.head.key].append((rule.id, _clause(rule.head, *rule.body),
                                         _plan(rule.head, rule.body)))
        exceptions: dict[PredicateKey, list[_Clause]] = defaultdict(list)
        for decl in program.exceptions:
            exceptions[decl.head.key].append(_clause(decl.head, decl.exception))
        self.rules = dict(rules)
        self.exceptions = dict(exceptions)


# What a goal's generator asks of the search loop: run a subgoal or an
# exception check and send back its first answer; pass an answer to the
# goal that asked; send back the next answer of a waiting subgoal. As at
# a WAM choice point, a frame that leaves takes every frame above it.
_CALL, _ANSWER, _REDO = range(3)

# The substitution a planned rule passes with the body atoms of a ground
# goal, which are ground as built: the callee takes its goal as it is.
_GROUND = Substitution()


class _Resolver:
    """Backward-chaining search state for one solve call.

    The search builds the trace as it goes: every solution comes with the
    node of the proof that found it, so a trace is the search's own proof.
    """

    def __init__(self, index: ProgramIndex, facts: FactBase, config: EngineConfig):
        self.config = config
        self.rules = index.rules
        self.exceptions = index.exceptions
        # A ground goal holds on a fact exactly when it equals one, so it
        # reads the fact base's own set. Only open goals read the per-key
        # lists, sorted by text because their answers come out in that
        # order and a set has none that holds from run to run.
        self.fact_set = facts.facts
        self.facts: dict[PredicateKey, list[Atom]] = defaultdict(list)
        for fact in sorted(facts.facts, key=str):
            self.facts[fact.key].append(fact)
        self.steps = 0
        self.rename_serial = 0
        # Each goal now running mapped to its position among them, for the
        # loop check: a goal leaves when it answers and comes back when it
        # is asked for more.
        self.running: dict[Atom, int] = {}
        # Ground-goal memo, from goal to node. A success is valid in any
        # context (the proof found cannot run through a pruned ancestor).
        # A plain failure is recorded only when no loop prune fired
        # against an ancestor older than the goal, since such a prune
        # could have cut a proof that exists in other contexts; prune_log
        # tracks the positions of the running goals the loop check matched.
        self.memo: dict[Atom, TraceNode] = {}
        self.prune_log: list[int] = []

    def _fresh(self, clause: _Clause) -> tuple[Atom, ...]:
        """The clause's atoms with their variables renamed apart from every other use."""
        atoms, names = clause
        self.rename_serial += 1
        return rename_apart(atoms, names, self.rename_serial)

    def run(self, query: Atom) -> TraceNode:
        """The proof node of the query's first solution, or its failure node.

        Each goal is a generator, ``_prove``, that asks this loop to run
        its subgoals, so goal nesting nests no Python frames. ``stack``
        holds the generators in the order they started, each with the
        position of the goal that asked for it. A goal that has answered
        and may answer again waits there above its caller. A frame leaves
        at its last answer or when it runs out, with every frame above it:
        its subgoals, and any its owner gave up (a check that could answer
        again, a defeated ground goal's body choice points). No generator
        holds another, so closing one never closes another.
        """
        stack = [(self._prove(query, EMPTY_SUBSTITUTION, 1), -1)]
        current, value = 0, None
        while True:
            try:
                request = stack[current][0].send(value)
            except StopIteration:  # a goal with no answer left
                asker = stack[current][1]
                del stack[current:]
                current, value = asker, None
                continue
            kind = request[0]
            if kind is _ANSWER:
                asker = stack[current][1]
                if asker < 0:
                    return request[2]
                if request[3]:  # its last answer
                    del stack[current:]
                    value = request[1], request[2], None
                else:
                    value = request[1], request[2], current
                current = asker
            elif kind is _CALL:
                stack.append((self._prove(request[1], request[2], request[3]), current))
                current, value = len(stack) - 1, None
            else:
                current, value = request[1], None

    # A goal that is ground under the current substitution can add no
    # binding its caller could see, so one solution settles it; defeat
    # is likewise settled by the first derivation, because every
    # derivation resolves to the same conclusion instance. For the same
    # reason a ground goal proves each clause in a substitution of its
    # own, made by unifying the unrenamed head with the resolved goal:
    # no variable of the caller's can meet the clause's there. A rule
    # with an argument plan needs neither: its head checks run on the
    # goal's argument terms in the caller's substitution, for any goal,
    # and its body atoms are made of those terms. Only open goals on
    # rules without a plan rename clauses apart.

    def _prove(self, goal: Atom, subst: Substitution, depth: int) -> Iterator[tuple]:
        """The goal's answers in search order, as requests to ``run``.

        Each answer is (_ANSWER, solution, proof node, last). A goal
        without solutions answers once with a None solution and its
        failure node: for every rule whose head matched, the first-solution
        path through the body up to its first failing condition, plus the
        exception checks when that path completed. ``run`` sends back a
        subgoal's answer as (solution, node, stack position to ask for
        more or None), or None when it has no more.
        """
        if subst is _GROUND:
            resolved = canon = goal
        else:
            resolved = apply_atom(subst, goal)
            canon = canonical_atom(resolved)
        if self.steps == self.config.max_steps:
            raise StepsExceeded(canon, depth, self.steps)
        self.steps += 1
        if depth > self.config.max_depth:
            raise DepthExceeded(canon, depth, self.steps)
        ground = canon is resolved
        memo, running, prune_log = self.memo, self.running, self.prune_log
        node = memo.get(canon) if ground else None
        if node is None and ground and canon in self.fact_set:
            node = memo[canon] = _node(canon, _SUCCESS, FACT_MARKER)
        if node is not None:
            yield _ANSWER, subst if node.outcome is _SUCCESS else None, node, True
            return
        position = len(running)
        matched = running.setdefault(canon, position)
        if matched != position:
            prune_log.append(matched)
            yield _ANSWER, None, _node(canon, _FAILURE, note="loop detected"), True
            return
        mark = len(prune_log)
        found = False
        key = goal.key
        for fact in () if ground else self.facts.get(key, ()):
            bound = unify_atoms(goal, fact, subst)
            if bound is None:
                continue
            del running[canon]
            found = True
            node = _node(canonical_atom(apply_atom(bound, goal)), _SUCCESS, FACT_MARKER)
            yield _ANSWER, bound, node, False
            running[canon] = position
        attempts: list = []
        defeated_via: Optional[str] = None
        settled = False
        for rule_id, clause, plan in self.rules.get(key, ()):
            if plan is not None:
                head_checks, body = plan
                args = resolved.args if ground else goal.args
                solution = _GROUND if ground else subst
                if head_checks:
                    wanted = tuple([args[was] if was.__class__ is int else was
                                    for _, was in head_checks])
                    given = tuple([args[at] for at, _ in head_checks])
                    if not ground:
                        solution = _unify(wanted, given, subst)
                    elif wanted != given:
                        continue
            elif ground:
                atoms = clause[0]
                solution = unify_atoms(atoms[0], resolved)
            else:
                atoms = self._fresh(clause)
                solution = unify_atoms(atoms[0], goal, subst)
            if solution is None:
                continue
            if plan is not None:
                atoms = _body_atoms(goal, body, args)
            # The body left to right. points[k] is where body atom k waits
            # while it may answer again. A failure shows the rule's first
            # body item: the failed first-solution path, or the first
            # solution with its checks. Either comes before the first redo.
            shown = None
            edges: list = []
            points: list = [None] * len(atoms)
            k = len(atoms)
            if k > 1:
                k = 1
                solution, node, points[1] = yield _CALL, atoms[1], solution, depth + 1
            while True:
                if k < len(atoms):  # atom k answered a call
                    if solution is not None:
                        edges.append((_CONDITION, node))
                        k += 1
                        if k < len(atoms):
                            solution, node, points[k] = yield _CALL, atoms[k], solution, depth + 1
                        continue
                    if shown is None:
                        shown = (*edges, (_CONDITION, node))
                else:  # the body holds under solution
                    if ground:
                        instance, node_goal = resolved, canon
                    else:
                        instance = apply_atom(solution, goal)
                        node_goal = canonical_atom(instance)
                    checks = []
                    defeated = False
                    for clause in self.exceptions.get(key, ()):
                        head, exception = (clause[0] if node_goal is instance
                                           else self._fresh(clause))
                        bound = unify_atoms(head, instance)
                        if bound is not None:
                            holds, node, _ = yield _CALL, exception, bound, depth + 1
                            checks.append((_EXCEPTION, node))
                            if holds is not None:
                                defeated = True
                                break
                    children = (*edges, *checks)
                    if shown is None:
                        shown = children
                        if defeated and defeated_via is None:
                            defeated_via = rule_id
                    if not defeated:
                        node = _node(node_goal, _SUCCESS, rule_id, False, children)
                        del running[canon]
                        if ground:
                            memo[canon] = node
                            yield _ANSWER, subst, node, True
                            return
                        found = True
                        yield _ANSWER, solution, node, False
                        running[canon] = position
                    elif ground:
                        # Every other derivation resolves to this same
                        # defeated instance; later rules are only shown.
                        settled = True
                        break
                # Ask the newest body atom that may answer again.
                answer = None
                while answer is None:
                    k -= 1
                    while k and points[k] is None:
                        k -= 1
                    if not k:
                        break
                    answer = yield _REDO, points[k]
                    if answer is None:
                        points[k] = None
                if not k:
                    break
                solution, node, points[k] = answer
                del edges[k - 1:]
            attempts.extend(shown or ())
        del running[canon]
        if found:
            return
        node = _node(canon, _FAILURE, defeated_via, defeated_via is not None, tuple(attempts),
                     None if attempts else "no rule matched")
        if ground and (settled or all(index >= position for index in prune_log[mark:])):
            memo[canon] = node
        yield _ANSWER, None, node, True


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

    The program is checked for a cycle through an exception edge and
    indexed once per Program object, on its first solve
    (``Program.solve_index``), and later solves reuse that; an
    unstratified program raises a fresh Unstratified on every call. The
    index gives each flat rule an argument plan, so a call of it renames
    nothing: only open goals on rules without a plan rename clauses
    apart. A goal that is ground under its caller's bindings holds on a
    fact when it is one, a single membership test in ``facts.facts``;
    an open goal tries the facts of its predicate in the order of their
    text. The search runs on an explicit stack, so it needs no
    recursion headroom at any depth.

    Deterministic: identical inputs produce identical traces. Raises
    Unstratified, DepthExceeded, or StepsExceeded; a goal that merely
    cannot be proven is a normal FAILURE outcome, not an error.
    """
    node = _Resolver(program.solve_index, facts, config or DEFAULT_CONFIG).run(goal)
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
