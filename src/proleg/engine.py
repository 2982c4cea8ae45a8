"""Query evaluation under rule-with-exception semantics.

A goal instance succeeds when it matches a case fact, or when some rule
(tried in program order) has a head unifying with the goal, every body
atom succeeds left to right under the accumulated substitution, and no
declared exception whose head unifies with the resolved goal instance
can itself be proven. An exception that succeeds defeats the conclusion
instance outright, for every rule deriving it. Every rule, and every
exception declaration, is called through its argument plan: the goal's
argument terms stand in for the variables first met as bare head
arguments, and only the others are renamed apart per call, so a flat
clause (each head argument a variable or a ground term, each body
variable also in the head) renames nothing.

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
    Term,
    Variable,
    _built,
    _unify,
    apply_atom,
    canonical_atom,
    indicator,
    rename_term,
    renamed_variables,
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
)


class EngineConfig(Record):
    """Resource limits for one evaluation. Each is exactly an ``int``, so
    not a ``bool``: the search counts up to a limit and stops on equality,
    which a limit of ``5.5`` never meets."""

    __slots__ = _fields = ("max_depth", "max_steps")

    def __init__(self, max_depth: int = 512, max_steps: int = 100_000) -> None:
        for name, value in (("max_depth", max_depth), ("max_steps", max_steps)):
            if value.__class__ is not int:
                raise TypeError(f"{name} must be int, got {value!r}")
            if value < 1:
                raise ValueError(f"{name} must be >= 1")
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


# A clause's argument plan: its head checks, each a head position with
# the term the goal's argument there must unify with; its body atoms,
# each a predicate with its argument terms; and the variables each call
# renames apart. A term is a position, for the term there, or a (term,
# ((variable, position), ...)) pair, for the term with the terms at those
# positions put in for its variables. Positions index a call's argument
# terms: the goal's, followed by the call's renamed variables. A body
# atom's terms are None where they are the goal's own, in order, in a
# clause that renames nothing: the atom then takes the goal's tuple.
_Plan = tuple[tuple[tuple[int, object], ...], tuple[tuple[str, Optional[tuple]], ...],
              tuple[str, ...]]


def _plan(head: Atom, body: tuple[Atom, ...]) -> _Plan:
    """The clause's argument plan.

    A variable whose first occurrence, left to right through the head,
    is a bare head argument takes the goal's term at that position; every
    other variable is renamed. Each other head argument is checked. A call
    then unifies exactly the pairs that unifying the renamed head with the
    goal would, in the same order and direction, but for the first
    binding of each bare-variable argument.
    """
    arity = len(head.args)
    places: dict[str, int] = {}
    renamed: list[str] = []

    def spec(term):
        names = variables_of(term)
        for name in names:
            if name not in places:
                places[name] = arity + len(renamed)
                renamed.append(name)
        if isinstance(term, Variable):
            return places[term.name]
        return term, tuple((name, places[name]) for name in names)

    checks = []
    for position, arg in enumerate(head.args):
        if isinstance(arg, Variable) and arg.name not in places:
            places[arg.name] = position
        else:
            checks.append((position, spec(arg)))
    atoms = [(atom.predicate, tuple(spec(arg) for arg in atom.args)) for atom in body]
    whole = None if renamed else tuple(range(arity))  # the goal's own terms, in order
    atoms = tuple((predicate, None if specs == whole else specs) for predicate, specs in atoms)
    return tuple(checks), atoms, tuple(renamed)


def _term(spec, args: tuple) -> Term:
    """The term a plan gives by a (term, places) ``spec`` over a call's
    argument terms; a call reads a position spec's term itself."""
    term, places = spec
    return rename_term(term, {name: args[at] for name, at in places}) if places else term


class ProgramIndex:
    """The program-side state of ``solve``, built once per Program object.

    Building it checks the Program's ``dependency_graph`` for a cycle
    through an exception edge, raising Unstratified when there is one,
    without computing the strata. It groups the rules, each with its id
    and argument plan, and the argument plans of the exception
    declarations, each taken as a rule with its exception as the one body
    atom, by head key in program order. ``Program`` keeps the index it
    builds on first use, so every later solve on that object reuses it.
    """

    def __init__(self, program: Program):
        cycle = program.dependency_graph.cycle
        if cycle is not None:
            raise Unstratified(cycle[1])
        rules: dict[PredicateKey, list[tuple[str, _Plan]]] = defaultdict(list)
        for rule in program.rules:
            rules[rule.head.key].append((rule.id, _plan(rule.head, rule.body)))
        exceptions: dict[PredicateKey, list[_Plan]] = defaultdict(list)
        for decl in program.exceptions:
            exceptions[decl.head.key].append(_plan(decl.head, (decl.exception,)))
        self.rules = dict(rules)
        self.exceptions = dict(exceptions)


# What a goal's generator asks of the search loop: run a subgoal or an
# exception check and send back its first answer; pass an answer to the
# goal that asked; send back the next answer of a waiting subgoal. As at
# a WAM choice point, a frame that leaves takes every frame above it.
_CALL, _ANSWER, _REDO = range(3)

# The substitution a call passes with body atoms that are ground as
# built: the callee takes its goal as it is.
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
        # Atom.__str__ as the key spares str() its slot lookup per fact.
        self.facts = grouped = defaultdict(list)
        for fact in sorted(facts.facts, key=Atom.__str__):
            grouped[fact.predicate, len(fact.args)].append(fact)
        self.steps = 0
        self.rename_serial = 0
        # One entry per canonical goal. A running goal's entry is the list
        # [depth, leader, caller's entry]; it leaves the table when the goal
        # answers and comes back when the goal is asked for more, so the
        # loop check fails a goal that finds its own variant running. The
        # leader is the depth of the oldest ancestor that a loop prune under
        # the goal reached, or the goal's own depth. The prune writes it into
        # every entry up its caller chain, so a frame that leaves without
        # running on, with the frames above it, loses none. A finished
        # ground goal's entry is its node, a fact's too, handed to every
        # later caller. A success holds in any context, since its proof runs
        # through no pruned goal. A failure is kept when it is settled, or
        # when its leader is its own depth: a prune against an older
        # ancestor may have cut a proof that another context finds.
        self.table: dict[Atom, list | TraceNode] = {}
        # The last canonical form and the last substitution applied that an
        # open goal level asked for: the argument tuple (and substitution)
        # it gave, and the tuple it got. A flat clause hands its goal's
        # tuple to its body atom, and an answer comes back up under the
        # substitution the level below applied, so the next level asks for
        # the same rewrite of the very same objects. They are held here, so
        # no other object can take their identity while they are compared.
        self.canon_in = self.canon_out = self.applied_in = self.applied_out = None
        self.applied_subst: Optional[Substitution] = None

    def _canonical(self, atom: Atom) -> Atom:
        """``canonical_atom(atom)``, built from the last one's argument
        tuple when ``atom`` holds that same tuple; ``atom`` itself when it
        is ground, so ``_canonical(a) is a`` still tells whether it is."""
        args = atom.args
        if args is not self.canon_in:
            canon = canonical_atom(atom)
            self.canon_in, self.canon_out = args, canon.args
            return canon
        out = self.canon_out
        return atom if out is args else _built(Atom, atom.predicate, out)

    def _applied(self, subst: Substitution, atom: Atom) -> Atom:
        """``apply_atom(subst, atom)``, built from the last one's argument
        tuple when ``atom`` holds that same tuple and ``subst`` is that same
        substitution; ``atom`` itself when no binding reaches it."""
        args = atom.args
        if args is not self.applied_in or subst is not self.applied_subst:
            instance = apply_atom(subst, atom)
            self.applied_in, self.applied_subst, self.applied_out = args, subst, instance.args
            return instance
        out = self.applied_out
        return atom if out is args else _built(Atom, atom.predicate, out)

    def _call(self, plan: _Plan, args: tuple,
              subst: Substitution) -> Optional[tuple[list[Atom], Substitution]]:
        """The body atoms of a call of the plan's clause on a goal with the
        argument terms ``args``, with the substitution its head checks
        leave when they start from ``subst``, or None when they fail.

        A call that renames variables has open body atoms, so it starts
        from the empty substitution where ``subst`` is _GROUND.
        """
        checks, body, renamed = plan
        if renamed:
            self.rename_serial += 1
            args += renamed_variables(renamed, self.rename_serial)
            if subst is _GROUND:
                subst = EMPTY_SUBSTITUTION
        if checks:
            subst = _unify(tuple([args[spec] if spec.__class__ is int else _term(spec, args)
                                  for _, spec in checks]),
                           tuple([args[at] for at, _ in checks]), subst)
            if subst is None:
                return None
        return [_built(Atom, predicate, args if specs is None else
                       tuple([args[spec] if spec.__class__ is int else _term(spec, args)
                              for spec in specs]))
                for predicate, specs in body], subst

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
        # The query's caller entry: depth 0, with a leader no walk passes.
        stack = [(self._prove(query, EMPTY_SUBSTITUTION, [0, 0, None]), -1)]
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
    # derivation resolves to the same conclusion instance. Every rule is
    # called through its argument plan: an open goal's head checks run
    # on its argument terms in the caller's substitution, a ground goal's
    # on its resolved terms from _GROUND. An exception declaration is
    # checked the same way on the conclusion instance, which is resolved,
    # so an open one starts from the empty substitution.

    def _prove(self, goal: Atom, subst: Substitution, caller: list) -> Iterator[tuple]:
        """The goal's answers in search order, as requests to ``run``.

        Each answer is (_ANSWER, solution, proof node, last). A goal
        without solutions answers once with a None solution and its
        failure node: for every rule whose head matched, the first-solution
        path through the body up to its first failing condition, plus the
        exception checks when that path completed. ``run`` sends back a
        subgoal's answer as (solution, node, stack position to ask for
        more or None), or None when it has no more. ``caller`` is the
        table entry of the goal that asked.
        """
        depth = caller[0] + 1
        if subst is _GROUND:
            resolved = canon = goal
        else:
            resolved = self._applied(subst, goal)
            canon = self._canonical(resolved)
        if self.steps == self.config.max_steps:
            raise StepsExceeded(canon, depth, self.steps)
        self.steps += 1
        if depth > self.config.max_depth:
            raise DepthExceeded(canon, depth, self.steps)
        ground = canon is resolved
        table = self.table
        entry = [depth, depth, caller]
        node = table.setdefault(canon, entry)
        if node is entry and ground and canon in self.fact_set:
            node = table[canon] = TraceNode(canon, _SUCCESS, FACT_MARKER)
        if node is not entry:
            if node.__class__ is list:  # a running variant: a loop
                # Each goal from the caller up to that variant takes it as
                # its leader, unless it has an older one; then so has every
                # goal above it up to that leader, and the walk stops.
                leader = node[0]
                while caller[1] > leader:
                    caller[1], caller = leader, caller[2]
                node = TraceNode(canon, _FAILURE, note="loop detected")
            yield _ANSWER, subst if node.outcome is _SUCCESS else None, node, True
            return
        found = False
        key = goal.predicate, len(goal.args)
        for fact in () if ground else self.facts.get(key, ()):
            bound = unify_atoms(goal, fact, subst)
            if bound is None:
                continue
            del table[canon]
            found = True
            node = TraceNode(self._canonical(self._applied(bound, goal)), _SUCCESS, FACT_MARKER)
            yield _ANSWER, bound, node, False
            table[canon] = entry
        attempts: list = []
        defeated_via: Optional[str] = None
        settled = False
        args, start = (resolved.args, _GROUND) if ground else (goal.args, subst)
        for rule_id, plan in self.rules.get(key, ()):
            call = self._call(plan, args, start)
            if call is None:
                continue
            atoms, solution = call
            # The body left to right. edges[i] is the condition edge of body
            # atom i's current answer, and points[i] where that atom waits
            # while it may answer again, or None; the next atom to call is
            # atoms[len(edges)]. A failure shows the rule's first body item:
            # the failed first-solution path, or the first solution with its
            # checks. Either comes before the first redo.
            shown = None
            edges: list = []
            points: list = []
            while True:
                if len(edges) < len(atoms):
                    solution, node, point = yield _CALL, atoms[len(edges)], solution, entry
                    if solution is not None:
                        edges.append((_CONDITION, node))
                        points.append(point)
                        continue
                    if shown is None:
                        shown = (*edges, (_CONDITION, node))
                else:  # the body holds under solution
                    # The goal itself, and its canonical form, when the body
                    # bound none of its variables.
                    instance = resolved if solution is start else self._applied(solution, resolved)
                    node_goal = canon if instance is resolved else self._canonical(instance)
                    checks = []
                    defeated = False
                    base = _GROUND if node_goal is instance else EMPTY_SUBSTITUTION
                    for plan in self.exceptions.get(key, ()):
                        call = self._call(plan, instance.args, base)
                        if call is not None:
                            holds, node, _ = yield _CALL, call[0][0], call[1], entry
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
                        node = TraceNode(node_goal, _SUCCESS, rule_id, False, children)
                        if ground:
                            table[canon] = node
                            yield _ANSWER, subst, node, True
                            return
                        del table[canon]
                        found = True
                        yield _ANSWER, solution, node, False
                        table[canon] = entry
                    elif ground:
                        # Every other derivation resolves to this same
                        # defeated instance; later rules are only shown.
                        settled = True
                        break
                # Ask the newest body atom that may answer again.
                answer = None
                while answer is None and points:
                    edges.pop()
                    point = points.pop()
                    if point is not None:
                        answer = yield _REDO, point
                if answer is None:
                    break
                solution, node, point = answer
                edges.append((_CONDITION, node))
                points.append(point)
            attempts.extend(shown or ())
        del table[canon]
        if found:
            return
        node = TraceNode(canon, _FAILURE, defeated_via, defeated_via is not None, attempts,
                         None if attempts else "no rule matched")
        if ground and (settled or entry[1] == depth):
            table[canon] = node
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
    index gives every rule and exception declaration an argument plan,
    and a call renames only the clause variables that are not bare head
    arguments, so a flat clause renames nothing, for any goal. A goal
    that is ground under its caller's bindings holds on a
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
