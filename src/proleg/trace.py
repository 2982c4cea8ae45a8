"""Reasoning traces and their renderers.

A trace has one node per evaluated goal. Each node carries an ``o``
(success) or ``x`` (failure) outcome; edges to children are either
condition edges (solid, the conclusion-condition relation of a rule) or
exception edges (dotted, the exception relation of a conclusion). A
trace is a DAG, not a tree: the engine's goal table hands a ground goal's
one node to every later caller, so one node object may be the child of
several parents. Every walk here visits each node object once, keyed by
``id()``, except ``repr``, which writes the tree the DAG unfolds to. Three
renderers are provided: indented text, DOT for graph tooling, and a
versioned JSON form that round-trips; each writes a shared node in full
once and refers back to it at every later occurrence.
"""

from __future__ import annotations

import json
from enum import Enum
from typing import Iterator, Optional

from .ast import (Atom, Compound, Constant, Integer, Record, Term, Text, Variable, _setattr,
                  escape_text)

TRACE_VERSION = 2

#: Marker used in ``TraceNode.via`` when a goal matched a case fact.
FACT_MARKER = "fact"

# DOT node outline colours distinguishing outcomes.
SUCCESS_NODE_COLOR = "darkgreen"
FAILURE_NODE_COLOR = "firebrick"


class Outcome(Enum):
    """Result of evaluating one goal; rendered as ``o`` or ``x``."""

    SUCCESS = "o"
    FAILURE = "x"

    @property
    def glyph(self) -> str:
        return self.value


class EdgeKind(Enum):
    CONDITION = "condition"
    EXCEPTION = "exception"


class TraceNode(Record):
    """One evaluated goal instance.

    ``via`` names the rule that produced a success (or ``fact``);
    ``defeated`` marks a conclusion whose conditions held but which an
    exception overturned, in which case at least one exception child
    succeeded.
    """

    # No __slots__: the constructor assigns the instance dict as one literal,
    # cheaper than field writes or a keyword update (``timeit``, Python 3.11).
    _fields = ("goal", "outcome", "via", "defeated", "children", "note")

    def __init__(self, goal: Atom, outcome: Outcome, via: Optional[str] = None,
                 defeated: bool = False, children: tuple[tuple[EdgeKind, TraceNode], ...] = (),
                 note: Optional[str] = None) -> None:
        _setattr(self, "__dict__", {"goal": goal, "outcome": outcome, "via": via,
                                    "defeated": defeated, "children": tuple(children),
                                    "note": note})

    # Equality, hashing and repr walk the trace on explicit stacks, so a
    # trace of any depth works at the default recursion limit.

    def __eq__(self, other: object) -> bool:
        """Field-wise equality of the two unfolded trees. Each pair of
        node objects is compared once, so a memo-shared DAG costs its
        number of distinct pairs, and still equals its unfolded tree."""
        if other.__class__ is not self.__class__:
            return NotImplemented
        pending = [(self, other)]
        compared: set[tuple[int, int]] = set()  # by id(): both traces keep every node alive
        while pending:
            x, y = pending.pop()
            if x is y:
                continue
            pair = (id(x), id(y))
            if pair in compared:
                continue
            compared.add(pair)
            if ((x.goal, x.outcome, x.via, x.defeated, x.note, len(x.children))
                    != (y.goal, y.outcome, y.via, y.defeated, y.note, len(y.children))):
                return False
            for (x_kind, x_child), (y_kind, y_child) in zip(x.children, y.children):
                if x_kind != y_kind:
                    return False
                pending.append((x_child, y_child))
        return True

    # The hash is the hash of the fields tuple, kept on first use. The
    # nodes below are hashed first, children before parents, so hashing
    # the children tuple only reads hashes already kept.
    _hash = None

    def __hash__(self) -> int:
        pending = [self]
        while self._hash is None:
            node = pending[-1]
            missing = [child for _, child in node.children if child._hash is None]
            if missing:
                pending += missing
                continue
            pending.pop()
            _setattr(node, "_hash", hash((node.goal, node.outcome, node.via, node.defeated,
                                          node.children, node.note)))
        return self._hash

    def __repr__(self) -> str:
        """The constructor call of the unfolded tree: a shared node is
        written in full at each occurrence, so the text is tree-sized and
        grows exponentially on a chain of shared levels."""
        parts: list[str] = []
        pending: list = [self]  # nodes still to write, and the literal text between them
        while pending:
            node = pending.pop()
            if node.__class__ is str:
                parts.append(node)
                continue
            children = node.children
            parts.append(f"TraceNode(goal={node.goal!r}, outcome={node.outcome!r}, "
                         f"via={node.via!r}, defeated={node.defeated!r}, children=(")
            pending.append(f"{',' if len(children) == 1 else ''}), note={node.note!r})")
            for index in reversed(range(len(children))):
                kind, child = children[index]
                pending += (")", child, f"{', ' if index else ''}({kind!r}, ")
        return "".join(parts)


# Enum members bound once: reading one off its class (``Outcome.SUCCESS``)
# or its ``value`` goes through descriptors and costs about ten times a
# global. The engine and the renderers use these.
_SUCCESS, _FAILURE = Outcome.SUCCESS, Outcome.FAILURE
_CONDITION, _EXCEPTION = EdgeKind.CONDITION, EdgeKind.EXCEPTION


def iter_nodes(root: TraceNode) -> Iterator[tuple[TraceNode, Optional[EdgeKind]]]:
    """Preorder walk yielding each distinct (node, incoming edge kind)
    pair once; the root has None. A pair met again is passed over with
    all below it, so a memo-shared subtree is walked once, and a shared
    node reached by both edge kinds is yielded once with each."""
    stack: list[tuple[TraceNode, Optional[EdgeKind]]] = [(root, None)]
    yielded: set[tuple[int, Optional[EdgeKind]]] = set()  # by id(): the trace keeps it alive
    while stack:
        node, edge = stack.pop()
        pair = (id(node), edge)
        if pair in yielded:
            continue
        yielded.add(pair)
        yield node, edge
        for kind, child in reversed(node.children):
            stack.append((child, kind))


def _goal_text(goal: Atom, arg_texts: dict[int, str]) -> str:
    """``str(goal)``, taking each argument's text from ``arg_texts`` (by
    id(), filled on a miss): one render meets the same argument objects
    again and again, since goals share the terms no binding changed."""
    args = goal.args
    if not args:
        return goal.predicate
    parts = []
    for arg in args:
        text = arg_texts.get(id(arg))
        if text is None:
            text = arg_texts[id(arg)] = str(arg)
        parts.append(text)
    return f"{goal.predicate}({', '.join(parts)})"


def render_text(root: TraceNode) -> str:
    """Indented tree; condition children are prefixed ``->``, exception
    children ``~>`` (echoing solid versus dotted edges). A node's full
    entry is written once, at its first occurrence in preorder. A later
    occurrence of a memo-shared node is one line at its own indent and
    prefix, ``goal [glyph] (see line N)``, where N is the 1-based line of
    the full entry, and its subtree is not repeated."""
    lines: list[str] = []
    line_of: dict[int, int] = {}  # 0-based, by id(): the trace keeps every node alive
    arg_texts: dict[int, str] = {}
    # Stack items: a node with its indent and its edge prefix.
    stack: list[tuple[TraceNode, str, str]] = [(root, "", "")]
    while stack:
        node, indent, prefix = stack.pop()
        line = len(lines)
        first = line_of.setdefault(id(node), line)
        goal = _goal_text(node.goal, arg_texts)
        if first is not line:  # met before: refer to its full entry
            lines.append(f"{indent}{prefix}{goal} [{node.outcome._value_}] "
                         f"(see line {first + 1})\n")
            continue
        via = node.via
        if node.note is None and not node.defeated:
            annot = "" if via is None else f" ({via})"
        else:
            parts = [] if via is None else [via]
            if node.note is not None:
                parts.append(node.note)
            if node.defeated:
                parts.append("defeated")
            annot = f" ({'; '.join(parts)})"
        lines.append(f"{indent}{prefix}{goal} [{node.outcome._value_}]{annot}\n")
        if node.children:
            indent += "  "
            for kind, child in reversed(node.children):
                stack.append((child, indent, "-> " if kind is _CONDITION else "~> "))
    return "".join(lines)


# What follows the goal in a DOT box line, by outcome.
_SUCCESS_LABEL_END = f'\\n{_SUCCESS._value_}", color="{SUCCESS_NODE_COLOR}"];\n'
_FAILURE_LABEL_END = f'\\n{_FAILURE._value_}", color="{FAILURE_NODE_COLOR}"];\n'


def render_dot(root: TraceNode) -> str:
    """Directed graph in DOT text form.

    One box per node object, labelled with the goal and its outcome
    glyph; condition edges are solid, exception edges dotted; node colour
    separates success from failure (see SUCCESS_NODE_COLOR and
    FAILURE_NODE_COLOR). Boxes are numbered in preorder over first
    visits, and the edge into a node follows the lines of its subtree. A
    memo-shared node met again gets no second box: only the edge to its
    box is written, where it is met.
    """
    lines = ["digraph trace {\n", "  node [shape=box];\n"]
    ids: dict[int, str] = {}  # by id(): the trace keeps every node alive
    arg_texts: dict[int, str] = {}
    # Stack items: a node with its parent's id and incoming edge style, or
    # an edge line to emit once the subtree above it is done.
    stack: list = [(root, None, None)]
    while stack:
        item = stack.pop()
        if item.__class__ is str:
            lines.append(item)
            continue
        node, parent_id, style = item
        node_id = f"n{len(ids)}"
        known = ids.setdefault(id(node), node_id)
        if known is not node_id:  # its box is drawn: only the edge
            lines.append(f"  {parent_id} -> {known} [style={style}];\n")
            continue
        goal = _goal_text(node.goal, arg_texts)
        if '"' in goal:  # only a Text argument brings a character to escape, and a quote with it
            goal = escape_text(goal)
        end = _SUCCESS_LABEL_END if node.outcome is _SUCCESS else _FAILURE_LABEL_END
        lines.append(f'  {node_id} [label="{goal}{end}')
        if parent_id is not None:
            stack.append(f"  {parent_id} -> {node_id} [style={style}];\n")
        for kind, child in reversed(node.children):
            stack.append((child, node_id, "solid" if kind is _CONDITION else "dotted"))
    lines.append("}\n")
    return "".join(lines)


def render_json(root: TraceNode) -> str:
    """``json.dumps`` of ``{"trace_version": 2, "terms": [...], "nodes":
    [...], "root": k}``, whose rows cite only rows before them, so the
    JSON nests five containers deep at any trace depth. A term row is
    ``["c", name]``, ``["v", name]``, ``["i", int]``, ``["t", str]`` or
    ``["f", functor, arg_id, ...]``, one per distinct term. A node row is
    ``[predicate, [arg_id, ...], outcome, via, defeated, note, [[edge,
    node_id], ...]]``, one per node object, so a memo-shared subtree is
    written once. Both walks are post-order, on explicit stacks."""
    terms: list[list] = []
    term_ids: dict[Term, int] = {}  # keyed by the term: a Compound caches its hash
    arg_ids: dict[int, int] = {}  # by id(), as node_ids: goals share unchanged terms

    def term_id(term: Term) -> int:  # for a term object not yet in arg_ids
        stack = [term]
        while stack:
            top = stack[-1]
            if top in term_ids:
                stack.pop()
            elif top.__class__ is not Compound:
                kind = _TERM_KINDS[top.__class__]
                term_ids[stack.pop()] = len(terms)
                terms.append([kind, top.name if kind in "cv" else top.value])
            else:
                missing = [arg for arg in top.args if arg not in term_ids]
                if missing:
                    stack += reversed(missing)
                    continue
                term_ids[stack.pop()] = len(terms)
                terms.append(["f", top.functor, *[term_ids[arg] for arg in top.args]])
        return arg_ids.setdefault(id(term), term_ids[term])

    nodes: list[list] = []
    node_ids: dict[int, int] = {}  # keyed by id(): the tree keeps every node alive
    # Each open node with the iterator over its children: a child already
    # numbered, a memo-shared subtree, is passed over when it is reached.
    stack = [(root, iter(root.children))]
    while stack:
        node, children = stack[-1]
        for _, child in children:
            if id(child) not in node_ids:
                stack.append((child, iter(child.children)))
                break
        else:  # every child numbered
            stack.pop()
            node_ids[id(node)] = len(nodes)
            # Loops, not comprehensions: each of those is a frame per node.
            goal, ids, edges = node.goal, [], []
            for arg in goal.args:
                row = arg_ids.get(id(arg))
                ids.append(term_id(arg) if row is None else row)
            for kind, child in node.children:
                edges.append([kind._value_, node_ids[id(child)]])
            nodes.append([goal.predicate, ids, node.outcome._value_, node.via, node.defeated,
                          node.note, edges])
    return json.dumps({"trace_version": TRACE_VERSION, "terms": terms, "nodes": nodes,
                       "root": node_ids[id(root)]}, check_circular=False)  # all new: no cycle


# The constructor and JSON type of each term row kind but "f".
_TERM_ROWS = {"c": (Constant, str), "v": (Variable, str), "i": (Integer, int), "t": (Text, str)}
_TERM_KINDS = {make: kind for kind, (make, _) in _TERM_ROWS.items()}
_OUTCOMES = {outcome.value: outcome for outcome in Outcome}
_EDGES = {kind.value: kind for kind in EdgeKind}
_LABEL_TYPES = (str, type(None))  # of via and note


def _malformed(detail: str) -> ValueError:
    return ValueError(f"malformed trace JSON: {detail}")


def _cited(ids: list, rows: list, what: str) -> tuple:
    """The rows ``ids`` cite, once each is the id of a row already built."""
    for value in ids:
        if value.__class__ is not int or not 0 <= value < len(rows):
            raise _malformed(f"{what} cites {value!r}, not the id of an earlier row")
    return tuple([rows[value] for value in ids])


def _term(row: object, terms: list[Term]) -> Term:
    """The term of one row; ``terms`` holds those of the rows before it."""
    kind = row[0] if row.__class__ is list and row and row[0].__class__ is str else None
    if kind == "f" and len(row) > 2 and row[1].__class__ is str:
        make, args = Compound, (row[1], _cited(row[2:], terms, f"term {len(terms)}"))
    elif kind in _TERM_ROWS and len(row) == 2 and row[1].__class__ is _TERM_ROWS[kind][1]:
        make, args = _TERM_ROWS[kind][0], (row[1],)
    else:
        raise _malformed(f"term {len(terms)} {row!r} is not a term row")
    try:
        return make(*args)
    except ValueError as exc:  # a name the constructor rejects
        raise _malformed(f"term {len(terms)}: {exc}") from None


def _trace_node(row: object, terms: list[Term], nodes: list[TraceNode]) -> TraceNode:
    """The node of one row; ``nodes`` holds those of the rows before it."""
    if row.__class__ is not list or len(row) != 7:
        raise _malformed(f"node {len(nodes)} {row!r} does not have 7 fields")
    predicate, args, outcome, via, defeated, note, children = row
    if not (predicate.__class__ is str and args.__class__ is list and outcome.__class__ is str
            and outcome in _OUTCOMES and via.__class__ in _LABEL_TYPES
            and defeated.__class__ is bool and note.__class__ in _LABEL_TYPES
            and children.__class__ is list):
        raise _malformed(f"node {len(nodes)} {row!r} is not a node row")
    args = _cited(args, terms, f"node {len(nodes)}")
    try:
        goal = Atom(predicate, args)
    except ValueError as exc:  # a predicate name the constructor rejects
        raise _malformed(f"node {len(nodes)}: {exc}") from None
    edges = []
    for pair in children:
        if not (pair.__class__ is list and len(pair) == 2 and pair[0].__class__ is str
                and pair[0] in _EDGES and pair[1].__class__ is int and 0 <= pair[1] < len(nodes)):
            raise _malformed(f"node {len(nodes)} child {pair!r} is not [edge, earlier node id]")
        edges.append((_EDGES[pair[0]], nodes[pair[1]]))
    return TraceNode(goal, _OUTCOMES[outcome], via, defeated, edges, note)


def trace_from_json(text: str) -> TraceNode:
    """Read render_json output back into an equal TraceNode tree, at any
    depth: one ``json.loads``, then one forward pass over each table that
    builds every row from rows already built. Terms and goals are made
    by the ``ast`` constructors, which check every name. Only version 2
    is read: any other version, and any malformed row, raises ValueError."""
    try:
        obj = json.loads(text)
    except RecursionError:  # the C decoder recurses once per container
        raise _malformed("nested too deeply for version 2") from None
    version = obj.get("trace_version") if obj.__class__ is dict else None
    if version != TRACE_VERSION:
        raise ValueError(f"trace JSON version {version!r} is not read, only {TRACE_VERSION}")
    if obj.keys() != {"trace_version", "terms", "nodes", "root"} or not (
            obj["terms"].__class__ is list and obj["nodes"].__class__ is list):
        raise _malformed("the top object is not trace_version, terms, nodes and root")
    terms: list[Term] = []
    for row in obj["terms"]:
        terms.append(_term(row, terms))
    nodes: list[TraceNode] = []
    for row in obj["nodes"]:
        nodes.append(_trace_node(row, terms, nodes))
    return _cited([obj["root"]], nodes, "root")[0]
