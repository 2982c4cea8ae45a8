"""Reasoning traces and their renderers.

A trace is a tree with one node per evaluated goal. Each node carries
an ``o`` (success) or ``x`` (failure) outcome; edges to children are
either condition edges (solid, the conclusion-condition relation of a
rule) or exception edges (dotted, the exception relation of a
conclusion). Three renderers are provided: an indented text tree, DOT
for graph tooling, and a versioned JSON form that round-trips.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Optional, Union

from .ast import Atom
from .parser import ParseFailure, parse_atom

# The C string encoder json.dumps uses with ensure_ascii=True.
_encode = json.encoder.encode_basestring_ascii

TRACE_VERSION = 1

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


@dataclass(frozen=True)
class TraceNode:
    """One evaluated goal instance.

    ``via`` names the rule that produced a success (or ``fact``);
    ``defeated`` marks a conclusion whose conditions held but which an
    exception overturned, in which case at least one exception child
    succeeded.
    """

    goal: Atom
    outcome: Outcome
    via: Optional[str] = None
    defeated: bool = False
    children: tuple[tuple[EdgeKind, "TraceNode"], ...] = ()
    note: Optional[str] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "children", tuple(self.children))


# Enum members bound once: reading one off its class (``Outcome.SUCCESS``)
# or its ``value`` goes through descriptors and costs about ten times a
# global. The engine and the renderers use these.
_SUCCESS, _FAILURE = Outcome.SUCCESS, Outcome.FAILURE
_CONDITION, _EXCEPTION = EdgeKind.CONDITION, EdgeKind.EXCEPTION


def _node(goal: Atom, outcome: Outcome, via: Optional[str] = None, defeated: bool = False,
          children: tuple = (), note: Optional[str] = None) -> TraceNode:
    """A TraceNode whose ``children`` is already a tuple, made without the
    dataclass constructor and its frozen-field writes (about 4x cheaper)."""
    node = object.__new__(TraceNode)
    node.__dict__.update(goal=goal, outcome=outcome, via=via, defeated=defeated,
                         children=children, note=note)
    return node


def iter_nodes(root: TraceNode) -> Iterator[tuple[TraceNode, Optional[EdgeKind]]]:
    """Preorder walk yielding (node, incoming edge kind); the root has None."""
    stack: list[tuple[TraceNode, Optional[EdgeKind]]] = [(root, None)]
    while stack:
        node, edge = stack.pop()
        yield node, edge
        for kind, child in reversed(node.children):
            stack.append((child, kind))


def render_text(root: TraceNode) -> str:
    """Indented tree; condition children are prefixed ``->``, exception
    children ``~>`` (echoing solid versus dotted edges)."""
    lines: list[str] = []
    stack: list[tuple[TraceNode, Optional[EdgeKind], int]] = [(root, None, 0)]
    while stack:
        node, edge, depth = stack.pop()
        prefix = "" if edge is None else "-> " if edge is _CONDITION else "~> "
        parts = []
        if node.via is not None:
            parts.append(node.via)
        if node.note is not None:
            parts.append(node.note)
        if node.defeated:
            parts.append("defeated")
        annot = f" ({'; '.join(parts)})" if parts else ""
        lines.append(f"{'  ' * depth}{prefix}{node.goal} [{node.outcome._value_}]{annot}\n")
        for kind, child in reversed(node.children):
            stack.append((child, kind, depth + 1))
    return "".join(lines)


def _dot_escape(text: str) -> str:
    out = text.replace("\\", "\\\\").replace('"', '\\"')
    return out.replace("\n", "\\n").replace("\r", "\\r")


def render_dot(root: TraceNode) -> str:
    """Directed graph in DOT text form.

    One box per node labelled with the goal and its outcome glyph;
    condition edges are solid, exception edges dotted; node colour
    separates success from failure (see SUCCESS_NODE_COLOR and
    FAILURE_NODE_COLOR). Nodes are numbered in preorder, and the edge
    into a node follows the lines of its subtree.
    """
    lines = ["digraph trace {\n", "  node [shape=box];\n"]
    # Stack items: a node with its parent's id and incoming edge kind, or
    # an edge line to emit once the subtree above it is done.
    stack: list = [(root, None, None)]
    counter = 0
    while stack:
        item = stack.pop()
        if type(item) is str:
            lines.append(item)
            continue
        node, parent_id, kind = item
        node_id = f"n{counter}"
        counter += 1
        outcome = node.outcome
        color = SUCCESS_NODE_COLOR if outcome is _SUCCESS else FAILURE_NODE_COLOR
        label = f"{_dot_escape(str(node.goal))}\\n{outcome._value_}"
        lines.append(f'  {node_id} [label="{label}", color="{color}"];\n')
        if parent_id is not None:
            style = "solid" if kind is _CONDITION else "dotted"
            stack.append(f"  {parent_id} -> {node_id} [style={style}];\n")
        for kind, child in reversed(node.children):
            stack.append((child, node_id, kind))
    lines.append("}\n")
    return "".join(lines)


def render_json(root: TraceNode) -> str:
    """Canonical JSON with stable key order; the root object carries a
    ``trace_version`` field ahead of the node fields.

    The text is exactly ``json.dumps(obj, indent=2)`` of the object whose
    node fields are ``goal``, ``outcome``, ``via``, ``defeated``, ``note``
    and ``children`` (a list of ``{"edge", "node"}``). It is written in
    one walk with an explicit stack, so its cost is linear in its length
    and deep traces need no recursion.
    """
    # indents[k] starts a line at nesting level k. A node whose "{" sits
    # at level k has its fields at k + 1, its children list items at
    # k + 2, and each child's "edge" and "node" fields at k + 3.
    indents = ["\n"]
    pieces = ['{\n  "trace_version": ', str(TRACE_VERSION), ",\n  "]
    # Stack items: a node with the level of its "{" (already written,
    # with the indent of its first field), or text written after a subtree.
    stack: list = [(root, 0)]
    while stack:
        item = stack.pop()
        if type(item) is str:
            pieces.append(item)
            continue
        node, level = item
        while len(indents) < level + 5:
            indents.append(indents[-1] + "  ")
        field = indents[level + 1]
        pieces.append(
            f'"goal": {_encode(str(node.goal))},{field}'
            f'"outcome": "{node.outcome._value_}",{field}'
            f'"via": {_scalar(node.via)},{field}'
            f'"defeated": {"true" if node.defeated else "false"},{field}'
            f'"note": {_scalar(node.note)},{field}'
            '"children": '
        )
        if not node.children:
            pieces.append(f"[]{indents[level]}}}")
            continue
        pieces.append("[")
        item_indent = indents[level + 2]
        wrapper_field = indents[level + 3]
        stack.append(f"{field}]{indents[level]}}}")
        for index in range(len(node.children) - 1, -1, -1):
            kind, child = node.children[index]
            stack.append(f"{item_indent}}}")
            stack.append((child, level + 3))
            stack.append(
                f"{',' if index else ''}{item_indent}{{{wrapper_field}"
                f'"edge": "{kind._value_}",{wrapper_field}'
                f'"node": {{{indents[level + 4]}'
            )
    return "".join(pieces)


def _scalar(value: Optional[str]) -> str:
    return "null" if value is None else _encode(value)


# The fields of a node object and of a children item, with their JSON types.
_NODE_FIELDS = {
    "goal": str,
    "outcome": str,
    "via": (str, type(None)),
    "defeated": bool,
    "note": (str, type(None)),
    "children": list,
}
_CHILD_FIELDS = {"edge": str, "node": dict}
_OUTCOMES = {outcome.value: outcome for outcome in Outcome}
_EDGES = {kind.value: kind for kind in EdgeKind}


def _malformed(detail: str) -> ValueError:
    return ValueError(f"malformed trace JSON: {detail}")


def _checked(obj: object, fields: dict, what: str) -> dict:
    """``obj`` itself, once it is an object holding every field with its type."""
    if not isinstance(obj, dict):
        raise _malformed(f"{what} is a {type(obj).__name__}, not an object")
    for name, kind in fields.items():
        if name not in obj:
            raise _malformed(f"{what} has no {name!r}")
        if not isinstance(obj[name], kind):
            raise _malformed(f"{what} field {name!r} is a {type(obj[name]).__name__}")
    return obj


def _node_from_obj(root: dict) -> TraceNode:
    """The tree of a node object, read with an explicit stack. Nodes are
    checked in preorder, each child item just before its node, and built
    in reverse, so each node finds its children built."""
    visits: list[tuple[Optional[EdgeKind], dict, Atom]] = []
    stack: list[object] = [root]  # the root, then child items still to read
    while stack:
        obj, kind = stack.pop(), None
        if visits:
            child = _checked(obj, _CHILD_FIELDS, "child")
            if child["edge"] not in _EDGES:
                raise _malformed(f"edge {child['edge']!r}")
            obj, kind = child["node"], _EDGES[child["edge"]]
        obj = _checked(obj, _NODE_FIELDS, "node")
        try:
            goal = parse_atom(obj["goal"])
        except ParseFailure as exc:
            raise _malformed(f"goal {obj['goal']!r}: {exc}") from exc
        if obj["outcome"] not in _OUTCOMES:
            raise _malformed(f"outcome {obj['outcome']!r}")
        visits.append((kind, obj, goal))
        stack.extend(reversed(obj["children"]))
    built: list[tuple[Optional[EdgeKind], TraceNode]] = []  # first child on top
    for kind, obj, goal in reversed(visits):
        start = len(built) - len(obj["children"])
        children = tuple(reversed(built[start:]))
        del built[start:]
        built.append((kind, _node(goal, _OUTCOMES[obj["outcome"]], obj["via"], obj["defeated"],
                                  children, obj["note"])))
    return built[0][1]


# JSON whitespace. json.dumps(indent=...) writes a newline and spaces,
# which the first two parts take at the regex engine's fast one-character
# speed. Each pattern below is anchored and can backtrack only linearly.
_SPACE = r"\n? *[ \t\n\r]*"
_skip = re.compile(_SPACE).match
# Whitespace, then the next character if any.
_next_char = re.compile(_SPACE + "(.?)", re.DOTALL).match
# json's own readers of one string and of one value; the reader below
# calls the last only where no object or array starts.
_scanstring = json.decoder.scanstring
_scan_scalar = json.JSONDecoder().scan_once


def _key(text: str, index: int) -> tuple[str, int]:
    """The object key after ``index`` (and any whitespace) and where its value starts."""
    index = _skip(text, index).end()
    if text[index:index + 1] != '"':
        raise json.JSONDecodeError("Expecting property name enclosed in double quotes",
                                   text, index)
    key, index = _scanstring(text, index + 1)
    index = _skip(text, index).end()
    if text[index:index + 1] != ":":
        raise json.JSONDecodeError("Expecting ':' delimiter", text, index)
    return key, _skip(text, index + 1).end()


def _load_json(text: str) -> object:
    """``json.loads(text)`` at any nesting depth: the same value, or a
    ValueError for the same texts. The C ``json.loads`` recurses once per
    object or array, so a deep trace overflows the default recursion
    limit; this reads them with an explicit stack."""
    # Open containers, innermost last: a list with None, or a dict with
    # the key whose value is being read.
    containers: list[tuple[Union[list, dict], Optional[str]]] = []
    index = _skip(text, 0).end()
    while True:
        opening = text[index:index + 1]
        if opening == "[" or opening == "{":
            index = _skip(text, index + 1).end()
            if text[index:index + 1] == ("]" if opening == "[" else "}"):
                value, index = ([] if opening == "[" else {}), index + 1
            elif opening == "[":
                containers.append(([], None))
                continue
            else:
                key, index = _key(text, index)
                containers.append(({}, key))
                continue
        else:
            try:
                value, index = _scan_scalar(text, index)
            except StopIteration as stop:
                raise json.JSONDecodeError("Expecting value", text, stop.value) from None
        # Store the value, closing every container that ends after it.
        while containers:
            container, key = containers[-1]
            if key is None:
                container.append(value)
            else:
                container[key] = value
            found = _next_char(text, index)
            delimiter, index = found.group(1), found.end()
            if delimiter == ",":
                if key is None:
                    index = _skip(text, index).end()
                else:
                    key, index = _key(text, index)
                    containers[-1] = (container, key)
                break
            if delimiter != ("]" if key is None else "}"):
                raise json.JSONDecodeError("Expecting ',' delimiter", text, index - 1)
            value = containers.pop()[0]
        else:
            end = _skip(text, index).end()
            if end != len(text):
                raise json.JSONDecodeError("Extra data", text, end)
            return value


def trace_from_json(text: str) -> TraceNode:
    """Parse render_json output back into an equal TraceNode tree, at any depth."""
    obj = _load_json(text)
    if not isinstance(obj, dict) or obj.get("trace_version") != TRACE_VERSION:
        raise ValueError("unsupported or missing trace_version")
    return _node_from_obj(obj)
