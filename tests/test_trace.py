"""Trace rendering: text, DOT, and JSON round-trips."""

from __future__ import annotations

import json
import random
import re
import textwrap
import time

import pytest
from hypothesis import given, settings, strategies as st

from proleg.ast import (IDENT_PATTERN, VARIABLE_PATTERN, Atom, Compound, Constant, FactBase,
                        Integer, Record, Text, Variable, escape_text, renamed_variables)
from proleg.engine import solve
from proleg.parser import parse_atom, parse_facts, parse_program
from proleg.trace import (
    EdgeKind,
    FACT_MARKER,
    Outcome,
    TraceNode,
    iter_nodes,
    render_dot,
    render_json,
    render_text,
    trace_from_json,
)

from helpers import (
    assert_trace_invariants,
    random_ground_program,
    random_trace,
    reference_trace_obj,
    run_fresh_python,
    tree_dot,
    tree_text,
    validate_dot,
)
from test_render_pins import text_trace


def fact_node(text: str = "f(a)") -> TraceNode:
    return TraceNode(Atom("f", (Constant("a"),)), Outcome.SUCCESS, via=FACT_MARKER)


def defeated_consent_node() -> TraceNode:
    given = TraceNode(
        Atom("consent_given", (Constant("case1"),)), Outcome.SUCCESS, via=FACT_MARKER
    )
    withdrawn = TraceNode(
        Atom("consent_withdrawn", (Constant("case1"),)), Outcome.SUCCESS, via=FACT_MARKER
    )
    return TraceNode(
        Atom("basis_consent", (Constant("case1"),)),
        Outcome.FAILURE,
        via="r7",
        defeated=True,
        children=((EdgeKind.CONDITION, given), (EdgeKind.EXCEPTION, withdrawn)),
    )


class TestRenderText:
    def test_single_fact_node(self):
        assert render_text(fact_node()) == "f(a) [o] (fact)\n"

    def test_no_rule_matched(self):
        node = TraceNode(Atom("q"), Outcome.FAILURE, note="no rule matched")
        assert render_text(node) == "q [x] (no rule matched)\n"

    def test_defeated_node_shows_both_edge_kinds(self):
        text = render_text(defeated_consent_node())
        assert "basis_consent(case1) [x]" in text
        assert "-> consent_given(case1) [o]" in text
        assert "~> consent_withdrawn(case1) [o]" in text

    def test_deterministic(self):
        node = defeated_consent_node()
        assert render_text(node) == render_text(node)


# A goal's text needs escaping for a DOT label only where it holds a
# quote: the characters ``escape_text`` rewrites enter a goal's text
# only through a Text argument, and a Text's text starts with ``"``.
_NAMES = st.from_regex(IDENT_PATTERN, fullmatch=True)
_LEAVES = st.one_of(
    _NAMES.map(Constant),
    st.from_regex(VARIABLE_PATTERN, fullmatch=True).map(Variable),
    st.builds(lambda name, serial: renamed_variables([name], serial)[0],
              st.from_regex(VARIABLE_PATTERN, fullmatch=True), st.integers(0, 10**6)),
    st.integers(-10**12, 10**12).map(Integer),
    st.text().map(Text),
)
_TERMS = st.recursive(_LEAVES, lambda inner: st.builds(
    Compound, _NAMES, st.lists(inner, min_size=1, max_size=3).map(tuple)), max_leaves=8)


class TestRenderDot:
    def test_single_node(self):
        dot = render_dot(fact_node())
        validate_dot(dot)
        assert dot.count("label=") == 1
        assert "->" not in dot
        assert "style=" not in dot  # no edges at all

    def test_defeated_node_has_dotted_edge(self):
        dot = render_dot(defeated_consent_node())
        validate_dot(dot)
        assert "[style=dotted]" in dot
        assert "[style=solid]" in dot

    def test_outcome_colors_differ(self):
        dot = render_dot(defeated_consent_node())
        assert 'color="darkgreen"' in dot
        assert 'color="firebrick"' in dot

    def test_label_escaping(self):
        from proleg.ast import Text

        # The goal's text escapes the string once, the DOT label once more.
        node = TraceNode(Atom("p", (Text('say "hi"\\ \n\t\r'),)), Outcome.SUCCESS,
                         via=FACT_MARKER)
        dot = render_dot(node)
        validate_dot(dot)
        assert dot.splitlines()[2] == (
            r'  n0 [label="p(\"say \\\"hi\\\"\\\\ \\n\\t\\r\")\no", color="darkgreen"];')
        assert render_text(node) == r'p("say \"hi\"\\ \n\t\r") [o] (fact)' + "\n"

    @given(st.builds(Atom, _NAMES, st.lists(_TERMS, max_size=3).map(tuple)))
    def test_renders_write_a_goal_as_its_str(self, goal):
        # The second goal holds the first one's argument objects: the
        # renderers take an argument's text once per render.
        twin = Atom(f"{goal.predicate}_twin", goal.args)
        node = TraceNode(goal, Outcome.SUCCESS,
                         children=((EdgeKind.CONDITION, TraceNode(twin, Outcome.FAILURE)),))
        assert render_text(node) == f"{goal} [o]\n  -> {twin} [x]\n"
        assert render_dot(node) == tree_dot(node)

    @given(st.builds(Atom, _NAMES, st.lists(_TERMS, max_size=3).map(tuple)))
    def test_only_a_goal_with_a_quote_needs_escaping(self, goal):
        text = str(goal)
        if '"' not in text:
            assert escape_text(text) == text
        pending, has_text = list(goal.args), False
        while pending:
            term = pending.pop()
            has_text |= term.__class__ is Text
            if term.__class__ is Compound:
                pending += term.args
        if has_text:
            assert '"' in text

    def test_random_traces_are_valid_dot(self):
        rng = random.Random(99)
        for _ in range(40):
            program, facts, universe = random_ground_program(rng)
            if not universe:
                continue
            _, trace = solve(program, facts, rng.choice(universe))
            validate_dot(render_dot(trace))


class TestRenderJson:
    def test_fact_node_schema(self):
        assert json.loads(render_json(fact_node())) == {
            "trace_version": 2,
            "terms": [["c", "a"]],
            "nodes": [["f", [0], "o", "fact", False, None, []]],
            "root": 0,
        }

    def test_key_order_is_stable(self):
        text = render_json(fact_node())
        assert text.startswith('{"trace_version": 2, "terms": [')
        assert list(json.loads(text)) == ["trace_version", "terms", "nodes", "root"]

    def test_defeated_node_schema(self):
        parsed = json.loads(render_json(defeated_consent_node()))
        assert parsed["terms"] == [["c", "case1"]]  # one row for the three goals' case1
        assert parsed["nodes"] == [
            ["consent_given", [0], "o", "fact", False, None, []],
            ["consent_withdrawn", [0], "o", "fact", False, None, []],
            ["basis_consent", [0], "x", "r7", True, None, [["condition", 0], ["exception", 1]]],
        ]
        assert parsed["root"] == 2

    def test_shared_nodes_and_terms_are_written_once(self):
        shared = TraceNode(Atom("q", (Compound("f", (Constant("a"),)),)), Outcome.SUCCESS,
                           via=FACT_MARKER)
        left = TraceNode(Atom("l", (Compound("f", (Constant("a"),)),)), Outcome.SUCCESS,
                         via="r1", children=((EdgeKind.CONDITION, shared),))
        root = TraceNode(Atom("p"), Outcome.SUCCESS, via="r2",
                         children=((EdgeKind.CONDITION, left), (EdgeKind.CONDITION, shared)))
        parsed = json.loads(render_json(root))
        assert parsed["terms"] == [["c", "a"], ["f", "f", 0]]
        assert [row[0] for row in parsed["nodes"]] == ["q", "l", "p"]
        rebuilt = trace_from_json(render_json(root))
        assert rebuilt == root
        assert rebuilt.children[0][1].children[0][1] is rebuilt.children[1][1]

    def test_round_trip_equality(self):
        node = defeated_consent_node()
        assert trace_from_json(render_json(node)) == node

    def test_round_trip_random_traces(self):
        rng = random.Random(5)
        for _ in range(30):
            program, facts, universe = random_ground_program(rng)
            if not universe:
                continue
            _, trace = solve(program, facts, rng.choice(universe))
            rebuilt = trace_from_json(render_json(trace))
            assert rebuilt == trace
            assert_trace_invariants(rebuilt)

    def test_version_required(self):
        with pytest.raises(ValueError):
            trace_from_json('{"goal": "f", "outcome": "o"}')

    def test_version_1_is_no_longer_read(self):
        version_1 = json.dumps({"trace_version": 1, "goal": "f(a)", "outcome": "o",
                                "via": "fact", "defeated": False, "note": None,
                                "children": []}, indent=2)
        with pytest.raises(ValueError, match="^trace JSON version 1 is not read"):
            trace_from_json(version_1)
        # A deep version 1 trace nests past what json.loads reads at this limit.
        deep = '{"trace_version": 1, "children": ' + "[" * 100_000 + "]" * 100_000 + "}"
        with pytest.raises(ValueError, match="^malformed trace JSON: nested too deeply"):
            trace_from_json(deep)

    def test_bad_outcome_rejected(self):
        text = render_json(fact_node()).replace('"o"', '"maybe"')
        with pytest.raises(ValueError):
            trace_from_json(text)


_DELETED = object()
# Paths name steps in the JSON document. A path that starts with a field
# name starts in the root node's row: ``goal`` is its predicate, then
# ``args``, ``outcome``, ``via``, ``defeated``, ``note`` and ``children``;
# a child pair holds ``edge`` and ``node``, and a ``node`` step that is
# not the last goes on to the row of the node it cites.
_ROW_FIELDS = {"goal": 0, "args": 1, "outcome": 2, "via": 3, "defeated": 4, "note": 5,
               "children": 6, "edge": 0, "node": 1}


def _step(name: str):
    return int(name) if name.isdigit() else _ROW_FIELDS.get(name, name)


@pytest.mark.parametrize("path, value", [
    ("goal", "p("),
    ("goal", "p(X) <= q"),
    ("goal", 5),
    ("goal", None),
    ("outcome", ["o"]),
    ("outcome", "maybe"),
    ("via", 3),
    ("defeated", "false"),
    ("defeated", 0),
    ("note", [1]),
    ("note", _DELETED),
    ("children", 5),
    ("children", {"edge": "condition"}),
    ("children.0", 5),
    ("children.0", {"edge": "condition"}),
    ("children.0.edge", 1),
    ("children.0.edge", "because"),
    ("children.0.node", [1]),
    ("children.0.node.goal", "p("),
    # Ids: forward, out of range, negative, or a bool.
    ("args.0", 1),
    ("args.0", -1),
    ("args.0", False),
    ("args", 0),
    ("children.0.node", 2),
    ("children.0.node", 3),
    ("children.0.node", True),
    ("root", 3),
    ("root", -1),
    ("root", True),
    ("root", "2"),
    ("root", _DELETED),
    ("terms.0", ["f", "g", 0]),
    ("terms", [["c", "case1"], ["f", "g", 0, 2]]),
    ("terms", [["c", "case1"], ["f", "g", True]]),
    # Term rows: unknown kind, invalid name, wrong JSON type, no arguments.
    ("terms.0.0", "x"),
    ("terms.0.1", "Case1"),
    ("terms.0", ["v", "x"]),
    ("terms", [["c", "case1"], ["f", "G", 0]]),
    ("terms.0", ["c", 5]),
    ("terms.0", ["i", "5"]),
    ("terms.0", ["i", True]),
    ("terms.0", ["i", 1.5]),
    ("terms.0", ["t", None]),
    ("terms.0", ["f", "g"]),
    ("terms.0", []),
    ("terms.0", "case1"),
    # A field missing or extra, in a term row, node row, child pair or the document.
    ("terms.0", ["c", "case1", "x"]),
    ("nodes.0", ["consent_given", [0], "o", "fact", False, None]),
    ("nodes.0", ["consent_given", [0], "o", "fact", False, None, [], None]),
    ("children.0", ["condition"]),
    ("children.0", ["condition", 0, 0]),
    ("nodes.1", "x"),
    ("nodes", {}),
    ("terms", None),
    ("terms", _DELETED),
    ("extra", 1),
])
def test_malformed_trace_json_is_a_value_error(path, value):
    obj = json.loads(render_json(defeated_consent_node()))
    steps = path.split(".")
    container = obj["nodes"][obj["root"]] if steps[0] in _ROW_FIELDS else obj
    for name in steps[:-1]:
        container = obj["nodes"][container[1]] if name == "node" else container[_step(name)]
    if value is _DELETED:
        del container[_step(steps[-1])]
    else:
        container[_step(steps[-1])] = value
    with pytest.raises(ValueError, match="^malformed trace JSON: "):
        trace_from_json(json.dumps(obj))


def test_glyph_mapping_everywhere():
    node = defeated_consent_node()
    assert Outcome.SUCCESS.glyph == "o"
    assert Outcome.FAILURE.glyph == "x"
    text = render_text(node)
    assert "[x]" in text and "[o]" in text
    dot = render_dot(node)
    assert "\\no" in dot and "\\nx" in dot
    parsed = json.loads(render_json(node))
    assert parsed["nodes"][parsed["root"]][2] == "x"


def test_iter_nodes_reports_incoming_edges():
    node = defeated_consent_node()
    edges = {str(n.goal): e for n, e in iter_nodes(node)}
    assert edges["basis_consent(case1)"] is None
    assert edges["consent_given(case1)"] is EdgeKind.CONDITION
    assert edges["consent_withdrawn(case1)"] is EdgeKind.EXCEPTION


@given(st.integers(min_value=0, max_value=2**32))
@settings(max_examples=150, deadline=None)
def test_render_json_is_json_dumps_of_the_node_object(seed):
    # The goals share argument objects and hold equal terms built apart,
    # so one term row per distinct value must hold whether render_json
    # finds an argument by its identity or by its value.
    trace = random_trace(random.Random(seed))
    text = render_json(trace)
    assert text == json.dumps(reference_trace_obj(trace))
    assert trace_from_json(text) == trace


@given(st.integers(min_value=0, max_value=2**32))
@settings(max_examples=150, deadline=None)
def test_equality_hash_and_repr_agree_with_the_fields_tuple(seed):
    # TraceNode walks these on explicit stacks; on a shallow tree they must
    # give what the generic record forms over its fields give.
    trace = random_trace(random.Random(seed))
    fields = (trace.goal, trace.outcome, trace.via, trace.defeated, trace.children, trace.note)
    assert hash(trace) == hash(fields)
    assert repr(trace) == Record.__repr__(trace)
    obj = json.loads(render_json(trace))
    twin = trace_from_json(json.dumps(obj))  # equal, built of other objects
    assert twin == trace and hash(twin) == hash(trace) and repr(twin) == repr(trace)
    obj["nodes"][0][5] = "" if obj["nodes"][0][5] is None else None  # the first leaf's note
    changed = trace_from_json(json.dumps(obj))
    assert changed != trace and not changed == trace
    other = random_trace(random.Random(seed + 1))
    assert (other == trace) == ((other.goal, other.outcome, other.via, other.defeated,
                                 other.children, other.note) == fields)


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 5) | st.floats() | st.text(max_size=6)
    | st.sampled_from(["c", "v", "i", "t", "f", "o", "x", "condition", "exception", "X"]),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=4),
    max_leaves=8,
)


@given(st.integers(min_value=0, max_value=2**32), _JSON_VALUES, st.data())
@settings(max_examples=200, deadline=None)
def test_a_changed_document_reads_back_or_is_a_value_error(seed, value, data):
    obj = json.loads(render_json(random_trace(random.Random(seed))))
    # Every list in the document: both tables, each row, argument list and child pair.
    lists = [obj["terms"], obj["nodes"], *obj["terms"], *obj["nodes"]]
    lists += [part for row in obj["nodes"] for part in (row[1], row[6], *row[6])]
    target = data.draw(st.sampled_from([part for part in lists if part]))
    target[data.draw(st.integers(0, len(target) - 1))] = value
    try:
        trace_from_json(json.dumps(obj))
    except ValueError as exc:
        assert str(exc).startswith("malformed trace JSON: ")


# A 3,001-level chain; argv[1] picks what the fresh interpreter does with it.
_DEEP_CHAIN_SCRIPT = textwrap.dedent("""
    import sys
    from proleg.ast import Atom
    from proleg.trace import (EdgeKind, Outcome, TraceNode, iter_nodes,
                              render_dot, render_json, render_text, trace_from_json)

    assert sys.getrecursionlimit() == 1000
    node = TraceNode(Atom("p3000"), Outcome.SUCCESS, via="fact")
    for i in range(2999, -1, -1):
        node = TraceNode(Atom(f"p{i}"), Outcome.SUCCESS, via=f"r{i + 1}",
                         children=((EdgeKind.CONDITION, node),))
    if sys.argv[1] == "walk":
        text = render_text(node)
        dot = render_dot(node)
        print(len(text.splitlines()), dot.count(" -> "), sum(1 for _ in iter_nodes(node)))
    else:
        js = render_json(node)
        back = trace_from_json(js)
        print(len(js), render_json(back) == js, render_text(back) == render_text(node))
        print(back == node, hash(back) == hash(node), len(repr(back)), repr(back) == repr(node))
    print(sys.getrecursionlimit())
""")


def test_walkers_handle_deep_traces_at_the_default_recursion_limit():
    # A fresh interpreter, so the limit is the default one.
    done = run_fresh_python("-c", _DEEP_CHAIN_SCRIPT, "walk")
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["3001 3000 3001", "1000"]


def test_deep_trace_json_reads_back_at_the_default_recursion_limit():
    # The whole chain, in a fresh interpreter. Its JSON nests five
    # containers deep and grows linearly with the depth: 3,001 node rows
    # in 192 KB, where the indented version 1 took 324 MB. The tree read
    # back is equal to the original, with the same hash and repr.
    done = run_fresh_python("-c", _DEEP_CHAIN_SCRIPT, "json")
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["191776 True True", "True True 450895 True", "1000"]


def test_goals_nested_past_the_parser_bound_read_back():
    # The engine builds q(s^120(z), c120, X) by unification, deeper than
    # parser.MAX_TERM_DEPTH allows in source text; its trace still reads back.
    source = "top(X) <= q(z, c0, X).\n" + "".join(
        f"q(N, c{i}, X) <= q(s(N), c{i + 1}, X).\n" for i in range(120)) + "q(N, c120, N) <=.\n"
    outcome, trace = solve(parse_program(source), FactBase(), Atom("top", (Variable("X"),)))
    assert outcome is Outcome.SUCCESS
    text = render_json(trace)
    rebuilt = trace_from_json(text)
    assert render_json(rebuilt) == text
    assert render_text(rebuilt) == render_text(trace)


def _nested_goal_chain(levels: int) -> TraceNode:
    """p(s(z)) <- p(s(s(z))) <- ... <- p(s^levels(z)), each goal built on the last."""
    goals = [Compound("s", (Constant("z"),))]
    while len(goals) < levels:
        goals.append(Compound("s", (goals[-1],)))
    node = TraceNode(Atom("p", (goals.pop(),)), Outcome.SUCCESS, via=FACT_MARKER)
    while goals:
        node = TraceNode(Atom("p", (goals.pop(),)), Outcome.SUCCESS, via="r1",
                         children=((EdgeKind.CONDITION, node),))
    return node


def test_json_grows_linearly_with_goal_nesting():
    # Each goal's term shares all but one row with the goal below it.
    texts = [render_json(_nested_goal_chain(levels)) for levels in (600, 1200)]
    assert len(texts[1]) < 2.2 * len(texts[0])
    assert render_json(trace_from_json(texts[1])) == texts[1]


# ----------------------------------------------------------------------
# A trace is a DAG: the memo hands a ground goal's one node to every later
# caller. Every renderer and walk visits each node object once.


def _shared_dag() -> TraceNode:
    """p with children l (which holds s) and s again, by the other edge
    kind; s holds a leaf of its own."""
    shared = TraceNode(Atom("s"), Outcome.SUCCESS, via="r2",
                       children=((EdgeKind.CONDITION, fact_node()),))
    left = TraceNode(Atom("l"), Outcome.SUCCESS, via="r1",
                     children=((EdgeKind.CONDITION, shared),))
    return TraceNode(Atom("p"), Outcome.FAILURE, via="r3", defeated=True,
                     children=((EdgeKind.CONDITION, left), (EdgeKind.EXCEPTION, shared)))


def _unfolded(node: TraceNode) -> TraceNode:
    """An equal tree built of new node objects, one per occurrence."""
    return TraceNode(node.goal, node.outcome, node.via, node.defeated,
                     tuple((kind, _unfolded(child)) for kind, child in node.children), node.note)


def _distinct_nodes(root: TraceNode) -> list[TraceNode]:
    """The node objects in preorder of their first occurrence."""
    nodes: dict[int, TraceNode] = {}
    pending = [root]
    while pending:
        node = pending.pop()
        if id(node) not in nodes:
            nodes[id(node)] = node
            pending += [child for _, child in reversed(node.children)]
    return list(nodes.values())


def _tree_size(root: TraceNode) -> int:
    pending, size = [root], 0
    while pending:
        size += 1
        pending += [child for _, child in pending.pop().children]
    return size


def test_a_shared_node_is_written_in_full_once():
    dag = _shared_dag()
    assert render_text(dag) == (
        "p [x] (r3; defeated)\n"
        "  -> l [o] (r1)\n"
        "    -> s [o] (r2)\n"
        "      -> f(a) [o] (fact)\n"
        "  ~> s [o] (see line 3)\n"
    )
    assert render_dot(dag) == (
        "digraph trace {\n"
        "  node [shape=box];\n"
        '  n0 [label="p\\nx", color="firebrick"];\n'
        '  n1 [label="l\\no", color="darkgreen"];\n'
        '  n2 [label="s\\no", color="darkgreen"];\n'
        '  n3 [label="f(a)\\no", color="darkgreen"];\n'
        "  n2 -> n3 [style=solid];\n"
        "  n1 -> n2 [style=solid];\n"
        "  n0 -> n1 [style=solid];\n"
        "  n0 -> n2 [style=dotted];\n"
        "}\n"
    )


def test_iter_nodes_yields_each_pair_once_and_walks_a_node_once():
    dag = _shared_dag()
    shared = dag.children[1][1]
    pairs = list(iter_nodes(dag))
    assert [(str(node.goal), edge) for node, edge in pairs] == [
        ("p", None), ("l", EdgeKind.CONDITION), ("s", EdgeKind.CONDITION),
        ("f(a)", EdgeKind.CONDITION), ("s", EdgeKind.EXCEPTION)]
    assert pairs[2][0] is shared and pairs[4][0] is shared
    twice = TraceNode(Atom("q"), Outcome.SUCCESS, via="r1",
                      children=((EdgeKind.CONDITION, shared), (EdgeKind.CONDITION, shared)))
    assert [str(node.goal) for node, _ in iter_nodes(twice)] == ["q", "s", "f(a)"]


def test_a_dag_equals_its_unfolded_tree_and_only_that():
    dag = _shared_dag()
    tree = _unfolded(dag)
    assert dag == tree and tree == dag and hash(dag) == hash(tree)
    assert repr(dag) == repr(tree)  # repr writes the unfolded tree
    # Only the second occurrence of s differs: the pair (s, its second copy)
    # is a new pair, so it is compared, not skipped.
    obj = json.loads(render_json(tree))
    leaf_rows = [row for row in obj["nodes"] if row[0] == "f"]
    assert len(leaf_rows) == 2
    leaf_rows[1][3] = "r9"
    changed = trace_from_json(json.dumps(obj))
    assert changed != dag and dag != changed


def _unfold_text(text: str) -> str:
    """The text with each ``(see line N)`` line replaced by the entry at
    line N and its subtree, moved to that line's indent and prefix."""
    lines = text.splitlines(keepends=True)

    def indent(line: str) -> int:
        return len(line) - len(line.lstrip(" "))

    def expand(block: list[str]) -> list[str]:
        out = []
        for line in block:
            see = re.fullmatch(r"( *(?:-> |~> )?)(.*) \(see line (\d+)\)\n", line)
            if see is None:
                out.append(line)
                continue
            start = int(see[3]) - 1
            end = start + 1
            while end < len(lines) and indent(lines[end]) > indent(lines[start]):
                end += 1
            head, shift = lines[start], indent(line) - indent(lines[start])
            body = head.lstrip(" ")
            body = body[3:] if body[:3] in ("-> ", "~> ") else body
            # The same goal and glyph, then the entry's labels if it has any.
            assert body == see[2] + "\n" or body.startswith(see[2] + " ("), (line, head)
            moved = [see[1] + body] + [" " * (indent(sub) + shift) + sub.lstrip(" ")
                                       for sub in lines[start + 1:end]]
            out += expand(moved)
        return out

    return "".join(expand(lines))


def _check_dot_draws_the_dag(dot: str, root: TraceNode) -> None:
    """One box per node object, numbered in preorder of first occurrence,
    and each node's edges, in child order, to the boxes of its children."""
    validate_dot(dot)
    body = dot.splitlines(keepends=True)
    assert body[:2] == ["digraph trace {\n", "  node [shape=box];\n"] and body[-1] == "}\n"
    boxes: dict[str, tuple[str, str]] = {}
    edges: dict[str, list[tuple[str, str]]] = {}
    for line in body[2:-1]:
        box = re.fullmatch(r'  (n\d+) \[label="(.*)", color="(\w+)"\];\n', line)
        if box:
            boxes[box[1]] = (box[2], box[3])
            continue
        edge = re.fullmatch(r"  (n\d+) -> (n\d+) \[style=(solid|dotted)\];\n", line)
        assert edge, line
        edges.setdefault(edge[1], []).append((edge[2], edge[3]))
    nodes = _distinct_nodes(root)
    assert list(boxes) == [f"n{index}" for index in range(len(nodes))]
    box_of = {id(node): f"n{index}" for index, node in enumerate(nodes)}
    for node in nodes:
        box = box_of[id(node)]
        color = "darkgreen" if node.outcome is Outcome.SUCCESS else "firebrick"
        assert boxes[box] == (f"{escape_text(str(node.goal))}\\n{node.outcome.glyph}", color)
        assert edges.get(box, []) == [
            (box_of[id(child)], "solid" if kind is EdgeKind.CONDITION else "dotted")
            for kind, child in node.children]


@given(st.integers(min_value=0, max_value=2**32), st.booleans())
@settings(max_examples=150, deadline=None)
def test_text_and_dot_write_each_node_once_and_a_tree_as_before(seed, solved):
    # Traces the engine made over random ground programs, and random traces
    # whose goals hold Text arguments and whose nodes are shared at random.
    rng = random.Random(seed)
    trace = text_trace(rng)
    if solved:
        program, facts, universe = random_ground_program(rng)
        trace = solve(program, facts, rng.choice(universe))[1]
    text, dot = render_text(trace), render_dot(trace)
    rows = len(json.loads(render_json(trace))["nodes"])
    full = 0
    for number, line in enumerate(text.splitlines(), 1):
        see = re.search(r" \(see line (\d+)\)$", line)
        full += see is None
        assert see is None or int(see[1]) < number  # back to the first occurrence
    assert full == rows == dot.count(" [label=")
    assert _unfold_text(text) == tree_text(trace)
    _check_dot_draws_the_dag(dot, trace)
    # iter_nodes: the tree's preorder pairs, each after its first occurrence
    # dropped, so a fragment check finds what it found on the tree.
    pending, tree_pairs = [(trace, None)], []
    while pending:
        node, edge = pending.pop()
        tree_pairs.append((id(node), edge))
        pending += [(child, kind) for kind, child in reversed(node.children)]
    walked = [(id(node), edge) for node, edge in iter_nodes(trace)]
    assert walked == list(dict.fromkeys(tree_pairs))
    if rows == _tree_size(trace):  # no node is shared: the bytes of the tree renderers
        assert text == tree_text(trace) and dot == tree_dot(trace)


def _doubling_chain(levels: int) -> tuple:
    """``p_i(a) <= p_{i+1}(a), p_{i+1}(a).`` down to the one fact
    ``p_levels(a)``: its trace unfolds to 2^(levels + 1) - 1 nodes."""
    program = parse_program("".join(f"p{i}(a) <= p{i + 1}(a), p{i + 1}(a).\n"
                                    for i in range(levels)))
    return program, parse_facts(f"p{levels}(a)."), parse_atom("p0(a)")


def test_a_doubling_chain_renders_and_walks_in_time_and_size_linear_in_its_levels():
    # Smaller chains first, so that a walk that unfolds the DAG fails on
    # them (on the counts at 12 levels, in 8,191 tree nodes, or on the time
    # at 20, in 2,097,151) before 60 levels would run for ever.
    for levels in (12, 20, 60):
        program, facts, query = _doubling_chain(levels)
        trace, twin = (solve(program, facts, query)[1] for _ in range(2))
        assert trace is not twin
        # The same shape built by hand, each level holding the next by both
        # edge kinds: iter_nodes yields each node with each kind once.
        mixed = TraceNode(Atom(f"p{levels}"), Outcome.SUCCESS, via=FACT_MARKER)
        for level in reversed(range(levels)):
            mixed = TraceNode(Atom(f"p{level}"), Outcome.FAILURE, via=f"r{level + 1}",
                              children=((EdgeKind.CONDITION, mixed), (EdgeKind.EXCEPTION, mixed)))
        for check in (lambda: len(render_text(trace).splitlines()) == 2 * levels + 1,
                      lambda: len(render_dot(trace).splitlines()) == 3 * levels + 4,
                      lambda: len(list(iter_nodes(trace))) <= 2 * levels + 1,
                      lambda: len(list(iter_nodes(mixed))) == 2 * levels + 1,
                      lambda: trace == twin):
            start = time.perf_counter()
            assert check(), levels
            assert time.perf_counter() - start < 0.1, levels
