"""Trace rendering: text, DOT, and JSON round-trips."""

from __future__ import annotations

import json
import random
import textwrap

import pytest
from hypothesis import given, settings, strategies as st

from proleg.ast import Atom, Constant
from proleg.engine import solve
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
    _load_json,
)

from helpers import (
    assert_trace_invariants,
    random_ground_program,
    random_trace,
    reference_trace_obj,
    run_fresh_python,
    validate_dot,
)


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

        node = TraceNode(Atom("p", (Text('say "hi"\\'),)), Outcome.SUCCESS, via=FACT_MARKER)
        dot = render_dot(node)
        validate_dot(dot)

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
        parsed = json.loads(render_json(fact_node()))
        assert parsed["trace_version"] == 1
        node_fields = {k: parsed[k] for k in ("goal", "outcome", "via", "defeated", "note", "children")}
        assert node_fields == {
            "goal": "f(a)",
            "outcome": "o",
            "via": "fact",
            "defeated": False,
            "note": None,
            "children": [],
        }

    def test_key_order_is_stable(self):
        text = render_json(fact_node())
        keys = [line.split('"')[1] for line in text.splitlines() if line.startswith('  "')]
        assert keys == ["trace_version", "goal", "outcome", "via", "defeated", "note", "children"]

    def test_defeated_node_schema(self):
        parsed = json.loads(render_json(defeated_consent_node()))
        assert parsed["defeated"] is True
        assert parsed["outcome"] == "x"
        exception_children = [c for c in parsed["children"] if c["edge"] == "exception"]
        assert exception_children and exception_children[0]["node"]["outcome"] == "o"

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

    def test_bad_outcome_rejected(self):
        text = render_json(fact_node()).replace('"o"', '"maybe"')
        with pytest.raises(ValueError):
            trace_from_json(text)


_DELETED = object()


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
])
def test_malformed_trace_json_is_a_value_error(path, value):
    obj = json.loads(render_json(defeated_consent_node()))
    keys = [int(key) if key.isdigit() else key for key in path.split(".")]
    container = obj
    for key in keys[:-1]:
        container = container[key]
    if value is _DELETED:
        del container[keys[-1]]
    else:
        container[keys[-1]] = value
    with pytest.raises(ValueError, match="^malformed trace JSON: "):
        trace_from_json(json.dumps(obj, indent=2))


def test_glyph_mapping_everywhere():
    node = defeated_consent_node()
    assert Outcome.SUCCESS.glyph == "o"
    assert Outcome.FAILURE.glyph == "x"
    text = render_text(node)
    assert "[x]" in text and "[o]" in text
    dot = render_dot(node)
    assert "\\no" in dot and "\\nx" in dot
    parsed = json.loads(render_json(node))
    assert parsed["outcome"] == "x"


def test_iter_nodes_reports_incoming_edges():
    node = defeated_consent_node()
    edges = {str(n.goal): e for n, e in iter_nodes(node)}
    assert edges["basis_consent(case1)"] is None
    assert edges["consent_given(case1)"] is EdgeKind.CONDITION
    assert edges["consent_withdrawn(case1)"] is EdgeKind.EXCEPTION


@given(st.integers(min_value=0, max_value=2**32))
@settings(max_examples=150, deadline=None)
def test_render_json_is_json_dumps_of_the_node_object(seed):
    trace = random_trace(random.Random(seed))
    assert render_json(trace) == json.dumps(reference_trace_obj(trace), indent=2)


_DEEP_CHAIN_SCRIPT = textwrap.dedent("""
    import sys
    from proleg.ast import Atom
    from proleg.trace import (EdgeKind, Outcome, TraceNode, iter_nodes,
                              render_dot, render_json, render_text)

    assert sys.getrecursionlimit() == 1000
    node = TraceNode(Atom("p3000"), Outcome.SUCCESS, via="fact")
    for i in range(2999, -1, -1):
        node = TraceNode(Atom(f"p{i}"), Outcome.SUCCESS, via=f"r{i + 1}",
                         children=((EdgeKind.CONDITION, node),))
        if i == 2000:
            lower = node
    text = render_text(node)
    dot = render_dot(node)
    print(len(text.splitlines()), dot.count(" -> "), sum(1 for _ in iter_nodes(node)))
    js = render_json(lower)
    print(len(js), js.count('"goal": '), js.count('"children": []'))
    print(js[:60].replace("\\n", "|"))
    print(js[-40:].replace("\\n", "|"))
    print(sys.getrecursionlimit())
""")


def test_walkers_handle_deep_traces_at_the_default_recursion_limit():
    # A fresh interpreter, so the limit is the default one.
    # Indented JSON grows with the square of the depth (324 MB for the
    # whole chain), so render_json gets its lower 1000 levels: 3000 nested
    # containers, deeper than json.loads parses at this limit. Its length
    # is that of json.dumps(reference_trace_obj(lower), indent=2).
    done = run_fresh_python("-c", _DEEP_CHAIN_SCRIPT)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == "3001 3000 3001"
    assert lines[1] == "36175133 1001 1"
    assert lines[2] == '{|  "trace_version": 1,|  "goal": "p2000",|  "outcome": "o",'
    assert lines[3] == '         }|        ]|      }|    }|  ]|}'
    assert lines[4] == "1000"


_DEEP_ROUND_TRIP_SCRIPT = textwrap.dedent("""
    import sys
    from proleg.ast import Atom
    from proleg.trace import EdgeKind, Outcome, TraceNode, render_json, trace_from_json

    node = TraceNode(Atom("p400"), Outcome.SUCCESS, via="fact")
    for i in range(399, -1, -1):
        node = TraceNode(Atom(f"p{i}"), Outcome.SUCCESS, via=f"r{i + 1}",
                         children=((EdgeKind.CONDITION, node),))
    text = render_json(node)
    print(len(text), render_json(trace_from_json(text)) == text, sys.getrecursionlimit())
""")


def test_deep_trace_json_reads_back_at_the_default_recursion_limit():
    # 401 levels are 1203 nested JSON containers, past what a recursive
    # reader manages at the default limit. Dataclass == recurses too, so
    # the rebuilt tree is compared through its rendering.
    done = run_fresh_python("-c", _DEEP_ROUND_TRIP_SCRIPT)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "5829114 True 1000\n"


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=4),
    max_leaves=12,
)
_JSON_SPACE = st.text(alphabet=" \t\n\r", max_size=2)
_JSON_NOISE = list('{}[],:" \\0123456789.eE+-tfnulrsaINy\x00\u2028')


def _read(reader, text):
    """What a reader makes of the text: the repr of its value (which tells
    1 from 1.0 and True, and shows nan), or that it raised ValueError."""
    try:
        return repr(reader(text))
    except ValueError:
        return "ValueError"


@given(_JSON_VALUES, st.none() | st.integers(0, 3) | _JSON_SPACE, _JSON_SPACE, _JSON_SPACE,
       _JSON_SPACE, _JSON_SPACE, st.booleans(), st.data())
@settings(max_examples=300, deadline=None)
def test_load_json_reads_what_json_loads_reads(value, indent, a, b, c, d, ascii, data):
    text = json.dumps(value, indent=indent, separators=(f"{a},{b}", f"{c}:{d}"),
                      ensure_ascii=ascii)
    text = data.draw(_JSON_SPACE) + text + data.draw(_JSON_SPACE)
    assert _read(_load_json, text) == _read(json.loads, text) != "ValueError"
    cut = data.draw(st.integers(0, len(text)))
    assert _read(_load_json, text[:cut]) == _read(json.loads, text[:cut])
    at = data.draw(st.integers(0, len(text)))
    noise = data.draw(st.sampled_from(_JSON_NOISE))
    for mutated in (text[:at] + noise + text[at:], text[:at] + noise + text[at + 1:]):
        assert _read(_load_json, mutated) == _read(json.loads, mutated)


@pytest.mark.parametrize("text", [
    "", " ", "{", "[", "]", "}", "[1,]", '{"a":1,}', '{"a" 1}', '{1: 2}', "[1 2]", "01", "1.",
    "-", "nul", "tru", "NaN", "-Infinity", "Infinity", '"\\x"', '"a\nb"', '"\\ud800"',
    "\ufeff[]", '{"a": 1, "a": [2]}', "[[], {}, [{}]]", "1 2", "[1]]", "{}}", " [ ] ",
    "1" * 5000,
])
def test_load_json_edge_cases(text):
    assert _read(_load_json, text) == _read(json.loads, text)
