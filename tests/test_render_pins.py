"""Pinned bytes of the text and DOT renderers: the sha256 of
``render_text`` and of ``render_dot`` over two sets of traces, compared
with ``data/render_pins.jsonl``.

The first set is every trace of ``test_trace_corpus``'s ``compound``
rows, one line per program: the digests of its traces' renders joined in
query order (a query that raises an engine error has no trace and adds
nothing). The second is ``RANDOM_TRACES`` traces from
``random.Random(RANDOM_SEED)``, one line per trace, of any shape, with
memo-shared subtrees, whose goals hold ``Text`` arguments over an
alphabet with a quote, a backslash, a newline, a tab, a CR and a
non-ASCII character, bare and inside compounds, beside constants, user
and renamed variables and negative integers. Each digest is the first
16 hex digits. The JSON renders are pinned by ``test_trace_corpus``.

Regenerate the file only for an intended change of output::

    PYTHONPATH=src python tests/test_render_pins.py
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

from proleg.ast import Atom, Compound, Constant, Integer, Text, Variable, renamed_variables
from proleg.engine import EngineError, solve
from proleg.trace import EdgeKind, Outcome, TraceNode, render_dot, render_text

sys.path.insert(0, str(Path(__file__).parent))
from test_trace_corpus import COMPOUND_CONFIG, compound_programs  # noqa: E402

PINNED = Path(__file__).parent / "data" / "render_pins.jsonl"
RANDOM_SEED = 30
RANDOM_TRACES = 300
SPECIAL = '"\\\n\t\ré'  # every character an escape rewrites, and one outside ASCII


def _text(rng: random.Random) -> Text:
    return Text("".join(rng.choice(SPECIAL + "ab ") for _ in range(rng.randint(0, 6))))


def _term(rng: random.Random, depth: int):
    roll = rng.randrange(7 if depth else 5)
    if roll < 2:
        return _text(rng)
    if roll == 2:
        return Constant(rng.choice(["a", "case1", "b_2"]))
    if roll == 3:
        return rng.choice([Variable("X"), Variable("_G0"), *renamed_variables(["Y"], 7)])
    if roll == 4:
        return Integer(rng.randint(-99, 99))
    return Compound(rng.choice(["f", "g"]),
                    tuple(_term(rng, depth - 1) for _ in range(rng.randint(1, 3))))


def text_trace(rng: random.Random, depth: int = 4,
               built: list[TraceNode] | None = None) -> TraceNode:
    """A random trace whose goals hold Text arguments (see the module text)."""
    built = [] if built is None else built
    children = ()
    if depth and rng.random() < 0.7:
        children = tuple((rng.choice(list(EdgeKind)),
                          rng.choice(built) if built and rng.random() < 0.2
                          else text_trace(rng, depth - 1, built))
                         for _ in range(rng.randint(1, 3)))
    goal = Atom(f"p{rng.randint(0, 9)}",
                (_text(rng), *(_term(rng, 2) for _ in range(rng.randint(0, 3)))))
    node = TraceNode(goal, rng.choice(list(Outcome)),
                     via=rng.choice([None, "fact", "r1"]), defeated=rng.random() < 0.3,
                     children=children, note=rng.choice([None, None, "loop detected"]))
    built.append(node)
    return node


def _digests(traces: list[TraceNode]) -> dict[str, str]:
    return {name: hashlib.sha256("".join(map(render, traces)).encode("utf-8")).hexdigest()[:16]
            for name, render in (("text", render_text), ("dot", render_dot))}


def rows():
    """The pinned rows in file order."""
    for kind, seed, position, program, facts, queries in compound_programs():
        traces = []
        for query in queries:
            try:
                traces.append(solve(program, facts, query, COMPOUND_CONFIG)[1])
            except EngineError:
                pass
        yield {"set": kind, "seed": seed, "program": position, "traces": len(traces),
               **_digests(traces)}
    rng = random.Random(RANDOM_SEED)
    for index in range(RANDOM_TRACES):
        yield {"set": "random", "seed": RANDOM_SEED, "program": index, "traces": 1,
               **_digests([text_trace(rng)])}


def test_text_and_dot_renders_are_pinned():
    pinned = [json.loads(line) for line in PINNED.read_text(encoding="ascii").splitlines()]
    got = list(rows())
    assert len(got) == len(pinned)
    for row, want in zip(got, pinned):
        assert row == want, f"{row['set']} trace set {row['program']} of seed {row['seed']}"


def test_random_traces_hold_every_special_character_bare_and_nested():
    rng = random.Random(RANDOM_SEED)
    bare, nested = set(), set()
    for _ in range(RANDOM_TRACES):
        pending = [text_trace(rng)]
        while pending:
            node = pending.pop()
            pending += [child for _, child in node.children]
            terms = [(arg, bare) for arg in node.goal.args]
            while terms:
                term, seen = terms.pop()
                if term.__class__ is Text:
                    seen.update(term.value)
                elif term.__class__ is Compound:
                    terms += [(arg, nested) for arg in term.args]
    assert set(SPECIAL) <= bare and set(SPECIAL) <= nested


if __name__ == "__main__":
    PINNED.write_text("".join(json.dumps(row, separators=(",", ":")) + "\n" for row in rows()),
                      encoding="ascii")
