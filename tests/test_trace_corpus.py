"""A pinned corpus for the search: the outcome and the JSON trace of
``solve`` on a fixed, seeded set of programs, compared with
``data/trace_corpus.jsonl``.

The programs are ``random_nonground_program``s (30 from each of seeds
0-39) and ``random_ground_program``s (30 from each of seeds 0-9). Each
is asked every ground atom of its predicates, then, for a non-ground
program, one all-variable query per predicate with arguments, under a
budget of 20,000 steps. Each line of the file is one program: its seed,
its position in that seed's run, and per query the outcome glyph with
the first 12 hex digits of the sha256 of ``render_json`` of the trace,
or the class name of the engine error the query raised.

Regenerate the file only for an intended change of behaviour::

    PYTHONPATH=src python tests/test_trace_corpus.py
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

from proleg.ast import Atom, Variable
from proleg.engine import EngineConfig, EngineError, solve
from proleg.parser import serialize
from proleg.trace import render_json

sys.path.insert(0, str(Path(__file__).parent))
from helpers import random_ground_program, random_nonground_program  # noqa: E402

PINNED = Path(__file__).parent / "data" / "trace_corpus.jsonl"
CONFIG = EngineConfig(max_steps=20_000)
PER_SEED = 30
NONGROUND_SEEDS = range(40)
GROUND_SEEDS = range(10)


def programs():
    """(kind, seed, position, program, facts, queries) in file order."""
    for seed in NONGROUND_SEEDS:
        rng = random.Random(seed)
        for position in range(PER_SEED):
            program, facts, _, universe = random_nonground_program(rng)
            queries = list(universe)
            for name, arity in sorted({atom.key for atom in universe if atom.args}):
                queries.append(Atom(name, tuple(Variable(f"Q{k}") for k in range(arity))))
            yield "nonground", seed, position, program, facts, queries
    for seed in GROUND_SEEDS:
        rng = random.Random(seed)
        for position in range(PER_SEED):
            program, facts, universe = random_ground_program(rng)
            yield "ground", seed, position, program, facts, universe


def result(program, facts, query: Atom) -> str:
    try:
        outcome, trace = solve(program, facts, query, CONFIG)
    except EngineError as error:
        return type(error).__name__
    digest = hashlib.sha256(render_json(trace).encode("utf-8")).hexdigest()
    return f"{outcome.glyph} {digest[:12]}"


def render_corpus() -> str:
    lines = []
    for kind, seed, position, program, facts, queries in programs():
        row = {"kind": kind, "seed": seed, "program": position,
               "results": [result(program, facts, query) for query in queries]}
        lines.append(json.dumps(row, separators=(",", ":")) + "\n")
    return "".join(lines)


def test_trace_corpus_is_pinned():
    pinned = [json.loads(line) for line in PINNED.read_text(encoding="ascii").splitlines()]
    corpus = list(programs())
    assert len(corpus) == len(pinned)
    for (kind, seed, position, program, facts, queries), row in zip(corpus, pinned):
        where = f"{kind} program {position} of seed {seed}"
        assert (row["kind"], row["seed"], row["program"]) == (kind, seed, position), where
        assert len(row["results"]) == len(queries), where
        for query, want in zip(queries, row["results"]):
            try:
                got = result(program, facts, query)
            except Exception as error:  # a crash names its query too
                raise AssertionError(f"{where}, query {query} raised {error!r}") from error
            assert got == want, (
                f"{where}, query {query}: got {got!r}, pinned {want!r}\n"
                f"{serialize(program)}facts: {sorted(map(str, facts.facts))}"
            )


if __name__ == "__main__":
    PINNED.write_text(render_corpus(), encoding="ascii")
