"""A pinned corpus for the search: the outcome and the JSON trace of
``solve`` on a fixed, seeded set of programs, compared with
``data/trace_corpus.jsonl``.

The programs are ``random_nonground_program``s (30 from each of seeds
0-39) and ``random_ground_program``s (30 from each of seeds 0-9). Each
is asked every ground atom of its predicates, then, for a non-ground
program, one all-variable query per predicate with arguments, under a
budget of 20,000 steps. The ``patterns`` rows ask the same non-ground
programs, per predicate of two or more arguments, the goal that repeats
one variable in every place and each goal with one constant and
variables elsewhere. The ``compound`` rows are
``random_compound_program``s (30 from each of seeds 0-9), with ``f/1``
and ``g/2`` terms in heads, bodies, exception declarations and facts.
Each is asked its facts, every atom of its predicates over its
constants, and per predicate with arguments the all-variable goal (in
the names ``_G1, _G0``, which canonical forms also use) and the goals
of the ``patterns`` rows, under a depth limit of 12, since ``g(X, X)``
doubles a term per level. Each line of the file is one program: its
kind, its seed, its position in that seed's run, and per query the
outcome glyph with the first 12 hex digits of the sha256 of
``render_json`` of the trace, or the class name of the engine error the
query raised.

Regenerate the file only for an intended change of behaviour::

    PYTHONPATH=src python tests/test_trace_corpus.py
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from itertools import product
from pathlib import Path

from proleg.ast import Atom, Constant, Variable
from proleg.engine import EngineConfig, EngineError, solve
from proleg.parser import serialize
from proleg.trace import render_json

sys.path.insert(0, str(Path(__file__).parent))
from helpers import (  # noqa: E402
    random_compound_program,
    random_ground_program,
    random_nonground_program,
)

PINNED = Path(__file__).parent / "data" / "trace_corpus.jsonl"
CONFIG = EngineConfig(max_steps=20_000)
COMPOUND_CONFIG = EngineConfig(max_depth=12, max_steps=20_000)
PER_SEED = 30
NONGROUND_SEEDS = range(40)
GROUND_SEEDS = range(10)
COMPOUND_SEEDS = range(10)


def partly_bound(name: str, arity: int, constants: list[str]) -> list[Atom]:
    """For two or more arguments: the goal that repeats ``V0`` in every place,
    then each goal with one constant and distinct variables elsewhere."""
    if arity < 2:
        return []
    fresh = [Variable(f"V{k}") for k in range(arity)]
    goals = [Atom(name, (fresh[0],) * arity)]
    for place in range(arity):
        for constant in constants:
            args = list(fresh)
            args[place] = Constant(constant)
            goals.append(Atom(name, tuple(args)))
    return goals


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
    for seed in NONGROUND_SEEDS:
        rng = random.Random(seed)
        for position in range(PER_SEED):
            program, facts, constants, universe = random_nonground_program(rng)
            queries = [goal for name, arity in sorted({atom.key for atom in universe})
                       for goal in partly_bound(name, arity, constants)]
            yield "patterns", seed, position, program, facts, queries
    yield from compound_programs()


def compound_programs():
    """The ``compound`` rows of ``programs``, which ``test_render_pins``
    also renders."""
    for seed in COMPOUND_SEEDS:
        rng = random.Random(seed)
        for position in range(PER_SEED):
            program, facts, constants, arity = random_compound_program(rng)
            queries = sorted(facts.facts, key=str)
            for name in sorted(arity):
                queries.extend(Atom(name, tuple(map(Constant, args)))
                               for args in product(constants, repeat=arity[name]))
                if arity[name]:
                    queries.append(Atom(name, tuple(Variable(f"_G{arity[name] - 1 - k}")
                                                    for k in range(arity[name]))))
                queries.extend(partly_bound(name, arity[name], constants))
            yield "compound", seed, position, program, facts, queries


def result(kind: str, program, facts, query: Atom) -> str:
    try:
        outcome, trace = solve(program, facts, query,
                               COMPOUND_CONFIG if kind == "compound" else CONFIG)
    except EngineError as error:
        return type(error).__name__
    digest = hashlib.sha256(render_json(trace).encode("utf-8")).hexdigest()
    return f"{outcome.glyph} {digest[:12]}"


def render_corpus() -> str:
    lines = []
    for kind, seed, position, program, facts, queries in programs():
        row = {"kind": kind, "seed": seed, "program": position,
               "results": [result(kind, program, facts, query) for query in queries]}
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
                got = result(kind, program, facts, query)
            except Exception as error:  # a crash names its query too
                raise AssertionError(f"{where}, query {query} raised {error!r}") from error
            assert got == want, (
                f"{where}, query {query}: got {got!r}, pinned {want!r}\n"
                f"{serialize(program)}facts: {sorted(map(str, facts.facts))}"
            )


if __name__ == "__main__":
    PINNED.write_text(render_corpus(), encoding="ascii")
