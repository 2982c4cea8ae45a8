"""One measuring process: set up a workload, then query it in a closed loop.

    python3 perfbench/child.py run|trace WORKDIR SECONDS FIRST_QUERY

Both modes time one set-up from a fresh interpreter. ``run`` then times
lint and an untraced query loop. ``trace`` repeats set-up and lint with
a span around every public call, then runs each query untraced and
traced in turn. The result is one JSON line on stdout; ``trace`` also
writes its spans to WORKDIR/spans.json.

One client sends one query at a time and starts the next when the
previous one has finished. A query is the in-process path of
``proleg run --trace --dot --text``: parse_atom, solve, render_json,
render_dot, render_text. Answer checks run outside the timed region.
"""

from __future__ import annotations

import gc
import json
import resource
import statistics
import sys
import time
from collections import deque
from pathlib import Path

SETUP_REPEATS = 5     # in-process set-ups per traced run
LINT_MIN_CALLS = 3
LINT_MIN_SECONDS = 0.2


# What the reference kernel takes at nominal speed. Every reported time
# is scaled by REF_SECONDS / (the kernel's time next to the measurement).
REF_SECONDS = 0.0003
_REF_KEYS = [f"key{i}" for i in range(256)]


def _reference_kernel() -> int:
    """Fixed pure-Python work (tuples, dict lookups, string lengths) on
    data that never changes and shares nothing with the program."""
    table: dict = {}
    for i, key in enumerate(_REF_KEYS * 4):
        pair = (key, i % 31)
        table[pair] = table.get(pair, 0) + len(key)
    return len(table)


class Speed:
    """Machine speed, from the reference kernel timed next to each measurement.

    The host's speed changes by up to 2x over tens of seconds as other
    tenants come and go; the ratio of a measurement to the kernel timed
    beside it changes far less.
    """

    def __init__(self) -> None:
        self.recent: deque[float] = deque(maxlen=9)

    def sample(self, times: int = 1) -> None:
        for _ in range(times):
            gc.disable()  # no collection of the program's heap inside the kernel
            try:
                start = time.perf_counter()
                _reference_kernel()
                self.recent.append(time.perf_counter() - start)
            finally:
                gc.enable()

    def factor(self) -> float:
        return REF_SECONDS / statistics.median(self.recent)


class Spans:
    """Spans kept in memory: (name, start, end, parent index, query id,
    speed factor at the time)."""

    def __init__(self, speed: Speed) -> None:
        self.rows: list = []
        self.open: list[int] = []
        self.query_id: int | None = None
        self.speed = speed

    def wrap(self, name, fn):
        def timed(*args):
            index = len(self.rows)
            self.rows.append(None)
            parent = self.open[-1] if self.open else None
            self.open.append(index)
            start = time.perf_counter()
            try:
                return fn(*args)
            finally:
                end = time.perf_counter()
                self.open.pop()
                self.rows[index] = (name, start, end, parent, self.query_id,
                                    self.speed.factor())
        return timed

    def self_times(self) -> list[tuple[str, float, int | None]]:
        """(name, self seconds, query id) per span: its duration minus the
        part its child spans cover, scaled to nominal speed."""
        covered = [0.0] * len(self.rows)
        for _, start, end, parent, _, _ in self.rows:
            if parent is not None:
                covered[parent] += end - start
        return [(name, (end - start - covered[i]) * factor, query)
                for i, (name, start, end, _, query, factor) in enumerate(self.rows)]


class Layers:
    """The public calls the benchmark makes, optionally wrapped in spans."""

    def __init__(self, spans: Spans | None):
        import proleg

        calls = {
            "parser.parse_atom": proleg.parse_atom,
            "parser.parse_program": proleg.parse_program,
            "parser.parse_facts": proleg.parse_facts,
            "parser.serialize": proleg.serialize,
            "convert.convert_source": proleg.convert_source,
            "engine.stratify": proleg.stratify,
            "engine.solve": proleg.solve,
            "trace.render_json": proleg.render_json,
            "trace.render_dot": proleg.render_dot,
            "trace.render_text": proleg.render_text,
            "lint.lint": proleg.lint,
        }
        for name, fn in calls.items():
            setattr(self, name.split(".")[1], spans.wrap(name, fn) if spans else fn)
        self.query = spans.wrap("query", self._query) if spans else self._query

    def _query(self, program, facts, text: str):
        goal = self.parse_atom(text)
        outcome, trace = self.solve(program, facts, goal)
        json_text = self.render_json(trace)
        self.render_dot(trace)
        self.render_text(trace)
        return outcome, trace, json_text

    def setup(self, inputs: dict):
        """Read the workload's files, convert the draft, load rules and facts."""
        draft = Path(inputs["draft_file"]).read_text(encoding="utf-8")
        converted, report = self.convert_source(draft)
        serialized = self.serialize(converted)
        program = self.parse_program(Path(inputs["rules_file"]).read_text(encoding="utf-8"))
        facts = self.parse_facts(Path(inputs["facts_file"]).read_text(encoding="utf-8"))
        strata = self.stratify(program)
        return dict(converted=converted, report=report, serialized=serialized,
                    program=program, facts=facts, strata=strata)


def _lint_times(layers: Layers, program, config, speed: Speed) -> tuple[list[float], int]:
    times: list[float] = []
    findings = 0
    while len(times) < LINT_MIN_CALLS or sum(times) < LINT_MIN_SECONDS:
        speed.sample()
        start = time.perf_counter()
        findings = len(layers.lint(program, config))
        times.append((time.perf_counter() - start) * speed.factor())
    return times, findings


def _loop(variants: list[Layers], loaded: dict, queries: list[dict], first: int, checker,
          seconds: float, speed: Speed, spans: Spans | None
          ) -> tuple[list[dict], list[dict], int]:
    """Closed loop over the query list from index ``first`` for ``seconds``.

    Each query runs once under every variant in turn, so an untraced and
    a traced run see the same queries and the same machine conditions.
    Returns one record per correct answer, one per failed query (with
    its message and time), and the number of queries sent.
    """
    from check import shape
    from proleg import EngineError, ParseFailure

    program, facts = loaded["program"], loaded["facts"]
    done: list[dict] = []
    failures: list[str] = []
    deadline = time.perf_counter() + seconds
    sent = 0
    while time.perf_counter() < deadline:
        query = queries[(first + sent // len(variants)) % len(queries)]
        variant = sent % len(variants)
        sent += 1
        if spans is not None:
            spans.query_id = sent
        speed.sample()
        start = time.perf_counter()
        try:
            outcome, trace, json_text = variants[variant].query(program, facts, query["query"])
        except (EngineError, ParseFailure, RecursionError, ValueError) as exc:
            elapsed = time.perf_counter() - start
            failures.append(dict(message=f"{query['query']}: {type(exc).__name__}: {exc}",
                                 id=sent, variant=variant, seconds=elapsed * speed.factor()))
            continue
        elapsed = time.perf_counter() - start
        try:
            problem = checker.problem(query, outcome, trace, json_text)
        except (ParseFailure, RecursionError, ValueError) as exc:
            problem = f"{type(exc).__name__}: {exc}"
        if problem is not None:
            failures.append(dict(message=f"{query['query']}: {problem}",
                                 id=sent, variant=variant, seconds=elapsed * speed.factor()))
            continue
        nodes, depth = shape(trace)
        done.append(dict(id=sent, variant=variant, tag=query["tag"], raw_seconds=elapsed,
                         seconds=elapsed * speed.factor(), json_bytes=len(json_text.encode()),
                         nodes=nodes, depth=depth))
    return done, failures, sent // len(variants)


def _program_properties(loaded: dict) -> dict:
    program = loaded["program"]
    per_predicate: dict = {}
    for rule in program.rules:
        per_predicate[rule.head.key] = per_predicate.get(rule.head.key, 0) + 1
    return dict(rules=len(program.rules), exceptions=len(program.exceptions),
                strata=len(loaded["strata"]), rules_per_predicate_max=max(per_predicate.values()),
                generated_exceptions=loaded["report"].generated_exceptions,
                synthesized_predicates=len(loaded["report"].synthesized_predicates))


def _conversion_problems(loaded: dict) -> list[str]:
    """The draft's conversion, written out and parsed back, must be the
    rule base the queries run on (the curated rules for Article 6)."""
    from check import program_shape
    from proleg import parse_program

    converted = program_shape(loaded["converted"])
    problems = []
    if program_shape(parse_program(loaded["serialized"])) != converted:
        problems.append("serialize/parse_program round trip changed the converted program")
    if program_shape(loaded["program"]) != converted:
        problems.append("the converted draft differs from the rule base it stands for")
    return problems


def main() -> None:
    mode, workdir = sys.argv[1], Path(sys.argv[2])
    seconds, first = float(sys.argv[3]), int(sys.argv[4])
    inputs = json.loads((workdir / "inputs.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(Path("src").resolve()))

    speed = Speed()
    speed.sample(5)
    start = time.perf_counter()
    layers = Layers(None)  # imports proleg
    loaded = layers.setup(inputs)
    setup_raw = time.perf_counter() - start
    speed.sample(5)

    from check import Checker
    from proleg import LintConfig

    queries = inputs["queries"]
    checker = Checker(queries)
    config = LintConfig.from_obj(inputs["lint_config"])
    result = dict(setup_s=setup_raw * speed.factor(), setup_raw_s=setup_raw,
                  properties=_program_properties(loaded))
    problems = [dict(message=p, id=None, variant=None, seconds=None)
                for p in _conversion_problems(loaded)]

    if mode == "run":
        lint_times, findings = _lint_times(layers, loaded["program"], config, speed)
        done, failures, sent = _loop([layers], loaded, queries, first, checker, seconds,
                                     speed, None)
        result.update(lint_times=lint_times, lint_findings=findings, queries=done,
                      failures=problems + failures, sent=sent,
                      peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    else:
        from proleg.parser import tokenize

        spans = Spans(speed)
        traced = Layers(spans)
        for _ in range(SETUP_REPEATS):
            speed.sample()
            traced.setup(inputs)
        _, findings = _lint_times(traced, loaded["program"], config, speed)
        done, failures, sent = _loop([layers, traced], loaded, queries, first, checker,
                                     seconds, speed, spans)
        tokens = sum(len(tokenize(Path(inputs[key]).read_text(encoding="utf-8"))[0])
                     for key in ("rules_file", "facts_file"))
        result.update(lint_findings=findings, queries=done, failures=problems + failures,
                      sent=sent, tokens=tokens, spans=spans.self_times())
        (workdir / "spans.json").write_text(
            json.dumps({"fields": ["name", "start", "end", "parent", "query", "speed_factor"],
                        "spans": spans.rows}), encoding="utf-8")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
