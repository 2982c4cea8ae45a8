"""proleg benchmark: time to a verdict with its trace rendered.

    python3 perfbench/run.py --workload gdpr_batch|deep_chain|converted_rulebase|all
                             --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src``.
The seed makes the inputs (see gen.py). Each workload runs in child
processes, one at a time: one client, one query in flight.

``--trace 0`` prints the end-to-end metrics of an untraced run;
``--trace 1`` prints the per-layer metrics of a run that records a span
around every public call, and writes the spans to perfbench/out/. The
last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gen
from child import Speed

OUT = Path("perfbench/out")
CHILD = Path(__file__).with_name("child.py")
# An untraced run is split over this many fresh children, with CLI runs between them.
ROUNDS = 8
CLI_PER_ROUND = 2
CHILD_TIMEOUT = 100

# Per-layer metric -> (unit, end-to-end metric it should move).
LAYER_METRICS = {
    "parser.parse_facts_s": ("s", "setup_s"),
    "parser.parse_program_s": ("s", "setup_s"),
    "parser.serialize_s": ("s", "setup_s"),
    "parser.tokens_per_s": ("1/s", "setup_s"),
    "convert.convert_source_s": ("s", "setup_s"),
    "convert.generated_exceptions": ("count", "setup_s"),
    "engine.stratify_s": ("s", "setup_s, lint_s"),
    "engine.solve_p50_ms": ("ms", "query_p50_ms, query_p90_ms, queries_per_s"),
    "engine.solve_share": ("ratio", "query_p50_ms, query_p90_ms, queries_per_s"),
    "trace.render_json_p50_ms": ("ms", "query_p50_ms, query_p90_ms, queries_per_s"),
    "trace.render_text_p50_ms": ("ms", "query_p50_ms, query_p90_ms, queries_per_s"),
    "trace.render_dot_p50_ms": ("ms", "query_p50_ms, query_p90_ms, queries_per_s"),
    "trace.json_bytes_p50": ("bytes", "query_p50_ms, peak_rss_mb"),
    "trace.nodes_p50": ("count", "query_p50_ms"),
    "trace.depth_max": ("count", "query_p50_ms"),
    "lint.lint_s": ("s", "lint_s"),
    "lint.findings": ("count", "lint_s"),
    "bench.trace_overhead": ("ratio", "none"),
}


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile, as statistics.quantiles(n=100) gives it."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def prepare(name: str, seed: int) -> tuple[gen.Workload, Path]:
    """Write the workload's input files and its answer key to a work dir."""
    from proleg import convert_source, serialize

    import check

    workload = gen.WORKLOADS[name](seed)
    work = OUT / f"{name}-seed{seed}"
    work.mkdir(parents=True, exist_ok=True)
    (work / "draft.pl").write_text(workload.draft, encoding="utf-8")
    (work / "case.facts").write_text(workload.facts, encoding="utf-8")
    program, _ = convert_source(workload.draft)
    if workload.rules_file is None:
        workload.rules_file = str(work / "rules.proleg")
        Path(workload.rules_file).write_text(serialize(program), encoding="utf-8")
    if workload.balance:
        check.expect_by_holds_all(program, workload.facts, workload.queries)
        workload.queries = gen.balanced(workload.queries, seed, workload.balance)
    inputs = dict(draft_file=str(work / "draft.pl"), rules_file=workload.rules_file,
                  facts_file=str(work / "case.facts"), lint_config=workload.lint_config,
                  queries=workload.queries)
    (work / "inputs.json").write_text(json.dumps(inputs), encoding="utf-8")
    return workload, work


def child(mode: str, work: Path, seconds: float, first: int, env: dict) -> dict:
    proc = subprocess.run([sys.executable, str(CHILD), mode, str(work), str(seconds), str(first)],
                          capture_output=True, text=True, env=env, timeout=CHILD_TIMEOUT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{mode} child failed with exit code {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def cli_run(workload: gen.Workload, work: Path, query: dict, env: dict) -> tuple[float, bool]:
    """Wall time of `proleg run ... --trace --dot --text`, and whether it answered right."""
    command = [sys.executable, "-m", "proleg.cli", "run", workload.rules_file,
               str(work / "case.facts"), "--query", query["query"],
               "--trace", str(work / "cli_trace.json"), "--dot", str(work / "cli_trace.dot"),
               "--text"]
    speed = Speed()
    speed.sample(5)
    start = time.perf_counter()
    proc = subprocess.run(command, capture_output=True, text=True, env=env,
                          timeout=CHILD_TIMEOUT)
    wall = time.perf_counter() - start
    speed.sample(5)
    wall *= speed.factor()
    expected_code = 0 if query["expected"] == "o" else 1
    right = (proc.returncode == expected_code and not proc.stderr
             and proc.stdout.splitlines()[:1] == [query["expected"]])
    return wall, right


def end_to_end(workload: gen.Workload, work: Path, seconds: float, env: dict) -> dict:
    """ROUNDS fresh children share the query loop; CLI runs sit between them,
    so every metric samples the whole run rather than one stretch of it."""
    rounds = []
    walls = []
    cli_failed = 0
    first = 0
    for r in range(ROUNDS):
        rounds.append(child("run", work, seconds / ROUNDS, first, env))
        first += rounds[-1]["sent"]
        for i in range(CLI_PER_ROUND):
            query = workload.queries[(r * CLI_PER_ROUND + i) % len(workload.queries)]
            wall, right = cli_run(workload, work, query, env)
            walls.append(wall)
            cli_failed += not right
    failures = [f for run in rounds for f in run["failures"]]
    # Latency counts every query sent, answered right or not.
    latencies = [q["seconds"] for run in rounds for q in run["queries"]]
    latencies += [f["seconds"] for f in failures if f["seconds"] is not None]
    answered = sum(len(run["queries"]) for run in rounds)
    attempted = answered + len(failures) + len(walls)
    failed = len(failures) + cli_failed
    metrics = {
        "setup_s": (statistics.median(run["setup_s"] for run in rounds), "s"),
        "query_p50_ms": (1e3 * statistics.median(latencies), "ms"),
        "query_p90_ms": (1e3 * percentile(latencies, 90), "ms"),
        "queries_per_s": (answered / sum(latencies), "1/s"),
        "lint_s": (statistics.median(t for run in rounds for t in run["lint_times"]), "s"),
        "cli_wall_s": (statistics.median(walls), "s"),
        "peak_rss_mb": (max(run["peak_rss_mb"] for run in rounds), "MB"),
        "ok_ratio": ((attempted - failed) / attempted, "ratio"),
    }
    p90 = metrics["query_p90_ms"][0] / 1e3
    raw = [q["raw_seconds"] for run in rounds for q in run["queries"]]
    notes = {"samples": len(latencies), "beyond_p90": sum(x > p90 for x in latencies),
             "unscaled": {"query_p50_ms": 1e3 * _median(raw),
                          "setup_s": statistics.median(run["setup_raw_s"] for run in rounds)},
             "properties": rounds[0]["properties"],
             "failures": [f["message"] for f in failures[:5]]}
    return dict(attempted=attempted, failed=failed, metrics=metrics, notes=notes)


def per_layer(workload: gen.Workload, work: Path, seconds: float, env: dict) -> dict:
    run = child("trace", work, seconds, 0, env)
    spans = run["spans"]  # [name, self seconds, query id]

    def calls(name: str) -> list[float]:
        return [s for n, s, _ in spans if n == name]

    def per_setup(name: str) -> float:
        # Only the repeated set-ups call these layers.
        return statistics.median(calls(name))

    queries = [q for q in run["queries"] if q["variant"] == 1]
    sent = run["queries"] + run["failures"]
    # Layer times count every traced query, also those that failed later on.
    by_id = {q["id"] for q in sent if q["variant"] == 1}
    query_s = sum(s for _, s, q in spans if q in by_id)
    untraced = _median(q["seconds"] for q in sent if q["variant"] == 0)
    traced = _median(q["seconds"] for q in sent if q["variant"] == 1)
    parse_s = per_setup("parser.parse_program") + per_setup("parser.parse_facts")
    values = {
        "parser.parse_facts_s": per_setup("parser.parse_facts"),
        "parser.parse_program_s": per_setup("parser.parse_program"),
        "parser.serialize_s": per_setup("parser.serialize"),
        "parser.tokens_per_s": run["tokens"] / parse_s,
        "convert.convert_source_s": per_setup("convert.convert_source"),
        "convert.generated_exceptions": run["properties"]["generated_exceptions"],
        "engine.stratify_s": per_setup("engine.stratify"),
        "engine.solve_p50_ms": 1e3 * _median(_query_calls(spans, by_id, "engine.solve")),
        "engine.solve_share":
            sum(_query_calls(spans, by_id, "engine.solve")) / query_s if query_s else 0.0,
        "trace.render_json_p50_ms": 1e3 * _median(_query_calls(spans, by_id, "trace.render_json")),
        "trace.render_text_p50_ms": 1e3 * _median(_query_calls(spans, by_id, "trace.render_text")),
        "trace.render_dot_p50_ms": 1e3 * _median(_query_calls(spans, by_id, "trace.render_dot")),
        "trace.json_bytes_p50": _median(q["json_bytes"] for q in queries),
        "trace.nodes_p50": _median(q["nodes"] for q in queries),
        "trace.depth_max": max((q["depth"] for q in queries), default=0),
        "lint.lint_s": statistics.median(calls("lint.lint")),
        "lint.findings": run["lint_findings"],
        "bench.trace_overhead": traced / untraced - 1 if untraced else 0.0,
    }
    metrics = {name: (values[name], unit) for name, (unit, _) in LAYER_METRICS.items()}
    attempted = len(run["queries"]) + len(run["failures"])
    notes = {"rows": _rows(spans, queries), "properties": run["properties"],
             "failures": [f["message"] for f in run["failures"][:5]]}
    return dict(attempted=attempted, failed=len(run["failures"]), metrics=metrics, notes=notes)


def _median(values) -> float:
    """Median, or 0 when no query produced the value (every one failed)."""
    values = list(values)
    return statistics.median(values) if values else 0.0


def _query_calls(spans: list, by_id: set, name: str) -> list[float]:
    return [s for n, s, q in spans if n == name and q in by_id]


def _rows(spans: list, queries: list[dict]) -> list[dict]:
    """Per-tag rows (case id or query kind) over the traced queries."""
    layer = {}
    for name, seconds, query in spans:
        if query is not None:
            layer[(query, name)] = seconds
    rows = []
    for tag in sorted({q["tag"] for q in queries}):
        mine = [q for q in queries if q["tag"] == tag]
        rows.append({
            "tag": tag,
            "queries": len(mine),
            "query_p50_ms": 1e3 * statistics.median(q["seconds"] for q in mine),
            "solve_p50_ms": 1e3 * statistics.median(layer[(q["id"], "engine.solve")] for q in mine),
            "render_json_p50_ms":
                1e3 * statistics.median(layer[(q["id"], "trace.render_json")] for q in mine),
            "nodes_p50": statistics.median(q["nodes"] for q in mine),
            "depth_max": max(q["depth"] for q in mine),
        })
    return rows


def environment(seed: int, env: dict) -> dict:
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "seed": seed,
            "PYTHONHASHSEED": env["PYTHONHASHSEED"]}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload, work = prepare(name, seed)
    env = dict(os.environ, PYTHONPATH=str(Path("src").resolve()),
               PYTHONHASHSEED=os.environ.get("PYTHONHASHSEED", "0"))
    measure = per_layer if trace else end_to_end
    result = measure(workload, work, seconds, env)
    result["notes"].update(workload=name, why=workload.why, environment=environment(seed, env),
                           inputs=workload.properties)
    (work / f"result-trace{int(trace)}.json").write_text(
        json.dumps(result, indent=2), encoding="utf-8")
    return result


def report(name: str, result: dict, trace: bool) -> None:
    notes = result["notes"]
    print(f"== {name}: {notes['why']}")
    print(f"   environment: {json.dumps(notes['environment'])}")
    print(f"   inputs: {json.dumps(dict(notes['inputs'], **notes['properties']))}")
    for metric, (value, unit) in result["metrics"].items():
        moves = f"  -> {LAYER_METRICS[metric][1]}" if trace else ""
        print(f"   {metric:30s} {value:14.6g} {unit}{moves}")
    if not trace:
        print(f"   query samples: {notes['samples']}, beyond p90: {notes['beyond_p90']}")
    for row in notes.get("rows", []):
        print("   row " + " ".join(f"{k}={v:.4g}" if isinstance(v, float) else f"{k}={v}"
                                  for k, v in row.items()))
    for failure in notes["failures"]:
        print(f"   FAILED {failure}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=[*gen.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if not Path("src/proleg/__init__.py").is_file():
        print("run from the root of a proleg checkout: src/proleg is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(Path("src").resolve()))
    # One core for every process of the run, so the reference kernel and
    # the work it calibrates see the same core.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    names = list(gen.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
        report(name, results[name], bool(args.trace))
    prefix = len(names) > 1
    metrics = {
        (f"{name}.{metric}" if prefix else metric): {"value": value, "unit": unit}
        for name, result in results.items() for metric, (value, unit) in result["metrics"].items()
    }
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({"correct": failed == 0,
                      "attempted": sum(r["attempted"] for r in results.values()),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
