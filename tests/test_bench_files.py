"""Every ``BENCH_*.json`` at the repository root records paired benchmark
runs in terms ``BENCHMARK.json`` defines: its workload names, its metric
names and their units. No timing is checked here, only the shape."""

from __future__ import annotations

import json
from numbers import Real
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = {workload["name"] for workload in BENCHMARK["workloads"]}
END_TO_END = {metric["name"]: metric["unit"] for metric in BENCHMARK["end_to_end"]}
PER_LAYER = {metric["name"]: metric["unit"] for metric in BENCHMARK["per_layer"]}
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))


def is_number(value: object) -> bool:
    return isinstance(value, Real) and not isinstance(value, bool)


def is_count(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def test_the_trajectory_has_begun():
    assert BENCH_FILES


def check_runs(runs: list, units: dict[str, str], seeds: list, fields: set[str]) -> None:
    """Each run names a workload and a seed of the file, and gives each
    metric, named with its benchmark unit, the numeric ``fields``."""
    assert isinstance(runs, list) and runs
    for run in runs:
        assert run.keys() == {"workload", "seed", "seconds", "pairs", "metrics"}
        assert run["workload"] in WORKLOADS
        assert run["seed"] in seeds
        assert is_number(run["seconds"]) and run["seconds"] > 0
        assert is_count(run["pairs"]) and run["pairs"] > 0
        assert run["metrics"] and set(run["metrics"]) <= set(units)
        for name, metric in run["metrics"].items():
            assert metric.keys() == {"unit"} | fields, name
            assert metric["unit"] == units[name], name
            assert all(is_number(metric[field]) for field in fields), name
            if "wins" in fields:
                assert is_count(metric["wins"]) and is_count(metric["ties"]), name
                assert metric["wins"] + metric["ties"] <= run["pairs"], name


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda path: path.name)
def test_bench_file_speaks_the_benchmarks_terms(path):
    bench = json.loads(path.read_text(encoding="utf-8"))
    assert bench.keys() == {"title", "parent", "environment", "method", "claim", "runs",
                            "per_layer"}
    assert isinstance(bench["title"], str) and isinstance(bench["method"], str)
    assert isinstance(bench["parent"], str) and bench["parent"]
    environment = bench["environment"]
    assert environment.keys() == {"python", "cores", "run_seconds", "seeds"}
    assert isinstance(environment["python"], str)
    assert is_count(environment["cores"]) and is_number(environment["run_seconds"])
    seeds = environment["seeds"]
    assert seeds and all(isinstance(seed, int) for seed in seeds)

    # Every end-to-end run gives every end-to-end metric, and every
    # workload has one.
    check_runs(bench["runs"], END_TO_END, seeds,
               {"parent_median", "change_median", "parent_iqr", "wins", "ties"})
    assert all(run["metrics"].keys() == END_TO_END.keys() for run in bench["runs"])
    assert {run["workload"] for run in bench["runs"]} == WORKLOADS
    if bench["per_layer"]:
        check_runs(bench["per_layer"], PER_LAYER, seeds, {"parent_median", "change_median"})
    claim = bench["claim"]
    if claim is not None:
        assert claim.keys() == {"workload", "metric"}
        assert claim["workload"] in WORKLOADS and claim["metric"] in END_TO_END
