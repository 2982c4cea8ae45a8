"""A pinned corpus for the linter: ``findings_to_json`` of ``lint`` on a
fixed, seeded set of programs under two configs, compared byte for
byte with ``data/lint_corpus.jsonl``.

The programs are ``random_dependency_program``s as built (no source
lines, about half of them unstratified, so the cycle messages are
pinned), ``random_source_program``s read back from their serialized
text (so findings carry lines and are ordered by them), and both bundled
Article 6 rule bases. The configs are the default and one that declares
a fact schema and names its own presupposed and universal conditions
from the random programs' vocabulary. Each line of the file is one
program, with its findings under each config.

Regenerate the file only for an intended change of behaviour::

    PYTHONPATH=src python tests/test_lint_corpus.py
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

from proleg.gdpr import curated_ruleset_path, llm_ruleset_path
from proleg.lint import LintCheck, LintConfig, findings_to_json, lint
from proleg.parser import parse_program, serialize

sys.path.insert(0, str(Path(__file__).parent))
from helpers import random_dependency_program, random_source_program  # noqa: E402

PINNED = Path(__file__).parent / "data" / "lint_corpus.jsonl"
SEED = 20261019

CONFIGS = {
    "default": LintConfig(),
    "schema": LintConfig(
        presupposed_predicates=(("p1", 1), ("p4", 0), ("pred3", 1), ("pred7", 0)),
        universal_condition_predicates=(("p2", 1), ("p5", 0), ("pred5", 2), ("pred9", 1)),
        declared_fact_schema=tuple((f"p{i}", i % 2) for i in range(0, 8, 2))
        + tuple((f"pred{i}", i % 4) for i in range(0, 21, 3)),
    ),
}


def programs() -> list:
    rng = random.Random(SEED)
    corpus = [random_dependency_program(rng) for _ in range(240)]
    corpus += [parse_program(serialize(random_source_program(rng))) for _ in range(100)]
    corpus += [parse_program(path.read_text(encoding="utf-8"))
               for path in (curated_ruleset_path(), llm_ruleset_path())]
    return corpus


def render_corpus() -> str:
    lines = []
    for program in programs():
        row = {"program": serialize(program),
               "findings": {name: findings_to_json(lint(program, config))
                            for name, config in CONFIGS.items()}}
        lines.append(json.dumps(row, sort_keys=True, separators=(",", ":")) + "\n")
    return "".join(lines)


def test_lint_corpus_is_pinned():
    pinned = PINNED.read_text(encoding="ascii").splitlines(keepends=True)
    rendered = render_corpus().splitlines(keepends=True)
    assert len(rendered) == len(pinned)
    for index, (got, want) in enumerate(zip(rendered, pinned)):
        assert got == want, f"corpus entry {index}"


def test_lint_corpus_covers_every_check():
    """At least 100 programs report a cycle, and every check fires."""
    rows = [json.loads(line) for line in PINNED.read_text(encoding="ascii").splitlines()]
    reported = [{f["check_id"] for text in row["findings"].values() for f in json.loads(text)}
                for row in rows]
    cycle = LintCheck.UNSTRATIFIED_EXCEPTION_CYCLE.value
    assert sum(cycle in checks for checks in reported) >= 100
    assert set().union(*reported) == {c.value for c in LintCheck}


if __name__ == "__main__":
    PINNED.write_text(render_corpus(), encoding="ascii")
