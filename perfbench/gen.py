"""Seeded workload generators (standard library only).

Each generator returns a ``Workload``: the source texts the program
under test reads (a restricted-Prolog draft, a PROLEG rule base, a fact
file) plus the query list with what each answer must be. The seed
decides the inputs; the program only ever sees the generated text.
Answers come from outside the program: the case files' hand-written
verdicts, closed-form reasoning about a chain, or (for the converted
rule base, filled in by ``check.expect_by_holds_all``) the bottom-up
evaluator on the program grounded per subject.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass, field
from pathlib import Path

GDPR_DATA = Path("src/proleg/gdpr/data")
CURATED_RULES = GDPR_DATA / "article6_curated.proleg"


@dataclass
class Workload:
    name: str
    why: str
    draft: str                   # restricted Prolog, input to convert_source
    facts: str                   # fact file text
    lint_config: dict            # LintConfig.from_obj input
    queries: list[dict]          # {"query", "expected", "tag", ...}
    rules_file: str | None = None  # PROLEG rule file to load instead of the converted draft
    balance: int = 0             # once answered, keep this many per predicate and verdict
    properties: dict = field(default_factory=dict)


# -- gdpr_batch -------------------------------------------------------------

GDPR_OPERATIONS = 1000
GDPR_QUERIES = 299  # 23 per archetype


def _article6_draft(curated: str) -> str:
    """The curated rule base written as a restricted-Prolog draft.

    Each exception declaration becomes a negated literal on the one rule
    for its head, so converting the draft must give back the curated
    rules and exceptions in the same order.
    """
    rules: list[tuple[str, str]] = []
    negated: dict[str, list[str]] = {}
    for line in curated.splitlines():
        line = line.strip()
        if not line or line.startswith(("%", "#")):
            continue
        match = re.fullmatch(r"exception\((\w+\(\w+\)), (\w+\(\w+\))\)\.", line)
        if match:
            negated.setdefault(match.group(1), []).append(match.group(2))
            continue
        head, body = line.rstrip(".").split(" <= ")
        rules.append((head, body))
    heads = [head for head, _ in rules]
    out = []
    for head, body in rules:
        literals = [body] + [f"\\+ {atom}" for atom in negated.get(head, [])]
        if negated.get(head) and heads.count(head) != 1:
            raise ValueError(f"{head} has several rules; its exceptions do not map to one clause")
        out.append(f"{head} :- {', '.join(literals)}.")
    return "\n".join(out) + "\n"


def _case_facts(case: dict, case_path: Path) -> list[str]:
    facts = case["facts"]
    if isinstance(facts, list):
        return list(facts)
    text = (case_path.parent / facts["path"]).read_text(encoding="utf-8")
    atoms = []
    for line in text.splitlines():
        line = line.split("%", 1)[0].strip()
        if line:
            atoms.append(line.rstrip("."))
    return atoms


def gdpr_batch(seed: int) -> Workload:
    rng = random.Random(seed)
    paths = sorted((GDPR_DATA / "cases").glob("*.case.json"))
    cases = [(p, json.loads(p.read_text(encoding="utf-8"))) for p in paths]
    curated = CURATED_RULES.read_text(encoding="utf-8")

    def rename(text: str, op: int) -> str:
        return re.sub(r"\bcase1\b", f"p{op}", text)

    # Every archetype appears equally often among operations and queries:
    # latency differs by archetype, so a drifting mix would move p50.
    drawn = [op % len(cases) for op in range(GDPR_OPERATIONS)]
    rng.shuffle(drawn)
    facts: list[str] = []
    for op, index in enumerate(drawn):
        path, case = cases[index]
        facts.extend(rename(atom, op) + "." for atom in _case_facts(case, path))
    asked = [op for index in range(len(cases))
             for op in rng.sample([op for op, i in enumerate(drawn) if i == index],
                                  GDPR_QUERIES // len(cases))]
    rng.shuffle(asked)
    queries = []
    for op in asked:
        _, case = cases[drawn[op]]
        queries.append({
            "query": rename(case["query"], op),
            "expected": case["expected"],
            "tag": case["id"],
            "fragments": [
                dict(fragment, goal=rename(fragment["goal"], op))
                for fragment in case.get("expected_trace_fragments", [])
            ],
        })
    per_predicate: dict[str, int] = {}
    for atom in facts:
        name = atom.split("(", 1)[0]
        per_predicate[name] = per_predicate.get(name, 0) + 1
    return Workload(
        name="gdpr_batch",
        why="the real Article 6 rule base at batch scale: per-query engine set-up and fact "
            "lookup do the work; traces are shallow and exceptions few",
        draft=_article6_draft(curated),
        rules_file=str(CURATED_RULES),
        facts="\n".join(facts) + "\n",
        lint_config=json.loads((GDPR_DATA / "article6_lint.json").read_text(encoding="utf-8")),
        queries=queries,
        properties={
            "operations": GDPR_OPERATIONS,
            "facts": len(facts),
            "facts_per_predicate_max": max(per_predicate.values()),
            "fact_predicates": len(per_predicate),
            "distinct_queries": len(queries),
        },
    )


# -- deep_chain -------------------------------------------------------------

CHAIN_DEPTH = 150
CHAIN_BOTTOM_FACTS = 3
CHAIN_QUERIES = 60  # 20 of each kind


def deep_chain(seed: int) -> Workload:
    rng = random.Random(seed)
    depth = CHAIN_DEPTH
    draft = "".join(f"p{i}(X) :- p{i + 1}(X).\n" for i in range(depth))
    hits = [f"a{n}" for n in rng.sample(range(10_000), CHAIN_BOTTOM_FACTS)]
    facts = "".join(f"p{depth}({name}).\n" for name in hits)
    # solve sorts facts by their text, so p0(X) binds X to the least name.
    first = min(hits, key=lambda name: f"p{depth}({name})")
    kinds = ["ground_hit", "ground_miss", "non_ground"] * (CHAIN_QUERIES // 3)
    rng.shuffle(kinds)
    queries = []
    for kind in kinds:
        if kind == "ground_hit":
            name = rng.choice(hits)
            queries.append({"query": f"p0({name})", "expected": "o", "root": f"p0({name})"})
        elif kind == "ground_miss":
            name = f"b{rng.randrange(10_000)}"
            queries.append({"query": f"p0({name})", "expected": "x", "root": f"p0({name})"})
        else:
            queries.append({"query": "p0(X)", "expected": "o", "root": f"p0({first})"})
        # Every kind walks the whole chain once: one node per level.
        queries[-1].update(tag=kind, nodes=depth + 1, depth=depth + 1)
    return Workload(
        name="deep_chain",
        why="goal depth: search, substitution and above all rendering of a deep trace; "
            "no exceptions and almost no facts, so fact or exception indexes have nothing to do",
        draft=draft,
        facts=facts,
        lint_config={"declared_fact_schema": [f"p{depth}/1"]},
        queries=queries,
        properties={
            "rules": depth,
            "exceptions": 0,
            "facts": CHAIN_BOTTOM_FACTS,
            "facts_per_predicate_max": CHAIN_BOTTOM_FACTS,
            "trace_depth": depth + 1,
            "trace_nodes": depth + 1,
            "distinct_queries": len(queries),
        },
    )


# -- converted_rulebase -----------------------------------------------------

BASE_PREDICATES = 16
LEVELS = 5
PREDICATES_PER_LEVEL = 12
SUBJECTS = 200
CONVERTED_QUERIES = 192  # 8 per top-level predicate and verdict


def converted_rulebase(seed: int) -> Workload:
    rng = random.Random(seed)
    levels: list[list[str]] = [[f"b{k}" for k in range(BASE_PREDICATES)]]
    rng.shuffle(levels[0])
    clauses: list[str] = []
    base = levels[0]
    for level in range(1, LEVELS + 1):
        names = [f"d{level}_{k}" for k in range(PREDICATES_PER_LEVEL)]
        below = levels[-1]
        # One shape for every seed, wired by fixed offsets: two clauses per
        # head, each on one goal of the level below and one base fact, the
        # first with one negated goal of the level below. The negation sets
        # differ, so the converter routes each clause through an auxiliary
        # head. The seed only decides which name sits where; a seeded
        # wiring made query cost differ by 1.7x from one seed to the next.
        rng.shuffle(names)
        for k, name in enumerate(names):
            def pick(preds: list[str], offset: int) -> str:
                return preds[(k + offset) % len(preds)]
            clauses.append(f"{name}(X) :- {pick(below, 0)}(X), {pick(base, 0)}(X), "
                           f"\\+ {pick(below, 2)}(X).")
            clauses.append(f"{name}(X) :- {pick(below, 1)}(X), {pick(base, 5)}(X).")
        levels.append(names)
    subjects = [f"s{n}" for n in range(SUBJECTS)]
    facts = []
    per_subject: dict[str, list[str]] = {}
    for subject in subjects:
        held = [p for p in levels[0] if rng.random() < 0.5]
        per_subject[subject] = held
        facts.extend(f"{p}({subject})." for p in held)
    # Every top-level goal for every subject; once holds_all has answered
    # them the run keeps as many that hold as that fail for each top-level
    # predicate, because cost differs by predicate and by verdict and a
    # drifting mix would move the percentiles.
    queries = [{"query": f"{p}({s})", "expected": None} for p in levels[-1] for s in subjects]
    return Workload(
        name="converted_rulebase",
        why="the authoring path: convert, parse, stratify and lint a long rule base with "
            "variables; queries scan many exception declarations and leave wide failure traces",
        draft="".join(line + "\n" for line in clauses),
        facts="\n".join(facts) + "\n",
        lint_config={"declared_fact_schema": [f"{p}/1" for p in levels[0]]},
        queries=queries,
        balance=CONVERTED_QUERIES // (2 * PREDICATES_PER_LEVEL),
        properties={
            "draft_clauses": len(clauses),
            "subjects": SUBJECTS,
            "facts": len(facts),
            "facts_per_predicate_max": max(
                sum(p in held for held in per_subject.values()) for p in levels[0]
            ),
            "distinct_queries": CONVERTED_QUERIES,
        },
    )


def balanced(queries: list[dict], seed: int, per_group: int) -> list[dict]:
    """``per_group`` answered queries (or all there are) for each top-level
    predicate and verdict, tagged by verdict, in seeded order."""
    rng = random.Random(seed)
    groups: dict[tuple[str, str], list[dict]] = {}
    for query in queries:
        key = (query["query"].split("(", 1)[0], query["expected"])
        groups.setdefault(key, []).append(query)
    chosen = []
    for (_, verdict), pool in groups.items():
        tag = "holds" if verdict == "o" else "fails"
        chosen += [dict(q, tag=tag) for q in rng.sample(pool, min(per_group, len(pool)))]
    rng.shuffle(chosen)
    return chosen


WORKLOADS = {
    "gdpr_batch": gdpr_batch,
    "deep_chain": deep_chain,
    "converted_rulebase": converted_rulebase,
}
