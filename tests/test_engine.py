"""Stratification, solve, holds_all, and their agreement."""

from __future__ import annotations

import pickle
import random
import textwrap
import traceback
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from proleg import ast, engine
from proleg.ast import (
    Atom,
    Compound,
    Constant,
    FactBase,
    Integer,
    Program,
    Text,
    Variable,
    canonical_atom,
    unify_atoms,
    variables_of,
)
from proleg.engine import (
    DepthExceeded,
    EngineConfig,
    EngineError,
    StepsExceeded,
    Unstratified,
    _Resolver,
    holds_all,
    solve,
    stratify,
)
from proleg.gdpr import bundled_case_paths, cases_dir, load_case
from proleg.lint import lint
from proleg.parser import parse_atom, parse_facts, parse_program
from proleg.trace import Outcome, render_dot, render_json, render_text

from helpers import (
    PATH_RULES,
    assert_no_circular_proof,
    assert_trace_invariants,
    ground_over,
    dependency_edges,
    path_ring_facts,
    random_dependency_program,
    random_ground_program,
    random_nonground_program,
    reference_cycle,
    reference_strata,
    run_fresh_python,
)

NO_FACTS = FactBase()


def outcome_of(source: str, goal: str, facts: str = "", config: EngineConfig | None = None):
    program = parse_program(source)
    out, trace = solve(program, parse_facts(facts), Atom(goal), config)
    return out, trace


@pytest.fixture
def walk_counts(monkeypatch) -> Counter:
    """Counts the calls of the term walks ``ast._renamed`` and
    ``ast._apply``, in each module that calls one."""
    walks = Counter()
    for name in ("_renamed", "_apply"):
        def counted(*args, walk=getattr(ast, name), name=name):
            walks[name] += 1
            return walk(*args)
        for module in (ast, engine):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted)
    return walks


@pytest.fixture
def plain_rewrites(monkeypatch):
    """A call that makes every later search rewrite a goal by plain
    ``apply_atom`` and ``canonical_atom``, reusing no earlier rewrite."""
    def rewrite(self, subst, atom, canon=None):
        instance = ast.apply_atom(subst, atom)
        return instance, canonical_atom(instance)

    return lambda: monkeypatch.setattr(_Resolver, "_rewrite", rewrite)


class TestStratify:
    def test_exception_target_sits_below(self):
        program = parse_program("p <= q. exception(p, e). e <=.")
        strata = stratify(program)
        assert len(strata) == 2
        assert strata[0] == frozenset({("e", 0), ("q", 0)})
        assert strata[1] == frozenset({("p", 0)})

    def test_mutual_exceptions_rejected(self):
        program = parse_program("p <=. exception(p, q). q <=. exception(q, p).")
        with pytest.raises(Unstratified) as info:
            stratify(program)
        assert sorted(info.value.cycle) == [("p", 0), ("q", 0)]

    def test_positive_cycles_are_fine(self):
        program = parse_program("p <= q. q <= p.")
        strata = stratify(program)
        assert strata == [frozenset({("p", 0), ("q", 0)})]

    def test_empty_program(self):
        assert stratify(Program()) == []

    def test_longer_negative_cycle_reported(self):
        program = parse_program("p <= q. exception(q, r). r <= p. q <=.")
        with pytest.raises(Unstratified) as info:
            stratify(program)
        assert set(info.value.cycle) == {("p", 0), ("q", 0), ("r", 0)}

    def test_reported_cycle_does_not_depend_on_the_hash_seed(self, tmp_path):
        # Three independent cycles: the one reported is the first exception
        # declaration, in program order, that closes a cycle. Under the
        # hash seeds used here an unordered search reported different ones.
        rules = tmp_path / "cycles.proleg"
        rules.write_text(
            "a <= b. exception(b, a). c <= d. exception(d, c). e <= f. exception(f, e).\n",
            encoding="utf-8",
        )
        script = (
            "import sys\n"
            "from proleg import Unstratified, parse_program, stratify\n"
            "from proleg.cli import main\n"
            "try:\n"
            "    stratify(parse_program(open(sys.argv[1], encoding='utf-8').read()))\n"
            "except Unstratified as exc:\n"
            "    print(exc)\n"
            "main(['lint', sys.argv[1]])\n"
        )
        outputs = []
        for seed in ("1", "3"):
            done = run_fresh_python("-c", script, str(rules), env={"PYTHONHASHSEED": seed})
            assert done.returncode == 0 and done.stderr == "", done.stderr
            outputs.append(done.stdout)
        cycle = "exception dependencies form a cycle: b/0 -> a/0 -> b/0"
        assert outputs[0] == outputs[1]
        lines = outputs[0].splitlines()
        assert lines[0] == cycle
        assert lines[-1] == f"error: UNSTRATIFIED_EXCEPTION_CYCLE at exception 1 (line 1): {cycle}"


    def test_long_exception_chain_at_the_default_recursion_limit(self):
        # A fresh interpreter, so the limit is the default one. Lint's own
        # component pass runs on the chain and on the chain closed into one
        # 5,000-long cycle.
        script = (
            "import sys\n"
            "from proleg import parse_program, stratify\n"
            "from proleg.lint import LintCheck, lint\n"
            "def cycles(source):\n"
            "    return [f for f in lint(parse_program(source))\n"
            "            if f.check_id is LintCheck.UNSTRATIFIED_EXCEPTION_CYCLE]\n"
            "source = ''.join(f'p{i} <= q{i}. exception(p{i}, p{i + 1}).' for i in range(5000))\n"
            "closed = source.replace('exception(p4999, p5000)', 'exception(p4999, p0)')\n"
            "print(sys.getrecursionlimit(), len(stratify(parse_program(source))))\n"
            "print(len(cycles(source)))\n"
            "[finding] = cycles(closed)\n"
            "print(finding.statement, finding.message.count(' -> '))\n"
        )
        done = run_fresh_python("-c", script)
        assert (done.returncode, done.stdout, done.stderr) == (
            0, "1000 5001\n0\nexception 1 5000\n", "")

    def test_matches_the_reference_on_random_programs(self):
        rng = random.Random(8)
        shuffler = random.Random(9)
        outcomes = {True: 0, False: 0}
        for _ in range(2000):
            program = random_dependency_program(rng)
            # Rule order must not show in the answer. Exception order stays:
            # the cycle reported is the first declaration's that closes one.
            shuffled = Program(tuple(shuffler.sample(program.rules, len(program.rules))),
                               program.exceptions)
            expected = reference_cycle(program)
            outcomes[expected is None] += 1
            if expected is None:
                assert stratify(program) == reference_strata(program)
                assert stratify(shuffled) == reference_strata(program)
                continue
            with pytest.raises(Unstratified) as info:
                stratify(program)
            with pytest.raises(Unstratified) as shuffled_info:
                stratify(shuffled)
            assert str(shuffled_info.value) == str(info.value)
            cycle = info.value.cycle
            (head, exception), length = expected
            assert cycle[0] == head and (cycle + cycle)[1] == exception
            assert len(cycle) == length
            positive, negative = dependency_edges(program)
            assert set(zip(cycle, cycle[1:] + cycle[:1])) <= positive | negative
        assert min(outcomes.values()) > 500


class TestSolve:
    def test_fact_lookup(self):
        out, trace = outcome_of("", "f", facts="")
        assert out is Outcome.FAILURE
        program = Program()
        out, trace = solve(program, parse_facts("f(a)."), Atom("f", (Constant("a"),)))
        assert out is Outcome.SUCCESS
        assert trace.via == "fact"

    def test_exception_defeats_proved_conclusion(self):
        out, trace = outcome_of("p <= q. q <=. exception(p, e). e <=.", "p")
        assert out is Outcome.FAILURE
        assert trace.defeated
        # Cross-check every atom against the bottom-up route.
        program = parse_program("p <= q. q <=. exception(p, e). e <=.")
        model = holds_all(program, NO_FACTS)
        assert model == frozenset({Atom("q"), Atom("e")})

    def test_unification_flows_through_body(self):
        program = parse_program("grandparent(X, Z) <= parent(X, Y), parent(Y, Z).")
        facts = parse_facts("parent(ann, bea). parent(bea, cal).")
        out, _ = solve(program, facts, Atom("grandparent", (Constant("ann"), Constant("cal"))))
        assert out is Outcome.SUCCESS
        out, _ = solve(program, facts, Atom("grandparent", (Constant("bea"), Constant("ann"))))
        assert out is Outcome.FAILURE

    def test_nonground_query_is_existential(self):
        program = parse_program("p(X) <= q(X).")
        facts = parse_facts("q(b).")
        out, trace = solve(program, facts, Atom("p", (Variable("W"),)))
        assert out is Outcome.SUCCESS
        assert str(trace.goal) == "p(b)"

    def test_facts_are_not_defeatable(self):
        program = parse_program("exception(p, e). e <=.")
        out, _ = solve(program, parse_facts("p."), Atom("p"))
        assert out is Outcome.SUCCESS

    def test_rule_order_respected_in_trace(self):
        program = parse_program("p <= a. p <= b.")
        out, trace = solve(program, parse_facts("b."), Atom("p"))
        assert out is Outcome.SUCCESS
        assert trace.via == "r2"

    def test_unstratified_rejected_up_front(self):
        program = parse_program("p <=. exception(p, q). q <=. exception(q, p).")
        # Every call on the same object raises, not only the first, and
        # each raise is a fresh error: the kept graph holds the cycle as
        # data, since an error raised again grows its traceback.
        calls = {"solve": lambda: solve(program, NO_FACTS, Atom("p")),
                 "stratify": lambda: stratify(program)}
        errors, depths, findings = [], {}, []
        for _ in range(3):
            for name, call in calls.items():
                with pytest.raises(Unstratified) as info:
                    call()
                errors.append(info.value)
                depths.setdefault(name, set()).add(len(traceback.extract_tb(info.tb)))
                findings.append(lint(program))
        assert len({id(error) for error in errors}) == len(errors)
        assert {str(error) for error in errors} == {
            "exception dependencies form a cycle: p/0 -> q/0 -> p/0"}
        assert all(len(lengths) == 1 for lengths in depths.values())
        [finding] = findings[0]
        assert (finding.statement, finding.message) == ("exception 1", str(errors[0]))
        assert all(found == findings[0] for found in findings)
        # The kept graph is no field: a pickled copy is equal and carries none.
        assert "dependency_graph" in vars(program)
        copy = pickle.loads(pickle.dumps(program))
        assert copy == program and hash(copy) == hash(program)
        assert "dependency_graph" not in vars(copy)

    def test_exception_checks_follow_declaration_order(self):
        # Declarations for p/1, q/0 and p/0 are interleaved; each instance
        # shows the checks whose head unifies with it, in declaration order.
        program = parse_program(
            "top <= q, p, p(a). p(X) <= base(X). q <=. p <=.\n"
            "exception(p(X), e1(X)). exception(q, e2). exception(p(a), e3).\n"
            "exception(p, e4). exception(q, e5). exception(p(b), e6).\n"
            "exception(p(X), e7(X))."
        )
        out, trace = solve(program, parse_facts("base(a). base(b). e7(a)."), Atom("top"))
        assert out is Outcome.FAILURE
        assert render_text(trace) == (
            "top [x]\n"
            "  -> q [o] (r3)\n"
            "    ~> e2 [x] (no rule matched)\n"
            "    ~> e5 [x] (no rule matched)\n"
            "  -> p [o] (r4)\n"
            "    ~> e4 [x] (no rule matched)\n"
            "  -> p(a) [x] (r2; defeated)\n"
            "    -> base(a) [o] (fact)\n"
            "    ~> e1(a) [x] (no rule matched)\n"
            "    ~> e3 [x] (no rule matched)\n"
            "    ~> e7(a) [o] (fact)\n"
        )

    def test_exception_variables_are_existential(self):
        # Variables in the exception beyond the conclusion's are checked
        # existentially against the resolved instance.
        program = parse_program("basis(X) <= ok(X).\nexception(basis(X), bad(X, Y)).")
        facts = parse_facts("ok(a). ok(b). bad(a, z).")
        defeated, trace = solve(program, facts, Atom("basis", (Constant("a"),)))
        assert defeated is Outcome.FAILURE
        assert trace.defeated
        witnesses = [str(c.goal) for k, c in trace.children if k.value == "exception"]
        assert witnesses == ["bad(a, z)"]
        standing, _ = solve(program, facts, Atom("basis", (Constant("b"),)))
        assert standing is Outcome.SUCCESS

    def test_integer_and_text_terms_evaluate(self):
        program = parse_program('labeled(N) <= score(N), label(N, "ok").')
        facts = parse_facts('score(-3). label(-3, "ok"). score(4).')
        good, _ = solve(program, facts, Atom("labeled", (Integer(-3),)))
        bad, _ = solve(program, facts, Atom("labeled", (Integer(4),)))
        assert good is Outcome.SUCCESS
        assert bad is Outcome.FAILURE

    # A ground callee proves its clause in a substitution of its own, so
    # mid's clause may reuse the names X and Y that top's clause holds.
    CALLER_NAMES = (
        "top(X) <= s(X, Y), mid(Y).\nmid(X) <= t(X, Y), u(Y).\nexception(mid(X), v(X, Y))."
    )
    CALLER_FACTS = "s(a, b). s(a, c). s(d, b). t(b, d). t(c, d). u(d). v(b, z)."
    MID_C = (
        "mid(c) [o] (r2)\n"
        "  -> t(c, d) [o] (fact)\n"
        "  -> u(d) [o] (fact)\n"
        "  ~> v(c, _G0) [x] (no rule matched)\n"
    )
    MID_B = (
        "mid(b) [x] (r2; defeated)\n"
        "  -> t(b, d) [o] (fact)\n"
        "  -> u(d) [o] (fact)\n"
        "  ~> v(b, z) [o] (fact)\n"
    )
    TOP_A = (
        "top(a) [o] (r1)\n"
        "  -> s(a, c) [o] (fact)\n"
        "  -> mid(c) [o] (r2)\n"
        "    -> t(c, d) [o] (fact)\n"
        "    -> u(d) [o] (fact)\n"
        "    ~> v(c, _G0) [x] (no rule matched)\n"
    )
    TOP_D = (
        "top(d) [x]\n"
        "  -> s(d, b) [o] (fact)\n"
        "  -> mid(b) [x] (r2; defeated)\n"
        "    -> t(b, d) [o] (fact)\n"
        "    -> u(d) [o] (fact)\n"
        "    ~> v(b, z) [o] (fact)\n"
    )

    @pytest.mark.parametrize("query, expected", [
        ("top(a)", TOP_A), ("top(W)", TOP_A), ("top(Y)", TOP_A), ("top(d)", TOP_D),
        ("mid(b)", MID_B), ("mid(X)", MID_C),
    ], ids=["top(a)", "top(W)", "top(Y)", "top(d)", "mid(b)", "mid(X)"])
    def test_ground_callee_may_reuse_its_callers_variable_names(self, query, expected):
        program = parse_program(self.CALLER_NAMES)
        _, trace = solve(program, parse_facts(self.CALLER_FACTS), parse_atom(query))
        assert render_text(trace) == expected

    @pytest.mark.parametrize("name", ["W", "Z", "_G0", "_R1_Z", "_L_Z"])
    def test_renamed_clause_variables_never_capture_a_query_variable(self, name):
        # Clause variables are renamed apart to names no query can write.
        program = parse_program("p(X) <= q(X, Z), r(Z).")
        out, trace = solve(program, parse_facts("q(a, b). r(b)."), Atom("p", (Variable(name),)))
        assert out is Outcome.SUCCESS
        assert render_text(trace) == "p(a) [o] (r1)\n  -> q(a, b) [o] (fact)\n  -> r(b) [o] (fact)\n"


class TestGroundFactLookup:
    """A ground goal is answered from the fact set: it holds on a fact
    exactly when the two atoms are equal, term class included."""

    @pytest.mark.parametrize("facts, goal, expected", [
        ("p(1).", "p(1)", "p(1) [o] (fact)\n"),
        ('p("1").', "p(1)", "p(1) [x] (no rule matched)\n"),
        ("p(c1).", "p(1)", "p(1) [x] (no rule matched)\n"),
        ("p(1).", 'p("1")', 'p("1") [x] (no rule matched)\n'),
        ("p(f(a, g(1))).", "p(f(a, g(1)))", "p(f(a, g(1))) [o] (fact)\n"),
        ('p(f(a, g("1"))).', "p(f(a, g(1)))", "p(f(a, g(1))) [x] (no rule matched)\n"),
        ("p(f(a, g(1))).", "p(f(a, g(c1)))", "p(f(a, g(c1))) [x] (no rule matched)\n"),
    ])
    def test_ground_goal_holds_on_an_equal_fact(self, facts, goal, expected):
        _, trace = solve(Program(), parse_facts(facts), parse_atom(goal))
        assert render_text(trace) == expected

    @pytest.mark.parametrize("facts, expected", [
        ("r(a). r(b). p(f(b)).",
         "q(b) [o] (r1)\n  -> r(b) [o] (fact)\n  -> p(f(b)) [o] (fact)\n"),
        ("r(a). r(b). p(f(c)).",
         "q(_G0) [x]\n  -> r(a) [o] (fact)\n  -> p(f(a)) [x] (no rule matched)\n"),
    ])
    def test_goal_ground_under_its_callers_bindings(self, facts, expected):
        # p(f(X)) is open in the rule and ground once r(X) has bound X.
        program = parse_program("q(X) <= r(X), p(f(X)).")
        _, trace = solve(program, parse_facts(facts), parse_atom("q(Y)"))
        assert render_text(trace) == expected

    def test_solve_agrees_with_holds_all_over_mixed_arguments(self):
        # Unary atoms take constant, integer, text and compound arguments,
        # some of which print alike but are different terms.
        arguments = (Constant("c1"), Integer(1), Text("1"),
                     parse_atom("f(a, g(1))").args[0], parse_atom('f(a, g("1"))').args[0])
        queries = 0
        for seed in range(400):
            program, facts, universe = random_ground_program(random.Random(seed),
                                                             arguments=arguments)
            model = holds_all(program, facts)
            for atom in universe:
                out, trace = solve(program, facts, atom)
                assert (out is Outcome.SUCCESS) == (atom in model), (seed, str(atom))
                assert_trace_invariants(trace)
                queries += 1
        assert queries > 4000

    def test_ground_goals_cost_the_same_over_more_facts(self, monkeypatch):
        # A ground goal makes no unification per fact of its predicate, so
        # facts about other subjects add no call, whether their text sorts
        # before the case's subject or after it.
        calls = []

        def counted(*args):
            calls.append(args)
            return unify_atoms(*args)

        monkeypatch.setattr(engine, "unify_atoms", counted)
        case = load_case(cases_dir() / "withdrawal.case.json")
        others = FactBase(case.facts.facts | parse_facts(" ".join(
            f"consent_given({subject}{k}). consent_withdrawn({subject}{k})."
            for subject in ("a", "z") for k in range(250)
        )).facts)
        counts, traces = [], []
        for facts in (case.facts, others):
            calls.clear()
            _, trace = solve(case.program, facts, case.query)
            counts.append(len(calls))
            traces.append(render_json(trace))
        assert len(others) == len(case.facts) + 1000
        assert counts[0] == counts[1]
        assert traces[0] == traces[1]


class TestTermReuse:
    """A goal level builds only the terms a binding changes; every other
    term object is handed on as it is."""

    def test_chain_levels_build_only_changed_atoms(self, monkeypatch):
        # An open goal p_i(X) builds its canonical form, its body atom and,
        # once X is bound, its answer instance: three atoms, and no variable,
        # since ``_G0`` is built once per process. A ground goal builds only
        # its body atom: the query itself is used as it is.
        built, counts = ast._built, Counter()

        def counted(cls, name, args=None):
            counts[cls] += 1
            return built(cls, name, args)

        monkeypatch.setattr(ast, "_built", counted)
        monkeypatch.setattr(engine, "_built", counted)
        canonical_atom(parse_atom("p(X)"))  # ``_G0`` exists from here on
        seen = {}
        for n in (100, 200):
            program = parse_program("".join(f"p{i}(X) <= p{i + 1}(X). " for i in range(n)))
            facts = parse_facts(f"p{n}(a).")
            for query in ("p0(X)", "p0(a)"):
                goal = parse_atom(query)
                counts.clear()
                outcome, _ = solve(program, facts, goal, EngineConfig(max_depth=n + 10))
                assert outcome is Outcome.SUCCESS
                seen[n, query] = counts[Atom], counts[Variable], counts[Compound]
        assert seen[200, "p0(X)"][0] - seen[100, "p0(X)"][0] == 3 * 100
        assert seen[100, "p0(X)"][1:] == seen[200, "p0(X)"][1:] == (0, 0)
        assert seen[100, "p0(a)"] == (100, 0, 0) and seen[200, "p0(a)"] == (200, 0, 0)

    def test_open_chain_walks_do_not_grow_with_the_depth(self, monkeypatch):
        # Every open level of a flat chain holds the query's one argument
        # tuple, and every answer comes back under the fact's one
        # substitution, so only the first level walks its goal for its
        # canonical form, and only the fact's level walks it for its answer.
        walks = Counter()

        def counting(name):
            walk = getattr(ast, name)

            def counted(*args):
                walks[name] += 1
                return walk(*args)
            return counted

        for name in ("_renamed", "_apply"):
            monkeypatch.setattr(ast, name, counting(name))
        seen = {}
        for n in (100, 200):
            program = parse_program("".join(f"p{i}(X) <= p{i + 1}(X). " for i in range(n)))
            walks.clear()
            outcome, _ = solve(program, parse_facts(f"p{n}(a)."), parse_atom("p0(X)"),
                               EngineConfig(max_depth=n + 10))
            assert outcome is Outcome.SUCCESS
            seen[n] = walks["_renamed"], walks["_apply"]
        assert seen[100] == seen[200]

    @pytest.mark.parametrize("n", [100, 200])
    def test_open_chain_answers_share_one_argument_tuple(self, n):
        # Each level's answer instance takes the tuple the level below
        # built under the same substitution: the one the fact's binding made.
        program = parse_program("".join(f"p{i}(X) <= p{i + 1}(X). " for i in range(n)))
        outcome, node = solve(program, parse_facts(f"p{n}(a)."), parse_atom("p0(X)"),
                              EngineConfig(max_depth=n + 10))
        assert outcome is Outcome.SUCCESS and str(node.goal) == "p0(a)"
        args, levels = node.goal.args, 0
        while node.children:
            ((_, node),) = node.children
            assert node.goal.args is args, str(node.goal)
            levels += 1
        assert levels == n

    def test_one_argument_tuple_rewritten_under_each_answers_substitution(self):
        # q, f, g and h all hold the query's one tuple (X), and each answer
        # of f comes under a new substitution, so g, q's answer and h
        # rewrite that one tuple under one substitution after another: a
        # reuse keyed by the tuple alone reads them all under f(a)'s.
        program = parse_program("q(X) <= f(X), g(X). exception(q(X), h(X)).")
        facts = parse_facts("f(a). f(b). f(c). f(d). g(b). g(c). g(d). h(b).")
        outcome, trace = solve(program, facts, parse_atom("q(X)"))
        assert outcome is Outcome.SUCCESS
        assert render_text(trace) == textwrap.dedent("""\
            q(c) [o] (r1)
              -> f(c) [o] (fact)
              -> g(c) [o] (fact)
              ~> h(c) [x] (no rule matched)
            """)

    def test_an_unchanged_answer_takes_its_goals_canonical_form(self, walk_counts):
        # p(X), q(X) and s(Y#1) are each walked once for their canonical
        # form. The fact s(c)'s binding is applied to s's goal and to p's,
        # and leaves p(X) as it was, so p's success node takes p's
        # canonical form from the goal's entry, without a fourth walk.
        program = parse_program("p(X) <= q(X), s(Y). q(W) <=.")
        outcome, node = solve(program, parse_facts("s(c). s(d)."), parse_atom("p(X)"))
        assert outcome is Outcome.SUCCESS and str(node.goal) == "p(_G0)"
        assert (walk_counts["_renamed"], walk_counts["_apply"]) == (3, 2)

    def test_a_flat_ground_level_hands_on_its_goals_argument_tuple(self):
        n = 60
        program = parse_program("".join(f"p{i}(X) <= p{i + 1}(X). " for i in range(n)))
        outcome, node = solve(program, parse_facts(f"p{n}(a)."), parse_atom("p0(a)"))
        assert outcome is Outcome.SUCCESS
        levels = 0
        while node.children:
            ((_, child),) = node.children
            assert child.goal.args is node.goal.args, str(child.goal)
            node, levels = child, levels + 1
        assert levels == n and str(node.goal) == f"p{n}(a)"

    @pytest.mark.parametrize("rules, query, shared", [
        ("p(X) <= q(X).", "p(a)", True),
        ("p(X, Y) <= q(Y, X).", "p(a, b)", False),  # permutes
        ("p(X) <= q(X, X).", "p(a)", False),  # repeats
        ("p(X, Y) <= q(X).", "p(a, b)", False),  # drops one
        ("p(X) <= q(X), r(X, Y).", "p(a)", False),  # renames Y
    ])
    def test_only_a_clause_that_passes_the_goals_terms_in_order_shares_them(
            self, rules, query, shared):
        facts = parse_facts("q(a). q(b, a). q(a, a). r(a, b).")
        outcome, node = solve(parse_program(rules), facts, parse_atom(query))
        assert outcome is Outcome.SUCCESS
        (_, first), *_ = node.children
        assert first.goal.predicate == "q"
        assert (first.goal.args is node.goal.args) is shared

    def test_an_answer_that_binds_nothing_reuses_the_goals_canonical_form(self, monkeypatch):
        # Each level of this chain nests its goal's argument one deeper and
        # answers without binding X, so the answer instance is the goal
        # itself: one canonical_atom call a level, not one more per answer.
        calls = []

        def counted(atom):
            calls.append(atom)
            return canonical_atom(atom)

        monkeypatch.setattr(engine, "canonical_atom", counted)
        seen = {}
        for n in (50, 100):
            program = parse_program("".join(f"p{i}(X) <= p{i + 1}(s(X)). " for i in range(n))
                                    + f"p{n}(X) <= q(X). exception(p{n}(X), r(X)). q(Y) <=.")
            calls.clear()
            outcome, trace = solve(program, parse_facts("r(z)."), parse_atom("p0(X)"))
            assert outcome is Outcome.SUCCESS and str(trace.goal) == "p0(_G0)"
            seen[n] = len(calls)
        assert seen[100] - seen[50] == 50

    def test_goals_named_like_canonical_variables_are_open(self):
        # ``canonical_atom`` hands back a new atom for any goal with a
        # variable, so a goal already in canonical form, whether the user
        # named its variable ``_G0`` or it came from ``canonical_atom``
        # itself, is searched as the open goal it is.
        program = parse_program("r(X) <= p(X). s(_G0) <= p(_G0), q(_G0).")
        facts = parse_facts("p(a). p(b). q(b).")
        for query in ("r(X)", "s(X)", "p(X)"):
            expected = render_json(solve(program, facts, parse_atom(query))[1])
            for goal in (parse_atom(query.replace("X", "_G0")),
                         canonical_atom(parse_atom(query))):
                assert render_json(solve(program, facts, goal)[1]) == expected, query
        trace = render_text(solve(program, facts, parse_atom("s(_G0)"))[1])
        assert trace.splitlines()[0] == "s(b) [o] (r2)"


class TestHoldsAll:
    def test_two_step_chain(self):
        program = parse_program("p <= q. q <=.")
        assert holds_all(program, NO_FACTS) == frozenset({Atom("p"), Atom("q")})

    def test_defeated_head_left_out(self):
        program = parse_program("p <=. exception(p, e). e <=.")
        model = holds_all(program, NO_FACTS)
        assert model == frozenset({Atom("e")})
        for atom in (Atom("p"), Atom("e")):
            out, _ = solve(program, NO_FACTS, atom)
            assert (out is Outcome.SUCCESS) == (atom in model)

    def test_unprovable_exception_leaves_conclusion(self):
        program = parse_program("p <=. exception(p, e).")
        assert holds_all(program, NO_FACTS) == frozenset({Atom("p")})

    def test_rejects_nonground_program(self):
        for source in ("p(X) <= q(X).", "p <=. exception(p(X), e).", "p <=. exception(p, e(X))."):
            with pytest.raises(ValueError, match="^holds_all requires a ground program$"):
                holds_all(parse_program(source), NO_FACTS)


class TestTermination:
    def test_self_recursion_fails_finitely(self):
        out, trace = outcome_of("p <= p.", "p")
        assert out is Outcome.FAILURE
        notes = [n.note for n, _ in _walk(trace)]
        assert "loop detected" in notes

    def test_depth_limit_on_a_long_chain(self):
        program = parse_program("".join(f"p{i} <= p{i + 1}. " for i in range(70)))
        config = EngineConfig(max_depth=64)
        with pytest.raises(DepthExceeded) as info:
            solve(program, NO_FACTS, Atom("p0"), config)
        # Goals p0..p64 are entered at depths 1..65; the 65th entry is refused.
        assert (info.value.goal, info.value.depth, info.value.steps) == (Atom("p64"), 65, 65)
        assert str(info.value) == (
            "goal nesting exceeded the depth limit at p64 (depth 65, after 65 steps)"
        )

    def test_step_budget(self):
        program = parse_program("p <= q, q, q. q <= a, b, c. a <=. b <=. c <=.")
        config = EngineConfig(max_steps=5)
        with pytest.raises(StepsExceeded) as info:
            solve(program, NO_FACTS, Atom("p"), config)
        # Entries p, q, a, b, c use the budget; the second q is refused.
        assert (info.value.goal, info.value.depth, info.value.steps) == (Atom("q"), 2, 5)
        assert "step budget" in str(info.value)
        assert "q" in str(info.value) and "depth 2" in str(info.value)

    def test_a_defeated_ground_conclusion_is_settled_at_once(self):
        # q(a) holds by its first r fact and e(a) defeats it. Every other
        # derivation resolves to the same defeated instance, so the search
        # stops there: q(a), r(a, Y) and e(a) take 3 steps, where asking
        # e(a) again for each of the 49 other r facts would take 52.
        program = parse_program("q(X) <= r(X, Y).\nexception(q(X), e(X)).\n")
        facts = parse_facts(" ".join(f"r(a, c{i})." for i in range(50)) + " e(a).")
        outcome, _ = solve(program, facts, Atom("q", (Constant("a"),)), EngineConfig(max_steps=3))
        assert outcome is Outcome.FAILURE

    def test_trace_shows_the_proof_the_search_found(self):
        for source, goal, expected in [
            # The search proves q through r3 once the loop in r2 is pruned; the
            # trace must show that proof instead of justifying q by itself.
            ("p <= q. q <= q. q <=.", "p", "p [o] (r1)\n  -> q [o] (r3)\n"),
            # Inside the check of exception e, f fails only because its
            # ancestor m is loop-pruned; that failure must not be cached,
            # since top then proves f in a context where m is not open.
            ("top <= a, f. a <=. exception(a, e). e <= m, n. m <= f. m <= x. f <= m. x <=.",
             "top",
             "top [o] (r1)\n"
             "  -> a [o] (r2)\n"
             "    ~> e [x]\n"
             "      -> m [o] (r5)\n"
             "        -> x [o] (r7)\n"
             "      -> n [x] (no rule matched)\n"
             "  -> f [o] (r6)\n"
             "    -> m [o] (see line 4)\n"),  # the memo's node for m, written once
        ]:
            out, trace = outcome_of(source, goal)
            assert out is Outcome.SUCCESS
            assert render_text(trace) == expected
            assert all(node.note != "already established" for node, _ in _walk(trace))

    @pytest.mark.parametrize("n, steps", [(16, 298), (24, 2081), (32, 32202)])
    def test_reachability_over_a_ring_takes_pinned_steps(self, n, steps):
        # A ground failure that a loop prune against an older ancestor cut
        # is searched again in each context, so these counts pin that work.
        # Keeping every ground failure would answer in 129 steps at n = 32.
        program, facts = parse_program(PATH_RULES), parse_facts(path_ring_facts(n))
        goal = parse_atom("path(n0, zz)")
        outcome, _ = solve(program, facts, goal, EngineConfig(max_steps=steps))
        assert outcome is Outcome.FAILURE
        with pytest.raises(StepsExceeded):
            solve(program, facts, goal, EngineConfig(max_steps=steps - 1))

    @staticmethod
    def _keep_decisions(resolver: _Resolver, root) -> Counter:
        """Each failed ground node of the trace as a pair: whether the table
        kept it (holds that node object under its goal), and whether the
        trace alone says it may be kept, since no "loop detected" leaf
        under it, itself included, names a goal on its path above. A
        failure view shows each rule's first path only, so a prune the
        trace does not show can make a node the trace allows unkept."""
        decisions = Counter()
        stack = [(root, frozenset())]
        while stack:
            node, above = stack.pop()
            if node.outcome is Outcome.FAILURE and not variables_of(node.goal):
                leaves, seen, below = set(), set(), [node]
                while below:
                    inner = below.pop()
                    if id(inner) not in seen:
                        seen.add(id(inner))
                        if inner.note == "loop detected":
                            leaves.add(inner.goal)
                        below.extend(child for _, child in inner.children)
                decisions[resolver.table.get(node.goal) is node, not (leaves & above)] += 1
            stack.extend((child, above | {node.goal}) for _, child in node.children)
        return decisions

    @pytest.mark.parametrize("n", [16, 24, 32])
    def test_a_ground_failure_is_kept_unless_a_prune_under_it_reached_an_older_goal(self, n):
        program, facts = parse_program(PATH_RULES), parse_facts(path_ring_facts(n))
        resolver = _Resolver(program.solve_index, facts, EngineConfig())
        root = resolver.run(parse_atom("path(n0, zz)"))
        # Here the table and the trace agree on every node. At n = 32 the
        # trace shows path(n1, zz), pruned against the query, with its edge.
        assert self._keep_decisions(resolver, root) == (
            {(True, True): 3, (False, False): 2} if n == 32
            else {(True, True): 2, (False, False): 1})
        # Every node of the ring reaches every other, so a loop prune under
        # each path(n<i>, zz) below the query reaches the query. Only the
        # query and the edge(n<i>, zz) goals, which no rule matches, are kept:
        # 17, 25 and 33 failures.
        kept = {str(goal) for goal, entry in resolver.table.items()
                if entry.__class__ is not list and entry.outcome is Outcome.FAILURE}
        assert kept == {"path(n0, zz)", *(f"edge(n{i}, zz)" for i in range(n))}

    def test_no_failure_is_kept_where_the_trace_shows_a_prune_above_it(self):
        # From each of the 16 nodes. Each trace's one pruned node is its
        # "loop detected" leaf. Of the nodes the trace allows, 97 are kept
        # and 65 are not: a prune on a path the trace does not show reached
        # above them. No node is kept that the trace shows a prune above.
        program, facts = parse_program(PATH_RULES), parse_facts(path_ring_facts(16))
        decisions = Counter()
        for i in range(16):
            resolver = _Resolver(program.solve_index, facts, EngineConfig())
            decisions += self._keep_decisions(resolver, resolver.run(parse_atom(f"path(n{i}, zz)")))
        assert decisions == {(True, True): 97, (False, True): 65, (False, False): 16}

    def test_mutual_recursion_fails_finitely(self):
        out, _ = outcome_of("p <= q. q <= p.", "p")
        assert out is Outcome.FAILURE

    LIMITS = (
        "p(X) <= q(X, Y), r(Y). q(X, Y) <= e(X, Y). r(Y) <= s(Y), t(Y).",
        "e(a, b). e(a, c). s(c). t(c).",
    )

    @pytest.mark.parametrize("query, config, expected", [
        ("p(a)", EngineConfig(max_steps=4), (
            StepsExceeded, "resolution step budget exhausted after 4 steps at s(b) (depth 3)")),
        ("p(a)", EngineConfig(max_steps=7), (
            StepsExceeded, "resolution step budget exhausted after 7 steps at t(c) (depth 3)")),
        ("p(a)", EngineConfig(max_depth=2), (
            DepthExceeded,
            "goal nesting exceeded the depth limit at e(a, _G0) (depth 3, after 3 steps)")),
        ("p(X)", EngineConfig(max_steps=4), (
            StepsExceeded, "resolution step budget exhausted after 4 steps at s(b) (depth 3)")),
        ("p(X)", EngineConfig(max_steps=7), (
            StepsExceeded, "resolution step budget exhausted after 7 steps at t(c) (depth 3)")),
        ("p(X)", EngineConfig(max_depth=1), (
            DepthExceeded,
            "goal nesting exceeded the depth limit at q(_G0, _G1) (depth 2, after 2 steps)")),
    ])
    def test_limit_errors_name_the_goal_depth_and_steps(self, query, config, expected):
        # The budget runs out after backtracking from s(b) into e(a, c).
        with pytest.raises(EngineError) as info:
            solve(parse_program(self.LIMITS[0]), parse_facts(self.LIMITS[1]),
                  parse_atom(query), config)
        assert (type(info.value), str(info.value)) == expected

    RECURSION = (
        "p(X) <= e(X, Y), p(Y). p(X) <= base(X). exception(p(X), bad(X)). bad(X) <= flag(X).",
        "e(a, b). e(b, c). base(c). base(b). flag(b).",
    )
    P_C = (
        "p(c) [o] (r2)\n"
        "  -> base(c) [o] (fact)\n"
        "  ~> bad(c) [x]\n"
        "    -> flag(c) [x] (no rule matched)\n"
    )
    P_A = (
        "p(a) [x]\n"
        "  -> e(a, b) [o] (fact)\n"
        "  -> p(b) [x] (r1; defeated)\n"
        "    -> e(b, c) [o] (fact)\n"
        "    -> p(c) [o] (r2)\n"
        "      -> base(c) [o] (fact)\n"
        "      ~> bad(c) [x]\n"
        "        -> flag(c) [x] (no rule matched)\n"
        "    ~> bad(b) [o] (r3)\n"
        "      -> flag(b) [o] (fact)\n"
        "    -> base(b) [o] (fact)\n"
        "    ~> bad(b) [o] (see line 9)\n"
        "  -> base(a) [x] (no rule matched)\n"
    )

    @pytest.mark.parametrize("query, expected", [("p(a)", P_A), ("p(X)", P_C), ("p(c)", P_C)],
                             ids=["p(a)", "p(X)", "p(c)"])
    def test_traces_of_a_defeated_recursion(self, query, expected):
        # A defeated ground goal still shows its later rules; the open query
        # backtracks past p(b), defeated, into e(b, c) and then into r2.
        config = EngineConfig(max_depth=8)
        _, trace = solve(parse_program(self.RECURSION[0]),
                         parse_facts(self.RECURSION[1]), parse_atom(query), config)
        assert render_text(trace) == expected

    @pytest.mark.parametrize("query, outcome, expected", [
        ("p(a)", Outcome.FAILURE, P_A), ("p(X)", Outcome.SUCCESS, P_C),
        ("p(c)", Outcome.SUCCESS, P_C),
    ], ids=["p(a)", "p(X)", "p(c)"])
    def test_cycle_in_the_facts_is_pruned(self, query, outcome, expected):
        # With e(c, a) the first rule leads from each goal back to itself.
        # The loop check fails that branch, so the answers and traces are
        # those of the acyclic facts, well inside a depth limit of 8.
        config = EngineConfig(max_depth=8)
        result = solve(parse_program(self.RECURSION[0]),
                       parse_facts(self.RECURSION[1] + " e(c, a)."), parse_atom(query), config)
        assert (result[0], render_text(result[1])) == (outcome, expected)

    def test_deep_chain_leaves_the_recursion_limit_alone(self):
        # A fresh interpreter, so the limit it reports is the one solve left.
        script = textwrap.dedent("""
            import sys
            from proleg import parse_atom, parse_facts, parse_program
            from proleg.engine import EngineConfig, solve
            from proleg.trace import render_dot, render_text

            program = parse_program(''.join(f'p{i}(X) <= p{i + 1}(X).' for i in range(3000)))
            facts = parse_facts('p3000(a).')
            config = EngineConfig(max_depth=4000)
            for query in ('p0(a)', 'p0(X)', 'p0(b)'):
                outcome, trace = solve(program, facts, parse_atom(query), config)
                text, dot = render_text(trace), render_dot(trace)
                print(query, outcome.glyph, text.count('\\n'), dot.count(' -> '),
                      text.splitlines()[-1].strip())
            print(sys.getrecursionlimit())
        """)
        done = run_fresh_python("-c", script)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines() == [
            "p0(a) o 3001 3000 -> p3000(a) [o] (fact)",
            "p0(X) o 3001 3000 -> p3000(a) [o] (fact)",
            "p0(b) x 3001 3000 -> p3000(b) [x] (no rule matched)",
            "1000",
        ]

    def test_growing_term_reaches_the_depth_limit_at_the_default_recursion_limit(self):
        # Each level nests the goal's term one deeper, so the goal at the
        # depth limit holds a term 512 levels deep: substituting, hashing,
        # unifying and printing it must not recurse per level.
        script = textwrap.dedent("""
            import sys
            from proleg import parse_atom, parse_facts, parse_program
            from proleg.engine import DepthExceeded, solve

            try:
                solve(parse_program('p(X) <= p(s(X)).'), parse_facts(''), parse_atom('p(z)'))
            except DepthExceeded as exc:
                print(exc.depth, exc.steps, str(exc.goal) == 'p(' + 's(' * 512 + 'z' + ')' * 513)
            print(sys.getrecursionlimit())
        """)
        done = run_fresh_python("-c", script)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines() == ["513 513 True", "1000"]

    def test_proof_over_deep_terms_renders_at_the_default_recursion_limit(self):
        # 300 levels, each nesting the argument one deeper. The last rule
        # proves q twice (the second time from the memo, by comparing two
        # 300-deep goals) and checks its exception on the 300-deep instance.
        script = textwrap.dedent("""
            import sys
            from proleg import parse_atom, parse_facts, parse_program
            from proleg.engine import EngineConfig, solve
            from proleg.trace import render_dot, render_text

            n = 300
            program = parse_program(''.join(f'p{i}(X) <= p{i + 1}(s(X)).' for i in range(n))
                                    + f'p{n}(X) <= q(X), q(X). exception(p{n}(X), r(X)). q(Y) <=.')
            for query in ('p0(z)', 'p0(X)'):
                outcome, trace = solve(program, parse_facts('r(z).'), parse_atom(query))
                text, dot = render_text(trace), render_dot(trace)
                print(query, outcome.glyph, text.count('\\n'), dot.count(' -> '))
                print(text.splitlines()[-1].strip())
            print(sys.getrecursionlimit())
        """)
        done = run_fresh_python("-c", script)
        assert done.returncode == 0, done.stderr
        deep = "s(" * 300 + "{}" + ")" * 300
        assert done.stdout.splitlines() == [
            "p0(z) o 304 303",
            f"~> r({deep.format('z')}) [x] (no rule matched)",
            "p0(X) o 304 303",
            f"~> r({deep.format('_G0')}) [x] (no rule matched)",
            "1000",
        ]


def _walk(node):
    from proleg.trace import iter_nodes

    return iter_nodes(node)


class TestConfig:
    def test_limits_validated(self):
        with pytest.raises(ValueError):
            EngineConfig(max_depth=0)
        with pytest.raises(ValueError):
            EngineConfig(max_steps=0)

    @pytest.mark.parametrize("field", ["max_depth", "max_steps"])
    @pytest.mark.parametrize("value", [5.5, 1.0, True, "5"])
    def test_limits_are_integers_only(self, field, value):
        # A float budget would never equal the step count, so the search
        # would run unbounded; True would be a budget of 1.
        with pytest.raises(TypeError, match=f"^{field} must be int, got {value!r}$"):
            EngineConfig(**{field: value})

    def test_limit_errors_name_their_field(self):
        with pytest.raises(ValueError, match="^max_steps must be >= 1$"):
            EngineConfig(max_steps=-3)
        with pytest.raises(ValueError, match="^max_depth must be >= 1$"):
            EngineConfig(max_depth=0)


# Argument terms whose text orders them otherwise than their names or
# values would: names that are prefixes of one another, integers, texts
# with a space, a quote or a backslash, and one-level compounds. Inside
# a fact the text of ``f`` is followed by ``)`` or ``,``, both after the
# ``(`` of ``f(a)``, so ``p(f(a))`` comes before ``p(f)``.
_TEXT_ORDER_TRAPS = (
    *(Constant(name) for name in ("a", "a1", "a_b", "ab", "b", "f")),
    *(Integer(value) for value in (-1, 1, 12, 2)),
    *(Text(value) for value in ("a b", 'a"b', "a\\b", "a")),
    Compound("f", (Constant("a"),)),
    Compound("f", (Constant("a"), Constant("b"))),
)


@pytest.mark.parametrize("arity", [1, 2])
def test_open_goals_try_facts_in_the_order_of_their_text(arity):
    # q answers from the first p fact, by the text of the whole fact, that
    # r does not defeat; when r covers every p fact, q fails.
    names = ("X", "Y")[:arity]
    head = f"q({', '.join(names)})"
    program = parse_program(f"{head} <= p({', '.join(names)}). "
                            f"exception({head}, r({', '.join(names)})).")
    rng = random.Random(1729 + arity)
    for _ in range(150):
        rows = {tuple(rng.choice(_TEXT_ORDER_TRAPS) for _ in range(arity))
                for _ in range(rng.randint(1, 12))}
        defeated = {row for row in rows if rng.random() < 0.5}
        if rng.random() < 0.2:
            defeated = set(rows)
        facts = FactBase(frozenset({Atom("p", row) for row in rows}
                                   | {Atom("r", row) for row in defeated}))
        out, trace = solve(program, facts, Atom("q", tuple(Variable(n) for n in names)))
        left = [Atom("p", row) for row in rows - defeated]
        if not left:
            assert out is Outcome.FAILURE, sorted(map(str, facts.facts))
            continue
        least = min(left, key=str)
        assert out is Outcome.SUCCESS and trace.goal == Atom("q", least.args), (
            sorted(map(str, facts.facts)), str(trace.goal))


def test_determinism_byte_identical_traces():
    program = parse_program(
        "p <= q, r. p <= s. q <=. r <= t. s <=. exception(p, e). e <= q."
    )
    facts = parse_facts("t.")
    first = render_json(solve(program, facts, Atom("p"))[1])
    second = render_json(solve(program, facts, Atom("p"))[1])
    assert first == second


def test_monotone_facts_without_exceptions():
    rng = random.Random(7)
    for _ in range(60):
        program, facts, universe = random_ground_program(rng, max_exceptions=0)
        assert not program.exceptions
        extra = FactBase(frozenset(set(facts.facts) | {rng.choice(universe)}))
        before = holds_all(program, facts)
        after = holds_all(program, extra)
        assert before <= after


def test_solve_agrees_with_holds_all_on_random_programs():
    rng = random.Random(20240812)
    for _ in range(150):
        program, facts, universe = random_ground_program(rng)
        model = holds_all(program, facts)
        for atom in universe:
            out, trace = solve(program, facts, atom)
            assert (out is Outcome.SUCCESS) == (atom in model), (
                f"disagreement on {atom}\nrules: {program.rules}\n"
                f"exceptions: {program.exceptions}\nfacts: {sorted(map(str, facts.facts))}"
            )
            assert_trace_invariants(trace)
            assert_no_circular_proof(trace)


def test_solve_agrees_with_holds_all_on_random_nonground_programs():
    # Memo tables and loop taint matter most when goals carry variables:
    # check every ground atom against the bottom-up model of the grounding.
    rng = random.Random(7)
    for _ in range(600):
        program, facts, constants, universe = random_nonground_program(rng)
        model = holds_all(ground_over(program, constants), facts)
        for atom in universe:
            out, trace = solve(program, facts, atom)
            assert (out is Outcome.SUCCESS) == (atom in model), (
                f"disagreement on {atom}\nrules: {program.rules}\n"
                f"exceptions: {program.exceptions}\nfacts: {sorted(map(str, facts.facts))}"
            )
            assert_trace_invariants(trace)


def _instance_of(pattern: Atom, atom: Atom) -> bool:
    """Whether the ground atom is an instance of the pattern, whose
    arguments are constants and variables."""
    bindings: dict = {}
    return pattern.key == atom.key and all(
        bindings.setdefault(p.name, a) == a if isinstance(p, Variable) else p == a
        for p, a in zip(pattern.args, atom.args)
    )


def test_nonground_queries_agree_with_holds_all_on_random_nonground_programs():
    # A non-ground query holds when some ground instance of it does, so
    # the search runs open goals whose callees become ground part way.
    rng = random.Random(11)
    asked = exhausted = 0
    for _ in range(200):
        program, facts, constants, universe = random_nonground_program(rng)
        model = holds_all(ground_over(program, constants), facts)
        for name, arity in sorted({atom.key for atom in universe if atom.args}):
            fresh = tuple(Variable(f"V{k}") for k in range(arity))
            for pattern in (Atom(name, fresh), Atom(name, (Variable("V0"),) * arity),
                            Atom(name, (Constant(constants[0]),) + fresh[1:])):
                asked += 1
                try:
                    out, trace = solve(program, facts, pattern)
                except StepsExceeded:
                    exhausted += 1
                    continue
                expected = any(_instance_of(pattern, atom) for atom in model)
                assert (out is Outcome.SUCCESS) == expected, (
                    f"disagreement on {pattern}\nrules: {program.rules}\n"
                    f"exceptions: {program.exceptions}\nfacts: {sorted(map(str, facts.facts))}"
                )
                assert_trace_invariants(trace)
    # An open goal may search without bound; only a few may use up the budget.
    assert asked > 1000 and exhausted <= asked // 100


def test_ground_goals_rename_no_clause(monkeypatch):
    # A call renames only the clause variables that its goal's argument
    # terms cannot stand in for, those first met inside a compound head
    # argument or in the body. Goals of the curated base are ground once
    # the subject is, and a ground program has no variables, so neither
    # renames one. Nor does an open goal on flat rules: a chain with
    # repeated and constant head arguments, and no exceptions. A
    # body-only variable is renamed, alone and once per call, for a
    # ground goal as for an open one.
    def renamed(names, serial):
        raise AssertionError(f"renamed {names}")

    monkeypatch.setattr(engine, "renamed_variables", renamed)
    for path in bundled_case_paths():
        case = load_case(path)
        solve(case.program, case.facts, case.query)
    rng = random.Random(97)
    for _ in range(50):
        program, facts, universe = random_ground_program(rng)
        for atom in universe:
            solve(program, facts, atom)
    chain = parse_program(" ".join(f"p{i}(X) <= p{i + 1}(X)." for i in range(40))
                          + " q(X, X) <= p0(X). q(X, b) <= p3(X), p0(X). r(X, Y) <= q(Y, X).")
    facts = parse_facts("p40(a). p40(b).")
    for query, outcome in [("p0(X)", Outcome.SUCCESS), ("q(X, Y)", Outcome.SUCCESS),
                           ("q(X, X)", Outcome.SUCCESS), ("r(b, Y)", Outcome.SUCCESS),
                           ("q(c, Y)", Outcome.FAILURE), ("r(X, c)", Outcome.FAILURE)]:
        assert solve(chain, facts, parse_atom(query))[0] is outcome, query
    calls = []

    def counted(names, serial):
        calls.append(names)
        return ast.renamed_variables(names, serial)

    monkeypatch.setattr(engine, "renamed_variables", counted)
    program = parse_program("p(X) <= q(X, Z), r(Z).")
    facts = parse_facts("q(a, b). r(b).")
    for query in ("p(a)", "p(W)"):
        calls.clear()
        assert solve(program, facts, parse_atom(query))[0] is Outcome.SUCCESS, query
        assert calls == [("Z",)], query


_CLAUSE_VARIABLES = ("X", "Y", "Z", "_G0")
_GOAL_VARIABLES = ("V", "W", "X", "_G0")  # two shared with the clauses


def _plan_term(rng: random.Random, variables: tuple[str, ...], depth: int = 0):
    """A constant, one of ``variables`` or, above depth 2, an f/1 or g/2 term."""
    roll = rng.random()
    if depth < 2 and roll < 0.3:
        arity = 1 if roll < 0.15 else 2
        return Compound("fg"[arity - 1], tuple(_plan_term(rng, variables, depth + 1)
                                               for _ in range(arity)))
    if variables and roll < 0.75:
        return Variable(rng.choice(variables))
    return Constant(rng.choice("ab"))


def _jointly_canonical(atoms) -> Atom:
    """The atoms as one atom, canonicalised together, so that the variables
    they share stay shared and the names they have do not count."""
    return canonical_atom(Atom("all", tuple(
        arg for atom in atoms for arg in (Constant(atom.predicate), *atom.args))))


def test_argument_plan_calls_match_unifying_the_renamed_head():
    # A call through the argument plan must fail where unifying the
    # renamed head with the goal fails, and otherwise leave the goal and
    # the body atoms as that unifier does, up to the names of variables.
    # A goal that is ground under its caller's bindings is also called on
    # its resolved terms from _GROUND, as _prove calls it.
    rng = random.Random(2718)
    resolver = _Resolver(Program().solve_index, NO_FACTS, EngineConfig())
    failed = renaming = grounded = 0
    for serial in range(1, 4001):
        arity = rng.randint(0, 3)
        head = Atom("p", tuple(_plan_term(rng, _CLAUSE_VARIABLES) for _ in range(arity)))
        body = tuple(Atom(name, tuple(_plan_term(rng, _CLAUSE_VARIABLES)
                                      for _ in range(rng.randint(0, 2))))
                     for name in rng.sample(["q", "r", "s"], rng.randint(0, 2)))
        goal = Atom("p", tuple(_plan_term(rng, _GOAL_VARIABLES) for _ in range(arity)))
        # Each goal variable bound, or not, to a term over the later ones only.
        bindings = {}
        for at, name in enumerate(_GOAL_VARIABLES):
            if rng.random() < 0.4:
                bindings[name] = _plan_term(rng, _GOAL_VARIABLES[at + 1:])
        subst = ast.Substitution(bindings)
        clause = (head, *body)
        names = dict.fromkeys(name for atom in clause for name in ast.variables_of(atom))
        renamed = ast.rename_apart(clause, names, serial)
        expected = unify_atoms(renamed[0], goal, subst)
        plan = engine._plan(head, body)
        renaming += bool(plan[2])
        starts = [(goal, subst)]
        resolved = ast.apply_atom(subst, goal)
        if ast.is_ground(resolved):
            starts.append((resolved, engine._GROUND))
            grounded += 1
        for called, start in starts:
            call = resolver._call(plan, called.args, start)
            assert (call is None) == (expected is None), (clause, goal, subst)
            if call is not None:
                atoms, solution = call
                got = [ast.apply_atom(solution, atom) for atom in (called, *atoms)]
                want = [ast.apply_atom(expected, atom) for atom in (goal, *renamed[1:])]
                assert _jointly_canonical(got) == _jointly_canonical(want), (clause, goal, subst)
        failed += expected is None
    assert 500 < failed < 3500 and renaming > 500 and grounded > 500


def test_repeated_solves_on_one_program_match_fresh_copies():
    # Program-side state is built on the first solve and kept on the
    # Program object; later solves must see exactly what a fresh copy sees.
    cases = [load_case(path) for path in bundled_case_paths()]
    curated = cases[0].program
    assert all(case.program == curated for case in cases)
    corpus = [(curated, [(case.facts, case.query) for case in cases])]
    rng = random.Random(31337)
    for _ in range(80):
        program, facts, universe = random_ground_program(rng)
        corpus.append((program, [(facts, atom) for atom in universe]))
    for program, queries in corpus:
        for _ in range(2):
            for facts, goal in queries:
                fresh = Program(program.rules, program.exceptions)
                assert render_json(solve(program, facts, goal)[1]) == render_json(
                    solve(fresh, facts, goal)[1]
                )


# The default limits, and limits tight enough that some searches stop.
_ORACLE_CONFIGS = (EngineConfig(), EngineConfig(max_depth=4, max_steps=25))


def _oracle_runs() -> list[tuple]:
    """Each query's result and step count under each of _ORACLE_CONFIGS,
    over 200 random non-ground programs (seeds 0-39, five each). A program
    is asked one query per predicate with every argument a variable, and
    its first six ground atoms that have arguments, with every argument
    but the first made a variable."""
    runs = []
    for seed in range(40):
        rng = random.Random(seed)
        for _ in range(5):
            program, facts, _, universe = random_nonground_program(rng)
            queries = [Atom(name, tuple(Variable(f"V{i}") for i in range(arity)))
                       for name, arity in dict.fromkeys(atom.key for atom in universe)]
            queries += [Atom(atom.predicate, atom.args[:1] + tuple(
                Variable(f"V{i}") for i in range(1, len(atom.args))))
                for atom in universe[:6] if atom.args]
            for query in queries:
                for config in _ORACLE_CONFIGS:
                    resolver = _Resolver(program.solve_index, facts, config)
                    try:
                        node = resolver.run(query)
                        result = node.outcome, render_json(node)
                    except EngineError as error:
                        result = type(error), str(error)
                    runs.append((result, resolver.steps))
    return runs


def test_reused_rewrites_match_plain_ones(walk_counts, plain_rewrites):
    # A goal level reuses the last rewrite of the very same argument tuple
    # under the very same substitution. Without that reuse every result,
    # error and step count must stay the same; with it the walks are pinned.
    reused = _oracle_runs()
    walks = dict(walk_counts)
    plain_rewrites()
    plain = _oracle_runs()
    assert len(reused) == len(plain) == 2 * 1780
    assert [at for at, (mine, theirs) in enumerate(zip(reused, plain)) if mine != theirs] == []
    kinds = Counter(result[0] for result, _ in reused)
    assert kinds[DepthExceeded] > 0 and kinds[StepsExceeded] > 0
    assert walks == {"_renamed": 3436, "_apply": 6026}


@given(st.integers(min_value=0, max_value=2**32))
@settings(max_examples=80, deadline=None)
def test_solve_agrees_with_holds_all_hypothesis(seed):
    program, facts, universe = random_ground_program(random.Random(seed))
    model = holds_all(program, facts)
    for atom in universe:
        out, _ = solve(program, facts, atom)
        assert (out is Outcome.SUCCESS) == (atom in model)
