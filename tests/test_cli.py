"""Command-line behaviour: outputs and exit codes."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from proleg.cli import main
from proleg.gdpr import cases_dir, curated_ruleset_path, data_dir, llm_ruleset_path
from proleg.trace import trace_from_json

from helpers import fresh_python_env, run_fresh_python, validate_dot

CURATED = str(curated_ruleset_path())
WITHDRAWAL_FACTS = str(data_dir() / "withdrawal.facts")
QUERY = "lawful_processing(case1)"
CASE_FILE = str(cases_dir() / "withdrawal.case.json")
# Deeper than the C JSON decoder's recursion allows (3.13 takes 2,000 levels).
NESTED_JSON = "[" * 100_000 + "]" * 100_000


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRun:
    def test_withdrawal_query_prints_x_and_exits_1(self, capsys):
        code, out, _ = run_cli(capsys, "run", CURATED, WITHDRAWAL_FACTS, "--query", QUERY)
        assert out.splitlines()[0] == "x"
        assert code == 1

    def test_successful_query_exits_0(self, capsys, tmp_path):
        facts = tmp_path / "ok.facts"
        facts.write_text("consent_given(case1).\n", encoding="utf-8")
        code, out, _ = run_cli(capsys, "run", CURATED, str(facts), "--query", QUERY)
        assert out.splitlines()[0] == "o"
        assert code == 0

    def test_dot_output_contains_dotted_edge(self, capsys, tmp_path):
        dot_path = tmp_path / "out.dot"
        code, _, _ = run_cli(
            capsys, "run", CURATED, WITHDRAWAL_FACTS, "--query", QUERY, "--dot", str(dot_path)
        )
        assert code == 1
        dot = dot_path.read_text(encoding="utf-8")
        validate_dot(dot)
        assert "[style=dotted]" in dot

    def test_trace_output_parses(self, capsys, tmp_path):
        trace_path = tmp_path / "trace.json"
        run_cli(
            capsys, "run", CURATED, WITHDRAWAL_FACTS, "--query", QUERY, "--trace", str(trace_path)
        )
        node = trace_from_json(trace_path.read_text(encoding="utf-8"))
        assert node.outcome.glyph == "x"

    def test_text_flag_prints_tree(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", CURATED, WITHDRAWAL_FACTS, "--query", QUERY, "--text"
        )
        assert "~> consent_withdrawn(case1) [o]" in out

    def test_syntax_error_exits_2_with_position(self, capsys, tmp_path):
        bad = tmp_path / "bad.proleg"
        bad.write_text("p <= q\n", encoding="utf-8")
        code, _, err = run_cli(capsys, "run", str(bad), WITHDRAWAL_FACTS, "--query", "p")
        assert code == 2
        assert ":1:" in err

    def test_unstratified_reports_cycle(self, capsys, tmp_path):
        bad = tmp_path / "cycle.proleg"
        bad.write_text("p <=. exception(p, q). q <=. exception(q, p).\n", encoding="utf-8")
        code, _, err = run_cli(
            capsys, "run", str(bad), WITHDRAWAL_FACTS, "--query", "p"
        )
        assert code == 2
        assert "p/0" in err and "q/0" in err

    def test_bad_query_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "run", CURATED, WITHDRAWAL_FACTS, "--query", "Nope(")
        assert code == 2

    def test_missing_rules_file_exits_2(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "run", str(tmp_path / "nope.proleg"), WITHDRAWAL_FACTS, "--query", "p"
        )
        assert code == 2
        assert "i/o error" in err

    def test_step_budget_flag(self, capsys):
        code, out, err = run_cli(
            capsys, "run", CURATED, WITHDRAWAL_FACTS, "--query", QUERY, "--max-steps", "3"
        )
        assert (code, out) == (2, "")
        assert "step budget" in err

    def test_depth_limit_is_an_engine_error(self, capsys, tmp_path):
        rules = tmp_path / "chain.proleg"
        rules.write_text("p0 <= p1. p1 <= p2. p2 <= p3. p3 <=.\n", encoding="utf-8")
        facts = tmp_path / "none.facts"
        facts.write_text("", encoding="utf-8")
        code, out, err = run_cli(
            capsys, "run", str(rules), str(facts), "--query", "p0", "--max-depth", "2"
        )
        assert (code, out) == (2, "")
        assert err == (
            "engine error: goal nesting exceeded the depth limit at p2 (depth 3, after 3 steps)\n"
        )


def test_deep_chain_with_long_bodies_runs_in_a_fresh_process(tmp_path):
    # 400 goal levels of 13 body atoms each, at the default recursion
    # limit: the search keeps its goals on an explicit stack, so neither
    # depth nor body length nests Python frames.
    atoms = ", ".join(f"a{j}" for j in range(12))
    rules = tmp_path / "chain.proleg"
    rules.write_text("".join(f"p{i} <= {atoms}, p{i + 1}.\n" for i in range(400)),
                     encoding="utf-8")
    facts = tmp_path / "chain.facts"
    facts.write_text("".join(f"a{j}.\n" for j in range(12)) + "p400.\n", encoding="utf-8")
    done = run_fresh_python("-m", "proleg.cli", "run", str(rules), str(facts), "--query", "p0")
    assert (done.returncode, done.stdout, done.stderr) == (0, "o\n", "")


@pytest.mark.parametrize("query, glyph, code", [("p0(X)", b"o", 0), ("p0(b)", b"x", 1)],
                         ids=["holds", "fails"])
@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
def test_a_reader_that_closes_stdout_early_leaves_the_verdict(tmp_path, query, glyph, code,
                                                              unbuffered):
    # The reader takes the outcome line and closes the pipe while the
    # 3,000-level trace text is still being written: writing stops, and
    # the exit code is the query's, with nothing on stderr, whether the
    # text meets the closed pipe in a write or in the final flush.
    rules = tmp_path / "deep.proleg"
    rules.write_text("".join(f"p{i}(X) <= p{i + 1}(X).\n" for i in range(3000)),
                     encoding="utf-8")
    facts = tmp_path / "deep.facts"
    facts.write_text("p3000(a).\n", encoding="utf-8")
    env = fresh_python_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    err = tmp_path / "err.txt"
    with err.open("wb") as stderr:
        with subprocess.Popen([sys.executable, "-m", "proleg.cli", "run", str(rules), str(facts),
                               "--query", query, "--max-depth", "4000", "--text"],
                              stdout=subprocess.PIPE, stderr=stderr, env=env) as proc:
            assert proc.stdout.readline() == glyph + b"\n"
            proc.stdout.close()
            assert proc.wait(timeout=120) == code
    assert err.read_text(encoding="utf-8") == ""


def test_deeply_nested_term_is_a_parse_error_in_a_fresh_process(tmp_path):
    # 1000 levels overflow a recursive reader at the default recursion limit.
    rules = tmp_path / "nested.proleg"
    rules.write_text("p(" + "f(" * 1000 + "a" + ")" * 1001 + " <=.\n", encoding="utf-8")
    done = run_fresh_python("-m", "proleg.cli", "check", str(rules))
    assert "Traceback" not in done.stderr
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.startswith(f"{rules}:1:203: term nested deeper than 100 levels\n")


def test_growing_term_exits_2_at_the_depth_limit_in_a_fresh_process(tmp_path):
    # Each level nests the goal's term one deeper, so the goal that passes
    # the default depth limit holds a term 512 levels deep.
    rules = tmp_path / "grow.proleg"
    rules.write_text("p(X) <= p(s(X)).\n", encoding="utf-8")
    facts = tmp_path / "none.facts"
    facts.write_text("", encoding="utf-8")
    done = run_fresh_python("-m", "proleg.cli", "run", str(rules), str(facts), "--query", "p(z)")
    assert (done.returncode, done.stdout) == (2, "")
    goal = "p(" + "s(" * 512 + "z" + ")" * 513
    assert done.stderr == (f"engine error: goal nesting exceeded the depth limit at {goal} "
                           "(depth 513, after 513 steps)\n")


@pytest.mark.parametrize(
    "command",
    [("run", CURATED, WITHDRAWAL_FACTS, "--query", QUERY), ("case", "run", CASE_FILE)],
    ids=["run", "case-run"],
)
@pytest.mark.parametrize(
    "limit", [("--max-depth", "-3"), ("--max-steps", "0"), ("--max-depth", "0")],
    ids=["depth-negative", "steps-zero", "depth-zero"],
)
def test_non_positive_limit_is_a_usage_error(capsys, command, limit):
    code, out, err = run_cli(capsys, *command, *limit)
    assert code == 2
    assert out == ""
    assert "usage:" in err and "must be a positive integer" in err


class TestNonAsciiName:
    """A name character outside ASCII is a positioned parse error: exit 2,
    no traceback. Each runs in a fresh process to see what a user sees."""

    def run(self, *argv):
        done = run_fresh_python("-m", "proleg.cli", *argv)
        assert "Traceback" not in done.stderr
        assert (done.returncode, done.stdout) == (2, "")
        return done.stderr

    def test_rules_file(self, tmp_path):
        rules = tmp_path / "bad.proleg"
        rules.write_text("café(x) <= .\n", encoding="utf-8")
        err = self.run("check", str(rules))
        assert err.startswith(f"{rules}:1:4: expected '<=' after rule head\n")

    def test_facts_file(self, tmp_path):
        facts = tmp_path / "bad.facts"
        facts.write_text("consent_given(café).\n", encoding="utf-8")
        err = self.run("run", CURATED, str(facts), "--query", QUERY)
        assert err.startswith(f"{facts}:1:18: expected ')' to close argument list\n")

    def test_query(self):
        err = self.run("run", CURATED, WITHDRAWAL_FACTS, "--query", "lawful_processing(ß)")
        assert err.startswith("<query>:1:19: unexpected character 'ß'\n")

    def test_case_file_facts(self, tmp_path):
        case = {
            "id": "accented",
            "description": "a fact naming a non-ASCII constant",
            "ruleset": CURATED,
            "facts": ["consent_given(café)"],
            "query": QUERY,
            "expected": "o",
        }
        path = tmp_path / "accented.case.json"
        path.write_text(json.dumps(case, ensure_ascii=False), encoding="utf-8")
        err = self.run("case", "run", str(path))
        assert err == (
            f"{path}: fact does not parse as an atom: 'consent_given(café)' "
            "(1:18: expected ')' to close argument list)\n"
        )


class TestCheck:
    def test_curated_counts(self, capsys):
        code, out, _ = run_cli(capsys, "check", CURATED)
        assert code == 0
        assert "rules: 16" in out
        assert "exceptions: 4" in out
        assert "strata: 2" in out

    def test_empty_file(self, capsys, tmp_path):
        empty = tmp_path / "empty.proleg"
        empty.write_text("", encoding="utf-8")
        code, out, _ = run_cli(capsys, "check", str(empty))
        assert code == 0
        assert "rules: 0" in out

    def test_unstratified_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "cycle.proleg"
        bad.write_text("p <=. exception(p, q). q <=. exception(q, p).\n", encoding="utf-8")
        code, _, err = run_cli(capsys, "check", str(bad))
        assert code == 2
        assert "cycle" in err

    def test_range_warning_on_stderr(self, capsys, tmp_path):
        loose = tmp_path / "loose.proleg"
        loose.write_text("p(X) <= q(Y).\n", encoding="utf-8")
        code, _, err = run_cli(capsys, "check", str(loose))
        assert code == 0
        assert "not range-restricted" in err


class TestLint:
    def test_fixture_warnings_exit_0_by_default(self, capsys):
        code, out, _ = run_cli(capsys, "lint", str(llm_ruleset_path()))
        assert code == 0
        assert out.count("PRESUPPOSED_CLAUSE") == 1
        assert len(out.strip().splitlines()) >= 3

    def test_fail_on_warning(self, capsys):
        code, _, _ = run_cli(
            capsys, "lint", str(llm_ruleset_path()), "--fail-on", "warning"
        )
        assert code == 1

    def test_json_output(self, capsys):
        code, out, _ = run_cli(capsys, "lint", str(llm_ruleset_path()), "--json")
        parsed = json.loads(out)
        assert isinstance(parsed, list)
        assert any(entry["check_id"] == "ORPHAN_EXCEPTION" for entry in parsed)

    def test_clean_run_with_bundled_config(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "lint",
            CURATED,
            "--config",
            str(data_dir() / "article6_lint.json"),
            "--fail-on",
            "warning",
        )
        assert code == 0
        assert "no findings" in out

    def test_parse_failure_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.proleg"
        bad.write_text("p <= q\n", encoding="utf-8")
        code, _, _ = run_cli(capsys, "lint", str(bad))
        assert code == 2

    @pytest.mark.parametrize(
        "config",
        [
            [],
            {"declared_fact_schema": [1]},
            {"generic_siblings": "no"},
            {"presupposed_predicates": ["Foo/1"]},
            {"declared_fact_schema": ["/2"]},
            {"declared_fact_shema": ["x/1"]},
            NESTED_JSON,
            "{",
        ],
        ids=["list", "non-string-item", "string-boolean", "uppercase-name", "empty-name",
             "unknown-key", "nested", "syntax-error"],
    )
    def test_bad_config_exits_2(self, capsys, tmp_path, config):
        path = tmp_path / "lint.json"
        # A str is the file's text as it stands, not a value to encode.
        path.write_text(config if isinstance(config, str) else json.dumps(config),
                        encoding="utf-8")
        code, out, err = run_cli(capsys, "lint", CURATED, "--config", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("bad lint config: ")
        if isinstance(config, str):  # text that does not decode names its file
            assert err.startswith(f"bad lint config: {path} is ") and err.count("\n") == 1


class TestConvert:
    def test_negated_literal_becomes_exception(self, capsys, tmp_path):
        src = tmp_path / "in.pl"
        src.write_text("lawful :- consent, \\+ withdrawn.\n", encoding="utf-8")
        out_path = tmp_path / "out.proleg"
        code, out, _ = run_cli(capsys, "convert", str(src), str(out_path))
        assert code == 0
        text = out_path.read_text(encoding="utf-8")
        assert "exception(lawful, withdrawn)." in text
        assert "generated exceptions: 1" in out

    def test_cut_exits_2_naming_it(self, capsys, tmp_path):
        src = tmp_path / "in.pl"
        src.write_text("p :- q, !.\n", encoding="utf-8")
        code, _, err = run_cli(capsys, "convert", str(src), str(tmp_path / "out.proleg"))
        assert code == 2
        assert "'!'" in err

    def test_exception_head_exits_2_and_writes_nothing(self, capsys, tmp_path):
        src = tmp_path / "draft.pl"
        src.write_text("q.\nexception(X, Y) :- a(X), b(Y).\n", encoding="utf-8")
        out_path = tmp_path / "out.proleg"
        code, out, err = run_cli(capsys, "convert", str(src), str(out_path))
        assert (code, out) == (2, "")
        assert err.startswith(f"{src}:2:1: 'exception' is reserved")
        assert not out_path.exists()

    def test_negation_free_reports_zero(self, capsys, tmp_path):
        src = tmp_path / "in.pl"
        src.write_text("p :- q.\nq.\n", encoding="utf-8")
        code, out, _ = run_cli(capsys, "convert", str(src), str(tmp_path / "out.proleg"))
        assert code == 0
        assert "generated exceptions: 0" in out


class TestCase:
    def test_single_case_pass(self, capsys):
        code, out, _ = run_cli(capsys, "case", "run", str(cases_dir() / "withdrawal.case.json"))
        assert code == 0
        assert "withdrawal: PASS" in out

    def test_all_bundled_cases(self, capsys):
        code, out, _ = run_cli(capsys, "case", "run", "--all", str(cases_dir()))
        assert code == 0
        assert "13/13 cases passed" in out
        # Summary rows come out sorted by case id.
        ids = [line.split(":")[0] for line in out.strip().splitlines()[:-1]]
        assert ids == sorted(ids)

    def test_step_budget_flag_for_all_cases(self, capsys):
        code, _, err = run_cli(capsys, "case", "run", "--all", str(cases_dir()),
                               "--max-steps", "3")
        assert code == 2
        [line] = err.splitlines()
        path, _, message = line.partition(": engine error: ")
        assert Path(path).parent == cases_dir() and path.endswith(".case.json")
        assert "step budget" in message

    def test_case_mismatch_exits_1(self, capsys, tmp_path):
        case = {
            "id": "mismatch",
            "description": "expected wrong on purpose",
            "ruleset": str(curated_ruleset_path()),
            "facts": [],
            "query": "lawful_processing(case1)",
            "expected": "o",
        }
        path = tmp_path / "mismatch.case.json"
        path.write_text(json.dumps(case), encoding="utf-8")
        code, out, _ = run_cli(capsys, "case", "run", str(path))
        assert code == 1
        assert "FAIL" in out
        assert "expected o" in out and "actual x" in out

    def test_invalid_case_exits_2(self, capsys, tmp_path):
        path = tmp_path / "broken.case.json"
        for text in ("{", NESTED_JSON):
            path.write_text(text, encoding="utf-8")
            code, out, err = run_cli(capsys, "case", "run", str(path))
            assert (code, out) == (2, ""), text[:5]
            assert err.startswith(f"{path}: ") and err.count("\n") == 1

    def test_non_list_fragments_exit_2_in_a_fresh_process(self, tmp_path):
        for value in (None, 5, "abc", {}):
            case = {
                "id": "fragments",
                "description": "fragments that are not a list",
                "ruleset": str(curated_ruleset_path()),
                "facts": [],
                "query": "lawful_processing(case1)",
                "expected": "x",
                "expected_trace_fragments": value,
            }
            path = tmp_path / "fragments.case.json"
            path.write_text(json.dumps(case), encoding="utf-8")
            done = run_fresh_python("-m", "proleg.cli", "case", "run", str(path))
            assert (done.returncode, done.stdout) == (2, ""), value
            assert done.stderr == f"{path}: field 'expected_trace_fragments' must be a list\n"

    def test_empty_directory_exits_2(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "case", "run", "--all", str(tmp_path))
        assert code == 2

    def test_case_dot_export(self, capsys, tmp_path):
        dot_path = tmp_path / "case.dot"
        code, _, _ = run_cli(
            capsys,
            "case",
            "run",
            str(cases_dir() / "withdrawal.case.json"),
            "--dot",
            str(dot_path),
        )
        assert code == 0
        validate_dot(dot_path.read_text(encoding="utf-8"))


class TestBadInput:
    """Every file a command reads, made unreadable: missing, a directory, or
    bytes that are not UTF-8. Each is exit 2 with one stderr line naming
    the file. (JSON nested too deeply is in test_invalid_case_exits_2 and
    test_bad_config_exits_2.) A UTF-8 byte order mark at the start of any
    of them is skipped."""

    FILES = {
        "run-rules": "rules", "run-facts": "facts", "check-rules": "rules",
        "lint-rules": "rules", "lint-config": "config", "convert-draft": "draft",
        "case-file": "case", "case-ruleset": "ruleset", "case-facts": "facts",
    }

    @staticmethod
    def make(kind, path):
        if kind == "directory":
            path.mkdir()
        elif kind == "not-utf8":
            path.write_bytes(b"p <= \xff\xfe.\n")
        return path

    @staticmethod
    def case_file(tmp_path, ruleset=CURATED, facts=WITHDRAWAL_FACTS):
        case = {"id": "c", "description": "", "ruleset": str(ruleset),
                "facts": {"path": str(facts)}, "query": QUERY, "expected": "x"}
        path = tmp_path / "c.case.json"
        path.write_text(json.dumps(case), encoding="utf-8")
        return path

    @classmethod
    def argv(cls, entry, path, tmp_path):
        """The command line that reads ``path`` as the file ``entry`` names;
        a case entry writes the case file that names ``path``."""
        if entry == "case-ruleset":
            return ["case", "run", str(cls.case_file(tmp_path, ruleset=path))]
        if entry == "case-facts":
            return ["case", "run", str(cls.case_file(tmp_path, facts=path))]
        return {
            "run-rules": ["run", str(path), WITHDRAWAL_FACTS, "--query", QUERY],
            "run-facts": ["run", CURATED, str(path), "--query", QUERY],
            "check-rules": ["check", str(path)],
            "lint-rules": ["lint", str(path)],
            "lint-config": ["lint", CURATED, "--config", str(path)],
            "convert-draft": ["convert", str(path), str(tmp_path / "out.proleg")],
            "case-file": ["case", "run", str(path)],
        }[entry]

    @pytest.mark.parametrize("kind", ["missing", "directory", "not-utf8"])
    @pytest.mark.parametrize("entry", list(FILES))
    def test_unreadable_file_exits_2_naming_it(self, capsys, tmp_path, entry, kind):
        bad = self.make(kind, tmp_path / f"bad-{self.FILES[entry]}")
        argv = self.argv(entry, bad, tmp_path)
        prefix = ("bad lint config: " if entry == "lint-config"
                  else f"{argv[2]}: " if entry.startswith("case-") else "i/o error: ")
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith(prefix) and err.count("\n") == 1, err
        assert str(bad) in err or str(bad.resolve()) in err
        if kind == "not-utf8" and not entry.startswith("case-"):
            assert f"{bad} is not UTF-8 text: " in err

    @pytest.mark.parametrize("entry", list(FILES))
    def test_a_utf8_byte_order_mark_is_skipped(self, capsys, tmp_path, entry):
        kind = self.FILES[entry]
        if kind == "draft":
            good = tmp_path / "draft.pl"
            good.write_text("p :- q, \\+ r.\n", encoding="utf-8")
        elif kind == "case":
            good = self.case_file(tmp_path)
        else:
            good = {"rules": CURATED, "facts": WITHDRAWAL_FACTS, "ruleset": CURATED,
                    "config": str(data_dir() / "article6_lint.json")}[kind]
        marked = tmp_path / f"bom-{kind}"
        marked.write_bytes(b"\xef\xbb\xbf" + Path(good).read_bytes())
        expected = run_cli(capsys, *self.argv(entry, good, tmp_path))
        assert expected[0] != 2, expected
        assert run_cli(capsys, *self.argv(entry, marked, tmp_path)) == expected

    def test_convert_output_that_cannot_be_written(self, capsys, tmp_path):
        src = tmp_path / "in.pl"
        src.write_text("p :- q.\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "convert", str(src), str(tmp_path))
        assert (code, out) == (2, "")
        assert err.startswith("i/o error: ") and str(tmp_path) in err

    def test_no_traceback_in_a_fresh_process(self, tmp_path):
        rules = self.make("not-utf8", tmp_path / "rules.proleg")
        case = tmp_path / "deep.case.json"
        case.write_text(NESTED_JSON, encoding="utf-8")
        for argv, line in [
            (["check", str(rules)], f"i/o error: {rules} is not UTF-8 text: "),
            (["case", "run", str(case)], f"{case}: case file {case} is nested too deeply\n"),
        ]:
            done = run_fresh_python("-m", "proleg.cli", *argv)
            assert "Traceback" not in done.stderr
            assert (done.returncode, done.stdout) == (2, "")
            assert done.stderr.startswith(line)


class TestUsage:
    def test_no_command_exits_2(self, capsys):
        assert main([]) == 2

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0

    def test_unknown_command_exits_2(self, capsys):
        assert main(["frobnicate"]) == 2

    @pytest.mark.parametrize(
        "argv, message",
        [
            ([], "one of the arguments case --all is required"),
            ([CASE_FILE, "--all", str(cases_dir())],
             "argument --all: not allowed with argument case"),
        ],
        ids=["neither", "both"],
    )
    def test_case_run_takes_a_file_or_all(self, capsys, argv, message):
        code, out, err = run_cli(capsys, "case", "run", *argv)
        assert (code, out) == (2, "")
        assert err.startswith("usage: proleg case run ") and err.endswith(f": error: {message}\n")

    @pytest.mark.parametrize("flags, named", [
        (["--text"], "--text"), (["--dot", "t.dot"], "--dot"), (["--trace", "t.json"], "--trace"),
        (["--trace", "t.json", "--text"], "--text, --trace"),
    ])
    def test_case_run_all_takes_no_trace_flag(self, capsys, tmp_path, monkeypatch, flags,
                                              named):
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(capsys, "case", "run", "--all", str(cases_dir()), *flags)
        assert (code, out) == (2, "")
        assert err == f"{named}: not allowed with --all; only one case FILE writes its trace\n"
        assert list(tmp_path.iterdir()) == []
