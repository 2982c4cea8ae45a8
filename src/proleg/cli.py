"""Command-line interface.

Commands: ``run`` a query against a ruleset and facts file, ``check``
a ruleset (parse and stratification), ``lint`` a ruleset, ``convert``
a restricted-Prolog file into PROLEG, and ``case run`` for executable
case files (single file or ``--all`` over a directory).

Exit codes: 0 when the query succeeded, the case passed, or no finding
reached the failure threshold; 1 for a failed query, a case mismatch,
or findings at the threshold; 2 for usage, parse, or engine errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Optional

from .ast import Program, indicator
from .convert import convert_source
from .engine import EngineConfig, EngineError, stratify
from .gdpr import CaseFile, CaseLoadError, load_case, run_case
from .lint import (
    ERROR,
    WARNING,
    LintConfig,
    findings_to_json,
    lint,
    severity_at_least,
)
from .parser import (
    ParseFailure,
    parse_atom,
    parse_facts,
    parse_program,
    range_restriction_warnings,
)
from .trace import Outcome, render_dot, render_json, render_text

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_ERROR = 2

MAX_STEPS_ENV = "PROLEG_MAX_STEPS"


def _print_parse_failure(path: str, failure: ParseFailure) -> None:
    for error in failure.errors:
        print(f"{path}:{error.line}:{error.column}: {error.message}", file=sys.stderr)
        if error.snippet:
            print(f"    {error.snippet}", file=sys.stderr)


def _load_program(path: str) -> Program:
    text = Path(path).read_text(encoding="utf-8")
    return parse_program(text)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _engine_config(args: argparse.Namespace) -> EngineConfig:
    defaults = EngineConfig()
    max_steps = defaults.max_steps
    env_value = os.environ.get(MAX_STEPS_ENV)
    if env_value:
        try:
            max_steps = _positive_int(env_value)
        except argparse.ArgumentTypeError:
            print(
                f"warning: ignoring {MAX_STEPS_ENV}={env_value!r}: not a positive integer",
                file=sys.stderr,
            )
    if getattr(args, "max_steps", None) is not None:
        max_steps = args.max_steps
    max_depth = getattr(args, "max_depth", None) or defaults.max_depth
    return EngineConfig(max_depth=max_depth, max_steps=max_steps)


def _write_trace_outputs(args: argparse.Namespace, trace) -> None:
    if getattr(args, "trace", None):
        Path(args.trace).write_text(render_json(trace) + "\n", encoding="utf-8")
    if getattr(args, "dot", None):
        Path(args.dot).write_text(render_dot(trace), encoding="utf-8")
    if getattr(args, "text", False):
        print(render_text(trace), end="")


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        program = _load_program(args.rules)
    except ParseFailure as failure:
        _print_parse_failure(args.rules, failure)
        return EXIT_ERROR
    try:
        facts = parse_facts(Path(args.facts).read_text(encoding="utf-8"))
    except ParseFailure as failure:
        _print_parse_failure(args.facts, failure)
        return EXIT_ERROR
    try:
        goal = parse_atom(args.query)
    except ParseFailure as failure:
        _print_parse_failure("<query>", failure)
        return EXIT_ERROR
    from .engine import solve

    try:
        outcome, trace = solve(program, facts, goal, _engine_config(args))
    except EngineError as exc:
        print(f"engine error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    print(outcome.glyph)
    _write_trace_outputs(args, trace)
    return EXIT_OK if outcome is Outcome.SUCCESS else EXIT_FAIL


def _cmd_check(args: argparse.Namespace) -> int:
    try:
        program = _load_program(args.rules)
    except ParseFailure as failure:
        _print_parse_failure(args.rules, failure)
        return EXIT_ERROR
    try:
        strata = stratify(program)
    except EngineError as exc:
        print(f"engine error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    print(f"rules: {len(program.rules)}")
    print(f"exceptions: {len(program.exceptions)}")
    print(f"strata: {len(strata)}")
    for index, stratum in enumerate(strata):
        names = ", ".join(sorted(indicator(key) for key in stratum))
        print(f"  stratum {index}: {names}")
    for warning in range_restriction_warnings(program):
        print(f"warning: {warning}", file=sys.stderr)
    return EXIT_OK


def _cmd_lint(args: argparse.Namespace) -> int:
    try:
        program = _load_program(args.rules)
    except ParseFailure as failure:
        _print_parse_failure(args.rules, failure)
        return EXIT_ERROR
    try:
        config = LintConfig.from_json_file(args.config) if args.config else None
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"bad lint config: {exc}", file=sys.stderr)
        return EXIT_ERROR
    findings = lint(program, config)
    if args.json:
        print(findings_to_json(findings))
    else:
        for finding in findings:
            print(str(finding))
        if not findings:
            print("no findings")
    failing = [f for f in findings if severity_at_least(f.severity, args.fail_on)]
    return EXIT_FAIL if failing else EXIT_OK


def _cmd_convert(args: argparse.Namespace) -> int:
    try:
        source = Path(args.prolog).read_text(encoding="utf-8")
    except OSError as exc:
        print(f"cannot read {args.prolog}: {exc}", file=sys.stderr)
        return EXIT_ERROR
    try:
        program, report = convert_source(source)
    except ParseFailure as failure:
        _print_parse_failure(args.prolog, failure)
        return EXIT_ERROR
    except EngineError as exc:
        print(f"engine error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    from .parser import serialize

    Path(args.out).write_text(serialize(program), encoding="utf-8")
    print(f"converted rules: {report.converted_rules}")
    print(f"generated exceptions: {report.generated_exceptions}")
    if report.synthesized_predicates:
        print(f"synthesized predicates: {', '.join(report.synthesized_predicates)}")
    for warning in report.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    return EXIT_OK


def _load_one_case(path: Path) -> Optional[CaseFile]:
    """Load a case file; returns None after reporting its problems."""
    try:
        return load_case(path)
    except CaseLoadError as exc:
        for message in exc.errors:
            print(f"{path}: {message}", file=sys.stderr)
        return None


def _run_one_case(case: CaseFile, path: Path, args: argparse.Namespace,
                  verbose: bool) -> Optional[bool]:
    """Run a loaded case; returns passed, or None on an engine error."""
    try:
        result = run_case(case, _engine_config(args))
    except EngineError as exc:
        print(f"{path}: engine error: {exc}", file=sys.stderr)
        return None
    status = "PASS" if result.passed else "FAIL"
    print(
        f"{case.id}: {status} (expected {case.expected.glyph}, actual {result.actual.glyph})"
    )
    if verbose:
        _write_trace_outputs(args, result.trace)
    return result.passed


def _cmd_case_run(args: argparse.Namespace) -> int:
    if args.all:
        directory = Path(args.all)
        paths = sorted(directory.glob("*.case.json"))
        if not paths:
            print(f"no *.case.json files in {directory}", file=sys.stderr)
            return EXIT_ERROR
        cases = []
        for path in paths:
            case = _load_one_case(path)
            if case is None:
                return EXIT_ERROR
            cases.append((case, path))
        cases.sort(key=lambda pair: pair[0].id)
        passed = 0
        for case, path in cases:
            outcome = _run_one_case(case, path, args, verbose=False)
            if outcome is None:
                return EXIT_ERROR
            passed += 1 if outcome else 0
        print(f"{passed}/{len(cases)} cases passed")
        return EXIT_OK if passed == len(cases) else EXIT_FAIL
    if not args.case:
        print("case run: give a case file or --all DIR", file=sys.stderr)
        return EXIT_ERROR
    path = Path(args.case)
    case = _load_one_case(path)
    outcome = None if case is None else _run_one_case(case, path, args, verbose=True)
    if outcome is None:
        return EXIT_ERROR
    return EXIT_OK if outcome else EXIT_FAIL


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="proleg",
        description="PROLEG toolchain: evaluate, inspect, lint, and convert rule bases.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="evaluate a query against rules and facts")
    run_p.add_argument("rules", help="PROLEG ruleset file")
    run_p.add_argument("facts", help="ground facts file")
    run_p.add_argument("--query", required=True, help="goal atom, e.g. 'lawful_processing(case1)'")
    run_p.add_argument("--trace", help="write the trace as JSON to this path")
    run_p.add_argument("--dot", help="write the trace as DOT to this path")
    run_p.add_argument("--text", action="store_true", help="print the trace tree")
    run_p.add_argument("--max-depth", type=_positive_int, help="goal nesting limit")
    run_p.add_argument("--max-steps", type=_positive_int, help="resolution step budget")
    run_p.set_defaults(func=_cmd_run)

    check_p = sub.add_parser("check", help="parse a ruleset and report stratification")
    check_p.add_argument("rules")
    check_p.set_defaults(func=_cmd_check)

    lint_p = sub.add_parser("lint", help="run static checks over a ruleset")
    lint_p.add_argument("rules")
    lint_p.add_argument("--config", help="lint configuration JSON")
    lint_p.add_argument("--json", action="store_true", help="print findings as JSON")
    lint_p.add_argument(
        "--fail-on",
        choices=[WARNING, ERROR],
        default=ERROR,
        help="exit 1 when findings at or above this severity exist",
    )
    lint_p.set_defaults(func=_cmd_lint)

    conv_p = sub.add_parser("convert", help="convert restricted Prolog into PROLEG")
    conv_p.add_argument("prolog", help="input .pl file in the supported subset")
    conv_p.add_argument("out", help="output .proleg file")
    conv_p.set_defaults(func=_cmd_convert)

    case_p = sub.add_parser("case", help="work with executable case files")
    case_sub = case_p.add_subparsers(dest="case_command", required=True)
    case_run = case_sub.add_parser("run", help="run one case file, or every case in a directory")
    case_run.add_argument("case", nargs="?", help="a *.case.json file")
    case_run.add_argument("--all", metavar="DIR", help="run every *.case.json in DIR")
    case_run.add_argument("--trace", help="write the trace as JSON to this path")
    case_run.add_argument("--dot", help="write the trace as DOT to this path")
    case_run.add_argument("--text", action="store_true", help="print the trace tree")
    case_run.add_argument("--max-depth", type=_positive_int, help="goal nesting limit")
    case_run.add_argument("--max-steps", type=_positive_int, help="resolution step budget")
    case_run.set_defaults(func=_cmd_case_run)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_arg_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_ERROR
    try:
        return args.func(args)
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
