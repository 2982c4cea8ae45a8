"""Command-line interface.

Commands: ``run`` a query against a ruleset and facts file, ``check``
a ruleset (parse and stratification), ``lint`` a ruleset, ``convert``
a restricted-Prolog file into PROLEG, and ``case run`` for executable
case files (single file or ``--all`` over a directory).

Exit codes: 0 when the query succeeded, the case passed, or no finding
reached the failure threshold; 1 for a failed query, a case mismatch,
or findings at the threshold; 2 for usage, input, parse, or engine
errors. Each command raises on a bad input; ``main`` alone prints it.
Each command settles its exit code before it writes to stdout, so a
reader that closes stdout early (``proleg run ... --text | head -1``)
leaves that code in place, with nothing on stderr.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import Callable, Optional

from .ast import indicator
from .convert import convert_source
from .engine import DEFAULT_CONFIG, EngineConfig, EngineError, solve, stratify
from .gdpr import CaseLoadError, load_case, run_case
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
    serialize,
)
from .trace import Outcome, render_dot, render_json, render_text

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_ERROR = 2


class _BadInput(Exception):
    """A bad input; its args are the stderr lines that report it."""


# What a command gives ``main``: its exit code, and the function that
# writes its output, called after the code is settled.
_Result = tuple[int, Callable[[], None]]


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise _BadInput(f"i/o error: {path} is not UTF-8 text: {exc}") from None


def _parsed(parse, path: str, text: Optional[str] = None):
    """``parse`` applied to ``text``, or to the file at ``path``; a parse
    failure becomes ``path:line:col: message`` lines with their snippets."""
    try:
        return parse(_read(path) if text is None else text)
    except ParseFailure as failure:
        lines = []
        for error in failure.errors:
            lines.append(f"{path}:{error.line}:{error.column}: {error.message}")
            if error.snippet:
                lines.append(f"    {error.snippet}")
        raise _BadInput(*lines) from None


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _write_trace_outputs(args: argparse.Namespace, trace) -> None:
    if args.trace:
        Path(args.trace).write_text(render_json(trace) + "\n", encoding="utf-8")
    if args.dot:
        Path(args.dot).write_text(render_dot(trace), encoding="utf-8")
    if args.text:
        print(render_text(trace), end="")


def _cmd_run(args: argparse.Namespace) -> _Result:
    program = _parsed(parse_program, args.rules)
    facts = _parsed(parse_facts, args.facts)
    goal = _parsed(parse_atom, "<query>", args.query)
    outcome, trace = solve(program, facts, goal, EngineConfig(args.max_depth, args.max_steps))

    def write() -> None:
        print(outcome.glyph)
        _write_trace_outputs(args, trace)
    return EXIT_OK if outcome is Outcome.SUCCESS else EXIT_FAIL, write


def _cmd_check(args: argparse.Namespace) -> _Result:
    program = _parsed(parse_program, args.rules)
    strata = stratify(program)

    def write() -> None:
        print(f"rules: {len(program.rules)}")
        print(f"exceptions: {len(program.exceptions)}")
        print(f"strata: {len(strata)}")
        for index, stratum in enumerate(strata):
            names = ", ".join(sorted(indicator(key) for key in stratum))
            print(f"  stratum {index}: {names}")
        for warning in range_restriction_warnings(program):
            print(f"warning: {warning}", file=sys.stderr)
    return EXIT_OK, write


def _cmd_lint(args: argparse.Namespace) -> _Result:
    program = _parsed(parse_program, args.rules)
    try:
        config = LintConfig.from_json_file(args.config) if args.config else None
    except (OSError, ValueError) as exc:
        raise _BadInput(f"bad lint config: {exc}") from None
    findings = lint(program, config)
    failing = any(severity_at_least(f.severity, args.fail_on) for f in findings)

    def write() -> None:
        if args.json:
            print(findings_to_json(findings))
        else:
            for finding in findings:
                print(str(finding))
            if not findings:
                print("no findings")
    return EXIT_FAIL if failing else EXIT_OK, write


def _cmd_convert(args: argparse.Namespace) -> _Result:
    program, report = _parsed(convert_source, args.prolog)
    Path(args.out).write_text(serialize(program), encoding="utf-8")

    def write() -> None:
        print(f"converted rules: {report.converted_rules}")
        print(f"generated exceptions: {report.generated_exceptions}")
        if report.synthesized_predicates:
            print(f"synthesized predicates: {', '.join(report.synthesized_predicates)}")
        for warning in report.warnings:
            print(f"warning: {warning}", file=sys.stderr)
    return EXIT_OK, write


def _cmd_case_run(args: argparse.Namespace) -> _Result:
    """Load every case, then run them all, before writing anything; with
    ``--all``, which takes no trace flag, report them in id order with a
    summary, else write the one case's trace outputs."""
    single = args.all is None
    flags = [flag for flag, value in (("--text", args.text), ("--dot", args.dot),
                                      ("--trace", args.trace)) if value]
    if flags and not single:
        raise _BadInput(f"{', '.join(flags)}: not allowed with --all; only one case FILE "
                        "writes its trace")
    paths = [Path(args.case)] if single else sorted(Path(args.all).glob("*.case.json"))
    if not paths:
        raise _BadInput(f"no *.case.json files in {Path(args.all)}")
    cases = []
    for path in paths:
        try:
            cases.append((load_case(path), path))
        except CaseLoadError as exc:
            raise _BadInput(*(f"{path}: {message}" for message in exc.errors)) from None
    cases.sort(key=lambda pair: pair[0].id)
    config = EngineConfig(args.max_depth, args.max_steps)
    results = []
    for case, path in cases:
        try:
            results.append((case, run_case(case, config)))
        except EngineError as exc:
            raise _BadInput(f"{path}: engine error: {exc}") from None
    passed = sum(result.passed for _, result in results)

    def write() -> None:
        for case, result in results:
            status = "PASS" if result.passed else "FAIL"
            print(f"{case.id}: {status} (expected {case.expected.glyph}, "
                  f"actual {result.actual.glyph})")
            if single:
                _write_trace_outputs(args, result.trace)
        if not single:
            print(f"{passed}/{len(cases)} cases passed")
    return EXIT_OK if passed == len(cases) else EXIT_FAIL, write


def _add_trace_and_limit_flags(command: argparse.ArgumentParser) -> None:
    command.add_argument("--trace", help="write the trace as JSON to this path")
    command.add_argument("--dot", help="write the trace as DOT to this path")
    command.add_argument("--text", action="store_true", help="print the trace tree")
    command.add_argument("--max-depth", type=_positive_int, default=DEFAULT_CONFIG.max_depth,
                         help="goal nesting limit")
    command.add_argument("--max-steps", type=_positive_int, default=DEFAULT_CONFIG.max_steps,
                         help="resolution step budget")


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
    _add_trace_and_limit_flags(run_p)
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
    which = case_run.add_mutually_exclusive_group(required=True)
    which.add_argument("case", nargs="?", help="a *.case.json file")
    which.add_argument("--all", metavar="DIR", help="run every *.case.json in DIR")
    _add_trace_and_limit_flags(case_run)
    case_run.set_defaults(func=_cmd_case_run)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    """Run one command and return its exit code.

    Once stdout is closed by its reader, writing stops: stdout's file
    descriptor is pointed at ``os.devnull``, so the interpreter's final
    flush of what is still buffered stays silent, and the command's own
    code stands, with nothing written to stderr.
    """
    code = EXIT_OK
    try:
        try:
            args = build_arg_parser().parse_args(argv)
        except SystemExit as exc:
            code = EXIT_OK if exc.code in (0, None) else EXIT_ERROR
        else:
            code, write = args.func(args)
            write()
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return code
    except _BadInput as exc:
        lines = exc.args
    except EngineError as exc:
        lines = (f"engine error: {exc}",)
    except OSError as exc:
        lines = (f"i/o error: {exc}",)
    for line in lines:
        print(line, file=sys.stderr)
    return EXIT_ERROR


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
