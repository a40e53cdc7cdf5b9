"""Command-line front end.

    probproc equiv P Q [--method ready-trace|testing] [--depth N] [--budget N]
                       [--prio FILE]
    probproc res P T [--prio FILE]
    probproc trace-prob P --trace "{h,t} -h-> {p}"
    probproc distinguish P Q
    probproc compile P [--dot | --json] [--prio FILE]
    probproc oracle [--seed S] [--samples N] [--check NAME]

P, Q and T are inline terms in the concrete syntax, or @FILE to read the
term from a file.  All numbers print as exact fractions.  Exit status:
0 equivalent/success, 1 distinguished (or some check failed), 2 bad input
(a usage error included) or an internal error, reported on one line.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .harness import CHECKS, GenConfig, run_checks
from .parser import ParseError, parse_priority, parse_term, parse_test
from .pts import CyclicGraphError, to_dot, to_json, validate
from .readytrace import parse_trace, ready_trace_equivalent, trace_probability
from .semantics import compile_term, composition_warnings
from .terms import EMPTY_ORDER, render
from .testing import distinguishing_test, apply_test, bounded_testing_equivalent


def _read_input(value: str) -> str:
    if value.startswith("@"):
        return Path(value[1:]).read_text()
    return value


def _load_order(path: str | None):
    if path is None:
        return EMPTY_ORDER
    return parse_priority(Path(path).read_text())


def _compile_checked(text: str, order, allow_success: bool):
    term = (parse_test if allow_success else parse_term)(_read_input(text))
    for warning in composition_warnings(term):
        print(f"warning: {warning}", file=sys.stderr)
    return compile_term(term, order)


def _cmd_equiv(args) -> int:
    order = _load_order(args.prio)
    left = _compile_checked(args.left, order, allow_success=False)
    right = _compile_checked(args.right, order, allow_success=False)
    if args.method == "testing":
        verdict = bounded_testing_equivalent(
            left, right, depth=args.depth, budget=args.budget
        )
        if verdict.equivalent:
            print(f"equivalent (bounded, test depth {verdict.depth})")
            return 0
        print("distinguished (bounded)")
        print(f"  test:  {render(verdict.test)}")
        print(f"  left:  {verdict.left_result}")
        print(f"  right: {verdict.right_result}")
        return 1
    verdict = ready_trace_equivalent(left, right)
    if verdict.equivalent:
        print("equivalent")
        return 0
    print("distinguished")
    print(f"  trace: {verdict.trace.render()}")
    print(f"  left:  {verdict.left_probability}")
    print(f"  right: {verdict.right_probability}")
    return 1


def _cmd_res(args) -> int:
    order = _load_order(args.prio)
    process = _compile_checked(args.process, order, allow_success=False)
    test = _compile_checked(args.test, order, allow_success=True)
    print(apply_test(process, test))
    return 0


def _cmd_trace_prob(args) -> int:
    order = _load_order(args.prio)
    process = _compile_checked(args.process, order, allow_success=False)
    # An undefined probability prints as "undefined".
    print(trace_probability(process, parse_trace(args.trace)))
    return 0


def _cmd_distinguish(args) -> int:
    order = _load_order(args.prio)
    left = _compile_checked(args.left, order, allow_success=False)
    right = _compile_checked(args.right, order, allow_success=False)
    witness = distinguishing_test(left, right)
    if witness is None:
        print("not distinguishable")
        return 0
    compiled = compile_term(witness)
    print(render(witness))
    print(f"  left:  {apply_test(left, compiled)}")
    print(f"  right: {apply_test(right, compiled)}")
    return 1


def _cmd_compile(args) -> int:
    order = _load_order(args.prio)
    pts = _compile_checked(args.process, order, allow_success=True)
    problems = validate(pts, allow_success=True)
    for problem in problems:
        print(f"warning: {problem}", file=sys.stderr)
    if args.dot:
        print(to_dot(pts))
    else:
        print(to_json(pts))
    return 0


def _cmd_oracle(args) -> int:
    cfg = GenConfig(
        alphabet_size=args.alphabet,
        max_depth=args.term_depth,
        seed=args.seed,
    )
    reports = run_checks(cfg, n_samples=args.samples, only=args.check)
    print(json.dumps({name: r.to_dict() for name, r in reports.items()}, indent=2))
    return 0 if all(r.ok for r in reports.values()) else 1


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a usage error as every other error is reported: on one line,
    with exit status 2.  Subcommand parsers are of the same class."""

    def error(self, message: str):
        self.exit(2, f"error: {message}\n")


def build_arg_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="probproc",
        description="workbench for reactive probabilistic processes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    equiv = sub.add_parser("equiv", help="decide equivalence of two processes")
    equiv.add_argument("left")
    equiv.add_argument("right")
    equiv.add_argument(
        "--method", choices=("ready-trace", "testing"), default="ready-trace"
    )
    equiv.add_argument("--depth", type=int, default=None, help="testing depth bound")
    equiv.add_argument(
        "--budget",
        type=int,
        default=100000,
        help="refuse a testing search over more tests than this (default 100000)",
    )
    equiv.add_argument("--prio", default=None, help="priority order file (lines a > b)")
    equiv.set_defaults(func=_cmd_equiv)

    res = sub.add_parser("res", help="symbolic outcome of running a test")
    res.add_argument("process")
    res.add_argument("test")
    res.add_argument("--prio", default=None)
    res.set_defaults(func=_cmd_res)

    trace = sub.add_parser("trace-prob", help="probability of a ready trace")
    trace.add_argument("process")
    trace.add_argument("--trace", required=True, help='e.g. "{h,t} -h-> {p}"')
    trace.add_argument("--prio", default=None)
    trace.set_defaults(func=_cmd_trace_prob)

    dist = sub.add_parser("distinguish", help="synthesize a separating test")
    dist.add_argument("left")
    dist.add_argument("right")
    dist.add_argument("--prio", default=None)
    dist.set_defaults(func=_cmd_distinguish)

    comp = sub.add_parser("compile", help="compile a term to its graph")
    comp.add_argument("process")
    output = comp.add_mutually_exclusive_group()
    output.add_argument("--dot", action="store_true", help="emit GraphViz instead of JSON")
    output.add_argument("--json", action="store_true", help="emit JSON (default)")
    comp.add_argument("--prio", default=None)
    comp.set_defaults(func=_cmd_compile)

    oracle = sub.add_parser("oracle", help="run the randomized property suites")
    oracle.add_argument("--seed", type=int, default=0)
    oracle.add_argument("--samples", type=int, default=200)
    oracle.add_argument("--alphabet", type=int, default=2)
    oracle.add_argument("--term-depth", type=int, default=3)
    oracle.add_argument("--check", default=None, choices=tuple(CHECKS))
    oracle.set_defaults(func=_cmd_oracle)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_arg_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, CyclicGraphError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # Exit 1 means "distinguished", so an internal failure must not
        # escape as a traceback with that status.
        print(f"error: internal {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
