"""Command-line front end.

Subcommands: ``verify`` (one case), ``suite`` (every admissible case
within bounds), ``scan`` (conjecture integrality scan), ``primes``
(primes in an arithmetic progression).

Exit codes, mutually exclusive:
  0 all checks pass
  1 a verification failed (a congruence did not hold)
  2 usage or hypothesis error
  3 conjecture scan found a non-integral cell (a finding, not a failure)
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from fractions import Fraction

from .errors import CongruenceError
from .primes import primes_in_class
from .scan import scan_conjecture
from .suite import SuiteConfig, all_pass, render, report_lines, run_suite
from .verifiers import CASE_KINDS, Case, run_case

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_FINDING = 3


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational: {text!r} ({exc})")


def _int_set(text: str) -> tuple[int, ...]:
    try:
        return tuple(sorted({int(v) for v in text.split(",") if v.strip()}))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a comma-separated int list: {text!r} ({exc})")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="supercongruences",
        description="Exact verification of hypergeometric congruences and identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run a single verifier case")
    p_verify.add_argument("case", choices=CASE_KINDS, help="which check to run")
    p_verify.add_argument("--d", type=int, help="series degree parameter d")
    p_verify.add_argument("--p", type=int, help="odd prime p")
    p_verify.add_argument("--r", type=int, help="prime-power exponent r")
    p_verify.add_argument("--n", type=int, help="range/truncation parameter n")
    p_verify.add_argument("--strength", type=int, help="modulus exponent (dflst: 2 or 3)")
    p_verify.add_argument("--alpha", type=_fraction, help="rational parameter alpha")
    p_verify.add_argument("--x", type=_fraction, help="deformation x")
    p_verify.add_argument("--y", type=_fraction, help="deformation y")
    _output_flags(p_verify)

    p_suite = sub.add_parser("suite", help="run every admissible case within bounds")
    p_suite.add_argument("--p-max", type=int, default=199, help="prime bound (default 199)")
    p_suite.add_argument(
        "--d-set", type=_int_set, default=(2, 3, 4, 5, 6, 7), help="comma list of d values"
    )
    p_suite.add_argument("--r-max", type=int, default=2, help="max prime-power exponent")
    p_suite.add_argument(
        "--max-strength", type=int, default=3, choices=(2, 3), help="cap on dflst modulus exponent"
    )
    p_suite.add_argument("--seed", type=int, default=0, help="seed for sampled deformation points")
    p_suite.add_argument("--jobs", type=int, default=1, help="parallel worker processes")
    _output_flags(p_suite)

    p_scan = sub.add_parser("scan", help="conjecture integrality scan")
    p_scan.add_argument("--d", type=int, required=True, help="series degree parameter d >= 2")
    p_scan.add_argument("--n-max", type=int, required=True, help="scan ceiling for n")
    p_scan.add_argument("--state", help="persistent state file (resume support)")
    p_scan.add_argument("--format", choices=("plain", "json"), default="plain")

    p_primes = sub.add_parser("primes", help="odd primes in an arithmetic progression")
    p_primes.add_argument("--residue", type=int, required=True)
    p_primes.add_argument("--modulus", type=int, required=True)
    p_primes.add_argument("--limit", type=int, required=True)

    return parser


def _output_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--format", choices=("plain", "json", "csv"), default="plain")
    sub.add_argument("--out", help="write the report to this path")


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def cmd_verify(args: argparse.Namespace) -> int:
    params = {f.name: getattr(args, f.name) for f in fields(Case) if f.name != "kind"}
    case = Case(args.case, **params)
    report = run_case(case)
    if args.format == "json":
        _emit(json.dumps(report.to_dict(), indent=2), args.out)
    else:
        _emit(render([report], args.format), args.out)
    return EXIT_PASS if report.verdict else EXIT_FAIL


def cmd_suite(args: argparse.Namespace) -> int:
    cfg = SuiteConfig(
        p_max=args.p_max,
        d_set=args.d_set,
        r_max=args.r_max,
        max_strength=args.max_strength,
        seed=args.seed,
        jobs=args.jobs,
    )
    collected = []

    def progress(report) -> None:
        collected.append(report)
        if args.format == "plain" and not args.out:
            print(report_lines([report])[0], flush=True)

    try:
        reports = run_suite(cfg, progress=progress)
    except CongruenceError as exc:
        # keep whatever finished: partial results are still useful
        if collected and args.out:
            _emit(render(sorted(collected, key=lambda r: r.case.sort_key()), args.format), args.out)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    if args.format == "plain" and not args.out:
        passed = sum(r.verdict for r in reports)
        if not collected:  # parallel runs stream nothing; print everything now
            print("\n".join(report_lines(reports)))
        print(f"{passed}/{len(reports)} cases pass")
    else:
        _emit(render(reports, args.format), args.out)
        print(f"{sum(r.verdict for r in reports)}/{len(reports)} cases pass", file=sys.stderr)
    return EXIT_PASS if all_pass(reports) else EXIT_FAIL


def cmd_scan(args: argparse.Namespace) -> int:
    cells = scan_conjecture(args.d, args.n_max, args.state)
    if args.format == "json":
        print(json.dumps([c.to_dict() for c in cells], indent=2))
    else:
        for cell in cells:
            print(cell.line())
    bad = [c for c in cells if not c.is_integer]
    for cell in bad:
        print(f"NON-INTEGRAL cell d={cell.d} n={cell.n}: {cell.value_text()}", file=sys.stderr)
    return EXIT_FINDING if bad else EXIT_PASS


def cmd_primes(args: argparse.Namespace) -> int:
    print(" ".join(str(p) for p in primes_in_class(args.residue, args.modulus, args.limit)))
    return EXIT_PASS


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {"verify": cmd_verify, "suite": cmd_suite, "scan": cmd_scan, "primes": cmd_primes}
    try:
        return handlers[args.command](args)
    except (CongruenceError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
