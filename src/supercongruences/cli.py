"""Command-line front end.

Subcommands: ``verify`` (one case), ``suite`` (every admissible case
within bounds), ``scan`` (conjecture integrality scan), ``primes``
(primes in an arithmetic progression).

Exit codes, mutually exclusive:
  0 all checks pass
  1 a verification failed (a congruence did not hold, or a side is not
    p-integral: a report with a ``finding:`` note)
  2 usage or hypothesis error, a file that cannot be read or written, or
    a case that raised. Usage errors print ``error: <message>``. Anything a
    case raises but HypothesisViolated is a bug, whatever its type, and
    prints its traceback (a pool worker's rides along as a note)
  3 conjecture scan found a non-integral cell (a finding, not a failure)
  141 the reader closed stdout before the output ended (128 + SIGPIPE, the
    code a shell reports for a process that SIGPIPE killed); nothing more
    is printed, on stdout or stderr

A negative rational may follow ``--alpha``, ``--x`` or ``--y`` bare, as in
``--x -1/2``: argparse alone would read ``-1/2`` as an option.

``--out`` is checked before any case runs, so a bad path costs no work,
but only once ``verify``'s hypotheses hold, so a usage error leaves no
empty file. ``verify`` writes the path only once its report is ready: a
case that raises leaves an existing file as it was and no new one;
``suite`` still writes the reports that finished when a later case raises.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
import traceback
from contextlib import contextmanager, nullcontext
from dataclasses import fields
from fractions import Fraction

from .errors import CongruenceError, HypothesisViolated
from .exact import rational_text
from .primes import primes_in_class
from .scan import scan_conjecture
from .suite import SuiteConfig, all_pass, iter_reports, pass_line, render, report_lines
from .verifiers import CASE_KINDS, Case, admissible, run_case

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_FINDING = 3
EXIT_PIPE = 141

# flags that take a rational, which may be negative: -1/2 is no int, so
# argparse would read it as an option
_RATIONAL_FLAGS = ("--alpha", "--x", "--y")


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational: {text!r} ({exc})")


def _join_negative_rationals(argv: list[str]) -> list[str]:
    """``--x -1/2`` as ``--x=-1/2``: a rational flag followed by a value
    that starts with a minus sign and a digit is joined into one token."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] in _RATIONAL_FLAGS and re.match(r"-\d", arg):
            out[-1] = f"{out[-1]}={arg}"
        else:
            out.append(arg)
    return out


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
    p_verify.add_argument("--alpha", type=_fraction, help="rational alpha, e.g. 2/5 or -1/2")
    p_verify.add_argument("--x", type=_fraction, help="deformation x, e.g. 1/5 or -1/2")
    p_verify.add_argument("--y", type=_fraction, help="deformation y, e.g. 1/3 or -1/3")
    _output_flags(p_verify)

    p_suite = sub.add_parser(
        "suite",
        help="run every admissible case within bounds",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    p_suite.add_argument("--p-max", type=int, help="prime bound")
    p_suite.add_argument("--d-set", type=_int_set, help="comma list of d values")
    p_suite.add_argument("--r-max", type=int, help="max prime-power exponent")
    p_suite.add_argument("--seed", type=int, help="seed for sampled deformation points")
    p_suite.add_argument("--jobs", type=int, help="parallel worker processes")
    # every SuiteConfig field, flag or not, starts at the one default it has
    p_suite.set_defaults(**{f.name: f.default for f in fields(SuiteConfig)})
    _output_flags(p_suite)

    p_scan = sub.add_parser("scan", help="conjecture integrality scan")
    p_scan.add_argument("--d", type=int, required=True, help="series degree parameter d >= 2")
    p_scan.add_argument("--n-max", type=int, required=True, help="scan ceiling for n")
    p_scan.add_argument("--state", help="persistent state file (resume support)")

    p_primes = sub.add_parser("primes", help="odd primes in an arithmetic progression")
    p_primes.add_argument("--residue", type=int, required=True)
    p_primes.add_argument("--modulus", type=int, required=True)
    p_primes.add_argument("--limit", type=int, required=True)

    return parser


def _output_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--format", choices=("plain", "json", "csv"), default="plain")
    sub.add_argument("--out", help="write the report to this path")


class _CaseRaised(Exception):
    """A case raised: its exception is the __cause__, reported with its
    traceback however much it looks like a usage error."""


@contextmanager
def _running_cases():
    """Mark what the block raises as raised by a case, except a
    HypothesisViolated (a usage error) and a BrokenPipeError (the reader
    went away while the reports streamed)."""
    try:
        yield
    except (HypothesisViolated, BrokenPipeError):
        raise
    except Exception as exc:
        raise _CaseRaised from exc


def _open_out(path: str | None):
    return open(path, "w", encoding="utf-8") if path else nullcontext(sys.stdout)


@contextmanager
def _claimed_out(path: str | None):
    """Check that ``path`` can be written before the block runs, without
    changing it: an existing file is opened to append and closed again, a
    missing one is created, and removed again if the block raises."""
    created = False
    if path:
        try:
            open(path, "x").close()
            created = True
        except FileExistsError:
            open(path, "a").close()
    try:
        yield
    except BaseException:
        if created:
            os.remove(path)
        raise


def _write(out, text: str) -> None:
    """Write text with a trailing newline, unless it already ends in one."""
    print(text, file=out, end="" if text.endswith("\n") else "\n")


def cmd_verify(args: argparse.Namespace) -> int:
    params = {f.name: getattr(args, f.name) for f in fields(Case) if f.name != "kind"}
    case = Case(args.case, **params)
    reason = admissible(case)
    if reason is not None:
        raise HypothesisViolated(reason)
    with _claimed_out(args.out):
        with _running_cases():
            report = run_case(case)
        text = render([report], args.format)
    with _open_out(args.out) as out:
        _write(out, text)
    return EXIT_PASS if report.verdict else EXIT_FAIL


def cmd_suite(args: argparse.Namespace) -> int:
    cfg = SuiteConfig(**{f.name: getattr(args, f.name) for f in fields(SuiteConfig)})
    stream = args.format == "plain" and not args.out
    done = []
    with _open_out(args.out) as out:
        try:
            with _running_cases():
                for report in iter_reports(cfg):
                    done.append(report)
                    if stream:
                        print(report_lines([report])[0], flush=True)
        finally:
            # done holds the finished reports in case order; keep them if a case raised
            if not stream:
                _write(out, render(done, args.format))
    print(pass_line(done), file=sys.stdout if stream else sys.stderr)
    return EXIT_PASS if all_pass(done) else EXIT_FAIL


def cmd_scan(args: argparse.Namespace) -> int:
    cells = scan_conjecture(args.d, args.n_max, args.state)
    for cell in cells:
        print(cell.line())
    bad = [c for c in cells if not c.is_integer]
    for cell in bad:
        print(f"NON-INTEGRAL cell d={cell.d} n={cell.n}: {rational_text(cell.value)}", file=sys.stderr)
    return EXIT_FINDING if bad else EXIT_PASS


def cmd_primes(args: argparse.Namespace) -> int:
    print(" ".join(str(p) for p in primes_in_class(args.residue, args.modulus, args.limit)))
    return EXIT_PASS


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(_join_negative_rationals(sys.argv[1:] if argv is None else argv))
    handlers = {"verify": cmd_verify, "suite": cmd_suite, "scan": cmd_scan, "primes": cmd_primes}
    try:
        code = handlers[args.command](args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader is gone: send what is still buffered to devnull, so that
        # the flush at exit raises no second BrokenPipeError
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_PIPE
    except _CaseRaised as exc:
        traceback.print_exception(exc.__cause__)
        return EXIT_USAGE
    except (CongruenceError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception:
        # a bug outside the cases
        traceback.print_exc()
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
