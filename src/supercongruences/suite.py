"""Batch runner: enumerate every admissible case within configured bounds,
run the verifiers, and render the reports.

Enumeration is a pure function of the config (the sampling seed is part
of it), so two runs of the same config produce the same case list in the
same order.
"""

from __future__ import annotations

import csv
import io
import json
import os
import random
import traceback
from contextlib import ExitStack
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator

from .errors import CongruenceError, HypothesisViolated
# primes_in_class is unused here but stays bound: bench/tracing.py wraps it by name
from .primes import odd_primes_up_to, primes_in_class
from .verifiers import KINDS, Case, Report, admissible, run_case

DEFAULT_SUN_ALPHAS = (
    Fraction(1, 2),
    Fraction(1, 3),
    Fraction(1, 4),
    Fraction(2, 5),
    Fraction(5, 7),
)

DEFAULT_DEFORMED_PAIRS = ((4, 7), (4, 11), (6, 11))


@dataclass(frozen=True)
class SuiteConfig:
    """Bounds and output options for a full verification run.

    The defaults reproduce the library's reference grids: the main
    congruence families sweep primes up to p_max, the alpha family has
    its own prime bound, the harmonic lemma sums stop at harmonic_p_max,
    and the prefix families over k < p^r take every (p, r) with
    r <= r_max and p^r - 1 <= p_max.
    """

    p_max: int = 199
    d_set: tuple[int, ...] = (2, 3, 4, 5, 6, 7)
    r_max: int = 2
    max_strength: int = 3
    sun_alphas: tuple[Fraction, ...] = DEFAULT_SUN_ALPHAS
    sun_p_max: int = 97
    harmonic_p_max: int = 60
    identity_n_max: int = 100
    three_series_trunc: int = 12
    deformed_pairs: tuple[tuple[int, int], ...] = DEFAULT_DEFORMED_PAIRS
    deformed_samples: int = 10
    seed: int = 0
    jobs: int = 1

    def __post_init__(self) -> None:
        if self.p_max < 5:
            raise ValueError(f"p_max must be >= 5, got {self.p_max}")
        if any(d < 2 for d in self.d_set):
            raise ValueError(f"every d must be >= 2, got {self.d_set}")
        if self.max_strength not in (2, 3):
            raise ValueError(f"max_strength must be 2 or 3, got {self.max_strength}")
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")
        for d, p in self.deformed_pairs:
            reason = admissible(Case("km-deformed", d=d, p=p, x=Fraction(0), y=Fraction(0)))
            if reason:
                raise ValueError(f"deformed pair (d={d}, p={p}): {reason}")


def _deformed_points(cfg: SuiteConfig) -> list[tuple[Fraction, Fraction]]:
    """Seeded sample of deformation points strictly above -1 (so no lower
    Pochhammer can vanish); includes the undeformed origin."""
    rng = random.Random(cfg.seed)
    points = [(Fraction(0), Fraction(0))]
    while len(points) < cfg.deformed_samples:
        den_x, den_y = rng.randint(2, 9), rng.randint(2, 9)
        x = Fraction(rng.randint(-den_x + 1, den_x - 1), den_x)
        y = Fraction(rng.randint(-den_y + 1, den_y - 1), den_y)
        points.append((x, y))
    return points[: cfg.deformed_samples]


def _candidates(cfg: SuiteConfig) -> Iterator[tuple[str, dict]]:
    """The grid of every kind's parameters within the configured bounds,
    before the hypotheses are applied, as (kind, parameters) pairs."""
    for p in odd_primes_up_to(cfg.p_max):
        yield "rv", dict(p=p)
        for d in cfg.d_set:
            yield from (("dflst", dict(d=d, p=p, strength=s)) for s in range(2, cfg.max_strength + 1))
            yield from ((k, dict(d=d, p=p)) for k in ("guo-linear", "guo-even", "guo-odd", "combined"))
            if p <= cfg.harmonic_p_max:
                yield from ((k, dict(d=d, p=p)) for k in ("harmonic-even", "harmonic-odd"))
        for r in range(1, cfg.r_max + 1):
            if p**r - 1 <= cfg.p_max:
                yield from ((k, dict(p=p, r=r)) for k in ("guo-central", "liu"))
    for alpha in cfg.sun_alphas:
        yield from (("sun", dict(p=p, alpha=alpha)) for p in odd_primes_up_to(cfg.sun_p_max))
    yield from (("four-k-plus-one", dict(n=n)) for n in range(1, cfg.identity_n_max + 1))
    for d in cfg.d_set:
        yield from (("three-series", dict(d=d, n=t)) for t in range(cfg.three_series_trunc + 1))
    points = _deformed_points(cfg)
    for d, p in cfg.deformed_pairs:
        yield from (("km-deformed", dict(d=d, p=p, x=x, y=y)) for x, y in points)


def _holds(kind: str, params: dict) -> bool:
    """Whether the registry's hypothesis check for ``kind`` accepts ``params``."""
    spec = KINDS[kind]
    try:
        spec.check(**{**spec.defaults, **params})
    except HypothesisViolated:
        return False
    return True


def enumerate_cases(cfg: SuiteConfig) -> list[Case]:
    """Every admissible case within the configured bounds, sorted by
    case id then parameters. Only candidates that meet their kind's
    hypotheses become Cases."""
    cases = [Case(kind, **params) for kind, params in _candidates(cfg) if _holds(kind, params)]
    return sorted(cases, key=Case.sort_key)


# Pool tasks per worker: enough for the load to balance, few enough that
# pickling and dispatch stay small next to the checks (a median 0.2 ms each).
_BATCHES_PER_WORKER = 8


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the
    platform has one, else the machine's CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_suite(
    cfg: SuiteConfig, progress: Callable[[Report], None] | None = None
) -> list[Report]:
    """Run every enumerated case; reports come back sorted like the cases.

    With jobs > 1 they run in a pool of at most jobs workers, capped by the
    case count and by the CPUs this process may use. The pool gets the case
    list cut into contiguous batches, about _BATCHES_PER_WORKER per worker,
    so the reports arrive one batch at a time. Either way ``progress`` sees
    each report in case order as soon as it and every earlier case are done.
    If a case raises, ``progress`` still sees every report that finished
    before it, and then the exception propagates.
    """
    cases = enumerate_cases(cfg)
    with ExitStack() as stack:
        if cfg.jobs > 1:
            from concurrent.futures import ProcessPoolExecutor

            workers = max(1, min(cfg.jobs, len(cases), _usable_cpus()))
            pool = stack.enter_context(ProcessPoolExecutor(max_workers=workers))
            size = max(1, -(-len(cases) // (workers * _BATCHES_PER_WORKER)))
            batches = [cases[i : i + size] for i in range(0, len(cases), size)]
            results = _unbatched(pool.map(_run_batch, batches))
        else:
            results = map(run_case, cases)
        reports = []
        for report in results:
            if progress is not None:
                progress(report)
            reports.append(report)
    return sorted(reports, key=lambda rep: rep.case.sort_key())


def _run_one(args: tuple[Case, ...]) -> Report:
    """Run one case in a pool worker. The benchmark rebinds it by name, and
    its tests pass a ``(case, None)`` pair, so it takes a tuple led by the
    case."""
    return run_case(args[0])


def _run_batch(cases: list[Case]) -> tuple[list[Report], Exception | None]:
    """Pool task: each case through ``_run_one``, looked up at each call so
    that a rebinding in the parent reaches forked workers. Returns the
    reports and None, or, when a case raises, the reports of the cases
    before it and the exception, whose traceback text rides along as a note
    where the exception supports notes."""
    reports = []
    for case in cases:
        try:
            reports.append(_run_one((case,)))
        except Exception as exc:
            if hasattr(exc, "add_note"):
                exc.add_note("".join(traceback.format_exception(exc)).rstrip())
            return reports, exc
    return reports, None


def _unbatched(batches: Iterator[tuple[list[Report], Exception | None]]) -> Iterator[Report]:
    """The reports of the pool's batches, in order. After the finished
    reports of a batch whose case raised, the batches not yet started are
    cancelled and the exception is raised."""
    for reports, exc in batches:
        yield from reports
        if exc is not None:
            batches.close()
            raise exc


def all_pass(reports: Iterable[Report]) -> bool:
    return all(r.verdict for r in reports)


def pass_line(reports: list[Report]) -> str:
    """The closing "n/m cases pass" line of every suite report."""
    return f"{sum(r.verdict for r in reports)}/{len(reports)} cases pass"


# ---------------------------------------------------------------------------
# rendering

CSV_COLUMNS = ("case_id", "d", "p", "r", "n", "modulus", "lhs", "rhs", "verdict", "elapsed_ms")


def _side_text(side) -> str:
    """Residue as its canonical value, with the centered representative in
    parentheses when that is small; rationals verbatim."""
    if side is None:
        return ""
    if isinstance(side, Fraction):
        return str(side)
    centered = side.centered()
    if centered != side.value and abs(centered) < 1000:
        return f"{side.value} (= {centered})"
    return str(side.value)


def report_lines(reports: Iterable[Report]) -> list[str]:
    lines = []
    for r in reports:
        status = "pass" if r.verdict else "FAIL"
        note = f"  [{r.note}]" if r.note else ""
        where = "exact   " if r.modulus == "exact" else f"mod {r.modulus:<4}"
        lines.append(
            f"{status}  {r.case.label():<28} {where} "
            f"lhs = {_side_text(r.lhs)}  rhs = {_side_text(r.rhs)}  "
            f"({r.elapsed * 1000.0:.1f} ms){note}"
        )
    return lines


def to_json(reports: Iterable[Report]) -> str:
    return json.dumps([r.to_dict() for r in reports], indent=2)


def from_json(text: str) -> list[Report]:
    return [Report.from_dict(d) for d in json.loads(text)]


def to_csv(reports: Iterable[Report]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(CSV_COLUMNS)
    for r in reports:
        case = r.case
        writer.writerow(
            [
                case.label(),
                case.d if case.d is not None else "",
                case.p if case.p is not None else "",
                case.r if case.r is not None else "",
                case.n if case.n is not None else "",
                r.modulus,
                _side_text(r.lhs),
                _side_text(r.rhs),
                "pass" if r.verdict else "fail",
                f"{r.elapsed * 1000.0:.3f}",
            ]
        )
    return buf.getvalue()


def render(reports: list[Report], fmt: str) -> str:
    if fmt == "json":
        return to_json(reports)
    if fmt == "csv":
        return to_csv(reports)
    if fmt == "plain":
        return "\n".join([*report_lines(reports), pass_line(reports)])
    raise CongruenceError(f"unknown output format {fmt!r}")
