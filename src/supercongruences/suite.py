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
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator

from .errors import CongruenceError
# primes_in_class is unused here but stays bound: bench/tracing.py wraps it by name
from .primes import odd_primes_up_to, primes_in_class
from .verifiers import Case, Report, admissible, run_case

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


def _candidates(cfg: SuiteConfig) -> Iterator[Case]:
    """The grid of every kind's parameters within the configured bounds,
    before the hypotheses are applied."""
    for p in odd_primes_up_to(cfg.p_max):
        yield Case("rv", p=p)
        for d in cfg.d_set:
            yield from (Case("dflst", d=d, p=p, strength=s) for s in range(2, cfg.max_strength + 1))
            yield from (Case(k, d=d, p=p) for k in ("guo-linear", "guo-even", "guo-odd", "combined"))
            if p <= cfg.harmonic_p_max:
                yield from (Case(k, d=d, p=p) for k in ("harmonic-even", "harmonic-odd"))
        for r in range(1, cfg.r_max + 1):
            if p**r - 1 <= cfg.p_max:
                yield from (Case(k, p=p, r=r) for k in ("guo-central", "liu"))
    for alpha in cfg.sun_alphas:
        yield from (Case("sun", p=p, alpha=alpha) for p in odd_primes_up_to(cfg.sun_p_max))
    yield from (Case("four-k-plus-one", n=n) for n in range(1, cfg.identity_n_max + 1))
    for d in cfg.d_set:
        yield from (Case("three-series", d=d, n=t) for t in range(cfg.three_series_trunc + 1))
    points = _deformed_points(cfg)
    for d, p in cfg.deformed_pairs:
        yield from (Case("km-deformed", d=d, p=p, x=x, y=y) for x, y in points)


def enumerate_cases(cfg: SuiteConfig) -> list[Case]:
    """Every admissible case within the configured bounds, sorted by
    case id then parameters."""
    return sorted((c for c in _candidates(cfg) if admissible(c) is None), key=Case.sort_key)


def run_suite(
    cfg: SuiteConfig, progress: Callable[[Report], None] | None = None
) -> list[Report]:
    """Run every enumerated case; reports come back sorted like the cases.

    With jobs > 1 the cases run in a process pool; aggregation re-sorts,
    so the output order is identical either way.
    """
    cases = enumerate_cases(cfg)
    if cfg.jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
            reports = list(pool.map(_run_one, ((c,) for c in cases), chunksize=4))
    else:
        reports = []
        for case in cases:
            report = run_case(case)
            if progress is not None:
                progress(report)
            reports.append(report)
    return sorted(reports, key=lambda rep: rep.case.sort_key())


def _run_one(args: tuple[Case, ...]) -> Report:
    """Pool entry point: the benchmark rebinds it by name, and its tests
    pass a ``(case, None)`` pair, so it takes a tuple led by the case."""
    return run_case(args[0])


def all_pass(reports: Iterable[Report]) -> bool:
    return all(r.verdict for r in reports)


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
        lines = report_lines(reports)
        passed = sum(r.verdict for r in reports)
        lines.append(f"{passed}/{len(reports)} cases pass")
        return "\n".join(lines)
    raise CongruenceError(f"unknown output format {fmt!r}")
