"""Benchmark workloads: seeded inputs, one timed pass each, and the checks
on their outputs.

A *check* is one verified case or one scan step. Every pass times each
check from outside the library, counts a check as failed when it raises,
gives a ``fail`` verdict or yields a non-integral scan cell, and sorts a
failed check's latency as +inf so that it misses any latency limit.

The library is always reached through module attributes
(``verifiers.run_case``, ``suite.render``, ...) at call time, so the span
wrappers that ``tracing`` installs on those names see every call.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import random
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from supercongruences import primes, scan, suite, verifiers
from supercongruences.verifiers import Case

BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR / "out"
GOLDEN_PATH = BENCH_DIR / "golden.json"

# series-bigp draws its primes from this window; big enough that the exact
# series sums dominate, small enough that ~100 checks fit in a few seconds
BIGP_LO, BIGP_HI = 300, 1000
SCAN_D = (2, 3, 4)
SCAN_N_MAX = 400
JOBS = 2


# ---------------------------------------------------------------------------
# statistics


def tail_percentile(n: int, limit: int = 90) -> int:
    """The highest whole percentile, at most ``limit``, that leaves at least
    10 of n samples beyond it (nearest-rank); 0 when n <= 10."""
    for q in range(limit, 0, -1):
        if n - math.ceil(q * n / 100) >= 10:
            return q
    return 0


def percentile(values: list[float], q: int) -> float:
    """Nearest-rank percentile; +inf entries sort last."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered) / 100))
    return ordered[rank - 1]


# ---------------------------------------------------------------------------
# output digests


def report_digest(report_json: str) -> str:
    """sha256 of a JSON report list with the timing field removed, in a
    canonical encoding, so two runs that differ only in timing agree."""
    data = json.loads(report_json)
    for entry in data:
        entry.pop("elapsed_ms", None)
    canonical = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def cell_record(d: int, n: int, value: Fraction) -> str:
    """A scan cell as ``d n num den flag`` with num and den in hex.

    Hex rather than the state file's decimal: int -> str in base 10 is
    capped at 4300 digits, and the golden must cover every cell of the
    ladder, including those the scan cannot persist.
    """
    flag = 1 if value.denominator == 1 else 0
    return f"{d} {n} {value.numerator:x} {value.denominator:x} {flag}"


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# inputs


def _spread(count: int, lo: float, hi: float) -> list[float]:
    step = (hi - lo) / count
    return [lo + step * (i + 0.5) for i in range(count)]


def _near(rng: random.Random, target: float, candidates: list[int], width: int = 3) -> int:
    """One of the ``width`` candidates nearest the target, by seed.

    Drawing near fixed targets keeps the cost of a pass nearly the same
    for every seed while the seed still picks the primes.
    """
    nearest = sorted(candidates, key=lambda p: (abs(p - target), p))[:width]
    return rng.choice(nearest)


def bigp_cases(seed: int) -> list[Case]:
    """About 100 Gamma-free checks at primes in [BIGP_LO, BIGP_HI], plus
    three-series at small truncations and four-k-plus-one at large n."""
    rng = random.Random(seed)
    window = [p for p in primes.odd_primes_up_to(BIGP_HI) if p >= BIGP_LO]

    def primes_where(cond) -> list[int]:
        return [p for p in window if cond(p)]

    cases: list[Case] = []
    cases += [Case("rv", p=_near(rng, t, window)) for t in _spread(12, BIGP_LO, BIGP_HI)]

    alphas = [suite.DEFAULT_SUN_ALPHAS[i % len(suite.DEFAULT_SUN_ALPHAS)] for i in range(12)]
    rng.shuffle(alphas)
    for t, alpha in zip(_spread(12, BIGP_LO, BIGP_HI), alphas):
        units = primes_where(lambda p: alpha.numerator % p and alpha.denominator % p)
        cases.append(Case("sun", p=_near(rng, t, units), alpha=alpha))

    one_mod_4 = primes_where(lambda p: p % 4 == 1)
    for kind in ("liu", "guo-central"):
        cases += [Case(kind, p=_near(rng, t, one_mod_4), r=1) for t in _spread(8, BIGP_LO, BIGP_HI)]

    def minus_one_mod(d: int) -> list[int]:
        return primes_where(lambda p: p % d == d - 1 and p >= 2 * d - 1)

    for kind, ds, count in (
        ("combined", (3, 4, 5, 6, 7), 10),
        ("harmonic-even", (4, 6), 8),
        ("harmonic-odd", (3, 5, 7), 9),
    ):
        for i, t in enumerate(_spread(count, BIGP_LO, BIGP_HI)):
            d = ds[i % len(ds)]
            cases.append(Case(kind, d=d, p=_near(rng, t, minus_one_mod(d))))

    # the suite's own seeded deformation points, one per target prime
    points = suite._deformed_points(suite.SuiteConfig(seed=seed))
    for i, (t, (x, y)) in enumerate(zip(_spread(len(points), BIGP_LO, BIGP_HI), points)):
        d = (4, 6)[i % 2]
        cases.append(Case("km-deformed", d=d, p=_near(rng, t, minus_one_mod(d)), x=x, y=y))

    # three-series costs about n^3 through term(), so its truncations are
    # fixed rather than drawn: a few units of n would move the whole pass
    for i, t in enumerate(_spread(12, 20, 80)):
        cases.append(Case("three-series", d=2 + i % 6, n=round(t)))

    for t in _spread(12, 300, 1500):
        cases.append(Case("four-k-plus-one", n=round(t) + rng.randint(-10, 10)))
    return cases


def scan_ladder() -> list[tuple[int, int]]:
    """Every admissible (d, n) with n <= SCAN_N_MAX, in scan order."""
    return [(d, n) for d in SCAN_D for n in scan.admissible_n(d, SCAN_N_MAX)]


# ---------------------------------------------------------------------------
# passes


@dataclass
class Failure:
    check: int
    label: str
    error: str
    # a wrong output (fail verdict, non-integral cell), not a raising check
    wrong: bool = False


@dataclass
class PassResult:
    wall_s: float
    latencies_ms: list[float]
    failures: list[Failure]
    digest: str
    # None: no golden for this seed; otherwise whether the outputs match it
    golden_ok: bool | None
    state_bytes: int = 0

    @property
    def attempted(self) -> int:
        return len(self.latencies_ms)


def _case_text(case: Case) -> str:
    params = ",".join(f"{k}={v}" for k, v in case.to_dict().items() if k != "kind")
    return f"{case.kind}({params})"


def _error_text(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {str(exc)[:200]}"


def run_checks(cases: list[Case], order: list[int], tracer=None) -> tuple[list, list[float], list[Failure]]:
    """Run the cases through ``verifiers.run_case`` in the given order,
    timing each; a raising check or a ``fail`` verdict is a failure with
    latency +inf. Reports come back in case order."""
    reports, latencies, failures = [None] * len(cases), [], []
    for i in order:
        case = cases[i]
        if tracer is not None:
            tracer.check = i + 1
        t0 = perf_counter()
        try:
            report = verifiers.run_case(case)
        except Exception as exc:  # a raising check is counted, never fatal
            latencies.append(math.inf)
            failures.append(Failure(i + 1, _case_text(case), _error_text(exc)))
            continue
        elapsed_ms = (perf_counter() - t0) * 1000.0
        reports[i] = report
        if report.verdict:
            latencies.append(elapsed_ms)
        else:
            latencies.append(math.inf)
            failures.append(Failure(i + 1, _case_text(case), f"fail verdict {report.note}".strip(), True))
    return [r for r in reports if r is not None], latencies, failures


def _matches_golden(golden: dict, key: str, seed: int, digest: str) -> bool | None:
    expected = golden.get(key, {}).get(str(seed))
    return None if expected is None else expected == digest


def serial_pass(golden_key: str, render):
    """A pass that runs the cases one by one through ``run_case``, then
    renders the reports with ``render`` and checks them against the golden
    digest stored under ``golden_key``."""

    def run_pass(inputs: dict, golden: dict, tracer=None) -> PassResult:
        t0 = perf_counter()
        reports, latencies, failures = run_checks(inputs["cases"], inputs["order"], tracer)
        if tracer is not None:
            tracer.check = 0
        text = render(reports)
        wall = perf_counter() - t0
        digest = report_digest(text)
        return PassResult(wall, latencies, failures, digest,
                          _matches_golden(golden, golden_key, inputs["seed"], digest))

    return run_pass


CHECK_S = "_bench_check_s"


@contextmanager
def timed_pool_entry():
    """Time each case inside the pool workers with the benchmark's clock.

    ``suite._run_one`` is rebound to a timing wrapper, which forked workers
    inherit and which pickles by that name; the seconds ride back on each
    report as an extra attribute."""
    inner = suite._run_one

    @functools.wraps(inner)
    def timed(args):
        t0 = perf_counter()
        report = inner(args)
        object.__setattr__(report, CHECK_S, perf_counter() - t0)
        return report

    suite._run_one = timed
    try:
        yield
    finally:
        suite._run_one = inner


@contextmanager
def dispatch_order(order: list[int]):
    """Have ``run_suite`` hand the cases to its pool in the given order.

    ``suite.enumerate_cases`` is rebound to the real enumeration followed
    by that permutation. ``run_suite`` sorts the reports back into case
    order, so the output is unchanged. In enumeration order the checks of
    median cost all come in the last seconds of a pass, so the median
    latency would follow the machine's speed in those seconds alone."""
    inner = suite.enumerate_cases

    @functools.wraps(inner)
    def permuted(cfg):
        cases = inner(cfg)
        return [cases[i] for i in order]

    suite.enumerate_cases = permuted
    try:
        yield
    finally:
        suite.enumerate_cases = inner


def pass_suite_jobs(inputs: dict, golden: dict, tracer=None) -> PassResult:
    """The reference suite through ``run_suite`` and its process pool, which
    receives the cases in the same seeded order as the serial pass.

    A check's latency is timed around the case inside its worker (see
    ``timed_pool_entry``); pickling and dispatch show in the pass's wall
    time only.
    """
    cases = inputs["cases"]
    t0 = perf_counter()
    try:
        with timed_pool_entry(), dispatch_order(inputs["order"]):
            reports = suite.run_suite(suite.SuiteConfig(seed=inputs["seed"], jobs=JOBS))
        text = suite.render(reports, "json")
    except Exception as exc:
        wall = perf_counter() - t0
        fail = Failure(0, "run_suite", _error_text(exc))
        return PassResult(wall, [math.inf] * len(cases), [fail], "", False)
    wall = perf_counter() - t0
    if tracer is not None:
        tracer.adopt_worker_spans(reports)
    latencies, failures = [], []
    for i, report in enumerate(reports, start=1):
        check_s = report.__dict__.pop(CHECK_S)
        latencies.append(check_s * 1000.0 if report.verdict else math.inf)
        if not report.verdict:
            failures.append(Failure(i, _case_text(report.case), "fail verdict", True))
    missing = len(cases) - len(reports)
    if missing > 0:
        latencies += [math.inf] * missing
        failures.append(Failure(0, "run_suite", f"{missing} cases missing from the report"))
    digest = report_digest(text)
    return PassResult(wall, latencies, failures, digest,
                      _matches_golden(golden, "suite", inputs["seed"], digest))


def pass_scan_extend(inputs: dict, golden: dict, tracer=None) -> PassResult:
    """Extend the scan one admissible n at a time; each step reloads the
    whole state file and appends one cell."""
    state: Path = inputs["state"]
    state.write_text("", encoding="utf-8")
    expected = golden.get("scan-extend", {})
    latencies, failures, records = [], [], []
    golden_ok = True
    t0 = perf_counter()
    for i, (d, n) in enumerate(inputs["ladder"], start=1):
        if tracer is not None:
            tracer.check = i
        t_step = perf_counter()
        try:
            cells = scan.scan_conjecture(d, n, state)
        except Exception as exc:  # a raising step is counted, never fatal
            latencies.append(math.inf)
            failures.append(Failure(i, f"scan(d={d}, n={n})", _error_text(exc)))
            continue
        elapsed_ms = (perf_counter() - t_step) * 1000.0
        cell = cells[-1] if cells else None
        if cell is None or (cell.d, cell.n) != (d, n):
            latencies.append(math.inf)
            failures.append(Failure(i, f"scan(d={d}, n={n})", "step did not yield its cell", True))
            continue
        record = cell_record(d, n, cell.value)
        records.append(record)
        if expected.get(f"{d} {n}") != sha(record):
            golden_ok = False
        if cell.is_integer:
            latencies.append(elapsed_ms)
        else:
            latencies.append(math.inf)
            failures.append(Failure(i, f"scan(d={d}, n={n})", "non-integral cell", True))
    wall = perf_counter() - t0
    return PassResult(wall, latencies, failures, sha("\n".join(records)), golden_ok, state.stat().st_size)


@dataclass(frozen=True)
class Workload:
    name: str
    run_pass: object
    pool_workers: int = 0


# Why each workload exists is recorded beside its name in BENCHMARK.json:
# each optimisation named in the ROADMAP gets one workload that exercises
# its layer and one that bypasses it.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("suite-default", serial_pass("suite", lambda reports: suite.render(reports, "json"))),
        Workload("series-bigp", serial_pass("series-bigp", suite.to_json)),
        Workload("scan-extend", pass_scan_extend),
        Workload("suite-jobs2", pass_suite_jobs, pool_workers=JOBS),
    )
}


def _shuffled(count: int, seed: int) -> list[int]:
    """A seeded run order. Cases of one kind are similar in cost; run in
    kind order they would all meet the same few seconds of machine noise,
    so the latency percentiles would swing with it."""
    order = list(range(count))
    random.Random(seed).shuffle(order)
    return order


def make_inputs(workload: str, seed: int) -> dict:
    """Everything a pass needs, made from the seed alone."""
    if workload in ("suite-default", "suite-jobs2", "series-bigp"):
        if workload == "series-bigp":
            cases = bigp_cases(seed)
        else:
            cases = suite.enumerate_cases(suite.SuiteConfig(seed=seed))
        return {"seed": seed, "cases": cases, "order": _shuffled(len(cases), seed)}
    if workload == "scan-extend":
        OUT_DIR.mkdir(exist_ok=True)
        state = OUT_DIR / f"scan-state-{seed}.txt"
        state.write_text("", encoding="utf-8")
        return {"seed": seed, "ladder": scan_ladder(), "state": state}
    raise ValueError(f"unknown workload {workload!r}")


def run_probes() -> tuple[dict[str, float], dict[str, str]]:
    """Single timings of the two ROADMAP "done when" rows, in ms, and
    digests of their outputs."""
    from supercongruences.hypergeom import evaluate_exact
    from supercongruences.padic import PrimePower, gamma_p_int, reduce_mod
    from supercongruences.verifiers import dflst_series

    ctx = PrimePower(199, 3)
    rep = reduce_mod(Fraction(1, 6), ctx).value
    t0 = perf_counter()
    gamma = gamma_p_int(rep, ctx)
    gamma_ms = (perf_counter() - t0) * 1000.0
    spec = dflst_series(6, 1998)
    t0 = perf_counter()
    value = evaluate_exact(spec)
    evaluate_ms = (perf_counter() - t0) * 1000.0
    times = {"probe.gamma_199_3_ms": gamma_ms, "probe.evaluate_p1999_ms": evaluate_ms}
    outputs = {
        "gamma_199_3": sha(str(gamma.value)),
        "evaluate_p1999": sha(f"{value.numerator:x}/{value.denominator:x}"),
    }
    return times, outputs
