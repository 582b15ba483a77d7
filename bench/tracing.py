"""Spans around the calls into each layer of ``supercongruences``, installed
from outside the package.

``install`` rebinds the names each caller module looks up at call time
(``verifiers.evaluate_mod``, ``verifiers.GammaContext``,
``scan.conjecture_value``, ``suite.primes_in_class``, ...) to wrappers
that record a span: name, start, end, parent span and check id. Spans
stay in memory and are written out once, at the end of the run.
``uninstall`` puts the original bindings back.

Pool workers forked by ``run_suite`` inherit the wrappers; the wrapper on
``suite._run_one`` ships each worker's spans back inside the returned
``Report`` (as an extra attribute that pickles with it), and
``Tracer.adopt_worker_spans`` moves them into the parent's trace.
"""

from __future__ import annotations

import functools
import json
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

from supercongruences import hypergeom, padic, primes, scan, suite, verifiers

WORKER_SPANS = "_bench_spans"


class Span(NamedTuple):
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    check: int
    attrs: dict | None
    error: str | None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self.stack: list[int] = []
        self.check = 0
        self._next_id = 0
        self._saved: list[tuple[object, str, object]] = []

    # -- wrappers -----------------------------------------------------------

    def spanned(self, name, fn, attrs=None):
        """Wrap fn so each call records a span. ``name`` is a string or a
        function of the call's arguments; ``attrs`` maps (args, result) to
        a dict of measured sizes."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = name if isinstance(name, str) else name(*args, **kwargs)
            tracer._next_id += 1
            sid = tracer._next_id
            parent = tracer.stack[-1] if tracer.stack else None
            tracer.stack.append(sid)
            error = None
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = perf_counter()
                tracer.stack.pop()
                info = attrs(args, result) if attrs is not None and error is None else None
                tracer.spans.append(Span(sid, parent, span_name, start, end, tracer.check, info, error))

        return wrapper

    def counted(self, name, fn):
        """Wrap fn so each call only bumps a counter: for calls too frequent
        and too cheap to give a span each."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def worker_entry(self, fn):
        """Wrap ``suite._run_one``: the spans a pool worker records for one
        case travel back to the parent on the returned report."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(args):
            first = len(tracer.spans)
            counts_before = Counter(tracer.counts)
            tracer.stack.clear()
            report = fn(args)
            spans = tracer.spans[first:]
            del tracer.spans[first:]
            object.__setattr__(report, WORKER_SPANS, (spans, tracer.counts - counts_before))
            return report

        return wrapper

    def adopt_worker_spans(self, reports) -> None:
        """Move the spans that came back on pool reports into this trace,
        renumbered, one check id per report."""
        for check, report in enumerate(reports, start=1):
            shipped = report.__dict__.pop(WORKER_SPANS, None)
            if shipped is None:
                continue
            spans, counts = shipped
            self.counts.update(counts)
            ids = {s.id: self._next_id + k for k, s in enumerate(spans, start=1)}
            self._next_id += len(spans)
            for s in spans:
                self.spans.append(s._replace(id=ids[s.id], parent=ids.get(s.parent), check=check))

    # -- installation -------------------------------------------------------

    def _rebind(self, owner, attr: str, wrapper) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        for owner, attr, name, attrs in _span_targets():
            self._rebind(owner, attr, self.spanned(name, getattr(owner, attr), attrs))
        for owner in (padic, primes, verifiers):
            self._rebind(owner, "is_prime", self.counted("primes.is_prime", owner.is_prime))
        self._rebind(suite, "_run_one", self.worker_entry(suite._run_one))

        original = verifiers.GammaContext

        class TracedGammaContext(original):
            gamma = self.spanned("padic.gamma", original.gamma)

        self._rebind(verifiers, "GammaContext", TracedGammaContext)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def write(self, path: Path, t0: float) -> None:
        """Spans as JSON lines, times in seconds from t0."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in sorted(self.spans, key=lambda s: s.start):
                row = s._asdict()
                row["start"] = s.start - t0
                row["end"] = s.end - t0
                fh.write(json.dumps(row) + "\n")


# ---------------------------------------------------------------------------
# what gets a span


def _bits(value) -> int:
    return value.numerator.bit_length() + value.denominator.bit_length()


def _series_attrs(spec_index: int):
    def attrs(args, result) -> dict:
        return {"terms": args[spec_index].n + 1, "bits": _bits(result)}

    return attrs


VERIFIER_KINDS = {
    "verify_rodriguez_villegas": "rv",
    "verify_sun": "sun",
    "verify_guo_linear": "guo-linear",
    "verify_guo_even": "guo-even",
    "verify_guo_odd": "guo-odd",
    "verify_guo_central": "guo-central",
    "verify_harmonic_even": "harmonic-even",
    "verify_harmonic_odd": "harmonic-odd",
    "verify_four_k_plus_one": "four-k-plus-one",
    "verify_liu": "liu",
    "verify_three_series": "three-series",
    "verify_combined": "combined",
    "verify_km_deformed": "km-deformed",
}
# dflst is split by modulus exponent; its cost differs by orders of magnitude
KINDS = sorted([*VERIFIER_KINDS.values(), "dflst-s2", "dflst-s3"])


def _dflst_name(d, p, strength=2, gamma_bound=None) -> str:
    return f"verifiers.dflst-s{strength}"


def _span_targets() -> list[tuple[object, str, object, object]]:
    """(owner, attribute, span name, attrs) for every traced binding."""
    targets = [
        (padic, "gamma_p_int", "padic.gamma_p_int", None),
        (verifiers, "evaluate_mod", "hypergeom.evaluate_mod", None),
        (verifiers, "affine_weighted_sum", "hypergeom.affine_weighted_sum", _series_attrs(1)),
        (verifiers, "harmonic_weighted_sum", "hypergeom.harmonic_weighted_sum", _series_attrs(0)),
        (verifiers, "term", "hypergeom.term", None),
        (verifiers, "pochhammer", "exact.pochhammer", None),
        (hypergeom, "shifted_harmonic", "exact.shifted_harmonic", None),
        (primes, "odd_primes_up_to", "primes.odd_primes_up_to", None),
        (suite, "odd_primes_up_to", "primes.odd_primes_up_to", None),
        (suite, "primes_in_class", "primes.primes_in_class", None),
        (verifiers, "run_case", "verifiers.run_case", None),
        (suite, "run_case", "verifiers.run_case", None),
        (verifiers, "verify_dflst", _dflst_name, None),
        (suite, "enumerate_cases", "suite.enumerate_cases", lambda args, result: {"n": len(result)}),
        (suite, "run_suite", "suite.run_suite", None),
        (suite, "render", "suite.render", None),
        (scan, "scan_conjecture", "scan.scan_conjecture", lambda args, result: {"n": len(result)}),
        (scan, "conjecture_value", "scan.conjecture_value", None),
        (scan, "load_cells", "scan.load_cells", None),
    ]
    targets += [(owner, "reduce_mod", "padic.reduce_mod", None) for owner in (padic, hypergeom, verifiers)]
    targets += [
        (owner, "evaluate_exact", "hypergeom.evaluate_exact", _series_attrs(0))
        for owner in (hypergeom, verifiers, scan)
    ]
    targets += [(verifiers, fn, f"verifiers.{kind}", None) for fn, kind in VERIFIER_KINDS.items()]
    return targets


# ---------------------------------------------------------------------------
# per-layer metrics


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part its child spans cover."""
    covered: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.duration
    return {s.id: s.duration - covered[s.id] for s in spans}


def layer_metrics(tracer: Tracer, state_bytes: int) -> tuple[dict[str, tuple[float, str]], dict[str, str]]:
    """Per-layer metrics as name -> (value, unit), plus the base of each
    ratio as text."""
    spans = tracer.spans
    by_name: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
    selfs = self_times(spans)

    def calls(name: str) -> int:
        return len(by_name[name])

    def busy(*names: str) -> float:
        return sum(s.duration for name in names for s in by_name[name])

    def attr_sum(key: str, *names: str) -> int:
        return sum(s.attrs[key] for name in names for s in by_name[name] if s.attrs)

    series_names = (
        "hypergeom.evaluate_exact",
        "hypergeom.affine_weighted_sum",
        "hypergeom.harmonic_weighted_sum",
    )
    gamma_calls = calls("padic.gamma")
    gamma_hits = gamma_calls - calls("padic.gamma_p_int")
    enum_names = {"primes.odd_primes_up_to", "primes.primes_in_class"}
    span_names = {s.id: s.name for s in spans}
    computed_in = Counter(s.parent for s in by_name["scan.conjecture_value"] if s.error is None)
    scans_ok = [s for s in by_name["scan.scan_conjecture"] if s.error is None]

    m: dict[str, tuple[float, str]] = {
        "padic.gamma_calls": (gamma_calls, "count"),
        "padic.gamma_s": (busy("padic.gamma"), "s"),
        "padic.gamma_cache_hit_ratio": (gamma_hits / gamma_calls if gamma_calls else 0.0, "ratio"),
        "padic.reduce_calls": (calls("padic.reduce_mod"), "count"),
        "padic.reduce_s": (busy("padic.reduce_mod"), "s"),
        "hypergeom.evaluate_calls": (calls("hypergeom.evaluate_exact"), "count"),
        "hypergeom.evaluate_s": (busy("hypergeom.evaluate_exact"), "s"),
        "hypergeom.affine_s": (busy("hypergeom.affine_weighted_sum"), "s"),
        "hypergeom.harmonic_s": (busy("hypergeom.harmonic_weighted_sum"), "s"),
        "hypergeom.term_calls": (calls("hypergeom.term"), "count"),
        "hypergeom.term_s": (busy("hypergeom.term"), "s"),
        "hypergeom.terms": (attr_sum("terms", *series_names), "count"),
        "hypergeom.result_bits": (attr_sum("bits", *series_names), "bit"),
        "exact.pochhammer_s": (busy("exact.pochhammer"), "s"),
        "exact.shifted_harmonic_s": (busy("exact.shifted_harmonic"), "s"),
        "primes.is_prime_calls": (tracer.counts["primes.is_prime"], "count"),
        "primes.enum_s": (
            sum(
                s.duration
                for name in enum_names
                for s in by_name[name]
                if span_names.get(s.parent) not in enum_names
            ),
            "s",
        ),
    }
    for kind in KINDS:
        m[f"verifiers.{kind}.s"] = (busy(f"verifiers.{kind}"), "s")
        m[f"verifiers.{kind}.n"] = (calls(f"verifiers.{kind}"), "count")
    m["verifiers.self_s"] = (
        sum(selfs[s.id] for s in spans if s.name.startswith("verifiers.")),
        "s",
    )
    m["suite.cases"] = (max((s.attrs["n"] for s in by_name["suite.enumerate_cases"] if s.attrs), default=0), "count")
    m["suite.enumerate_s"] = (busy("suite.enumerate_cases"), "s")
    m["suite.render_s"] = (busy("suite.render"), "s")
    m["scan.cells_computed"] = (sum(computed_in.values()), "count")
    m["scan.cells_reused"] = (sum(s.attrs["n"] - computed_in[s.id] for s in scans_ok), "count")
    m["scan.value_s"] = (busy("scan.conjecture_value"), "s")
    m["scan.load_s"] = (busy("scan.load_cells"), "s")
    m["scan.self_s"] = (sum(selfs[s.id] for s in by_name["scan.scan_conjecture"]), "s")
    m["scan.state_bytes"] = (state_bytes, "byte")

    bases = {"padic.gamma_cache_hit_ratio": f"{gamma_hits}/{gamma_calls}"}
    return m, bases


def layer_self_times(tracer: Tracer) -> dict[str, float]:
    """Total self time per layer (the span name's prefix)."""
    selfs = self_times(tracer.spans)
    out: dict[str, float] = defaultdict(float)
    for s in tracer.spans:
        out[s.name.split(".", 1)[0]] += selfs[s.id]
    return dict(sorted(out.items()))
