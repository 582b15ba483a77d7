"""Tests of the benchmark's own logic, run from the repository root with

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import math
import sys
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import workloads as wl  # noqa: E402
from supercongruences import suite, verifiers  # noqa: E402
from supercongruences.verifiers import Case  # noqa: E402
from tracing import Tracer, layer_metrics, self_times  # noqa: E402


def test_inputs_are_deterministic_per_seed():
    assert wl.bigp_cases(7) == wl.bigp_cases(7)
    assert wl.bigp_cases(7) != wl.bigp_cases(8)
    assert len(wl.bigp_cases(7)) >= 100
    assert wl.make_inputs("suite-default", 3) == wl.make_inputs("suite-default", 3)
    assert wl.make_inputs("suite-default", 3)["cases"] == wl.make_inputs("suite-jobs2", 3)["cases"]
    assert len(wl.make_inputs("suite-default", 3)["cases"]) == 941
    assert wl.scan_ladder() == wl.scan_ladder()
    assert len(wl.scan_ladder()) == 430


def test_bigp_primes_stay_in_window():
    for case in wl.bigp_cases(11):
        if case.p is not None:
            assert wl.BIGP_LO <= case.p <= wl.BIGP_HI


def test_tail_percentile_picks_by_sample_count():
    assert wl.tail_percentile(941) == 90
    assert wl.tail_percentile(100) == 90
    assert wl.tail_percentile(50) == 80
    assert wl.tail_percentile(20) == 50
    assert wl.tail_percentile(10) == 0
    for n in range(11, 400):
        q = wl.tail_percentile(n)
        assert n - math.ceil(q * n / 100) >= 10
        assert q == 90 or n - math.ceil((q + 1) * n / 100) < 10


def test_raising_check_is_counted_and_sorts_as_inf(monkeypatch):
    real = verifiers.run_case

    def flaky(case):
        if case.kind == "rv":
            raise ValueError("boom")
        return real(case)

    monkeypatch.setattr(verifiers, "run_case", flaky)
    cases = [Case("rv", p=5), Case("four-k-plus-one", n=3), Case("liu", p=5, r=1)]
    reports, latencies, failures = wl.run_checks(cases, [0, 1, 2])
    assert len(reports) == 2
    assert [(f.check, f.wrong) for f in failures] == [(1, False)]
    assert "ValueError: boom" in failures[0].error
    assert math.isinf(latencies[0]) and all(math.isfinite(x) for x in latencies[1:])
    assert wl.percentile(latencies, 90) == math.inf
    assert math.isfinite(wl.percentile(latencies, 50))


def test_fail_verdict_is_a_wrong_output(monkeypatch):
    real = verifiers.run_case
    monkeypatch.setattr(verifiers, "run_case", lambda case: replace(real(case), verdict=False))
    _, latencies, failures = wl.run_checks([Case("rv", p=7)], [0])
    assert math.isinf(latencies[0])
    assert failures[0].wrong


def test_digest_ignores_timing_fields():
    report = verifiers.run_case(Case("rv", p=7))
    slower = replace(report, elapsed=report.elapsed + 1.0)
    digest = wl.report_digest(suite.to_json([report]))
    assert wl.report_digest(suite.to_json([slower])) == digest
    assert wl.report_digest(suite.render([slower], "json")) == digest
    assert wl.report_digest(suite.to_json([replace(report, verdict=False)])) != digest


def test_cell_record_has_no_decimal_digit_limit():
    big = (1 << 20000) + 1
    assert wl.cell_record(4, 391, big) == f"4 391 {big:x} 1 1"


def test_tracer_spans_and_restores_bindings():
    originals = (verifiers.run_case, verifiers.GammaContext, suite.render)
    tracer = Tracer()
    tracer.install()
    try:
        verifiers.run_case(Case("dflst", d=3, p=7, strength=3))
    finally:
        tracer.uninstall()
    assert (verifiers.run_case, verifiers.GammaContext, suite.render) == originals
    names = {s.name for s in tracer.spans}
    assert {"verifiers.run_case", "verifiers.dflst-s3", "padic.gamma", "hypergeom.evaluate_exact"} <= names
    assert all(t >= 0 for t in self_times(tracer.spans).values())
    metrics, bases = layer_metrics(tracer, 0)
    assert metrics["padic.gamma_calls"][0] == 1
    assert bases["padic.gamma_cache_hit_ratio"] == "0/1"
    assert metrics["verifiers.dflst-s3.n"][0] == 1


def test_pool_entry_is_timed_and_restored():
    original = suite._run_one
    with wl.timed_pool_entry():
        report = suite._run_one((Case("rv", p=7), None))
    assert suite._run_one is original
    assert report.__dict__[wl.CHECK_S] > 0


def test_dispatch_order_permutes_only_the_pool_input():
    original = suite.enumerate_cases
    cfg = suite.SuiteConfig(p_max=13, sun_p_max=13, harmonic_p_max=13, identity_n_max=5,
                            three_series_trunc=2, deformed_samples=1)
    cases = suite.enumerate_cases(cfg)
    order = list(range(len(cases)))[::-1]
    with wl.dispatch_order(order):
        assert suite.enumerate_cases(cfg) == cases[::-1]
        reports = suite.run_suite(cfg)
    assert suite.enumerate_cases is original
    assert [r.case for r in reports] == cases
