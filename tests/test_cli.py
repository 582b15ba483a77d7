"""CLI exit codes, output formats, and suite plumbing."""

import concurrent.futures
import csv
import hashlib
import io
import json
import os
import subprocess
import sys
from contextlib import contextmanager
from dataclasses import fields
from fractions import Fraction
from itertools import takewhile
from pathlib import Path

import pytest

import supercongruences.cli as cli
import supercongruences.scan as scan_mod
import supercongruences.suite as suite_mod
import supercongruences.verifiers as verifiers_mod
from supercongruences.errors import CongruenceError, NonIntegralDenominator
from supercongruences.suite import (
    SuiteConfig,
    all_pass,
    enumerate_cases,
    from_json,
    iter_reports,
    render,
    run_suite,
    to_json,
)
from supercongruences.verifiers import Case, Report, admissible, verify_four_k_plus_one

F = Fraction

SMALL = SuiteConfig(p_max=20, d_set=(3, 4), r_max=1, sun_p_max=13, identity_n_max=10)
# deformed_samples=0: no km-deformed cases; test_json_round_trip covers those
TINY = SuiteConfig(p_max=7, d_set=(3,), r_max=1, sun_p_max=5, identity_n_max=2, three_series_trunc=2, deformed_samples=0)


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records the pool size it was
    asked for and the tasks each ``map`` was given, and maps in-process,
    so no worker process ever starts."""

    sizes: list[int] = []
    maps: list[tuple] = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, iterable, chunksize=1):
        tasks = list(iterable)
        self.maps.append((fn, tasks))
        # a generator, like ProcessPoolExecutor.map's result
        return (fn(task) for task in tasks)


@pytest.fixture
def recording_pool(monkeypatch):
    monkeypatch.setattr(RecordingPool, "sizes", [])
    monkeypatch.setattr(RecordingPool, "maps", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    return RecordingPool


@pytest.fixture
def non_integral_series(monkeypatch):
    """Every plain series sum mod p^k raises NonIntegralDenominator, as a
    sum that is not p-integral would."""

    def evaluate_mod(spec, ctx):
        raise NonIntegralDenominator(f"sum is not p-integral at p={ctx.p}: v_p(sum) = -1")

    monkeypatch.setattr(verifiers_mod, "evaluate_mod", evaluate_mod)


class TestSuiteEnumeration:
    def test_pure_function_of_config(self):
        assert enumerate_cases(SMALL) == enumerate_cases(SMALL)

    def test_sorted_by_case_then_params(self):
        cases = enumerate_cases(SMALL)
        keys = [c.sort_key() for c in cases]
        assert keys == sorted(keys)

    def test_respects_hypotheses(self):
        cases = enumerate_cases(SMALL)
        kinds = {c.kind for c in cases}
        assert "rv" in kinds and "dflst" in kinds
        for c in cases:
            if c.kind == "guo-even":
                assert c.d % 2 == 0 and c.p % c.d == c.d - 1 and c.p >= 2 * c.d - 1
            if c.kind == "combined":
                assert c.p != c.d - 1

    def test_default_deformed_pairs_admissible(self):
        assert all(
            admissible(Case("km-deformed", d=d, p=p, x=F(0), y=F(0))) is None
            for d, p in suite_mod.DEFAULT_DEFORMED_PAIRS
        )

    def test_seed_changes_sampled_points(self):
        a = enumerate_cases(SuiteConfig(seed=0))
        b = enumerate_cases(SuiteConfig(seed=1))
        xa = sorted(str(c.x) for c in a if c.kind == "km-deformed")
        xb = sorted(str(c.x) for c in b if c.kind == "km-deformed")
        assert xa != xb

    def test_r_max_past_the_last_prime_power_adds_nothing(self):
        # p^r - 1 <= p_max fails for good at the first r where it fails, so a
        # huge r_max must cost no more than r_max = 2 here (p^2 - 1 <= 100)
        small = SuiteConfig(p_max=100, d_set=(3,), r_max=2)
        huge = SuiteConfig(p_max=100, d_set=(3,), r_max=10**6)
        assert enumerate_cases(huge) == enumerate_cases(small)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SuiteConfig(p_max=3)
        with pytest.raises(ValueError):
            SuiteConfig(d_set=(1, 2))

    @pytest.mark.parametrize(
        "bad,message",
        [
            ({"jobs": 0}, "jobs must be >= 1"),
            ({"jobs": -3}, "jobs must be >= 1"),
        ],
    )
    def test_config_rejects(self, bad, message):
        with pytest.raises(ValueError, match=message):
            SuiteConfig(**bad)

    # sha256 of json.dumps([c.to_dict() for c in enumerate_cases(cfg)],
    # sort_keys=True): the case lists the enumerator has always produced
    @pytest.mark.parametrize(
        "cfg,count,digest",
        [
            (SuiteConfig(seed=0), 941, "654d5751360e96e92fb64479b8bf15ab1cffba8522eecc5b0a53ef6e506b1b55"),
            (SuiteConfig(seed=1), 941, "6edd41ed79f2c2d56fd78a1ef380cfd2b4269e6ccf4e9d56f538552e40304dbb"),
            (SMALL, 135, "bf0f1b2ded85b2a318e6bf3a1f9252258301630d6e4349c763e36d7313956514"),
            (
                SuiteConfig(p_max=400, d_set=(2, 3, 4, 5, 6, 7, 8, 9, 10, 12), r_max=3, harmonic_p_max=300),
                1877,
                "b2e72d30be957a21e715bcec2a7220591c80c828caebe157ec3d019da5dd3448",
            ),
            (
                SuiteConfig(p_max=1000, d_set=tuple(range(2, 16)), r_max=4),
                3809,
                "bbfc622d2eae72ec3008907a2c9ba1343f7daefed29f965f89d08e685e7e65be",
            ),
        ],
    )
    def test_pinned_case_lists(self, cfg, count, digest):
        cases = enumerate_cases(cfg)
        text = json.dumps([c.to_dict() for c in cases], sort_keys=True)
        assert len(cases) == count
        assert hashlib.sha256(text.encode()).hexdigest() == digest


class TestSuiteRun:
    def test_small_run_passes(self):
        reports = run_suite(SMALL)
        assert reports and all_pass(reports)

    def test_json_round_trip(self):
        reports = run_suite(SuiteConfig(p_max=7, d_set=(3,), r_max=1, sun_p_max=5, identity_n_max=3, three_series_trunc=3, deformed_samples=2))
        back = from_json(to_json(reports))
        assert back == reports
        for a, b in zip(back, reports):
            assert a.case == b.case and a.lhs == b.lhs and a.rhs == b.rhs
            assert a.modulus == b.modulus and a.verdict == b.verdict
            assert a.elapsed == pytest.approx(b.elapsed) and a.note == b.note

    def test_json_one_report_per_line(self):
        reports = run_suite(TINY)
        text = to_json(reports)
        lines = text.split("\n")
        assert lines[0] == "[" and lines[-1] == "]" and len(lines) == len(reports) + 2
        assert [Report.from_dict(json.loads(line.removesuffix(","))) for line in lines[1:-1]] == reports
        assert all(line.endswith(",") for line in lines[1:-2]) and not lines[-2].endswith(",")
        # the indented layout that earlier versions wrote still loads
        indented = json.dumps([r.to_dict() for r in reports], indent=2)
        assert from_json(indented) == from_json(text) == reports
        assert to_json([]) == "[\n]" and from_json(to_json([])) == []

    def test_render_json_is_to_json(self):
        reports = run_suite(TINY)
        assert render(reports, "json") == to_json(reports)
        assert from_json(render(reports, "json")) == reports

    def test_default_suite_reports_pinned(self):
        # sha256 of the default suite's JSON without elapsed_ms, dumped with
        # sort_keys and compact separators: the reports (residues, verdicts,
        # notes) the default suite has always produced
        data = json.loads(to_json(run_suite(SuiteConfig())))
        for entry in data:
            entry.pop("elapsed_ms")
        text = json.dumps(data, sort_keys=True, separators=(",", ":"))
        assert len(data) == 941
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "11c8bfb0f908040c45ccb5cd277f5cc3bd183fe7c17964fdb6ca23e53970127f"
        )

    def test_finding_is_reported_not_raised(self, non_integral_series):
        reports = run_suite(TINY)
        assert [r.case for r in reports] == enumerate_cases(TINY)
        findings = [r for r in reports if r.note.startswith("finding:")]
        assert {r.case.kind for r in findings} == {"rv", "sun", "dflst", "guo-odd", "liu", "combined"}
        assert not any(r.verdict for r in findings)
        assert all(r.verdict for r in reports if r not in findings)

    def test_csv_has_fixed_header(self):
        reports = run_suite(TINY)
        rows = list(csv.reader(io.StringIO(render(reports, "csv"))))
        assert rows[0] == ["case_id", "d", "p", "r", "n", "modulus", "lhs", "rhs", "verdict", "elapsed_ms"]
        assert len(rows) == len(reports) + 1
        assert all(row[8] == "pass" for row in rows[1:])

    def test_plain_render_shows_centered_residues(self):
        from supercongruences.verifiers import verify_rodriguez_villegas

        text = render([verify_rodriguez_villegas(7)], "plain")
        assert "48 (= -1)" in text  # canonical value plus small centered form

    def test_plain_render_mentions_counts(self):
        reports = run_suite(TINY)
        text = render(reports, "plain")
        assert f"{len(reports)}/{len(reports)} cases pass" in text

    def test_parallel_matches_serial(self):
        cfg = SuiteConfig(p_max=13, d_set=(3,), r_max=1, sun_p_max=5, identity_n_max=3, three_series_trunc=2, deformed_samples=1)
        serial = run_suite(cfg)
        parallel = run_suite(SuiteConfig(**{**cfg.__dict__, "jobs": 2}))
        assert serial == parallel

    def test_parallel_progress_in_case_order(self):
        cfg = SuiteConfig(**{**TINY.__dict__, "jobs": 2})
        seen = list(iter_reports(cfg))
        assert [r.case for r in seen] == enumerate_cases(cfg)
        assert seen == run_suite(cfg)

    def test_iter_reports_is_lazy(self, monkeypatch):
        ran = []
        real = suite_mod.run_case

        def run_case(case):
            ran.append(case)
            return real(case)

        monkeypatch.setattr(suite_mod, "run_case", run_case)
        first = next(iter_reports(TINY))
        assert ran == [first.case] == enumerate_cases(TINY)[:1]

    @pytest.mark.parametrize(
        "jobs, cpus, expected",
        # TINY has 22 cases
        [(10**6, 64, 22), (10**6, 2, 2), (3, 8, 3), (4, 1, 1), (4, None, 1)],
    )
    def test_pool_size_capped(self, monkeypatch, recording_pool, jobs, cpus, expected):
        # the CPU count comes from the affinity mask; cpus=None stands for a
        # platform without one whose os.cpu_count() cannot tell
        if cpus is None:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
            monkeypatch.setattr(os, "cpu_count", lambda: None)
        else:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        reports = run_suite(SuiteConfig(**{**TINY.__dict__, "jobs": jobs}))
        assert len(reports) == 22
        # jobs > 1 always takes the pool path, whatever the machine
        assert recording_pool.sizes == [expected]
        assert reports == run_suite(TINY)

    @pytest.mark.parametrize("affinity, expected", [({0, 1}, 2), ({5}, 1), (None, 3)])
    def test_pool_size_follows_affinity(self, monkeypatch, recording_pool, affinity, expected):
        # a process pinned to fewer CPUs than the machine has (taskset, a
        # container's cpuset) gets no more workers than it may run;
        # affinity=None: no affinity call, so os.cpu_count() decides
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        if affinity is None:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        else:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: affinity, raising=False)
        run_suite(SuiteConfig(**{**TINY.__dict__, "jobs": 8}))
        assert recording_pool.sizes == [expected]

    def test_pool_gets_contiguous_batches(self, monkeypatch, recording_pool):
        cases = enumerate_cases(SMALL)
        serial_seen = list(iter_reports(SMALL))
        serial = run_suite(SMALL)
        calls = []
        real = suite_mod._run_one

        def run_one(args):
            calls.append(args[0])
            return real(args)

        monkeypatch.setattr(suite_mod, "_run_one", run_one)
        seen = list(iter_reports(SuiteConfig(**{**SMALL.__dict__, "jobs": 2})))
        [(fn, batches)] = recording_pool.maps
        [workers] = recording_pool.sizes
        assert fn is suite_mod._run_batch
        # contiguous, covering every case once, in order
        assert [c for batch in batches for c in batch] == cases
        assert all(batches) and len(batches) <= workers * suite_mod._BATCHES_PER_WORKER
        # _run_one stays the per-case entry point, looked up at call time
        assert calls == cases
        assert seen == serial_seen == serial

    def test_closing_the_stream_cancels_pending_batches(self, monkeypatch, recording_pool):
        # a real pool runs every batch left uncancelled before it shuts
        # down, so the map's result iterator must be closed before the pool
        # exits, which cancels the batches not yet handed to a worker
        results, open_at_exit = [], []
        real_map = RecordingPool.map

        def map_(self, fn, tasks):
            results.append(real_map(self, fn, tasks))
            return results[-1]

        def exit_(self, *exc):
            open_at_exit.append(results[-1].gi_frame is not None)

        monkeypatch.setattr(RecordingPool, "map", map_)
        monkeypatch.setattr(RecordingPool, "__exit__", exit_)
        stream = iter_reports(SuiteConfig(**{**SMALL.__dict__, "jobs": 2}))
        next(stream)
        stream.close()
        assert open_at_exit == [False]

    def test_run_batch_keeps_reports_before_a_failure(self, monkeypatch):
        cases = [Case("rv", p=5), Case("rv", p=7), Case("rv", p=11)]
        real = suite_mod._run_one

        def run_one(args):
            if args[0].p == 7:
                raise CongruenceError("injected failure at p = 7")
            return real(args)

        monkeypatch.setattr(suite_mod, "_run_one", run_one)
        reports, exc = suite_mod._run_batch(cases)
        assert [r.case for r in reports] == cases[:1] and reports[0].verdict
        assert isinstance(exc, CongruenceError) and "p = 7" in str(exc)
        if hasattr(exc, "add_note"):
            # the worker's traceback text, which pickling would drop
            assert "in run_one" in exc.__notes__[-1]
        monkeypatch.setattr(suite_mod, "_run_one", real)
        reports, exc = suite_mod._run_batch(cases)
        assert [r.case for r in reports] == cases and exc is None


class TestVerifyCommand:
    def test_pass_exit_zero(self, capsys):
        assert cli.main(["verify", "guo-even", "--d", "4", "--p", "7"]) == 0
        assert "pass" in capsys.readouterr().out

    def test_fixture_case(self, capsys):
        assert cli.main(["verify", "guo-central", "--p", "5", "--r", "1"]) == 0

    def test_json_output(self, capsys):
        assert cli.main(["verify", "rv", "--p", "7", "--format", "json"]) == 0
        [report] = from_json(capsys.readouterr().out)
        assert report.verdict and report.case == Case("rv", p=7)
        assert report.lhs.value == 48

    def test_hypothesis_error_exit_two(self, capsys):
        assert cli.main(["verify", "guo-even", "--d", "5", "--p", "9"]) == 2
        assert "error" in capsys.readouterr().err

    def test_case_that_raises_exits_two(self, monkeypatch, capsys):
        # a shape bug raises out of the verifier: exit 2 with the traceback,
        # never exit 1, which only a failed verdict gives
        real = verifiers_mod.step_ratios
        third = verifiers_mod.combined_series(4, 5)

        def step_ratios(spec):
            ps, qs = real(spec)
            return ps, (2 * q for q in qs) if spec == third else qs

        monkeypatch.setattr(verifiers_mod, "step_ratios", step_ratios)
        assert cli.main(["verify", "three-series", "--d", "4", "--n", "5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("Traceback")
        assert "RuntimeError: three-series step denominators differ at k = 0" in captured.err

    @pytest.mark.parametrize("error", [ValueError, OSError, CongruenceError])
    def test_library_error_in_a_case_prints_its_traceback(self, error, monkeypatch, capsys):
        # the types that also mark usage errors: raised by a case, they are a
        # bug, reported with the traceback and never as "error: <message>"
        def run_case(case):
            raise error("bug in rv")

        monkeypatch.setattr(cli, "run_case", run_case)
        assert cli.main(["verify", "rv", "--p", "7"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "error: " not in captured.err
        assert captured.err.startswith("Traceback") and "in run_case" in captured.err
        assert f"{error.__name__}: bug in rv" in captured.err

    def test_missing_params_exit_two(self, capsys):
        assert cli.main(["verify", "dflst", "--d", "3"]) == 2

    def test_strength_zero_exit_two(self, capsys):
        assert cli.main(["verify", "dflst", "--d", "3", "--p", "7", "--strength", "0"]) == 2
        assert "strength must be 2 or 3, got 0" in capsys.readouterr().err

    def test_unused_params_exit_two(self, capsys):
        assert cli.main(["verify", "rv", "--p", "7", "--d", "3"]) == 2
        assert "case 'rv' does not take parameters: d" in capsys.readouterr().err

    def test_failure_exit_one(self, capsys, monkeypatch):
        # no true congruence fails, so fake a failing report to pin the
        # exit-code wiring
        failing = Report(Case("rv", p=5), None, None, "5^2", False, 0.0)
        monkeypatch.setattr(cli, "run_case", lambda case: failing)
        assert cli.main(["verify", "rv", "--p", "5"]) == 1

    def test_finding_exit_one(self, non_integral_series, capsys):
        assert cli.main(["verify", "dflst", "--d", "3", "--p", "7"]) == 1
        out = capsys.readouterr().out
        assert out.startswith("FAIL  dflst") and "[finding: sum is not p-integral at p=7" in out

    def test_alpha_parsing(self):
        assert cli.main(["verify", "sun", "--alpha", "2/5", "--p", "7"]) == 0

    def test_negative_rationals_in_equals_form(self):
        # the = form hands argparse the value in the flag's own token
        assert cli.main(["verify", "sun", "--alpha=-1/2", "--p", "7"]) == 0
        assert cli.main(["verify", "km-deformed", "--d", "4", "--p", "7", "--x=-1/2", "--y=-1/3"]) == 0

    def test_bare_negative_rationals(self, capsys):
        # main joins --alpha/--x/--y and a following -<digit> value, so the
        # bare form gives the report of the = form
        runs = [
            (["verify", "sun", "--alpha", "-1/2", "--p", "7"], ["verify", "sun", "--alpha=-1/2", "--p", "7"]),
            (
                ["verify", "km-deformed", "--d", "4", "--p", "7", "--x", "-1/2", "--y", "-1/3"],
                ["verify", "km-deformed", "--d", "4", "--p", "7", "--x=-1/2", "--y=-1/3"],
            ),
            (["verify", "sun", "--alpha", "-2", "--p", "7"], ["verify", "sun", "--alpha=-2", "--p", "7"]),
        ]
        rows = []
        for bare, joined in runs:
            outputs = []
            for argv in (bare, joined):
                assert cli.main([*argv, "--format", "csv"]) == 0
                # every column but elapsed_ms
                outputs.append([row[:-1] for row in csv.reader(io.StringIO(capsys.readouterr().out))])
            assert outputs[0] == outputs[1]
            rows.append(outputs[0][1])
        assert [row[0] for row in rows] == ["sun(alpha=-1/2)", "km-deformed(x=-1/2,y=-1/3)", "sun(alpha=-2)"]

    def test_bare_negative_rational_through_the_console_script(self):
        # argv as the shell hands it over, on the interpreter under test
        src = Path(cli.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(src))
        argv = ["verify", "km-deformed", "--d", "4", "--p", "7", "--x", "-1/2", "--y", "-1/3"]
        proc = subprocess.run(
            [sys.executable, "-m", "supercongruences.cli", *argv], env=env, capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("pass  km-deformed(x=-1/2,y=-1/3)")

    def test_rational_flag_without_value_is_still_a_usage_error(self, capsys):
        # only a -<digit> token is joined: a flag after --alpha is not its value
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "sun", "--alpha", "--p", "7"])
        assert exc.value.code == 2
        assert "argument --alpha: expected one argument" in capsys.readouterr().err

    def test_bad_alpha_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "sun", "--alpha", "x", "--p", "7"])
        assert exc.value.code == 2

    def test_out_file(self, tmp_path):
        out = tmp_path / "report.json"
        assert cli.main(["verify", "liu", "--p", "5", "--r", "1", "--format", "json", "--out", str(out)]) == 0
        [report] = from_json(out.read_text())
        assert report.verdict and report.case == Case("liu", p=5, r=1)


class TestFileErrors:
    """An unusable path is a usage error (exit 2), never a failed congruence."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["scan", "--d", "2", "--n-max", "3", "--state", "{dir}"], "Is a directory"),
            (["scan", "--d", "2", "--n-max", "3", "--state", "{dir}/missing/s.txt"], "persisting cell d=2 n=3"),
            (["verify", "rv", "--p", "7", "--out", "{dir}/missing/x.json"], "No such file"),
            (["suite", "--p-max", "7", "--d-set", "3", "--out", "{dir}/missing/x.json"], "No such file"),
        ],
        ids=["scan-state-is-dir", "scan-state-dir-missing", "verify-out-dir-missing", "suite-out-dir-missing"],
    )
    def test_exit_two(self, tmp_path, capsys, argv, message):
        code = cli.main([arg.format(dir=tmp_path) for arg in argv])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    def test_bad_out_runs_no_case(self, tmp_path, monkeypatch, capsys):
        calls = []

        def run_case(case):
            calls.append(case)
            return real(case)

        real = suite_mod.run_case
        monkeypatch.setattr(suite_mod, "run_case", run_case)
        monkeypatch.setattr(cli, "run_case", run_case)
        out = str(tmp_path / "missing" / "x.json")
        assert cli.main(["suite", "--p-max", "7", "--d-set", "3", "--out", out]) == 2
        assert cli.main(["verify", "rv", "--p", "7", "--out", out]) == 2
        assert calls == []

    def test_case_that_raises_leaves_out_path_alone(self, tmp_path, monkeypatch, capsys):
        def run_case(case):
            raise RuntimeError("bug in rv")

        monkeypatch.setattr(cli, "run_case", run_case)
        out = tmp_path / "v.json"
        argv = ["verify", "rv", "--p", "7", "--out", str(out)]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("Traceback") and "RuntimeError: bug in rv" in err
        assert not out.exists()
        out.write_text("kept")
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("Traceback") and "RuntimeError: bug in rv" in err
        assert out.read_text() == "kept"

    def test_hypothesis_error_leaves_out_file_alone(self, tmp_path, capsys):
        argv = ["verify", "guo-even", "--d", "5", "--p", "9"]
        assert cli.main(argv) == 2
        message = capsys.readouterr().err
        out = tmp_path / "v.json"
        assert cli.main([*argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err == message and not out.exists()
        out.write_text("kept")
        assert cli.main([*argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err == message and out.read_text() == "kept"


class TestSuiteCommand:
    def test_small_suite_exit_zero(self, capsys):
        code = cli.main(["suite", "--p-max", "20", "--d-set", "3,4", "--r-max", "1"])
        assert code == 0
        assert "cases pass" in capsys.readouterr().out

    def test_csv_report_written(self, tmp_path, capsys):
        out = tmp_path / "report.csv"
        code = cli.main(
            ["suite", "--p-max", "11", "--d-set", "3", "--format", "csv", "--out", str(out)]
        )
        assert code == 0
        first = out.read_text().splitlines()[0]
        assert first.startswith("case_id,d,p,r,n,modulus")

    def test_csv_to_stdout_ends_in_one_line_break(self, capsys):
        assert cli.main(["suite", "--p-max", "7", "--d-set", "3", "--format", "csv"]) == 0
        out = capsys.readouterr().out
        assert out.endswith("\r\n") and not out.endswith("\n\n")

    def test_bad_jobs_exit_two(self, capsys):
        assert cli.main(["suite", "--p-max", "7", "--jobs", "-3"]) == 2
        assert "jobs must be >= 1" in capsys.readouterr().err

    def test_bad_d_set_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["suite", "--d-set", "3,x"])
        assert exc.value.code == 2
        assert "not a comma-separated int list: '3,x'" in capsys.readouterr().err

    def test_no_strength_cap(self, capsys):
        # dflst runs at both strengths wherever they hold; there is no cap
        with pytest.raises(SystemExit) as exc:
            cli.main(["suite", "--max-strength", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --max-strength 2" in capsys.readouterr().err

    def test_defaults_come_from_suite_config(self, monkeypatch, capsys):
        args = cli.build_parser().parse_args(["suite"])
        assert SuiteConfig(**{f.name: getattr(args, f.name) for f in fields(SuiteConfig)}) == SuiteConfig()
        seen = []
        monkeypatch.setattr(cli, "iter_reports", lambda cfg: seen.append(cfg) or iter(()))
        assert cli.main(["suite"]) == 0
        assert seen == [SuiteConfig()]

    def test_suite_failure_exit_one(self, monkeypatch, capsys):
        import supercongruences.suite as suite_mod

        failing = Report(Case("rv", p=5), None, None, "5^2", False, 0.0)
        monkeypatch.setattr(suite_mod, "run_case", lambda case: failing)
        assert cli.main(["suite", "--p-max", "7", "--d-set", "3"]) == 1

    def test_partial_results_written_on_error(self, tmp_path, monkeypatch, capsys):
        # the first Gamma-backed case blows up; the cases that already
        # finished must still land in the file
        import supercongruences.suite as suite_mod

        real = suite_mod.run_case

        def run_case(case):
            if case.kind in ("dflst", "guo-linear", "guo-even", "guo-odd"):
                raise CongruenceError(f"injected failure in {case.kind}")
            return real(case)

        monkeypatch.setattr(suite_mod, "run_case", run_case)
        out = tmp_path / "partial.csv"
        code = cli.main(
            ["suite", "--p-max", "11", "--d-set", "3", "--format", "csv", "--out", str(out)]
        )
        assert code == 2
        assert "injected failure" in capsys.readouterr().err
        lines = out.read_text().splitlines()
        assert lines[0].startswith("case_id") and len(lines) > 1

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_case_that_raises_exits_two(self, jobs, monkeypatch, capsys):
        # forked pool workers inherit the patched run_case; the reports of
        # the cases before the failing one are streamed first
        real = suite_mod.run_case

        def run_case(case):
            if case.kind == "liu":
                raise RuntimeError("injected bug in liu")
            return real(case)

        monkeypatch.setattr(suite_mod, "run_case", run_case)
        assert cli.main(["suite", "--p-max", "13", "--d-set", "3", "--jobs", jobs]) == 2
        captured = capsys.readouterr()
        before = list(takewhile(lambda c: c.kind != "liu", enumerate_cases(SuiteConfig(p_max=13, d_set=(3,)))))
        lines = captured.out.splitlines()
        assert len(lines) == len(before) > 0
        assert all(line.startswith("pass  ") for line in lines)
        assert captured.err.startswith("Traceback")
        assert "RuntimeError: injected bug in liu" in captured.err
        if jobs == "2" and hasattr(BaseException, "add_note"):
            # the worker's traceback, carried as a note
            assert "in _run_batch" in captured.err

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize("error", [ValueError, OSError, CongruenceError])
    def test_library_error_in_a_case_prints_its_traceback(self, error, jobs, tmp_path, monkeypatch, capsys):
        # forked pool workers inherit the patched run_case; the reports of
        # the cases before the failing one still land in the file
        real = suite_mod.run_case

        def run_case(case):
            if case.kind == "liu":
                raise error("bug in liu")
            return real(case)

        monkeypatch.setattr(suite_mod, "run_case", run_case)
        out = tmp_path / "partial.csv"
        argv = ["suite", "--p-max", "13", "--d-set", "3", "--jobs", jobs, "--format", "csv", "--out", str(out)]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("Traceback") and "error: " not in err
        assert f"{error.__name__}: bug in liu" in err
        if jobs == "2" and hasattr(BaseException, "add_note"):
            assert "in _run_batch" in err
        before = list(takewhile(lambda c: c.kind != "liu", enumerate_cases(SuiteConfig(p_max=13, d_set=(3,)))))
        rows = list(csv.reader(io.StringIO(out.read_text())))
        assert [row[0] for row in rows[1:]] == [c.label() for c in before] and before

    def test_parallel_partial_results_written_on_error(self, tmp_path, monkeypatch, capsys):
        # forked pool workers inherit the patched run_case; the reports
        # that reached the parent before the error must land in the file
        real = suite_mod.run_case

        def run_case(case):
            if case.kind == "rv":
                raise CongruenceError("injected failure in rv")
            return real(case)

        monkeypatch.setattr(suite_mod, "run_case", run_case)
        out = tmp_path / "partial.csv"
        argv = ["suite", "--p-max", "11", "--d-set", "3", "--jobs", "2", "--format", "csv", "--out", str(out)]
        assert cli.main(argv) == 2
        assert "injected failure" in capsys.readouterr().err
        before = list(takewhile(lambda c: c.kind != "rv", enumerate_cases(SuiteConfig(p_max=11, d_set=(3,)))))
        expected = [row[:-1] for row in csv.reader(io.StringIO(render([real(c) for c in before], "csv")))]
        rows = [row[:-1] for row in csv.reader(io.StringIO(out.read_text()))]
        assert len(rows) - 1 == len(before)
        assert rows == expected


class TestScanCommand:
    def test_exit_zero(self, capsys):
        assert cli.main(["scan", "--d", "2", "--n-max", "21"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "2 3 5 1 1"

    def test_empty_scan(self, capsys):
        assert cli.main(["scan", "--d", "3", "--n-max", "4"]) == 0
        assert capsys.readouterr().out == ""

    def test_resume_uses_state(self, tmp_path, monkeypatch, capsys):
        state = tmp_path / "state.txt"
        assert cli.main(["scan", "--d", "2", "--n-max", "11", "--state", str(state)]) == 0
        monkeypatch.setattr(
            scan_mod,
            "_sweep",
            lambda d, ns: [pytest.fail(f"persisted cell n={n} recomputed") for n in ns],
        )
        assert cli.main(["scan", "--d", "2", "--n-max", "11", "--state", str(state)]) == 0

    def test_finding_exit_three_and_full_value(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(scan_mod, "_sweep", lambda d, ns: [(3, F(7, 2))])
        state = tmp_path / "state.txt"
        assert cli.main(["scan", "--d", "2", "--n-max", "3", "--state", str(state)]) == 3
        captured = capsys.readouterr()
        assert "NON-INTEGRAL" in captured.err and "7/2" in captured.err

    def test_finding_printed_once(self):
        # a subprocess, so that no pytest log handler hides Python's
        # last-resort one, which would print a library warning too
        code = (
            "import sys; from fractions import Fraction\n"
            "import supercongruences.cli as cli, supercongruences.scan as scan\n"
            "real = scan._sweep\n"
            "scan._sweep = lambda d, ns: ((n, Fraction(7, 2) if n == 3 else v) for n, v in real(d, ns))\n"
            "sys.exit(cli.main(['scan', '--d', '2', '--n-max', '5']))\n"
        )
        src = Path(cli.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 3
        assert proc.stderr.count("7/2") == 1

    def test_non_integral_state_line_is_recomputed(self, tmp_path, capsys):
        # a finding read back from the state is never trusted: the sweep
        # recomputes the cell, and its appended line is the one loads keep
        state = tmp_path / "state.txt"
        state.write_text("2 3 7 2 0\n", encoding="utf-8")
        assert cli.main(["scan", "--d", "2", "--n-max", "3", "--state", str(state)]) == 0
        assert capsys.readouterr().out.split()[:3] == ["2", "3", "5"]
        assert state.read_text().splitlines() == ["2 3 7 2 0", "2 3 5 1 1"]
        assert scan_mod.load_cells(state)[(2, 3)].value == scan_mod.conjecture_value(2, 3) == 5

    def test_inconsistent_flag_is_usage_error(self, tmp_path, capsys):
        # the integer 5 flagged non-integral is a corrupt line, not a finding
        state = tmp_path / "state.txt"
        state.write_text("2 3 5 1 0\n", encoding="utf-8")
        assert cli.main(["scan", "--d", "2", "--n-max", "3", "--state", str(state)]) == 2
        assert f"{state}:1" in capsys.readouterr().err

    def test_torn_last_line_is_dropped(self, tmp_path, capsys):
        state = tmp_path / "state.txt"
        state.write_text("2 3 5 1 1\n2 5 12", encoding="utf-8")
        assert cli.main(["scan", "--d", "2", "--n-max", "7", "--state", str(state)]) == 0
        assert [line.split()[:2] for line in state.read_text().splitlines()] == [
            ["2", "3"], ["2", "5"], ["2", "7"]
        ]

    def test_interrupted_sweep_keeps_cells_already_yielded(self, tmp_path, monkeypatch, capsys):
        # each cell is appended as the sweep yields it, so a failed write
        # loses only that cell and the ones after it
        state = tmp_path / "state.txt"
        for n in (5, 11):
            scan_mod._append(state, scan_mod.ConjectureCell(2, n, scan_mod.conjecture_value(2, n), True))
        real_open, real_sweep = open, scan_mod._sweep
        events = []

        def failing_open(file, mode="r", *args, **kwargs):
            if mode == "a":
                events.append("append")
                if events.count("append") == 3:
                    raise OSError(28, "No space left on device")
            return real_open(file, mode, *args, **kwargs)

        def recording_sweep(d, ns):
            for n, value in real_sweep(d, ns):
                events.append(n)
                yield n, value

        monkeypatch.setattr(scan_mod, "open", failing_open, raising=False)
        monkeypatch.setattr(scan_mod, "_sweep", recording_sweep)
        assert cli.main(["scan", "--d", "2", "--n-max", "17", "--state", str(state)]) == 2
        assert "persisting cell d=2 n=9" in capsys.readouterr().err
        # each append comes before the sweep yields the next cell
        assert events == [3, "append", 7, "append", 9, "append"]
        assert [line.split()[1] for line in state.read_text().splitlines()] == ["5", "11", "3", "7"]
        monkeypatch.undo()

        asked = []

        def counting(d, ns):
            ns = list(ns)
            asked.extend(ns)
            return real_sweep(d, ns)

        monkeypatch.setattr(scan_mod, "_sweep", counting)
        assert cli.main(["scan", "--d", "2", "--n-max", "17", "--state", str(state)]) == 0
        assert asked == [9, 13, 15, 17]
        cells = scan_mod.load_cells(state)
        assert sorted(n for _, n in cells) == [3, 5, 7, 9, 11, 13, 15, 17]
        assert all(cell.value == scan_mod.conjecture_value(2, cell.n) for cell in cells.values())

    def test_value_past_int_str_limit(self, monkeypatch, capsys):
        big = 10**5000 + 7  # str() refuses more than 4300 digits
        monkeypatch.setattr(scan_mod, "_sweep", lambda d, ns: [(n, F(big)) for n in ns])
        assert cli.main(["scan", "--d", "2", "--n-max", "3"]) == 0
        assert capsys.readouterr().out.split()[2] == "1" + "0" * 4999 + "7"

    def test_json_format(self, capsys):
        # scan prints its state lines, the one form of a cell
        with pytest.raises(SystemExit) as exc:
            cli.main(["scan", "--d", "2", "--n-max", "5", "--format", "json"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --format json" in capsys.readouterr().err

    def test_usage_error(self, capsys):
        assert cli.main(["scan", "--d", "1", "--n-max", "5"]) == 2


class TestPrimesCommand:
    def test_progression(self, capsys):
        assert cli.main(["primes", "--residue", "-1", "--modulus", "4", "--limit", "20"]) == 0
        assert capsys.readouterr().out.strip() == "3 7 11 19"

    def test_positive_class(self, capsys):
        assert cli.main(["primes", "--residue", "1", "--modulus", "4", "--limit", "20"]) == 0
        assert capsys.readouterr().out.strip() == "5 13 17"

    def test_zero_modulus_exit_two(self, capsys):
        assert cli.main(["primes", "--residue", "1", "--modulus", "0", "--limit", "20"]) == 2
        assert "modulus must be positive, got 0" in capsys.readouterr().err


@contextmanager
def int_str_digits(limit):
    """Python's int/str digit limit lowered to ``limit`` (640 at least) for
    the block, and restored after it."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int/str digit limit before 3.10.7")
class TestExactSidesPastDigitLimit:
    """Exact sides are written in full and read back at any length. With the
    limit at 640 digits, four-k-plus-one at n = 600 has sides of about 720."""

    N = 600

    def test_report_formats_round_trip(self):
        with int_str_digits(640):
            report = verify_four_k_plus_one(self.N)
            with pytest.raises(ValueError):
                str(report.lhs.numerator)
            assert from_json(render([report], "json")) == [report]
            [row] = list(csv.reader(io.StringIO(render([report], "csv"))))[1:]
            assert row[6] == row[7]
            plain = render([report], "plain")
        assert F(row[6]) == report.lhs
        assert f"lhs = {report.lhs}  rhs = {report.rhs}" in plain

    @pytest.mark.parametrize("fmt", ["plain", "json", "csv"])
    def test_verify_exit_zero(self, capsys, fmt):
        with int_str_digits(640):
            assert cli.main(["verify", "four-k-plus-one", "--n", str(self.N), "--format", fmt]) == 0
            out = capsys.readouterr().out
            if fmt == "json":
                [back] = from_json(out)
                assert back.verdict and back.lhs == back.rhs
        assert str(verify_four_k_plus_one(self.N).lhs) in out


class TestClosedPipe:
    def test_closed_pipe_exits_quietly(self):
        # the reader takes one line and closes the pipe: the suite stops at
        # its next write with 141 (128 + SIGPIPE), and no "error:" line
        src = Path(cli.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(src))
        for flags in ([], ["--jobs", "2"]):
            proc = subprocess.Popen(
                [sys.executable, "-m", "supercongruences.cli", "suite", "--p-max", "1000", *flags],
                env=env,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
            )
            try:
                assert proc.stdout.readline().startswith(b"pass  ")
                proc.stdout.close()
                assert proc.wait(timeout=120) == cli.EXIT_PIPE
                assert proc.stderr.read() == b""
            finally:
                proc.kill()
                proc.wait(timeout=60)
                proc.stderr.close()

    def test_pipe_closed_before_a_buffered_write(self):
        # verify's one report sits in stdout's buffer until main flushes it,
        # after the reader has gone: 141 and no traceback from the flush at exit
        src = Path(cli.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(src))
        env.pop("PYTHONUNBUFFERED", None)  # stdout must buffer
        proc = subprocess.Popen(
            [sys.executable, "-m", "supercongruences.cli", "verify", "rv", "--p", "7"],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        proc.stdout.close()
        try:
            assert proc.wait(timeout=60) == cli.EXIT_PIPE
            assert proc.stderr.read() == b""
        finally:
            proc.kill()
            proc.wait(timeout=60)
            proc.stderr.close()
