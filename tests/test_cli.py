"""CLI exit codes, output formats, and suite plumbing."""

import concurrent.futures
import csv
import hashlib
import io
import json
import os
from dataclasses import fields
from fractions import Fraction
from itertools import takewhile

import pytest

import supercongruences.cli as cli
import supercongruences.scan as scan_mod
import supercongruences.suite as suite_mod
from supercongruences.errors import CongruenceError
from supercongruences.suite import (
    SuiteConfig,
    all_pass,
    enumerate_cases,
    from_json,
    render,
    run_suite,
    to_json,
)
from supercongruences.verifiers import Case, Report

F = Fraction

SMALL = SuiteConfig(p_max=20, d_set=(3, 4), r_max=1, sun_p_max=13, identity_n_max=10)
TINY = SuiteConfig(p_max=7, d_set=(3,), r_max=1, sun_p_max=5, identity_n_max=2, three_series_trunc=2, deformed_pairs=(), deformed_samples=1)


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

    def test_seed_changes_sampled_points(self):
        a = enumerate_cases(SuiteConfig(seed=0))
        b = enumerate_cases(SuiteConfig(seed=1))
        xa = sorted(str(c.x) for c in a if c.kind == "km-deformed")
        xb = sorted(str(c.x) for c in b if c.kind == "km-deformed")
        assert xa != xb

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SuiteConfig(p_max=3)
        with pytest.raises(ValueError):
            SuiteConfig(d_set=(1, 2))

    @pytest.mark.parametrize(
        "bad,message",
        [
            ({"max_strength": 1}, "max_strength must be 2 or 3"),
            ({"max_strength": 5}, "max_strength must be 2 or 3"),
            ({"jobs": 0}, "jobs must be >= 1"),
            ({"jobs": -3}, "jobs must be >= 1"),
            ({"deformed_pairs": ((4, 7), (4, 13))}, r"deformed pair \(d=4, p=13\): need p ≡ -1 \(mod 4\)"),
            ({"deformed_pairs": ((5, 9),)}, "need even d >= 4, got 5"),
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
                SuiteConfig(p_max=400, d_set=(2, 3, 4, 5, 6, 7, 8, 9, 10, 12), r_max=3, max_strength=2, harmonic_p_max=300),
                1677,
                "3b4f735a42e1d73a54fa898b391b620f6939f6cfd5433ee308a7d85345688184",
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
        reports = run_suite(SuiteConfig(p_max=7, d_set=(3,), r_max=1, sun_p_max=5, identity_n_max=3, three_series_trunc=3, deformed_pairs=((4, 7),), deformed_samples=2))
        back = from_json(to_json(reports))
        assert back == reports
        for a, b in zip(back, reports):
            assert a.case == b.case and a.lhs == b.lhs and a.rhs == b.rhs
            assert a.modulus == b.modulus and a.verdict == b.verdict
            assert a.elapsed == pytest.approx(b.elapsed) and a.note == b.note

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

    def test_csv_has_fixed_header(self):
        reports = run_suite(SuiteConfig(p_max=7, d_set=(3,), r_max=1, sun_p_max=5, identity_n_max=2, three_series_trunc=2, deformed_pairs=(), deformed_samples=1))
        rows = list(csv.reader(io.StringIO(render(reports, "csv"))))
        assert rows[0] == ["case_id", "d", "p", "r", "n", "modulus", "lhs", "rhs", "verdict", "elapsed_ms"]
        assert len(rows) == len(reports) + 1
        assert all(row[8] == "pass" for row in rows[1:])

    def test_plain_render_shows_centered_residues(self):
        from supercongruences.verifiers import verify_rodriguez_villegas

        text = render([verify_rodriguez_villegas(7)], "plain")
        assert "48 (= -1)" in text  # canonical value plus small centered form

    def test_plain_render_mentions_counts(self):
        reports = run_suite(SuiteConfig(p_max=7, d_set=(3,), r_max=1, sun_p_max=5, identity_n_max=2, three_series_trunc=2, deformed_pairs=(), deformed_samples=1))
        text = render(reports, "plain")
        assert f"{len(reports)}/{len(reports)} cases pass" in text

    def test_parallel_matches_serial(self):
        cfg = SuiteConfig(p_max=13, d_set=(3,), r_max=1, sun_p_max=5, identity_n_max=3, three_series_trunc=2, deformed_pairs=(), deformed_samples=1)
        serial = run_suite(cfg)
        parallel = run_suite(SuiteConfig(**{**cfg.__dict__, "jobs": 2}))
        assert serial == parallel

    def test_parallel_progress_in_case_order(self):
        cfg = SuiteConfig(**{**TINY.__dict__, "jobs": 2})
        seen = []
        reports = run_suite(cfg, progress=seen.append)
        assert [r.case for r in seen] == enumerate_cases(cfg)
        assert seen == reports

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
        serial_seen = []
        serial = run_suite(SMALL, progress=serial_seen.append)
        calls = []
        real = suite_mod._run_one

        def run_one(args):
            calls.append(args[0])
            return real(args)

        monkeypatch.setattr(suite_mod, "_run_one", run_one)
        seen = []
        reports = run_suite(SuiteConfig(**{**SMALL.__dict__, "jobs": 2}), progress=seen.append)
        [(fn, batches)] = recording_pool.maps
        [workers] = recording_pool.sizes
        assert fn is suite_mod._run_batch
        # contiguous, covering every case once, in order
        assert [c for batch in batches for c in batch] == cases
        assert all(batches) and len(batches) <= workers * suite_mod._BATCHES_PER_WORKER
        # _run_one stays the per-case entry point, looked up at call time
        assert calls == cases
        assert reports == serial and seen == serial_seen

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
        data = json.loads(capsys.readouterr().out)
        assert data["verdict"] == "pass" and data["case"]["kind"] == "rv"
        assert Report.from_dict(data).lhs.value == 48

    def test_hypothesis_error_exit_two(self, capsys):
        assert cli.main(["verify", "guo-even", "--d", "5", "--p", "9"]) == 2
        assert "error" in capsys.readouterr().err

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

    def test_alpha_parsing(self):
        assert cli.main(["verify", "sun", "--alpha", "2/5", "--p", "7"]) == 0

    def test_bad_alpha_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "sun", "--alpha", "x", "--p", "7"])
        assert exc.value.code == 2

    def test_out_file(self, tmp_path):
        out = tmp_path / "report.json"
        assert cli.main(["verify", "liu", "--p", "5", "--r", "1", "--format", "json", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["verdict"] == "pass"


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

    def test_bad_strength_is_suite_config_error(self, capsys):
        assert cli.main(["suite", "--p-max", "7", "--max-strength", "1"]) == 2
        assert capsys.readouterr().err == "error: max_strength must be 2 or 3, got 1\n"

    def test_defaults_come_from_suite_config(self, monkeypatch, capsys):
        args = cli.build_parser().parse_args(["suite"])
        assert SuiteConfig(**{f.name: getattr(args, f.name) for f in fields(SuiteConfig)}) == SuiteConfig()
        seen = []
        monkeypatch.setattr(cli, "run_suite", lambda cfg, progress: seen.append(cfg))
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
        assert cli.main(["scan", "--d", "2", "--n-max", "3", "--format", "json"]) == 0
        [cell] = json.loads(capsys.readouterr().out)
        assert cell["numerator"] == "1" + "0" * 4999 + "7"
        assert cli.main(["scan", "--d", "2", "--n-max", "3"]) == 0
        assert capsys.readouterr().out.split()[2] == "1" + "0" * 4999 + "7"

    def test_json_format(self, capsys):
        assert cli.main(["scan", "--d", "2", "--n-max", "5", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data[0] == {"d": 2, "n": 3, "numerator": "5", "denominator": "1", "is_integer": True}

    def test_usage_error(self, capsys):
        assert cli.main(["scan", "--d", "1", "--n-max", "5"]) == 2


class TestPrimesCommand:
    def test_progression(self, capsys):
        assert cli.main(["primes", "--residue", "-1", "--modulus", "4", "--limit", "20"]) == 0
        assert capsys.readouterr().out.strip() == "3 7 11 19"

    def test_positive_class(self, capsys):
        assert cli.main(["primes", "--residue", "1", "--modulus", "4", "--limit", "20"]) == 0
        assert capsys.readouterr().out.strip() == "5 13 17"
