"""Conjecture integrality scan: values, admissibility, checkpoints."""

import os
import re
import tempfile
import zlib
from fractions import Fraction
from functools import lru_cache
from math import prod
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import supercongruences.scan as scan_mod
from supercongruences.errors import HypothesisViolated
from supercongruences.exact import rational_text
from supercongruences.hypergeom import step_ratios
from supercongruences.scan import (
    ConjectureCell,
    admissible_n,
    conjecture_value,
    load_cells,
    scan_conjecture,
)
from supercongruences.verifiers import combined_series

F = Fraction


def crc_line(body):
    """``body`` with its CRC-32 appended, as a state file line."""
    return f"{body} {zlib.crc32(body.encode()):08x}\n"


def state_line(d, n, acc=None, t=None):
    """The checkpoint of the cell (d, n), built here rather than by the
    library: acc is the cell's value times n^2, and t the product of the
    step numerators P(k), k < n - 1."""
    if acc is None:
        acc = (conjecture_value(d, n) * n * n).numerator
    if t is None:
        t = prod(step_ratios(combined_series(d, n - 1))[0])
    return crc_line(f"{d} {n} {acc:x} {t:x}")


def flip_hex_digit(line, index):
    """line with the hex digit at index changed, same length."""
    digit = line[index]
    return line[:index] + ("1" if digit == "0" else "0") + line[index + 1 :]


class TestConjectureValue:
    def test_d2_n3(self):
        # 2!^2 * 2^4 / 9 * (1 - 1/4 - 3/64) = 64/9 * 45/64 = 5, by hand
        assert conjecture_value(2, 3) == 5

    def test_d3_n5_is_integer(self):
        value = conjecture_value(3, 5)
        assert value.denominator == 1

    def test_guards(self):
        with pytest.raises(HypothesisViolated):
            conjecture_value(4, 3)  # n = d-1
        with pytest.raises(HypothesisViolated):
            conjecture_value(3, 6)  # n not -1 mod d
        with pytest.raises(HypothesisViolated):
            conjecture_value(1, 2)


class TestAdmissibility:
    def test_examples(self):
        assert admissible_n(2, 11) == [3, 5, 7, 9, 11]
        assert admissible_n(3, 8) == [5, 8]
        assert admissible_n(5, 4) == []

    def test_filter_matches_hypotheses(self):
        for d in (2, 3, 4, 7):
            for n in admissible_n(d, 40):
                assert n % d == d - 1 and n > d - 1

    def test_range_matches_filter_over_every_n(self):
        # oracle: the filter over every n that the arithmetic range replaced
        for d in range(1, 10):
            for n_max in range(-2, 201):
                assert admissible_n(d, n_max) == [n for n in range(d, n_max + 1) if n % d == d - 1]


class TestScan:
    def test_stateless_scan(self):
        cells = scan_conjecture(2, 11)
        assert [c.n for c in cells] == [3, 5, 7, 9, 11]
        assert all(c.is_integer for c in cells)
        assert cells[0].value == 5

    def test_empty_scan(self):
        assert scan_conjecture(5, 4) == []

    def test_state_round_trip(self, tmp_path):
        # the checkpoint is the sweep state at the last cell, and a resume
        # from it continues the cold sweep
        state = tmp_path / "cells.txt"
        cells = scan_conjecture(3, 20, state)
        assert state.read_text(encoding="ascii") == state_line(3, 20)
        n, acc, t = load_cells(state)[3]
        assert n == 20 and F(acc, n * n) == cells[-1].value == conjecture_value(3, 20)
        assert scan_conjecture(3, 32, state) == [c for c in scan_conjecture(3, 32) if c.n > 20]
        assert state.read_text(encoding="ascii") == state_line(3, 32)

    def test_resume_skips_persisted_cells(self, tmp_path, monkeypatch):
        state = tmp_path / "cells.txt"
        scan_conjecture(2, 11, state)
        streams = []
        real = scan_mod.step_ratios

        def recording(spec, order=1, start=0):
            streams.append((spec.n, start))
            return real(spec, order, start)

        monkeypatch.setattr(scan_mod, "step_ratios", recording)
        assert scan_conjecture(2, 11, state) == []
        assert streams == []  # nothing past the checkpoint: no sweep
        assert [c.n for c in scan_conjecture(2, 15, state)] == [13, 15]
        assert streams == [(14, 10)]  # the steps 10 <= k < 14 alone

    def test_sweep_matches_oracle_d5_to_600(self):
        cells = scan_conjecture(5, 600)
        assert [c.n for c in cells] == admissible_n(5, 600)
        assert all(c.value == conjecture_value(5, c.n) and c.is_integer for c in cells)

    def test_non_integral_cell_is_loud_but_not_fatal(self, tmp_path, monkeypatch):
        # make the sweep yield a fake non-integral cell at n = 5: the scan
        # returns it flagged and keeps going, and the checkpoint stays at the
        # cell before it, so the next scan that reaches it reports it again
        real = scan_mod._sweep

        def faked(d, n, acc, t, n_max):
            for m, acc, t in real(d, n, acc, t, n_max):
                yield m, 7 if m == 5 else acc, t

        monkeypatch.setattr(scan_mod, "_sweep", faked)
        state = tmp_path / "cells.txt"
        cells = scan_conjecture(2, 9, state)
        assert [c.n for c in cells] == [3, 5, 7, 9]
        assert not cells[1].is_integer and cells[1].value == F(7, 25)
        assert all(c.is_integer for c in cells if c.n != 5)
        assert load_cells(state)[2][0] == 3
        # a resumed sweep recomputes its finding; one that agrees is reported
        real_value = scan_mod.conjecture_value
        monkeypatch.setattr(scan_mod, "conjecture_value", lambda d, n: F(7, 25) if n == 5 else real_value(d, n))
        assert scan_conjecture(2, 9, state) == cells[1:]
        assert load_cells(state)[2][0] == 3

    def test_line_format(self):
        assert ConjectureCell(2, 3, F(5), True).line() == "2 3 5 1 1"
        assert ConjectureCell(2, 5, F(7, 25), False).line() == "2 5 7 25 0"


@lru_cache(maxsize=None)
def oracle(d, n):
    return conjecture_value(d, n)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 6), st.lists(st.integers(-3, 300), max_size=6), st.booleans())
def test_scan_matches_oracle_from_any_persisted_subset(d, stops, other):
    # resumed scans to each stop in turn, whatever the order (a stop at or
    # below the checkpoint returns nothing), give the cells of one cold
    # scan, each once; another d's checkpoint in the file stays as it was
    n_max = max(stops, default=0)
    with tempfile.TemporaryDirectory() as tmp:
        state = Path(tmp) / "cells.txt"
        kept = state_line(d + 1, 2 * d + 1) if other else ""
        state.write_text(kept, encoding="ascii")
        cells = []
        for stop in stops:
            cells += scan_conjecture(d, stop, state)
        text = state.read_text(encoding="ascii")
    ns = admissible_n(d, n_max)
    assert [c.n for c in cells] == ns
    assert all(c.value == oracle(d, c.n) and c.is_integer for c in cells)
    assert text == kept + (state_line(d, ns[-1]) if ns else "")


class TestStateValidation:
    def test_torn_last_line_dropped_and_cut(self, tmp_path, caplog):
        state = tmp_path / "cells.txt"
        whole = state_line(3, 8)
        state.write_text(whole + "2 5 12", encoding="ascii")
        with caplog.at_level("WARNING"):
            assert list(load_cells(state)) == [3]
        assert any("torn" in rec.message for rec in caplog.records)
        assert state.read_text(encoding="ascii") == whole + "2 5 12"  # a load changes nothing
        # d = 2 restarts cold, and the rewrite leaves the torn line out
        assert scan_conjecture(2, 7, state) == scan_conjecture(2, 7)
        assert state.read_text(encoding="ascii") == whole + state_line(2, 7)

    def test_line_without_newline_is_not_committed(self, tmp_path, caplog):
        # a complete checkpoint whose newline never landed is dropped too
        state = tmp_path / "cells.txt"
        state.write_text(state_line(2, 5)[:-1], encoding="ascii")
        with caplog.at_level("WARNING"):
            cells = scan_conjecture(2, 7, state)
        assert any("torn" in rec.message for rec in caplog.records)
        assert [c.n for c in cells] == [3, 5, 7]
        assert state.read_text(encoding="ascii") == state_line(2, 7)

    def test_bad_line_mid_file_names_file_and_line(self, tmp_path):
        state = tmp_path / "cells.txt"
        data = (state_line(2, 5) + "2 5 12\n" + state_line(3, 8)).encode()
        state.write_bytes(data)
        with pytest.raises(ValueError, match=re.escape(f"{state}:2: ") + ".*expected 'd n acc t crc'"):
            load_cells(state)
        assert state.read_bytes() == data

    def test_bad_newline_terminated_last_line_is_an_error(self, tmp_path):
        state = tmp_path / "cells.txt"
        data = (state_line(2, 5) + "2 5 12\n").encode()
        state.write_bytes(data)
        with pytest.raises(ValueError, match=re.escape(f"{state}:2:")):
            scan_conjecture(2, 7, state)
        assert state.read_bytes() == data

    @pytest.mark.parametrize(
        "line, reason",
        [
            # lines of the value store that the checkpoints replaced, each
            # inconsistent there for ``reason``: no checkpoints either
            ("2 3 5 1 0", "flag"),  # the integer 5 flagged non-integral
            ("2 3 7 2 1", "flag"),
            ("2 3 10 2 0", "lowest terms"),
            ("2 3 5 0 0", "positive"),
            ("2 3 -5 -1 1", "positive"),
            ("2 3 5 1 x", "invalid literal"),
            ("2 3 +5 1 1", "invalid literal"),
            ("2 3 0_5 1 1", "invalid literal"),
            ("2 3 5 1 1 1", "expected 5"),
        ],
    )
    def test_inconsistent_line_rejected(self, tmp_path, line, reason):
        state = tmp_path / "cells.txt"
        state.write_text(line + "\n", encoding="ascii")
        with pytest.raises(ValueError, match=re.escape(f"{state}:1: bad state line") + ".*expected 'd n acc t crc'"):
            scan_conjecture(2, 3, state)
        assert state.read_text(encoding="ascii") == line + "\n"

    @pytest.mark.parametrize(
        "line, problem",
        [
            (flip_hex_digit(state_line(2, 5), 5), "CRC-32 does not match"),
            (state_line(2, 5).replace(" ", "  ", 1), "expected"),
            (crc_line("2 5 1 -1").replace("\n", "\r\n"), "expected"),
            (crc_line("2 5 1 -1").upper(), "expected"),
            (crc_line("2 5 1A -1"), "expected"),
            (crc_line("2 5 +1a -1"), "expected"),
            (crc_line("2 5 0x1a -1"), "expected"),
            (crc_line("2 5 1 -1 0"), "expected"),
            (crc_line("2 5 1"), "expected"),
            ("\n", "expected"),
            (crc_line("1 1 1 -1"), "n = 1 is not admissible for d = 1"),
            (crc_line("0 1 1 -1"), "n = 1 is not admissible for d = 0"),
            (crc_line("2 4 1 -1"), "n = 4 is not admissible for d = 2"),
            (crc_line("3 2 1 -1"), "n = 2 is not admissible for d = 3"),
            (state_line(3, 5), "a second checkpoint for d = 3"),
        ],
    )
    def test_load_rules(self, tmp_path, line, problem):
        # each rule names the file and line, and leaves the file as it is
        state = tmp_path / "cells.txt"
        data = (state_line(3, 8) + line + state_line(2, 5)).encode()
        state.write_bytes(data)
        with pytest.raises(ValueError, match=re.escape(f"{state}:2: bad state line") + ".*" + re.escape(problem)):
            scan_conjecture(2, 9, state)
        assert state.read_bytes() == data

    @pytest.mark.parametrize(
        "data",
        [
            b"2 3 5 1 1\n2 5 12 1 1\n",  # a value-store file the checkpoints replaced
            b"#!/bin/sh\necho 1\n",
            b"\x89PNG\r\n\x1a\n\x00\x00",
            b"\n",
        ],
        ids=["value-store", "script", "binary", "blank"],
    )
    def test_not_a_state_file_left_as_is(self, tmp_path, data):
        state = tmp_path / "cells.txt"
        state.write_bytes(data)
        with pytest.raises(ValueError, match=re.escape(f"{state}:1: bad state line")):
            scan_conjecture(2, 7, state)
        assert state.read_bytes() == data

    def test_wrong_checkpoint_is_an_error_never_a_finding(self, tmp_path):
        # acc off by one under a valid CRC: the cell at n = 5 comes out
        # non-integral, its recomputation disagrees, and nothing is written
        state = tmp_path / "cells.txt"
        acc = (conjecture_value(2, 3) * 9).numerator
        data = (state_line(3, 8) + state_line(2, 3, acc + 1)).encode()
        state.write_bytes(data)
        with pytest.raises(ValueError, match=re.escape(f"{state}: the checkpoint for d = 2 at n = 3")):
            scan_conjecture(2, 9, state)
        assert state.read_bytes() == data

    def test_n_max_at_or_below_the_checkpoint(self, tmp_path):
        state = tmp_path / "cells.txt"
        scan_conjecture(3, 20, state)
        os.utime(state, ns=(10**9, 10**9))
        data = state.read_bytes()
        for n_max in (20, 19, 5, 0, -3):
            assert scan_conjecture(3, n_max, state) == []
        assert state.read_bytes() == data and state.stat().st_mtime_ns == 10**9

    def test_values_past_int_str_limit_round_trip(self, tmp_path):
        # str(int) and int(str) refuse more than 4300 digits by default; hex does not
        acc, t = 7**6000 + 2, -(3**9000)
        state = tmp_path / "cells.txt"
        state.write_text(state_line(4, 391, acc, t), encoding="ascii")
        assert load_cells(state) == {4: (391, acc, t)}
        cell = ConjectureCell(4, 391, F(acc, 3**9000), False)
        assert rational_text(cell.value).startswith(cell.line().split()[2] + "/")

    def test_line_not_utf8_names_file_and_line(self, tmp_path):
        state = tmp_path / "cells.txt"
        data = state_line(2, 5).encode() + b"\xff\xfe 5\n"
        state.write_bytes(data)
        with pytest.raises(ValueError, match=re.escape(f"{state}:2: bad state line")):
            load_cells(state)
        assert state.read_bytes() == data

    def test_torn_last_line_not_utf8_is_dropped(self, tmp_path, caplog):
        state = tmp_path / "cells.txt"
        data = state_line(2, 5).encode() + b"2 5 \xff\xfe"
        state.write_bytes(data)
        with caplog.at_level("WARNING"):
            assert list(load_cells(state)) == [2]
        assert any(f"{state}:2: dropping torn" in rec.getMessage() for rec in caplog.records)
        assert state.read_bytes() == data


class TestIncrementalLoad:
    """A file that changed between scans is read afresh: no load keeps
    anything for the next."""

    def test_same_size_edit_of_line_one_is_caught(self, tmp_path):
        # the bytes, not the size or mtime, decide what is valid
        state = tmp_path / "cells.txt"
        scan_conjecture(2, 11, state)
        before = state.stat()
        text = state.read_text(encoding="ascii")
        state.write_text(flip_hex_digit(text, text.index(" ", 5) - 1), encoding="ascii")
        os.utime(state, ns=(before.st_atime_ns, before.st_mtime_ns))
        assert state.stat().st_size == before.st_size
        with pytest.raises(ValueError, match=re.escape(f"{state}:1: ") + ".*CRC"):
            load_cells(state)

    def test_callers_get_fresh_dicts(self, tmp_path):
        state = tmp_path / "cells.txt"
        scan_conjecture(2, 7, state)
        scan_conjecture(3, 8, state)
        first = load_cells(state)
        first.clear()
        assert sorted(load_cells(state)) == [2, 3]

    def test_appended_lines_numbered_after_the_prefix(self, tmp_path):
        state = tmp_path / "cells.txt"
        scan_conjecture(2, 7, state)
        scan_conjecture(3, 8, state)
        with open(state, "a", encoding="ascii") as fh:
            fh.write(state_line(4, 7) + state_line(2, 3))
        with pytest.raises(ValueError, match=re.escape(f"{state}:4: ") + ".*second checkpoint for d = 2"):
            load_cells(state)
