"""Conjecture integrality scan: values, admissibility, persistence."""

import logging
import os
import re
import tempfile
from contextlib import contextmanager
from fractions import Fraction
from functools import lru_cache
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import supercongruences.scan as scan_mod
from supercongruences.errors import HypothesisViolated
from supercongruences.scan import (
    ConjectureCell,
    admissible_n,
    conjecture_value,
    load_cells,
    scan_conjecture,
)

F = Fraction


def whole_file_load_cells(state_path):
    """Test oracle: the whole-file reader the incremental load_cells
    replaced. It parses and validates every line on every call."""
    path = Path(state_path)
    if not path.exists():
        return {}
    with open(path, encoding="utf-8", newline="") as fh:
        lines = fh.read().split("\n")
    tail = lines.pop()  # "" unless the last write was cut short
    cells = {}
    for lineno, line in enumerate(lines, start=1):
        if line.strip():
            try:
                cell = ConjectureCell.from_line(line)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: bad state line {line[:60]!r}: {exc}") from None
            cells[(cell.d, cell.n)] = cell
    if tail:
        scan_mod.log.warning("%s:%d: dropping torn last line %r", path, len(lines) + 1, tail[:60])
        os.truncate(path, path.stat().st_size - len(tail.encode("utf-8")))
    return cells


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


class TestScan:
    def test_stateless_scan(self):
        cells = scan_conjecture(2, 11)
        assert [c.n for c in cells] == [3, 5, 7, 9, 11]
        assert all(c.is_integer for c in cells)
        assert cells[0].value == 5

    def test_empty_scan(self):
        assert scan_conjecture(5, 4) == []

    def test_state_round_trip(self, tmp_path):
        state = tmp_path / "cells.txt"
        cells = scan_conjecture(3, 20, state)
        persisted = load_cells(state)
        assert [persisted[(c.d, c.n)] for c in cells] == cells
        # recomputed values agree bit-for-bit with what was stored
        for cell in cells:
            assert conjecture_value(cell.d, cell.n) == cell.value

    def test_resume_skips_persisted_cells(self, tmp_path, monkeypatch):
        state = tmp_path / "cells.txt"
        scan_conjecture(2, 11, state)
        asked = []
        real = scan_mod._sweep

        def counting(d, ns):
            ns = list(ns)
            asked.extend((d, n) for n in ns)
            return real(d, ns)

        monkeypatch.setattr(scan_mod, "_sweep", counting)
        scan_conjecture(2, 11, state)
        assert asked == []  # everything came from the state file
        scan_conjecture(2, 15, state)
        assert asked == [(2, 13), (2, 15)]  # only the new cells

    def test_sweep_matches_oracle_d5_to_600(self):
        cells = scan_conjecture(5, 600)
        assert [c.n for c in cells] == admissible_n(5, 600)
        assert all(c.value == conjecture_value(5, c.n) and c.is_integer for c in cells)

    def test_non_integral_cell_is_loud_but_not_fatal(self, tmp_path, monkeypatch, caplog):
        # make the sweep yield a fake half-integral first cell; the scan
        # must surface it and keep going
        real = scan_mod._sweep
        monkeypatch.setattr(
            scan_mod, "_sweep", lambda d, ns: ((n, F(7, 2) if n == 3 else v) for n, v in real(d, ns))
        )
        state = tmp_path / "cells.txt"
        with caplog.at_level("WARNING"):
            cells = scan_conjecture(2, 7, state)
        assert [c.n for c in cells] == [3, 5, 7]
        assert not cells[0].is_integer and cells[0].value == F(7, 2)
        assert any("non-integral" in rec.message for rec in caplog.records)

    def test_line_format(self):
        cell = ConjectureCell(2, 3, F(5), True)
        assert cell.line() == "2 3 5 1 1"
        assert ConjectureCell.from_line("2 3 5 1 1") == cell


@lru_cache(maxsize=None)
def oracle(d, n):
    return conjecture_value(d, n)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 7), st.integers(0, 200), st.data())
def test_scan_matches_oracle_from_any_persisted_subset(d, n_max, data):
    # the persisted cells are a random subset, so the missing n the sweep
    # must yield are scattered and need not start at the first admissible n
    ns = admissible_n(d, n_max)
    kept = data.draw(st.lists(st.booleans(), min_size=len(ns), max_size=len(ns)))
    present = [n for n, keep in zip(ns, kept) if keep]
    missing = [n for n, keep in zip(ns, kept) if not keep]
    with tempfile.TemporaryDirectory() as tmp:
        state = Path(tmp) / "cells.txt"
        state.touch()
        for n in data.draw(st.permutations(present)):
            value = oracle(d, n)
            scan_mod._append(state, ConjectureCell(d, n, value, value.denominator == 1))
        before = state.read_text(encoding="utf-8")
        cells = scan_conjecture(d, n_max, state)
        after = state.read_text(encoding="utf-8")
    assert [c.n for c in cells] == ns
    assert all(c.value == oracle(d, c.n) for c in cells)
    assert after.startswith(before)
    gained = [ConjectureCell.from_line(line) for line in after[len(before) :].splitlines()]
    assert [(c.d, c.n) for c in gained] == [(d, n) for n in missing]
    assert gained == [c for c in cells if c.n in missing]


class TestStateValidation:
    def test_torn_last_line_dropped_and_cut(self, tmp_path, caplog):
        state = tmp_path / "cells.txt"
        state.write_text("2 3 5 1 1\n2 5 12", encoding="utf-8")
        with caplog.at_level("WARNING"):
            assert list(load_cells(state)) == [(2, 3)]
        assert any("torn" in rec.message for rec in caplog.records)
        assert state.read_text(encoding="utf-8") == "2 3 5 1 1\n"
        # the next cell lands on a line of its own
        cells = scan_conjecture(2, 7, state)
        assert load_cells(state) == {(c.d, c.n): c for c in cells}

    def test_line_without_newline_is_not_committed(self, tmp_path, caplog):
        # a complete-looking cell whose newline never landed is dropped too,
        # then recomputed and written whole
        state = tmp_path / "cells.txt"
        state.write_text("2 3 5 1 1", encoding="utf-8")
        with caplog.at_level("WARNING"):
            cells = scan_conjecture(2, 5, state)
        assert any("torn" in rec.message for rec in caplog.records)
        assert state.read_text(encoding="utf-8") == "".join(c.line() + "\n" for c in cells)

    def test_bad_line_mid_file_names_file_and_line(self, tmp_path):
        state = tmp_path / "cells.txt"
        state.write_text("2 3 5 1 1\n2 5 12\n2 7 33 1 1\n", encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(f"{state}:2: ") + ".*expected 5"):
            load_cells(state)

    def test_bad_newline_terminated_last_line_is_an_error(self, tmp_path):
        state = tmp_path / "cells.txt"
        state.write_text("2 3 5 1 1\n2 5 12\n", encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(f"{state}:2:")):
            scan_conjecture(2, 7, state)

    @pytest.mark.parametrize(
        "line, reason",
        [
            ("2 3 5 1 0", "flag"),  # the integer 5 flagged non-integral
            ("2 3 7 2 1", "flag"),
            ("2 3 10 2 0", "lowest terms"),
            ("2 3 5 0 0", "positive"),
            ("2 3 -5 -1 1", "positive"),
            ("2 3 5 1 x", "invalid literal"),
            ("2 3 5 1 1 1", "expected 5"),
        ],
    )
    def test_inconsistent_line_rejected(self, tmp_path, line, reason):
        with pytest.raises(ValueError, match=reason):
            ConjectureCell.from_line(line)
        state = tmp_path / "cells.txt"
        state.write_text(line + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(f"{state}:1:")):
            scan_conjecture(2, 3, state)

    def test_values_past_int_str_limit_round_trip(self, tmp_path):
        # str(int) and int(str) refuse more than 4300 digits by default
        num, den = 7**6000 + 2, 3**9000
        cell = ConjectureCell(4, 391, F(num, den), False)
        assert ConjectureCell.from_line(cell.line()) == cell
        assert cell.value_text().startswith(cell.line().split()[2] + "/")
        state = tmp_path / "cells.txt"
        scan_mod._append(state, cell)
        assert load_cells(state) == {(4, 391): cell}

    def test_line_not_utf8_names_file_and_line(self, tmp_path):
        state = tmp_path / "cells.txt"
        state.write_bytes(b"2 3 5 1 1\n\xff\xfe 5\n")
        with pytest.raises(ValueError, match=re.escape(f"{state}:2: bad state line") + ".*utf-8"):
            load_cells(state)

    def test_torn_last_line_not_utf8_is_dropped(self, tmp_path, caplog):
        state = tmp_path / "cells.txt"
        state.write_bytes(b"2 3 5 1 1\n2 5 \xff\xfe")
        with caplog.at_level("WARNING"):
            assert list(load_cells(state)) == [(2, 3)]
        assert any(f"{state}:2: dropping torn" in rec.getMessage() for rec in caplog.records)
        assert state.read_bytes() == b"2 3 5 1 1\n"


class TestIncrementalLoad:
    def test_same_size_edit_of_line_one_is_caught(self, tmp_path):
        # the bytes, not the size or mtime, decide what was validated before
        state = tmp_path / "cells.txt"
        scan_conjecture(2, 11, state)
        assert len(load_cells(state)) == 5
        before = state.stat()
        data = state.read_bytes()
        first = data.index(b"\n")
        assert data[first - 1 : first] == b"1"
        state.write_bytes(data[: first - 1] + b"0" + data[first:])
        os.utime(state, ns=(before.st_atime_ns, before.st_mtime_ns))
        assert state.stat().st_size == before.st_size
        with pytest.raises(ValueError, match=re.escape(f"{state}:1: ") + ".*flag"):
            load_cells(state)

    @pytest.mark.parametrize("piece", [10, scan_mod._PIECE])
    def test_reload_parses_only_appended_lines(self, tmp_path, monkeypatch, piece):
        monkeypatch.setattr(scan_mod, "_PIECE", piece)
        state = tmp_path / "cells.txt"
        scan_conjecture(2, 11, state)
        load_cells(state)
        parsed = []
        real = ConjectureCell.from_line
        monkeypatch.setattr(ConjectureCell, "from_line", lambda line: parsed.append(line) or real(line))
        for n_max in (13, 15, 17):
            scan_conjecture(2, n_max, state)  # loads, then appends one cell
        assert len(load_cells(state)) == 8
        assert parsed == state.read_text(encoding="utf-8").splitlines()[5:]

    def test_callers_get_fresh_dicts(self, tmp_path):
        state = tmp_path / "cells.txt"
        scan_conjecture(2, 7, state)
        first = load_cells(state)
        first.clear()
        assert len(load_cells(state)) == 3

    def test_appended_lines_numbered_after_the_prefix(self, tmp_path):
        state = tmp_path / "cells.txt"
        scan_conjecture(2, 7, state)
        load_cells(state)
        with open(state, "a", encoding="utf-8") as fh:
            fh.write("2 9 1 1 1\n2 11 3 2 1\n")
        with pytest.raises(ValueError, match=re.escape(f"{state}:5: ") + ".*flag"):
            load_cells(state)


@contextmanager
def scan_warnings():
    """Collect the messages scan logs at WARNING and above."""
    messages = []
    handler = logging.Handler(logging.WARNING)
    handler.emit = lambda record: messages.append(record.getMessage())
    logger = logging.getLogger(scan_mod.__name__)
    logger.addHandler(handler)
    try:
        yield messages
    finally:
        logger.removeHandler(handler)


def load_outcome(load, path):
    """What a reader shows for path: its cells or its error text, the
    warnings it logged and the file bytes it left behind."""
    with scan_warnings() as messages:
        try:
            result = load(path)
        except ValueError as exc:
            result = f"ValueError: {exc}"
    return result, messages, path.read_bytes() if path.exists() else None


cell_lines = st.builds(
    lambda d, n, num, den: ConjectureCell(d, n, F(num, den), F(num, den).denominator == 1).line(),
    st.integers(2, 4),
    st.integers(1, 40),
    st.integers(-10**6, 10**6),
    st.integers(1, 12),
)
BAD_LINES = ["2 5 12", "2 3 5 1 0", "2 3 10 2 0", "2 3 5 0 0", "x", "2 3 5 1 1 é", "   "]
appends = st.tuples(st.just("append"), cell_lines)
operations = st.one_of(
    appends,  # listed four times: a scan mostly appends
    appends,
    appends,
    appends,
    st.tuples(st.just("torn"), cell_lines, st.integers(1, 30)),
    st.tuples(st.just("flip"), st.integers(0, 50)),
    st.tuples(st.just("redigit"), st.integers(0, 50)),
    st.tuples(st.just("replace"), st.integers(0, 50), cell_lines),
    st.tuples(st.just("extend"), st.integers(0, 50), st.sampled_from(["0", "1", " 1"])),
    st.tuples(st.just("truncate"), st.integers(0, 50)),
    st.tuples(st.just("bad"), st.integers(0, 50), st.sampled_from(BAD_LINES)),
    st.tuples(st.just("fork"), st.integers(0, 50)),
    st.tuples(st.just("switch")),
)


def apply(op, data):
    """The file bytes after one operation on a state file holding data
    ("fork" and "switch" act on which file is current, not on data)."""
    lines = data.split(b"\n")
    tail = lines.pop()
    kind = op[0]
    if kind == "append":
        return data + op[1].encode() + b"\n"
    if kind == "torn":
        return data + op[1].encode()[: op[2]]
    if kind == "truncate":
        return b"".join(line + b"\n" for line in lines[: op[1] % (len(lines) + 1)])
    if kind == "bad":
        lines.insert(op[1] % (len(lines) + 1), op[2].encode())
    elif lines and kind == "flip":  # same length: toggle a final 0/1 flag
        i = op[1] % len(lines)
        flag = lines[i][-1:]
        if flag in (b"0", b"1"):
            lines[i] = lines[i][:-1] + (b"1" if flag == b"0" else b"0")
    elif lines and kind == "redigit":  # same length: change a line's first digit (its d)
        i = op[1] % len(lines)
        if lines[i][:1].isdigit():
            lines[i] = b"%d" % ((int(lines[i][:1]) + 1) % 10) + lines[i][1:]
    elif lines and kind == "replace":  # usually a different length
        lines[op[1] % len(lines)] = op[2].encode()
    elif lines and kind == "extend":  # longer, keeping the line's bytes as a prefix
        lines[op[1] % len(lines)] += op[2].encode()
    return b"".join(line + b"\n" for line in lines) + tail


@settings(max_examples=200, deadline=None)
@given(st.lists(operations, min_size=4, max_size=20), st.sampled_from([1, 5, 64, scan_mod._PIECE]))
def test_incremental_load_matches_whole_file_oracle(ops, piece):
    # small piece sizes split the snapshot of these small files many ways
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(scan_mod, "_PIECE", piece):
        paths = [Path(tmp) / "a.txt", Path(tmp) / "b.txt"]
        current = 0
        for op in ops:
            path = paths[current]
            data = path.read_bytes() if path.exists() else b""
            if op[0] == "switch":
                current = 1 - current
            elif op[0] == "fork":  # the other file gets a line prefix of this one
                current = 1 - current
                paths[current].write_bytes(apply(("truncate", op[1]), data))
            else:
                path.write_bytes(apply(op, data))
            path = paths[current]
            before = path.read_bytes() if path.exists() else None
            expected = load_outcome(whole_file_load_cells, path)
            if before is not None:
                path.write_bytes(before)
            assert load_outcome(load_cells, path) == expected
