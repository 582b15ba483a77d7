"""Conjecture integrality scan: values, admissibility, persistence."""

import re
from fractions import Fraction

import pytest

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
        calls = []
        real = scan_mod.conjecture_value

        def counting(d, n):
            calls.append((d, n))
            return real(d, n)

        monkeypatch.setattr(scan_mod, "conjecture_value", counting)
        scan_conjecture(2, 11, state)
        assert calls == []  # everything came from the state file
        scan_conjecture(2, 15, state)
        assert calls == [(2, 13), (2, 15)]  # only the new cells

    def test_non_integral_cell_is_loud_but_not_fatal(self, tmp_path, caplog):
        # plant a fake half-integral cell in the state; the scan must
        # surface it and keep going
        state = tmp_path / "cells.txt"
        state.write_text("2 3 7 2 0\n", encoding="utf-8")
        with caplog.at_level("WARNING"):
            cells = scan_conjecture(2, 7, state)
        assert [c.n for c in cells] == [3, 5, 7]
        assert not cells[0].is_integer and cells[0].value == F(7, 2)
        assert any("non-integral" in rec.message for rec in caplog.records)

    def test_line_format(self):
        cell = ConjectureCell(2, 3, F(5), True)
        assert cell.line() == "2 3 5 1 1"
        assert ConjectureCell.from_line("2 3 5 1 1") == cell


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
