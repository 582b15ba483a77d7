"""Integrality scan for the combined-series prefactor conjecture.

For d >= 2 and n ≡ -1 (mod d) with n > d-1, the quantity

    (n-1)!^d * d^(dn-d) / n^2 * dF_{d-1}(1/d-1, 1/d, (1+1/d)^{d-2}; 1^{d-1} | 1)_{n-1}

is conjectured to be an integer. The scan evaluates every admissible cell
exactly and records it; a non-integral cell would be a counterexample and
is reported loudly, never swallowed.

State persists as append-only UTF-8 lines, one cell per line:
``d n numerator denominator is_integer`` (five decimal integers,
is_integer as 0/1), so exactness survives serialization and re-scans
resume instead of recomputing.
"""

from __future__ import annotations

import logging
import os
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

from .errors import HypothesisViolated
from .exact import factorial
from .hypergeom import evaluate_exact
from .verifiers import combined_series

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class ConjectureCell:
    d: int
    n: int
    value: Fraction
    is_integer: bool

    def line(self) -> str:
        return (
            f"{self.d} {self.n} {_int_text(self.value.numerator)} "
            f"{_int_text(self.value.denominator)} {1 if self.is_integer else 0}"
        )

    def to_dict(self) -> dict:
        return {
            "d": self.d,
            "n": self.n,
            "numerator": _int_text(self.value.numerator),
            "denominator": _int_text(self.value.denominator),
            "is_integer": self.is_integer,
        }

    def value_text(self) -> str:
        num, den = self.value.numerator, self.value.denominator
        return _int_text(num) if den == 1 else f"{_int_text(num)}/{_int_text(den)}"

    @classmethod
    def from_line(cls, line: str) -> ConjectureCell:
        """Parse one state line; ValueError unless it is a consistent cell."""
        d, n, num, den, flag = map(_parse_int, line.split())  # ValueError unless 5 fields
        if den <= 0:
            raise ValueError(f"denominator must be positive, got {den}")
        value = Fraction(num, den)
        if value.denominator != den:
            raise ValueError("value is not in lowest terms")
        if flag != (den == 1):
            raise ValueError(f"is_integer flag {flag} disagrees with denominator")
        return cls(d, n, value, den == 1)


def _int_text(value: int) -> str:
    """str(), exact past the int/str digit limit (4300 by default) via Decimal."""
    try:
        return str(value)
    except ValueError:
        return str(Decimal(value))


def _parse_int(text: str) -> int:
    """Inverse of _int_text: only fields int() refuses take the slower Decimal."""
    try:
        return int(text)
    except ValueError:
        if not text.removeprefix("-").isdecimal():
            raise
        return int(Decimal(text))


def admissible_n(d: int, n_max: int) -> list[int]:
    """All n <= n_max with n ≡ -1 (mod d) and n > d-1, ascending."""
    return [n for n in range(d, n_max + 1) if n % d == d - 1]


def conjecture_value(d: int, n: int) -> Fraction:
    """Exact value of the prefactored truncated sum at an admissible (d, n)."""
    if d < 2:
        raise HypothesisViolated(f"need d >= 2, got {d}")
    if n % d != d - 1:
        raise HypothesisViolated(f"need n ≡ -1 (mod {d}), got n = {n}")
    if n <= d - 1:
        raise HypothesisViolated(f"need n > d-1 = {d - 1}, got n = {n}")
    prefactor = Fraction(factorial(n - 1) ** d * d ** (d * n - d), n * n)
    return prefactor * evaluate_exact(combined_series(d, n - 1))


def load_cells(state_path: str | Path) -> dict[tuple[int, int], ConjectureCell]:
    """Read persisted cells keyed by (d, n); a missing file is empty state.

    A cell is committed by its newline. A last line without one is what an
    interrupted write leaves: it is dropped with a warning and cut from the
    file, so the next cell starts a line of its own. Any other bad line is
    a ValueError naming the file and line."""
    path = Path(state_path)
    if not path.exists():
        return {}
    with open(path, encoding="utf-8", newline="") as fh:
        lines = fh.read().split("\n")
    tail = lines.pop()  # "" unless the last write was cut short
    cells: dict[tuple[int, int], ConjectureCell] = {}
    for lineno, line in enumerate(lines, start=1):
        if line.strip():
            try:
                cell = ConjectureCell.from_line(line)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: bad state line {line[:60]!r}: {exc}") from None
            cells[(cell.d, cell.n)] = cell
    if tail:
        log.warning("%s:%d: dropping torn last line %r", path, len(lines) + 1, tail[:60])
        os.truncate(path, path.stat().st_size - len(tail.encode("utf-8")))
    return cells


def scan_conjecture(
    d: int, n_max: int, state_path: str | Path | None = None
) -> list[ConjectureCell]:
    """Evaluate every admissible n <= n_max, reusing persisted cells.

    Returns all cells for this d in ascending n order. New cells are
    appended to the state file as they are produced, so an interrupted
    scan resumes where it stopped.
    """
    if d < 2:
        raise HypothesisViolated(f"need d >= 2, got {d}")
    known = load_cells(state_path) if state_path is not None else {}
    out: list[ConjectureCell] = []
    for n in admissible_n(d, n_max):
        cell = known.get((d, n))
        if cell is None:
            value = conjecture_value(d, n)
            cell = ConjectureCell(d, n, value, value.denominator == 1)
            if state_path is not None:
                _append(state_path, cell)
        if not cell.is_integer:
            log.warning("non-integral cell at d=%d n=%d: %s", cell.d, cell.n, cell.value_text())
        out.append(cell)
    return out


def _append(state_path: str | Path, cell: ConjectureCell) -> None:
    try:
        with open(state_path, "a", encoding="utf-8") as fh:
            fh.write(cell.line() + "\n")
    except OSError as exc:
        raise OSError(f"persisting cell d={cell.d} n={cell.n}: {exc}") from exc
