"""Integrality scan for the combined-series prefactor conjecture.

For d >= 2 and n ≡ -1 (mod d) with n > d-1, the quantity

    (n-1)!^d * d^(dn-d) / n^2 * dF_{d-1}(1/d-1, 1/d, (1+1/d)^{d-2}; 1^{d-1} | 1)_{n-1}

is conjectured to be an integer. The series is ``combined_series``, and
``hypergeom.step_ratios`` gives its step ratio as integers P(k)/Q(k) with
P(k) = (dk+1-d)(dk+1)(dk+d+1)^(d-2) and Q(k) = d^d (k+1)^d, so the unreduced
denominator of the sum truncated at n-1, Q(0)...Q(n-2) = d^(d(n-1)) (n-1)!^d,
is exactly the prefactor's numerator. A cell is therefore N_n / n^2 with N_n
an integer, and one pass of the recurrence t <- t P(k), acc <- acc Q(k) + t
from (acc, t) = (1, 1) yields N_n for every n of a scan: no prefactor, no
per-cell series and no big gcd. ``conjecture_value`` keeps the
prefactor-times-series form. A non-integral cell would be a counterexample:
it is returned with ``is_integer`` false, never swallowed, and the CLI's
``scan`` prints it with its full exact value and exits 3.

State persists as append-only UTF-8 lines, one cell per line:
``d n numerator denominator is_integer`` (five decimal integers,
is_integer as 0/1), so exactness survives serialization and re-scans
resume instead of recomputing. Fields of any length round-trip through
``exact.int_text`` and ``exact.parse_int``.

``load_cells`` keeps one module-level snapshot of the last file it read
successfully: its bytes up to the last newline, their line count and
their cells. A re-read whose bytes start with exactly those bytes parses
only the lines that follow them; any other change to the file is parsed
whole. The snapshot is published by a single assignment of a new tuple
and never mutated, so concurrent callers each see one consistent snapshot.
"""

from __future__ import annotations

import logging
import os
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from pathlib import Path
from typing import Iterator, Sequence

from .errors import HypothesisViolated
from .exact import factorial, int_text, parse_int
from .hypergeom import evaluate_exact, step_ratios
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
            f"{self.d} {self.n} {int_text(self.value.numerator)} "
            f"{int_text(self.value.denominator)} {1 if self.is_integer else 0}"
        )

    @classmethod
    def from_line(cls, line: str) -> ConjectureCell:
        """Parse one state line; ValueError unless it is a consistent cell."""
        d, n, num, den, flag = map(parse_int, line.split())  # ValueError unless 5 fields
        if den <= 0:
            raise ValueError(f"denominator must be positive, got {den}")
        value = Fraction(num, den)
        if value.denominator != den:
            raise ValueError("value is not in lowest terms")
        if flag != (den == 1):
            raise ValueError(f"is_integer flag {flag} disagrees with denominator")
        return cls(d, n, value, den == 1)


def admissible_n(d: int, n_max: int) -> list[int]:
    """All n <= n_max with n ≡ -1 (mod d) and n > d-1, ascending."""
    return list(range(2 * d - 1, n_max + 1, d))


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


# The last successful load: (the bytes it validated, in pieces of at most
# _PIECE bytes; their line count; their cells). It is replaced by one
# assignment and never mutated, so a reader always sees one consistent tuple.
_PIECE = 1 << 13
_snapshot: tuple[tuple[bytes, ...], int, dict[tuple[int, int], ConjectureCell]] = ((), 0, {})


def load_cells(state_path: str | Path) -> dict[tuple[int, int], ConjectureCell]:
    """Read persisted cells keyed by (d, n); a missing file is empty state.

    A cell is committed by its newline. A last line without one is what an
    interrupted write leaves: it is dropped with a warning and cut from the
    file, so the next cell starts a line of its own. Any other bad line,
    including one that is not UTF-8, is a ValueError naming the file and line.

    When the file starts with exactly the bytes of the last successful
    load, only the lines after them are parsed; any other file is parsed
    whole."""
    global _snapshot
    path = Path(state_path)
    if not path.exists():
        return {}
    pieces, lineno, known = _snapshot
    with open(path, "rb") as fh:
        # Small pieces, compared one read at a time: holding the validated
        # bytes as one object and reading the file whole beside it made a
        # file-sized allocation on every call, which raised the peak
        # resident size of 61 back-to-back 430-step scans by 0.6 MB.
        for piece in pieces:
            if fh.read(len(piece)) != piece:
                fh.seek(0)
                pieces, lineno, known = (), 0, {}
                break
        validated = fh.tell()
        rest = fh.read()
    new = rest[: rest.rfind(b"\n") + 1]
    tail = rest[len(new) :]  # b"" unless the last write was cut short
    cells = dict(known)
    for raw in new.split(b"\n")[:-1]:
        lineno += 1
        try:
            line = raw.decode("utf-8")
            cell = ConjectureCell.from_line(line) if line.strip() else None
        except ValueError as exc:
            shown = raw.decode("utf-8", "replace")[:60]
            raise ValueError(f"{path}:{lineno}: bad state line {shown!r}: {exc}") from None
        if cell is not None:
            cells[(cell.d, cell.n)] = cell
    if tail:
        shown = tail.decode("utf-8", "replace")[:60]
        log.warning("%s:%d: dropping torn last line %r", path, lineno + 1, shown)
        os.truncate(path, validated + len(new))
    if new:
        last = (pieces[-1] if pieces else b"") + new
        pieces = pieces[:-1] + tuple(last[i : i + _PIECE] for i in range(0, len(last), _PIECE))
    _snapshot = (pieces, lineno, cells)
    return dict(cells)


def scan_conjecture(
    d: int, n_max: int, state_path: str | Path | None = None
) -> list[ConjectureCell]:
    """Evaluate every admissible n <= n_max, reusing persisted cells.

    Returns all cells for this d in ascending n order. The cells missing
    from the state come from one sweep up to the largest of them, and each
    is appended to the state file as the sweep yields it, so an interrupted
    scan resumes where it stopped. A non-integral cell read from the state
    counts as missing, so only a fresh sweep returns a finding, a cell with
    ``is_integer`` false, for the caller to report; an integral one is
    trusted as stored, even if wrong (delete the file to recompute).
    """
    if d < 2:
        raise HypothesisViolated(f"need d >= 2, got {d}")
    known = load_cells(state_path) if state_path is not None else {}
    ns = admissible_n(d, n_max)
    cells = {n: known[(d, n)] for n in ns if (d, n) in known and known[(d, n)].is_integer}
    for n, value in _sweep(d, [n for n in ns if n not in cells]):
        cell = ConjectureCell(d, n, value, value.denominator == 1)
        if state_path is not None:
            _append(state_path, cell)
        cells[n] = cell
    return [cells[n] for n in ns]


def _sweep(d: int, ns: Sequence[int]) -> Iterator[tuple[int, Fraction]]:
    """Yield (n, value) for each n of the ascending admissible ns, from one pass
    over the steps of ``combined_series``: after those k < n-1, acc / n^2 is the value."""
    steps = zip(*step_ratios(combined_series(d, max(ns, default=1) - 1)))
    acc = t = 1
    done = 0
    for n in ns:
        for p, q in islice(steps, n - 1 - done):
            t *= p
            acc = acc * q + t
        done = n - 1
        yield n, Fraction(acc, n * n)


def _append(state_path: str | Path, cell: ConjectureCell) -> None:
    try:
        with open(state_path, "a", encoding="utf-8") as fh:
            fh.write(cell.line() + "\n")
    except OSError as exc:
        raise OSError(f"persisting cell d={cell.d} n={cell.n}: {exc}") from exc
