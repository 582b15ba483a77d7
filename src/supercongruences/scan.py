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

State is one checkpoint line per d, ``d n acc t crc``: the sweep state
(acc, t) after its steps k < n-1, so acc / n^2 is the cell at n; d and n
in decimal, acc and t in hex (linear-time text with no digit limit), and
the CRC-32 of the rest of the line. A scan resumes from its d's
checkpoint, sweeps only the steps k >= n-1, returns only the cells past
it, and rewrites the file once, when the sweep stops. The checkpoint
never moves past a non-integral cell, and a resumed sweep recomputes such
a cell by ``conjecture_value``, so a corrupt or forged checkpoint is an
error (exit 2), never a finding. The module keeps no state of its own.
"""

from __future__ import annotations

import logging
import zlib
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from pathlib import Path
from typing import Iterator

from .errors import HypothesisViolated
from .exact import factorial, int_text
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


def _checkpoint_line(d: int, n: int, acc: int, t: int) -> str:
    body = f"{d} {n} {acc:x} {t:x}"
    return f"{body} {zlib.crc32(body.encode()):08x}\n"


def _is_hex(field: bytes) -> bool:
    return bool(field) and not field.translate(None, b"0123456789abcdef")


def _parse(raw: bytes) -> tuple[int, int, int, int]:
    """(d, n, acc, t) of one checkpoint line, else a ValueError saying why.
    Bytes methods check the fields 6x faster than a regular expression."""
    fields = raw.split(b" ")
    if not (
        len(fields) == 5
        and fields[0].isdigit()  # bytes: ASCII digits only
        and fields[1].isdigit()
        and _is_hex(fields[2].removeprefix(b"-"))
        and _is_hex(fields[3].removeprefix(b"-"))
        and len(fields[4]) == 8
        and _is_hex(fields[4])
    ):
        raise ValueError("expected 'd n acc t crc': decimal d and n, hex acc, t and crc")
    if int(fields[4], 16) != zlib.crc32(raw[:-9]):
        raise ValueError("CRC-32 does not match the line")
    d, n = int(fields[0]), int(fields[1])
    if d < 2 or n % d != d - 1 or n <= d - 1:
        raise ValueError(f"n = {n} is not admissible for d = {d}")
    return d, n, int(fields[2], 16), int(fields[3], 16)


def load_cells(state_path: str | Path) -> dict[int, tuple[int, int, int]]:
    """The checkpoints of a state file, d -> (n, acc, t); a missing file
    holds none.

    A last line without its newline is a torn write: it is dropped with a
    warning, and its d starts cold. Any other line must be a checkpoint of
    an admissible (d, n) whose CRC matches, at most one per d; otherwise
    this raises a ValueError naming the file and line, and the file is
    left as it is."""
    path = Path(state_path)
    try:
        lines = path.read_bytes().split(b"\n")
    except FileNotFoundError:
        return {}
    tail = lines.pop()  # b"" unless the last write was cut short
    states: dict[int, tuple[int, int, int]] = {}
    for lineno, raw in enumerate(lines, start=1):
        try:
            d, *state = _parse(raw)
            if d in states:
                raise ValueError(f"a second checkpoint for d = {d}")
        except ValueError as exc:
            shown = raw.decode("utf-8", "replace")[:60]
            raise ValueError(f"{path}:{lineno}: bad state line {shown!r}: {exc}") from None
        states[d] = tuple(state)
    if tail:
        shown = tail.decode("utf-8", "replace")[:60]
        log.warning("%s:%d: dropping torn last line %r", path, len(lines) + 1, shown)
    return states


def scan_conjecture(
    d: int, n_max: int, state_path: str | Path | None = None
) -> list[ConjectureCell]:
    """The cells of every admissible n <= n_max past d's checkpoint (all of
    them without one), ascending; none when n_max is at or below it.

    When the sweep stops, by returning or by an exception, the file is
    rewritten once with d's checkpoint at the last cell yielded before any
    non-integral one. A non-integral cell of a resumed sweep is recomputed
    by ``conjecture_value``; if the two disagree the checkpoint is wrong,
    and this raises a ValueError naming the file and writes nothing.
    """
    if d < 2:
        raise HypothesisViolated(f"need d >= 2, got {d}")
    states = load_cells(state_path) if state_path is not None else {}
    cells: list[ConjectureCell] = []
    found = False
    reached = None  # the checkpoint to write: the last cell before any finding
    try:
        for n, acc, t in _sweep(d, *states.get(d, (1, 1, 1)), n_max):
            value = Fraction(acc, n * n)
            if value.denominator != 1 and d in states and value != conjecture_value(d, n):
                reached = None
                raise ValueError(
                    f"{state_path}: the checkpoint for d = {d} at n = {states[d][0]} "
                    f"gives a wrong cell at n = {n}; delete its line to rescan d = {d}"
                )
            cells.append(ConjectureCell(d, n, value, value.denominator == 1))
            found = found or value.denominator != 1
            if not found:
                reached = (n, acc, t)
    finally:
        if state_path is not None and reached is not None:
            states[d] = reached
            try:
                with open(state_path, "w", encoding="ascii") as fh:
                    fh.write("".join(_checkpoint_line(e, *state) for e, state in states.items()))
            except OSError as exc:
                raise OSError(f"persisting checkpoint d={d} n={reached[0]}: {exc}") from exc
    return cells


def _sweep(d: int, n: int, acc: int, t: int, n_max: int) -> Iterator[tuple[int, int, int]]:
    """From (acc, t) after the steps k < n-1 of ``combined_series``, yield
    (m, acc, t) after the steps k < m-1 (the cell at m is acc / m^2) for each
    admissible m in (n, n_max]: from n + d, or from 2d - 1 when cold (n = 1)."""
    ns = range(max(2 * d - 1, n + d), n_max + 1, d)
    if not ns:
        return
    steps = zip(*step_ratios(combined_series(d, ns[-1] - 1), 1, n - 1))
    for m in ns:
        for p, q in islice(steps, m - n):
            t *= p
            acc = acc * q + t
        n = m
        yield n, acc, t
