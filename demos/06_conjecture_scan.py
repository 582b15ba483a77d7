#!/usr/bin/env python3
"""Scanning the integrality conjecture with a resumable checkpoint.

For n ≡ -1 (mod d), n > d-1, the prefactor (n-1)!^d d^(dn-d) / n^2 is
conjectured to clear every denominator of the combined truncated series.
The scan evaluates each admissible cell exactly in one sweep, and its state
file keeps one checkpoint per d, the sweep's state at the last cell, so a
repeated run continues the sweep and yields only the cells past it.
"""

import tempfile
from pathlib import Path

from supercongruences import conjecture_value, scan_conjecture

print("Exact values for d = 2 (all conjectured to be integers):")
for n in (3, 5, 7, 9):
    print(f"  n = {n}: {conjecture_value(2, n)}")

print()
state = Path(tempfile.mkdtemp()) / "scan-state.txt"
print(f"Scanning d = 3 up to n = 26 with state at {state}")
cells = scan_conjecture(3, 26, state)
for cell in cells:
    digits = len(str(cell.value.numerator))
    print(f"  n = {cell.n:2d}: integer with {digits} digits, integral = {cell.is_integer}")
print(f"  checkpoint: {state.stat().st_size} bytes, one line for d = 3")

print()
print("Re-scanning to n = 35 continues from the checkpoint at n = 26:")
cells = scan_conjecture(3, 35, state)
print("  new cells: " + ", ".join(str(c.n) for c in cells))
print(f"  all integral: {all(c.is_integer for c in cells)}")
print(f"  agree with conjecture_value: {all(c.value == conjecture_value(3, c.n) for c in cells)}")
print(f"  a scan to n = 26 again yields {len(scan_conjecture(3, 26, state))} cells")
