#!/usr/bin/env python3
"""Truncated hypergeometric series, evaluated exactly and mod p^k.

The running example is the central series sum of (1/2)_k^2 / k!^2: its
partial sum through k = 4 is 25609/16384, and mod 25 that rational is 1,
the smallest instance of the sign congruence the verifiers check at
scale. evaluate_mod folds the same steps in Z/25 and lands on the same
residue. Through k = 24 the steps are no longer all 5-units (k+1 reaches
5, 10, ..., 25); the fold then works mod 5^(2+V), with V the power of 5
in the common denominator, and still matches the exact sum reduced.
"""

from fractions import Fraction

from supercongruences import (
    AffineWeight,
    PrimePower,
    affine_weighted_sum,
    evaluate_exact,
    evaluate_mod,
    reduce_mod,
    series,
    terms,
)

F = Fraction

p = 5
spec = series([F(1, 2), F(1, 2)], [1], 1, p - 1)

print("Exact terms of the central series through k = 4:")
for k, t in enumerate(terms(spec)):
    print(f"  k = {k}: {t}")

total = evaluate_exact(spec)
print(f"\nExact sum: {total}")

ctx = PrimePower(p, 2)
folded = evaluate_mod(spec, ctx)
reduced = reduce_mod(total, ctx)
print(f"Folded mod {ctx.modulus}: {folded.value}; exact sum reduced: {reduced.value}")
if folded != reduced:
    print("MISMATCH: the fold and the exact sum disagree")
print(f"Predicted sign (-1)^((p-1)/2) = {(-1) ** ((p - 1) // 2)}")

longer = series([F(1, 2), F(1, 2)], [1], 1, p * p - 1)
folded = evaluate_mod(longer, ctx)
reduced = reduce_mod(evaluate_exact(longer), ctx)
print(f"\nThrough k = {p * p - 1}, where k+1 meets multiples of {p}:")
print(f"  folded mod {ctx.modulus}: {folded.value}; exact sum reduced: {reduced.value}")
if folded != reduced:
    print("MISMATCH: the fold and the exact sum disagree")

print()
print("Weighted sums use an affine weight slope*k + intercept.")
print("The weight k - (p^2-1)/4 = k - 6 produces a numerator divisible")
print("by p^3, which is the heart of the mod-p^(2r+1) vanishing result:")
weighted = affine_weighted_sum(AffineWeight(1, -6), spec)
print(f"  weighted sum = {weighted}")
print(f"  numerator factors: {weighted.numerator} = -5^3 * 541")
print(f"  residue mod 5^3: {reduce_mod(weighted, PrimePower(5, 3)).value}")

print()
print("A series with a terminating upper parameter stops by itself:")
stopper = series([1 - p, F(1, 2)], [1], 1, p + 9)
same = series([1 - p, F(1, 2)], [1], 1, p - 1)
print(f"  truncated at {p + 9}: {evaluate_exact(stopper)}")
print(f"  truncated at {p - 1}: {evaluate_exact(same)}  (equal: every later term is 0)")
