#!/usr/bin/env python3
"""Tour of the exact building blocks: rising factorials and shifted
harmonic sums.

Everything is a Python int or fractions.Fraction, so every value printed
here is exact; nothing is rounded anywhere in the library.
"""

from fractions import Fraction

from supercongruences import pochhammer, shifted_harmonic

F = Fraction

print("Rising factorials (x)_n = x(x+1)...(x+n-1):")
for n in range(6):
    print(f"  (1/2)_{n} = {pochhammer(F(1, 2), n)}")

print()
print("At x = 1 the rising factorial is the ordinary factorial:")
print(f"  (1)_5 = {pochhammer(1, 5)} = 5!")

print()
print("Harmonic numbers and shifted harmonic sums:")
print(f"  H_3 = {shifted_harmonic(1, 3)}")
print(f"  sum of 1/(1/2 + j) for j < 2 = {shifted_harmonic(F(1, 2), 2)}")
