"""Exact integer/rational building blocks: rising factorials, harmonic
sums, and polynomials with rational coefficients.

Everything here is pure and exact. Integers are Python ints, rationals
are ``fractions.Fraction`` (always in lowest terms, so equality and
hashing are structural).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import ZeroLowerPochhammer

RationalLike = Fraction | int

factorial = math.factorial


def pochhammer(x: RationalLike, n: int) -> Fraction:
    """Rising factorial (x)_n = x(x+1)...(x+n-1), with (x)_0 = 1: for
    x = u/v, one integer product prod (u + v j) over v^n."""
    if n < 0:
        raise ValueError(f"pochhammer needs n >= 0, got {n}")
    x = Fraction(x)
    u, v = x.numerator, x.denominator
    return Fraction(math.prod(u + v * j for j in range(n)), v**n)


def binomial(n: int, k: int) -> int:
    """Binomial coefficient C(n, k) for 0 <= k <= n."""
    if k < 0 or k > n:
        raise ValueError(f"binomial needs 0 <= k <= n, got n={n}, k={k}")
    return math.comb(n, k)


def harmonic(k: int) -> Fraction:
    """Harmonic number H_k = sum_{j=1..k} 1/j, with H_0 = 0."""
    return sum((Fraction(1, j) for j in range(1, k + 1)), Fraction(0))


def zero_shift(c: Fraction, k: int) -> int | None:
    """The j in [0, k) with c + j = 0, or None: c is then an integer in (-k, 0]."""
    return -c.numerator if c.denominator == 1 and -k < c <= 0 else None


def check_harmonic_shift(c: Fraction, k: int) -> None:
    """Reject c when some summand 1/(c+j), 0 <= j < k, has c+j = 0."""
    j = zero_shift(c, k)
    if j is not None:
        raise ZeroLowerPochhammer(f"shifted harmonic sum hits a zero denominator at c+{j} = 0 (c={c})")


def shifted_harmonic(c: RationalLike, k: int) -> Fraction:
    """Shifted harmonic sum: sum_{j=0..k-1} 1/(c+j), with the k=0 sum 0.

    A vanishing summand denominator (c+j = 0 for some 0 <= j < k) is a
    misuse upstream and is rejected rather than skipped.
    """
    c = Fraction(c)
    check_harmonic_shift(c, k)
    return sum((1 / (c + j) for j in range(k)), Fraction(0))


@dataclass(frozen=True)
class RationalPoly:
    """Polynomial with exact rational coefficients.

    ``coeffs[i]`` is the x^i coefficient; trailing zeros are stripped at
    construction, so the zero polynomial has empty coeffs and degree None.
    """

    coeffs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        cs = tuple(Fraction(c) for c in self.coeffs)
        while cs and cs[-1] == 0:
            cs = cs[:-1]
        object.__setattr__(self, "coeffs", cs)

    @property
    def degree(self) -> int | None:
        return len(self.coeffs) - 1 if self.coeffs else None

    def __add__(self, other: RationalPoly) -> RationalPoly:
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        summed = list(a)
        for i, c in enumerate(b):
            summed[i] += c
        return RationalPoly(tuple(summed))

    def __mul__(self, other: RationalPoly) -> RationalPoly:
        if not self.coeffs or not other.coeffs:
            return RationalPoly(())
        prod = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                prod[i + j] += a * b
        return RationalPoly(tuple(prod))

    def derivative(self) -> RationalPoly:
        return RationalPoly(tuple(i * c for i, c in enumerate(self.coeffs) if i > 0))

    def __call__(self, x: RationalLike) -> Fraction:
        """Evaluate by Horner's rule."""
        x = Fraction(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc


def poch_poly(alpha: RationalLike, k: int) -> RationalPoly:
    """(1+alpha+x)_k as a degree-k polynomial in x.

    Built by repeated linear-factor multiplication; k stays small here
    (at most p-1), so the O(k^2) coefficient work is fine.
    """
    if k < 0:
        raise ValueError(f"poch_poly needs k >= 0, got {k}")
    alpha = Fraction(alpha)
    acc = RationalPoly((Fraction(1),))
    for j in range(1, k + 1):
        acc = acc * RationalPoly((alpha + j, Fraction(1)))
    return acc
