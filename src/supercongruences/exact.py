"""Exact integer/rational building blocks: rising factorials, binomials,
shifted harmonic sums, and the decimal text of exact numbers.

Everything here is pure and exact. Integers are Python ints, rationals
are ``fractions.Fraction`` (always in lowest terms, so equality and
hashing are structural). ``int_text``/``rational_text`` and ``parse_int``
are the one text codec of reports and the scan, exact at any length.
"""

from __future__ import annotations

import math
from decimal import Decimal
from fractions import Fraction

from .errors import ZeroLowerPochhammer

RationalLike = Fraction | int

factorial = math.factorial


def to_fraction(x: RationalLike) -> Fraction:
    """x as a Fraction. A float raises TypeError: it stands for its binary
    expansion, not for the rational its text names (0.1 is 3602879701896397
    / 2^55, not 1/10), so it is never taken as an exact rational."""
    # an exact type test: isinstance against Fraction's numbers ABCs is slow
    if type(x) is Fraction:
        return x
    if isinstance(x, float):
        raise TypeError(f"need an exact rational (Fraction or int), got the float {x!r}")
    return Fraction(x)


def pochhammer(x: RationalLike, n: int) -> Fraction:
    """Rising factorial (x)_n = x(x+1)...(x+n-1), with (x)_0 = 1: for
    x = u/v, one integer product prod (u + v j) over v^n."""
    if n < 0:
        raise ValueError(f"pochhammer needs n >= 0, got {n}")
    x = to_fraction(x)
    u, v = x.numerator, x.denominator
    return Fraction(math.prod(range(u, u + v * n, v)), v**n)


def binomial(n: int, k: int) -> int:
    """Binomial coefficient C(n, k) for 0 <= k <= n."""
    if k < 0 or k > n:
        raise ValueError(f"binomial needs 0 <= k <= n, got n={n}, k={k}")
    return math.comb(n, k)


def zero_shift(c: Fraction, k: int) -> int | None:
    """The j in [0, k) with c + j = 0, or None: c is then an integer in (-k, 0]."""
    return -c.numerator if c.denominator == 1 and -k < c.numerator <= 0 else None


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
    if k < 0:
        raise ValueError(f"shifted_harmonic needs k >= 0, got {k}")
    c = to_fraction(c)
    check_harmonic_shift(c, k)
    return sum((1 / (c + j) for j in range(k)), Fraction(0))


def int_text(value: int) -> str:
    """str(), exact past the int/str digit limit (4300 by default) via Decimal."""
    try:
        return str(value)
    except ValueError:
        return str(Decimal(value))


def parse_int(text: str) -> int:
    """Inverse of int_text: an optional "-", then ASCII digits, and nothing
    else; a field past the int/str digit limit takes the slower Decimal."""
    digits = text.removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"invalid literal for int() with base 10: {text[:200]!r}")
    try:
        return int(text)
    except ValueError:
        return int(Decimal(text))


def rational_text(q: RationalLike) -> str:
    """str() of a Fraction or int, "num" or "num/den", at any length."""
    num = int_text(q.numerator)
    return num if q.denominator == 1 else f"{num}/{int_text(q.denominator)}"
