"""p-adic valuations, residues mod p^k, and Morita's p-adic Gamma function.

The Gamma function is the Morita product over integers below n and coprime
to p, carrying a sign (-1)^n, with Gamma(0) = 1. It extends continuously
to p-adic integers: if m ≡ n (mod p^k) then Gamma(m) ≡ Gamma(n) (mod p^k),
so a rational argument x is evaluated at its canonical representative in
[0, p^k).

The product is taken in blocks (after Bostan, Gaudry and Schost, SIAM J.
Comput. 2007). For n = A p + b it is f(0) f(p) ... f((A-1) p) times the
units in (A p, n), where f(x) = (x + 1)(x + 2)...(x + p - 1). Since
x^i ≡ 0 (mod p^k) for x = a p and i >= k, only the k lowest coefficients
of f matter: they are found once in O(p k), and each block is then a
k-term Horner evaluation, O(p^(k-1) k) in all instead of O(p^k).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import NonIntegralDenominator
from .primes import is_prime


def valuation(q: Fraction | int, p: int) -> int | float:
    """Exact p-adic valuation of a rational; valuation(0) is +infinity."""
    q = Fraction(q)
    if q == 0:
        return math.inf

    def vp(n: int) -> int:
        v = 0
        while n % p == 0:
            n //= p
            v += 1
        return v

    return vp(q.numerator) - vp(q.denominator)


@dataclass(frozen=True)
class PrimePower:
    """The modulus context (p, k): residues live in Z/p^k.

    p must be an odd prime (checked deterministically) and k >= 1.
    """

    p: int
    k: int
    modulus: int = field(init=False, compare=False)

    def __post_init__(self) -> None:
        if self.p < 3 or not is_prime(self.p):
            raise ValueError(f"p must be an odd prime, got {self.p}")
        if self.k < 1:
            raise ValueError(f"precision exponent must be >= 1, got {self.k}")
        object.__setattr__(self, "modulus", self.p**self.k)

    def __repr__(self) -> str:
        return f"PrimePower({self.p}, {self.k})"

    def __str__(self) -> str:
        return f"{self.p}^{self.k}" if self.k > 1 else str(self.p)


@dataclass(frozen=True)
class Residue:
    """Element of Z/p^k, tagged with its PrimePower context.

    Arithmetic is only defined between residues sharing a context
    (silent modulus mixing is the classic congruence-code bug); plain
    ints coerce to the other operand's context.
    """

    value: int
    ctx: PrimePower

    def __post_init__(self) -> None:
        object.__setattr__(self, "value", self.value % self.ctx.modulus)

    def _coerce(self, other: Residue | int) -> Residue:
        if isinstance(other, Residue):
            if other.ctx != self.ctx:
                raise ValueError(f"mixed residue contexts: {self.ctx} vs {other.ctx}")
            return other
        if isinstance(other, int):
            return Residue(other, self.ctx)
        raise TypeError(f"cannot combine Residue with {type(other).__name__}")

    def __add__(self, other: Residue | int) -> Residue:
        other = self._coerce(other)
        return Residue(self.value + other.value, self.ctx)

    __radd__ = __add__

    def __sub__(self, other: Residue | int) -> Residue:
        other = self._coerce(other)
        return Residue(self.value - other.value, self.ctx)

    def __rsub__(self, other: Residue | int) -> Residue:
        return self._coerce(other) - self

    def __neg__(self) -> Residue:
        return Residue(-self.value, self.ctx)

    def __mul__(self, other: Residue | int) -> Residue:
        other = self._coerce(other)
        return Residue(self.value * other.value, self.ctx)

    __rmul__ = __mul__

    def __pow__(self, e: int) -> Residue:
        return Residue(pow(self.value, e, self.ctx.modulus), self.ctx)

    def inverse(self) -> Residue:
        return Residue(pow(self.value, -1, self.ctx.modulus), self.ctx)

    def __truediv__(self, other: Residue | int) -> Residue:
        return self * self._coerce(other).inverse()

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            return self.value == other % self.ctx.modulus
        if isinstance(other, Residue):
            return self.value == other.value and self.ctx == other.ctx
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.value, self.ctx))

    def centered(self) -> int:
        """Representative in (-p^k/2, p^k/2]."""
        m = self.ctx.modulus
        return self.value if self.value <= m // 2 else self.value - m

    def at_precision(self, k: int) -> Residue:
        """The same class reduced to a lower precision k <= self.ctx.k."""
        if k > self.ctx.k:
            raise ValueError(f"cannot lift precision {self.ctx.k} to {k}")
        return Residue(self.value, PrimePower(self.ctx.p, k))

    def __repr__(self) -> str:
        return f"Residue({self.value} mod {self.ctx})"


def reduce_mod(q: Fraction | int, ctx: PrimePower) -> Residue:
    """Reduce a rational mod p^k via a modular inverse of its denominator.

    Raises NonIntegralDenominator when p divides the denominator: the
    quantity is not a p-adic integer, so the reduction is undefined.
    """
    q = Fraction(q)
    den = q.denominator
    if den % ctx.p == 0:
        raise NonIntegralDenominator(f"{q} is not p-integral at p={ctx.p}")
    return Residue(q.numerator * pow(den, -1, ctx.modulus), ctx)


def least_nonneg_residue(x: Fraction | int, p: int) -> int:
    """<x>_p: the least nonnegative residue of a p-adic integer x mod p."""
    x = Fraction(x)
    if x.denominator % p == 0:
        raise NonIntegralDenominator(f"{x} is not p-integral at p={p}")
    return x.numerator * pow(x.denominator, -1, p) % p


def _unit_product(n: int, ctx: PrimePower) -> int:
    """Product of 1 <= j < n with p not dividing j, reduced mod p^k."""
    p, k, m = ctx.p, ctx.k, ctx.modulus
    # the k lowest coefficients c_i of f(x) = (x + 1)...(x + p - 1), mod p^k
    c = [1] + [0] * (k - 1)
    for j in range(1, p):
        for i in range(k - 1, 0, -1):
            c[i] = (c[i] * j + c[i - 1]) % m
        c[0] = c[0] * j % m
    # f(a p) ≡ sum_i (c_i p^i) a^i, evaluated by Horner from the top
    horner = [c[i] * p**i % m for i in reversed(range(k))]
    blocks = n // p
    acc = 1
    for a in range(blocks):
        f = 0
        for d in horner:
            f = f * a + d
        acc = acc * f % m
    return acc * math.prod(range(blocks * p + 1, n)) % m


def gamma_p_int(n: int, ctx: PrimePower) -> Residue:
    """Morita Gamma at a nonnegative integer: (-1)^n times the product of
    1 <= j < n coprime to p, mod p^k; the n = 0 value is 1."""
    if n < 0:
        raise ValueError(f"gamma_p_int needs n >= 0, got {n}")
    sign = -1 if n % 2 else 1
    return Residue(sign * _unit_product(n, ctx), ctx)


class GammaContext:
    """Gamma at p-adic rationals: gamma_p_int at the representative mod p^k."""

    def __init__(self, ctx: PrimePower) -> None:
        self.ctx = ctx

    def gamma(self, x: Fraction | int) -> Residue:
        return gamma_p_int(reduce_mod(x, self.ctx).value, self.ctx)


def g1_estimate(x: Fraction | int, p: int) -> Residue:
    """First-order Gamma expansion coefficient g (mod p), defined by
    Gamma(x + p) ≡ Gamma(x)(1 + g p) (mod p^2).

    By linearity the same g reconstructs Gamma(x + t p) mod p^2 for every
    p-adic integer t. Requires p >= 5.
    """
    if p < 5:
        raise ValueError(f"first-order expansion needs p >= 5, got {p}")
    x = Fraction(x)
    gc = GammaContext(PrimePower(p, 2))
    base = gc.gamma(x)
    shifted = gc.gamma(x + p)
    ratio = shifted / base
    # continuity mod p forces ratio ≡ 1 (mod p)
    return Residue((ratio.value - 1) // p, PrimePower(p, 1))
