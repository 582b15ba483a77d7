"""p-adic valuations, residues mod p^k, and Morita's p-adic Gamma function.

The Gamma function (Morita, "A p-adic analogue of the Gamma-function",
1975) is the product over integers below n and coprime to p, carrying a
sign (-1)^n, with Gamma(0) = 1. It extends continuously to p-adic
integers: if m ≡ n (mod p^k) then Gamma(m) ≡ Gamma(n) (mod p^k), so a
rational argument x is evaluated at its canonical representative in
[0, p^k).

The product is taken in blocks of p (after Bostan, Gaudry and Schost,
SIAM J. Comput. 2007). For n = A p + b it is f(0) f(p) ... f((A-1) p)
times the tail F_(b-1)(A p), where F_t(x) = (x + 1)...(x + t) and
f = F_(p-1); the tail and f(0) = (p-1)! are products of ranges, reduced
every 64 factors. For k <= 3 every block is f(0) mod p^k by Wolstenholme's
theorem (H_(p-1) ≡ 0 mod p^2 and H^(2)_(p-1) ≡ 0 mod p for p >= 5, so the
coefficients of x and x^2 in f / f(0) vanish mod p^2 and p), and the
product is f(0)^A times the tail: O(p) factors, all multiplied in C.

For k >= 4 the blocks are summed in closed form. Since x^i ≡ 0 (mod p^k)
for x in pZ_p and i >= k, only the k lowest coefficients of f matter,
and one pass over t = 1..p-1 yields them. With g = f / f(0), each block
is f(0) g(a p), and the product of the g(a p) over a < A is exp(L), where
L = sum_j l_j p^j S_j(A) runs over the coefficients l_j of log g with
1 <= j < k and the power sums S_j(A) = sum_(a<A) a^j. L is divisible by
p, so k terms of exp suffice. The cost is O(p k + k^3), whatever n is.

The truncations need p > k: the divisions by j and t are then by units,
and the dropped log and exp terms vanish mod p^k. Both block rules are
used for p > k + 1, so p >= 5 at k = 2 and 3, where Wolstenholme is
needed (at k = 1 every block is (p-1)! mod p outright). Below that p^k
is tiny, and the product is taken factor by factor up to n mod p^k: the
units mod p^k multiply to -1, so each whole period below n contributes
-1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import NonIntegralDenominator
from .exact import to_fraction
from .primes import is_prime


def _int_valuation(n: int, p: int) -> int:
    """v_p of a nonzero int."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def valuation(q: Fraction | int, p: int) -> int | float:
    """Exact p-adic valuation of a rational; valuation(0) is +infinity."""
    if type(q) is int:
        return _int_valuation(q, p) if q else math.inf
    q = to_fraction(q)
    if q == 0:
        return math.inf
    return _int_valuation(q.numerator, p) - _int_valuation(q.denominator, p)


@dataclass(frozen=True, init=False)
class PrimePower:
    """The modulus context (p, k): residues live in Z/p^k.

    p must be an odd prime (checked deterministically) and k >= 1.
    """

    p: int
    k: int
    modulus: int = field(compare=False)

    # an __init__ of its own, which sets each field once: the generated one
    # plus __post_init__ would set them and then the modulus again
    def __init__(self, p: int, k: int) -> None:
        if p < 3 or not is_prime(p):
            raise ValueError(f"p must be an odd prime, got {p}")
        if k < 1:
            raise ValueError(f"precision exponent must be >= 1, got {k}")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "modulus", p**k)

    def __repr__(self) -> str:
        return f"PrimePower({self.p}, {self.k})"

    def __str__(self) -> str:
        return f"{self.p}^{self.k}" if self.k > 1 else str(self.p)


@dataclass(frozen=True, init=False)
class Residue:
    """Element of Z/p^k, tagged with its PrimePower context.

    Arithmetic is only defined between residues sharing a context
    (silent modulus mixing is the classic congruence-code bug); plain
    ints coerce to the other operand's context.
    """

    value: int
    ctx: PrimePower

    # the value reduced as it is set, once (see PrimePower)
    def __init__(self, value: int, ctx: PrimePower) -> None:
        object.__setattr__(self, "value", value % ctx.modulus)
        object.__setattr__(self, "ctx", ctx)

    def _coerce(self, other: Residue | int) -> Residue:
        if isinstance(other, Residue):
            if other.ctx is not self.ctx and other.ctx != self.ctx:
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
            return self.value == other.value and (self.ctx is other.ctx or self.ctx == other.ctx)
        return NotImplemented

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


def _representative(q: Fraction | int, ctx: PrimePower) -> int:
    """The representative in [0, p^k) of a p-integral rational, or
    NonIntegralDenominator."""
    if type(q) is int:
        return q % ctx.modulus
    if type(q) is not Fraction:
        q = to_fraction(q)
    den = q.denominator
    if den % ctx.p == 0:
        raise NonIntegralDenominator(f"{q} is not p-integral at p={ctx.p}")
    return q.numerator * pow(den, -1, ctx.modulus) % ctx.modulus


def reduce_mod(q: Fraction | int, ctx: PrimePower) -> Residue:
    """Reduce a rational mod p^k via a modular inverse of its denominator.

    Raises NonIntegralDenominator when p divides the denominator: the
    quantity is not a p-adic integer, so the reduction is undefined.
    """
    return Residue(_representative(q, ctx), ctx)


def least_nonneg_residue(x: Fraction | int, p: int) -> int:
    """<x>_p: the least nonnegative residue of a p-adic integer x mod an
    odd prime p."""
    return reduce_mod(x, PrimePower(p, 1)).value


def _range_product(lo: int, hi: int, m: int) -> int:
    """prod(range(lo, hi)) mod m, reduced after every 64 factors: one
    math.prod over the whole range (or math.factorial) would build the
    full product, hundreds of times longer than m, before reducing it."""
    acc = 1
    for start in range(lo, hi, 64):
        acc = acc * math.prod(range(start, min(start + 64, hi))) % m
    return acc


def _unit_product(n: int, ctx: PrimePower) -> int:
    """Product of 1 <= j < n with p not dividing j, reduced mod p^k."""
    p, k, m = ctx.p, ctx.k, ctx.modulus
    periods, n = divmod(n, m)
    sign = -1 if periods % 2 else 1
    if p <= k + 1:
        return sign * math.prod(j for j in range(1, n) if j % p) % m
    blocks = n // p
    tail = _range_product(blocks * p + 1, n, m)
    if k <= 3:
        # Wolstenholme: H_(p-1) ≡ 0 (mod p^2) and H^(2)_(p-1) ≡ 0 (mod p)
        # for p >= 5, so f(x) ≡ f(0) (mod p^3) on pZ_p and every block is (p-1)!
        return sign * pow(_range_product(1, p, m), blocks, m) * tail % m
    # the k lowest coefficients of f = (x + 1)...(x + p - 1)
    c = [1] + [0] * (k - 1)
    for t in range(1, p):
        for i in range(k - 1, 0, -1):
            c[i] = (c[i] * t + c[i - 1]) % m
        c[0] = c[0] * t % m
    # g = f / f(0); w_j = j l_j from (log g)' g = g'
    inv_f0 = pow(c[0], -1, m)
    g = [ci * inv_f0 % m for ci in c]
    w = [0] * k
    for j in range(1, k):
        w[j] = (j * g[j] - sum(w[i] * g[j - i] for i in range(1, j))) % m
    # S_j(A) from A^(j+1) = sum_(i<=j) C(j+1, i) S_i(A)
    sums = [blocks]
    for j in range(1, k):
        sums.append((blocks ** (j + 1) - sum(math.comb(j + 1, i) * sums[i] for i in range(j))) // (j + 1))
    log_blocks = sum(w[j] * pow(j, -1, m) * p**j * sums[j] for j in range(1, k)) % m
    # exp(L), whose terms L^t / t! with t >= k vanish mod p^k
    term = exp_blocks = 1
    for t in range(1, k):
        term = term * log_blocks * pow(t, -1, m) % m
        exp_blocks += term
    return sign * pow(c[0], blocks, m) * exp_blocks * tail % m


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
        return gamma_p_int(_representative(x, self.ctx), self.ctx)


def g1_estimate(x: Fraction | int, p: int) -> Residue:
    """First-order Gamma expansion coefficient g (mod p), defined by
    Gamma(x + p) ≡ Gamma(x)(1 + g p) (mod p^2).

    By linearity the same g reconstructs Gamma(x + t p) mod p^2 for every
    p-adic integer t. Requires p >= 5.
    """
    if p < 5:
        raise ValueError(f"first-order expansion needs p >= 5, got {p}")
    x = to_fraction(x)
    gc = GammaContext(PrimePower(p, 2))
    base = gc.gamma(x)
    shifted = gc.gamma(x + p)
    ratio = shifted / base
    # continuity mod p forces ratio ≡ 1 (mod p)
    return Residue((ratio.value - 1) // p, PrimePower(p, 1))
