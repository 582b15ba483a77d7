"""Truncated hypergeometric series: exact sums, and sums mod p^k.

A series spec holds upper parameters a_0..a_r, lower parameters b_1..b_r,
an argument z, and an inclusive truncation index n; the k-th term is

    (a_0)_k ... (a_r)_k / ((b_1)_k ... (b_r)_k) * z^k / k!

Every sum, plain or weighted, is a product of integer step matrices
(Haible & Papanikolaou, "Fast multiprecision evaluation of series of
rational numbers", ANTS 1998): step k advances the state
(t_k, w_k t_k, sum_{j<k} w_j t_j) to k+1 by a lower-triangular integer
matrix over one integer denominator Q(k) D(k). The exact sum multiplies
the steps pairwise up a balanced tree and builds a single ``Fraction``
(one gcd) at the end; ``terms`` yields the terms one by one from the same
integer ratios.

A sum mod p^k folds the same steps instead, over one common denominator
e (the starting weight's denominator times every Q(k) D(k), k < n) that
is divided out once at the end. V = v_p(e) comes in closed form from the
linear forms of the parameters, and the fold runs mod p^(k+V): the sum
(acc + v)/e is p-integral exactly when p^V divides acc + v, and its
residue is then (acc + v)/p^V times the inverse of the unit e/p^V. That
is O(n) steps on numbers of about (k+V) log2 p bits. Where V is small
next to n this beats the exact tree by far; at V near n/2 (the central
sum through p^6 - 1 at p = 5) the two cost about the same. The exact tree
serves the exact sums, and is the oracle the tests hold the fold to.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import prod
from itertools import repeat
from operator import mul
from typing import Iterator, Sequence

from .errors import NonIntegralDenominator, ZeroLowerPochhammer
# shifted_harmonic and reduce_mod are unused here but stay bound: bench/tracing.py wraps them by name
from .exact import RationalLike, check_harmonic_shift, shifted_harmonic, zero_shift
from .padic import PrimePower, Residue, reduce_mod, valuation


@dataclass(frozen=True)
class SeriesSpec:
    """A truncated hypergeometric sum; validation is eager.

    Construction rejects any lower parameter whose Pochhammer vanishes at
    or below the truncation index, turning a latent division by zero into
    an immediate error.
    """

    upper: tuple[Fraction, ...]
    lower: tuple[Fraction, ...]
    z: Fraction
    n: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "upper", tuple(Fraction(a) for a in self.upper))
        object.__setattr__(self, "lower", tuple(Fraction(b) for b in self.lower))
        object.__setattr__(self, "z", Fraction(self.z))
        if len(self.upper) != len(self.lower) + 1:
            raise ValueError(
                f"need one more upper than lower parameter, got "
                f"{len(self.upper)} upper / {len(self.lower)} lower"
            )
        if self.n < 0:
            raise ValueError(f"truncation index must be >= 0, got {self.n}")
        for b in self.lower:
            j = zero_shift(b, self.n)
            if j is not None:
                raise ZeroLowerPochhammer(
                    f"lower parameter {b} has ({b})_{j + 1} = 0 within truncation {self.n}"
                )


def series(
    upper: list[RationalLike] | tuple[RationalLike, ...],
    lower: list[RationalLike] | tuple[RationalLike, ...],
    z: RationalLike,
    n: int,
) -> SeriesSpec:
    """Convenience constructor accepting ints and Fractions."""
    return SeriesSpec(tuple(upper), tuple(lower), Fraction(z), n)


def _forms(spec: SeriesSpec) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """The linear forms (u, v) of the upper and lower factors: a + k =
    (u + v k) / v for a = u/v; the trailing (1, 1) is the k+1 of k!."""
    upper = [(a.numerator, a.denominator) for a in spec.upper]
    lower = [(b.numerator, b.denominator) for b in spec.lower] + [(1, 1)]
    return upper, lower


def _ratios(spec: SeriesSpec) -> tuple[Iterator[int], Iterator[int]]:
    """Integers P(k), Q(k) with t_{k+1}/t_k = P(k)/Q(k), for k < n only:
    SeriesSpec guarantees b + k != 0 there, not at n."""
    n = spec.n
    upper, lower = _forms(spec)
    ps = _linear_products(spec.z.numerator * prod(den for _, den in lower), upper, n)
    qs = _linear_products(spec.z.denominator * prod(den for _, den in upper), lower, n)
    return ps, qs


def _linear_products(const: int, forms: Sequence[tuple[int, int]], n: int) -> Iterator[int]:
    """const * prod(u + v*k for (u, v) in forms) for k in range(n), lazily,
    one chained map per factor (v > 0)."""
    values: Iterator[int] = repeat(const, n)
    for u, v in forms:
        values = map(mul, values, range(u, u + v * n, v))
    return values


def terms(spec: SeriesSpec) -> Iterator[Fraction]:
    """Yield the exact terms t_0..t_n via the ratio recurrence

    t_{k+1} = t_k * z * prod(a_i + k) / (prod(b_j + k) * (k+1)).
    """
    t = Fraction(1)
    yield t
    for p, q in zip(*_ratios(spec)):
        t = Fraction(t.numerator * p, t.denominator * q)
        yield t


def term(spec: SeriesSpec, k: int) -> Fraction:
    """The exact k-th term, 0 <= k <= spec.n."""
    if not 0 <= k <= spec.n:
        raise ValueError(f"term index {k} outside [0, {spec.n}]")
    for i, t in enumerate(terms(spec)):
        if i == k:
            return t
    raise AssertionError("unreachable")


# A product of steps is (a, b, c, d, e), the integer matrix
# [[a, 0, 0], [b, a, 0], [c, d, e]] acting on (t, w t, acc) over the
# denominator e; every step, and so every product, has this shape.
_Step = tuple[int, int, int, int, int]


def _compose(later: _Step, earlier: _Step) -> _Step:
    a2, b2, c2, d2, e2 = later
    a1, b1, c1, d1, e1 = earlier
    return (a2 * a1, b2 * a1 + a2 * b1, c2 * a1 + d2 * b1 + e2 * c1, d2 * a1 + e2 * d1, e2 * e1)


def _weighted_sum(
    spec: SeriesSpec,
    w0: Fraction,
    step_num: int = 0,
    step_den: int = 1,
    step_forms: Sequence[tuple[int, int]] = (),
) -> Fraction:
    """Exact sum_{k<=n} w_k t_k, where w_{k+1} = w_k + N / D(k) with
    N = step_num and D(k) = step_den * prod(u + v*k for (u, v) in step_forms).

    With t_{k+1}/t_k = P(k)/Q(k) over integers, step k is

        t'   = t P D           / (Q D)
        v'   = (v P D + t P N) / (Q D)      (v = w t)
        acc' = (acc + v) Q D   / (Q D)

    Only the steps k < n are built: the ratio and the weight step are
    guaranteed finite there (SeriesSpec checks b + j for j < n), not at n.
    """
    ps, qs = _ratios(spec)
    ds = _linear_products(step_den, step_forms, spec.n)
    # products of 2^j consecutive steps, earliest first, sizes strictly
    # decreasing: equal neighbours merge as each step arrives, so the
    # tree stays balanced and only O(log n) products are alive at a time
    stack: list[tuple[int, _Step]] = []
    for p, q, dk in zip(ps, qs, ds):
        size, node = 1, (p * dk, p * step_num, 0, q * dk, q * dk)
        while stack and stack[-1][0] == size:
            node = _compose(node, stack.pop()[1])
            size *= 2
        stack.append((size, node))
    product = (1, 0, 0, 0, 1)
    for _, node in reversed(stack):
        product = _compose(product, node)
    a, b, c, d, e = product
    # start from (t, v, acc) = (1, w0, 0); the sum is acc_n + v_n
    wn, wd = w0.numerator, w0.denominator
    return Fraction((b + c) * wd + (a + d) * wn, e * wd)


def _steps_valuation(
    spec: SeriesSpec, p: int, w0: Fraction, step_den: int = 1, step_forms: Sequence[tuple[int, int]] = ()
) -> int:
    """v_p of w0's denominator times every step denominator Q(k) D(k) of
    ``_weighted_sum`` for k < n, from the forms rather than the steps. A
    constant factor c of each step adds n v_p(c). A linear form u + v k
    (gcd(u, v) = 1, never 0 for k < n) has no multiple of p when p | v;
    otherwise the multiples of p^j are the k < n in the class root_j =
    -u/v mod p^j, and root_j grows with j until it passes n."""
    n = spec.n
    upper, lower = _forms(spec)
    const = spec.z.denominator * step_den * prod(den for _, den in upper)
    total = valuation(w0.denominator, p) + n * valuation(const, p)
    for u, v in (*lower, *step_forms):
        q = p
        while v % p and (root := -u * pow(v, -1, q) % q) < n:
            total += (n - 1 - root) // q + 1
            q *= p
    return total


def _weighted_mod(
    spec: SeriesSpec,
    ctx: PrimePower,
    w0: Fraction,
    step_num: int = 0,
    step_den: int = 1,
    step_forms: Sequence[tuple[int, int]] = (),
) -> Residue:
    """``_weighted_sum`` of the same arguments mod p^k, folded step by step
    over one common denominator e: (t, v, acc) / e = (t_k, w_k t_k,
    sum_{j<k} w_j t_j), mod p^(k+V) for V = v_p(e). NonIntegralDenominator
    when p^V does not divide acc + v, i.e. the sum is not p-integral."""
    p = ctx.p
    big_v = _steps_valuation(spec, p, w0, step_den, step_forms)
    scale = p**big_v
    m = ctx.modulus * scale
    ps, qs = _ratios(spec)
    ds = _linear_products(step_den, step_forms, spec.n)
    t, v, acc, e = w0.denominator, w0.numerator, 0, w0.denominator
    for num, den, dk in zip(ps, qs, ds):
        pd, qd = num * dk, den * dk
        acc = (acc + v) * qd % m
        v = (v * pd + t * num * step_num) % m
        t = t * pd % m
        e = e * qd % m
    total = (acc + v) % m
    if total % scale:
        value = valuation(total, p) - big_v
        raise NonIntegralDenominator(f"sum is not p-integral at p={p}: v_p(sum) = {value}")
    return Residue(total // scale * pow(e // scale, -1, ctx.modulus), ctx)


def evaluate_exact(spec: SeriesSpec) -> Fraction:
    """Exact value of the truncated sum."""
    return _weighted_sum(spec, Fraction(1))


def evaluate_mod(spec: SeriesSpec, ctx: PrimePower) -> Residue:
    """The truncated sum mod p^k, folded. NonIntegralDenominator when the
    exact value is not p-integral: the congruence being probed is then
    ill-posed for these parameters."""
    return _weighted_mod(spec, ctx, Fraction(1))


@dataclass(frozen=True)
class AffineWeight:
    """Per-term weight slope*k + intercept."""

    slope: Fraction
    intercept: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "slope", Fraction(self.slope))
        object.__setattr__(self, "intercept", Fraction(self.intercept))

    def at(self, k: int) -> Fraction:
        return self.slope * k + self.intercept


def affine_weighted_sum(w: AffineWeight, spec: SeriesSpec) -> Fraction:
    """Exact sum of (slope*k + intercept) * t_k over the truncation range."""
    return _weighted_sum(spec, w.intercept, w.slope.numerator, w.slope.denominator)


def affine_weighted_mod(w: AffineWeight, spec: SeriesSpec, ctx: PrimePower) -> Residue:
    """``affine_weighted_sum`` mod p^k, folded as in ``evaluate_mod``;
    NonIntegralDenominator when the exact value is not p-integral."""
    return _weighted_mod(spec, ctx, w.intercept, w.slope.numerator, w.slope.denominator)


def _harmonic_steps(spec: SeriesSpec, c1: RationalLike, c2: RationalLike) -> tuple:
    """The (w0, step_num, step_den, step_forms) of the harmonic difference
    sum_{j<k} 1/(c1+j) - sum_{j<k} 1/(c2+j): it steps by 1/(c1+k) -
    1/(c2+k) = (v1 u2 - v2 u1) / ((u1 + v1 k)(u2 + v2 k)) for c = u/v; a
    zero summand denominator within range is rejected up front."""
    c1 = Fraction(c1)
    c2 = Fraction(c2)
    check_harmonic_shift(c1, spec.n)
    check_harmonic_shift(c2, spec.n)
    u1, v1 = c1.numerator, c1.denominator
    u2, v2 = c2.numerator, c2.denominator
    return Fraction(0), v1 * u2 - v2 * u1, 1, ((u1, v1), (u2, v2))


def harmonic_weighted_sum(spec: SeriesSpec, c1: RationalLike, c2: RationalLike) -> Fraction:
    """Exact sum of t_k * (sum_{j<k} 1/(c1+j) - sum_{j<k} 1/(c2+j))."""
    return _weighted_sum(spec, *_harmonic_steps(spec, c1, c2))


def harmonic_weighted_mod(spec: SeriesSpec, c1: RationalLike, c2: RationalLike, ctx: PrimePower) -> Residue:
    """``harmonic_weighted_sum`` mod p^k, folded as in ``evaluate_mod``;
    NonIntegralDenominator when the exact value is not p-integral."""
    return _weighted_mod(spec, ctx, *_harmonic_steps(spec, c1, c2))
