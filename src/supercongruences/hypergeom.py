"""Truncated hypergeometric series: exact sums, and sums mod p^k.

A series spec holds upper parameters a_0..a_r, lower parameters b_1..b_r,
an argument z, and an inclusive truncation index n; the k-th term is

    (a_0)_k ... (a_r)_k / ((b_1)_k ... (b_r)_k) * z^k / k!

An exact sum of w_k t_k is a product of integer step matrices (Haible &
Papanikolaou, "Fast multiprecision evaluation of series of rational
numbers", ANTS 1998): step k advances (t_k, sum_{j<k} w_j t_j) to k+1 by
a lower-triangular integer matrix over Q(k), and a product of such steps
is three entries (a, d, e). The weight enters at the leaf: a plain sum
has w = 1, and an affine weight is an integer S k + I over one common
denominator. ``_product`` halves the run of steps recursively, at a
multiple of _LEAF, folds runs of up to _LEAF steps one at a time in a
tight loop, and composes the halves on the way up; the sum builds a
single ``Fraction`` at the end. A product stands for its matrix over its
denominator, and the gcd of the earlier half's a and the later half's e
divides every entry of their composite, so both are divided by it before
the products at every compose. That gcd finds the content of telescoping
parameter pairs (b + m over b), which is most of a wide product: without
it the km-deformed sum at d = 6, p = 977, x = -7/3, y = 5/2 ends on a
denominator of 63,079 bits, 63,054 of them common to all three entries,
for a value of about 2,500 bits; with it, on 956 bits. Harmonic weights
run ``_weighted_sum``: a recurrence on four entries, one step at a time,
quadratic in n. No check runs it; the tests hold the harmonic fold to it.
``terms`` yields the terms one by one from the same integer ratios,
``step_ratios``.

Each parameter a = u/v enters every step through the linear form
u + v k. Equal forms (dflst has 1 - 1/d d times, and 1 d times with the
k + 1 of k!) are grouped once per spec into (form, multiplicity), and
each distinct form is one lazy ``map`` raised to its multiplicity.

A sum mod p^k folds the same steps instead, by Horner from the last,
over one common denominator e divided out once at the end. V = v_p(e)
comes in closed form from the linear forms, and the fold runs mod
p^(k+V): the sum h/e is p-integral exactly when p^V divides h, and its
residue is then h/p^V times the inverse of the unit e/p^V, after O(n)
steps on numbers of about (k+V) log2 p bits. ``_affine_mod`` folds the
steps (P, Q, W) of ``_product``, three products each, over e = D times
every Q(k), k < n; ``_weighted_mod`` folds a harmonic weight, which moves
by N/D(k) at each step, by its differences in (u, g, e) over every
Q(k) D(k). Where V is small next to n this beats the exact sum by far;
at V near n/2 (the central sum through p^6 - 1 at p = 5) the two cost
about the same. The exact sums serve the exact kinds, and are the
oracles the tests hold the fold to.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from itertools import count, islice, repeat
from operator import mul
from typing import Iterable, Iterator, Sequence

from .errors import NonIntegralDenominator, ZeroLowerPochhammer
# shifted_harmonic and reduce_mod are unused here but stay bound: bench/tracing.py wraps them by name
from .exact import RationalLike, check_harmonic_shift, shifted_harmonic, to_fraction, zero_shift
from .padic import PrimePower, Residue, reduce_mod, valuation


# Linear forms (u, v), each standing for u + v k, with their multiplicities.
Forms = tuple[tuple[tuple[int, int], int], ...]


def _grouped(forms: Iterable[tuple[int, int]]) -> Forms:
    """Equal forms merged, in first-seen order, with their counts."""
    counts: dict[tuple[int, int], int] = {}
    for form in forms:
        counts[form] = counts.get(form, 0) + 1
    return tuple(counts.items())


def _parameters(values: Iterable[RationalLike], *extra: tuple[int, int]) -> tuple[tuple[Fraction, ...], Forms, int]:
    """The values as Fractions; their linear forms a = u/v -> (u, v),
    followed by ``extra``, grouped as ``_grouped`` groups them; and the
    product of their denominators v. One pass."""
    params = tuple([x if type(x) is Fraction else to_fraction(x) for x in values])
    counts: dict[tuple[int, int], int] = {}
    den = 1
    last = None
    for x in params:
        # the shapes repeat one object d times: a run of it shares one form
        if x is not last:
            form, last = x.as_integer_ratio(), x
        counts[form] = counts.get(form, 0) + 1
        den *= form[1]
    for form in extra:
        counts[form] = counts.get(form, 0) + 1
    return params, tuple(counts.items()), den


@dataclass(frozen=True, init=False)
class SeriesSpec:
    """A truncated hypergeometric sum; validation is eager.

    Construction rejects any lower parameter whose Pochhammer vanishes at
    or below the truncation index, turning a latent division by zero into
    an immediate error. ``forms`` holds the grouped linear forms of the
    upper and lower factors: a + k = (u + v k) / v for a = u/v, and the
    lower ones end with the (1, 1) of the k + 1 of k!. The step ratio is
    then P(k)/Q(k) = (c_P prod_upper (u + v k)) / (c_Q prod_lower (u + v k)),
    with the constants ``consts`` = (c_P, c_Q): z's numerator times the
    lower denominators v, and z's denominator times the upper ones.
    """

    upper: tuple[Fraction, ...]
    lower: tuple[Fraction, ...]
    z: Fraction
    n: int
    forms: tuple[Forms, Forms] = field(init=False, repr=False, compare=False)
    consts: tuple[int, int] = field(init=False, repr=False, compare=False)

    def __init__(self, upper: Iterable[RationalLike], lower: Iterable[RationalLike], z: RationalLike, n: int) -> None:
        upper, upper_forms, upper_den = _parameters(upper)
        lower, lower_forms, lower_den = _parameters(lower, (1, 1))
        z = to_fraction(z)
        object.__setattr__(self, "upper", upper)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "forms", (upper_forms, lower_forms))
        object.__setattr__(self, "consts", (z.numerator * lower_den, z.denominator * upper_den))
        if len(upper) != len(lower) + 1:
            raise ValueError(
                f"need one more upper than lower parameter, got "
                f"{len(upper)} upper / {len(lower)} lower"
            )
        if n < 0:
            raise ValueError(f"truncation index must be >= 0, got {n}")
        for b in lower:
            j = zero_shift(b, n)
            if j is not None:
                raise ZeroLowerPochhammer(f"lower parameter {b} has ({b})_{j + 1} = 0 within truncation {n}")


# The constructor by its short name; SeriesSpec coerces ints and Fractions itself.
series = SeriesSpec


def step_ratios(spec: SeriesSpec, order: int = 1) -> tuple[Iterator[int], Iterator[int]]:
    """Integers P(k), Q(k) with t_{k+1}/t_k = P(k)/Q(k), for k < n only
    (SeriesSpec guarantees b + k != 0 there, not at n); k counts up, or
    down from n - 1 for order = -1."""
    n = spec.n
    upper, lower = spec.forms
    const_p, const_q = spec.consts
    ps = _linear_products(const_p, upper, n, order)
    qs = _linear_products(const_q, lower, n, order)
    return ps, qs


def _linear_products(const: int, forms: Forms, n: int, order: int = 1) -> Iterator[int]:
    """const * prod((u + v*k)**mult for ((u, v), mult) in forms) for k in
    range(n), lazily, k counting up (order = 1) or down (order = -1); one
    chained map per distinct form."""
    values: Iterator[int] = repeat(const, n)
    for (u, v), mult in forms:
        factors = range(u, u + v * n, v)[::order]
        values = map(mul, values, factors if mult == 1 else map(pow, factors, repeat(mult)))
    return values


def terms(spec: SeriesSpec) -> Iterator[Fraction]:
    """Yield the exact terms t_0..t_n via the ratio recurrence

    t_{k+1} = t_k * z * prod(a_i + k) / (prod(b_j + k) * (k+1)).
    """
    t = Fraction(1)
    yield t
    for p, q in zip(*step_ratios(spec)):
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


# Steps folded into one leaf before it enters the tree.
_LEAF = 16


def _product(steps: Iterator[tuple[int, int, int]], n: int) -> tuple[int, int, int]:
    """The product of the next n steps (P, Q, W) of ``steps``, drawn in
    order: (a, d, e), the matrix [[a, 0], [d, e]] acting on (t, acc) over
    e. Up to _LEAF steps fold one at a time, each acting by
    (a, d, e) -> (P a, Q (W a + d), Q e). More split after
    ceil(n/_LEAF) // 2 whole leaves of _LEAF steps, and the later half
    (a2, d2, e2) composes onto the earlier (a1, d1, e1) as
    (a2 a1, d2 a1 + e2 d1, e2 e1). g = gcd(a1, e2) divides all three, and
    a product stands for its matrix over its denominator, so dividing a1
    and e2 by g first leaves the map the same."""
    if n <= _LEAF:
        a, d, e = 1, 0, 1
        for p, q, w in islice(steps, n):
            a, d, e = p * a, q * (w * a + d), q * e
        return a, d, e
    half = -(-n // _LEAF) // 2 * _LEAF
    a1, d1, e1 = _product(steps, half)
    a2, d2, e2 = _product(steps, n - half)
    g = gcd(a1, e2)
    a1, e2 = a1 // g, e2 // g
    return a2 * a1, d2 * a1 + e2 * d1, e2 * e1


def _weighted_sum(spec: SeriesSpec, step_num: int, step_forms: Sequence[tuple[int, int]]) -> Fraction:
    """Exact sum_{k<=n} w_k t_k, where w_0 = 0 and w_{k+1} = w_k + N / D(k)
    with N = step_num and D(k) = prod(u + v*k for (u, v) in step_forms).

    With t_{k+1}/t_k = P(k)/Q(k) over integers, step k is

        t'   = t P D           / (Q D)
        v'   = (v P D + t P N) / (Q D)      (v = w t)
        acc' = (acc + v) Q D   / (Q D)

    From (t, v, acc) = (1, 0, 0) the steps give (a, b, c) over e, each by
    (a, b, c, e) -> (PD a, PN a + PD b, QD (b + c), QD e), and the sum is
    acc_n + v_n. Only the steps k < n are built: the ratio and the weight
    step are finite there (SeriesSpec checks b + j for j < n), not at n.
    """
    ps, qs = step_ratios(spec)
    ds = _linear_products(1, _grouped(step_forms), spec.n)
    a, b, c, e = 1, 0, 0, 1
    for p, q, dk in zip(ps, qs, ds):
        pd, qd = p * dk, q * dk
        a, b, c, e = pd * a, p * step_num * a + pd * b, qd * (b + c), qd * e
    return Fraction(b + c, e)


def _steps_valuation(spec: SeriesSpec, p: int, step_forms: Sequence[tuple[int, int]] = ()) -> int:
    """v_p of every step denominator Q(k) D(k) of ``_weighted_sum`` for
    k < n (Q(k) alone with no step forms), from the forms rather than the
    steps. A constant factor c of each step adds n v_p(c). A linear form
    u + v k (gcd(u, v) = 1, never 0 for k < n) has no multiple of p when
    p | v; otherwise the multiples of p^j are the k < n in the class
    root_j = -u/v mod p^j, and root_j grows with j until it passes n."""
    n = spec.n
    total = n * valuation(spec.consts[1], p)
    for (u, v), mult in (*spec.forms[1], *_grouped(step_forms)):
        q = p
        while v % p and (root := -u * pow(v, -1, q) % q) < n:
            total += mult * ((n - 1 - root) // q + 1)
            q *= p
    return total


def _divide_out(h: int, e: int, big_v: int, ctx: PrimePower) -> Residue:
    """h / e mod p^k from h and e held mod p^(k+V), where v_p(e) = V;
    NonIntegralDenominator when p^V does not divide h."""
    p = ctx.p
    scale = p**big_v
    if h % scale:
        value = valuation(h, p) - big_v
        raise NonIntegralDenominator(f"sum is not p-integral at p={p}: v_p(sum) = {value}")
    return Residue(h // scale * pow(e // scale, -1, ctx.modulus), ctx)


def _affine_mod(spec: SeriesSpec, ctx: PrimePower, slope: int, intercept: int, den: int) -> Residue:
    """sum_(k<=n) W_k t_k / D mod p^k, W_k = S k + I: the steps (P, Q, W) of
    ``_product`` folded by Horner from the last mod p^(k+V), where V is
    v_p(D) plus v_p of every Q(k), k < n. After step k, u/e is
    sum_(j>=k) W_j t_j/t_k: from u = W_n and e = 1, e <- Q(k) e and
    u <- W_k e + P(k) u, and the sum is u/(D e); a plain sum has S = 0 and
    I = D = 1. NonIntegralDenominator unless p-integral."""
    p = ctx.p
    big_v = _steps_valuation(spec, p) + valuation(den, p)
    m = ctx.modulus * p**big_v
    ps, qs = step_ratios(spec, -1)
    last = slope * spec.n + intercept
    u, e = last % m, 1
    for num, q, w in zip(ps, qs, count(last - slope, -slope)):
        e = e * q % m
        u = (w * e + num * u) % m
    return _divide_out(u, den * e % m, big_v, ctx)


def _weighted_mod(spec: SeriesSpec, ctx: PrimePower, step_num: int, step_forms: Sequence[tuple[int, int]]) -> Residue:
    """``_weighted_sum`` of the same arguments mod p^k, folded by Horner
    from the last step mod p^(k+V), V from ``_steps_valuation``: after
    step k, u/e = sum_(j>=k) t_j/t_k and g/e = sum_(j>k) (w_j - w_k)
    t_j/t_k, and since w_0 = 0 the sum is g/e. Raises
    NonIntegralDenominator when the sum is not p-integral."""
    big_v = _steps_valuation(spec, ctx.p, step_forms)
    m = ctx.modulus * ctx.p**big_v
    ps, qs = step_ratios(spec, -1)
    ds = _linear_products(1, _grouped(step_forms), spec.n, -1)
    u, g, e = 1, 0, 1
    for num, den, dk in zip(ps, qs, ds):
        pd = num * dk
        g = (pd * g + num * step_num * u) % m
        e = e * den * dk % m
        u = (e + pd * u) % m
    return _divide_out(g, e, big_v, ctx)


def evaluate_exact(spec: SeriesSpec) -> Fraction:
    """Exact value of the truncated sum: the product of the steps with
    weight 1 acts on (t, acc) = (1, 0), and the sum is acc_n + t_n."""
    a, d, e = _product(zip(*step_ratios(spec), repeat(1)), spec.n)
    return Fraction(a + d, e)


def evaluate_mod(spec: SeriesSpec, ctx: PrimePower) -> Residue:
    """The truncated sum mod p^k; NonIntegralDenominator when the exact
    value is not p-integral (the congruence probed is then ill-posed)."""
    return _affine_mod(spec, ctx, 0, 1, 1)


@dataclass(frozen=True)
class AffineWeight:
    """Per-term weight slope*k + intercept."""

    slope: Fraction
    intercept: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "slope", to_fraction(self.slope))
        object.__setattr__(self, "intercept", to_fraction(self.intercept))


def _integer_weight(w: AffineWeight) -> tuple[int, int, int]:
    """(S, I, D): the weight s k + i as the integer S k + I over the least
    common denominator D of s and i."""
    s, i = w.slope, w.intercept
    den = lcm(s.denominator, i.denominator)
    return s.numerator * den // s.denominator, i.numerator * den // i.denominator, den


def affine_weighted_sum(w: AffineWeight, spec: SeriesSpec) -> Fraction:
    """Exact sum of (slope*k + intercept) * t_k over the truncation range:
    each step k < n carries W_k = S k + I of ``_integer_weight`` into the
    product, and the sum is acc_n + W_n t_n over D."""
    slope, intercept, den = _integer_weight(w)
    a, d, e = _product(zip(*step_ratios(spec), count(intercept, slope)), spec.n)
    return Fraction(a * (slope * spec.n + intercept) + d, e * den)


def affine_weighted_mod(w: AffineWeight, spec: SeriesSpec, ctx: PrimePower) -> Residue:
    """``affine_weighted_sum`` mod p^k, folded by ``_affine_mod`` on the same
    integer weight; NonIntegralDenominator when the value is not p-integral."""
    return _affine_mod(spec, ctx, *_integer_weight(w))


def _harmonic_steps(spec: SeriesSpec, c1: RationalLike, c2: RationalLike) -> tuple:
    """The (step_num, step_forms) of the harmonic difference
    sum_{j<k} 1/(c1+j) - sum_{j<k} 1/(c2+j): it steps by 1/(c1+k) -
    1/(c2+k) = (v1 u2 - v2 u1) / ((u1 + v1 k)(u2 + v2 k)) for c = u/v; a
    zero summand denominator within range is rejected up front."""
    c1, c2 = to_fraction(c1), to_fraction(c2)
    check_harmonic_shift(c1, spec.n)
    check_harmonic_shift(c2, spec.n)
    (u1, v1), (u2, v2) = c1.as_integer_ratio(), c2.as_integer_ratio()
    return v1 * u2 - v2 * u1, ((u1, v1), (u2, v2))


def harmonic_weighted_sum(spec: SeriesSpec, c1: RationalLike, c2: RationalLike) -> Fraction:
    """Exact sum of t_k * (sum_{j<k} 1/(c1+j) - sum_{j<k} 1/(c2+j))."""
    return _weighted_sum(spec, *_harmonic_steps(spec, c1, c2))


def harmonic_weighted_mod(spec: SeriesSpec, c1: RationalLike, c2: RationalLike, ctx: PrimePower) -> Residue:
    """``harmonic_weighted_sum`` mod p^k, folded by ``_weighted_mod``;
    NonIntegralDenominator when the exact value is not p-integral."""
    return _weighted_mod(spec, ctx, *_harmonic_steps(spec, c1, c2))
