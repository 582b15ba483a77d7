"""Truncated series: terms, exact sums, modular reduction, weighted sums."""

import random
from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supercongruences.errors import NonIntegralDenominator, ZeroLowerPochhammer
from supercongruences.exact import factorial, pochhammer, shifted_harmonic
from supercongruences.hypergeom import (
    AffineWeight,
    _steps_valuation,
    _weighted_mod,
    affine_weighted_mod,
    affine_weighted_sum,
    evaluate_exact,
    evaluate_mod,
    harmonic_weighted_mod,
    harmonic_weighted_sum,
    series,
    term,
    terms,
)
from supercongruences.padic import PrimePower, Residue, reduce_mod, valuation

F = Fraction

CENTRAL4 = series([F(1, 2), F(1, 2)], [1], 1, 4)


def naive_sum(upper, lower, z, n, weight=lambda k: 1):
    """Independent oracle: direct termwise products, no recurrence."""
    total = F(0)
    for k in range(n + 1):
        t = F(z) ** k / factorial(k)
        t *= prod((pochhammer(a, k) for a in upper), start=F(1))
        t /= prod((pochhammer(b, k) for b in lower), start=F(1))
        total += F(weight(k)) * t
    return total


class TestSeriesSpec:
    def test_parameter_count_enforced(self):
        with pytest.raises(ValueError):
            series([F(1, 2)], [1, 1], 1, 3)

    def test_negative_truncation_rejected(self):
        with pytest.raises(ValueError):
            series([F(1, 2), F(1, 2)], [1], 1, -1)

    def test_vanishing_lower_pochhammer_rejected_eagerly(self):
        # (-2)_3 = 0, so truncation 3 must be rejected at construction
        with pytest.raises(ZeroLowerPochhammer):
            series([1, 1, 1], [1, -2], 1, 3)
        # but truncation 2 only needs (-2)_1, (-2)_2, both nonzero
        series([1, 1, 1], [1, -2], 1, 2)

    def test_upper_zeros_are_fine(self):
        # terminating upper parameters are routine
        assert evaluate_exact(series([-2, 1], [1], 1, 5)) == naive_sum([-2, 1], [1], 1, 5)


class TestTerms:
    def test_first_term_is_one(self):
        assert term(CENTRAL4, 0) == 1

    def test_fixture_terms(self):
        assert term(CENTRAL4, 2) == F(9, 64)  # (3/4)^2 / (2!)^2
        assert term(CENTRAL4, 4) == F(1225, 16384)  # (105/16)^2 / (4!)^2

    def test_index_bounds(self):
        with pytest.raises(ValueError):
            term(CENTRAL4, 5)

    def test_ratio_recurrence(self):
        rng = random.Random(17)
        for _ in range(15):
            r = rng.randint(0, 2)
            upper = [F(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(r + 1)]
            lower = [F(rng.randint(1, 6), rng.randint(1, 6)) for _ in range(r)]
            z = F(rng.randint(-3, 3), rng.randint(1, 3))
            spec = series(upper, lower, z, 8)
            ts = list(terms(spec))
            for k in range(8):
                if ts[k] == 0:
                    continue
                ratio = z * prod((a + k for a in upper), start=F(1)) / (
                    prod((b + k for b in lower), start=F(1)) * (k + 1)
                )
                assert ts[k + 1] == ts[k] * ratio


class TestEvaluateExact:
    def test_central_fixture(self):
        assert evaluate_exact(CENTRAL4) == F(25609, 16384)

    def test_truncation_zero(self):
        assert evaluate_exact(series([F(1, 3), F(2, 3)], [1], 1, 0)) == 1

    def test_km_shaped_two_terms(self):
        # 1 - 4/3
        assert evaluate_exact(series([-1, 4], [3], 1, 1)) == F(-1, 3)

    def test_terminating_extension(self):
        # with upper parameter 1-p every term beyond k = p-1 vanishes
        p = 7
        base = series([1 - p, F(1, 2)], [1], 1, p - 1)
        extended = series([1 - p, F(1, 2)], [1], 1, p + 9)
        assert evaluate_exact(base) == evaluate_exact(extended)

    def test_against_naive_oracle(self):
        rng = random.Random(19)
        for _ in range(20):
            r = rng.randint(0, 2)
            upper = [F(rng.randint(-8, 8), rng.randint(1, 8)) for _ in range(r + 1)]
            lower = [F(rng.randint(1, 8), rng.randint(1, 8)) for _ in range(r)]
            z = F(rng.randint(-2, 2), rng.randint(1, 4))
            n = rng.randint(0, 12)
            spec = series(upper, lower, z, n)
            assert evaluate_exact(spec) == naive_sum(upper, lower, z, n)


class TestEvaluateMod:
    def test_central_fixture_mod_25(self):
        assert evaluate_mod(CENTRAL4, PrimePower(5, 2)) == 1

    def test_truncation_zero(self):
        assert evaluate_mod(series([F(1, 3), F(2, 3)], [1], 1, 0), PrimePower(7, 2)) == 1

    def test_third_parameter_family(self):
        # sum over k <= 6 of (1/3)_k (2/3)_k / k!^2 mod 49; the sign rule
        # gives (-1)^<-1/3>_7 = (-1)^2 = 1
        spec = series([F(1, 3), F(2, 3)], [1], 1, 6)
        assert evaluate_mod(spec, PrimePower(7, 2)) == reduce_mod((-1) ** 2, PrimePower(7, 2))

    def test_propagates_non_integral(self):
        spec = series([F(1, 5), 1], [1], 1, 1)  # sum 1 + 1/5
        with pytest.raises(NonIntegralDenominator):
            evaluate_mod(spec, PrimePower(5, 2))

    def test_per_term_accumulation_cross_check(self):
        # on central series every term is p-integral, so per-term modular
        # accumulation must agree with exact-then-reduce
        for p in (5, 7, 13):
            for n in (p - 1, p, 2 * p - 1):
                ctx = PrimePower(p, 2)
                spec = series([F(1, 2), F(1, 2)], [1], 1, n)
                acc = Residue(0, ctx)
                for t in terms(spec):
                    assert valuation(t, p) >= 0
                    acc += reduce_mod(t, ctx)
                assert acc == evaluate_mod(spec, ctx)


class TestWeightedSums:
    def test_four_k_plus_one_small(self):
        assert affine_weighted_sum(AffineWeight(4, 1), series([F(1, 2), F(1, 2)], [1], 1, 1)) == F(9, 4)

    def test_central_weight_fixture(self):
        # weight k - 6 over the 5-term central series; numerator -2 * 5^3 * 541
        got = affine_weighted_sum(AffineWeight(1, -6), CENTRAL4)
        assert got == F(-135250, 16384)
        assert reduce_mod(got, PrimePower(5, 3)) == 0

    def test_unit_weight_is_plain_sum(self):
        spec = series([F(1, 3), F(2, 3)], [1], 1, 6)
        assert affine_weighted_sum(AffineWeight(0, 1), spec) == evaluate_exact(spec)

    def test_affine_against_naive(self):
        rng = random.Random(23)
        for _ in range(10):
            upper = [F(rng.randint(-5, 5), rng.randint(1, 5)) for _ in range(2)]
            lower = [F(rng.randint(1, 5), rng.randint(1, 5))]
            w = AffineWeight(F(rng.randint(-3, 3)), F(rng.randint(-3, 3)))
            n = rng.randint(0, 10)
            spec = series(upper, lower, 1, n)
            assert affine_weighted_sum(w, spec) == naive_sum(
                upper, lower, 1, n, weight=lambda k: w.slope * k + w.intercept
            )


class TestHarmonicWeightedSum:
    def test_equal_weights_cancel(self):
        spec = series([F(1, 2), F(1, 2)], [1], 1, 6)
        assert harmonic_weighted_sum(spec, F(1, 3), F(1, 3)) == 0

    def test_empty_harmonic_range(self):
        spec = series([F(1, 2), F(1, 2)], [1], 1, 0)
        assert harmonic_weighted_sum(spec, 1, 3) == 0

    def test_harmonic_lemma_instance(self):
        # m = 2 shape at d = 4, p = 7; both sides derived with the naive
        # oracle: lhs = 43164, closed form = 6!/(0! 2!^3) * (1/2 + 1) = 135,
        # and both reduce to 2 mod 7
        spec = series([1, 3, 3, 3], [1, 1, 1], 1, 6)
        lhs = harmonic_weighted_sum(spec, 1, 3)
        assert lhs == 43164
        rhs = F(factorial(6), factorial(0) * factorial(2) ** 3) * (F(1, 2) + 1)
        assert rhs == 135
        ctx = PrimePower(7, 1)
        assert reduce_mod(lhs, ctx) == reduce_mod(rhs, ctx) == 2

    def test_against_naive_shifted_harmonic(self):
        rng = random.Random(29)
        for _ in range(8):
            upper = [F(rng.randint(1, 6)), F(rng.randint(1, 6))]
            lower = [F(rng.randint(1, 6))]
            n = rng.randint(0, 9)
            c1 = F(rng.randint(1, 5), rng.randint(1, 3))
            c2 = F(rng.randint(1, 5), rng.randint(1, 3))
            spec = series(upper, lower, 1, n)
            expected = sum(
                term(spec, k) * (shifted_harmonic(c1, k) - shifted_harmonic(c2, k))
                for k in range(n + 1)
            )
            assert harmonic_weighted_sum(spec, c1, c2) == expected

    def test_rejects_vanishing_weight_denominator(self):
        spec = series([F(1, 2), F(1, 2)], [1], 1, 6)
        message = r"shifted harmonic sum hits a zero denominator at c\+3 = 0 \(c=-3\)"
        with pytest.raises(ZeroLowerPochhammer, match=message):
            harmonic_weighted_sum(spec, -3, 1)
        with pytest.raises(ZeroLowerPochhammer, match=message):
            harmonic_weighted_sum(spec, 1, -3)


# ---------------------------------------------------------------------------
# the binary-splitting tree against the Fraction loops it replaced


def loop_evaluate(spec):
    return sum(terms(spec), F(0))


def loop_affine(w, spec):
    return sum(w.at(k) * t for k, t in enumerate(terms(spec)))


def loop_harmonic(spec, c1, c2):
    c1 = F(c1)
    c2 = F(c2)
    shifted_harmonic(c1, spec.n)
    shifted_harmonic(c2, spec.n)
    acc = h1 = h2 = F(0)
    for k, t in enumerate(terms(spec)):
        if k > 0:
            h1 += 1 / (c1 + (k - 1))
            h2 += 1 / (c2 + (k - 1))
        acc += t * (h1 - h2)
    return acc


rationals = st.builds(F, st.integers(-12, 12), st.integers(1, 6))


def clear_of(n):
    """Rationals that are not an integer in (-n, 0]: fine as a lower
    parameter or a harmonic shift at truncation n."""
    return rationals.filter(lambda x: not (x.denominator == 1 and -n < x <= 0))


@st.composite
def specs(draw):
    n = draw(st.integers(0, 40))
    r = draw(st.integers(0, 3))
    upper = draw(st.lists(rationals, min_size=r + 1, max_size=r + 1))
    lower = draw(st.lists(clear_of(n), min_size=r, max_size=r))
    return series(upper, lower, draw(rationals), n)


class TestTreeAgainstLoops:
    @settings(max_examples=150, deadline=None)
    @given(spec=specs())
    def test_plain(self, spec):
        assert evaluate_exact(spec) == loop_evaluate(spec)

    @settings(max_examples=150, deadline=None)
    @given(spec=specs(), slope=rationals, intercept=rationals)
    def test_affine(self, spec, slope, intercept):
        w = AffineWeight(slope, intercept)
        assert affine_weighted_sum(w, spec) == loop_affine(w, spec)

    @settings(max_examples=150, deadline=None)
    @given(spec=specs(), data=st.data())
    def test_harmonic(self, spec, data):
        c1 = data.draw(clear_of(spec.n))
        c2 = data.draw(clear_of(spec.n))
        assert harmonic_weighted_sum(spec, c1, c2) == loop_harmonic(spec, c1, c2)

    def test_truncation_zero(self):
        spec = series([F(2, 3), -4], [F(-5, 2)], F(7, 3), 0)
        assert evaluate_exact(spec) == loop_evaluate(spec) == 1
        assert affine_weighted_sum(AffineWeight(3, F(-2, 5)), spec) == F(-2, 5)
        assert harmonic_weighted_sum(spec, F(1, 3), 0) == 0  # c = 0 is fine at n = 0

    def test_terminating_upper_parameter(self):
        spec = series([-3, F(1, 2)], [F(1, 3)], 2, 10)  # terms vanish from k = 4 on
        w = AffineWeight(F(1, 2), -1)
        assert evaluate_exact(spec) == loop_evaluate(spec)
        assert affine_weighted_sum(w, spec) == loop_affine(w, spec)
        assert harmonic_weighted_sum(spec, F(3, 2), 2) == loop_harmonic(spec, F(3, 2), 2)

    def test_lower_parameter_and_shift_at_minus_n(self):
        # (b)_k for b = -n and 1/(c+j) for c = -n only vanish past k = n, j = n-1
        n = 5
        spec = series([F(1, 2), 1], [-n], F(-1, 2), n)
        w = AffineWeight(2, 1)
        assert evaluate_exact(spec) == loop_evaluate(spec) == naive_sum([F(1, 2), 1], [-n], F(-1, 2), n)
        assert affine_weighted_sum(w, spec) == loop_affine(w, spec)
        assert harmonic_weighted_sum(spec, -n, F(1, 2)) == loop_harmonic(spec, -n, F(1, 2))


# ---------------------------------------------------------------------------
# the fold mod p^k against the exact tree reduced

SMALL_PRIMES = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]


def outcome(compute):
    """compute(), or NonIntegralDenominator if it raises that."""
    try:
        return compute()
    except NonIntegralDenominator:
        return NonIntegralDenominator


def central_series(n):
    return series([F(1, 2), F(1, 2)], [1], 1, n)


def unit_fractions(p):
    """Rationals u/v with p dividing neither u nor v."""
    return st.builds(F, st.integers(-12, 12).filter(lambda u: u % p), st.integers(1, 6).filter(lambda v: v % p))


@st.composite
def mod_cases(draw):
    """(spec, ctx, w) with odd p <= 47 and k <= 4, in three shapes.
    "units" keeps every step a p-unit: n < p, denominators prime to p, and
    each lower parameter u/v first meets u + v k ≡ 0 (mod p) at some
    k >= n. "any" draws denominators that are p now and then and n up to
    60, so that many sums are not p-integral. "sun" is 2F1(a, 1-a; 1 | 1)
    through k = p^r - 1 for a unit a, with unit weights: p-integral sums
    whose steps carry p (V > 0), the central sum among them."""
    shape = draw(st.sampled_from(("units", "any", "sun")))
    p = draw(st.sampled_from(SMALL_PRIMES[:5] if shape == "sun" else SMALL_PRIMES))
    ctx = PrimePower(p, draw(st.integers(1, 4)))
    if shape == "sun":
        n = p ** draw(st.integers(1, 3 if p <= 5 else 2)) - 1
        a = draw(unit_fractions(p).filter(lambda a: (1 - a).numerator % p))
        weights = unit_fractions(p)
        return series([a, 1 - a], [1], 1, n), ctx, AffineWeight(draw(weights), draw(weights))
    if shape == "units":
        n = draw(st.integers(0, p - 1))
        dens = st.sampled_from([v for v in range(1, 7) if v % p])
        lower_values = st.builds(
            lambda v, root, j: F(-root * v % p + j * p, v), dens, st.integers(n, p - 1), st.integers(-1, 1)
        )
    else:
        n = draw(st.integers(0, 60))
        dens = st.one_of(st.integers(1, 6), st.just(p))
        lower_values = st.builds(F, st.integers(-12, 12), dens).filter(
            lambda b: not (b.denominator == 1 and -n < b <= 0)
        )
    values = st.builds(F, st.integers(-12, 12), dens)
    r = draw(st.integers(0, 3))
    upper = draw(st.lists(values, min_size=r + 1, max_size=r + 1))
    lower = draw(st.lists(lower_values, min_size=r, max_size=r))
    spec = series(upper, lower, draw(values), n)
    return spec, ctx, AffineWeight(draw(values), draw(values))


class TestFoldAgainstExact:
    """The fold and exact-then-reduce agree on every draw: the same residue,
    or NonIntegralDenominator from both."""

    @settings(max_examples=200, deadline=None)
    @given(case=mod_cases())
    def test_plain(self, case):
        spec, ctx, _ = case
        expected = outcome(lambda: reduce_mod(evaluate_exact(spec), ctx))
        assert outcome(lambda: _weighted_mod(spec, ctx, F(1))) == expected
        assert outcome(lambda: evaluate_mod(spec, ctx)) == expected

    @settings(max_examples=200, deadline=None)
    @given(case=mod_cases())
    def test_affine(self, case):
        spec, ctx, w = case
        expected = outcome(lambda: reduce_mod(affine_weighted_sum(w, spec), ctx))
        assert outcome(lambda: affine_weighted_mod(w, spec, ctx)) == expected

    @settings(max_examples=100, deadline=None)
    @given(case=mod_cases(), data=st.data())
    def test_harmonic_steps(self, case, data):
        spec, ctx, _ = case
        c1 = data.draw(clear_of(spec.n))
        c2 = data.draw(clear_of(spec.n))
        expected = outcome(lambda: reduce_mod(harmonic_weighted_sum(spec, c1, c2), ctx))
        assert outcome(lambda: harmonic_weighted_mod(spec, c1, c2, ctx)) == expected

    def test_p_integral_with_steps_carrying_p(self):
        # the central sum through k = p^2 - 1, and guo-central's weight on it
        for p in (3, 5, 7, 13):
            spec = central_series(p * p - 1)
            assert _steps_valuation(spec, p, F(1)) > 0
            for k in (1, 2, 5):
                ctx = PrimePower(p, k)
                assert evaluate_mod(spec, ctx) == reduce_mod(evaluate_exact(spec), ctx)
                w = AffineWeight(1, -F(p**4 - 1, 4))
                assert affine_weighted_mod(w, spec, ctx) == reduce_mod(affine_weighted_sum(w, spec), ctx)

    def test_not_p_integral_names_the_valuation(self):
        # sum_{j<k} 1/(1/2 + j) takes in 1/(3/2) at k = 2 and 1/(9/2) at k = 5
        spec = central_series(9)
        with pytest.raises(NonIntegralDenominator, match=r"p=3: v_p\(sum\) = -2"):
            harmonic_weighted_mod(spec, F(1, 2), 1, PrimePower(3, 2))
        assert valuation(harmonic_weighted_sum(spec, F(1, 2), 1), 3) == -2

    def test_truncation_zero(self):
        # no steps: p in z and the upper denominators does not matter, w0 does
        spec = series([F(2, 5), 3], [F(4, 5)], F(1, 5), 0)
        ctx = PrimePower(5, 2)
        assert _weighted_mod(spec, ctx, F(1)) == evaluate_mod(spec, ctx) == 1
        assert affine_weighted_mod(AffineWeight(3, F(2, 7)), spec, ctx) == reduce_mod(F(2, 7), ctx)
        with pytest.raises(NonIntegralDenominator):
            affine_weighted_mod(AffineWeight(3, F(2, 5)), spec, ctx)

    def test_terminating_upper_parameter(self):
        # terms vanish from k = 4 on; at p = 31 the root of 1/3 + k is k = 10
        spec = series([-3, F(1, 2)], [F(1, 3)], 2, 10)
        ctx = PrimePower(31, 3)
        w = AffineWeight(F(1, 2), -1)
        assert _weighted_mod(spec, ctx, F(1)) == reduce_mod(evaluate_exact(spec), ctx)
        assert _weighted_mod(spec, ctx, w.intercept, 1, 2) == reduce_mod(affine_weighted_sum(w, spec), ctx)
        # one step further and 1/3 + k reaches 31/3: the same sum, since the
        # added term is 0
        longer = series([-3, F(1, 2)], [F(1, 3)], 2, 11)
        assert evaluate_mod(longer, ctx) == reduce_mod(evaluate_exact(spec), ctx)


def brute_force_valuation(spec, p, w0, step_den, step_forms):
    """v_p of w0's denominator times every step denominator Q(k) D(k),
    k < n, each built from its definition."""
    const = spec.z.denominator * prod(a.denominator for a in spec.upper) * step_den
    e = w0.denominator
    for k in range(spec.n):
        e *= const * (k + 1) * prod(b.numerator + b.denominator * k for b in spec.lower)
        e *= prod(u + v * k for u, v in step_forms)
    return valuation(e, p)


@st.composite
def valuation_cases(draw):
    """(spec, p, w0, step_den, step_forms). Each draw picks up to two of z,
    the upper and lower parameters, w0, step_den and the step forms whose
    denominators may be multiples of p. The forms are (numerator,
    denominator) of a Fraction, so coprime, and never 0 below n."""
    p = draw(st.sampled_from(SMALL_PRIMES))
    n = draw(st.one_of(st.integers(0, p), st.integers(0, 200)))
    names = ("z", "upper", "lower", "w0", "step_den", "forms")
    with_p = draw(st.sets(st.sampled_from(names), max_size=2))

    def dens(name):
        if name in with_p:
            return st.one_of(st.integers(1, 6), st.integers(1, 3).map(lambda j: j * p))
        return st.integers(1, 6)

    def values(name):
        return st.builds(F, st.integers(-3 * p * p, 3 * p * p), dens(name))

    def clear(name):
        return values(name).filter(lambda b: not (b.denominator == 1 and -n < b <= 0))

    r = draw(st.integers(0, 3))
    upper = draw(st.lists(values("upper"), min_size=r + 1, max_size=r + 1))
    lower = draw(st.lists(clear("lower"), min_size=r, max_size=r))
    spec = series(upper, lower, draw(values("z")), n)
    forms = [(c.numerator, c.denominator) for c in draw(st.lists(clear("forms"), max_size=2))]
    return spec, p, draw(values("w0")), draw(dens("step_den")), forms


class TestFoldRule:
    """The fold's one rule, precision k + V: V from ``_steps_valuation``
    against the valuation of the product it stands for."""

    @settings(max_examples=300, deadline=None)
    @given(case=valuation_cases())
    def test_matches_brute_force(self, case):
        spec, p, w0, step_den, forms = case
        assert _steps_valuation(spec, p, w0, step_den, forms) == brute_force_valuation(spec, p, w0, step_den, forms)

    def test_each_denominator_carrying_p(self):
        # at p = 7 and n = 3: 1/2 + k first reaches 7/2 at k = 3
        spec = series([F(1, 2), 1], [F(1, 2)], F(1, 3), 3)
        assert _steps_valuation(spec, 7, F(1), 5, [(1, 2)]) == 0
        assert _steps_valuation(series([F(1, 7), 1], [F(1, 2)], F(1, 3), 3), 7, F(1)) == 3
        assert _steps_valuation(series([F(1, 2), 1], [F(1, 2)], F(1, 49), 3), 7, F(1)) == 6
        assert _steps_valuation(spec, 7, F(1, 7)) == 1
        assert _steps_valuation(spec, 7, F(1), 14) == 3
        assert _steps_valuation(spec, 7, F(1), 1, [(1, 3)]) == 1  # 1 + 3*2 = 7
        # with no steps only w0 counts
        assert _steps_valuation(series([F(1, 7), 1], [F(3, 2)], F(1, 7), 0), 7, F(1, 7), 7) == 1

    def test_higher_powers_of_p(self):
        # (k+1)^2 for k < 49 gives 49!^2, and v_7(49!) = 7 + 1
        assert _steps_valuation(central_series(49), 7, F(1)) == 16
        # k + 1 for k < 26 gives 26! (v_7 = 3); -1 + 2k meets 7, 21, 35 and 7^2
        assert _steps_valuation(series([1], [], 1, 26), 7, F(1), 1, [(-1, 2)]) == 3 + 5

    def test_form_with_p_dividing_v(self):
        spec = series([F(1, 2), 1], [F(3, 7)], 1, 3)  # 3 + 7k is never 0 mod 7
        assert _steps_valuation(spec, 7, F(1)) == 0
        assert _steps_valuation(spec, 7, F(1), 1, [(15, 7)]) == 0
