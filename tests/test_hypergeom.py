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
    affine_weighted_sum,
    evaluate_exact,
    evaluate_mod,
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
