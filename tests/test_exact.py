"""Exact building blocks: rising factorials, binomials, shifted harmonic sums."""

import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from supercongruences.errors import NonIntegralDenominator, ZeroLowerPochhammer
from supercongruences.exact import (
    binomial,
    check_harmonic_shift,
    factorial,
    int_text,
    parse_int,
    pochhammer,
    rational_text,
    shifted_harmonic,
    to_fraction,
)
from supercongruences.hypergeom import AffineWeight, SeriesSpec, harmonic_weighted_sum, series
from supercongruences.km import KmInstance, km_series
from supercongruences.padic import GammaContext, PrimePower, Residue, g1_estimate, reduce_mod, valuation
from supercongruences.verifiers import Case

F = Fraction


def random_rational(rng, span=12, max_den=9):
    return F(rng.randint(-span, span), rng.randint(1, max_den))


def naive_pochhammer(x, n):
    """(x)_n one Fraction factor at a time: the oracle for the integer product."""
    acc = F(1)
    x = F(x)
    for j in range(n):
        acc *= x + j
    return acc


def pochhammer_derivative(x, n):
    """d/dx (x)_n by the product rule: the sum over i of (x)_n with its factor x+i left out."""
    return sum((math.prod(x + j for j in range(n) if j != i) for i in range(n)), F(0))


class TestPochhammer:
    def test_empty_product(self):
        assert pochhammer(F(1, 2), 0) == 1

    def test_half_to_four(self):
        # 1/2 * 3/2 * 5/2 * 7/2 by hand
        assert pochhammer(F(1, 2), 4) == F(105, 16)

    def test_at_one_is_factorial(self):
        assert pochhammer(1, 5) == 120
        for n in range(1, 30):
            assert pochhammer(1, n) == factorial(n)

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            pochhammer(F(1, 2), -1)

    def test_product_rule(self):
        # (x)_{m+n} = (x)_m (x+m)_n
        rng = random.Random(101)
        for _ in range(40):
            x = random_rational(rng)
            m, n = rng.randint(0, 8), rng.randint(0, 8)
            assert pochhammer(x, m + n) == pochhammer(x, m) * pochhammer(x + m, n)

    # negative x with n past -x crosses zero (and is 0 when x is an integer)
    @given(num=st.integers(-80, 80), den=st.integers(1, 30), n=st.integers(0, 60))
    @example(num=-7, den=3, n=60)
    @example(num=-5, den=1, n=60)
    @example(num=-1, den=2, n=1)
    @example(num=11, den=4, n=0)
    def test_matches_fraction_loop(self, num, den, n):
        x = F(num, den)
        got = pochhammer(x, n)
        assert type(got) is F and got == naive_pochhammer(x, n)


class TestTextCodec:
    @given(st.integers(), st.integers(min_value=1))
    def test_rational_text_is_str_below_the_limit(self, num, den):
        q = F(num, den)
        assert rational_text(q) == str(q)
        assert F(parse_int(rational_text(q.numerator)), q.denominator) == q

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int/str digit limit before 3.10.7")
    def test_past_the_limit(self):
        values = [7**6000 + 2, -(10**5000) - 7]  # 5,071 and 5,001 digits
        texts = [int_text(v) for v in values]
        assert [parse_int(t) for t in texts] == values
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)  # 0 lifts the limit
        try:
            assert texts == [str(v) for v in values]
            assert rational_text(F(values[1], 3**9000)) == str(F(values[1], 3**9000))
        finally:
            sys.set_int_max_str_digits(old)

    # one syntax at every length, what int_text writes: an optional "-" and
    # ASCII digits; each other form short and past the 4,300-digit limit
    @pytest.mark.parametrize(
        "text",
        ["", "12a", "--3", "1/2", "1" * 5000 + "x", "-", "+12", "1_2", " 12", "12 ", "\u0661\u0662"]
        + ["+" + "1" * 5000, "1_" + "1" * 5000, " " + "1" * 5000, "1" * 5000 + " ", "\u0661" * 5000],
    )
    def test_parse_int_rejects_non_integers(self, text):
        with pytest.raises(ValueError):
            parse_int(text)


class TestFactorialBinomial:
    def test_factorial_values(self):
        assert factorial(0) == 1
        assert factorial(4) == 24
        # iterated product oracle
        acc = 1
        for j in range(1, 11):
            acc *= j
        assert factorial(10) == acc == 3628800

    def test_binomial_values(self):
        assert binomial(4, 2) == 6
        assert binomial(2, 1) == 2
        assert binomial(10, 5) == 252

    def test_binomial_pascal_oracle(self):
        rows = [[1]]
        for n in range(1, 13):
            prev = rows[-1]
            rows.append(
                [1] + [prev[k - 1] + prev[k] for k in range(1, n)] + [1]
            )
        for n, row in enumerate(rows):
            for k, expected in enumerate(row):
                assert binomial(n, k) == expected

    def test_binomial_rejects_k_above_n(self):
        with pytest.raises(ValueError):
            binomial(3, 4)
        with pytest.raises(ValueError):
            binomial(3, -1)


class TestHarmonic:
    def test_values(self):
        # H_k = shifted_harmonic(1, k)
        assert shifted_harmonic(1, 0) == 0
        assert shifted_harmonic(1, 1) == 1
        assert shifted_harmonic(1, 3) == F(11, 6)

    def test_shifted_values(self):
        assert shifted_harmonic(5, 0) == 0
        assert shifted_harmonic(1, 3) == F(11, 6)
        assert shifted_harmonic(F(1, 2), 2) == F(8, 3)  # 2 + 2/3

    def test_shifted_rejects_vanishing_summand(self):
        with pytest.raises(ZeroLowerPochhammer):
            shifted_harmonic(0, 1)
        with pytest.raises(ZeroLowerPochhammer):
            shifted_harmonic(-2, 5)

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError, match="k >= 0"):
            shifted_harmonic(F(1, 2), -1)

    @given(
        c=st.builds(F, st.integers(-15, 15), st.sampled_from([1, 1, 2, 3])),
        k=st.integers(-2, 15),
    )
    def test_shift_check_matches_termwise_scan(self, c, k):
        # the O(1) check raises exactly when some summand 1/(c+j), j < k, is 1/0
        vanishing = [j for j in range(k) if c + j == 0]
        if vanishing:
            message = f"at c\\+{vanishing[0]} = 0 \\(c={c}\\)"
            with pytest.raises(ZeroLowerPochhammer, match=message):
                check_harmonic_shift(c, k)
        else:
            check_harmonic_shift(c, k)


class TestDerivativeIdentities:
    """d/dx (x)_k equals (x)_k times the shifted harmonic sum at x, and the
    reciprocal picks up the same factor with a minus sign; the product rule
    gives the derivative independently."""

    def _sample(self, rng):
        while True:
            alpha = random_rational(rng)
            k = rng.randint(0, 10)
            base = 1 + alpha + random_rational(rng)
            if all(base + j != 0 for j in range(k)):
                return k, base

    def test_derivative_identity(self):
        rng = random.Random(303)
        for _ in range(30):
            k, base = self._sample(rng)
            assert pochhammer_derivative(base, k) == pochhammer(base, k) * shifted_harmonic(base, k)

    def test_reciprocal_identity_via_quotient_rule(self):
        # d/dx (1/P) = -P'/P^2 must match -(1/P) * harmonic factor
        rng = random.Random(404)
        for _ in range(30):
            k, base = self._sample(rng)
            value = pochhammer(base, k)
            lhs = -pochhammer_derivative(base, k) / value**2
            rhs = -shifted_harmonic(base, k) / value
            assert lhs == rhs


CTX5 = PrimePower(5, 1)
CENTRAL4 = series([F(1, 2), F(1, 2)], [1], 1, 4)

# each rational entry point, called with x where it takes a rational
RATIONAL_ENTRY_POINTS = {
    "valuation": lambda x: valuation(x, 5),
    "reduce_mod": lambda x: reduce_mod(x, CTX5),
    "gamma": lambda x: GammaContext(CTX5).gamma(x),
    "g1_estimate": lambda x: g1_estimate(x, 5),
    "series-upper": lambda x: SeriesSpec([x, 1], [1], 1, 3),
    "series-lower": lambda x: SeriesSpec([1, 1], [x], 1, 3),
    "series-z": lambda x: SeriesSpec([1, 1], [1], x, 3),
    "weight-slope": lambda x: AffineWeight(x, 1),
    "weight-intercept": lambda x: AffineWeight(1, x),
    "pochhammer": lambda x: pochhammer(x, 2),
    "shifted_harmonic": lambda x: shifted_harmonic(x, 2),
    "harmonic_weighted_sum": lambda x: harmonic_weighted_sum(CENTRAL4, x, 1),
    "KmInstance": lambda x: KmInstance((1,), (x,)),
    "km_series": lambda x: km_series(KmInstance((1,), (1,)), x, 1),
    "Case-alpha": lambda x: Case("sun", alpha=x, p=7),
    "Case-x": lambda x: Case("km-deformed", d=4, p=7, x=x, y=0),
}


class TestFloatsRefused:
    """A float is its binary expansion, not the rational its text names:
    every rational entry point refuses it, where the Fraction it stands
    for by eye is taken exactly."""

    @pytest.mark.parametrize("call", RATIONAL_ENTRY_POINTS.values(), ids=RATIONAL_ENTRY_POINTS)
    def test_float_raises(self, call):
        with pytest.raises(TypeError, match=r"got the float 0\.1$"):
            call(0.1)

    def test_the_rational_is_taken_exactly(self):
        assert valuation(F(1, 10), 5) == -1
        assert valuation(F(1, 10), 2) == -1
        assert pochhammer(F(1, 10), 2) == F(11, 100)
        assert to_fraction(3) == F(3) and to_fraction(F(1, 10)) == F(1, 10)
        with pytest.raises(NonIntegralDenominator):
            reduce_mod(F(1, 10), CTX5)
        assert reduce_mod(F(1, 3), CTX5) == Residue(2, CTX5)
