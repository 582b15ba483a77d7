"""Exact building blocks: rising factorials, harmonic sums, polynomials."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from supercongruences.errors import ZeroLowerPochhammer
from supercongruences.exact import (
    RationalPoly,
    binomial,
    check_harmonic_shift,
    factorial,
    harmonic,
    poch_poly,
    pochhammer,
    shifted_harmonic,
)

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
        assert harmonic(0) == 0
        assert harmonic(1) == 1
        assert harmonic(3) == F(11, 6)

    def test_matches_shifted_at_one(self):
        for k in range(101):
            assert harmonic(k) == shifted_harmonic(1, k)

    def test_shifted_values(self):
        assert shifted_harmonic(5, 0) == 0
        assert shifted_harmonic(1, 3) == F(11, 6)
        assert shifted_harmonic(F(1, 2), 2) == F(8, 3)  # 2 + 2/3

    def test_shifted_rejects_vanishing_summand(self):
        with pytest.raises(ZeroLowerPochhammer):
            shifted_harmonic(0, 1)
        with pytest.raises(ZeroLowerPochhammer):
            shifted_harmonic(-2, 5)

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


class TestRationalPoly:
    def test_poch_poly_single_factor(self):
        assert poch_poly(0, 1).coeffs == (F(1), F(1))

    def test_poch_poly_expanded(self):
        # (1+x)(2+x) = 2 + 3x + x^2
        assert poch_poly(0, 2).coeffs == (F(2), F(3), F(1))

    def test_poch_poly_constant(self):
        p = poch_poly(F(1, 2), 0)
        assert p.coeffs == (F(1),)
        assert p.degree == 0

    def test_derivative(self):
        p = RationalPoly((F(2), F(3), F(1)))
        assert p.derivative().coeffs == (F(3), F(2))

    def test_derivative_of_constant_is_zero_poly(self):
        z = RationalPoly((F(7),)).derivative()
        assert z.coeffs == ()
        assert z.degree is None

    def test_eval(self):
        assert RationalPoly((F(1), F(1)))(-1) == 0

    def test_trailing_zeros_stripped(self):
        assert RationalPoly((F(1), F(0), F(0))).coeffs == (F(1),)

    def test_add_mul_against_eval(self):
        rng = random.Random(7)
        for _ in range(25):
            a = RationalPoly(tuple(random_rational(rng) for _ in range(rng.randint(0, 4))))
            b = RationalPoly(tuple(random_rational(rng) for _ in range(rng.randint(0, 4))))
            t = random_rational(rng)
            assert (a + b)(t) == a(t) + b(t)
            assert (a * b)(t) == a(t) * b(t)

    def test_poch_poly_evaluates_to_pochhammer(self):
        rng = random.Random(202)
        for _ in range(20):
            alpha = random_rational(rng)
            k = rng.randint(0, 8)
            t = random_rational(rng)
            assert poch_poly(alpha, k)(t) == pochhammer(1 + alpha + t, k)


class TestDerivativeIdentities:
    """d/dx (1+a+x)_k equals (1+a+x)_k times the shifted harmonic sum at
    1+a+x, and the reciprocal picks up the same factor with a minus sign."""

    def _sample(self, rng):
        while True:
            alpha = random_rational(rng)
            k = rng.randint(0, 10)
            t = random_rational(rng)
            base = 1 + alpha + t
            if all(base + j != 0 for j in range(k)):
                return alpha, k, t, base

    def test_derivative_identity(self):
        rng = random.Random(303)
        for _ in range(30):
            alpha, k, t, base = self._sample(rng)
            poly = poch_poly(alpha, k)
            assert poly.derivative()(t) == pochhammer(base, k) * shifted_harmonic(base, k)

    def test_reciprocal_identity_via_quotient_rule(self):
        # d/dx (1/P) = -P'/P^2 must match -(1/P) * harmonic factor
        rng = random.Random(404)
        for _ in range(30):
            beta, k, t, base = self._sample(rng)
            poly = poch_poly(beta, k)
            value = poly(t)
            lhs = -poly.derivative()(t) / value**2
            rhs = -shifted_harmonic(base, k) / value
            assert lhs == rhs
