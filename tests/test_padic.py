"""Valuations, residues, and the p-adic Gamma function."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supercongruences.errors import NonIntegralDenominator
from supercongruences.exact import factorial
from supercongruences.padic import (
    GammaContext,
    PrimePower,
    Residue,
    g1_estimate,
    gamma_p_int,
    least_nonneg_residue,
    reduce_mod,
    valuation,
)

from supercongruences.primes import odd_primes_up_to
from supercongruences.verifiers import Case, run_case

F = Fraction
LARGE_PRIMES = [p for p in odd_primes_up_to(20_000) if p >= 1000]


def chunked_unit_product(n, p, modulus):
    """Test oracle: the product of 1 <= j < n with p not dividing j, mod
    modulus, walked in runs between consecutive multiples of p (the
    library's method before the block product)."""
    acc = 1
    a = 0
    while a * p + 1 < n:
        lo = a * p + 1
        hi = min(n, (a + 1) * p)
        acc = acc * math.prod(range(lo, hi)) % modulus
        a += 1
    return acc


def block_unit_product(n, p, k):
    """Test oracle: the same product mod p^k in blocks of p (the library's
    method before the log/exp closed form). For n = A p + b it is
    f(0) f(p) ... f((A-1) p) times the units in (A p, n), where
    f(x) = (x + 1)...(x + p - 1); since (a p)^i ≡ 0 for i >= k, each block
    is a k-term Horner evaluation of f's k lowest coefficients."""
    m = p**k
    c = [1] + [0] * (k - 1)
    for j in range(1, p):
        for i in range(k - 1, 0, -1):
            c[i] = (c[i] * j + c[i - 1]) % m
        c[0] = c[0] * j % m
    horner = [c[i] * p**i % m for i in reversed(range(k))]
    blocks = n // p
    acc = 1
    for a in range(blocks):
        f = 0
        for d in horner:
            f = f * a + d
        acc = acc * f % m
    return acc * math.prod(range(blocks * p + 1, n)) % m


@st.composite
def gamma_oracle_inputs(draw):
    """(p, k, n) with p <= 200 and k <= 4, the small-prime path (p <= k + 1)
    drawn often, and n biased toward n ≡ 0, 1, 2 (mod p), where the tail
    after the last full block is empty or one factor long."""
    p = draw(st.one_of(st.sampled_from([3, 5]), st.sampled_from(odd_primes_up_to(200))))
    k = draw(st.integers(1, 4))
    if draw(st.booleans()):
        n = draw(st.integers(0, 100_000 // p)) * p + draw(st.integers(0, 2))
    else:
        n = draw(st.integers(0, 100_000))
    return p, k, n


@st.composite
def large_prime_arguments(draw, unit_only=False):
    """(p, x) with p in [1000, 20000] and x a p-adic integer with a small
    numerator and denominator, pushed into pZ_p half the time unless
    units were requested."""
    p = draw(st.sampled_from(LARGE_PRIMES))
    num = draw(st.integers(-60, 60).filter(lambda v: v != 0))
    den = draw(st.integers(1, 24))
    x = F(num, den)
    if not unit_only and draw(st.booleans()):
        x *= p
    return p, x


def sample_padic_integers(rng, p, count, unit_only=False):
    """Seeded p-adic integers; every fifth sample is pushed into pZ_p
    unless units were requested."""
    out = []
    while len(out) < count:
        num = rng.randint(-60, 60)
        den = rng.randint(1, 24)
        if den % p == 0:
            continue
        if unit_only and num % p == 0:
            continue
        x = F(num, den)
        if not unit_only and len(out) % 5 == 4:
            x *= p
        out.append(x)
    return out


class TestValuation:
    def test_examples(self):
        assert valuation(50, 5) == 2
        assert valuation(F(3, 5), 5) == -1
        assert valuation(0, 7) == math.inf

    def test_multiplicative(self):
        rng = random.Random(11)
        for _ in range(30):
            p = rng.choice([3, 5, 7])
            a = F(rng.randint(1, 400), rng.randint(1, 400))
            b = F(rng.randint(1, 400), rng.randint(1, 400))
            assert valuation(a * b, p) == valuation(a, p) + valuation(b, p)


class TestPrimePower:
    def test_modulus_cached(self):
        assert PrimePower(5, 2).modulus == 25
        assert PrimePower(7, 3).modulus == 343

    @pytest.mark.parametrize("p,k", [(2, 1), (4, 1), (9, 2), (1, 1), (5, 0)])
    def test_rejects_bad_context(self, p, k):
        with pytest.raises(ValueError):
            PrimePower(p, k)


class TestResidue:
    def test_reduce_fixture(self):
        # 16384 ≡ 9 (mod 25), 9*14 ≡ 1, 25609 ≡ 9, so the value is 9*14 ≡ 1
        assert reduce_mod(F(25609, 16384), PrimePower(5, 2)) == 1

    def test_reduce_negative(self):
        assert reduce_mod(-1, PrimePower(7, 1)).value == 6

    def test_reduce_rejects_p_in_denominator(self):
        with pytest.raises(NonIntegralDenominator):
            reduce_mod(F(1, 5), PrimePower(5, 1))

    def test_mixed_context_is_an_error(self):
        a = Residue(1, PrimePower(5, 2))
        b = Residue(1, PrimePower(5, 1))
        with pytest.raises(ValueError):
            a + b
        with pytest.raises(ValueError):
            a * Residue(1, PrimePower(7, 2))

    def test_arithmetic(self):
        ctx = PrimePower(7, 2)
        a = Residue(45, ctx)
        assert (a + 10).value == 6
        assert (a - 46) == -1
        assert (3 * a).value == 135 % 49
        assert (a / a) == 1
        assert a.inverse() * a == 1
        assert (a**3).value == pow(45, 3, 49)
        assert (-a).value == 4

    @settings(max_examples=300, deadline=None)
    @given(
        p=st.sampled_from(odd_primes_up_to(60)),
        k=st.integers(1, 4),
        reps=st.tuples(*[st.integers(-(10**12), 10**12)] * 4),
    )
    def test_ring_laws(self, p, k, reps):
        ctx = PrimePower(p, k)
        m = ctx.modulus
        x, y, z, n = reps
        a, b, c = (Residue(v, ctx) for v in (x, y, z))
        zero, one = Residue(0, ctx), Residue(1, ctx)
        assert (a + b) + c == a + (b + c) and (a * b) * c == a * (b * c)
        assert a + b == b + a and a * b == b * a
        assert a * (b + c) == a * b + a * c and (a + b) * c == a * c + b * c
        assert a + zero == a and a * one == a and a * zero == zero
        assert a - a == zero and -(-a) == a and a - b == a + -b
        # an int coerces to the residue's context on either side
        assert a + n == n + a == a + Residue(n, ctx)
        assert a * n == n * a == a * Residue(n, ctx)
        assert a - n == -(n - a) == a - Residue(n, ctx)
        # every operation agrees with integer arithmetic mod p^k
        assert (a + b).value == (x + y) % m and (a - b).value == (x - y) % m
        assert (a * b).value == x * y % m and (-a).value == -x % m
        assert (a + n).value == (x + n) % m and (n - a).value == (n - x) % m
        assert a == x and a == x + m * n and a.value == x % m

    def test_centered(self):
        ctx = PrimePower(5, 2)
        assert Residue(24, ctx).centered() == -1
        assert Residue(3, ctx).centered() == 3

    def test_equal_residues_hash_equal(self):
        ctx = PrimePower(5, 2)
        assert Residue(3, ctx) == Residue(28, ctx) and hash(Residue(3, ctx)) == hash(Residue(28, ctx))
        assert len({Residue(3, ctx), Residue(-22, ctx), Residue(3, PrimePower(5, 1))}) == 2

    def test_at_precision(self):
        r = Residue(48, PrimePower(7, 2))
        assert r.at_precision(1) == Residue(6, PrimePower(7, 1))
        with pytest.raises(ValueError):
            r.at_precision(3)


class TestLeastNonnegResidue:
    def test_examples(self):
        assert least_nonneg_residue(F(-1, 2), 5) == 2
        assert least_nonneg_residue(0, 7) == 0

    def test_consistent_with_sign_rule(self):
        # <-(1/2)>_5 = 2 makes (-1)^2 = 1 agree with the (p-1)/2 = 2 sign
        assert (-1) ** least_nonneg_residue(-F(1, 2), 5) == (-1) ** ((5 - 1) // 2)

    def test_rejects_non_integral(self):
        with pytest.raises(NonIntegralDenominator):
            least_nonneg_residue(F(1, 5), 5)

    def test_rejects_p_not_an_odd_prime(self):
        with pytest.raises(ValueError, match="p must be an odd prime, got 9"):
            least_nonneg_residue(1, 9)


class TestGammaInteger:
    def test_at_zero(self):
        assert gamma_p_int(0, PrimePower(5, 2)) == 1

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="gamma_p_int needs n >= 0, got -1"):
            gamma_p_int(-1, PrimePower(5, 2))

    def test_at_one(self):
        # empty product with sign (-1)^1
        assert gamma_p_int(1, PrimePower(5, 2)).value == 24

    def test_at_three(self):
        assert gamma_p_int(3, PrimePower(5, 1)).value == 3

    def test_small_values_match_signed_factorial(self):
        # Gamma(n) = (-1)^n (n-1)! for 1 <= n <= p
        for p in (5, 7, 11, 13):
            for k in (1, 2, 3):
                ctx = PrimePower(p, k)
                for n in range(1, p + 1):
                    expected = reduce_mod((-1) ** n * factorial(n - 1), ctx)
                    assert gamma_p_int(n, ctx) == expected

    def test_matches_naive_product(self):
        # independent oracle: the defining product, one factor at a time
        for p, k in ((5, 2), (7, 2), (13, 1), (3, 4), (5, 3), (7, 3), (11, 3)):
            ctx = PrimePower(p, k)
            acc = 1
            for n in range(ctx.modulus):
                assert gamma_p_int(n, ctx).value == (-1) ** n * acc % ctx.modulus
                if n % p:
                    acc = acc * n % ctx.modulus

    @settings(max_examples=300, deadline=None)
    @given(
        p=st.sampled_from(odd_primes_up_to(60)),
        k=st.integers(1, 4),
        n=st.integers(0, 100_000),
    )
    def test_matches_chunked_oracle(self, p, k, n):
        # n ranges over many blocks, and past p^k when p^k is small
        ctx = PrimePower(p, k)
        expected = (-1) ** n * chunked_unit_product(n, p, ctx.modulus) % ctx.modulus
        assert gamma_p_int(n, ctx).value == expected

    @settings(max_examples=300, deadline=None)
    @given(gamma_oracle_inputs())
    def test_matches_block_oracle(self, inputs):
        # n runs past p^k whenever p^k < 10^5
        p, k, n = inputs
        ctx = PrimePower(p, k)
        expected = (-1) ** n * block_unit_product(n, p, k) % ctx.modulus
        assert gamma_p_int(n, ctx).value == expected

    def test_wolstenholme_blocks(self):
        # every block f(a p) = (a p + 1)...(a p + p - 1) is (p-1)! mod p^3
        # for p >= 5, which the k <= 3 path rests on; mod p^4 f(p) is not
        # (up to the first Wolstenholme prime, 16843), so k >= 4 cannot
        for p in odd_primes_up_to(200)[1:]:
            f0 = factorial(p - 1)
            for k in (1, 2, 3):
                m = p**k
                for a in range(40):
                    assert math.prod(range(a * p + 1, a * p + p)) % m == f0 % m
            assert math.prod(range(p + 1, 2 * p)) % p**4 != f0 % p**4

    @pytest.mark.parametrize("p", [7, 13, 31, 59])
    def test_closed_form_at_k5(self, p):
        # the log/exp path beyond the k <= 4 the strategies above draw
        ctx = PrimePower(p, 5)
        rng = random.Random(p)
        for n in [0, 1, p, p + 1, 40 * p - 1, *(rng.randrange(60_000) for _ in range(6))]:
            assert gamma_p_int(n, ctx).value == (-1) ** n * block_unit_product(n, p, 5) % ctx.modulus

    @pytest.mark.parametrize("p", [1009, 2003, 2999])
    def test_matches_chunked_oracle_at_large_primes(self, p):
        # the tail and (p-1)! each cross several 64-factor chunks
        rng = random.Random(p)
        for k in (1, 2, 3):
            ctx = PrimePower(p, k)
            for n in [p - 1, p, p + 65, 10 * p + p - 1, *(rng.randrange(11 * p) for _ in range(4))]:
                expected = (-1) ** n * chunked_unit_product(n, p, ctx.modulus) % ctx.modulus
                assert gamma_p_int(n, ctx).value == expected


class TestGammaRational:
    def test_half_squared_is_minus_one(self):
        ctx = PrimePower(5, 2)
        g = GammaContext(ctx).gamma(F(1, 2))
        assert g * g == reduce_mod(-1, ctx)

    def test_at_integer_two(self):
        assert GammaContext(PrimePower(7, 1)).gamma(2) == 1

    def test_quarter_precision_coherence_fixture(self):
        # derived with the naive-product oracle at both precisions
        lo = GammaContext(PrimePower(13, 2)).gamma(F(-1, 4))
        hi = GammaContext(PrimePower(13, 3)).gamma(F(-1, 4))
        assert lo.value == 50
        assert hi.at_precision(2) == lo

    def test_precision_coherence_sampled(self):
        rng = random.Random(21)
        for p in (5, 7, 11):
            for k in (1, 2):
                lo_ctx, hi_ctx = GammaContext(PrimePower(p, k)), GammaContext(PrimePower(p, k + 1))
                for x in sample_padic_integers(rng, p, 12):
                    assert hi_ctx.gamma(x).at_precision(k) == lo_ctx.gamma(x)

    def test_rejects_non_integral_argument(self):
        with pytest.raises(NonIntegralDenominator):
            GammaContext(PrimePower(5, 2)).gamma(F(1, 5))


class TestGammaFunctionalEquations:
    def test_shift(self):
        # Gamma(x+1)/Gamma(x) is -x for units and -1 on pZ_p
        rng = random.Random(31)
        for p in (5, 7, 11, 13):
            for k in (1, 2, 3):
                gc = GammaContext(PrimePower(p, k))
                for x in sample_padic_integers(rng, p, 50):
                    lhs = gc.gamma(x + 1)
                    if valuation(x, p) == 0:
                        assert lhs == reduce_mod(-x, gc.ctx) * gc.gamma(x)
                    else:
                        assert lhs == -gc.gamma(x)

    def test_reflection(self):
        # Gamma(x)Gamma(1-x) = (-1)^(<-x>_p - 1) on units
        rng = random.Random(41)
        for p in (5, 7, 11, 13):
            for k in (1, 2, 3):
                gc = GammaContext(PrimePower(p, k))
                for x in sample_padic_integers(rng, p, 50, unit_only=True):
                    sign = (-1) ** (least_nonneg_residue(-x, p) - 1)
                    assert gc.gamma(x) * gc.gamma(1 - x) == reduce_mod(sign, gc.ctx)

    def test_values_are_units(self):
        rng = random.Random(51)
        for p in (5, 7, 11):
            gc = GammaContext(PrimePower(p, 3))
            for x in sample_padic_integers(rng, p, 20):
                assert math.gcd(gc.gamma(x).value, p) == 1


class TestGammaLargePrimes:
    """Primes in [1000, 20000], beyond the reach of the block product in
    test time; the cost of one Gamma value is O(p k)."""

    @settings(max_examples=25, deadline=None)
    @given(large_prime_arguments(), st.sampled_from([2, 3]))
    def test_shift(self, px, k):
        p, x = px
        gc = GammaContext(PrimePower(p, k))
        factor = reduce_mod(-x, gc.ctx) if valuation(x, p) == 0 else -1
        assert gc.gamma(x + 1) == factor * gc.gamma(x)

    @settings(max_examples=25, deadline=None)
    @given(large_prime_arguments(unit_only=True), st.sampled_from([2, 3]))
    def test_reflection(self, px, k):
        p, x = px
        gc = GammaContext(PrimePower(p, k))
        sign = (-1) ** (least_nonneg_residue(-x, p) - 1)
        assert gc.gamma(x) * gc.gamma(1 - x) == reduce_mod(sign, gc.ctx)

    @settings(max_examples=25, deadline=None)
    @given(large_prime_arguments())
    def test_precision_coherence(self, px):
        p, x = px
        hi = GammaContext(PrimePower(p, 3)).gamma(x)
        assert hi.at_precision(2) == GammaContext(PrimePower(p, 2)).gamma(x)

    def test_dflst_end_to_end(self):
        assert run_case(Case("dflst", d=3, p=10009, strength=3)).verdict

    def test_guo_linear_end_to_end(self):
        assert run_case(Case("guo-linear", d=3, p=10009)).verdict

    def test_combined_end_to_end(self):
        assert run_case(Case("combined", d=3, p=10007)).verdict


class TestFirstOrderExpansion:
    def test_defining_case(self):
        # t = 1 holds by construction
        for p in (5, 7, 11):
            x = F(1, 3)
            g = g1_estimate(x, p)
            gc = GammaContext(PrimePower(p, 2))
            assert gc.gamma(x + p) == gc.gamma(x) * reduce_mod(1 + g.value * p, gc.ctx)

    def test_predicts_double_step(self):
        # frozen from the naive oracle: g = 0 at x = 1/3, p = 7, and the
        # t = 2 prediction 25 matches direct evaluation
        g = g1_estimate(F(1, 3), 7)
        assert g.value == 0
        gc = GammaContext(PrimePower(7, 2))
        predicted = gc.gamma(F(1, 3)) * reduce_mod(1 + g.value * 2 * 7, gc.ctx)
        assert predicted.value == 25
        assert gc.gamma(F(1, 3) + 14) == predicted

    def test_negative_step(self):
        x, p = F(1, 2), 5
        g = g1_estimate(x, p)
        gc = GammaContext(PrimePower(p, 2))
        assert gc.gamma(x - p) == gc.gamma(x) * reduce_mod(1 - g.value * p, gc.ctx)

    def test_linearity_with_rational_t(self):
        rng = random.Random(61)
        for p in (5, 7, 11):
            gc = GammaContext(PrimePower(p, 2))
            for x in sample_padic_integers(rng, p, 6):
                g = g1_estimate(x, p)
                for t in (0, 1, -1, 2, -2, F(1, 3), F(1, 4)):
                    if F(t).denominator % p == 0:
                        continue
                    expected = gc.gamma(x) * reduce_mod(1 + F(g.value) * t * p, gc.ctx)
                    assert gc.gamma(x + t * p) == expected

    def test_requires_p_at_least_five(self):
        with pytest.raises(ValueError):
            g1_estimate(F(1, 2), 3)
