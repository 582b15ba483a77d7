"""Truncated series: terms, exact sums, modular reduction, weighted sums."""

import random
from fractions import Fraction
from itertools import repeat
from math import gcd, prod
from operator import mul

import pytest
from hypothesis import Phase, assume, given, settings
from hypothesis import strategies as st

import supercongruences.hypergeom as hypergeom_mod
from supercongruences.errors import NonIntegralDenominator, ZeroLowerPochhammer
from supercongruences.exact import factorial, pochhammer, shifted_harmonic
from supercongruences.hypergeom import (
    _LEAF,
    AffineWeight,
    _linear_products,
    _product,
    _steps_valuation,
    _weighted_mod,
    _weighted_sum,
    affine_weighted_mod,
    affine_weighted_sum,
    evaluate_exact,
    evaluate_mod,
    harmonic_weighted_mod,
    harmonic_weighted_sum,
    series,
    step_ratios,
    term,
    terms,
)
from supercongruences.km import KmInstance, km_rhs, km_series
from supercongruences.padic import PrimePower, Residue, reduce_mod, valuation
from supercongruences.primes import odd_primes_up_to
from supercongruences.verifiers import combined_series, dflst_series, guo_even_series, guo_odd_series

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


# parameter lists as runs of one object (as the verifier shapes build them),
# with ints, negatives and equal values in separate runs
PARAMETER_RUNS = st.lists(
    st.tuples(st.one_of(st.integers(-3, 3), st.builds(F, st.integers(-6, 6), st.integers(1, 4))), st.integers(1, 3)),
    max_size=4,
).map(lambda runs: [x for x, count in runs for _ in range(count)])


def naive_forms(upper, lower):
    """SeriesSpec.forms as first written: each parameter as a Fraction,
    then equal forms counted, the lower ones followed by the (1, 1) of k!."""

    def grouped(forms):
        counts = {}
        for form in forms:
            counts[form] = counts.get(form, 0) + 1
        return tuple(counts.items())

    upper, lower = [F(a) for a in upper], [F(b) for b in lower]
    return (
        grouped([(a.numerator, a.denominator) for a in upper]),
        grouped([*((b.numerator, b.denominator) for b in lower), (1, 1)]),
    )


def naive_spec_error(upper, lower, n):
    """The (type, message) SeriesSpec raises, checked in its order, or None."""
    if len(upper) != len(lower) + 1:
        return ValueError, f"need one more upper than lower parameter, got {len(upper)} upper / {len(lower)} lower"
    if n < 0:
        return ValueError, f"truncation index must be >= 0, got {n}"
    for b in map(F, lower):
        if b.denominator == 1 and -n < b <= 0:
            return ZeroLowerPochhammer, f"lower parameter {b} has ({b})_{1 - b} = 0 within truncation {n}"
    return None


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

    @settings(max_examples=300, deadline=None)
    @given(
        upper=PARAMETER_RUNS,
        lower=PARAMETER_RUNS,
        z=st.one_of(st.integers(-3, 3), st.builds(F, st.integers(-6, 6), st.integers(1, 6))),
        n=st.integers(-1, 6),
        counts_match=st.booleans(),
    )
    def test_one_pass_against_naive_grouping(self, upper, lower, z, n, counts_match):
        if counts_match:
            upper = (upper + [1] * len(lower))[: len(lower) + 1]
        try:
            spec = series(upper, lower, z, n)
        except (ValueError, ZeroLowerPochhammer) as exc:
            assert (type(exc), str(exc)) == naive_spec_error(upper, lower, n)
        else:
            assert naive_spec_error(upper, lower, n) is None
            assert spec.forms == naive_forms(upper, lower)
            dens = [prod(F(x).denominator for x in xs) for xs in (lower, upper)]
            assert spec.consts == (F(z).numerator * dens[0], F(z).denominator * dens[1])
            assert spec.upper == tuple(map(F, upper)) and spec.lower == tuple(map(F, lower))
            assert all(type(x) is F for x in (*spec.upper, *spec.lower, spec.z))

    def test_verifier_shapes_equal_their_fraction_arithmetic(self):
        # the shapes build each parameter as one Fraction(u, v)
        for d in range(2, 9):
            a = F(1, d)
            assert dflst_series(d, 5) == series([1 - a] * d, [1] * (d - 1), 1, 5)
            assert guo_even_series(d, 5) == series([a - 1] + [1 + a] * (d - 1), [1] * (d - 1), 1, 5)
            assert guo_odd_series(d, 5) == series([a, a] + [1 + a] * (d - 2), [1] * (d - 1), 1, 5)
            assert combined_series(d, 5) == series([a - 1, a] + [1 + a] * (d - 2), [1] * (d - 1), 1, 5)


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
# the exact sums against the Fraction loops they replaced


def loop_evaluate(spec):
    return sum(terms(spec), F(0))


def loop_affine(w, spec):
    return sum((w.slope * k + w.intercept) * t for k, t in enumerate(terms(spec)))


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
def specs(draw, ns=st.integers(0, 40)):
    n = draw(ns)
    r = draw(st.integers(0, 3))
    upper = draw(st.lists(rationals, min_size=r + 1, max_size=r + 1))
    lower = draw(st.lists(clear_of(n), min_size=r, max_size=r))
    return series(upper, lower, draw(rationals), n)


# truncations around the tree's leaf: none, within one leaf, whole leaves, past one
TREE_NS = st.one_of(
    st.just(0),
    st.integers(1, _LEAF - 1),
    st.sampled_from([_LEAF, 2 * _LEAF, 3 * _LEAF]),
    st.integers(_LEAF + 1, 3 * _LEAF + 5),
)


class TestTreeAgainstLoops:
    @settings(max_examples=200, deadline=None)
    @given(spec=specs(TREE_NS))
    def test_plain(self, spec):
        # evaluate_exact runs the three-entry product
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


class TestAffineRoutes:
    """affine_weighted_sum's one product route against the termwise loop on
    every shape of weight s k + i: s = 0, i = 0, c = i/s hitting -k within
    the truncation, and c clear."""

    @settings(max_examples=300, deadline=None)
    @given(
        spec=specs(TREE_NS),
        shape=st.sampled_from(["slope 0", "intercept 0", "c hits -k", "c clear"]),
        data=st.data(),
    )
    def test_against_termwise_loop(self, spec, shape, data):
        n = spec.n
        nonzero = rationals.filter(bool)
        if shape == "slope 0":
            s, i = F(0), data.draw(rationals)
        elif shape == "intercept 0":
            s, i = data.draw(nonzero), F(0)
        else:
            s = data.draw(nonzero)
            if shape == "c hits -k":
                assume(n >= 2)
                c = F(-data.draw(st.integers(1, n - 1)))  # c + k = 0 at some 0 < k < n
            else:
                c = data.draw(clear_of(n).filter(bool))
            i = c * s
        w = AffineWeight(s, i)
        assert affine_weighted_sum(w, spec) == loop_affine(w, spec)


def tree_shapes(n):
    """Specs truncated at n for the plain tree: central, km-shaped
    (terminating at its total shift n), dflst, one with negative lower
    parameters and z (negative step denominators), and one whose upper
    parameter -(n//2 + 1) zeroes the terms past n//2 + 1."""
    third = n // 3
    km = KmInstance((third, third, n - 2 * third), (F(6, 5), F(-2, 3), 1))
    return [
        central_series(n),
        km_series(km, -n, n),
        dflst_series(5, n),
        series([F(-7, 3), F(5, 2), 3], [F(-11, 2), F(-1, 4)], F(-3, 7), n),
        series([-(n // 2) - 1, F(1, 2)], [F(1, 3)], 2, n),
    ]


class TestStrippedTree:
    """The exact sums against the termwise loops, at truncations around the
    tree's leaf size and past it, where the halves meet their cross gcd."""

    SIZES = sorted({0, 1, _LEAF - 1, _LEAF, _LEAF + 1, 2 * _LEAF + 1, 300})

    @pytest.fixture
    def strips(self, monkeypatch):
        """Counts the cross gcds _product takes, and those that found content."""
        counts = {"calls": 0, "stripped": 0}

        def counting(x, y):
            counts["calls"] += 1
            g = gcd(x, y)
            counts["stripped"] += g != 1
            return g

        monkeypatch.setattr(hypergeom_mod, "gcd", counting)
        return counts

    @pytest.mark.parametrize("n", SIZES)
    def test_plain_affine_harmonic(self, n, strips):
        w = AffineWeight(F(-3, 7), F(5, 2))
        # c1 + j < 0 for every j < n: the harmonic steps have negative D(k)
        c1, c2 = F(-2 * n - 1, 2), F(1, 3)
        for spec in tree_shapes(n):
            before = strips["calls"]
            assert evaluate_exact(spec) == loop_evaluate(spec)
            assert affine_weighted_sum(w, spec) == loop_affine(w, spec)
            assert harmonic_weighted_sum(spec, c1, c2) == loop_harmonic(spec, c1, c2)
            if n == 300:
                assert strips["calls"] > before
        if n == 300:
            assert strips["stripped"] > 0
        elif n <= _LEAF:
            assert strips["calls"] == 0  # one leaf: no halves to compose

    def test_km_denominator_stays_narrow(self):
        # km-deformed at d = 6, p = 977, x = -7/3, y = 5/2: the halves divided
        # by their cross gcd end on 956 bits; taking the gcd without dividing
        # leaves 63,079 bits, of which 63,054 are common to all three entries
        m = (977 + 1) // 6
        inst = KmInstance((m - 2, m, m, m, m, m), (F(-4, 3), F(7, 2), 1, 1, 1, 1))
        spec = km_series(inst, -inst.total_shift, inst.total_shift)
        a, d, e = _product(zip(*step_ratios(spec), repeat(1)), spec.n)
        assert e.bit_length() <= 1000
        assert F(a + d, e) == km_rhs(inst)  # the Karlsson-Minton closed form


def fold_one_at_a_time(steps):
    """The product of the steps (P, Q, W), each acting on (a, d, e) in turn."""
    a, d, e = 1, 0, 1
    for p, q, w in steps:
        a, d, e = p * a, q * (w * a + d), q * e
    return a, d, e


STEP_ENTRIES = st.integers(-(2**24), 2**24)


class TestProduct:
    """_product's recursive halving, cross gcd and weighted leaf against
    the one-at-a-time fold."""

    @pytest.mark.parametrize("n", sorted({0, 1, _LEAF - 1, _LEAF, _LEAF + 1, 3 * _LEAF + 5, 100}))
    def test_draws_exactly_n_steps(self, n):
        steps = zip(range(200), range(1000, 1200), range(2000, 2200))
        _product(steps, n)
        assert next(steps) == (n, 1000 + n, 2000 + n)

    # no shrink phase: under a broken compose, shrinking these streams ran for
    # minutes and grew the process past 900 MB before the failure was reported
    @settings(max_examples=200, deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate])
    @given(n=st.integers(0, 12 * _LEAF), extra=st.integers(0, 3), data=st.data())
    def test_against_one_at_a_time_fold(self, n, extra, data):
        # the cross gcd at other nodes can leave other content: compare the maps
        step = st.tuples(STEP_ENTRIES, STEP_ENTRIES.filter(bool), STEP_ENTRIES)  # Q != 0
        steps = data.draw(st.lists(step, min_size=n + extra, max_size=n + extra))
        stream = iter(steps)
        a, d, e = _product(stream, n)
        fa, fd, fe = fold_one_at_a_time(steps[:n])
        assert (F(a, e), F(d, e)) == (F(fa, fe), F(fd, fe))
        assert list(stream) == steps[n:]


# ---------------------------------------------------------------------------
# the fold mod p^k against the exact sums reduced

SMALL_PRIMES = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]


def assert_folds_to(compute, exact, ctx):
    """compute() is the exact value reduced mod p^k; when that value is not
    p-integral, it raises NonIntegralDenominator naming p and v_p(exact)."""
    p = ctx.p
    if exact.denominator % p:
        assert compute() == reduce_mod(exact, ctx)
        return
    with pytest.raises(NonIntegralDenominator) as raised:
        compute()
    assert str(raised.value) == f"sum is not p-integral at p={p}: v_p(sum) = {valuation(exact, p)}"


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
    whose steps carry p (V > 0), the central sum among them. In every
    shape w's slope and intercept are each divided by p one time in four,
    so that v_p of the weight's denominator D enters V."""
    shape = draw(st.sampled_from(("units", "any", "sun")))
    p = draw(st.sampled_from(SMALL_PRIMES[:5] if shape == "sun" else SMALL_PRIMES))
    ctx = PrimePower(p, draw(st.integers(1, 4)))
    over = st.sampled_from([1, 1, 1, p])
    if shape == "sun":
        n = p ** draw(st.integers(1, 3 if p <= 5 else 2)) - 1
        a = draw(unit_fractions(p).filter(lambda a: (1 - a).numerator % p))
        weights = unit_fractions(p)
        return series([a, 1 - a], [1], 1, n), ctx, AffineWeight(draw(weights) / draw(over), draw(weights) / draw(over))
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
    return spec, ctx, AffineWeight(draw(values) / draw(over), draw(values) / draw(over))


class TestFoldAgainstExact:
    """The fold and exact-then-reduce agree on every draw: the same residue,
    or, for a sum that is not p-integral, NonIntegralDenominator naming its
    valuation."""

    @settings(max_examples=200, deadline=None)
    @given(case=mod_cases())
    def test_plain(self, case):
        spec, ctx, _ = case
        assert_folds_to(lambda: evaluate_mod(spec, ctx), evaluate_exact(spec), ctx)

    @settings(max_examples=200, deadline=None)
    @given(case=mod_cases())
    def test_affine(self, case):
        spec, ctx, w = case
        assert_folds_to(lambda: affine_weighted_mod(w, spec, ctx), affine_weighted_sum(w, spec), ctx)

    @settings(max_examples=100, deadline=None)
    @given(case=mod_cases(), data=st.data())
    def test_harmonic_steps(self, case, data):
        spec, ctx, _ = case
        c1 = data.draw(clear_of(spec.n))
        c2 = data.draw(clear_of(spec.n))
        assert_folds_to(lambda: harmonic_weighted_mod(spec, c1, c2, ctx), harmonic_weighted_sum(spec, c1, c2), ctx)

    def test_equal_harmonic_shifts_hitting_p(self):
        # 1/3 + k reaches 7/3 at k = 2 and 28/3 at k = 9: the step forms carry
        # p into V though the weight step N is 0, and the sum is still 0
        spec = central_series(12)
        assert _steps_valuation(spec, 7, [(1, 3), (1, 3)]) > _steps_valuation(spec, 7)
        for k in (1, 3):
            assert harmonic_weighted_mod(spec, F(1, 3), F(1, 3), PrimePower(7, k)) == 0

    def test_constant_weight_with_step_forms(self):
        # D(k) = 1 + 2k, which is 5 at k = 2 and 25 at k = 12: V counts D
        # whether the weight stays 0 (N = 0) or moves by N/D(k)
        for n in (4, 24):
            spec = central_series(n)
            assert _steps_valuation(spec, 5, [(1, 2)]) > _steps_valuation(spec, 5)
            for k in (1, 3):
                ctx = PrimePower(5, k)
                assert _weighted_mod(spec, ctx, 0, [(1, 2)]) == 0
                assert_folds_to(lambda: _weighted_mod(spec, ctx, 3, [(1, 2)]), _weighted_sum(spec, 3, [(1, 2)]), ctx)

    def test_p_integral_with_steps_carrying_p(self):
        # the central sum through k = p^2 - 1, and guo-central's weight on it
        for p in (3, 5, 7, 13):
            spec = central_series(p * p - 1)
            assert _steps_valuation(spec, p) > 0
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
        # no steps: p in z, in the upper denominators or in the harmonic step
        # forms does not matter; in the affine weight's denominator D it does
        spec = series([F(2, 5), 3], [F(4, 5)], F(1, 5), 0)
        ctx = PrimePower(5, 2)
        assert evaluate_mod(spec, ctx) == 1
        assert _weighted_mod(spec, ctx, 1, [(5, 2)]) == 0  # 5 + 2k is 5 at k = 0
        assert affine_weighted_mod(AffineWeight(3, F(2, 7)), spec, ctx) == reduce_mod(F(2, 7), ctx)
        # D = 35: V = 1, and W_0 = 10 over 35 is the unit 2/7
        assert affine_weighted_mod(AffineWeight(F(1, 5), F(2, 7)), spec, ctx) == reduce_mod(F(2, 7), ctx)
        with pytest.raises(NonIntegralDenominator):
            affine_weighted_mod(AffineWeight(3, F(2, 5)), spec, ctx)

    def test_terminating_upper_parameter(self):
        # terms vanish from k = 4 on; at p = 31 the root of 1/3 + k is k = 10
        spec = series([-3, F(1, 2)], [F(1, 3)], 2, 10)
        ctx = PrimePower(31, 3)
        w = AffineWeight(F(1, 2), -1)
        assert evaluate_mod(spec, ctx) == reduce_mod(evaluate_exact(spec), ctx)
        assert affine_weighted_mod(w, spec, ctx) == reduce_mod(affine_weighted_sum(w, spec), ctx)
        assert harmonic_weighted_mod(spec, F(3, 2), 2, ctx) == reduce_mod(harmonic_weighted_sum(spec, F(3, 2), 2), ctx)
        # one step further and 1/3 + k reaches 31/3: the same sums, since the
        # added term is 0
        longer = series([-3, F(1, 2)], [F(1, 3)], 2, 11)
        assert evaluate_mod(longer, ctx) == reduce_mod(evaluate_exact(spec), ctx)
        assert affine_weighted_mod(w, longer, ctx) == reduce_mod(affine_weighted_sum(w, spec), ctx)


def brute_force_valuation(spec, p, step_forms):
    """v_p of every step denominator Q(k) D(k), k < n, each built from its
    definition."""
    const = spec.z.denominator * prod(a.denominator for a in spec.upper)
    e = 1
    for k in range(spec.n):
        e *= const * (k + 1) * prod(b.numerator + b.denominator * k for b in spec.lower)
        e *= prod(u + v * k for u, v in step_forms)
    return valuation(e, p)


@st.composite
def valuation_cases(draw):
    """(spec, p, step_forms). Each draw picks up to two of z, the upper and
    lower parameters and the step forms whose denominators may be
    multiples of p. The forms are (numerator,
    denominator) of a Fraction, so coprime, and never 0 below n."""
    p = draw(st.sampled_from(SMALL_PRIMES))
    n = draw(st.one_of(st.integers(0, p), st.integers(0, 200)))
    names = ("z", "upper", "lower", "forms")
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
    return spec, p, forms


class TestFoldRule:
    """The fold's one rule, precision k + V: V from ``_steps_valuation``
    against the valuation of the product it stands for."""

    @settings(max_examples=300, deadline=None)
    @given(case=valuation_cases())
    def test_matches_brute_force(self, case):
        spec, p, forms = case
        assert _steps_valuation(spec, p, forms) == brute_force_valuation(spec, p, forms)

    def test_each_denominator_carrying_p(self):
        # at p = 7 and n = 3: 1/2 + k first reaches 7/2 at k = 3
        spec = series([F(1, 2), 1], [F(1, 2)], F(1, 3), 3)
        assert _steps_valuation(spec, 7, [(1, 2)]) == 0
        assert _steps_valuation(series([F(1, 7), 1], [F(1, 2)], F(1, 3), 3), 7) == 3
        assert _steps_valuation(series([F(1, 2), 1], [F(1, 2)], F(1, 49), 3), 7) == 6
        assert _steps_valuation(spec, 7, [(1, 3)]) == 1  # 1 + 3*2 = 7
        # with no steps nothing counts
        assert _steps_valuation(series([F(1, 7), 1], [F(3, 2)], F(1, 7), 0), 7, [(7, 2)]) == 0

    def test_higher_powers_of_p(self):
        # (k+1)^2 for k < 49 gives 49!^2, and v_7(49!) = 7 + 1
        assert _steps_valuation(central_series(49), 7) == 16
        # k + 1 for k < 26 gives 26! (v_7 = 3); -1 + 2k meets 7, 21, 35 and 7^2
        assert _steps_valuation(series([1], [], 1, 26), 7, [(-1, 2)]) == 3 + 5

    def test_form_with_p_dividing_v(self):
        spec = series([F(1, 2), 1], [F(3, 7)], 1, 3)  # 3 + 7k is never 0 mod 7
        assert _steps_valuation(spec, 7) == 0
        assert _steps_valuation(spec, 7, [(15, 7)]) == 0


# ---------------------------------------------------------------------------
# grouped factors and the verifier shapes that repeat parameters


def chained_linear_products(const, forms, n):
    """Test oracle: const * prod(u + v*k for (u, v) in forms) for k in
    range(n), one chained map per factor, repeated or not (the library's
    method before equal forms were grouped)."""
    values = repeat(const, n)
    for u, v in forms:
        values = map(mul, values, range(u, u + v * n, v))
    return values


@st.composite
def grouped_forms(draw):
    """(const, forms, n): up to four distinct forms, each with a
    multiplicity in 1..8."""
    forms = draw(st.lists(st.tuples(st.integers(-20, 20), st.integers(1, 6)), max_size=4, unique=True))
    mults = [draw(st.integers(1, 8)) for _ in forms]
    return draw(st.integers(-5, 5)), tuple(zip(forms, mults)), draw(st.integers(0, 30))


VERIFIER_SHAPES = {
    "dflst": dflst_series,
    "guo-even": guo_even_series,
    "guo-odd": guo_odd_series,
    "combined": combined_series,
}


class TestGroupedFactors:
    @settings(max_examples=200, deadline=None)
    @given(case=grouped_forms(), order=st.sampled_from([1, -1]))
    def test_matches_one_map_per_factor(self, case, order):
        const, forms, n = case
        expanded = [form for form, mult in forms for _ in range(mult)]
        if order == -1:
            expanded = [(u + v * (n - 1), -v) for u, v in expanded]
        assert list(_linear_products(const, forms, n, order)) == list(chained_linear_products(const, expanded, n))

    @settings(max_examples=200, deadline=None)
    @given(case=grouped_forms(), order=st.sampled_from([1, -1]), data=st.data())
    def test_start_skips_the_head(self, case, order, data):
        const, forms, n = case
        start = data.draw(st.integers(0, n + 2))
        full = list(_linear_products(const, forms, n, order))
        assert list(_linear_products(const, forms, n, order, start)) == full[start:]

    @settings(max_examples=100, deadline=None)
    @given(
        shape=st.sampled_from(sorted(VERIFIER_SHAPES)),
        d=st.integers(2, 8),
        n=st.integers(0, 60),
        order=st.sampled_from([1, -1]),
        data=st.data(),
    )
    def test_step_ratios_from_start_are_the_tail(self, shape, d, n, order, data):
        # the scan resumes its stream here instead of skipping the head
        spec = VERIFIER_SHAPES[shape](d, n)
        start = data.draw(st.integers(0, n + 2))
        tails = [list(stream)[start:] for stream in step_ratios(spec, order)]
        assert [list(stream) for stream in step_ratios(spec, order, start)] == tails

    @settings(max_examples=100, deadline=None)
    @given(
        shape=st.sampled_from(sorted(VERIFIER_SHAPES)),
        d=st.integers(2, 8),
        p=st.sampled_from(odd_primes_up_to(60)),
        k=st.integers(1, 3),
        data=st.data(),
    )
    def test_verifier_shapes_against_naive(self, shape, d, p, k, data):
        # these repeat 1 - 1/d, 1 + 1/d and 1 up to d times, which mod_cases
        # seldom draws; truncated at p - 1 as the verifiers do, or anywhere
        n = data.draw(st.one_of(st.just(p - 1), st.integers(0, 60)))
        spec = VERIFIER_SHAPES[shape](d, n)
        ctx = PrimePower(p, k)
        w = AffineWeight(data.draw(rationals), data.draw(rationals))
        plain = naive_sum(spec.upper, spec.lower, spec.z, n)
        weighted = naive_sum(spec.upper, spec.lower, spec.z, n, lambda j: w.slope * j + w.intercept)
        assert_folds_to(lambda: evaluate_mod(spec, ctx), plain, ctx)
        assert_folds_to(lambda: affine_weighted_mod(w, spec, ctx), weighted, ctx)
