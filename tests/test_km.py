"""Karlsson-Minton summation: closed form, vanishing form, deformed layouts."""

import random
from fractions import Fraction

import pytest

from supercongruences.errors import HypothesisViolated, ZeroLowerPochhammer
from supercongruences.exact import factorial, pochhammer
from supercongruences.hypergeom import evaluate_exact, series
from supercongruences.km import KmInstance, km_lhs, km_rhs, km_vanishing
from supercongruences.primes import primes_in_class

F = Fraction


def random_instance(rng, pairs_max=3, shift_max=4):
    """Seeded instance with pole-free lower parameters, found by rejection
    sampling so the draw count per accepted instance is auditable."""
    while True:
        count = rng.randint(1, pairs_max)
        m = tuple(rng.randint(0, shift_max) for _ in range(count))
        b = tuple(F(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(count))
        total = sum(m)
        ok = all(bi + t != 0 for bi in b for t in range(total + 1))
        if ok:
            return KmInstance(m, b)


class TestInstanceValidation:
    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            KmInstance((1, 2), (F(1, 2),))

    def test_needs_a_pair(self):
        with pytest.raises(ValueError):
            KmInstance((), ())

    def test_negative_shift(self):
        with pytest.raises(ValueError):
            KmInstance((-1,), (F(1, 2),))

    def test_non_integral_shift(self):
        # a fractional shift is another instance altogether, never truncated
        for shift in (1.5, F(3, 2)):
            with pytest.raises(ValueError) as excinfo:
                KmInstance((2, shift), (F(1, 2), 1))
            assert str(excinfo.value) == f"shifts must be integers, got {shift}"
        assert KmInstance((2.0, F(4, 2)), (F(1, 2), 1)).m == (2, 2)


class TestClosedForm:
    def test_single_pair(self):
        inst = KmInstance((1,), (F(3),))
        assert km_lhs(inst) == F(-1, 3)  # 1 - 4/3
        assert km_rhs(inst) == F(-1, 3)  # (-1) * 1! / (3)_1

    def test_zero_shifts(self):
        inst = KmInstance((0, 0), (F(1, 2), F(7)))
        assert km_lhs(inst) == 1
        assert km_rhs(inst) == 1

    def test_two_pair_fixture(self):
        # expanded by hand: 1 - 24 + 35 = 12 = 2!/((1/2)_1 (1/3)_1)
        inst = KmInstance((1, 1), (F(1, 2), F(1, 3)))
        assert km_lhs(inst) == 12
        assert km_rhs(inst) == 12

    def test_rhs_fixture(self):
        inst = KmInstance((2, 1), (F(2), F(5)))
        assert km_rhs(inst) == F(-1, 5)  # (-1)^3 3! / ((2)_2 (5)_1)

    def test_rhs_rejects_pole(self):
        with pytest.raises(ZeroLowerPochhammer):
            km_rhs(KmInstance((2,), (F(-1),)))

    def test_identity_on_seeded_instances(self):
        rng = random.Random(0)
        for _ in range(200):
            inst = random_instance(rng)
            assert km_lhs(inst) == km_rhs(inst)


class TestVanishingForm:
    def test_examples(self):
        assert km_vanishing(2, KmInstance((1,), (F(3),))) == 0
        assert km_vanishing(1, KmInstance((0,), (F(5, 2),))) == 0

    def test_boundary_rejected(self):
        inst = KmInstance((2, 1), (F(1, 2), F(3)))
        with pytest.raises(HypothesisViolated):
            km_vanishing(3, inst)

    def test_vanishes_on_seeded_instances(self):
        rng = random.Random(1)
        for _ in range(100):
            inst = random_instance(rng)
            M = inst.total_shift + rng.randint(1, 4)
            # rejection-sample instances whose lower parameters stay
            # pole-free over the longer k range
            if any(bi + t == 0 for bi in inst.b for t in range(M + 1)):
                continue
            assert km_vanishing(M, inst) == 0


def deformed_even_layout(d, p, x, y):
    """Terminating series with pairs (m-1+x | 1+x), (m+1+y | 1+y) and
    (m+1 | 1) repeated, where m = (p+1)/d; the shifts sum to p-1."""
    m = (p + 1) // d
    spec = series(
        [1 - p, m - 1 + x, m + 1 + y] + [m + 1] * (d - 2),
        [1 + x, 1 + y] + [1] * (d - 2),
        1,
        p - 1,
    )
    inst = KmInstance((m - 2, m) + (m,) * (d - 2), (1 + x, 1 + y) + (F(1),) * (d - 2))
    return spec, inst


def deformed_odd_layout(d, p, x, y):
    """Odd-d variant: pairs (m+x | 1+x), (m | 1), (m+1+y | 1+y) and
    (m+1 | 1) repeated."""
    m = (p + 1) // d
    spec = series(
        [1 - p, m + x, m, m + 1 + y] + [m + 1] * (d - 3),
        [1 + x, 1, 1 + y] + [1] * (d - 3),
        1,
        p - 1,
    )
    inst = KmInstance(
        (m - 1, m - 1, m) + (m,) * (d - 3), (1 + x, F(1), 1 + y) + (F(1),) * (d - 3)
    )
    return spec, inst


def sample_deformations(rng, count):
    points = [(F(0), F(0))]
    while len(points) < count:
        dx, dy = rng.randint(2, 9), rng.randint(2, 9)
        points.append((F(rng.randint(-dx + 1, dx - 1), dx), F(rng.randint(-dy + 1, dy - 1), dy)))
    return points


class TestDeformedClosedForms:
    def test_even_layout(self):
        rng = random.Random(2)
        for d in (4, 6):
            for p in primes_in_class(-1, d, 50):
                if p < 2 * d - 1:
                    continue
                for x, y in sample_deformations(rng, 10):
                    spec, inst = deformed_even_layout(d, p, x, y)
                    assert sum(inst.m) == p - 1
                    assert evaluate_exact(spec) == km_rhs(inst) == km_lhs(inst)

    def test_odd_layout(self):
        rng = random.Random(3)
        for d in (3, 5):
            for p in primes_in_class(-1, d, 50):
                for x, y in sample_deformations(rng, 10):
                    spec, inst = deformed_odd_layout(d, p, x, y)
                    assert sum(inst.m) == p - 1
                    assert evaluate_exact(spec) == km_rhs(inst) == km_lhs(inst)

    def test_even_closed_form_shape(self):
        # the d = 4, p = 7 closed form reads (p-1)!/((1+x)_{m-2}(1+y)_m m!^{d-2})
        x, y = F(1, 5), F(-1, 3)
        spec, inst = deformed_even_layout(4, 7, x, y)
        m = 2
        expected = F(factorial(6)) / (
            pochhammer(1 + x, m - 2) * pochhammer(1 + y, m) * F(factorial(m)) ** 2
        )
        assert evaluate_exact(spec) == expected == 162
