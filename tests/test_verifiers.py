"""Per-family verifier behavior: passing instances, hypothesis guards,
report structure, and the cross-family consistency checks."""

import importlib
import inspect
import json
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import supercongruences.hypergeom as hypergeom_mod
import supercongruences.verifiers as verifiers_mod
from supercongruences.errors import HypothesisViolated, NonIntegralDenominator
from supercongruences.exact import factorial, pochhammer
from supercongruences.hypergeom import AffineWeight, affine_weighted_sum, evaluate_exact, series, terms
from supercongruences.padic import PrimePower, Residue, reduce_mod, valuation
from supercongruences.suite import SuiteConfig, enumerate_cases
from supercongruences.verifiers import (
    CASE_KINDS,
    KINDS,
    Case,
    Report,
    _bind,
    _termwise,
    admissible,
    central_series,
    combined_series,
    guo_even_series,
    guo_odd_series,
    run_case,
    verify_combined,
    verify_dflst,
    verify_four_k_plus_one,
    verify_guo_central,
    verify_guo_even,
    verify_guo_linear,
    verify_guo_odd,
    verify_harmonic_even,
    verify_harmonic_odd,
    verify_km_deformed,
    verify_liu,
    verify_rodriguez_villegas,
    verify_sun,
    verify_three_series,
)

F = Fraction


class TestRodriguezVillegas:
    def test_p5(self):
        report = verify_rodriguez_villegas(5)
        assert report.verdict
        assert report.lhs.value == 1 and report.rhs.value == 1

    def test_p13_positive_sign(self):
        report = verify_rodriguez_villegas(13)
        assert report.verdict and report.rhs == 1

    def test_p7_negative_sign(self):
        report = verify_rodriguez_villegas(7)
        assert report.verdict
        assert report.rhs.value == 48  # -1 mod 49

    def test_guards(self):
        with pytest.raises(HypothesisViolated):
            verify_rodriguez_villegas(3)
        with pytest.raises(HypothesisViolated):
            verify_rodriguez_villegas(9)


class TestSun:
    def test_half_specializes_to_rv(self):
        a, b = verify_sun(F(1, 2), 5), verify_rodriguez_villegas(5)
        assert a.verdict
        assert a.lhs == b.lhs and a.rhs == b.rhs

    def test_third_at_p7(self):
        report = verify_sun(F(1, 3), 7)
        assert report.verdict
        assert report.lhs.value == 1  # exact sum 68584051/43046721 reduces to 1

    def test_quarter_at_p5(self):
        report = verify_sun(F(1, 4), 5)
        assert report.verdict
        assert report.rhs.value == 24  # <-1/4>_5 = 1 gives sign -1

    def test_rejects_non_unit(self):
        with pytest.raises(HypothesisViolated):
            verify_sun(F(1, 5), 5)  # not p-integral
        with pytest.raises(HypothesisViolated):
            verify_sun(F(5, 7), 5)  # numerator divisible by p


class TestDflst:
    def test_d2_matches_rv(self):
        # same series, and the right sides agree through the reflection sign
        for p in (5, 7, 11, 13, 17):
            a, b = verify_dflst(2, p, 2), verify_rodriguez_villegas(p)
            assert a.verdict
            assert a.lhs == b.lhs and a.rhs == b.rhs

    def test_d2_p5_rhs_value(self):
        assert verify_dflst(2, 5, 2).rhs == 1  # -Gamma(1/2)^2 = 1 mod 25

    def test_strength_three(self):
        assert verify_dflst(3, 7, 3).verdict
        assert verify_dflst(4, 13, 3).verdict

    def test_strength_three_modulus_past_ten_million(self):
        # 223^3 > 10^7, a modulus the product of p^k factors could not reach
        assert verify_dflst(3, 223, 3).verdict

    def test_precision_descent(self):
        strong = verify_dflst(3, 7, 3)
        weak = verify_dflst(3, 7, 2)
        assert strong.lhs.at_precision(2) == weak.lhs
        assert strong.rhs.at_precision(2) == weak.rhs

    def test_guards(self):
        with pytest.raises(HypothesisViolated):
            verify_dflst(1, 5, 2)
        with pytest.raises(HypothesisViolated):
            verify_dflst(2, 5, 3)  # strength 3 needs d >= 3
        with pytest.raises(HypothesisViolated):
            verify_dflst(3, 5, 2)  # 5 is not 1 mod 3
        with pytest.raises(HypothesisViolated):
            verify_dflst(3, 7, 4)


class TestGuoLinear:
    @pytest.mark.parametrize("d,p", [(2, 5), (3, 7), (4, 5)])
    def test_passes(self, d, p):
        assert verify_guo_linear(d, p).verdict

    def test_weighted_sum_fixture(self):
        # d = 2, p = 5: sum k (1/2)_k^2/k!^2 = 4601/4096, residue 6 mod 25
        report = verify_guo_linear(2, 5)
        assert report.lhs.value == 6 and report.rhs.value == 6


class TestGuoEvenOdd:
    @pytest.mark.parametrize("d,p", [(4, 7), (4, 11), (6, 11)])
    def test_even_passes(self, d, p):
        assert verify_guo_even(d, p).verdict

    def test_even_smallest_instance_value(self):
        # frozen from the naive oracle: both sides are 27 mod 49
        report = verify_guo_even(4, 7)
        assert report.lhs.value == 27 and report.rhs.value == 27

    @pytest.mark.parametrize("d,p", [(3, 5), (3, 11), (5, 19)])
    def test_odd_passes(self, d, p):
        assert verify_guo_odd(d, p).verdict

    def test_even_guards(self):
        with pytest.raises(HypothesisViolated):
            verify_guo_even(5, 9)  # d odd and 9 composite
        with pytest.raises(HypothesisViolated):
            verify_guo_even(4, 3)  # p = d-1 < 2d-1
        with pytest.raises(HypothesisViolated):
            verify_guo_even(4, 13)  # 13 is 1 mod 4

    def test_odd_guards(self):
        with pytest.raises(HypothesisViolated):
            verify_guo_odd(4, 7)
        with pytest.raises(HypothesisViolated):
            verify_guo_odd(3, 7)  # 7 is 1 mod 3


class TestGuoCentral:
    def test_fixture_p5(self):
        report = verify_guo_central(5, 1)
        assert report.verdict
        weighted = affine_weighted_sum(AffineWeight(1, -6), central_series(4))
        assert weighted == F(-135250, 16384)
        assert valuation(weighted, 5) >= 3

    @pytest.mark.parametrize("p,r", [(13, 1), (5, 2)])
    def test_passes(self, p, r):
        assert verify_guo_central(p, r).verdict

    def test_decomposition_equivalence(self):
        # sum (4k+1) t_k ≡ p^{2r} sum t_k mod p^{2r+1} exactly when the
        # centered-weight sum vanishes, since their difference is 4x it
        for p, r in ((5, 1), (13, 1), (5, 2)):
            ctx = PrimePower(p, 2 * r + 1)
            spec = central_series(p**r - 1)
            four_k = reduce_mod(affine_weighted_sum(AffineWeight(4, 1), spec), ctx)
            scaled = reduce_mod(p ** (2 * r) * evaluate_exact(spec), ctx)
            assert (four_k == scaled) == verify_guo_central(p, r).verdict
            assert four_k == scaled

    def test_guards(self):
        with pytest.raises(HypothesisViolated):
            verify_guo_central(7, 1)  # 7 is 3 mod 4
        with pytest.raises(HypothesisViolated):
            verify_guo_central(5, 0)


class TestHarmonicLemmas:
    def test_even_instance(self):
        report = verify_harmonic_even(4, 7)
        assert report.verdict
        assert report.lhs.value == 2 and report.rhs.value == 2  # naive-oracle values

    def test_odd_instance(self):
        report = verify_harmonic_odd(3, 5)
        assert report.verdict
        assert report.lhs.value == 1 and report.rhs.value == 1

    def test_hypotheses_match_main_families(self):
        with pytest.raises(HypothesisViolated):
            verify_harmonic_even(3, 5)
        with pytest.raises(HypothesisViolated):
            verify_harmonic_odd(4, 7)
        with pytest.raises(HypothesisViolated):
            verify_harmonic_even(4, 3)  # below 2d-1


class TestFourKPlusOne:
    def test_n1(self):
        report = verify_four_k_plus_one(1)
        assert report.verdict and report.lhs == 1 and report.rhs == 1

    def test_n2(self):
        report = verify_four_k_plus_one(2)
        assert report.verdict
        assert report.lhs == F(9, 4) and report.rhs == F(4, 64) * 36

    def test_n25(self):
        assert verify_four_k_plus_one(25).verdict

    def test_guard(self):
        with pytest.raises(HypothesisViolated):
            verify_four_k_plus_one(0)


class TestLiu:
    def test_fixture_p5(self):
        report = verify_liu(5, 1)
        assert report.verdict and report.lhs == 1

    @pytest.mark.parametrize("p,r", [(13, 1), (5, 2)])
    def test_passes(self, p, r):
        assert verify_liu(p, r).verdict

    def test_guard(self):
        with pytest.raises(HypothesisViolated):
            verify_liu(7, 1)


class TestThreeSeries:
    def test_truncation_zero(self):
        report = verify_three_series(3, 0)
        assert report.verdict
        assert report.lhs == 3 and report.rhs == 3  # 1 + (d-1) vs d

    @pytest.mark.parametrize("d,n", [(4, 10), (5, 6), (2, 8)])
    def test_passes(self, d, n):
        assert verify_three_series(d, n).verdict

    def test_guards(self):
        with pytest.raises(HypothesisViolated):
            verify_three_series(1, 5)
        with pytest.raises(HypothesisViolated):
            verify_three_series(3, -1)


def patch_ratios(monkeypatch, target, edit):
    """Rebind verifiers.step_ratios so that edit(ps, qs) changes the lists
    of P(k) and Q(k) of the target spec, and of no other."""
    real = verifiers_mod.step_ratios

    def step_ratios(spec):
        ps, qs = map(list, real(spec))
        if spec == target:
            edit(ps, qs)
        return iter(ps), iter(qs)

    monkeypatch.setattr(verifiers_mod, "step_ratios", step_ratios)


def termwise_by_fractions(d, sa, sb, sc):
    """The termwise check on exact Fraction terms: the oracle that the
    integer check over the shared step denominators must agree with."""
    return all(a + (d - 1) * b == d * c for a, b, c in zip(terms(sa), terms(sb), terms(sc)))


class TestTermwiseAgainstFractions:
    @pytest.mark.parametrize("d", range(2, 10))
    def test_agrees_on_true_and_permuted_shapes(self, d):
        # the three shapes in order hold termwise; permuted, they share the
        # step denominators, and past n = 0 some order fails
        for n in (0, 1, 2, 5, 16, 33, 60):
            shapes = guo_even_series(d, n), guo_odd_series(d, n), combined_series(d, n)
            verdicts = []
            for order in ((0, 1, 2), (1, 0, 2), (0, 2, 1), (2, 1, 0)):
                specs = [shapes[i] for i in order]
                verdicts.append(_termwise(d, *specs))
                assert verdicts[-1] == termwise_by_fractions(d, *specs)
            assert verdicts[0] and (n == 0 or not all(verdicts))

    @pytest.mark.parametrize(
        "d,n,k",
        [(2, 7, 7), (5, 6, 6), (9, 60, 60), (3, 10, 5), (3, 60, 1)],
    )
    def test_agrees_when_one_term_fails(self, d, n, k, monkeypatch):
        # t_k of the guo-odd series doubles and no other term changes: P(k-1)
        # doubles and, below n, the even P(k) halves (at d = 3 every P(k) =
        # (1+3k)^2 (4+3k) is even); the oracle's terms come from the same
        # patched ratios
        target = guo_odd_series(d, n)

        def double_term_k(ps, qs):
            ps[k - 1] *= 2
            if k < n:
                assert ps[k] % 2 == 0
                ps[k] //= 2

        def patched_terms(spec):
            ts = [F(1)]
            for p, q in zip(*verifiers_mod.step_ratios(spec)):
                ts.append(ts[-1] * F(p, q))
            return ts

        patch_ratios(monkeypatch, target, double_term_k)
        shapes = guo_even_series(d, n), target, combined_series(d, n)
        a, b, c = map(patched_terms, shapes)
        holds = [x + (d - 1) * y == d * z for x, y, z in zip(a, b, c)]
        assert holds == [j != k for j in range(n + 1)]
        assert _termwise(d, *shapes) is False

    def test_step_denominators_that_differ_raise(self, monkeypatch):
        # a shape bug must raise, never pass or fail quietly: the third series
        # with other lower parameters, or another z, than the first two
        d, n = 4, 6
        sa, sb, sc = guo_even_series(d, n), guo_odd_series(d, n), combined_series(d, n)
        for bad in (series(sc.upper, [2] * (d - 1), sc.z, n), series(sc.upper, sc.lower, F(1, 2), n)):
            with pytest.raises(RuntimeError, match="step denominators differ at k = 0"):
                _termwise(d, sa, sb, bad)
        # a Q that differs only at the last step raises even though the
        # swapped shapes have failed from k = 1 on
        assert not _termwise(d, guo_odd_series(d, 1), guo_even_series(d, 1), combined_series(d, 1))

        def double_last_q(ps, qs):
            qs[-1] *= 2

        patch_ratios(monkeypatch, sc, double_last_q)
        with pytest.raises(RuntimeError, match=f"step denominators differ at k = {n - 1}"):
            _termwise(d, sb, sa, sc)


class TestCombined:
    @pytest.mark.parametrize("d,p", [(3, 5), (4, 7)])
    def test_passes(self, d, p):
        report = verify_combined(d, p)
        assert report.verdict and report.lhs == 0

    def test_excludes_p_equal_d_minus_one(self):
        with pytest.raises(HypothesisViolated):
            verify_combined(4, 3)

    def test_guards(self):
        with pytest.raises(HypothesisViolated):
            verify_combined(2, 5)
        with pytest.raises(HypothesisViolated):
            verify_combined(3, 7)


class TestKmDeformed:
    def test_origin(self):
        assert verify_km_deformed(4, 7, 0, 0).verdict

    def test_fixture(self):
        report = verify_km_deformed(4, 7, F(1, 5), F(-1, 3))
        assert report.verdict
        assert report.lhs == 162 and report.rhs == 162

    def test_larger(self):
        assert verify_km_deformed(6, 11, F(1, 2), F(1, 2)).verdict

    def test_guards(self):
        with pytest.raises(HypothesisViolated):
            verify_km_deformed(3, 5, 0, 0)  # odd d not admitted here

    @pytest.mark.parametrize("x,y,name", [(-1, 0, "x"), (0, -6, "y"), (F(1, 2), -3, "y")])
    def test_rejects_vanishing_lower_parameter(self, x, y, name):
        # 1+x (or 1+y) would reach 0 within truncation p-1 = 6
        message = f"need {name} outside -1..-6, got {name} = {x if name == 'x' else y}"
        with pytest.raises(HypothesisViolated, match=message):
            verify_km_deformed(4, 7, x, y)
        assert admissible(Case("km-deformed", d=4, p=7, x=F(x), y=F(y))) == message

    def test_negative_integers_beyond_truncation(self):
        assert verify_km_deformed(4, 7, -7, -9).verdict

    @staticmethod
    def hand_written_sides(d, p, x, y):
        """The deformed sum and closed form typed out directly: leading
        parameter 1-p, and m!^{d-2} for the undeformed pairs."""
        m = (p + 1) // d
        spec = series(
            [1 - p, m - 1 + x, m + 1 + y] + [m + 1] * (d - 2), [1 + x, 1 + y] + [1] * (d - 2), 1, p - 1
        )
        rhs = F(factorial(p - 1)) / (
            pochhammer(1 + x, m - 2) * pochhammer(1 + y, m) * factorial(m) ** (d - 2)
        )
        return evaluate_exact(spec), rhs

    @pytest.mark.parametrize(
        "case",
        [c for c in enumerate_cases(SuiteConfig()) if c.kind == "km-deformed"],
        ids=lambda c: f"d{c.d}-p{c.p}-x{c.x}-y{c.y}",
    )
    def test_default_points_match_hand_written_sides(self, case):
        report = run_case(case)
        assert (report.lhs, report.rhs) == self.hand_written_sides(case.d, case.p, case.x, case.y)

    @pytest.mark.parametrize("d, p", [(4, 307), (6, 311), (8, 967)])
    def test_large_primes_match_hand_written_sides(self, d, p):
        for x, y in [(F(0), F(0)), (F(2, 7), F(-3, 5)), (F(-5, 9), F(7, 2))]:
            report = verify_km_deformed(d, p, x, y)
            assert report.verdict
            assert (report.lhs, report.rhs) == self.hand_written_sides(d, p, x, y)


class TestArithmeticSpotChecks:
    """The two single-modulus reductions the central-binomial argument
    leans on: a Fermat power and a Lucas binomial chain."""

    @pytest.mark.parametrize("p,r", [(5, 1), (13, 1), (17, 1), (5, 2), (13, 2)])
    def test_power_of_four_reduces_to_four(self, p, r):
        assert pow(4, 2 * p**r - 1, p) == 4 % p

    @pytest.mark.parametrize("p,r", [(5, 1), (13, 1), (17, 1), (5, 2)])
    def test_central_binomial_reduces_to_two(self, p, r):
        from supercongruences.exact import binomial

        assert binomial(2 * p**r, p**r) % p == 2


class ExactPathTaken(Exception):
    pass


class TestModularPath:
    """Every modular kind takes its series sums mod p^k by the fold: the
    exact tree is made to raise."""

    @pytest.fixture
    def no_exact_tree(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise ExactPathTaken

        monkeypatch.setattr(hypergeom_mod, "evaluate_exact", refuse)
        monkeypatch.setattr(hypergeom_mod, "_weighted_sum", refuse)

    FOLDED = (
        "rv", "sun", "dflst", "guo-linear", "guo-even", "guo-odd", "guo-central",
        "harmonic-even", "harmonic-odd", "liu", "combined",
    )

    def test_folded_are_the_modular_kinds(self):
        exact = {kind for kind in CASE_KINDS if KINDS[kind].k is None}
        assert set(self.FOLDED) == set(CASE_KINDS) - exact

    @pytest.mark.parametrize("kind", FOLDED)
    def test_default_grid_needs_no_exact_tree(self, kind, no_exact_tree):
        cases = [case for case in enumerate_cases(SuiteConfig()) if case.kind == kind]
        assert cases
        assert all(run_case(case).verdict for case in cases)


class TestNoWeightedRecurrence:
    """No check runs the weighted recurrence, which is quadratic in n: it
    is made to raise, and every case of the default suite still passes."""

    def test_default_suite(self, monkeypatch, default_cases):
        def refuse(*args, **kwargs):
            raise ExactPathTaken

        monkeypatch.setattr(hypergeom_mod, "_weighted_sum", refuse)
        assert {case.kind for case in default_cases} == set(CASE_KINDS)
        assert all(run_case(case).verdict for case in default_cases)


class DifferenceFoldTaken(Exception):
    pass


class TestHarmonicFoldRouting:
    """Only the harmonic kinds reach the difference fold: it is made to
    raise, every harmonic-even and harmonic-odd case of the default suite
    reaches it, and every other case passes without it."""

    def test_default_suite(self, monkeypatch, default_cases):
        def refuse(*args, **kwargs):
            raise DifferenceFoldTaken

        monkeypatch.setattr(hypergeom_mod, "_weighted_mod", refuse)
        reached = []
        for case in default_cases:
            try:
                verdict = run_case(case).verdict
            except DifferenceFoldTaken:
                reached.append(case.kind)
                continue
            assert verdict
            assert case.kind not in ("harmonic-even", "harmonic-odd")
        assert set(reached) == {"harmonic-even", "harmonic-odd"}


class TestStatedTruncation:
    """Each modular kind sums its series to the truncation its congruence
    states, k < p, or k < p^r for the prefix sums of guo-central and liu.
    The verdict cannot show it, since the terms a shorter sum drops may
    vanish mod p^k: the series reaching each fold is recorded instead."""

    # the folds the verifiers call, and where each takes its series
    FOLDS = (("evaluate_mod", 0), ("affine_weighted_mod", 1), ("harmonic_weighted_mod", 0))

    @pytest.mark.parametrize("kind", TestModularPath.FOLDED)
    def test_series_reaches_stated_truncation(self, kind, monkeypatch, default_cases):
        truncations = []
        for name, at in self.FOLDS:

            def recording(*args, fold=getattr(verifiers_mod, name), at=at):
                truncations.append(args[at].n)
                return fold(*args)

            monkeypatch.setattr(verifiers_mod, name, recording)
        # the case with the largest r, so that p^r - 1 and p - 1 differ
        case = max((c for c in default_cases if c.kind == kind), key=lambda c: (c.r or 0, c.p))
        assert run_case(case).verdict
        assert truncations == [case.p ** (case.r or 1) - 1]


# every kind with a modulus, dflst once per strength
MODULAR_FAMILIES = [
    (name, strength)
    for name, kind in KINDS.items()
    if kind.k is not None
    for strength in ((2, 3) if name == "dflst" else (None,))
]


@pytest.fixture(scope="module")
def default_cases():
    return enumerate_cases(SuiteConfig())


def fails_one_power_past(case):
    """Whether the case's body, run at p^(k+1) for its modulus p^k, gives
    two sides that differ."""
    kind, case = _bind(case)
    args = kind.args(case)
    k = kind.k(*args) if callable(kind.k) else kind.k
    lhs, rhs, *_ = getattr(verifiers_mod, kind.verifier).__wrapped__(*args, ctx=PrimePower(case.p, k + 1))
    return lhs != rhs


class TestNegativeControls:
    """A verdict alone cannot tell a sharp check from one that compares a
    side with itself: in every modular family, some default case that
    passes at its modulus p^k fails at p^(k+1)."""

    def test_every_modular_family(self):
        assert len(MODULAR_FAMILIES) == 12

    @pytest.mark.parametrize("name,strength", MODULAR_FAMILIES)
    def test_some_case_fails_one_power_past_its_modulus(self, name, strength, default_cases):
        cases = [c for c in default_cases if c.kind == name and c.strength == strength]
        assert cases
        assert any(run_case(c).verdict and fails_one_power_past(c) for c in cases)


# inadmissible cases and the full message of the check that rejects them
FAILED_HYPOTHESES = [
    (Case("dflst", d=3, p=11), "need p ≡ 1 (mod 3), got p = 11"),
    (Case("dflst", d=2, p=7, strength=3), "strength 3 needs d >= 3, got d = 2"),
    (Case("guo-even", d=4, p=3), "need p >= 2d-1 = 7, got p = 3"),
    (Case("sun", alpha=F(7, 2), p=7), "alpha = 7/2 must be a unit at p = 7"),
    (Case("km-deformed", d=4, p=7, x=F(1, 2), y=-2), "need y outside -1..-6, got y = -2"),
    (Case("combined", d=4, p=3), "p = d-1 = 3 is excluded"),
    (Case("rv", p=9), "need a prime p >= 5, got 9"),
]

# one admissible case per kind, in CASE_KINDS order, with the direct call
# that should give the same report
DIRECT_CALLS = [
    (Case("rv", p=7), lambda: verify_rodriguez_villegas(7)),
    (Case("sun", alpha=F(1, 3), p=7), lambda: verify_sun(F(1, 3), 7)),
    (Case("dflst", d=3, p=7, strength=3), lambda: verify_dflst(3, 7, 3)),
    (Case("guo-linear", d=3, p=7), lambda: verify_guo_linear(3, 7)),
    (Case("guo-even", d=4, p=7), lambda: verify_guo_even(4, 7)),
    (Case("guo-odd", d=3, p=5), lambda: verify_guo_odd(3, 5)),
    (Case("guo-central", p=5, r=1), lambda: verify_guo_central(5, 1)),
    (Case("harmonic-even", d=4, p=7), lambda: verify_harmonic_even(4, 7)),
    (Case("harmonic-odd", d=3, p=5), lambda: verify_harmonic_odd(3, 5)),
    (Case("four-k-plus-one", n=5), lambda: verify_four_k_plus_one(5)),
    (Case("liu", p=5, r=1), lambda: verify_liu(5, 1)),
    (Case("three-series", d=3, n=4), lambda: verify_three_series(3, 4)),
    (Case("combined", d=3, p=5), lambda: verify_combined(3, 5)),
    (Case("km-deformed", d=4, p=7, x=F(1, 5), y=F(-1, 3)), lambda: verify_km_deformed(4, 7, F(1, 5), F(-1, 3))),
]


class TestReportsAndDispatch:
    def test_deterministic_reports(self):
        case = Case("dflst", d=3, p=7, strength=2)
        assert run_case(case) == run_case(case)  # elapsed excluded from equality

    def test_json_round_trip_residues(self):
        report = verify_dflst(3, 7, 3)
        back = Report.from_dict(report.to_dict())
        assert back == report
        assert back.elapsed == pytest.approx(report.elapsed)
        assert back.case == report.case
        assert back.lhs == report.lhs and back.rhs == report.rhs
        assert back.modulus == report.modulus and back.note == report.note

    def test_json_round_trip_rationals(self):
        report = verify_km_deformed(4, 7, F(1, 5), F(-1, 3))
        back = Report.from_dict(report.to_dict())
        assert back == report and back.case.x == F(1, 5)

    def test_case_label(self):
        assert Case("rv", p=5).label() == "rv"
        assert Case("sun", p=5, alpha=F(1, 3)).label() == "sun(alpha=1/3)"

    def test_unknown_kind(self):
        with pytest.raises(HypothesisViolated):
            run_case(Case("nonsense", p=5))

    def test_missing_params(self):
        with pytest.raises(HypothesisViolated):
            run_case(Case("dflst", d=3))

    def test_params_the_kind_does_not_take(self):
        with pytest.raises(HypothesisViolated, match="does not take parameters: d, strength"):
            run_case(Case("rv", d=3, p=7, strength=2))
        assert admissible(Case("rv", d=3, p=7)) == "case 'rv' does not take parameters: d"

    def test_strength_defaults_only_when_absent(self):
        assert run_case(Case("dflst", d=3, p=7)).case.strength == 2
        with pytest.raises(HypothesisViolated, match="strength must be 2 or 3, got 0"):
            run_case(Case("dflst", d=3, p=7, strength=0))

    def test_dispatch_fills_defaults_like_the_direct_call(self):
        # run_case hands the bound case to the verifier whole; the direct
        # call builds it from the parameters
        report = run_case(Case("dflst", d=3, p=7))
        assert report.case.strength == 2 and report == verify_dflst(3, 7)
        assert report.to_dict() | {"elapsed_ms": 0} == verify_dflst(3, 7).to_dict() | {"elapsed_ms": 0}

    @pytest.mark.parametrize("case, message", FAILED_HYPOTHESES, ids=[case.kind for case, _ in FAILED_HYPOTHESES])
    def test_failed_hypothesis_keeps_its_full_message(self, case, message):
        # the checks format their message only when they fail
        assert admissible(case) == message
        with pytest.raises(HypothesisViolated) as exc:
            run_case(case)
        assert str(exc.value) == message

    def test_dispatch_matches_direct_call(self):
        direct = verify_guo_even(4, 7)
        dispatched = run_case(Case("guo-even", d=4, p=7))
        assert direct == dispatched

    @pytest.mark.parametrize("case, direct", DIRECT_CALLS, ids=[case.kind for case, _ in DIRECT_CALLS])
    def test_every_kind_dispatches_like_its_direct_call(self, case, direct):
        report = direct()
        assert report == run_case(case) and report.case == case and report.verdict

    def test_direct_calls_cover_every_kind(self):
        assert tuple(case.kind for case, _ in DIRECT_CALLS) == CASE_KINDS

    @pytest.mark.parametrize("case, direct", DIRECT_CALLS, ids=[case.kind for case, _ in DIRECT_CALLS])
    def test_report_modulus_is_the_registry_k(self, case, direct):
        kind = KINDS[case.kind]
        args = [getattr(case, name) for name in kind.params]
        k = kind.k(*args) if callable(kind.k) else kind.k
        assert run_case(case).modulus == ("exact" if k is None else str(PrimePower(case.p, k)))

    def test_direct_call_fills_defaults(self):
        # positional, full positional and keyword calls all bind through the
        # signature; Report equality leaves elapsed out
        short, full, named = verify_dflst(3, 7), verify_dflst(3, 7, 2), verify_dflst(d=3, p=7, strength=2)
        assert short.case.strength == 2
        assert short == full == named

    def test_public_signature_has_no_ctx(self):
        # ctx is the wrapper's to pass; callers give only the Case fields
        assert tuple(inspect.signature(verify_dflst).parameters) == ("d", "p", "strength")
        with pytest.raises(TypeError):
            verify_dflst(3, 7, ctx=PrimePower(7, 2))

    def test_rational_parameters_stored_as_fractions(self):
        case = Case("sun", p=7, alpha=1)
        assert type(case.alpha) is F and case.to_dict()["alpha"] == "1"
        deformed = verify_km_deformed(4, 7, 0, -9).case
        assert type(deformed.x) is F and type(deformed.y) is F

    def test_non_p_integral_side_is_a_finding(self, monkeypatch):
        # with the first shift at 1/2 the weights take in 1/(1/2 + 3) = 2/7
        # and the sum is not 7-integral; the note is the fold's own message
        real = verifiers_mod.harmonic_weighted_mod
        monkeypatch.setattr(
            verifiers_mod, "harmonic_weighted_mod", lambda spec, c1, c2, ctx: real(spec, F(1, 2), c2, ctx)
        )
        report = verify_harmonic_even(4, 7)
        assert not report.verdict and report.lhs is None and report.rhs is None
        assert report.note == "finding: sum is not p-integral at p=7: v_p(sum) = -1"

    def test_non_p_integral_side_is_a_finding_in_every_kind(self, monkeypatch):
        # the wrapper, not the body, turns the error into a failing report
        def non_integral(spec, ctx):
            raise NonIntegralDenominator(f"sum is not p-integral at p={ctx.p}: v_p(sum) = -1")

        monkeypatch.setattr(verifiers_mod, "evaluate_mod", non_integral)
        report = run_case(Case("dflst", d=3, p=7))
        assert not report.verdict and report.lhs is None and report.rhs is None
        assert report.note == "finding: sum is not p-integral at p=7: v_p(sum) = -1"
        assert report.modulus == "7^2" and report.case == Case("dflst", d=3, p=7, strength=2)

    def test_termwise_failure_fails_the_report(self, monkeypatch):
        # squaring every P(k) and Q(k) squares every term, which breaks the
        # linear relation termwise; the sums (evaluated separately) still
        # agree, so only the note fails it
        real = verifiers_mod.step_ratios
        monkeypatch.setattr(verifiers_mod, "step_ratios", lambda spec: [(x * x for x in r) for r in real(spec)])
        report = verify_three_series(3, 4)
        assert report.lhs == report.rhs
        assert not report.verdict and report.note == "termwise identity fails"

    def test_single_term_failure_fails_the_report(self, monkeypatch):
        # only the last P of the guo-odd series changes, so only its last
        # term does; the sums are evaluated separately and still agree
        def bump_last_p(ps, qs):
            ps[-1] += 1

        patch_ratios(monkeypatch, guo_odd_series(5, 6), bump_last_p)
        report = verify_three_series(5, 6)
        assert report.lhs == report.rhs
        assert not report.verdict and report.note == "termwise identity fails"


# ---------------------------------------------------------------------------
# the case-kind registry

small_fraction = st.builds(F, st.integers(-12, 12), st.integers(1, 12))
# deformation points: mostly strictly above -1, where no lower Pochhammer
# vanishes; now and then a negative integer, which km-deformed must reject
# when it lies in -1..-(p-1) and accept below that
deformation = st.one_of(
    st.integers(2, 9).flatmap(lambda den: st.builds(F, st.integers(-den + 1, 3 * den), st.just(den))),
    st.integers(-35, -1).map(F),
)
PARAM_VALUES = {
    "d": st.one_of(st.integers(2, 8), st.integers(0, 8)),
    "p": st.one_of(st.sampled_from([3, 5, 7, 11, 13, 17, 19, 23, 29]), st.integers(-1, 30)),
    "r": st.integers(0, 2),
    "n": st.integers(-1, 30),
    "strength": st.one_of(st.none(), st.integers(0, 4)),
    "alpha": small_fraction,
    "x": deformation,
    "y": deformation,
}


@st.composite
def cases(draw):
    """A case of a random kind: its own parameters, now and then with one
    dropped or a foreign one added."""
    kind = draw(st.sampled_from(CASE_KINDS))
    params = {name: draw(PARAM_VALUES[name]) for name in KINDS[kind].params}
    if draw(st.integers(0, 9)) == 0:
        params.pop(draw(st.sampled_from(sorted(params))))
    if draw(st.integers(0, 9)) == 0:
        name = draw(st.sampled_from(sorted(PARAM_VALUES)))
        params[name] = draw(PARAM_VALUES[name])
    return Case(kind, **params)


sides = st.one_of(
    st.none(),
    small_fraction,
    st.builds(
        lambda value, p, k: Residue(value, PrimePower(p, k)),
        st.integers(-(10**6), 10**6),
        st.sampled_from([3, 5, 7, 29]),
        st.integers(1, 5),
    ),
)


class TestRegistry:
    @settings(max_examples=200, deadline=None)
    @given(case=cases())
    def test_admissible_iff_run_case_accepts(self, case):
        reason = admissible(case)
        try:
            run_case(case)
        except HypothesisViolated as exc:
            assert reason == str(exc)
        else:
            assert reason is None

    @settings(max_examples=200, deadline=None)
    @given(case=cases(), lhs=sides, rhs=sides, verdict=st.booleans(), note=st.text(max_size=8))
    def test_case_and_report_json_round_trip(self, case, lhs, rhs, verdict, note):
        assert Case.from_dict(json.loads(json.dumps(case.to_dict()))) == case
        report = Report(case, lhs, rhs, "7^2", verdict, 0.25, note)
        back = Report.from_dict(json.loads(json.dumps(report.to_dict())))
        assert back == report and back.to_dict() == report.to_dict()

    def test_runners_find_verifiers_by_name(self, monkeypatch):
        # callers that rebind verify_* (a tracer, a fake) must be honoured
        marker = object()
        monkeypatch.setattr(verifiers_mod, "verify_dflst", lambda d, p, strength: marker)
        assert run_case(Case("dflst", d=3, p=7, strength=3)) is marker

    def test_docs_list_every_kind(self):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        table = readme.read_text(encoding="utf-8").split("## What it verifies")[1].split("\n## ")[0]
        rows = [line.split("|")[1] for line in table.splitlines() if line.startswith("| `")]
        assert tuple(k for row in rows for k in re.findall(r"`([^`]+)`", row)) == CASE_KINDS
        bullets = [line for line in verifiers_mod.__doc__.splitlines() if line.startswith("* ``")]
        ids = [k for line in bullets for k in re.findall(r"``([^`]+)``", line.split(":")[0])]
        assert tuple(ids) == CASE_KINDS

    def test_docs_layout_names_resolve(self):
        # every identifier in a "Library layout" row is an attribute of that row's module
        readme = Path(__file__).resolve().parents[1] / "README.md"
        table = readme.read_text(encoding="utf-8").split("## Library layout")[1].split("\n## ")[0]
        rows = [line.split("|")[1:3] for line in table.splitlines() if line.startswith("| `supercongruences.")]
        listed = [
            (module.strip(" `"), name)
            for module, contents in rows
            for name in re.findall(r"`([^`]+)`", contents)
            if name.isidentifier()
        ]
        assert len({module for module, _ in listed}) == 7
        assert [(m, n) for m, n in listed if not hasattr(importlib.import_module(m), n)] == []
