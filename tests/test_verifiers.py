"""Per-family verifier behavior: passing instances, hypothesis guards,
report structure, and the cross-family consistency checks."""

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
from supercongruences.errors import HypothesisViolated
from supercongruences.exact import factorial, pochhammer
from supercongruences.hypergeom import AffineWeight, affine_weighted_sum, evaluate_exact, series
from supercongruences.padic import PrimePower, Residue, reduce_mod, valuation
from supercongruences.suite import SuiteConfig, enumerate_cases
from supercongruences.verifiers import (
    CASE_KINDS,
    KINDS,
    Case,
    Report,
    admissible,
    central_series,
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
        assert verify_dflst(3, 7).case.strength == 2

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

    def test_termwise_failure_fails_the_report(self, monkeypatch):
        # squaring every term breaks the linear relation termwise; the sums
        # (evaluated separately) still agree, so only the note fails it
        real = verifiers_mod.terms
        monkeypatch.setattr(verifiers_mod, "terms", lambda spec: [t * t for t in real(spec)])
        report = verify_three_series(3, 4)
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
