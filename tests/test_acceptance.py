"""Acceptance gate: every checked result at full desk scale.

Each criterion prints one pass/fail line (run with ``pytest -s`` to see
them inline). Congruences are exact, so every comparison is equality at
the stated modulus; there are no tolerances anywhere.
"""

import math
import random
import time
from fractions import Fraction

import supercongruences.scan as scan_mod
from supercongruences.cli import main as cli_main
from supercongruences.exact import (
    binomial,
    factorial,
    pochhammer,
    shifted_harmonic,
)
from supercongruences.hypergeom import evaluate_exact, evaluate_mod
from supercongruences.km import KmInstance, km_lhs, km_rhs, km_vanishing
from supercongruences.padic import (
    GammaContext,
    PrimePower,
    g1_estimate,
    gamma_p_int,
    least_nonneg_residue,
    reduce_mod,
    valuation,
)
from supercongruences.primes import odd_primes_up_to, primes_in_class
from supercongruences.scan import admissible_n, scan_conjecture
from supercongruences.verifiers import (
    central_series,
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


def _criterion(num, description, ok):
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {description}")
    assert ok, f"criterion {num} failed: {description}"


def test_criterion_01_sign_congruence_all_primes():
    reports = [verify_rodriguez_villegas(p) for p in primes_in_class(1, 2, 199) if p >= 5]
    assert len(reports) == 44
    _criterion(1, "2F1(1/2,1/2) sign congruence mod p^2 for all primes 5..199", all(r.verdict for r in reports))


def test_criterion_02_general_alpha():
    alphas = (F(1, 2), F(1, 3), F(1, 4), F(2, 5), F(5, 7))
    reports = [
        verify_sun(alpha, p)
        for alpha in alphas
        for p in odd_primes_up_to(97)
        if valuation(alpha, p) == 0
    ]
    assert len(reports) > 100
    _criterion(2, "general-alpha sign congruence for 5 alphas, odd p <= 97", all(r.verdict for r in reports))


def test_criterion_03_dflst_both_strengths():
    ok = True
    for d in range(2, 7):
        for p in primes_in_class(1, d, 199):
            ok = ok and verify_dflst(d, p, 2).verdict
            if d >= 3:
                ok = ok and verify_dflst(d, p, 3).verdict
    _criterion(3, "dflst congruence mod p^2 (d=2..6) and mod p^3 (d=3..6), p <= 199", ok)


def test_criterion_04_guo_linear():
    ok = all(
        verify_guo_linear(d, p).verdict
        for d in range(2, 7)
        for p in primes_in_class(1, d, 199)
    )
    _criterion(4, "k-weighted variant mod p^2 for d=2..6, p ≡ 1 (mod d), p <= 199", ok)


def test_criterion_05_guo_even():
    reports = [
        verify_guo_even(d, p)
        for d in (4, 6)
        for p in primes_in_class(-1, d, 199)
        if p >= 2 * d - 1
    ]
    assert reports
    _criterion(5, "even-d companion mod p^2 for d in {4,6}, 2d-1 <= p <= 199", all(r.verdict for r in reports))


def test_criterion_06_guo_odd():
    reports = [
        verify_guo_odd(d, p) for d in (3, 5, 7) for p in primes_in_class(-1, d, 199)
    ]
    assert reports
    _criterion(6, "odd-d companion mod p^2 for d in {3,5,7}, odd p ≡ -1 (mod d) <= 199", all(r.verdict for r in reports))


def test_criterion_07_weighted_central_binomial():
    pairs = ((5, 1), (13, 1), (17, 1), (29, 1), (5, 2), (13, 2))
    ok = all(verify_guo_central(p, r).verdict for p, r in pairs)
    # the p = 5, r = 1 instance pins the exact weighted sum
    from supercongruences.hypergeom import AffineWeight, affine_weighted_sum

    weighted = affine_weighted_sum(AffineWeight(1, -6), central_series(4))
    ok = ok and weighted == F(-135250, 16384) and valuation(weighted.numerator, 5) >= 3
    _criterion(7, "weighted central-binomial sum ≡ 0 mod p^(2r+1) on the six (p,r) pairs", ok)


def _sample_z_p(rng, p, count, unit_only=False):
    out = []
    while len(out) < count:
        num, den = rng.randint(-60, 60), rng.randint(1, 24)
        if den % p == 0 or (unit_only and num % p == 0):
            continue
        x = F(num, den)
        if not unit_only and len(out) % 5 == 4:
            x *= p
        out.append(x)
    return out


def test_criterion_08_gamma_functional_equations():
    rng = random.Random(8)
    ok = True
    for p in (5, 7, 11, 13):
        for k in (1, 2, 3):
            gc = GammaContext(PrimePower(p, k))
            for x in _sample_z_p(rng, p, 50):
                lhs = gc.gamma(x + 1)
                if valuation(x, p) == 0:
                    ok = ok and lhs == reduce_mod(-x, gc.ctx) * gc.gamma(x)
                else:
                    ok = ok and lhs == -gc.gamma(x)
            for x in _sample_z_p(rng, p, 50, unit_only=True):
                sign = (-1) ** (least_nonneg_residue(-x, p) - 1)
                ok = ok and gc.gamma(x) * gc.gamma(1 - x) == reduce_mod(sign, gc.ctx)
            for n in range(1, p + 1):
                ok = ok and gamma_p_int(n, gc.ctx) == reduce_mod((-1) ** n * factorial(n - 1), gc.ctx)
    _criterion(8, "Gamma shift/reflection/integer values, 50 samples, p in {5,7,11,13}, k <= 3", ok)


def test_criterion_09_first_order_reconstruction():
    rng = random.Random(9)
    ok = True
    for p in (5, 7, 11):
        gc = GammaContext(PrimePower(p, 2))
        for x in _sample_z_p(rng, p, 20):
            g = g1_estimate(x, p)
            for t in (-2, -1, 2):
                predicted = gc.gamma(x) * reduce_mod(1 + g.value * t * p, gc.ctx)
                ok = ok and gc.gamma(x + t * p) == predicted
    _criterion(9, "first-order Gamma expansion prediction at t in {-2,-1,2}, 20 samples, p in {5,7,11}", ok)


def test_criterion_10_polynomial_derivative_identities():
    rng = random.Random(10)
    ok = True
    produced = 0
    while produced < 30:
        alpha = F(rng.randint(-12, 12), rng.randint(1, 9))
        k = rng.randint(0, 10)
        t = F(rng.randint(-12, 12), rng.randint(1, 9))
        base = 1 + alpha + t
        if any(base + j == 0 for j in range(k)):
            continue
        produced += 1
        # d/dx (x)_k at x = base by the product rule: drop one factor at a time
        derivative = sum((math.prod(base + j for j in range(k) if j != i) for i in range(k)), F(0))
        value = pochhammer(base, k)
        harmonic_factor = shifted_harmonic(base, k)
        ok = ok and derivative == value * harmonic_factor
        ok = ok and -derivative / value**2 == -harmonic_factor / value
    _criterion(10, "derivative identities for 30 random (alpha, k <= 10, point) triples", ok)


def test_criterion_11_karlsson_minton_random():
    def random_instance(rng):
        while True:
            count = rng.randint(1, 3)
            m = tuple(rng.randint(0, 4) for _ in range(count))
            b = tuple(F(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(count))
            if all(bi + t != 0 for bi in b for t in range(sum(m) + 1)):
                return KmInstance(m, b)

    rng = random.Random(11)
    ok = all(km_lhs(inst) == km_rhs(inst) for inst in (random_instance(rng) for _ in range(200)))
    rng = random.Random(12)
    checked = 0
    while checked < 100:
        inst = random_instance(rng)
        M = inst.total_shift + rng.randint(1, 4)
        if any(bi + t == 0 for bi in inst.b for t in range(M + 1)):
            continue
        checked += 1
        ok = ok and km_vanishing(M, inst) == 0
    _criterion(11, "closed form on 200 seeded instances; vanishing form on 100", ok)


def test_criterion_12_deformed_closed_form_and_harmonic_lemmas():
    rng = random.Random(13)
    ok = True
    for d, p in ((4, 7), (4, 11), (6, 11)):
        for _ in range(10):
            dx, dy = rng.randint(2, 9), rng.randint(2, 9)
            x = F(rng.randint(-dx + 1, dx - 1), dx)
            y = F(rng.randint(-dy + 1, dy - 1), dy)
            ok = ok and verify_km_deformed(d, p, x, y).verdict
    for d in (4, 6):
        for p in primes_in_class(-1, d, 60):
            if p >= 2 * d - 1:
                ok = ok and verify_harmonic_even(d, p).verdict
    for d in (3, 5):
        for p in primes_in_class(-1, d, 60):
            ok = ok and verify_harmonic_odd(d, p).verdict
    _criterion(12, "deformed closed form (10 samples x 3 cases); harmonic lemmas for d in {3..6}, p <= 60", ok)


def test_criterion_13_exact_identity_and_liu():
    ok = all(verify_four_k_plus_one(n).verdict for n in range(1, 101))
    ok = ok and all(verify_liu(p, r).verdict for p, r in ((5, 1), (13, 1), (17, 1), (5, 2)))
    _criterion(13, "(4k+1) identity for n = 1..100; unweighted sum ≡ 1 mod p^2 on four (p,r) pairs", ok)


def test_criterion_14_three_series_and_combined():
    ok = all(
        verify_three_series(d, t).verdict for d in range(3, 8) for t in range(13)
    )
    for d in range(3, 7):
        for p in primes_in_class(-1, d, 199):
            if p != d - 1:
                ok = ok and verify_combined(d, p).verdict
    _criterion(14, "three-series identity (d=3..7, truncations <= 12); combined vanishing mod p^2 (d=3..6)", ok)


def test_criterion_15_conjecture_scan(tmp_path, monkeypatch, capsys):
    ok = True
    for d in (2, 3, 4, 5):
        cells = scan_conjecture(d, 50)
        ok = ok and len(cells) == len(admissible_n(d, 50)) and all(c.is_integer for c in cells)
        ok = ok and cli_main(["scan", "--d", str(d), "--n-max", "50"]) == 0
    # a non-integral cell must surface with exit code 3 and the exact value
    # (the sweep yields n, acc, t, and the cell is acc / n^2)
    monkeypatch.setattr(scan_mod, "_sweep", lambda d, n, acc, t, n_max: [(3, 7, -1)])
    state = tmp_path / "state.txt"
    code = cli_main(["scan", "--d", "2", "--n-max", "3", "--state", str(state)])
    err = capsys.readouterr().err
    ok = ok and code == 3 and "7/9" in err
    _criterion(15, "integrality scan all-integral for d in {2..5}, n <= 50; findings exit 3", ok)


def test_criterion_16_exact_fixture():
    spec = central_series(4)
    value = evaluate_exact(spec)
    ok = value == F(25609, 16384) and evaluate_mod(spec, PrimePower(5, 2)) == 1
    _criterion(16, "central series fixture 25609/16384 with residue 1 mod 25", ok)


def test_criterion_17_default_suite(capsys):
    start = time.monotonic()
    code = cli_main(["suite", "--format", "csv", "--out", "/dev/null"])
    elapsed = time.monotonic() - start
    capsys.readouterr()
    _criterion(17, f"full default suite exits 0 (took {elapsed:.0f}s, budget 600s)", code == 0 and elapsed < 600)
