"""Exact-arithmetic toolkit for truncated hypergeometric series, the
p-adic Gamma function, Karlsson-Minton summation, and the congruence
families built on them."""

from .errors import (
    CongruenceError,
    HypothesisViolated,
    NonIntegralDenominator,
    ZeroLowerPochhammer,
)
from .exact import (
    RationalPoly,
    binomial,
    factorial,
    harmonic,
    poch_poly,
    pochhammer,
    shifted_harmonic,
)
from .hypergeom import (
    AffineWeight,
    SeriesSpec,
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
from .km import KmInstance, km_lhs, km_rhs, km_series, km_vanishing
from .padic import (
    GammaContext,
    PrimePower,
    Residue,
    g1_estimate,
    gamma_p_int,
    least_nonneg_residue,
    reduce_mod,
    valuation,
)
from .primes import is_prime, odd_primes_up_to, primes_in_class
from .scan import ConjectureCell, admissible_n, conjecture_value, load_cells, scan_conjecture
from .suite import SuiteConfig, all_pass, enumerate_cases, run_suite
from .verifiers import (
    CASE_KINDS,
    Case,
    Report,
    admissible,
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

__version__ = "0.1.0"
