"""One executable check per congruence/identity family.

Each verifier declares its case kind once, with ``@_kind(name, check, k)``;
k is the exponent of the kind's modulus p^k, and no k marks an exact
identity. Its body evaluates both sides in the keyword-only ``ctx`` =
PrimePower(p, k) and returns ``(lhs, rhs[, note])``. The Kind the
decorator puts in its place validates the hypotheses first (raising
HypothesisViolated on a usage error) and returns a Report carrying both
sides and the modulus; a bare boolean would make failures undiagnosable.
A body may let NonIntegralDenominator propagate: the Kind turns a side
that is not p-integral into a failing Report with a ``finding:`` note, so
every mathematical outcome is a Report and run_case raises only for usage
errors and bugs.

Case kinds, in registration (``KINDS``) order:

* ``rv``: Rodriguez-Villegas: 2F1(1/2,1/2;1|1) over k < p equals
  (-1)^((p-1)/2) mod p^2.
* ``sun``: Z.-H. Sun's extension to 2F1(a,1-a;1|1) and (-1)^{<-a>_p}.
* ``dflst``: Deines-Fuselier-Long-Swisher-Tu: dF_{d-1} at 1-1/d equals
  -Gamma_p(1/d)^d mod p^2 for p ≡ 1 (mod d); the congruence sharpens to
  mod p^3 for d >= 3.
* ``guo-linear``: Guo's k-weighted companion of dflst.
* ``guo-even`` / ``guo-odd``: Guo's conjectured companions for
  p ≡ -1 (mod d), even/odd d, with right side (d-1)/d^2 resp. -1/d^2
  times Gamma_p(-1/d)^d mod p^2.
* ``guo-central``: the weight k - (p^{2r}-1)/4 kills the central
  binomial sum mod p^{2r+1} when p ≡ 1 (mod 4).
* ``harmonic-even`` / ``harmonic-odd``: harmonic-difference weighted
  sums against their factorial closed forms mod p.
* ``four-k-plus-one``: the exact identity
  sum_{k<n} (4k+1)(1/2)_k^2/k!^2 = n^2 C(2n,n)^2 / 4^{2n-1}.
* ``liu``: Liu's congruence: the unweighted central binomial sum is
  1 mod p^2 for p ≡ 1 (mod 4).
* ``three-series``: the exact linear relation tying the guo-even,
  guo-odd, and combined series shapes, termwise and sumwise.
* ``combined``: the series with both shifted parameters 1/d-1 and 1/d
  vanishes mod p^2 for p ≡ -1 (mod d), p != d-1.
* ``km-deformed``: the (x,y)-deformed terminating sum equals its
  Karlsson-Minton closed form exactly, for x, y outside -1..-(p-1).
"""

from __future__ import annotations

import functools
import inspect
from dataclasses import dataclass, field, fields, replace
from fractions import Fraction
from operator import attrgetter
from time import perf_counter
from typing import Callable

from .errors import HypothesisViolated, NonIntegralDenominator
from .exact import binomial, factorial, parse_int, rational_text, to_fraction, zero_shift
from .hypergeom import (
    AffineWeight,
    SeriesSpec,
    affine_weighted_mod,
    affine_weighted_sum,
    evaluate_exact,
    evaluate_mod,
    harmonic_weighted_mod,
    series,
    step_ratios,
)
# pochhammer, term and harmonic_weighted_sum are unused here but stay bound: bench/tracing.py wraps them by name
from .exact import pochhammer
from .hypergeom import harmonic_weighted_sum, term
from .km import KmInstance, km_lhs, km_rhs
from .padic import GammaContext, PrimePower, Residue, least_nonneg_residue, reduce_mod, valuation
from .primes import is_prime

ZERO = Fraction(0)
ONE = Fraction(1)
HALF = Fraction(1, 2)


@dataclass(frozen=True)
class Case:
    """A verifier invocation: the kind plus whichever parameters apply."""

    kind: str
    d: int | None = None
    p: int | None = None
    r: int | None = None
    n: int | None = None
    strength: int | None = None
    alpha: Fraction | None = None
    x: Fraction | None = None
    y: Fraction | None = None

    def __post_init__(self) -> None:
        # rational parameters are stored as Fractions, whatever was passed
        for name in ("alpha", "x", "y"):
            value = getattr(self, name)
            if value is not None and type(value) is not Fraction:
                object.__setattr__(self, name, to_fraction(value))

    def sort_key(self) -> tuple:
        return (
            self.kind,
            self.d or 0,
            self.p or 0,
            self.r or 0,
            self.n if self.n is not None else -1,
            self.strength or 0,
            str(self.alpha or ""),
            str(self.x or ""),
            str(self.y or ""),
        )

    def label(self) -> str:
        """Case id plus the parameters that have no CSV column of their own."""
        extras = [
            f"{name}={value}"
            for name, value in (("alpha", self.alpha), ("x", self.x), ("y", self.y))
            if value is not None
        ]
        return f"{self.kind}({','.join(extras)})" if extras else self.kind

    def to_dict(self) -> dict:
        out: dict = {"kind": self.kind}
        for name, value in zip(PARAMETERS, _parameter_values(self)):
            if value is not None:
                out[name] = str(value) if type(value) is Fraction else value
        return out

    @classmethod
    def from_dict(cls, data: dict) -> Case:
        return cls(**data)


# the Case fields a kind may take, in field order
PARAMETERS = tuple(f.name for f in fields(Case) if f.name != "kind")
_parameter_values = attrgetter(*PARAMETERS)

Side = Residue | Fraction | None


def _side_to_dict(side: Side) -> dict | None:
    if side is None:
        return None
    if isinstance(side, Residue):
        return {"type": "residue", "value": side.value, "p": side.ctx.p, "k": side.ctx.k}
    return {"type": "rational", "value": rational_text(side)}


def _side_from_dict(data: dict | None) -> Side:
    if data is None:
        return None
    if data["type"] == "residue":
        return Residue(data["value"], PrimePower(data["p"], data["k"]))
    num, _, den = data["value"].partition("/")
    return Fraction(parse_int(num), parse_int(den or "1"))


@dataclass(frozen=True)
class Report:
    """Outcome of one case: both sides, the modulus, and the verdict."""

    case: Case
    lhs: Side
    rhs: Side
    modulus: str
    verdict: bool
    elapsed: float = field(compare=False, default=0.0)
    note: str = ""

    def to_dict(self) -> dict:
        return {
            "case": self.case.to_dict(),
            "lhs": _side_to_dict(self.lhs),
            "rhs": _side_to_dict(self.rhs),
            "modulus": self.modulus,
            "verdict": "pass" if self.verdict else "fail",
            "elapsed_ms": self.elapsed * 1000.0,
            "note": self.note,
        }

    @classmethod
    def from_dict(cls, data: dict) -> Report:
        return cls(
            case=Case.from_dict(data["case"]),
            lhs=_side_from_dict(data["lhs"]),
            rhs=_side_from_dict(data["rhs"]),
            modulus=data["modulus"],
            verdict=data["verdict"] == "pass",
            elapsed=data["elapsed_ms"] / 1000.0,
            note=data.get("note", ""),
        )


def _require(cond: bool, msg: str, *args: object) -> None:
    """HypothesisViolated(msg.format(*args)) unless cond: the message is
    formatted only for a case that fails, since most checks pass."""
    if not cond:
        raise HypothesisViolated(msg.format(*args))


def _require_prime(p: int) -> None:
    _require(is_prime(p) and p % 2 == 1, "p must be an odd prime, got {}", p)


# ---------------------------------------------------------------------------
# the registry of case kinds


class Kind:
    """A case kind as its verifier declares it, and that verifier: the
    Case fields it takes, in positional order, defaults for the optional
    ones, the hypothesis check (same parameters), the verifier's
    module-global name, and the modulus exponent k (an int, a function of
    the same parameters, or None for an exact identity).

    Calling it with those parameters, as ``verify_dflst(3, 7)``, builds
    the Case and runs it; ``run`` takes a Case whose parameters are bound.
    Either way the check runs first, then the body in ctx = PrimePower(p, k)
    (none for an exact kind), timed, and the Report carries the modulus and
    the verdict ``lhs == rhs and not note``. A NonIntegralDenominator from
    the body is reported as sides None and the note ``finding: <message>``."""

    def __init__(self, name: str, body: Callable[..., tuple], check: Callable[..., None], k) -> None:
        signature = inspect.signature(body)
        signature = signature.replace(
            parameters=[v for v in signature.parameters.values() if v.kind is not v.KEYWORD_ONLY]
        )
        self.name = name
        self.params = tuple(signature.parameters)
        self.defaults = {n: v.default for n, v in signature.parameters.items() if v.default is not v.empty}
        self.check = check
        self.verifier = body.__name__
        self.k = k
        self.body = body
        # the kind's parameters of a Case, and the other parameters, as tuples;
        # a case that gives none of the others has them all None
        get = attrgetter(*self.params)
        self.args = get if len(self.params) > 1 else lambda case: (get(case),)
        others = [name for name in PARAMETERS if name not in self.params]
        self.others = attrgetter(*others)
        self.no_others = (None,) * len(others)
        functools.update_wrapper(self, body)
        self.__signature__ = signature

    def __call__(self, *args, **kwargs) -> Report:
        bound = self.__signature__.bind(*args, **kwargs)
        bound.apply_defaults()
        return self.run(Case(self.name, **bound.arguments))

    def run(self, case: Case) -> Report:
        args = self.args(case)
        self.check(*args)
        k = self.k
        ctx = None if k is None else PrimePower(case.p, k(*args) if callable(k) else k)
        t0 = perf_counter()
        try:
            lhs, rhs, *note = self.body(*args) if ctx is None else self.body(*args, ctx=ctx)
        except NonIntegralDenominator as exc:
            lhs, rhs, note = None, None, [f"finding: {exc}"]
        note = note[0] if note else ""
        modulus = "exact" if ctx is None else str(ctx)
        return Report(case, lhs, rhs, modulus, lhs == rhs and not note, perf_counter() - t0, note)


KINDS: dict[str, Kind] = {}


def _kind(name: str, check: Callable[..., None], k: int | Callable[..., int] | None = None):
    """Register the decorated body as case kind ``name`` with modulus p^k;
    its module-global name is then bound to the Kind, its verifier. The
    body takes the kind's parameters, plus a keyword-only ``ctx`` (the
    PrimePower(p, k)) unless the kind is exact, and returns (lhs, rhs[, note])."""

    def register(body: Callable[..., tuple]) -> Kind:
        KINDS[name] = Kind(name, body, check, k)
        return KINDS[name]

    return register


# ---------------------------------------------------------------------------
# series shapes: each parameter is one Fraction(u, v) and each 1 the shared
# ONE, since Fraction arithmetic such as 1 - Fraction(1, d) costs several
# constructions and SeriesSpec converts every int it is given


def central_series(n_trunc: int) -> SeriesSpec:
    """(1/2)_k^2 / k!^2 summed for k = 0..n_trunc."""
    return series([HALF, HALF], [ONE], ONE, n_trunc)


def dflst_series(d: int, n_trunc: int) -> SeriesSpec:
    """((d-1)/d)_k^d / k!^d summed for k = 0..n_trunc."""
    return series([Fraction(d - 1, d)] * d, [ONE] * (d - 1), ONE, n_trunc)


def guo_even_series(d: int, n_trunc: int) -> SeriesSpec:
    """Upper parameters 1/d - 1 and (1 + 1/d)^(d-1)."""
    return series([Fraction(1 - d, d)] + [Fraction(d + 1, d)] * (d - 1), [ONE] * (d - 1), ONE, n_trunc)


def guo_odd_series(d: int, n_trunc: int) -> SeriesSpec:
    """Upper parameters (1/d)^2 and (1 + 1/d)^(d-2)."""
    a = Fraction(1, d)
    return series([a, a] + [Fraction(d + 1, d)] * (d - 2), [ONE] * (d - 1), ONE, n_trunc)


def combined_series(d: int, n_trunc: int) -> SeriesSpec:
    """Upper parameters 1/d - 1, 1/d and (1 + 1/d)^(d-2)."""
    upper = [Fraction(1 - d, d), Fraction(1, d)] + [Fraction(d + 1, d)] * (d - 2)
    return series(upper, [ONE] * (d - 1), ONE, n_trunc)


# ---------------------------------------------------------------------------
# verifiers


def _require_rv(p: int) -> None:
    _require(is_prime(p) and p >= 5, "need a prime p >= 5, got {}", p)


@_kind("rv", _require_rv, k=2)
def verify_rodriguez_villegas(p: int, *, ctx: PrimePower) -> tuple:
    """2F1(1/2,1/2;1|1)_{p-1} ≡ (-1)^((p-1)/2) (mod p^2)."""
    lhs = evaluate_mod(central_series(p - 1), ctx)
    rhs = reduce_mod((-1) ** ((p - 1) // 2), ctx)
    return lhs, rhs


def _require_sun(alpha: Fraction, p: int) -> None:
    _require_prime(p)
    _require(valuation(alpha, p) == 0, "alpha = {} must be a unit at p = {}", alpha, p)


@_kind("sun", _require_sun, k=2)
def verify_sun(alpha: Fraction, p: int, *, ctx: PrimePower) -> tuple:
    """2F1(a,1-a;1|1)_{p-1} ≡ (-1)^{<-a>_p} (mod p^2) for a a p-adic unit."""
    u, v = alpha.numerator, alpha.denominator
    lhs = evaluate_mod(series([alpha, Fraction(v - u, v)], [ONE], ONE, p - 1), ctx)
    rhs = reduce_mod((-1) ** least_nonneg_residue(-alpha, p), ctx)
    return lhs, rhs


def _require_dflst(d: int, p: int, strength: int = 2) -> None:
    _require(d > 1, "need d > 1, got {}", d)
    _require(strength in (2, 3), "strength must be 2 or 3, got {}", strength)
    _require(strength == 2 or d >= 3, "strength 3 needs d >= 3, got d = {}", d)
    _require_prime(p)
    _require(p % d == 1, "need p ≡ 1 (mod {}), got p = {}", d, p)


@_kind("dflst", _require_dflst, k=lambda d, p, strength: strength)
def verify_dflst(d: int, p: int, strength: int = 2, *, ctx: PrimePower) -> tuple:
    """dF_{d-1}((1-1/d)^d; 1^{d-1} | 1)_{p-1} ≡ -Gamma_p(1/d)^d
    (mod p^strength), strength 2 for d >= 2 and 3 for d >= 3."""
    lhs = evaluate_mod(dflst_series(d, p - 1), ctx)
    rhs = -(GammaContext(ctx).gamma(Fraction(1, d)) ** d)
    return lhs, rhs


# p ≡ 1 (mod d) makes the odd prime p coprime to 2d
@_kind("guo-linear", _require_dflst, k=2)
def verify_guo_linear(d: int, p: int, *, ctx: PrimePower) -> tuple:
    """sum k ((d-1)/d)_k^d / k!^d ≡ (d-1) Gamma_p(1/d)^d / (2d) (mod p^2)."""
    lhs = affine_weighted_mod(AffineWeight(ONE, ZERO), dflst_series(d, p - 1), ctx)
    g = GammaContext(ctx).gamma(Fraction(1, d))
    rhs = reduce_mod(Fraction(d - 1, 2 * d), ctx) * g**d
    return lhs, rhs


def _require_guo_even(d: int, p: int) -> None:
    _require(d >= 4 and d % 2 == 0, "need even d >= 4, got {}", d)
    _require_prime(p)
    _require(p % d == d - 1, "need p ≡ -1 (mod {}), got p = {}", d, p)
    _require(p >= 2 * d - 1, "need p >= 2d-1 = {}, got p = {}", 2 * d - 1, p)


def _require_guo_odd(d: int, p: int) -> None:
    _require(d >= 3 and d % 2 == 1, "need odd d >= 3, got {}", d)
    _require_prime(p)
    _require(p % d == d - 1, "need p ≡ -1 (mod {}), got p = {}", d, p)


@_kind("guo-even", _require_guo_even, k=2)
def verify_guo_even(d: int, p: int, *, ctx: PrimePower) -> tuple:
    """dF_{d-1}(1/d-1, (1+1/d)^{d-1}; 1^{d-1} | 1)_{p-1} ≡
    (d-1)/d^2 Gamma_p(-1/d)^d (mod p^2) for even d, p ≡ -1 (mod d)."""
    lhs = evaluate_mod(guo_even_series(d, p - 1), ctx)
    g = GammaContext(ctx).gamma(Fraction(-1, d))
    rhs = reduce_mod(Fraction(d - 1, d * d), ctx) * g**d
    return lhs, rhs


@_kind("guo-odd", _require_guo_odd, k=2)
def verify_guo_odd(d: int, p: int, *, ctx: PrimePower) -> tuple:
    """dF_{d-1}(1/d, 1/d, (1+1/d)^{d-2}; 1^{d-1} | 1)_{p-1} ≡
    -1/d^2 Gamma_p(-1/d)^d (mod p^2) for odd d, p ≡ -1 (mod d)."""
    lhs = evaluate_mod(guo_odd_series(d, p - 1), ctx)
    g = GammaContext(ctx).gamma(Fraction(-1, d))
    rhs = reduce_mod(Fraction(-1, d * d), ctx) * g**d
    return lhs, rhs


def _require_central(p: int, r: int) -> None:
    _require_prime(p)
    _require(p % 4 == 1, "need p ≡ 1 (mod 4), got p = {}", p)
    _require(r >= 1, "need r >= 1, got {}", r)


@_kind("guo-central", _require_central, k=lambda p, r: 2 * r + 1)
def verify_guo_central(p: int, r: int, *, ctx: PrimePower) -> tuple:
    """sum (k - (p^{2r}-1)/4) (1/2)_k^2/k!^2 over k < p^r ≡ 0 (mod p^{2r+1})."""
    w = AffineWeight(ONE, Fraction(1 - p ** (2 * r), 4))
    lhs = affine_weighted_mod(w, central_series(p**r - 1), ctx)
    rhs = Residue(0, ctx)
    return lhs, rhs


@_kind("harmonic-even", _require_guo_even, k=1)
def verify_harmonic_even(d: int, p: int, *, ctx: PrimePower) -> tuple:
    """The harmonic-difference weighted sum over (m-1)_k (m+1)_k^{d-1},
    m = (p+1)/d, against (p-1)!/((m-2)! m!^{d-1}) (1/m + 1/(m-1)) mod p."""
    m = (p + 1) // d
    spec = series([Fraction(m - 1)] + [Fraction(m + 1)] * (d - 1), [ONE] * (d - 1), ONE, p - 1)
    rhs_exact = Fraction(factorial(p - 1), factorial(m - 2) * factorial(m) ** (d - 1)) * (
        Fraction(1, m) + Fraction(1, m - 1)
    )
    return harmonic_weighted_mod(spec, m - 1, m + 1, ctx), reduce_mod(rhs_exact, ctx)


@_kind("harmonic-odd", _require_guo_odd, k=1)
def verify_harmonic_odd(d: int, p: int, *, ctx: PrimePower) -> tuple:
    """The harmonic-difference weighted sum over (m)_k^2 (m+1)_k^{d-2},
    m = (p+1)/d, against (p-1)!/((m-1)! m!^{d-1}) mod p."""
    m = (p + 1) // d
    spec = series([Fraction(m)] * 2 + [Fraction(m + 1)] * (d - 2), [ONE] * (d - 1), ONE, p - 1)
    rhs_exact = Fraction(factorial(p - 1), factorial(m - 1) * factorial(m) ** (d - 1))
    return harmonic_weighted_mod(spec, m, m + 1, ctx), reduce_mod(rhs_exact, ctx)


def _require_four_k_plus_one(n: int) -> None:
    _require(n >= 1, "need n >= 1, got {}", n)


@_kind("four-k-plus-one", _require_four_k_plus_one)
def verify_four_k_plus_one(n: int) -> tuple:
    """Exact identity: sum_{k<n} (4k+1)(1/2)_k^2/k!^2 = n^2 C(2n,n)^2/4^{2n-1}."""
    lhs = affine_weighted_sum(AffineWeight(4, 1), central_series(n - 1))
    rhs = Fraction(n * n, 4 ** (2 * n - 1)) * binomial(2 * n, n) ** 2
    return lhs, rhs


@_kind("liu", _require_central, k=2)
def verify_liu(p: int, r: int, *, ctx: PrimePower) -> tuple:
    """sum (1/2)_k^2/k!^2 over k < p^r ≡ 1 (mod p^2) for p ≡ 1 (mod 4)."""
    lhs = evaluate_mod(central_series(p**r - 1), ctx)
    rhs = Residue(1, ctx)
    return lhs, rhs


def _require_three_series(d: int, n: int) -> None:
    _require(d >= 2, "need d >= 2, got {}", d)
    _require(n >= 0, "need a truncation >= 0, got {}", n)


def _termwise(d: int, sa: SeriesSpec, sb: SeriesSpec, sc: SeriesSpec) -> bool:
    """Whether t_a(k) + (d-1) t_b(k) = d t_c(k) at every k <= n. Three
    series with the same lower parameters and z, each with d upper
    parameters over d, have the same step denominators Q(k); their k-th
    terms then share the denominator Q(0)...Q(k-1), and the relation holds
    exactly when it holds for the running products of their P(k). A Q(k)
    that differs is a shape bug: it raises, even after a term has failed."""
    (pa, qa), (pb, qb), (pc, qc) = step_ratios(sa), step_ratios(sb), step_ratios(sc)
    holds = True
    a = b = c = 1
    for k, (x, y, z, q1, q2, q3) in enumerate(zip(pa, pb, pc, qa, qb, qc)):
        if not q1 == q2 == q3:
            raise RuntimeError(f"three-series step denominators differ at k = {k}")
        holds = holds and a + (d - 1) * b == d * c
        a, b, c = a * x, b * y, c * z
    return holds and a + (d - 1) * b == d * c


@_kind("three-series", _require_three_series)
def verify_three_series(d: int, n: int) -> tuple:
    """Exact relation: guo-even series + (d-1) * guo-odd series equals
    d * combined series, at every truncation n; checked both termwise and
    on the sums."""
    sa = guo_even_series(d, n)
    sb = guo_odd_series(d, n)
    sc = combined_series(d, n)
    lhs = evaluate_exact(sa) + (d - 1) * evaluate_exact(sb)
    rhs = d * evaluate_exact(sc)
    return lhs, rhs, "" if _termwise(d, sa, sb, sc) else "termwise identity fails"


def _require_combined(d: int, p: int) -> None:
    _require(d >= 3, "need d >= 3, got {}", d)
    _require_prime(p)
    _require(p % d == d - 1, "need p ≡ -1 (mod {}), got p = {}", d, p)
    _require(p != d - 1, "p = d-1 = {} is excluded", p)


@_kind("combined", _require_combined, k=2)
def verify_combined(d: int, p: int, *, ctx: PrimePower) -> tuple:
    """dF_{d-1}(1/d-1, 1/d, (1+1/d)^{d-2}; 1^{d-1} | 1)_{p-1} ≡ 0 (mod p^2)
    for d >= 3, p ≡ -1 (mod d), p != d-1."""
    lhs = evaluate_mod(combined_series(d, p - 1), ctx)
    rhs = Residue(0, ctx)
    return lhs, rhs


def _require_km_deformed(d: int, p: int, x: Fraction, y: Fraction) -> None:
    _require_guo_even(d, p)
    for name, value in (("x", x), ("y", y)):
        # the lower parameter 1+value must not reach 0 within truncation p-1
        message = "need {0} outside -1..-{1}, got {0} = {2}"
        _require(zero_shift(1 + value, p - 1) is None, message, name, p - 1, value)


@_kind("km-deformed", _require_km_deformed)
def verify_km_deformed(d: int, p: int, x: Fraction, y: Fraction) -> tuple:
    """The (x,y)-deformed terminating sum (leading parameter 1-p, pairs
    m-1+x/1+x, m+1+y/1+y, and (m+1)/1 repeated) equals its Karlsson-Minton
    closed form (p-1)!/((1+x)_{m-2} (1+y)_m m!^{d-2}) exactly; the shifts
    m-2, m, ..., m sum to p-1."""
    m = (p + 1) // d
    inst = KmInstance((m - 2, m) + (m,) * (d - 2), (1 + x, 1 + y) + (1,) * (d - 2))
    return km_lhs(inst), km_rhs(inst)


CASE_KINDS = tuple(KINDS)


def _bind(case: Case) -> tuple[Kind, Case]:
    """The case's kind, and the case with the kind's defaults filled in;
    HypothesisViolated for an unknown kind, a missing parameter or one the
    kind does not take."""
    kind = KINDS.get(case.kind)
    if kind is None:
        raise HypothesisViolated(f"unknown case kind {case.kind!r}")
    args = kind.args(case)
    absent = [name for name, value in zip(kind.params, args) if value is None] if None in args else []
    missing = [name for name in absent if name not in kind.defaults]
    if missing:
        raise HypothesisViolated(f"case {case.kind!r} is missing parameters: {', '.join(missing)}")
    if kind.others(case) != kind.no_others:
        extra = [name for name in PARAMETERS if name not in kind.params and getattr(case, name) is not None]
        raise HypothesisViolated(f"case {case.kind!r} does not take parameters: {', '.join(extra)}")
    if absent:
        case = replace(case, **{name: kind.defaults[name] for name in absent})
    return kind, case


def admissible(case: Case) -> str | None:
    """Why run_case would reject the case (the message of the
    HypothesisViolated it would raise), or None if it is admissible."""
    try:
        kind, case = _bind(case)
        kind.check(*kind.args(case))
    except HypothesisViolated as exc:
        return str(exc)
    return None


def run_case(case: Case) -> Report:
    """Run the verifier a Case describes. The verifier is looked up by its
    module-global name at each call, so a caller may rebind it (to trace
    it, say): the registered Kind runs the bound case as it is, and
    anything else bound there is called with the case's parameters."""
    kind, case = _bind(case)
    verifier = globals()[kind.verifier]
    return kind.run(case) if verifier is kind else verifier(*kind.args(case))
