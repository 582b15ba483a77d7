"""One executable check per congruence/identity family.

Every verifier validates its hypotheses (raising HypothesisViolated on a
usage error), evaluates both sides in the stated modulus, and returns a
Report carrying both residues; a bare boolean would make failures
undiagnosable.

Case kinds, one entry each in ``KINDS``:

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

from dataclasses import dataclass, field, fields, replace
from fractions import Fraction
from time import perf_counter
from typing import Callable, NamedTuple

from .errors import HypothesisViolated, NonIntegralDenominator
from .exact import binomial, factorial, pochhammer, zero_shift
from .hypergeom import (
    AffineWeight,
    SeriesSpec,
    affine_weighted_sum,
    evaluate_exact,
    evaluate_mod,
    harmonic_weighted_sum,
    series,
    terms,
)
# term is unused here but stays bound: bench/tracing.py wraps it by name
from .hypergeom import term
from .padic import GammaContext, PrimePower, Residue, least_nonneg_residue, reduce_mod, valuation
from .primes import is_prime

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
        for f in fields(self):
            if f.name == "kind":
                continue
            value = getattr(self, f.name)
            if value is not None:
                out[f.name] = str(value) if isinstance(value, Fraction) else value
        return out

    @classmethod
    def from_dict(cls, data: dict) -> Case:
        kwargs = dict(data)
        for name in ("alpha", "x", "y"):
            if name in kwargs:
                kwargs[name] = Fraction(kwargs[name])
        return cls(**kwargs)


Side = Residue | Fraction | None


def _side_to_dict(side: Side) -> dict | None:
    if side is None:
        return None
    if isinstance(side, Residue):
        return {"type": "residue", "value": side.value, "p": side.ctx.p, "k": side.ctx.k}
    return {"type": "rational", "value": str(side)}


def _side_from_dict(data: dict | None) -> Side:
    if data is None:
        return None
    if data["type"] == "residue":
        return Residue(data["value"], PrimePower(data["p"], data["k"]))
    return Fraction(data["value"])


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


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise HypothesisViolated(msg)


def _require_prime(p: int, extra: str = "") -> None:
    _require(is_prime(p) and p % 2 == 1, f"p must be an odd prime{extra}, got {p}")


def _finish(case: Case, lhs: Side, rhs: Side, modulus: str, t0: float, note: str = "") -> Report:
    return Report(case, lhs, rhs, modulus, lhs == rhs, perf_counter() - t0, note)


# ---------------------------------------------------------------------------
# series shapes


def central_series(n_trunc: int) -> SeriesSpec:
    """(1/2)_k^2 / k!^2 summed for k = 0..n_trunc."""
    return series([HALF, HALF], [1], 1, n_trunc)


def dflst_series(d: int, n_trunc: int) -> SeriesSpec:
    return series([1 - Fraction(1, d)] * d, [1] * (d - 1), 1, n_trunc)


def guo_even_series(d: int, n_trunc: int) -> SeriesSpec:
    return series([Fraction(1, d) - 1] + [1 + Fraction(1, d)] * (d - 1), [1] * (d - 1), 1, n_trunc)


def guo_odd_series(d: int, n_trunc: int) -> SeriesSpec:
    a = Fraction(1, d)
    return series([a, a] + [1 + a] * (d - 2), [1] * (d - 1), 1, n_trunc)


def combined_series(d: int, n_trunc: int) -> SeriesSpec:
    a = Fraction(1, d)
    return series([a - 1, a] + [1 + a] * (d - 2), [1] * (d - 1), 1, n_trunc)


# ---------------------------------------------------------------------------
# verifiers


def _require_rv(p: int) -> None:
    _require(is_prime(p) and p >= 5, f"need a prime p >= 5, got {p}")


def verify_rodriguez_villegas(p: int) -> Report:
    """2F1(1/2,1/2;1|1)_{p-1} ≡ (-1)^((p-1)/2) (mod p^2)."""
    _require_rv(p)
    case = Case("rv", p=p)
    t0 = perf_counter()
    ctx = PrimePower(p, 2)
    lhs = evaluate_mod(central_series(p - 1), ctx)
    rhs = reduce_mod((-1) ** ((p - 1) // 2), ctx)
    return _finish(case, lhs, rhs, str(ctx), t0)


def _require_sun(alpha: Fraction, p: int) -> None:
    _require_prime(p)
    _require(valuation(alpha, p) == 0, f"alpha = {alpha} must be a unit at p = {p}")


def verify_sun(alpha: Fraction | int, p: int) -> Report:
    """2F1(a,1-a;1|1)_{p-1} ≡ (-1)^{<-a>_p} (mod p^2) for a a p-adic unit."""
    alpha = Fraction(alpha)
    _require_sun(alpha, p)
    case = Case("sun", p=p, alpha=alpha)
    t0 = perf_counter()
    ctx = PrimePower(p, 2)
    lhs = evaluate_mod(series([alpha, 1 - alpha], [1], 1, p - 1), ctx)
    rhs = reduce_mod((-1) ** least_nonneg_residue(-alpha, p), ctx)
    return _finish(case, lhs, rhs, str(ctx), t0)


def _require_dflst(d: int, p: int, strength: int = 2) -> None:
    _require(d > 1, f"need d > 1, got {d}")
    _require(strength in (2, 3), f"strength must be 2 or 3, got {strength}")
    _require(strength == 2 or d >= 3, f"strength 3 needs d >= 3, got d = {d}")
    _require_prime(p)
    _require(p % d == 1, f"need p ≡ 1 (mod {d}), got p = {p}")


def verify_dflst(d: int, p: int, strength: int = 2) -> Report:
    """dF_{d-1}((1-1/d)^d; 1^{d-1} | 1)_{p-1} ≡ -Gamma_p(1/d)^d
    (mod p^strength), strength 2 for d >= 2 and 3 for d >= 3."""
    _require_dflst(d, p, strength)
    case = Case("dflst", d=d, p=p, strength=strength)
    t0 = perf_counter()
    ctx = PrimePower(p, strength)
    lhs = evaluate_mod(dflst_series(d, p - 1), ctx)
    rhs = -(GammaContext(ctx).gamma(Fraction(1, d)) ** d)
    return _finish(case, lhs, rhs, str(ctx), t0)


def verify_guo_linear(d: int, p: int) -> Report:
    """sum k ((d-1)/d)_k^d / k!^d ≡ (d-1) Gamma_p(1/d)^d / (2d) (mod p^2)."""
    _require_dflst(d, p)  # p ≡ 1 (mod d) makes the odd prime p coprime to 2d
    case = Case("guo-linear", d=d, p=p)
    t0 = perf_counter()
    ctx = PrimePower(p, 2)
    weighted = affine_weighted_sum(AffineWeight(1, 0), dflst_series(d, p - 1))
    lhs = reduce_mod(weighted, ctx)
    g = GammaContext(ctx).gamma(Fraction(1, d))
    rhs = reduce_mod(Fraction(d - 1, 2 * d), ctx) * g**d
    return _finish(case, lhs, rhs, str(ctx), t0)


def _require_guo_even(d: int, p: int) -> None:
    _require(d >= 4 and d % 2 == 0, f"need even d >= 4, got {d}")
    _require_prime(p)
    _require(p % d == d - 1, f"need p ≡ -1 (mod {d}), got p = {p}")
    _require(p >= 2 * d - 1, f"need p >= 2d-1 = {2 * d - 1}, got p = {p}")


def _require_guo_odd(d: int, p: int) -> None:
    _require(d >= 3 and d % 2 == 1, f"need odd d >= 3, got {d}")
    _require_prime(p)
    _require(p % d == d - 1, f"need p ≡ -1 (mod {d}), got p = {p}")


def verify_guo_even(d: int, p: int) -> Report:
    """dF_{d-1}(1/d-1, (1+1/d)^{d-1}; 1^{d-1} | 1)_{p-1} ≡
    (d-1)/d^2 Gamma_p(-1/d)^d (mod p^2) for even d, p ≡ -1 (mod d)."""
    _require_guo_even(d, p)
    case = Case("guo-even", d=d, p=p)
    t0 = perf_counter()
    ctx = PrimePower(p, 2)
    lhs = evaluate_mod(guo_even_series(d, p - 1), ctx)
    g = GammaContext(ctx).gamma(Fraction(-1, d))
    rhs = reduce_mod(Fraction(d - 1, d * d), ctx) * g**d
    return _finish(case, lhs, rhs, str(ctx), t0)


def verify_guo_odd(d: int, p: int) -> Report:
    """dF_{d-1}(1/d, 1/d, (1+1/d)^{d-2}; 1^{d-1} | 1)_{p-1} ≡
    -1/d^2 Gamma_p(-1/d)^d (mod p^2) for odd d, p ≡ -1 (mod d)."""
    _require_guo_odd(d, p)
    case = Case("guo-odd", d=d, p=p)
    t0 = perf_counter()
    ctx = PrimePower(p, 2)
    lhs = evaluate_mod(guo_odd_series(d, p - 1), ctx)
    g = GammaContext(ctx).gamma(Fraction(-1, d))
    rhs = reduce_mod(Fraction(-1, d * d), ctx) * g**d
    return _finish(case, lhs, rhs, str(ctx), t0)


def _require_central(p: int, r: int) -> None:
    _require_prime(p)
    _require(p % 4 == 1, f"need p ≡ 1 (mod 4), got p = {p}")
    _require(r >= 1, f"need r >= 1, got {r}")


def verify_guo_central(p: int, r: int) -> Report:
    """sum (k - (p^{2r}-1)/4) (1/2)_k^2/k!^2 over k < p^r ≡ 0 (mod p^{2r+1})."""
    _require_central(p, r)
    case = Case("guo-central", p=p, r=r)
    t0 = perf_counter()
    ctx = PrimePower(p, 2 * r + 1)
    w = AffineWeight(1, -Fraction(p ** (2 * r) - 1, 4))
    lhs = reduce_mod(affine_weighted_sum(w, central_series(p**r - 1)), ctx)
    rhs = Residue(0, ctx)
    return _finish(case, lhs, rhs, str(ctx), t0)


def _finish_mod_p(case: Case, lhs_exact: Fraction, rhs_exact: Fraction, p: int, t0: float) -> Report:
    """Reduce both exact sides mod p; a non-p-integral side is surfaced as
    a failing report rather than an exception (it would contradict the
    integrality the closed forms assume)."""
    ctx = PrimePower(p, 1)
    try:
        lhs = reduce_mod(lhs_exact, ctx)
        rhs = reduce_mod(rhs_exact, ctx)
    except NonIntegralDenominator as exc:
        return Report(case, None, None, str(ctx), False, perf_counter() - t0, note=f"finding: {exc}")
    return _finish(case, lhs, rhs, str(ctx), t0)


def verify_harmonic_even(d: int, p: int) -> Report:
    """The harmonic-difference weighted sum over (m-1)_k (m+1)_k^{d-1},
    m = (p+1)/d, against (p-1)!/((m-2)! m!^{d-1}) (1/m + 1/(m-1)) mod p."""
    _require_guo_even(d, p)
    case = Case("harmonic-even", d=d, p=p)
    t0 = perf_counter()
    m = (p + 1) // d
    spec = series([m - 1] + [m + 1] * (d - 1), [1] * (d - 1), 1, p - 1)
    lhs_exact = harmonic_weighted_sum(spec, m - 1, m + 1)
    rhs_exact = Fraction(factorial(p - 1), factorial(m - 2) * factorial(m) ** (d - 1)) * (
        Fraction(1, m) + Fraction(1, m - 1)
    )
    return _finish_mod_p(case, lhs_exact, rhs_exact, p, t0)


def verify_harmonic_odd(d: int, p: int) -> Report:
    """The harmonic-difference weighted sum over (m)_k^2 (m+1)_k^{d-2},
    m = (p+1)/d, against (p-1)!/((m-1)! m!^{d-1}) mod p."""
    _require_guo_odd(d, p)
    case = Case("harmonic-odd", d=d, p=p)
    t0 = perf_counter()
    m = (p + 1) // d
    spec = series([m, m] + [m + 1] * (d - 2), [1] * (d - 1), 1, p - 1)
    lhs_exact = harmonic_weighted_sum(spec, m, m + 1)
    rhs_exact = Fraction(factorial(p - 1), factorial(m - 1) * factorial(m) ** (d - 1))
    return _finish_mod_p(case, lhs_exact, rhs_exact, p, t0)


def _require_four_k_plus_one(n: int) -> None:
    _require(n >= 1, f"need n >= 1, got {n}")


def verify_four_k_plus_one(n: int) -> Report:
    """Exact identity: sum_{k<n} (4k+1)(1/2)_k^2/k!^2 = n^2 C(2n,n)^2/4^{2n-1}."""
    _require_four_k_plus_one(n)
    case = Case("four-k-plus-one", n=n)
    t0 = perf_counter()
    lhs = affine_weighted_sum(AffineWeight(4, 1), central_series(n - 1))
    rhs = Fraction(n * n, 4 ** (2 * n - 1)) * binomial(2 * n, n) ** 2
    return _finish(case, lhs, rhs, "exact", t0)


def verify_liu(p: int, r: int) -> Report:
    """sum (1/2)_k^2/k!^2 over k < p^r ≡ 1 (mod p^2) for p ≡ 1 (mod 4)."""
    _require_central(p, r)
    case = Case("liu", p=p, r=r)
    t0 = perf_counter()
    ctx = PrimePower(p, 2)
    lhs = evaluate_mod(central_series(p**r - 1), ctx)
    rhs = Residue(1, ctx)
    return _finish(case, lhs, rhs, str(ctx), t0)


def _require_three_series(d: int, n_trunc: int) -> None:
    _require(d >= 2, f"need d >= 2, got {d}")
    _require(n_trunc >= 0, f"need a truncation >= 0, got {n_trunc}")


def verify_three_series(d: int, n_trunc: int) -> Report:
    """Exact relation: guo-even series + (d-1) * guo-odd series equals
    d * combined series, at every truncation; checked both termwise and
    on the sums."""
    _require_three_series(d, n_trunc)
    case = Case("three-series", d=d, n=n_trunc)
    t0 = perf_counter()
    sa = guo_even_series(d, n_trunc)
    sb = guo_odd_series(d, n_trunc)
    sc = combined_series(d, n_trunc)
    lhs = evaluate_exact(sa) + (d - 1) * evaluate_exact(sb)
    rhs = d * evaluate_exact(sc)
    termwise = all(
        a + (d - 1) * b == d * c for a, b, c in zip(terms(sa), terms(sb), terms(sc))
    )
    note = "" if termwise else "termwise identity fails"
    report = _finish(case, lhs, rhs, "exact", t0, note)
    return report if termwise else replace(report, verdict=False)


def _require_combined(d: int, p: int) -> None:
    _require(d >= 3, f"need d >= 3, got {d}")
    _require_prime(p)
    _require(p % d == d - 1, f"need p ≡ -1 (mod {d}), got p = {p}")
    _require(p != d - 1, f"p = d-1 = {p} is excluded")


def verify_combined(d: int, p: int) -> Report:
    """dF_{d-1}(1/d-1, 1/d, (1+1/d)^{d-2}; 1^{d-1} | 1)_{p-1} ≡ 0 (mod p^2)
    for d >= 3, p ≡ -1 (mod d), p != d-1."""
    _require_combined(d, p)
    case = Case("combined", d=d, p=p)
    t0 = perf_counter()
    ctx = PrimePower(p, 2)
    lhs = evaluate_mod(combined_series(d, p - 1), ctx)
    rhs = Residue(0, ctx)
    return _finish(case, lhs, rhs, str(ctx), t0)


def _require_km_deformed(d: int, p: int, x: Fraction | int, y: Fraction | int) -> None:
    _require_guo_even(d, p)
    for name, value in (("x", Fraction(x)), ("y", Fraction(y))):
        # the lower parameter 1+value must not reach 0 within truncation p-1
        message = f"need {name} outside -1..-{p - 1}, got {name} = {value}"
        _require(zero_shift(1 + value, p - 1) is None, message)


def verify_km_deformed(d: int, p: int, x: Fraction | int, y: Fraction | int) -> Report:
    """The (x,y)-deformed terminating sum (leading parameter 1-p, pairs
    m-1+x/1+x, m+1+y/1+y, and (m+1)/1 repeated) equals its Karlsson-Minton
    closed form (p-1)!/((1+x)_{m-2} (1+y)_m m!^{d-2}) exactly."""
    _require_km_deformed(d, p, x, y)
    x = Fraction(x)
    y = Fraction(y)
    case = Case("km-deformed", d=d, p=p, x=x, y=y)
    t0 = perf_counter()
    m = (p + 1) // d
    spec = series(
        [1 - p, m - 1 + x, m + 1 + y] + [m + 1] * (d - 2),
        [1 + x, 1 + y] + [1] * (d - 2),
        1,
        p - 1,
    )
    lhs = evaluate_exact(spec)
    rhs = Fraction(factorial(p - 1)) / (
        pochhammer(1 + x, m - 2) * pochhammer(1 + y, m) * factorial(m) ** (d - 2)
    )
    return _finish(case, lhs, rhs, "exact", t0)


# ---------------------------------------------------------------------------
# the registry of case kinds


class Kind(NamedTuple):
    """A case kind: the Case fields its hypothesis check and its runner take,
    in their positional order, and defaults for the optional ones."""

    params: tuple[str, ...]
    check: Callable[..., None]
    run: Callable[..., Report]
    defaults: dict[str, int] = {}


# Runners are lambdas so each call finds verify_* by its module-global name,
# which a caller may rebind (to trace it, say).
KINDS: dict[str, Kind] = {
    "rv": Kind(("p",), _require_rv, lambda *a: verify_rodriguez_villegas(*a)),
    "sun": Kind(("alpha", "p"), _require_sun, lambda *a: verify_sun(*a)),
    "dflst": Kind(
        ("d", "p", "strength"), _require_dflst, lambda *a: verify_dflst(*a), defaults={"strength": 2}
    ),
    "guo-linear": Kind(("d", "p"), _require_dflst, lambda *a: verify_guo_linear(*a)),
    "guo-even": Kind(("d", "p"), _require_guo_even, lambda *a: verify_guo_even(*a)),
    "guo-odd": Kind(("d", "p"), _require_guo_odd, lambda *a: verify_guo_odd(*a)),
    "guo-central": Kind(("p", "r"), _require_central, lambda *a: verify_guo_central(*a)),
    "harmonic-even": Kind(("d", "p"), _require_guo_even, lambda *a: verify_harmonic_even(*a)),
    "harmonic-odd": Kind(("d", "p"), _require_guo_odd, lambda *a: verify_harmonic_odd(*a)),
    "four-k-plus-one": Kind(("n",), _require_four_k_plus_one, lambda *a: verify_four_k_plus_one(*a)),
    "liu": Kind(("p", "r"), _require_central, lambda *a: verify_liu(*a)),
    "three-series": Kind(("d", "n"), _require_three_series, lambda *a: verify_three_series(*a)),
    "combined": Kind(("d", "p"), _require_combined, lambda *a: verify_combined(*a)),
    "km-deformed": Kind(("d", "p", "x", "y"), _require_km_deformed, lambda *a: verify_km_deformed(*a)),
}
CASE_KINDS = tuple(KINDS)


def _bind(case: Case) -> tuple[Kind, list]:
    """The case's kind and its verifier's arguments; HypothesisViolated for
    an unknown kind, a missing parameter or one the kind does not take."""
    kind = KINDS.get(case.kind)
    if kind is None:
        raise HypothesisViolated(f"unknown case kind {case.kind!r}")
    given = {k: v for k, v in vars(case).items() if k != "kind" and v is not None}
    args = {**kind.defaults, **given}
    missing = [name for name in kind.params if name not in args]
    if missing:
        raise HypothesisViolated(f"case {case.kind!r} is missing parameters: {', '.join(missing)}")
    extra = [name for name in given if name not in kind.params]
    if extra:
        names = ", ".join(extra)
        raise HypothesisViolated(f"case {case.kind!r} does not take parameters: {names}")
    return kind, [args[name] for name in kind.params]


def admissible(case: Case) -> str | None:
    """Why run_case would reject the case (the message of the
    HypothesisViolated it would raise), or None if it is admissible."""
    try:
        kind, args = _bind(case)
        kind.check(*args)
    except HypothesisViolated as exc:
        return str(exc)
    return None


def run_case(case: Case) -> Report:
    """Run the verifier a Case describes."""
    kind, args = _bind(case)
    return kind.run(*args)
