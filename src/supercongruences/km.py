"""Karlsson-Minton summation as executable exact identities.

Both classical forms are covered, always in their terminating shape:

* closed form: when the leading upper parameter is -(m_1+...+m_n) and
  each remaining upper parameter exceeds its lower partner b_i by the
  nonnegative integer m_i, the unit-argument sum collapses to
  (-1)^M * M! / ((b_1)_{m_1} ... (b_n)_{m_n}) with M = m_1+...+m_n;
* vanishing form: with leading upper parameter -M for an integer
  M strictly greater than m_1+...+m_n, the sum is exactly 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import HypothesisViolated, ZeroLowerPochhammer
from .exact import factorial, pochhammer, to_fraction
from .hypergeom import SeriesSpec, evaluate_exact, series


@dataclass(frozen=True)
class KmInstance:
    """Parameter pairs (b_i + m_i over b_i) of a Karlsson-Minton sum."""

    m: tuple[int, ...]
    b: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        fractional = [v for v in self.m if v != int(v)]
        if fractional:
            raise ValueError(f"shifts must be integers, got {', '.join(map(str, fractional))}")
        object.__setattr__(self, "m", tuple(int(v) for v in self.m))
        object.__setattr__(self, "b", tuple(map(to_fraction, self.b)))
        if len(self.m) != len(self.b):
            raise ValueError(f"got {len(self.m)} shifts but {len(self.b)} parameters")
        if not self.m:
            raise ValueError("need at least one parameter pair")
        if any(v < 0 for v in self.m):
            raise ValueError(f"shifts must be nonnegative, got {self.m}")

    @property
    def total_shift(self) -> int:
        return sum(self.m)


def km_series(inst: KmInstance, a: Fraction | int, n: int) -> SeriesSpec:
    """The unit-argument series with leading upper parameter a over the
    instance's parameter pairs, truncated at n."""
    upper = (to_fraction(a),) + tuple(b + m for m, b in zip(inst.m, inst.b))
    return series(upper, inst.b, 1, n)


def km_lhs(inst: KmInstance) -> Fraction:
    """Exact value of the terminating sum with leading parameter -M.

    Terms vanish beyond k = M since (-M)_k = 0 there, so summing to M
    is the whole series.
    """
    M = inst.total_shift
    return evaluate_exact(km_series(inst, -M, M))


def km_rhs(inst: KmInstance) -> Fraction:
    """Exact closed form (-1)^M * M! / prod (b_i)_{m_i}."""
    M = inst.total_shift
    den = Fraction(1)
    for m, b in zip(inst.m, inst.b):
        poch = pochhammer(b, m)
        if poch == 0:
            raise ZeroLowerPochhammer(f"({b})_{m} = 0 in the closed form")
        den *= poch
    return Fraction((-1) ** M * factorial(M)) / den


def km_vanishing(M: int, inst: KmInstance) -> Fraction:
    """Exact value of the terminating sum with leading parameter -M for
    M strictly above the total shift; the contract is that it equals 0."""
    if M <= inst.total_shift:
        raise HypothesisViolated(
            f"vanishing form needs M > {inst.total_shift}, got M = {M}"
        )
    return evaluate_exact(km_series(inst, -M, M))
