"""Exception types shared across the library."""


class CongruenceError(Exception):
    """Base class for all library-specific errors."""


class NonIntegralDenominator(CongruenceError):
    """A rational quantity is not a p-adic integer at the requested modulus.

    Raised when reducing q mod p^k and p divides the denominator of q.
    """


class ZeroLowerPochhammer(CongruenceError):
    """A lower series parameter has a vanishing Pochhammer within the
    truncation range, so some term would divide by zero."""


class HypothesisViolated(CongruenceError):
    """Arguments fall outside the hypotheses of the result being checked.

    This is a usage error, never a counterexample.
    """

