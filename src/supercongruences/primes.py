"""Deterministic primality and prime enumeration at desk scale."""

from __future__ import annotations

import math


def is_prime(n: int) -> bool:
    """Deterministic trial-division primality test."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    r = math.isqrt(n)
    while f <= r:
        if n % f == 0:
            return False
        f += 2
    return True


def odd_primes_up_to(limit: int) -> list[int]:
    """Ascending odd primes p <= limit, by a sieve of Eratosthenes."""
    if limit < 3:
        return []
    sieve = bytearray([1]) * (limit + 1)
    for f in range(3, math.isqrt(limit) + 1, 2):
        if sieve[f]:
            sieve[f * f :: 2 * f] = bytes(len(range(f * f, limit + 1, 2 * f)))
    return [p for p in range(3, limit + 1, 2) if sieve[p]]


def primes_in_class(residue: int, modulus: int, limit: int) -> list[int]:
    """Ascending odd primes p <= limit with p ≡ residue (mod modulus)."""
    if modulus < 1:
        raise ValueError(f"modulus must be positive, got {modulus}")
    residue %= modulus
    return [p for p in odd_primes_up_to(limit) if p % modulus == residue]
