"""Primality and progression enumeration."""

from supercongruences.primes import is_prime, odd_primes_up_to, primes_in_class


def sieve(limit):
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for n in range(2, limit + 1):
        if flags[n]:
            flags[n * n :: n] = b"\x00" * len(flags[n * n :: n])
    return [n for n in range(limit + 1) if flags[n]]


def test_is_prime_against_sieve():
    primes = set(sieve(500))
    for n in range(-3, 501):
        assert is_prime(n) == (n in primes)


def test_odd_primes():
    assert odd_primes_up_to(20) == [3, 5, 7, 11, 13, 17, 19]


def trial_division(limit):
    return [p for p in range(3, limit + 1, 2) if is_prime(p)]


def test_odd_primes_sieve_against_trial_division():
    for limit in range(-1, 2001):
        assert odd_primes_up_to(limit) == trial_division(limit)
    assert odd_primes_up_to(10**5) == trial_division(10**5)


def test_odd_primes_at_a_prime_limit():
    # the limit itself is included: an off-by-one in the sieve shows here
    for limit in (3, 199, 997, 7919, 10007):
        assert odd_primes_up_to(limit)[-1] == limit
        assert odd_primes_up_to(limit - 1) == odd_primes_up_to(limit)[:-1]


def test_primes_in_class():
    assert primes_in_class(-1, 4, 20) == [3, 7, 11, 19]
    assert primes_in_class(1, 4, 20) == [5, 13, 17]
    assert primes_in_class(-1, 6, 12) == [5, 11]
