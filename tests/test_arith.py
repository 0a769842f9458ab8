import pytest

from hookzeta.arith import is_prime
from hookzeta.bounds import ScaleError

MR_LIMIT = 3317044064679887385961981


def trial_division(n):
    """Primality by trial division, the oracle of the Miller-Rabin test."""
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


def test_matches_trial_division_up_to_1e5():
    assert [n for n in range(-3, 100_001) if is_prime(n) != trial_division(n)] == []


CARMICHAEL = [561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265, 321197185]
# The least strong pseudoprimes to all of the first k prime bases, k = 1..12,
# each with a proper factor; the last one passes every prime base up to 37.
STRONG_PSEUDOPRIMES = {
    2047: 23,
    1373653: 829,
    25326001: 2251,
    3215031751: 151,
    2152302898747: 6763,
    3474749660383: 1303,
    341550071728321: 10670053,
    3825123056546413051: 149491,
    318665857834031151167461: 399165290221,
}


@pytest.mark.parametrize("n", CARMICHAEL)
def test_rejects_carmichael_numbers(n):
    assert not trial_division(n)
    assert not is_prime(n)


@pytest.mark.parametrize("n, factor", STRONG_PSEUDOPRIMES.items())
def test_rejects_strong_pseudoprimes(n, factor):
    assert 1 < factor < n and n % factor == 0
    assert not is_prime(n)


@pytest.mark.parametrize(
    "n", [2**31 - 1, 2**61 - 1, 1000000000000000003, 10**24 + 7, 3317044064679887385961813]
)
def test_accepts_large_primes(n):
    assert is_prime(n)


def test_large_composites_by_their_factors():
    p, q, r = 2**31 - 1, 2**61 - 1, 1000000007
    assert not is_prime(p * r)
    assert not is_prime(p * p)
    assert not is_prime(q * 1000003)


@pytest.mark.parametrize("n", [MR_LIMIT, MR_LIMIT + 2, 2**89 * 2**89 - 1, 10**30])
def test_refuses_above_the_deterministic_range(n):
    with pytest.raises(ScaleError, match="prime-scale-exceeded"):
        is_prime(n)
