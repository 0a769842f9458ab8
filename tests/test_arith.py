import pytest

from hookzeta import cli
from hookzeta.arith import is_prime, prime_factorization
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


def trial_factorization(n):
    """Prime -> multiplicity by trial division, the oracle of the factorizer."""
    out, f = {}, 2
    while f * f <= n:
        while n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
        f += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def test_factorization_matches_trial_division_up_to_1e5():
    assert [n for n in range(1, 100_001) if prime_factorization(n) != trial_factorization(n)] == []



def test_factorization_matches_trial_division_across_the_primality_shortcut():
    # Cofactors above 2^24 are first tested by Miller-Rabin.
    span = range(2**24 - 100, 2**24 + 400)
    assert [n for n in span if prime_factorization(n) != trial_factorization(n)] == []


P18 = 1000000000000000003


@pytest.mark.parametrize(
    "n, factors",
    [
        (P18, {P18: 1}),
        (6 * P18, {2: 1, 3: 1, P18: 1}),
        (2**100, {2: 100}),
        (3**5 * 1000003 * (2**61 - 1), {3: 5, 1000003: 1, 2**61 - 1: 1}),
    ],
)
def test_factorization_stops_at_a_prime_cofactor(n, factors, time_limit):
    with time_limit(5):
        assert prime_factorization(n) == factors


def test_zeta_of_a_huge_prime_n_plus_one(capsys, time_limit):
    with time_limit(5):
        code = cli.main(["zeta", "--n", str(P18 - 1), "--d", "1"])
    assert code == 0
    assert capsys.readouterr().out == (
        "zeta_Q(1000000000000000002s) * (1 + (1000000000000000003^1000000000000000001)^(-s))\n"
    )
