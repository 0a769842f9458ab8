import pytest

from hookzeta import arith, cli
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


def test_rho_splits_every_odd_composite_up_to_1e5():
    # The rho splitter is only handed cofactors with no factor below 2^12;
    # small odd composites, prime powers among them, exercise its retries.
    bad = []
    for n in range(9, 100_001, 2):
        if not trial_division(n):
            d = arith._rho(n)
            if not (1 < d < n and n % d == 0):
                bad.append(n)
    assert bad == []


PRIMES_PAST_THE_TRIAL_BOUND = [4099, 4111, 4127, 4129, 4133, 4139, 4153, 4157, 4159, 4177]


def test_factorization_of_products_past_the_trial_bound():
    # Every cofactor here is above 2^24 with no factor below 2^12, so rho splits it.
    ps = PRIMES_PAST_THE_TRIAL_BOUND
    products = [p * q for i, p in enumerate(ps) for q in ps[i:]]
    products += [p * q * r for p, q, r in zip(ps, ps[1:], ps[2:])]
    products += [6 * 4099**3, 4099**2 * 4177**2]
    assert [n for n in products if prime_factorization(n) != trial_factorization(n)] == []


P9, P10 = 998244353, 1000000007
PRIME_PAST_THE_LIMIT = 3317044064679887385962123


@pytest.mark.parametrize(
    "n, factors",
    [
        (P9 * P10, {P9: 1, P10: 1}),
        (12 * P9 * P9 * P10, {2: 2, 3: 1, P9: 2, P10: 1}),
        (4099**7, {4099: 7}),  # above the Miller-Rabin range, split by rho
        (P18 * P9 * P10, {P9: 1, P10: 1, P18: 1}),
    ],
)
def test_factorization_splits_large_composites(n, factors, time_limit):
    with time_limit(5):
        assert prime_factorization(n) == factors


@pytest.mark.parametrize("n", [PRIME_PAST_THE_LIMIT, 6 * PRIME_PAST_THE_LIMIT])
def test_factorization_refuses_a_prime_cofactor_past_the_limit(n, time_limit):
    with time_limit(5), pytest.raises(ScaleError, match="prime-scale-exceeded"):
        prime_factorization(n)


def test_rho_gives_up_past_its_budget(monkeypatch):
    monkeypatch.setattr(arith, "_RHO_BUDGET", 1000)
    with pytest.raises(ScaleError, match="factor-scale-exceeded"):
        prime_factorization(P9 * P10)


def test_zeta_of_a_product_of_two_large_primes(capsys, time_limit):
    with time_limit(5):
        code = cli.main(["zeta", "--n", str(P9 * P10 - 1), "--d", "1"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith(f"zeta_Q({P9 * P10 - 1}s) * (1 + ({P9}^")
    assert f" * (1 + ({P10}^" in out


def test_zeta_of_a_huge_prime_n_plus_one(capsys, time_limit):
    with time_limit(5):
        code = cli.main(["zeta", "--n", str(P18 - 1), "--d", "1"])
    assert code == 0
    assert capsys.readouterr().out == (
        "zeta_Q(1000000000000000002s) * (1 + (1000000000000000003^1000000000000000001)^(-s))\n"
    )
