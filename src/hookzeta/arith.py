"""Small exact number-theory helpers shared across the package."""

from __future__ import annotations

from itertools import chain, count, cycle
from math import gcd

from .bounds import ScaleError


# Miller-Rabin to the prime bases up to 41 is exact below this bound
# (Sorenson and Webster, Math. Comp. 86, 2017); 318665857834031151167461 is a
# strong pseudoprime to every prime base up to 37.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; ScaleError at and above `_MR_LIMIT`."""
    if n >= _MR_LIMIT:
        raise ScaleError(f"prime-scale-exceeded: primality is decided below {_MR_LIMIT}")
    return _strong_probable_prime(n)


def _strong_probable_prime(n: int) -> bool:
    """Miller-Rabin to the bases `_MR_BASES`: exact below `_MR_LIMIT`, and
    False only for composites at any size."""
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# Trial division runs through the factors below this bound, so every cofactor
# left below its square, 2^24, is prime: below that size trial division alone
# is cheaper than a prime Miller-Rabin test (both about 0.2 ms on a 2-core
# Xeon under CPython 3.11).
_TRIAL_BOUND = 1 << 12
# Steps of x -> x^2 + c that `_rho` takes, over all its constants c, before it
# gives up.  Below `_MR_LIMIT` the smallest factor of a composite is at most
# about 1.8 * 10^12: eight balanced semiprimes of that size took 2^20 to 2^22
# steps (0.4 to 1.7 s on a 2-core Xeon under CPython 3.11).  Running out
# takes about 4 s; composites above `_MR_LIMIT` whose factors are all large
# reach it, where trial division could not finish at all.
_RHO_BUDGET = 1 << 23
# Steps whose differences are multiplied together before one gcd.
_RHO_BATCH = 128


def _rho(n: int) -> int:
    """A proper factor of a composite n with no factor below `_TRIAL_BOUND`.

    Pollard's rho with Brent's cycle search (Brent, "An improved Monte Carlo
    factorization algorithm", BIT 20, 1980): y runs x -> x^2 + c mod n, x
    holds y at the last power of two, and the gcd of n with the product of
    the differences x - y over a batch finds a factor once the sequence mod
    some prime factor has cycled.  A batch whose gcd is n is stepped again one
    difference at a time; a constant c that still meets n is replaced by c + 1.
    More than `_RHO_BUDGET` steps raise ScaleError.
    """
    spent = 0
    for c in count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            # A round takes r steps to move x and at most r more to compare.
            spent += 2 * r
            if spent > _RHO_BUDGET:
                raise ScaleError(f"factor-scale-exceeded: no factor of {n} in {_RHO_BUDGET} steps")
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(_RHO_BATCH, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = gcd(q, n)
                k += _RHO_BATCH
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(x - ys, n)
        if g != n:
            return g


def prime_factorization(n: int) -> dict[int, int]:
    """Map prime -> multiplicity for n >= 1 (empty for n = 1), ascending.

    Trial division by 2, 3 and 6k +- 1 below `_TRIAL_BOUND`, then each
    cofactor is prime when it is below the square of the last divisor tried,
    or when it passes the Miller-Rabin test, and is split by `_rho` when it
    fails it.  A cofactor that passes the test at or above `_MR_LIMIT` is
    refused with ScaleError, as `is_prime` refuses it.
    """
    if n < 1:
        raise ValueError("factorization needs a positive integer")
    out: dict[int, int] = {}
    f, steps = 2, chain((1, 2), cycle((2, 4)))
    while f < _TRIAL_BOUND and f * f <= n:
        while n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
        f += next(steps)
    cofactors = [n] if n > 1 else []
    while cofactors:
        m = cofactors.pop()
        if m >= f * f:
            if not _strong_probable_prime(m):
                d = _rho(m)
                cofactors += [d, m // d]
                continue
            if m >= _MR_LIMIT:
                raise ScaleError(f"prime-scale-exceeded: primality is decided below {_MR_LIMIT}")
        out[m] = out.get(m, 0) + 1
    return dict(sorted(out.items()))


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending."""
    ds = [1]
    for p, e in prime_factorization(n).items():
        ds = [d * p**i for d in ds for i in range(e + 1)]
    return sorted(ds)


def valuation(n: int, p: int) -> int:
    """Largest e with p**e dividing n (n != 0)."""
    if n == 0:
        raise ValueError("valuation of zero is undefined")
    n = abs(n)
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


def integer_nth_root(m: int, n: int) -> int:
    """Floor of the n-th root of m >= 0, computed in pure integer arithmetic.

    m < 2^n exactly when n >= m.bit_length(), and then the root of m >= 1 is 1
    without forming any power.
    """
    if m < 0:
        raise ValueError("negative radicand")
    if m < 2:
        return m
    if n >= m.bit_length():
        return 1
    lo, hi = 1, 1
    while hi**n <= m:
        hi *= 2
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if mid**n <= m:
            lo = mid
        else:
            hi = mid
    return lo


def is_nth_power(m: int, n: int) -> bool:
    if m < 1:
        return False
    r = integer_nth_root(m, n)
    return r**n == m


def content(values) -> int:
    """GCD of an iterable of integers (0 for an all-zero iterable)."""
    g = 0
    for v in values:
        g = gcd(g, v)
        if g == 1:
            return 1
    return g
