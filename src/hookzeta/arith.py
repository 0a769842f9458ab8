"""Small exact number-theory helpers shared across the package."""

from __future__ import annotations

from itertools import chain, cycle
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


# Trial division alone is cheaper than a prime Miller-Rabin test below this
# cofactor size (both about 0.2 ms on a 2-core Xeon under CPython 3.11).
_TRIAL_MAX = 1 << 24


def prime_factorization(n: int) -> dict[int, int]:
    """Map prime -> multiplicity for n >= 1 (empty for n = 1).

    Trial division by 2, 3 and 6k +- 1, which stops once the cofactor is
    prime.  A cofactor between `_TRIAL_MAX` and `_MR_LIMIT` is tested by
    `is_prime` once at the start and once after each prime factor found, so
    a huge prime is answered at once.  A product of two large primes still
    trial-divides up to the smaller one.
    """
    if n < 1:
        raise ValueError("factorization needs a positive integer")
    out: dict[int, int] = {}
    fresh = True
    f, steps = 2, chain((1, 2), cycle((2, 4)))
    while f * f <= n:
        if fresh:
            if _TRIAL_MAX < n < _MR_LIMIT and is_prime(n):
                break
            fresh = False
        if n % f == 0:
            while n % f == 0:
                out[f] = out.get(f, 0) + 1
                n //= f
            fresh = True
        f += next(steps)
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


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
