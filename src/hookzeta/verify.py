"""Cross-checks between every closed formula and its brute-force counterpart.

Each check is named after the structural fact it exercises, takes its grid
(the module dimensions n, exponent bounds, census limits, or a seeded random
source) as parameters, runs exactly, and reports pass or fail.  The
`hookzeta verify` battery runs every check on grids scaled by --n-max; the
acceptance suite and the unit tests run the same checks on fixed grids.  The
report also records which of two candidate shapes of the Specht local factor
the enumeration supports (they differ by one term, and only one of them
counts correctly).
"""

from __future__ import annotations

import random
from copy import deepcopy
from dataclasses import asdict, dataclass
from functools import reduce, wraps
from itertools import product
from math import gcd

from . import craig, specht, zeta
from .arith import divisors, prime_factorization, valuation
from .bounds import DEFAULT_BOUNDS, Bounds, ScaleError
from .exactmat import (
    IntMatrix,
    LatticeBasis,
    LatticeError,
    hnf,
    is_sublattice,
    lattice_index,
    lattice_intersect,
    lattice_sum,
)


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


def _check(name: str, fallback: dict | None = None):
    """Turn a body returning (passed, detail) into the named check.

    With a `fallback` record the body returns (passed, detail, record) and the
    check returns (CheckResult, record).  A crashing check is a failing check,
    with a copy of the fallback record, not a crashed battery; a tripped bound
    is neither, and propagates to the caller.
    """

    def decorate(body):
        @wraps(body)
        def check(*args, **kwargs):
            try:
                passed, detail, *record = body(*args, **kwargs)
            except ScaleError:
                raise
            except Exception as exc:
                passed, detail = False, f"raised {type(exc).__name__}: {exc}"
                record = [deepcopy(fallback)] if fallback else []
            result = CheckResult(name, passed, detail)
            return (result, *record) if record else result

        return check

    return decorate


def _craig_basis(n: int, d: int) -> LatticeBasis:
    return craig.craig_lattice(n, d).basis


def _sorted_bases(n: int, family) -> list[LatticeBasis]:
    """Scaled family members as lattices, in the order the walk returns them."""
    return sorted((craig.scaled_lattice_basis(n, x) for x in family), key=LatticeBasis.key)


def _representatives(ns):
    """(n, p, i) for every L(p^i) with p | n+1 and 0 <= i <= v_p(n+1)."""
    for n in ns:
        for p in sorted(prime_factorization(n + 1)):
            for i in range(valuation(n + 1, p) + 1):
                yield n, p, i


def _interval_classes(lat: LatticeBasis, gens, p: int, bounds: Bounds) -> dict:
    """phi_p grouped by `identify_stable_lattice`: class j is the group of p^j."""
    classes: dict = {}
    for member in craig.phi_p(lat, gens, p, bounds):
        classes.setdefault(craig.identify_stable_lattice(member), []).append(member)
    return classes


def _walk_counts(lattice: LatticeBasis, gens, p: int, max_exp: int, bounds: Bounds) -> list[int]:
    found = craig.enumerate_p_sublattices(lattice, gens, p, max_exp, bounds)
    return [len(found[e]) for e in range(max_exp + 1)]


@_check("Coxeter relations (standard coordinates)")
def check_coxeter_standard(ns):
    bad = [n for n in ns if not specht.verify_coxeter(specht.craig_generators(n))]
    return not bad, f"failing n: {bad}"


@_check("Coxeter relations (Specht coordinates)")
def check_coxeter_specht(ns):
    bad = [n for n in ns if not specht.verify_coxeter(specht.specht_generators_closed(n))]
    return not bad, f"failing n: {bad}"


@_check("Specht action: closed rule vs polytabloid oracle")
def check_specht_oracle(ns):
    bad = [
        n
        for n in ns
        if specht.specht_generators_oracle(n).mats != specht.specht_generators_closed(n).mats
    ]
    return not bad, f"failing n: {bad}"


@_check("transposition character equals 2 - n")
def check_character_traces(ns):
    bad = []
    for n in ns:
        for gens in (specht.craig_generators(n), specht.specht_generators_closed(n)):
            if any(m.trace() != 2 - n for m in gens.mats):
                bad.append(n)
    return not bad, f"failing n: {bad}"


@_check("stability of L(d) exactly for divisors of n+1")
def check_stability_classification(ns):
    bad = []
    for n in ns:
        gens = specht.craig_generators(n)
        for d in range(1, 2 * (n + 1) + 1):
            if craig.is_g_stable(_craig_basis(n, d), gens) != ((n + 1) % d == 0):
                bad.append((n, d))
    return not bad, f"failing (n, d): {bad}"


@_check("scaled-lattice closed forms (inclusion, intersection, index formula)")
def check_scaled_closed_forms(ns, exp_max: int):
    """Every pair of family members p^a L(p^b) with a, b <= exp_max."""
    bad = []
    for n in ns:
        for p in sorted(prime_factorization(n + 1)):
            family = [
                craig.ScaledCraigLattice(p, a, b)
                for a in range(exp_max + 1)
                for b in range(exp_max + 1)
            ]
            # The intersection of two members with a, b <= exp_max is again one.
            bases = {x: craig.scaled_lattice_basis(n, x) for x in family}
            for x, y in product(family, repeat=2):
                lx, ly = bases[x], bases[y]
                where = (n, p, x.a, x.b, y.a, y.b)
                if craig.scaled_inclusion(x, y) != is_sublattice(lx, ly):
                    bad.append(("inclusion", *where))
                    continue
                if bases[craig.scaled_intersect(x, y)] != lattice_intersect(lx, ly):
                    bad.append(("intersection", *where))
                # The inclusion is checked above, so the index is the ratio of
                # determinants without a second inclusion test.
                if craig.scaled_inclusion(x, y):
                    if p ** craig.scaled_index(n, y, x) != lx.determinant() // ly.determinant():
                        bad.append(("index", *where))
    return not bad, f"first failures: {bad[:5]}"


@_check("maximal sublattice classification")
def check_maximal_sublattices(ns, bounds: Bounds = DEFAULT_BOUNDS):
    bad = [
        (n, p, i)
        for n, p, i in _representatives(ns)
        if craig.maximal_sublattices_p(_craig_basis(n, p**i), specht.craig_generators(n), p, bounds)
        != _sorted_bases(n, craig.scaled_maximal_sublattices(n, p, i))
    ]
    return not bad, f"failing (n, p, i): {bad}"


@_check("radical closed form")
def check_radical(ns, bounds: Bounds = DEFAULT_BOUNDS):
    bad = [
        (n, p, i)
        for n, p, i in _representatives(ns)
        if craig.rad_p(_craig_basis(n, p**i), specht.craig_generators(n), p, bounds)
        != craig.scaled_lattice_basis(n, craig.scaled_radical(n, p, i))
    ]
    return not bad, f"failing (n, p, i): {bad}"


@_check("radical interval contents")
def check_radical_interval(ns, bounds: Bounds = DEFAULT_BOUNDS):
    bad = [
        (n, p, i)
        for n, p, i in _representatives(ns)
        if craig.phi_p(_craig_basis(n, p**i), specht.craig_generators(n), p, bounds)
        != _sorted_bases(n, craig.scaled_radical_interval(n, p, i))
    ]
    return not bad, f"failing (n, p, i): {bad}"


@_check("radical interval split by isomorphism class")
def check_radical_interval_classes(ns, bounds: Bounds = DEFAULT_BOUNDS):
    """Class j of the interval is its members p^a L(p^j)."""
    bad = []
    for n, p, i in _representatives(ns):
        interval = craig.scaled_radical_interval(n, p, i)
        classes = _interval_classes(_craig_basis(n, p**i), specht.craig_generators(n), p, bounds)
        for j in range(valuation(n + 1, p) + 1):
            got = classes.get(p**j, [])
            if got != _sorted_bases(n, [x for x in interval if x.b == j]):
                bad.append((n, p, i, j))
    return not bad, f"failing (n, p, i, j): {bad}"


@_check("every p-power sublattice is a scaled representative (and conversely)")
def check_p_power_classification(ns, max_exp: int, bounds: Bounds = DEFAULT_BOUNDS):
    bad = []
    for n in ns:
        gens = specht.craig_generators(n)
        for p in sorted(prime_factorization(n + 1)):
            v = valuation(n + 1, p)
            seen = set()
            found = craig.enumerate_p_sublattices(_craig_basis(n, 1), gens, p, max_exp, bounds)
            for e, lats in found.items():
                for lat in lats:
                    try:
                        a, b = craig.classify_sublattice(lat, p)
                    except LatticeError:
                        bad.append((n, p, e, "unclassified"))
                        continue
                    # classify_sublattice has confirmed lat == p^a L(p^b) with p^b | n+1;
                    # what is left to check is the walk's level label.
                    if a * n + b * (n - 1) != e:
                        bad.append((n, p, e, (a, b)))
                    seen.add((a, b))
            expected = {
                (a, b)
                for a in range(max_exp + 1)
                for b in range(v + 1)
                if a * n + b * (n - 1) <= max_exp
            }
            if seen != expected:
                bad.append((n, p, "missing", sorted(expected - seen)))
    return not bad, f"failures: {bad[:5]}"


@_check("counting-series matrix inversion identity")
def check_inversion(ns):
    bad = [
        (n, p)
        for n in ns
        for p in sorted(prime_factorization(n + 1))
        if not zeta.verify_inverse(zeta.build_A(n, p), zeta.build_B(n, p), n)
    ]
    return not bad, f"failing: {bad}"


@_check("local factor equals row sum of partial series")
def check_row_sums(ns):
    bad = []
    for n, p, i in _representatives(ns):
        b = zeta.build_B(n, p)
        total = sum((b[i, j] for j in range(b.size)), zeta.POLY_ZERO)
        if total != zeta.local_factor(n, p, i).numerator:
            bad.append((n, p, i))
    return not bad, f"failing: {bad}"


@_check("tridiagonal matrix from first principles (Moebius sums)")
def check_tridiagonal_from_moebius(ns, bounds: Bounds = DEFAULT_BOUNDS):
    bad = []
    for n, p, i in _representatives(ns):
        gens = specht.craig_generators(n)
        a = zeta.build_A(n, p)
        lat = _craig_basis(n, p**i)
        classes = _interval_classes(lat, gens, p, bounds)
        for j in range(a.size):
            entry = zeta.IntPoly(
                (valuation(lattice_index(lat, member), p), craig.mu_p(lat, gens, p, member, bounds))
                for member in classes.get(p**j, [])
            )
            if entry != a[i, j]:
                bad.append((n, p, i, j))
    return not bad, f"failing: {bad}"


@_check("local counting series vs sublattice walk")
def check_local_series_vs_enumeration(ns, max_exp: int, bounds: Bounds = DEFAULT_BOUNDS):
    bad = []
    for n, p, i in _representatives(ns):
        series = zeta.local_factor(n, p, i).series(max_exp)
        counts = _walk_counts(_craig_basis(n, p**i), specht.craig_generators(n), p, max_exp, bounds)
        if series != counts:
            bad.append((n, p, i, series, counts))
    return not bad, f"failing: {bad[:3]}"


@_check("inert primes contribute only scalings")
def check_trivial_primes(ns, bounds: Bounds = DEFAULT_BOUNDS):
    """Primes p <= 7 not dividing n+1 count like 1/(1 - X^n), up to X^(2n)."""
    bad = []
    for n in ns:
        gens = specht.craig_generators(n)
        top = 2 * n
        for p in (2, 3, 5, 7):
            if p > n + 1 or (n + 1) % p == 0:
                continue
            counts = _walk_counts(_craig_basis(n, 1), gens, p, top, bounds)
            if counts != [1 if e % n == 0 else 0 for e in range(top + 1)]:
                bad.append((n, p, counts))
    return not bad, f"failing: {bad}"


@_check("Euler product coefficients vs exhaustive census")
def check_euler_product_vs_census(limits: dict[int, int], bounds: Bounds = DEFAULT_BOUNDS):
    """a(m) for every L(d), m = 1..limits[n], from the table `coeffs` prints."""
    bad = []
    for n, limit in limits.items():
        gens = specht.craig_generators(n)
        for d in divisors(n + 1):
            coeffs = zeta.dirichlet_coeffs(zeta.global_zeta(n, d), limit)
            base = _craig_basis(n, d)
            for m, got in enumerate(coeffs, start=1):
                want = len(craig.enumerate_index_sublattices(base, gens, m, bounds))
                if want != got:
                    bad.append((n, d, m, got, want))
    return not bad, f"failing: {bad[:5]}"


@_check("stable lattice splits as a sum of coprime scalings")
def check_sum_decomposition(ns):
    """L(d) is the sum over p | n+1 of c_p L(p^{v_p(d)}) with c_p the p-free part of d.

    The coefficients must be p-free at p and divisible enough elsewhere; the
    p-free part of d is the minimal valid choice and works for every n.  The
    factorial-based coefficients (n+1)!/n with the p-part removed only work
    when no prime outside n+1 divides all of them, so they are checked only
    where that holds.
    """
    bad = []
    for n in ns:
        m = 1
        for k in range(1, n + 2):
            m *= k
        m //= n
        m_parts = {p: m // p ** valuation(m, p) for p in prime_factorization(n + 1)}
        factorial_valid = all(
            min(valuation(mp, q) for mp in m_parts.values()) == 0
            for q in prime_factorization(m)
        )
        for d in divisors(n + 1):
            choices = [("p-free parts", {p: d // p ** valuation(d, p) for p in m_parts})]
            if factorial_valid:
                choices.append(("factorial coefficients", m_parts))
            for name, coeff in choices:
                parts = (
                    _craig_basis(n, p ** valuation(d, p)).scale(coeff[p]) for p in sorted(m_parts)
                )
                if reduce(lattice_sum, parts) != _craig_basis(n, d):
                    bad.append((n, d, name))
    return not bad, f"failing: {bad}"


@_check("Specht lattice identification")
def check_specht_identification(ns):
    """The closed intertwiner equals the sparse exact solve, and it lands on L(n+1)."""
    bad = []
    for n in ns:
        a, b = specht.specht_generators_closed(n), specht.craig_generators(n)
        closed, got = specht.identify_specht_lattice(a, b)
        if closed != specht.intertwiner(a, b):
            bad.append((n, "closed intertwiner differs from the solve"))
        if got != n + 1:
            bad.append((n, got))
    return not bad, f"failing: {bad}"


@_check("Specht lattice has a unique maximal sublattice of prime index")
def check_specht_maximal(ns, bounds: Bounds = DEFAULT_BOUNDS):
    bad = []
    for n in ns:
        gens = specht.specht_generators_closed(n)
        lat = LatticeBasis(IntMatrix.identity(n))
        for p in sorted(prime_factorization(n + 1)):
            found = craig.maximal_sublattices_p(lat, gens, p, bounds)
            if len(found) != 1 or lattice_index(lat, found[0]) != p:
                bad.append((n, p, [lattice_index(lat, f) for f in found]))
    return not bad, f"failing: {bad}"


@_check(
    "Specht local factor arbitration",
    fallback={"implemented": "full", "oracle_supports": "unavailable", "cases": []},
)
def check_specht_factor_arbitration(ns, bounds: Bounds = DEFAULT_BOUNDS):
    """Decide between the two candidate shapes of the Specht local polynomial.

    Candidate "full": 1 + X + ... + X^v.  Candidate "truncated": stops at
    X^(v-1).  The sublattice walk on L(n+1), up to X^4, is the arbiter.
    Returns the check and the record of every case.
    """
    max_exp = 4
    verdicts = []
    for n in ns:
        gens = specht.craig_generators(n)
        base = _craig_basis(n, n + 1)
        for p in sorted(prime_factorization(n + 1)):
            v = valuation(n + 1, p)
            counts = _walk_counts(base, gens, p, max_exp, bounds)
            full = zeta.LocalFactor(n, zeta.IntPoly((j, 1) for j in range(v + 1))).series(max_exp)
            truncated = zeta.LocalFactor(n, zeta.IntPoly((j, 1) for j in range(v))).series(max_exp)
            verdicts.append(
                {
                    "n": n,
                    "p": p,
                    "counts": counts,
                    "full_matches": counts == full,
                    "truncated_matches": counts == truncated,
                }
            )
    full_ok = all(case["full_matches"] for case in verdicts)
    truncated_ok = all(case["truncated_matches"] for case in verdicts)
    supported = "full" if full_ok else ("truncated" if truncated_ok else "neither")
    record = {
        "full_form": "1 + X + ... + X^v (geometric sum including X^v)",
        "truncated_form": "1 + X + ... + X^(v-1) (stops one term early)",
        "implemented": "full",
        "oracle_supports": supported,
        "cases": verdicts,
    }
    return supported == record["implemented"], f"oracle supports the {supported} form", record


def _random_unimodular(rng: random.Random, n: int, steps: int = 12) -> IntMatrix:
    rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        c = rng.randint(-3, 3)
        for r in range(n):
            rows[r][j] += c * rows[r][i]
    return IntMatrix(rows)


def _random_basis(rng: random.Random, n: int) -> LatticeBasis:
    while True:
        m = IntMatrix([[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)])
        try:
            return LatticeBasis(m)
        except LatticeError:
            continue


def _random_lower_triangular(rng: random.Random, n: int) -> IntMatrix:
    """Diagonal in 1..3, entries below it in 0..2."""
    return IntMatrix(
        [
            [rng.randint(1, 3) if i == j else (rng.randint(0, 2) if j < i else 0) for j in range(n)]
            for i in range(n)
        ]
    )


@_check("normal form is unimodular-invariant and idempotent")
def check_hnf_unimodular(rng: random.Random, trials: int):
    bad = 0
    for _ in range(trials):
        n = rng.randint(2, 5)
        lat = _random_basis(rng, n)
        u = _random_unimodular(rng, n)
        if hnf(lat.basis * u) != lat.hnf:
            bad += 1
        if hnf(lat.hnf) != lat.hnf:
            bad += 1
    return bad == 0, f"{bad} failures"


@_check("index is multiplicative along chains")
def check_index_chains(rng: random.Random, trials: int):
    bad = 0
    for _ in range(trials):
        n = rng.randint(2, 4)
        a = _random_basis(rng, n)
        b = LatticeBasis(a.basis * _random_lower_triangular(rng, n))
        c = LatticeBasis(b.basis * _random_lower_triangular(rng, n))
        if lattice_index(a, c) != lattice_index(a, b) * lattice_index(b, c):
            bad += 1
    return bad == 0, f"{bad} failures"


@_check("sum and intersection absorption laws")
def check_absorption(rng: random.Random, trials: int):
    bad = 0
    for _ in range(trials):
        n = rng.randint(2, 4)
        a, b = _random_basis(rng, n), _random_basis(rng, n)
        if lattice_sum(a, lattice_intersect(a, b)) != a:
            bad += 1
        if lattice_intersect(a, lattice_sum(a, b)) != a:
            bad += 1
        meet = lattice_intersect(a, b)
        if not (is_sublattice(meet, a) and is_sublattice(meet, b)):
            bad += 1
    return bad == 0, f"{bad} failures"


@_check("coefficients multiplicative on coprime indices")
def check_coefficient_multiplicativity(rng: random.Random, trials: int, m_max: int):
    """a(m1 m2) = a(m1) a(m2) for random coprime m1, m2 <= m_max."""
    bad = 0
    for _ in range(trials):
        n = rng.choice([2, 3, 4, 5])
        d = rng.choice(divisors(n + 1))
        z = zeta.global_zeta(n, d)
        while True:
            m1, m2 = rng.randint(1, m_max), rng.randint(1, m_max)
            if gcd(m1, m2) == 1:
                break
        if zeta.dirichlet_coeff(z, m1 * m2) != zeta.dirichlet_coeff(z, m1) * zeta.dirichlet_coeff(z, m2):
            bad += 1
    return bad == 0, f"{bad} failures"


def _ns(n_max: int) -> range:
    return range(2, n_max + 1)


def run_verification(
    n_max: int = 5, bounds: Bounds = DEFAULT_BOUNDS, seed: int = 0
) -> dict:
    """Run the whole cross-check battery up to the given module dimension."""
    if n_max < 2:
        raise ValueError("n_max must be at least 2")
    # Refuse before any work: no check before the residue layers trips a bound.
    for n in _ns(n_max):
        for p in sorted(prime_factorization(n + 1)):
            craig.check_spinning_scale(n, p, bounds)
    checks = [
        check_coxeter_standard(_ns(n_max)),
        check_coxeter_specht(_ns(max(n_max, 10))),
        check_specht_oracle(_ns(min(n_max, bounds.polytabloid_max_n))),
        check_character_traces(_ns(n_max)),
        check_stability_classification(_ns(n_max)),
        check_scaled_closed_forms(_ns(min(n_max, 6)), 3 if n_max >= 6 else 4),
        check_maximal_sublattices(_ns(n_max), bounds),
        check_radical(_ns(n_max), bounds),
        check_radical_interval(_ns(n_max), bounds),
        check_radical_interval_classes(_ns(n_max), bounds),
        check_p_power_classification(_ns(min(n_max, 6)), 5, bounds),
        check_inversion(_ns(max(n_max, 10))),
        check_row_sums(_ns(max(n_max, 10))),
        check_tridiagonal_from_moebius(_ns(min(n_max, 7)), bounds),
        check_local_series_vs_enumeration(_ns(min(n_max, 6)), 6, bounds),
        check_trivial_primes([n for n in (2, 3, 4, 6) if n <= n_max], bounds),
        check_euler_product_vs_census({n: 60 for n in _ns(min(n_max, 4))}, bounds),
        check_sum_decomposition(_ns(min(n_max, 6))),
        check_specht_identification(_ns(n_max)),
        check_specht_maximal(_ns(n_max), bounds),
        # Generic lattice laws, also property-tested in tests/test_exactmat.py; they
        # stay because the benchmark's `verify` workload counts 25 report entries.
        check_hnf_unimodular(random.Random(seed), 100),
        check_index_chains(random.Random(seed + 1), 60),
        check_absorption(random.Random(seed + 2), 60),
        check_coefficient_multiplicativity(random.Random(seed + 3), 100, 60),
    ]
    arbitration, record = check_specht_factor_arbitration(
        [n for n in (2, 3, 5) if n <= n_max], bounds
    )
    checks.append(arbitration)
    return {
        "n_max": n_max,
        "seed": seed,
        "passed": all(c.passed for c in checks),
        "specht_factor_arbitration": record,
        "checks": [asdict(c) for c in checks],
    }
