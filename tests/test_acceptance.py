"""Acceptance gate: every closed formula against its independent brute-force check.

Each criterion runs checks of the `hookzeta verify` battery on fixed grids,
mostly larger than the battery's own, and prints one pass/fail line.
Everything is exact integer arithmetic, so "tolerance" always means equality;
the time gates bound the wall time of a criterion's checks.
"""

import random
import time

from hookzeta import verify
from hookzeta.arith import valuation
from hookzeta.zeta import IntPoly, specht_zeta


def report(num, summary, run, seconds=None):
    """Run the checks, print one line, and fail on a failing check or a blown time gate."""
    t0 = time.time()
    checks = run()
    elapsed = time.time() - t0
    failures = [f"{c.name}: {c.detail}" for c in checks if not c.passed]
    passed = not failures and (seconds is None or elapsed < seconds)
    text = f"{summary}, {elapsed:.1f}s" + (f"; failures {failures}" if failures else "")
    print(f"[acceptance {num}] {'PASS' if passed else 'FAIL'} - {text}")
    assert passed, text


def test_criterion_1_euler_product_vs_census():
    """Closed-form coefficients equal exhaustive sublattice counts."""
    report(
        1,
        "coefficients match census for n=2..5 (m up to 200/64)",
        lambda: [verify.check_euler_product_vs_census({2: 200, 3: 200, 4: 64, 5: 64})],
        seconds=300,
    )


def test_criterion_2_local_series_vs_walk():
    """Local factor series equal per-exponent counts from the sublattice walk."""
    report(
        2,
        "local series match walk counts for n=2..6 up to exponent 8",
        lambda: [verify.check_local_series_vs_enumeration(range(2, 7), 8)],
        seconds=60,
    )


def test_criterion_3_inversion_identity():
    """The tridiagonal matrix inverts the partial-series matrix exactly."""
    report(
        3,
        "inversion identity exact for all n <= 10 and p | n+1",
        lambda: [verify.check_inversion(range(2, 11))],
    )


def test_criterion_4_structure_lemmas():
    """Closed forms for inclusion/intersection/index and the radical machinery."""
    ns = range(2, 9)
    report(
        4,
        "closed forms and radical machinery exact for n <= 8",
        lambda: [
            verify.check_scaled_closed_forms(ns, 4),
            verify.check_maximal_sublattices(ns),
            verify.check_radical(ns),
            verify.check_radical_interval(ns),
            verify.check_radical_interval_classes(ns),
        ],
    )


def test_criterion_5_stability_classification():
    """Stability happens exactly at divisors; every walked sublattice classifies."""
    report(
        5,
        "stability criterion and sublattice classification exact for n <= 8",
        lambda: [
            verify.check_stability_classification(range(2, 9)),
            verify.check_p_power_classification(range(2, 6), 6),
            verify.check_p_power_classification(range(6, 9), 4),
        ],
    )


def test_criterion_6_inert_primes():
    """Primes not dividing n+1 contribute only scalar sublattices."""
    report(
        6,
        "inert primes count like 1/(1 - X^n) for n in {2,3,4,6}",
        lambda: [verify.check_trivial_primes((2, 3, 4, 6))],
    )


def test_criterion_7_specht_results():
    """Closed Specht action, its identification, and its maximal sublattices."""
    report(
        7,
        "Specht action, identification, and unique maximal sublattice exact",
        lambda: [
            verify.check_specht_oracle(range(2, 6)),
            verify.check_coxeter_specht(range(2, 11)),
            verify.check_specht_identification(range(2, 9)),
            verify.check_specht_maximal(range(2, 9)),
        ],
        seconds=120,
    )


def test_criterion_8_erratum_arbitration():
    """The sublattice walk on L(n+1) decides the shape of the Specht factor."""

    def run():
        check, record = verify.check_specht_factor_arbitration((2, 3, 5))
        full = record["oracle_supports"] == "full" and all(
            poly == IntPoly(enumerate((1,) * (valuation(n + 1, p) + 1)))
            for n in (2, 3, 5)
            for p, poly in specht_zeta(n).local_factors
        )
        return [check, verify.CheckResult("Specht zeta is the full geometric sum", full)]

    report(
        8,
        "walk on L(n+1) supports the full geometric sum; the implementation and the "
        "verify report record it (truncated alternative rejected)",
        run,
    )


def test_criterion_9_property_suite():
    """Seeded randomized properties: multiplicativity, normal-form invariance, chains."""
    rng = random.Random(20240809)
    report(
        9,
        "100-trial seeded properties all exact",
        lambda: [
            verify.check_coefficient_multiplicativity(rng, 100, 80),
            verify.check_hnf_unimodular(rng, 100),
            verify.check_index_chains(rng, 100),
        ],
    )
