"""Workload definitions: inputs, the calls into hookzeta, and reference checks.

Each workload has three parts:

* ``setup(seed, smoke)`` builds the inputs and the expected answers.  It uses
  only this file, never hookzeta, so its references do not depend on the code
  under test.
* ``run(inputs, hz)`` makes the timed calls into hookzeta.  ``hz`` gives the
  CLI entry point and the hookzeta modules; CLI output is captured, not
  printed.  It returns a dict whose ``"calls"`` entry lists the CLI calls.
* ``check(inputs, result)`` compares the answers with the references and
  returns a ``Tally`` of operations attempted and failed.

One operation is one verify check, one walk exponent level, one Specht size,
one census index (n, d, m) or one coefficient table.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from math import gcd
from typing import Callable


@dataclass
class Tally:
    ops: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def op(self, ok: bool, note: str = "") -> None:
        self.ops += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 5:
                self.notes.append(note)


@dataclass
class CliCall:
    argv: list[str]
    rc: int | None
    stdout: str


# ---------------------------------------------------------------------------
# Arithmetic the references need, coded here so that no reference goes
# through hookzeta.
# ---------------------------------------------------------------------------


def _valuation(m: int, p: int) -> int:
    k = 0
    while m % p == 0:
        m //= p
        k += 1
    return k


def _prime_factors(m: int) -> list[int]:
    out, q = [], 2
    while q * q <= m:
        if m % q == 0:
            out.append(q)
            while m % q == 0:
                m //= q
        q += 1
    if m > 1:
        out.append(m)
    return out


def _divisors(m: int) -> list[int]:
    return [q for q in range(1, m + 1) if m % q == 0]


def local_series(n: int, p: int, d: int, max_exp: int) -> list[int]:
    """Counts of stable sublattices of L(d) of index p^k, k = 0..max_exp.

    The paper's closed form: numerator / (1 - X^n), with numerator
    sum_{j<=i} X^j + sum_{i<j<=v} X^((j-i)(n-1)), where v = v_p(n+1) and
    i = v_p(d).
    """
    v, i = _valuation(n + 1, p), _valuation(d, p)
    exps = list(range(i + 1)) + [(j - i) * (n - 1) for j in range(i + 1, v + 1)]
    return [sum(1 for e in exps if e <= k and (k - e) % n == 0) for k in range(max_exp + 1)]


def coefficient_table(n: int, d: int, limit: int) -> list[int]:
    """a(m) for m = 1..limit: the Dirichlet coefficients of the Euler product.

    a is multiplicative.  At p dividing n+1 it follows the local series; at
    every other prime the local factor is 1 / (1 - p^(-ns)), so the part of m
    prime to n+1 must be a perfect n-th power.
    """
    primes = _prime_factors(n + 1)
    series = {p: local_series(n, p, d, limit.bit_length()) for p in primes}
    powers, x = set(), 1
    while x**n <= limit:
        powers.add(x**n)
        x += 1
    table = []
    for m in range(1, limit + 1):
        c, r = 1, m
        for p in primes:
            k = 0
            while r % p == 0:
                r //= p
                k += 1
            c *= series[p][k]
        table.append(c if r in powers else 0)
    return table


def standard_generators(n: int) -> list[list[list[int]]]:
    """s_k = E^{k,k-1} + 2E^{k,k} + E^{k,k+1} - I for k = 1..n, as row lists."""
    mats = []
    for k in range(1, n + 1):
        rows = [[-1 if i == j else 0 for j in range(n)] for i in range(n)]
        for j, c in ((k - 1, 1), (k, 2), (k + 1, 1)):
            if 1 <= j <= n:
                rows[k - 1][j - 1] += c
        mats.append(rows)
    return mats


def _matmul(a, b):
    out = []
    for row in a:
        acc = [0] * len(b[0])
        for x, brow in zip(row, b):
            if x:
                acc = [u + x * v for u, v in zip(acc, brow)]
        out.append(acc)
    return out


def _matrix(obj) -> list[list[int]]:
    rows = [[int(x) for x in row] for row in obj["entries"]]
    if len(rows) != obj["rows"] or any(len(r) != obj["cols"] for r in rows):
        raise ValueError("matrix shape does not match its declared size")
    return rows


# ---------------------------------------------------------------------------
# verify: the cross-check battery as users run it.
# ---------------------------------------------------------------------------

REPORT_CHECKS = 25


def setup_verify(seed: int, smoke: bool) -> dict:
    n_max = 3 if smoke else 6
    return {"argv": ["verify", "--n-max", str(n_max), "--seed", str(seed)]}


def run_verify(inputs: dict, hz) -> dict:
    return {"calls": [hz.cli(inputs["argv"])]}


def check_verify(inputs: dict, result: dict) -> Tally:
    call = result["calls"][0]
    lines = [l for l in call.stdout.splitlines() if l.startswith(("[pass] ", "[FAIL] "))]
    tally = Tally()
    for line in lines:
        tally.op(line.startswith("[pass] "), line)
    for _ in range(REPORT_CHECKS - len(lines)):
        tally.op(False, "check missing from the report")
    if tally.failed == 0 and call.rc != 0:
        tally.failed = tally.ops
        tally.notes.append(f"exit code {call.rc} contradicts an all-pass report")
    return tally


# ---------------------------------------------------------------------------
# walk: breadth-first walk over maximal sublattices, one cold residue module.
# ---------------------------------------------------------------------------


def setup_walk(seed: int, smoke: bool) -> dict:
    n, d, p, max_exp = (3, 1, 2, 8) if smoke else (8, 1, 3, 24)
    argv = ["enumerate", "--n", str(n), "--d", str(d), "--prime", str(p), "--max-exp", str(max_exp)]
    return {"argv": argv, "expected": local_series(n, p, d, max_exp)}


def run_walk(inputs: dict, hz) -> dict:
    return {"calls": [hz.cli(inputs["argv"])]}


def check_walk(inputs: dict, result: dict) -> Tally:
    expected = inputs["expected"]
    tally = Tally()
    try:
        counts = json.loads(result["calls"][0].stdout)["counts"]
    except (ValueError, KeyError, TypeError):
        counts = {}
    for e, want in enumerate(expected):
        got = counts.get(str(e))
        tally.op(got == want, f"level {e}: got {got}, closed form {want}")
    return tally


# ---------------------------------------------------------------------------
# specht: closed Specht action, intertwiner solve and identification.
# ---------------------------------------------------------------------------


def setup_specht(seed: int, smoke: bool) -> dict:
    sizes = (3, 5) if smoke else (16, 24)
    return {
        "sizes": list(sizes),
        "standard": {n: standard_generators(n) for n in sizes},
    }


def run_specht(inputs: dict, hz) -> dict:
    return {"calls": [hz.cli(["specht", "--n", str(n)]) for n in inputs["sizes"]]}


def _specht_answer_ok(n: int, standard, call: CliCall) -> str:
    """Empty string when the answer is right, else the reason it is wrong."""
    if call.rc != 0:
        return f"exit code {call.rc}"
    try:
        out = json.loads(call.stdout)
        d = out["d"]
        p = _matrix(out["intertwiner"])
        closed = [_matrix(m) for m in out["generators"]]
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable output: {exc}"
    if out.get("n") != n or len(closed) != n or len(p) != n:
        return "wrong dimension"
    if d != n + 1:
        return f"d = {d}, expected {n + 1}"
    g = 0
    for row in p:
        for x in row:
            g = gcd(g, x)
    if g != 1:
        return f"intertwiner entries have gcd {g}"
    for k, (s, s2) in enumerate(zip(standard, closed), start=1):
        if _matmul(s, p) != _matmul(p, s2):
            return f"s_{k} P != P s'_{k}"
    return ""


def check_specht(inputs: dict, result: dict) -> Tally:
    tally = Tally()
    for n, call in zip(inputs["sizes"], result["calls"]):
        why = _specht_answer_ok(n, inputs["standard"][n], call)
        tally.op(not why, f"n={n}: {why}")
    return tally


# ---------------------------------------------------------------------------
# census: exhaustive triangular-basis census, Dirichlet coefficients and a
# large CLI table.
# ---------------------------------------------------------------------------


def setup_census(seed: int, smoke: bool) -> dict:
    if smoke:
        grids, big = ((3, 16), (5, 8)), (3, 4, 1000)
    else:
        grids, big = ((3, 500), (5, 64)), (3, 4, 200_000)
    tables = {(n, d): limit for n, limit in grids for d in _divisors(n + 1)}
    tables[big[:2]] = max(tables[big[:2]], big[2])
    queries = [(n, d, m) for n, limit in grids for d in _divisors(n + 1) for m in range(1, limit + 1)]
    random.Random(seed).shuffle(queries)
    return {
        "tables": tables,
        "expected": {key: coefficient_table(*key, limit) for key, limit in tables.items()},
        "queries": queries,
    }


def run_census(inputs: dict, hz) -> dict:
    calls = [
        hz.cli(["coeffs", "--n", str(n), "--d", str(d), "--limit", str(limit)])
        for (n, d), limit in inputs["tables"].items()
    ]
    lattices, gens, counts = {}, {}, {}
    for n, d, m in inputs["queries"]:
        if (n, d) not in lattices:
            lattices[n, d] = hz.craig.craig_lattice(n, d).basis
            gens.setdefault(n, hz.specht.craig_generators(n))
        try:
            counts[n, d, m] = len(hz.craig.enumerate_index_sublattices(lattices[n, d], gens[n], m))
        except Exception:  # an exception is a failed op; check() sees the count missing
            counts[n, d, m] = None
    return {"calls": calls, "counts": counts}


def _table_from_output(call: CliCall) -> list[int] | None:
    if call.rc != 0:
        return None
    try:
        pairs = json.loads(call.stdout)
        if [m for m, _ in pairs] != list(range(1, len(pairs) + 1)):
            return None
        return [a for _, a in pairs]
    except (ValueError, TypeError):
        return None


def check_census(inputs: dict, result: dict) -> Tally:
    tally = Tally()
    tables = {}
    for key, call in zip(inputs["tables"], result["calls"]):
        table = _table_from_output(call)
        tally.op(table == inputs["expected"][key], f"coefficient table {key} differs from the closed form")
        tables[key] = table or []
    for n, d, m in inputs["queries"]:
        got = result["counts"].get((n, d, m))
        table = tables[n, d]
        want = table[m - 1] if m <= len(table) else None
        tally.op(got is not None and got == want, f"census ({n}, {d}, {m}) = {got}, table {want}")
    return tally


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    setup: Callable[[int, bool], dict]
    run: Callable[[dict, object], dict]
    check: Callable[[dict, dict], Tally]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "verify",
            "the full cross-check battery; residue spinning mostly served from the submodule cache",
            setup_verify,
            run_verify,
            check_verify,
        ),
        Workload(
            "walk",
            "sublattice walk with a few large cold residue modules and no cache reuse",
            setup_walk,
            run_walk,
            check_walk,
        ),
        Workload(
            "specht",
            "Specht identification; the Fraction intertwiner solve, no spinning and no census",
            setup_specht,
            run_specht,
            check_specht,
        ),
        Workload(
            "census",
            "triangular-basis census, Dirichlet coefficients and a 5 MB CLI table; no spinning",
            setup_census,
            run_census,
            check_census,
        ),
    )
}
