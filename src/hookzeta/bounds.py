"""Desk-scale resource bounds, collected in one place.

Every potentially explosive computation checks one of these limits and fails
with a clean ScaleError instead of silently truncating.  The CLI exposes
an override for each.
"""

from __future__ import annotations

from dataclasses import dataclass


class ScaleError(RuntimeError):
    """A requested computation exceeds the configured desk-scale bounds."""


@dataclass(frozen=True)
class Bounds:
    # Largest n at which `verify` and `specht` check the Specht action against
    # the polytabloid oracle (n terms per polytabloid).
    polytabloid_max_n: int = 7
    # Largest sublattice index accepted by the exhaustive census.
    index_enumeration_max: int = 500
    # Largest work estimate accepted for the submodules of a residue module
    # F_p^n: n^3 (n + p) for the semisimple word and its block digraph (Krylov
    # characteristic polynomials of at most n sparse prefix words, Berlekamp
    # over range(p), the inverse of the blocks' basis and the generators'
    # edges), and n^3 per member of the radical interval, checked once the
    # top classes are known.
    spinning_max_order: int = 1_000_000
    # Largest `hookzeta enumerate --max-exp`: the walk reads a residue layer
    # per exponent (about 1 s at 1000 for n = 8, p = 3).
    walk_max_exp: int = 1000
    # Largest n accepted by `hookzeta specht`, whose JSON output grows like
    # n^3 (n generator matrices of n^2 entries; about 32 MB at n = 128).
    specht_max_n: int = 128
    # Largest `hookzeta coeffs --limit`: the table and its output (about 27
    # bytes of JSON per index) grow linearly in it.
    coeffs_max_limit: int = 1_000_000


DEFAULT_BOUNDS = Bounds()
