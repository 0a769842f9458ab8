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
    # The tabloid expansion of a hook polytabloid has n! terms.
    polytabloid_max_n: int = 7
    # Largest sublattice index accepted by the exhaustive census.
    index_enumeration_max: int = 500
    # Largest work estimate accepted for the submodules of a residue module
    # F_p^n: n^3 (n + p) for the semisimple word (n dense products and
    # kernels, Berlekamp over range(p)), and n^3 per submodule of the join
    # closure, checked as it grows.
    spinning_max_order: int = 1_000_000
    # Largest n accepted by `hookzeta specht`, whose JSON output grows like
    # n^3 (n generator matrices of n^2 entries; about 32 MB at n = 128).
    specht_max_n: int = 128
    # Largest `hookzeta coeffs --limit`: the table and its output (about 27
    # bytes of JSON per index) grow linearly in it.
    coeffs_max_limit: int = 1_000_000


DEFAULT_BOUNDS = Bounds()
