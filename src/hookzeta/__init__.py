"""Exact sublattice counting and zeta functions for hook-module lattices."""

__version__ = "0.1.0"
