"""Exact sublattice counting and zeta functions for hook-module lattices."""

from .arith import divisors, prime_factorization, valuation
from .bounds import DEFAULT_BOUNDS, Bounds, ScaleError
from .craig import (
    CraigLattice,
    ScaledCraigLattice,
    classify_sublattice,
    craig_lattice,
    enumerate_index_sublattices,
    enumerate_p_sublattices,
    identify_stable_lattice,
    is_g_stable,
    maximal_sublattices_p,
    mu_p,
    phi_p,
    rad_p,
    scaled_inclusion,
    scaled_index,
    scaled_intersect,
    scaled_lattice_basis,
    scaled_maximal_sublattices,
    scaled_radical,
    scaled_radical_interval,
)
from .exactmat import (
    IntMatrix,
    LatticeBasis,
    LatticeError,
    MatrixError,
    hnf,
    is_sublattice,
    lattice_index,
    lattice_intersect,
    lattice_sum,
    matrix_from_json,
    matrix_to_json,
)
from .specht import (
    RepGenerators,
    closed_intertwiner,
    craig_generators,
    identify_specht_lattice,
    intertwiner,
    specht_generators_closed,
    specht_generators_oracle,
    verify_coxeter,
)
from .verify import run_verification
from .zeta import (
    GlobalZeta,
    IntPoly,
    LocalFactor,
    PolyMatrix,
    ZetaError,
    build_A,
    build_B,
    dirichlet_coeff,
    dirichlet_coeffs,
    global_zeta,
    local_factor,
    specht_zeta,
    verify_inverse,
)

__version__ = "0.1.0"
