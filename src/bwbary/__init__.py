"""Bures-Wasserstein geometry on covariance matrices.

Distances and optimal transport maps between centred Gaussians, a
fixed-point barycentre solver with an inversion-free certificate, and
constructors for shift-conjugation families whose exact barycentre is a
heavily singular covariance.
"""

from .barycentre import (
    BarycentreProblem,
    BarycentreResult,
    SolverSettings,
    barycentre_fixed_point,
    frechet_functional,
    problem,
    verify_barycentre_certificate,
)
from .construct import (
    SHARED_ANGLE_TOL,
    TruncationConfig,
    build_covariance,
    build_map_family,
    build_pair_maps,
    build_shift_map,
    conjugate,
    doubling_shift,
    kernel_report,
    symmetrized_shift,
)
from .errors import (
    DimensionMismatch,
    InvalidInput,
    KernelNotIncluded,
    NonFinite,
    NotPSD,
)
from .geometry import bw_distance, bw_distance_sq, optimal_map
from .io import load_matrix, save_matrix
from .linalg import (
    PSD_TOL,
    RANK_TOL,
    SpectralDecomp,
    eig_sym,
    kernel_basis,
    kernel_dim,
    principal_angles,
    sqrt_psd,
)
from .randomized import (
    McReport,
    RandomMapLaw,
    draw_coefficients,
    population_mc_experiment,
    random_map_sample,
)
from .recurrence import (
    GrowthWitness,
    RecurrenceParams,
    generating_coefficients,
    growth_witness,
    kernel_recurrence_solve,
)

__version__ = "0.1.0"

__all__ = [
    "BarycentreProblem",
    "BarycentreResult",
    "DimensionMismatch",
    "GrowthWitness",
    "InvalidInput",
    "KernelNotIncluded",
    "McReport",
    "NonFinite",
    "NotPSD",
    "PSD_TOL",
    "RANK_TOL",
    "RandomMapLaw",
    "RecurrenceParams",
    "SHARED_ANGLE_TOL",
    "SolverSettings",
    "SpectralDecomp",
    "TruncationConfig",
    "barycentre_fixed_point",
    "build_covariance",
    "build_map_family",
    "build_pair_maps",
    "build_shift_map",
    "bw_distance",
    "bw_distance_sq",
    "conjugate",
    "doubling_shift",
    "draw_coefficients",
    "eig_sym",
    "frechet_functional",
    "generating_coefficients",
    "growth_witness",
    "kernel_basis",
    "kernel_dim",
    "kernel_recurrence_solve",
    "kernel_report",
    "load_matrix",
    "optimal_map",
    "population_mc_experiment",
    "principal_angles",
    "problem",
    "random_map_sample",
    "save_matrix",
    "sqrt_psd",
    "symmetrized_shift",
    "verify_barycentre_certificate",
]
