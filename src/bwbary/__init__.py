"""Bures-Wasserstein geometry on covariance matrices.

Distances and optimal transport maps between centred Gaussians, a
fixed-point barycentre solver with an inversion-free certificate, and
constructors for shift-conjugation families whose exact barycentre is a
heavily singular covariance.

The exports are loaded lazily (PEP 562): ``import bwbary`` imports no
submodule, and ``bwbary.<name>`` imports the module that defines ``name`` at
first use.  Each look-up returns that module's current attribute and nothing
is cached here, so a name patched in its defining module is seen through the
package as well.  A command-line process thus loads only the modules its
subcommand runs.
"""

import importlib

__version__ = "0.1.0"

# module -> the names it exports through the package
_MODULE_EXPORTS = {
    "barycentre": (
        "BarycentreProblem",
        "BarycentreResult",
        "SolverSettings",
        "barycentre_fixed_point",
        "frechet_functional",
        "problem",
        "verify_barycentre_certificate",
    ),
    "construct": (
        "SHARED_ANGLE_TOL",
        "TruncationConfig",
        "build_covariance",
        "build_pair_maps",
        "build_shift_map",
        "conjugate",
        "doubling_shift",
        "kernel_report",
        "symmetrized_shift",
    ),
    "errors": (
        "DimensionMismatch",
        "InvalidInput",
        "KernelNotIncluded",
        "NonFinite",
        "NotPSD",
    ),
    "geometry": ("bw_distance", "bw_distance_sq", "optimal_map"),
    "io": ("load_matrix", "save_matrix"),
    "linalg": (
        "PSD_TOL",
        "RANK_TOL",
        "kernel_basis",
        "kernel_dim",
        "principal_angles",
    ),
    "randomized": (
        "McReport",
        "RandomMapLaw",
        "draw_coefficients",
        "population_mc_experiment",
        "random_map_sample",
    ),
    "recurrence": (
        "GrowthWitness",
        "RecurrenceParams",
        "generating_coefficients",
        "growth_witness",
        "kernel_recurrence_solve",
    ),
}

# exported name -> its defining module
_EXPORTS = {name: module for module, names in _MODULE_EXPORTS.items() for name in names}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    if name in _MODULE_EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
