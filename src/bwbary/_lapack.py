"""The one LAPACK routine bwbary calls directly, imported from scipy at its first use.

The routine is ``pstrf``, the pivoted Cholesky of one dense matrix, and its
only caller is ``linalg.covariance_factor`` (distances, maps and
``load_matrix``); barycentre problems and the
solver's ``init`` are checked in numpy instead, so no CLI subcommand reaches
it.  ``scipy.linalg`` is imported inside :func:`pstrf`, not with the package:
a process pays for that import (about 0.2 s) at its first dense factor.

The routine is defined outside the modules that ``bench/tracer.py`` wraps, so
that its ``lapack.pstrf`` span times the LAPACK call itself, with no traced
bwbary function in between.
"""


def pstrf(a, lower=0):
    """LAPACK ``dpstrf``, pivoted Cholesky of a float64 matrix: ``(c, piv, rank, info)``."""
    from scipy.linalg.lapack import dpstrf

    return dpstrf(a, lower=lower)
