"""The one LAPACK routine bwbary calls directly, fetched from scipy at its first use.

Importing scipy costs more than the rest of ``bwbary.cli``, so the import
waits for the first pivoted Cholesky.  The routine is defined outside the
modules that ``bench/tracer.py`` wraps, so that its ``lapack.pstrf`` span
times the LAPACK call itself, with no traced bwbary function in between.
"""

import functools

import numpy as np


@functools.cache
def _routine():
    from scipy.linalg import get_lapack_funcs

    return get_lapack_funcs(("pstrf",), (np.empty((1, 1), dtype=np.float64),))[0]


def pstrf(a, lower=0):
    """LAPACK ``dpstrf``, pivoted Cholesky of a float64 matrix: ``(c, piv, rank, info)``."""
    return _routine()(a, lower=lower)
