"""Bures-Wasserstein distance and optimal transport maps between centred Gaussians.

Mean vectors are taken to be zero throughout, so a Gaussian is identified
with its covariance matrix and the squared 2-Wasserstein distance has the
closed form of Olkin & Pukelsheim (1982):

    d^2(A, B) = tr A + tr B - 2 tr((A^{1/2} B A^{1/2})^{1/2}).
"""

import weakref

import numpy as np

from . import linalg
from .errors import KernelNotIncluded
from .linalg import RANK_TOL, check_same_dim, check_symmetric, covariance_factor


# id(M) -> (weak reference to M, A, ...).  A == M entry for entry when stored,
# so comparing A with M again is the whole mutation check; results depend only
# on the entries, so that comparison is also all a hit needs.  Entries are
# replaced whole, so concurrent callers at worst compute twice.  _factors
# keeps (A, F) of covariance_factor, _sources (A, w, V) of a map source.
_factors: dict = {}
_sources: dict = {}


def _memo(store: dict, M, compute) -> tuple:
    """``compute(M) = (A, ...)``, ``A`` the checked ``M``, reused while ``M`` is alive and unchanged.

    Only an exactly symmetric float64 ``ndarray`` is stored, keyed by its
    ``id``; a weak reference drops the entry when the array is freed.  A
    stored result is returned while its ``A`` still equals ``M`` entry for
    entry, so an array changed in place is checked and computed again.  Any
    other input is checked and computed on every call.  Stored arrays never
    leave this module.
    """
    if type(M) is not np.ndarray or M.dtype != np.float64:
        return compute(M)
    key = id(M)
    hit = store.get(key)
    if hit is not None and np.array_equal(hit[1], M):
        return hit[1:]
    result = compute(M)
    if np.array_equal(result[0], M):
        store[key] = (weakref.ref(M, lambda _, key=key: store.pop(key, None)), *result)
    return result


def _factor(M) -> tuple:
    """:func:`linalg.covariance_factor` of ``M``, ``(A, F)``, through the memo."""
    return _memo(_factors, M, covariance_factor)


def _source_decomposition(M) -> tuple:
    """``(A, w, V)``: the symmetrized ``M`` and its :func:`linalg.psd_eigh`, through the memo."""
    def compute(M):
        A = check_symmetric(M)
        [(w, V)] = linalg.psd_eigh([A[None]])
        return A, w[0], V[0]

    return _memo(_sources, M, compute)


def cross_trace(factor_a: np.ndarray, factor_b: np.ndarray) -> float:
    """``tr((A^{1/2} B A^{1/2})^{1/2})`` from factors with ``C.T @ C`` = matrix."""
    return float(np.sum(np.linalg.svd(factor_b @ factor_a.T, compute_uv=False)))


def bw_distance_sq(A, B) -> float:
    """Squared Bures-Wasserstein distance between covariances ``A`` and ``B``.

    Parameters
    ----------
    A, B : array_like, shape (n, n)
        Symmetric PSD matrices of equal dimension.

    Returns
    -------
    float
        Nonnegative; rounding-level negatives are clamped to zero.  Symmetric
        in its arguments at rounding level.

    Notes
    -----
    The cross term ``tr((A^{1/2} B A^{1/2})^{1/2})`` equals the nuclear norm
    of ``C_B @ C_A.T`` for any factorizations ``A = C_A.T @ C_A``,
    ``B = C_B.T @ C_B``; evaluating it from the pivoted-Cholesky factors of
    both arguments keeps rank-deficient inputs exact (no square root of
    rounding noise is ever taken) and makes the formula symmetric by
    construction.  Each argument is factored by
    :func:`linalg.covariance_factor`, which is also its PSD check, and the
    factors are cut to their ranks, so the SVD is of an ``(r_B, r_A)`` matrix.
    An exactly symmetric float64 array is factored once while it is alive:
    later calls on the same unchanged array reuse its check and factor (an
    entry-for-entry comparison detects changes made in place).
    """
    A, factor_a = _factor(A)
    B, factor_b = _factor(B)
    check_same_dim(A, B)
    cross = cross_trace(factor_a, factor_b)
    val = float(np.trace(A) + np.trace(B)) - 2.0 * cross
    return max(val, 0.0)


def bw_distance(A, B) -> float:
    """Bures-Wasserstein distance, the square root of :func:`bw_distance_sq`."""
    return float(np.sqrt(bw_distance_sq(A, B)))


def optimal_map(A, B) -> np.ndarray:
    """Optimal transport map from ``N(0, A)`` to ``N(0, B)``.

    The map exists as a linear operator only when ``ker(A)`` is contained in
    ``ker(B)``; this is checked numerically and a violation raises
    :class:`KernelNotIncluded`.  On the range of ``A`` the returned matrix is

        M = A^{-1/2} (A^{1/2} B A^{1/2})^{1/2} A^{-1/2}

    with pseudo-inverses restricted to the range, and it pushes ``A`` forward
    to ``B``: ``M @ A @ M = B`` up to ~1e-7 relative on that range.

    Parameters
    ----------
    A, B : array_like, shape (n, n)
        Source and target covariances.  The one eigendecomposition of ``A``
        is also its PSD check; the pivoted-Cholesky factor of ``B``
        (:func:`linalg.covariance_factor`) is its check and gives the root
        ``(A^{1/2} B A^{1/2})^{1/2}`` as the polar factor of
        ``F_B A^{1/2}``.  A live, unchanged, exactly symmetric float64
        source reuses the decomposition of an earlier map call, and such a
        target the factor of an earlier distance or map call, as in
        :func:`bw_distance_sq`.  The relative eigenvalue cutoff
        :data:`linalg.RANK_TOL` splits ker(A) from range(A) and sets the
        kernel-inclusion test ``||B v|| <= RANK_TOL * lam_max(B) * n``, with
        ``lam_max(B) = ||F_B||_2^2`` read from the factor.

    Returns
    -------
    ndarray, shape (n, n)
        Symmetric, PSD on range(A).
    """
    A, w, V = _source_decomposition(A)
    B, factor_b = _factor(B)
    check_same_dim(A, B)
    n = A.shape[0]

    cutoff = RANK_TOL * max(1.0, float(w[0]))
    ker = V[:, w < cutoff]
    if ker.shape[1]:
        # lam_max(B) = ||F_B||_2^2; a rank-0 target has lam_max 0
        lam_max = 0.0
        if len(factor_b):
            lam_max = float(np.linalg.svd(factor_b, compute_uv=False)[0]) ** 2
        limit = RANK_TOL * lam_max * n
        worst = float(np.max(np.linalg.norm(B @ ker, axis=0)))
        if worst > limit:
            raise KernelNotIncluded(
                f"ker(A) not contained in ker(B): ||B v|| = {worst:.3e} exceeds {limit:.3e}"
            )

    pinv = linalg._spectral_apply(V, linalg._pinv_sqrt_values(w, cutoff))
    M = pinv @ linalg.polar(factor_b @ linalg._spectral_apply(V, np.sqrt(w))) @ pinv
    return (M + M.T) / 2.0
