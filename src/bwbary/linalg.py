"""Dense symmetric linear algebra with explicit tolerances.

Everything here operates on plain ``numpy`` arrays of 64-bit floats.  A
"covariance" is a symmetric PSD matrix (up to :data:`PSD_TOL`); a "map" is any
symmetric matrix.  Matrix functions go through a direct decomposition
(LAPACK ``eigh`` / ``gesdd`` / pivoted Cholesky), never through iterative
square-root schemes, so results are deterministic for identical input bits.
A covariance is checked by the decomposition its caller needs anyway: its
pivoted-Cholesky factor (:func:`covariance_factor`) or its eigendecomposition
(:func:`_psd_eigs`), both under the one rule of :func:`check_psd_floor`.

scipy, which supplies the pivoted Cholesky (``_pstrf``, see ``_lapack``) and
:func:`principal_angles`, is imported at the first call that needs it, not
with the package: importing it costs more than the rest of ``bwbary.cli``, and
CLI runs such as ``construct`` and ``recurrence`` never use it.
"""

from dataclasses import dataclass

import numpy as np

from ._lapack import pstrf as _pstrf
from .errors import DimensionMismatch, InvalidInput, NotPSD

# Eigenvalues in [-PSD_TOL * max(1, lambda_max), 0) are treated as rounding
# noise and clamped to zero; anything below that raises NotPSD.
PSD_TOL = 1e-8

# Default relative cutoff separating "kernel" from "range" eigenvalues.  It
# separates a conjugated geometric-decay spectrum with ratio 1/2 from rounding
# noise only below dimension 64; pass an explicit rank_tol from 64 up.
RANK_TOL = 1e-10

SYM_TOL = 1e-12


def _as_square_array(M) -> np.ndarray:
    A = np.asarray(M, dtype=np.float64)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise InvalidInput(f"expected a square matrix, got shape {A.shape}")
    if A.shape[0] < 1:
        raise InvalidInput("matrix must have dimension >= 1")
    if not np.all(np.isfinite(A)):
        raise InvalidInput("matrix has non-finite entries")
    return A


def check_symmetric(M, tol: float = SYM_TOL) -> np.ndarray:
    """Validate and return a symmetrized copy of ``M``.

    The asymmetry must be at most ``tol * max(1, maxAbsEntry)``; the returned
    matrix is ``(M + M.T) / 2``, which is the documented normalization applied
    before any spectral computation.
    """
    A = _as_square_array(M)
    scale = max(1.0, float(np.max(np.abs(A))) if A.size else 1.0)
    if float(np.max(np.abs(A - A.T))) > tol * scale:
        raise InvalidInput("matrix is not symmetric within tolerance")
    return (A + A.T) / 2.0


def check_covariance(M) -> np.ndarray:
    """Validate ``M`` as a covariance: symmetric within :data:`SYM_TOL` and PSD.

    Returns the symmetrized ``M``.  The check is :func:`covariance_factor`'s
    (one pivoted Cholesky); a caller that needs the factor calls that instead,
    and one that eigendecomposes ``M`` anyway checks it through
    :func:`_psd_eigs`.
    """
    return covariance_factor(M)[0]


def covariance_factor(M) -> tuple:
    """Validate ``M`` as a covariance and factor it: ``(A, F)`` with ``F.T @ F = A``.

    ``A`` is the symmetrized ``M`` (:func:`check_symmetric`); ``F`` is its
    pivoted-Cholesky factor (:func:`psd_factor`) cut to its first ``r`` rows,
    ``r`` the rank ``pstrf`` detects, so ``F`` has shape ``(r, d)``.

    The factor is also the PSD proof.  ``F.T @ F`` is PSD, so
    ``lam_min(A) >= -||A - F.T @ F||_F``, and ``max diag A <= lam_max(A)``; a
    residual ``||A - F.T @ F||_F <= PSD_TOL * max(1, max diag A)`` therefore
    shows (up to the rounding of the product) that :func:`check_psd_floor`'s
    rule holds, at the cost of one matrix product.  Only when it does not is
    the rule applied to the eigenvalues of ``A``, so the verdict and the
    :class:`NotPSD` message are the rule's.
    """
    A = check_symmetric(M)
    F = _trimmed_factor(A)
    if np.linalg.norm(A - F.T @ F) > PSD_TOL * max(1.0, float(np.max(np.diag(A)))):
        w = np.linalg.eigvalsh(A)
        check_psd_floor(float(w[0]), float(w[-1]))
    return A, F


def check_psd_floor(w_min: float, lam_max: float, what: str = "smallest eigenvalue") -> None:
    """The PSD rule: raise :class:`NotPSD` when ``w_min < -PSD_TOL * max(1, lam_max)``."""
    if w_min < -PSD_TOL * max(1.0, lam_max):
        raise NotPSD(f"{what} {w_min:.3e} below PSD tolerance")


def check_same_dim(A: np.ndarray, B: np.ndarray) -> None:
    if A.shape != B.shape:
        raise DimensionMismatch(f"dimension mismatch: {A.shape} vs {B.shape}")


@dataclass(frozen=True)
class SpectralDecomp:
    """Eigendecomposition of a symmetric matrix.

    Attributes
    ----------
    eigenvalues : ndarray, shape (n,)
        In descending order.
    eigenvectors : ndarray, shape (n, n)
        Orthonormal columns, ``eigenvectors[:, i]`` belonging to
        ``eigenvalues[i]``.  Signs are fixed so that the largest-magnitude
        component of each eigenvector is positive (ties broken by lowest
        index), which makes golden-file tests possible.

    ``sqrt``, ``pinv_sqrt`` and ``kernel`` need nonnegative eigenvalues (a PSD
    decomposition); their ``rank_tol`` is relative to ``max(1, lam_max)``.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def _apply(self, values) -> np.ndarray:
        V = self.eigenvectors
        R = (V * values) @ V.T
        return (R + R.T) / 2.0

    def _cutoff(self, rank_tol: float) -> float:
        return rank_tol * max(1.0, float(self.eigenvalues[0]))

    def reconstruct(self) -> np.ndarray:
        return self._apply(self.eigenvalues)

    def sqrt(self) -> np.ndarray:
        return self._apply(np.sqrt(self.eigenvalues))

    def pinv_sqrt(self, rank_tol: float = RANK_TOL) -> np.ndarray:
        w = self.eigenvalues
        keep = w > self._cutoff(rank_tol)
        return self._apply(np.where(keep, 1.0 / np.sqrt(np.where(keep, w, 1.0)), 0.0))

    def kernel(self, rank_tol: float = RANK_TOL) -> np.ndarray:
        return self.eigenvectors[:, self.eigenvalues < self._cutoff(rank_tol)]


def eig_sym(M) -> SpectralDecomp:
    """Spectral decomposition of a symmetric matrix.

    The input is symmetrized first (documented normalization, not an error).
    Output is deterministic: eigenvalues descending, eigenvector signs fixed
    by the largest-magnitude-component convention.

    Parameters
    ----------
    M : array_like, shape (n, n)
        Symmetric matrix (covariance or map).

    Returns
    -------
    SpectralDecomp
    """
    A = check_symmetric(M, tol=np.inf)  # symmetrize; finiteness still enforced
    w, V = np.linalg.eigh(A)
    w = w[::-1].copy()
    V = V[:, ::-1].copy()
    # sign convention: largest-|component| positive, first occurrence wins
    idx = np.argmax(np.abs(V), axis=0)
    signs = np.sign(V[idx, np.arange(V.shape[1])])
    signs[signs == 0] = 1.0
    V *= signs
    return SpectralDecomp(eigenvalues=w, eigenvectors=V)


def _psd_eigs(M) -> SpectralDecomp:
    """Decompose a covariance, verify PSD-ness and clamp rounding-level negatives to zero.

    Every root, pseudo-inverse root and kernel basis derives from this one decomposition.
    """
    dec = eig_sym(M)
    w = dec.eigenvalues
    check_psd_floor(float(w[-1]), float(w[0]))
    return SpectralDecomp(np.clip(w, 0.0, None), dec.eigenvectors)


def sqrt_psd(M) -> np.ndarray:
    """Symmetric PSD square root of a covariance matrix.

    Eigenvalues in ``[-PSD_TOL * max(1, lam_max), 0)`` are clamped to zero;
    anything below raises :class:`NotPSD`.
    """
    return _psd_eigs(M).sqrt()


def pinv_sqrt(M, rank_tol: float = RANK_TOL) -> np.ndarray:
    """Pseudo-inverse square root ``M^{-1/2}`` restricted to the range of ``M``.

    Eigenvalues at or below ``rank_tol * max(1, lam_max)`` are treated as
    kernel and mapped to zero, so ``pinv_sqrt(M) @ M @ pinv_sqrt(M)`` equals
    the orthogonal projector onto the kept eigenspace.
    """
    return _psd_eigs(M).pinv_sqrt(rank_tol)


def range_projector(M, rank_tol: float = RANK_TOL) -> np.ndarray:
    """Orthogonal projector onto the span of eigenvectors above the rank cutoff."""
    dec = _psd_eigs(M)
    return dec._apply((dec.eigenvalues > dec._cutoff(rank_tol)).astype(np.float64))


def operator_norm(M) -> float:
    """Operator (spectral) norm of a symmetric matrix: max |eigenvalue|."""
    A = check_symmetric(M, tol=np.inf)
    w = np.linalg.eigvalsh(A)
    return float(max(abs(w[0]), abs(w[-1]))) if w.size else 0.0


def kernel_dim(M, rank_tol: float = RANK_TOL) -> int:
    """Number of eigenvalues of a PSD matrix below ``rank_tol * max(lam_max, 1)``."""
    return int(kernel_basis(M, rank_tol).shape[1])


def kernel_basis(M, rank_tol: float = RANK_TOL) -> np.ndarray:
    """Orthonormal basis (columns) of the numerical kernel of a PSD matrix."""
    return _psd_eigs(M).kernel(rank_tol)


def principal_angles(U: np.ndarray, W: np.ndarray) -> np.ndarray:
    """Canonical angles (radians, descending) between the column spans of U and W."""
    from scipy.linalg import subspace_angles

    return subspace_angles(U, W)


def psd_factor(M) -> np.ndarray:
    """Factor ``C`` with ``C.T @ C = M`` via diagonally pivoted Cholesky.

    For graded PSD matrices (D A D with D diagonal and A well-conditioned)
    the pivoted factor retains small eigenvalues with high relative accuracy,
    which a plain eigendecomposition loses once the spectrum spans more than
    ~16 decades.  Rows beyond the numerically detected rank are zero.
    """
    A = _as_square_array(M)
    F = _trimmed_factor(A)
    C = np.zeros(A.shape)
    C[:len(F)] = F
    return C


def _trimmed_factor(A: np.ndarray) -> np.ndarray:
    """The nonzero rows of :func:`psd_factor`'s factor of a square array: shape ``(rank, n)``."""
    c, piv, rank, info = _pstrf(A, lower=0)
    if info < 0:
        raise InvalidInput(f"pivoted Cholesky failed with info={info}")
    # undo the pivoting: M = P L L^T P^T  =>  factor rows get permuted columns
    n = A.shape[0]
    inv = np.empty(n, dtype=np.intp)
    inv[piv - 1] = np.arange(n)
    return np.triu(c[:rank])[:, inv]


def polar(X: np.ndarray) -> np.ndarray:
    """Symmetric polar factor ``|X| = (X.T @ X)^{1/2}`` of one matrix or a stack of matrices.

    ``X`` is ``(r, d)`` or a stack of them (a factor cut to its nonzero rows
    has ``r <= d``); the result is ``(d, d)``.  Computed from one (stacked)
    thin SVD ``X = U diag(s) Vt``, ``Vt`` of shape ``(min(r, d), d)``, as
    ``Vt.T diag(s) Vt``, symmetrized.  For square ``X`` the thin SVD has the
    bits of the full one.
    A stack gives, matrix for matrix, the same bits as separate calls.
    """
    _, sv, Vt = np.linalg.svd(X, full_matrices=False)
    R = (np.swapaxes(Vt, -1, -2) * sv[..., None, :]) @ Vt
    return (R + np.swapaxes(R, -1, -2)) / 2.0


def congruence_sqrt(root: np.ndarray, M: np.ndarray) -> np.ndarray:
    """PSD square root of ``root @ M @ root`` for PSD ``M`` and symmetric ``root``.

    Computed as the symmetric polar factor ``|C @ root|`` of the
    pivoted-Cholesky factor ``C`` of ``M``, which keeps absolute accuracy at
    rounding level even when the product's spectrum spans hundreds of decades
    (the regime where ``sqrt_psd`` of the explicit product degrades);
    algebraically identical to ``sqrt_psd(root @ M @ root)``.  The transport
    map, the barycentre iteration and the barycentre certificate take the same
    :func:`polar` of the factors they already hold, cut to their rank; this
    function is their reference.
    """
    return polar(psd_factor(M) @ root)
