"""Dense symmetric linear algebra with explicit tolerances.

Everything here operates on plain ``numpy`` arrays of 64-bit floats.  A
"covariance" is a symmetric PSD matrix (up to :data:`PSD_TOL`); a "map" is any
symmetric matrix.  Matrix functions go through a direct decomposition
(LAPACK ``eigh`` / ``gesdd`` / pivoted Cholesky), never through iterative
square-root schemes, so results are deterministic for identical input bits.
Three exceptions to LAPACK: :func:`polar` of a matrix with at most two rows
(the blocks of the doubling chains of length 1, 2 and 3, which are most of
them) is computed in closed form, with one Jacobi rotation and no iteration;
:func:`polar` of a large stack of matrices with three to five rows (the
longer chains' blocks of many barycentre inputs) by one-sided Jacobi sweeps
over the whole stack at once; and :func:`pivoted_cholesky` factors a whole
stack of matrices (the chain blocks of every barycentre input) in numpy, one
factor row per step, under LAPACK ``pstrf``'s stopping rule applied to each
matrix.
Every matrix from outside is first checked, one matrix at a time, to be
square, finite and symmetric by :func:`check_symmetric`.  A covariance is
then checked by the decomposition its caller needs anyway: its
pivoted-Cholesky factor (:func:`covariance_factor`, or the block factors of
a barycentre problem) or its eigendecomposition (:func:`_psd_eigs`), all
under the one rule of :func:`check_psd_floor`.

scipy supplies only LAPACK ``pstrf`` (``_pstrf``), which only
:func:`covariance_factor` calls (distances, maps, ``check_covariance``,
``io.load_matrix``); ``scipy.linalg`` is imported at the first such
factorization, not with the package (see ``_lapack``).  Barycentre problems
factor in numpy and the solver checks its ``init`` by its eigendecomposition,
so no CLI subcommand imports scipy.
:func:`principal_angles` is numpy's SVD with the cosine/sine method of
Knyazev & Argentati, each angle taken from whichever of its cosine and sine
gives it accurately.
"""

from dataclasses import dataclass
from math import prod

import numpy as np

from ._lapack import pstrf as _pstrf
from .errors import DimensionMismatch, InvalidInput, NotPSD

# Eigenvalues in [-PSD_TOL * max(1, lambda_max), 0) are treated as rounding
# noise and clamped to zero; anything below that raises NotPSD.
PSD_TOL = 1e-8

# Default relative cutoff separating "kernel" from "range" eigenvalues, for
# matrices of unknown origin.  It separates a conjugated geometric-decay
# spectrum with ratio 1/2 from rounding noise only below dimension 64; the
# constructed family needs no cutoff, since construct.conjugated_kernel takes
# its kernels from the maps.
RANK_TOL = 1e-10

SYM_TOL = 1e-12


def check_square(M) -> np.ndarray:
    """``M`` as a float64 array, checked to be a square matrix of dimension at least 1."""
    A = np.asarray(M, dtype=np.float64)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise InvalidInput(f"expected a square matrix, got shape {A.shape}")
    if A.shape[0] < 1:
        raise InvalidInput("matrix must have dimension >= 1")
    return A


def check_symmetric(M, tol: float = SYM_TOL) -> np.ndarray:
    """Validate and return a symmetrized copy of ``M``.

    ``M`` must be a square matrix of dimension at least 1
    (:func:`check_square`), then finite, then symmetric within
    ``tol * max(1, maxAbsEntry)``; each failure raises :class:`InvalidInput`
    with its own message.  Finiteness is tested before ``M - M.T`` is formed,
    so a non-finite entry raises no numpy warning.  The returned matrix is
    ``(M + M.T) / 2``, which is the documented normalization applied before
    any spectral computation.
    """
    A = check_square(M)
    high, low = float(A.max()), float(A.min())  # a NaN entry makes both NaN
    if not (np.isfinite(high) and np.isfinite(low)):
        raise InvalidInput("matrix has non-finite entries")
    if float(np.abs(A - A.T).max()) > tol * max(1.0, high, -low):
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
    LAPACK ``pstrf`` pivoted-Cholesky factor cut to its first ``r`` rows, ``r``
    the rank ``pstrf`` detects, so ``F`` has shape ``(r, d)``
    (:func:`pivoted_cholesky` stops by the same rule).

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


def check_weights(weights, n: int) -> np.ndarray:
    """``weights`` as an array, checked: ``n`` finite nonnegative entries summing to 1 ± 1e-12."""
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (n,):
        raise InvalidInput("weights must match the number of inputs")
    if not np.all(np.isfinite(w) & (w >= 0)):
        raise InvalidInput("weights must be finite and nonnegative")
    if abs(float(w.sum()) - 1.0) > 1e-12:
        raise InvalidInput("weights must sum to 1 within 1e-12")
    return w


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

    def _cutoff(self, rank_tol: float) -> float:
        return rank_tol * max(1.0, float(self.eigenvalues[0]))

    def sqrt(self) -> np.ndarray:
        return _spectral_apply(self.eigenvectors, np.sqrt(self.eigenvalues))

    def pinv_sqrt(self, rank_tol: float = RANK_TOL) -> np.ndarray:
        return _spectral_apply(self.eigenvectors,
                               _pinv_sqrt_values(self.eigenvalues, self._cutoff(rank_tol)))

    def kernel(self, rank_tol: float = RANK_TOL) -> np.ndarray:
        return self.eigenvectors[:, self.eigenvalues < self._cutoff(rank_tol)]


def _spectral_apply(V: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``V diag(values) V^T``, symmetrized, for one eigenbasis or a stack of them.

    ``V`` is ``(..., n, n)`` with eigenvectors as columns and ``values`` is
    ``(..., n)``.  A stack gives, matrix for matrix, the bits of separate calls.
    """
    R = (V * values[..., None, :]) @ np.swapaxes(V, -1, -2)
    return (R + np.swapaxes(R, -1, -2)) / 2.0


def _pinv_sqrt_values(w: np.ndarray, cutoff: float) -> np.ndarray:
    """``1 / sqrt(w)`` where ``w > cutoff``, and 0 elsewhere: the pseudo-inverse root's spectrum."""
    keep = w > cutoff
    return np.where(keep, 1.0 / np.sqrt(np.where(keep, w, 1.0)), 0.0)


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


def kernel_dim(M, rank_tol: float = RANK_TOL) -> int:
    """Number of eigenvalues of a PSD matrix below ``rank_tol * max(lam_max, 1)``.

    For matrices of unknown origin.  The count is the true kernel dimension
    only when the spectrum is well separated: the zero eigenvalues, after
    rounding, lie below the cutoff and every nonzero one above it.  On the
    conjugated pair covariance ``S1`` it reads 33 at dim 64 and 96 at dim 128
    (true 32 and 64); :func:`construct.conjugated_kernel` takes the kernels of
    the constructed family from the maps instead.
    """
    return int(kernel_basis(M, rank_tol).shape[1])


def kernel_basis(M, rank_tol: float = RANK_TOL) -> np.ndarray:
    """Orthonormal basis (columns) of the numerical kernel of a PSD matrix.

    The eigenvectors below :func:`kernel_dim`'s cutoff, so it spans the true
    kernel only for the well-separated spectra that count holds for.
    """
    return _psd_eigs(M).kernel(rank_tol)


def _orth(A: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the column span of ``A``, by thin SVD.

    Singular values ``s <= max(A.shape) * eps * s_max`` count as zero, the
    rank cut of ``scipy.linalg.orth``.
    """
    u, s, _ = np.linalg.svd(A, full_matrices=False)
    cut = max(A.shape) * np.finfo(np.float64).eps * np.amax(s, initial=0.0)
    return u[:, :int(np.sum(s > cut))]


def _as_basis(M) -> np.ndarray:
    A = np.asarray(M, dtype=np.float64)
    if A.ndim != 2:
        raise InvalidInput(f"expected a 2-D array of columns, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise InvalidInput("basis has non-finite entries")
    return A


def principal_angles(U, W) -> np.ndarray:
    """Canonical angles (radians, descending) between the column spans of U and W.

    The cosine/sine method of Knyazev & Argentati (2002, SIAM J. Sci. Comput.
    23(6)): after orthonormal bases ``Q_U`` and ``Q_W`` (:func:`_orth`, so a
    rank-deficient operand counts by its rank and a zero one has no angles),
    the cosines are the singular values of ``Q_U^T Q_W`` and the sines those
    of the residual ``Q_W - Q_U Q_U^T Q_W`` (mirrored when ``Q_U`` has fewer
    columns).  An angle with ``cos^2 >= 1/2`` is taken as ``arcsin`` of its
    sine and any other as ``arccos`` of its cosine, each cosine paired with
    the sine of the same angle, so every angle is accurate to about ``1e-15``
    absolute: a shared direction reads about ``1e-16``, not the ``1e-8`` that
    ``arccos`` of a cosine near 1 gives.  There are ``min(rank U, rank W)``
    angles.
    """
    QU, QW = _orth(_as_basis(U)), _orth(_as_basis(W))
    if QU.shape[0] != QW.shape[0]:
        raise DimensionMismatch(
            f"bases have {QU.shape[0]} and {QW.shape[0]} rows")
    cross = QU.T @ QW
    cos = np.clip(np.linalg.svd(cross, compute_uv=False), -1.0, 1.0)
    small = cos ** 2 >= 0.5
    angles = np.arccos(cos)
    if small.any():
        if QU.shape[1] >= QW.shape[1]:
            residual = QW - QU @ cross
        else:
            residual = QU - QW @ cross.T
        # sines descend as the angles do; reversed, they pair with the cosines
        sin = np.linalg.svd(residual, compute_uv=False)[::-1]
        angles[small] = np.arcsin(np.clip(sin[small], -1.0, 1.0))
    return angles[::-1]


def psd_factor(M) -> np.ndarray:
    """Factor ``C`` with ``C.T @ C = M`` via diagonally pivoted Cholesky.

    For graded PSD matrices (D A D with D diagonal and A well-conditioned)
    the pivoted factor retains small eigenvalues with high relative accuracy,
    which a plain eigendecomposition loses once the spectrum spans more than
    ~16 decades.  ``M`` is symmetrized first; the factor is
    :func:`pivoted_cholesky`'s of a stack of one, so it has the bits of any
    stack holding ``M``.  Rows beyond the numerically detected rank are zero.
    """
    return pivoted_cholesky(check_symmetric(M, tol=np.inf)[None])[0][0]


def _trimmed_factor(A: np.ndarray) -> np.ndarray:
    """LAPACK ``pstrf``'s pivoted-Cholesky factor of a square array, cut to its rank: ``(rank, n)``."""
    c, piv, rank, info = _pstrf(A, lower=0)
    if info < 0:
        raise InvalidInput(f"pivoted Cholesky failed with info={info}")
    # undo the pivoting: M = P L L^T P^T  =>  factor rows get permuted columns
    n = A.shape[0]
    inv = np.empty(n, dtype=np.intp)
    inv[piv - 1] = np.arange(n)
    return np.triu(c[:rank])[:, inv]


# LAPACK's unit roundoff, dlamch('E'): the default stop of pstrf is n * _UNIT_ROUNDOFF * max diag.
_UNIT_ROUNDOFF = np.finfo(np.float64).eps / 2


def pivoted_cholesky(A: np.ndarray) -> tuple:
    """Diagonally pivoted Cholesky of a stack of symmetric matrices: ``(F, rank)``.

    ``A`` is ``(..., n, n)``; ``F`` has the same shape and ``rank`` the shape
    ``A.shape[:-2]``.  Row ``j`` of a factor is the ``j``-th pivot step, so
    ``F.T @ F`` reproduces ``A`` up to the stop and rows from ``rank`` on are
    zero; with the columns taken in pivot order the factor is upper
    triangular, as LAPACK ``pstrf``'s.

    Left-looking, as LAPACK's unblocked ``dpstf2``: a step picks, in every
    matrix at once, the largest remaining diagonal ``A_pp - sum_k F_kp^2``
    (the running sum of squares subtracted from the diagonal) among the
    columns not yet pivoted, the first on ties, and adds the row
    ``(A[p] - F[:j, p] @ F[:j]) * (1 / sqrt(.))``, zero on the pivoted
    columns.  Each matrix stops at ``pstrf``'s default rule for its own size
    and diagonal: when that remaining diagonal is at most
    ``n * u * max diag A``, ``u`` the unit roundoff (for ``max diag A <= 0``
    at once, with rank 0).  An indefinite matrix stops at its first
    nonpositive remaining diagonal; its residual ``A - F.T @ F`` shows what
    was left.

    Every step is elementwise or a sum over the rows so far of one matrix
    (``einsum``, which calls no BLAS and at dim 512 is faster than a
    stacked vector-matrix product), so a stack gives, matrix for matrix, the
    bits of separate calls.  The cost is one Python-level step per factor
    row for the whole stack: a stack of many small blocks is cheap, while
    one dense matrix takes several times as long as ``pstrf`` (README,
    performance notes).
    """
    A = np.asarray(A, dtype=np.float64)
    shape, n = A.shape, A.shape[-1]
    A = A.reshape(-1, n, n)
    at = np.arange(len(A))
    F = np.zeros(A.shape)
    diag = np.diagonal(A, axis1=1, axis2=2)
    stop = n * _UNIT_ROUNDOFF * diag.max(axis=1)
    squares = np.zeros(diag.shape)  # sum_k F_kp^2 over the rows so far
    pivoted = np.zeros(diag.shape, dtype=bool)
    live = np.ones(len(A), dtype=bool)
    for j in range(n):
        rest = np.where(pivoted, -np.inf, diag - squares)
        p = rest.argmax(axis=1)
        top = rest[at, p]
        live &= top > stop
        if not live.any():
            break
        root = np.sqrt(np.where(live, top, 1.0))
        row = (A[at, p] - np.einsum("nk,nkl->nl", F[at, :j, p], F[:, :j])) * (1.0 / root)[:, None]
        row[at, p] = root
        row[pivoted | ~live[:, None]] = 0.0
        F[:, j] = row
        squares += row * row
        pivoted[at, p] |= live
    rank = pivoted.sum(axis=1)
    return F.reshape(shape), rank.reshape(shape[:-2])


def polar(X: np.ndarray) -> np.ndarray:
    """Symmetric polar factor ``|X| = (X.T @ X)^{1/2}`` of one matrix or a stack of matrices.

    ``X`` is ``(r, d)`` or a stack of them (a factor cut to its nonzero rows
    has ``r <= d``); the result is ``(d, d)``.  The route depends on the
    shape alone:

    * at most two rows: closed form (:func:`_polar_rows`), no LAPACK call;
    * ``3 <= r <= min(_JACOBI_MAX_ROWS, d)`` rows in a stack of at least
      ``_JACOBI_MIN_STACK`` matrices: one-sided Jacobi on every matrix of the
      stack at once (:func:`_jacobi_polar`), no LAPACK call;
    * anything else: one (stacked) thin SVD ``X = U diag(s) Vt``, ``Vt`` of
      shape ``(min(r, d), d)``, as ``Vt.T diag(s) Vt``, symmetrized; for
      square ``X`` the thin SVD has the bits of the full one.

    Within a route, a stack gives, matrix for matrix, the same bits as
    separate calls; a matrix has the bits of the Jacobi route only in a stack
    large enough to take it, and those differ from its SVD polar by rounding.
    """
    rows = X.shape[-2]
    if rows <= 2:
        return _polar_rows(X)
    if rows <= min(_JACOBI_MAX_ROWS, X.shape[-1]) and prod(X.shape[:-2]) >= _JACOBI_MIN_STACK:
        return _jacobi_polar(X)
    _, sv, Vt = np.linalg.svd(X, full_matrices=False)
    return _spectral_apply(np.swapaxes(Vt, -1, -2), sv)


def _rotation(a: np.ndarray, b: np.ndarray, g: np.ndarray, skip: np.ndarray) -> tuple:
    """``(c, s)`` of the one-sided Jacobi rotation that makes two rows orthogonal.

    The rows ``x``, ``y`` have Gram matrix ``[[a, g], [g, b]]``; the rotated
    rows ``c x - s y`` and ``s x + c y`` are orthogonal for
    ``zeta = (b - a) / 2g`` and ``t = sign(zeta) / (|zeta| + hypot(1, zeta))``,
    the smaller root of ``t^2 + 2 zeta t - 1``, so ``|t| <= 1`` (Golub & Van
    Loan, *Matrix Computations*, §8.5.2 and §8.6.3), with
    ``c = 1 / sqrt(1 + t^2)`` and ``s = c t``.  Where ``skip`` holds,
    ``t = 0``: ``c = 1`` and ``s = 0``, which leaves the rows as they are.
    """
    zeta = (b - a) / (2.0 * np.where(skip, 1.0, g))
    t = np.copysign(1.0, zeta) / (np.abs(zeta) + np.hypot(1.0, zeta))
    t[skip] = 0.0
    c = 1.0 / np.sqrt(1.0 + t * t)
    return c, c * t


def _polar_rows(X: np.ndarray) -> np.ndarray:
    """:func:`polar` of matrices with at most two rows, in closed form.

    ``|QX| = |X|`` for orthogonal ``Q``, and rows ``x_k`` that are orthogonal
    give ``|X| = sum_k x_k^T x_k / ||x_k||`` (a zero row adds nothing; no
    rows give zero).  Two rows are made orthogonal by the one
    :func:`_rotation` that diagonalizes their Gram matrix, with ``t = 0``
    where ``g == 0``.  The result is exact up to rounding while the squared
    entries neither overflow nor underflow (entries within about
    ``1e-150 .. 1e150``), and is exactly symmetric.  Every step is
    elementwise or a reduction along a row, so a stack has, matrix for
    matrix, the bits of separate calls.
    """
    if X.shape[-2] == 2:
        x, y = X[..., 0, :], X[..., 1, :]
        g = (x * y).sum(-1, keepdims=True)
        c, s = _rotation((x * x).sum(-1, keepdims=True), (y * y).sum(-1, keepdims=True),
                         g, g == 0)
        X = np.empty(X.shape)
        X[..., 0, :] = c * x - s * y
        X[..., 1, :] = s * x + c * y
    # row k scaled by ||x_k||^{-1/2}, so that its outer product is x_k^T x_k / ||x_k||
    scale = np.sqrt(np.sqrt((X * X).sum(-1, keepdims=True)))
    scale[scale == 0] = np.inf
    V = X / scale
    R = np.zeros(X.shape[:-2] + (X.shape[-1],) * 2)
    for k in range(X.shape[-2]):
        R += V[..., k, :, None] * V[..., k, None, :]
    return R


# The one-sided Jacobi route of polar: stacks of at least _JACOBI_MIN_STACK
# matrices with 3 to _JACOBI_MAX_ROWS rows.  It saves LAPACK's fixed cost per
# matrix, which a large stack of small matrices is mostly made of; its own
# cost is a few numpy calls per row pair and sweep for the whole stack, which
# grows with the square of the rows.  Jacobi against the SVD route, ms per
# stacked polar (median of 25, best of 3), on random graded stacks of
# (rows, rows + 1) matrices, column j scaled by 0.5**j, one BLAS thread, 2-core
# Xeon VM, numpy 2.4:
#
#   rows |     N=128     |     N=256     |     N=512     |    N=1000
#     3  |  0.68 / 0.66  |  0.85 / 1.36  |  1.16 / 2.77  |  1.82 / 5.49
#     4  |  1.75 / 0.97  |  2.18 / 2.02  |  2.44 / 3.85  |  2.94 / 6.99
#     5  |  1.92 / 0.75  |  2.79 / 1.54  |  3.52 / 3.30  |  5.90 / 6.02
#     6  |  3.01 / 0.88  |  4.20 / 1.86  |  7.13 / 5.00  |  8.98 / 7.85
#
# Five rows only break even on these, which take seven sweeps; the Monte-Carlo
# run's (1000, 1, 5, 6) stacks take four, the last rotating nothing, and
# 2.6 ms against 5.0 (its (1000, 1, 3, 4) stacks three, and 0.7 ms against 2.8).
_JACOBI_MAX_ROWS = 5
_JACOBI_MIN_STACK = 512
# The sweep cap of LAPACK dgesvj.
_JACOBI_MAX_SWEEPS = 30


def _jacobi_polar(X: np.ndarray) -> np.ndarray:
    """:func:`polar` of every matrix of an ``(..., m, L)`` stack, by one-sided Jacobi.

    Hestenes' method on the rows (Golub & Van Loan, §8.6.3): a sweep visits
    the pairs ``(p, q)``, ``p < q``, in row-cyclic order and rotates each
    (:func:`_rotation`) in every matrix of the stack at once where
    ``|g| > sqrt(L) eps sqrt(a) sqrt(b)``, the rows not yet orthogonal to
    working precision; elsewhere ``t = 0``.  The bound is LAPACK
    ``dgesvj``'s: with ``eps`` alone, the rounding of a rotation can leave
    ``|g|`` just above it with alternating sign, sweep after sweep.  It is
    written with two roots because ``a b`` overflows for entries above about
    ``1e77``.  The iteration stops after the first sweep in which no matrix
    rotates, and raises :class:`numpy.linalg.LinAlgError` when
    ``_JACOBI_MAX_SWEEPS`` sweeps do not get there.  The orthogonal rows give
    ``|X| = sum_k x_k^T x_k / ||x_k||``, as in :func:`_polar_rows`.

    Rows are kept as contiguous ``(L, N)`` slabs of an ``(m, L, N)`` array,
    and every step is elementwise or a sum along the ``L`` axis, so a stack
    has, matrix for matrix, the bits of any other stack that takes this route.
    """
    shape, (m, L) = X.shape, X.shape[-2:]
    Y = np.ascontiguousarray(np.moveaxis(X.reshape(-1, m, L), 0, -1))
    tol = np.sqrt(L) * np.finfo(np.float64).eps
    for _ in range(_JACOBI_MAX_SWEEPS):
        rotated = False
        for p in range(m - 1):
            for q in range(p + 1, m):
                x, y = Y[p], Y[q]
                a, b, g = (np.einsum("ln,ln->n", x, x), np.einsum("ln,ln->n", y, y),
                           np.einsum("ln,ln->n", x, y))
                skip = np.abs(g) <= tol * np.sqrt(a) * np.sqrt(b)
                if skip.all():
                    continue
                rotated = True
                c, s = _rotation(a, b, g, skip)
                sx, sy = s * x, s * y
                x *= c
                x -= sy
                y *= c
                y += sx
        if not rotated:
            break
    else:
        raise np.linalg.LinAlgError(
            f"one-sided Jacobi did not converge in {_JACOBI_MAX_SWEEPS} sweeps")
    # row k scaled by ||x_k||^{-1/2}, so that its outer product is x_k^T x_k / ||x_k||
    scale = np.sqrt(np.sqrt(np.einsum("kln,kln->kn", Y, Y)))
    scale[scale == 0] = np.inf
    V = Y / scale[:, None]
    return np.einsum("kin,kjn->nij", V, V, order="C").reshape(shape[:-2] + (L, L))


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
