"""Dense symmetric linear algebra with explicit tolerances.

Everything here operates on plain ``numpy`` arrays of 64-bit floats.  A
"covariance" is a symmetric PSD matrix (up to :data:`PSD_TOL`); a "map" is any
symmetric matrix.  Matrix functions go through a direct decomposition
(LAPACK ``eigh`` / ``gesdd`` / pivoted Cholesky), never through iterative
square-root schemes, so results are deterministic for identical input bits.
Two exceptions to LAPACK: :func:`polar` and :func:`procrustes` of matrices
with at most two rows (most blocks of the doubling chains), and of a large
stack of matrices with three to five rows, take one-sided Jacobi sweeps over
the whole stack at once, on a rows-last layout in which every sum along a row
is taken term by term (for two rows, one sweep of one rotation).  The
Procrustes core, :func:`_jacobi_procrustes`, takes and rotates that layout
in place: :func:`procrustes` converts its input to it and the result back,
and :class:`_ProcrustesStack`, the barycentre solver's steps over one chunk
of its inputs, keeps the chunk in it between steps, with the rules that
give each step :func:`procrustes`'s bits; and :func:`pivoted_cholesky`
factors a stack of matrices, zero-padded ones too, in numpy, one factor row
per step, under LAPACK ``pstrf``'s stopping rule for each matrix's own order.
Every matrix from outside is first checked, one matrix at a time, to be
square, finite and symmetric by :func:`check_symmetric`.  A covariance is
then checked by the decomposition its caller needs anyway: its
pivoted-Cholesky factor (:func:`covariance_factor`, or the block factors of
a barycentre problem, both under :func:`check_factor_residual`) or its
eigendecomposition (:func:`psd_eigh`), all under the one rule of
:func:`check_psd_floor`.

scipy supplies only LAPACK ``pstrf`` (``_pstrf``) to :func:`covariance_factor`
(distances, maps, ``io.load_matrix``), imported at the first such call (see
``_lapack``), so no CLI subcommand imports scipy.
:func:`principal_angles` is numpy's SVD with the cosine/sine method of
Knyazev & Argentati, each angle taken from whichever of its cosine and sine
gives it accurately.
"""

from math import prod, sqrt

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


def check_real(x) -> np.ndarray:
    """``x`` as a float64 array, checked to hold real numbers: float, int or unsigned int entries.

    Complex, bool, string and object entries raise :class:`InvalidInput`
    rather than being cast (a complex array would lose its imaginary part),
    and so does a ragged nested sequence, which is no array.  A float64
    array is returned as it is, without a copy.
    """
    try:
        A = np.asarray(x)
    except ValueError as exc:  # numpy's "inhomogeneous shape"
        raise InvalidInput("expected a rectangular array of real numbers") from exc
    if A.dtype.kind not in "fiu":
        raise InvalidInput(f"expected an array of real numbers, got dtype {A.dtype}")
    return A.astype(np.float64, copy=False)


def check_square(M) -> np.ndarray:
    """``M`` as a float64 array (:func:`check_real`), checked to be a square matrix of dim >= 1."""
    A = check_real(M)
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
    rule holds, at the cost of one matrix product (:func:`check_factor_residual`).
    """
    A = check_symmetric(M)
    F = _trimmed_factor(A)
    check_factor_residual([A], float(np.linalg.norm(A - F.T @ F)), float(np.max(np.diag(A))))
    return A, F


def check_factor_residual(stacks, residual: float, max_diag: float) -> None:
    """The PSD proof of a factor ``F`` of a symmetric ``A``, and the rule where it fails.

    ``stacks`` are the diagonal blocks of ``A`` along a partition it is
    block diagonal on, as ``(..., L, L)`` stacks (``[A]`` for one block);
    ``residual`` is ``||A - F.T @ F||_F`` and ``max_diag`` is ``max diag A``.
    A residual of at most ``PSD_TOL * max(1, max_diag)`` proves
    :func:`check_psd_floor`'s rule (see :func:`covariance_factor`); only a
    larger one applies the rule to the eigenvalues of ``A``, one ``eigvalsh``
    per stack, so the verdict and the :class:`NotPSD` message are the rule's.
    """
    if residual > PSD_TOL * max(1.0, max_diag):
        w = [np.linalg.eigvalsh(X) for X in stacks]
        check_psd_floor(min(float(x.min()) for x in w), max(float(x.max()) for x in w))


def check_psd_floor(w_min: float, lam_max: float, what: str = "smallest eigenvalue") -> None:
    """The PSD rule: raise :class:`NotPSD` when ``w_min < -PSD_TOL * max(1, lam_max)``."""
    if w_min < -PSD_TOL * max(1.0, lam_max):
        raise NotPSD(f"{what} {w_min:.3e} below PSD tolerance")


def check_same_dim(A: np.ndarray, B: np.ndarray) -> None:
    if A.shape != B.shape:
        raise DimensionMismatch(f"dimension mismatch: {A.shape} vs {B.shape}")


def check_weights(weights, n: int) -> np.ndarray:
    """``weights`` as an array, checked: ``n`` finite nonnegative entries summing to 1 ± 1e-12."""
    w = check_real(weights)
    if w.shape != (n,):
        raise InvalidInput("weights must match the number of inputs")
    if not np.all(np.isfinite(w) & (w >= 0)):
        raise InvalidInput("weights must be finite and nonnegative")
    if abs(float(w.sum()) - 1.0) > 1e-12:
        raise InvalidInput("weights must sum to 1 within 1e-12")
    return w


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


def psd_eigh(stacks: list) -> list:
    """Eigendecompositions of PSD stacks under one PSD check: ``[(w, V), ...]``.

    ``stacks`` is a list of ``(..., n, n)`` stacks of symmetric matrices (the
    diagonal blocks of one matrix, or a single matrix as a stack of one).
    One ``eigh`` per stack, eigenvalues descending with their eigenvectors
    as columns.  The check is :func:`check_psd_floor` on the smallest
    eigenvalue over all stacks against the largest, so the verdict is that
    of the whole matrix; rounding-level negatives are then clamped to zero.  A stack of one has the bits of ``eigh`` of its matrix.
    """
    decs = []
    for X in stacks:
        w, V = np.linalg.eigh(X)
        decs.append((w[..., ::-1].copy(), V[..., ::-1].copy()))
    check_psd_floor(min(float(w[..., -1].min()) for w, _ in decs),
                    max(float(w[..., 0].max()) for w, _ in decs))
    return [(np.clip(w, 0.0, None), V) for w, V in decs]


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
    kernel only for the well-separated spectra that count holds for.  ``M``
    is symmetrized first and checked by :func:`psd_eigh`.  Signs are fixed
    so that the largest-magnitude component of each column is positive
    (ties broken by lowest index), which makes golden-file tests possible.
    """
    [(w, V)] = psd_eigh([check_symmetric(M, tol=np.inf)[None]])
    w, V = w[0], V[0]
    K = V[:, w < rank_tol * max(1.0, float(w[0]))]
    signs = np.sign(K[np.argmax(np.abs(K), axis=0), np.arange(K.shape[1])])
    signs[signs == 0] = 1.0
    return K * signs


def _orth(A: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the column span of ``A``, by thin SVD.

    Singular values ``s <= max(A.shape) * eps * s_max`` count as zero, the
    rank cut of ``scipy.linalg.orth``.
    """
    u, s, _ = np.linalg.svd(A, full_matrices=False)
    cut = max(A.shape) * np.finfo(np.float64).eps * np.amax(s, initial=0.0)
    return u[:, :int(np.sum(s > cut))]


def _as_basis(M) -> np.ndarray:
    A = check_real(M)
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


def pivoted_cholesky(A: np.ndarray, sizes=None) -> tuple:
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
    was left.  ``sizes`` (broadcast over ``A.shape[:-2]``, by default ``n``)
    give that rule the own order ``L`` of a matrix zero-padded to ``n x n``;
    a zero column never pivots, so each keeps its unpadded factor's bits.

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
    orders = n if sizes is None else np.broadcast_to(sizes, shape[:-2]).reshape(-1)
    stop = orders * _UNIT_ROUNDOFF * diag.max(axis=1)
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

    ``X`` is ``(r, d)`` or a stack of them; the result is ``(d, d)``, or the
    stack of them, C-contiguous (a caller's sum over a strided stack would be
    pairwise).  No rows give zero; otherwise the route depends on the shape
    alone (:func:`_route`).  Jacobi makes the rows ``y_k`` of every matrix
    orthogonal, and ``|X| = sum_k y_k^T y_k / ||y_k||``, a zero row adding
    nothing; the thin SVD ``X = U diag(s) Vt`` (for square ``X``, the bits of
    the full one) gives ``Vt.T diag(s) Vt``, symmetrized.  Within a route, a
    stack gives, matrix for matrix, the bits of separate calls; a matrix with
    three or more rows has the bits of the Jacobi route only in a stack large
    enough to take it.
    """
    shape, (rows, L) = X.shape, X.shape[-2:]
    if rows == 0:
        return np.zeros(shape[:-2] + (L, L))
    if _route(shape) == "svd":
        _, sv, Vt = np.linalg.svd(X, full_matrices=False)
        return _spectral_apply(np.swapaxes(Vt, -1, -2), sv)
    Y = _jacobi_polar(_rows_last(X), L)
    # row k scaled by ||y_k||^{-1/2}, so that its outer product is y_k^T y_k / ||y_k||
    scale = np.sqrt(np.sqrt(np.einsum("kln,kln->kn", Y, Y)))
    scale[scale == 0] = np.inf
    V = Y / scale[:, None]
    return _rows_first(np.einsum("kin,kjn->ijn", V, V), shape[:-2])


def procrustes(X: np.ndarray, G: np.ndarray) -> tuple:
    """``(U^T G, H)``, ``U = W Vt`` the orthogonal polar factor of ``X = W diag(s) Vt``.

    ``X`` is ``(m, r)`` and ``G`` ``(m, L)``, or stacks of them; ``U^T G``
    is ``(r, L)``, or the stack of them, C-contiguous.  For ``X = G K^T`` it
    is the rotation of ``G`` closest to ``K`` (orthogonal Procrustes), and
    ``tr(U^T G K^T) = ||X||_*``.  The route is :func:`polar`'s for ``X``:
    Jacobi rotates the rows of ``[X | G]``, each rotation chosen on ``X``'s
    columns, to rows ``[y_k | z_k]`` and gives ``sum_k y_k^T z_k / ||y_k||``;
    the SVD gives ``Vt^T (W^T G)``, dropping the directions of zero singular
    values.  On Jacobi a zero row ``y_k`` adds nothing, and no rows or
    columns give zero.  The SVD gives no such guarantee for a rank-deficient
    ``X``: ``gesdd`` may return a rounding-level positive singular value for
    an exactly zero direction (for 30% of 512 random ``4 x 5`` matrices with
    a zero row, a smallest singular value below ``5e-16``), and that
    direction then adds ``w^T G``, up to ``0.74 ||G||`` against the Jacobi
    route for an unrelated ``G``.  When every zero row of ``X`` is a zero row
    of ``G``, as for ``X = G K^T`` in the barycentre solver, ``w^T G`` is
    itself at rounding level, and nothing beyond rounding is added.

    ``H = Q G`` is ``G`` with its rows rotated as Jacobi's sweeps rotated
    ``X``'s: the rows ``z_k``, for three or more rows.  Otherwise it is ``G``
    itself: the SVD rotates no rows, and two rows take one rotation from any
    start (carrying them changed the bits of a solve and saved nothing).
    Since ``procrustes(Q X, Q G)`` is ``U^T G`` again for any orthogonal
    ``Q``, a caller whose next ``X`` is ``H K^T`` hands Jacobi rows that
    ``K`` has moved little from orthogonal, which take fewer rotations
    (:class:`_ProcrustesStack` does so, in place).
    """
    shape, (rows, r), L = X.shape, X.shape[-2:], G.shape[-1]
    if rows == 0 or r == 0:
        return np.zeros(shape[:-2] + (r, L)), G
    if _route(shape) == "svd":
        W, sv, Vt = np.linalg.svd(X, full_matrices=False)
        return np.swapaxes(Vt * (sv > 0)[..., None], -1, -2) @ (np.swapaxes(W, -1, -2) @ G), G
    Y = _rows_last(np.concatenate([X, G], axis=-1))
    R = _rows_first(_jacobi_procrustes(Y, r), shape[:-2])
    H = G if rows <= 2 else Y[:, r:, :prod(shape[:-2])].transpose(2, 0, 1).reshape(G.shape)
    return R, H


def _route(shape: tuple) -> str:
    """The route :func:`polar` and :func:`procrustes` take for an ``X`` of this ``(..., m, cols)`` shape.

    The one route decision, for ``m <= cols`` rows (more could not all be
    orthogonal and nonzero): ``"jacobi"`` (:func:`_jacobi_polar`) for
    ``m <= 2`` in any stack, where its one sweep is one rotation, and for
    ``m <= _JACOBI_MAX_ROWS`` in a stack of at least ``_JACOBI_MIN_STACK``
    matrices; ``"svd"`` otherwise.
    """
    rows, cols = shape[-2:]
    if rows <= min(2, cols) or (rows <= min(_JACOBI_MAX_ROWS, cols)
                                and prod(shape[:-2]) >= _JACOBI_MIN_STACK):
        return "jacobi"
    return "svd"


def _jacobi_procrustes(Y: np.ndarray, r: int) -> np.ndarray:
    """:func:`procrustes`'s Jacobi route on :func:`_rows_last` rows ``[X | G]``: ``U^T G``, rows last.

    ``Y`` is ``(m, r + L, N)``, ``X`` its first ``r`` columns; it is rotated
    in place (:func:`_jacobi_polar`), so its last ``L`` columns end as ``H``.
    Returns ``sum_k y_k^T z_k / ||y_k||`` as an ``(r, L, N)`` array, each
    matrix's sum taken term by term (:func:`_rows_first` gives the stack).
    """
    _jacobi_polar(Y, r)
    norm = np.sqrt(np.einsum("kln,kln->kn", Y[:, :r], Y[:, :r]))
    norm[norm == 0] = np.inf
    return np.einsum("kin,kjn->ijn", Y[:, :r] / norm[:, None], Y[:, r:])


class _ProcrustesStack:
    """The Procrustes steps ``U_i^T H_i`` of an ``(n, k, m, L)`` stack against ``(k, r, L)`` iterates.

    ``U_i`` is the orthogonal polar factor of ``X_i = H_i K^T``, ``H_i`` a
    working copy of the factor ``G_i`` with its rows rotated as the last
    step's Jacobi sweeps rotated them: ``U_i^T H_i`` is ``U_i^T G_i`` for any
    such rotation, and Jacobi starts each step from rows that the previous
    one made orthogonal.  The route is :func:`procrustes`'s for an ``X`` of
    ``(n, k, m, r)`` shape, decided once.  On Jacobi the stack keeps one
    :func:`_rows_last` buffer ``Y`` of ``(m, r + L, max(N, 2))`` for the
    ``N = n k`` blocks in block-major order (the last axis runs over the
    inputs within each block), ``X`` and ``H`` its first ``r`` and last
    ``L`` columns as ``(m, cols, k, n)`` views; :meth:`stack` writes ``X``
    there and Jacobi rotates ``Y`` in place, so ``H`` carries the rotated
    rows to the next step with no copy.  At most two rows keep ``G`` and
    restore ``H`` from it, as :func:`procrustes` rotates no rows into its
    ``H`` there.  The SVD route and a stack with no rows call
    :func:`procrustes` on ``G``.  ``G`` is never written.

    Each :meth:`stack` has the bits of :func:`procrustes` of ``H @ K^T`` and
    ``H`` as ``(n, k, m, L)`` stacks that writes its rotated rows back into
    ``H``.  ``X`` takes one batched product into the buffer, except for one
    row or one input, where that product is a matrix-vector one with other
    bits: there it is the stacked product, from ``G`` or a contiguous copy
    of ``H``.
    """

    def __init__(self, G: np.ndarray, r: int):
        n, k, m, L = G.shape
        self.G, self.Y = G, None
        if m == 0 or _route((n, k, m, r)) == "svd":
            return
        self.Y = _rows_last(np.concatenate([np.zeros((k, n, m, r)), G.swapaxes(0, 1)], axis=-1))
        self.X, self.H = (self.Y[:, cols, :n * k].reshape(m, -1, k, n)
                          for cols in (slice(r), slice(r, None)))
        self.G = np.ascontiguousarray(G) if m <= 2 else None

    def stack(self, K: np.ndarray) -> np.ndarray:
        """The C-contiguous ``(n, k, r, L)`` stack ``U_i^T H_i`` against ``K``, one step."""
        G = self.G
        if self.Y is None:
            return procrustes(G @ np.swapaxes(K, -1, -2), G)[0]
        X, H = self.X, self.H
        m, r, k, n = X.shape
        if G is not None:
            H[...] = G.transpose(2, 3, 1, 0)
        if m == 1 or n == 1:
            F = np.ascontiguousarray(H.transpose(3, 2, 0, 1)) if G is None else G
            X[...] = (F @ np.swapaxes(K, -1, -2)).transpose(2, 3, 1, 0)
        else:
            np.matmul(K, H.transpose(0, 2, 1, 3), out=X.transpose(0, 2, 1, 3))
        P = _jacobi_procrustes(self.Y, r)[..., :k * n]
        return P.reshape(r, -1, k, n).transpose(3, 2, 0, 1).copy()


def _rows_first(P: np.ndarray, stack: tuple) -> np.ndarray:
    """The first ``prod(stack)`` matrices of a rows-last ``(i, j, N)`` array, as a ``stack + (i, j)`` stack.

    C-contiguous, so a caller's sum over the stack is an outer reduction
    (see :func:`polar`).
    """
    P = P.transpose(2, 0, 1).copy()
    return P[:prod(stack)].reshape(stack + P.shape[1:])


def _rows_last(X: np.ndarray) -> np.ndarray:
    """An ``(..., m, L)`` stack of ``N`` matrices as a new C-contiguous ``(m, L, max(N, 2))`` array.

    A sum along ``L`` (``.sum(-2)``, or an einsum over it) is then taken term
    by term, so each matrix gets the same bits in any stack.  A single matrix
    gets a zero matrix beside it: with ``N = 1`` the ``L`` axis would be
    contiguous, and numpy sums a contiguous axis of 8 or more terms pairwise.
    """
    m, L = X.shape[-2:]
    X = X.reshape(-1, m, L)
    Y = np.zeros((m, L, max(len(X), 2)))
    Y[..., :len(X)] = X.transpose(1, 2, 0)
    return Y


def _rotate_rows(x, y, a, b, g, skip) -> None:
    """Make the rows ``x``, ``y`` orthogonal, in place, by one one-sided Jacobi rotation.

    The rows have Gram matrix ``[[a, g], [g, b]]``; the rotated rows
    ``c x - s y`` and ``s x + c y`` are orthogonal for
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
    s = c * t
    sx, sy = s * x, s * y
    x *= c
    x -= sy
    y *= c
    y += sx


# The one-sided Jacobi route: matrices with at most two rows in a stack of any
# size, where its one sweep is one rotation, and stacks of at least
# _JACOBI_MIN_STACK matrices with 3 to _JACOBI_MAX_ROWS rows.  It saves
# LAPACK's fixed cost per matrix, which a large stack of small matrices is
# mostly made of; its own cost grows with the square of the rows.  For two
# rows that cost is mostly numpy's per-call overhead: 0.035-0.045 ms for a
# procrustes of one (2, 3) matrix, 0.10-0.11 ms for a polar of a stack of
# 1000 (one BLAS thread, 2-core Xeon VM, numpy 2.4).  Jacobi / SVD, ms per
# stacked polar of N random graded (rows, rows + 1) matrices: 3 rows
# 0.57 / 1.61 at N = 512 and 0.88 / 2.55 at N = 1000; 5 rows 2.84 / 2.78 and
# 4.44 / 5.39; 6 rows 4.93 / 3.68 and 8.57 / 7.52; at N = 128
# the SVD is as fast from 3 rows on.  From unrotated rows, the Monte-Carlo
# run's (1000, 1, 5, 6) stacks take 29 rotations (three rotating sweeps and a
# fourth that finds nothing), 2.6-3.8 ms against 6.5-8.4 for the SVD.  The
# solver hands each step the rows its previous step rotated
# (barycentre.barycentre_fixed_point): on the uniform seed-1 run its 9
# Anderson-mixed steps then take 29, 21, 19, 19, 19, 15, 11, 10 and 10
# rotations (one rotating sweep at the last two), down to 1.2 ms.  It keeps
# them rows-last between steps (_ProcrustesStack), so a step adds little
# to the rotations: median ms of a first step on that run's stacks, through
# procrustes from the (n, k, m, L) layout / on the resident buffer / Jacobi
# alone: (1000, 1, 5, 6) 2.87 / 2.52 / 2.38, (1000, 1, 3, 4) 0.70 / 0.56 /
# 0.46, (1000, 2, 2, 3) 0.38 / 0.17 / 0.09.  Of that, X = H K^T takes 0.011 ms
# as one batched product into the buffer, 0.113 ms as the stacked H @ K^T.
_JACOBI_MAX_ROWS = 5
_JACOBI_MIN_STACK = 512
# The sweep cap of LAPACK dgesvj.
_JACOBI_MAX_SWEEPS = 30
# Machine epsilon, for the skip bound of _jacobi_polar.
_EPS = np.finfo(np.float64).eps


def _jacobi_polar(Y: np.ndarray, cols: int) -> np.ndarray:
    """``m`` :func:`_rows_last` rows, rotated in place orthogonal on ``L = cols`` columns.

    Hestenes' method on the rows (Golub & Van Loan, §8.6.3), with ``a``,
    ``b``, ``g`` the Gram entries of the first ``L`` columns, each rotation
    turning whole rows: a sweep visits the pairs ``(p, q)``, ``p < q``, in
    row-cyclic order and rotates each (:func:`_rotate_rows`) in every matrix
    of the stack at once where ``|g| > sqrt(L) eps sqrt(a) sqrt(b)``, the
    rows not yet orthogonal to working precision; elsewhere ``t = 0``.  The
    bound is LAPACK ``dgesvj``'s: with ``eps`` alone, the rounding of a
    rotation can leave ``|g|`` just above it with alternating sign, sweep
    after sweep.  It is written with two roots because ``a b`` overflows for
    entries above about ``1e77``.  The iteration stops after the first sweep
    in which no matrix rotates, or after the first for at most two rows,
    whose one rotation leaves them orthogonal up to rounding (while squared
    entries neither overflow nor underflow, about ``1e-150 .. 1e150``); it
    raises :class:`numpy.linalg.LinAlgError` when ``_JACOBI_MAX_SWEEPS``
    sweeps do not get there.

    Rows of a rank-deficient matrix cannot all end orthogonal and nonzero:
    a row in the span of the others shrinks by a factor each sweep, never
    reaches zero, and keeps being rotated.  So after each rotating sweep of
    three or more rows, a row whose squared norm on the first ``L`` columns
    is at most ``eps^2`` times its squared norm there at entry is set to
    exactly zero on them, and adds nothing to :func:`polar` or
    :func:`procrustes`; the columns past ``L`` (``procrustes``'s ``G``)
    keep their rotated rows.  The norms are the next sweep's own: its first
    pairs meet every row before they rotate it, row 0 as ``a`` of ``(0, 1)``
    and row ``q`` as ``b`` of ``(0, q)``, so the test takes no sum of its
    own; a zeroed row's ``a`` or ``b`` and the pair's ``g`` are then set to
    exactly 0, as the sums of the zeroed row would give.
    """
    m = len(Y)
    tol = sqrt(cols) * _EPS
    entry = np.empty((m, Y.shape[-1]))  # the rows' squared norms on the first cols columns
    for sweep in range(_JACOBI_MAX_SWEEPS):
        rotated = False
        for p in range(m - 1):
            for q in range(p + 1, m):
                x, y = Y[p], Y[q]
                xc, yc = x[:cols], y[:cols]
                a, b, g = (np.einsum("ln,ln->n", xc, xc), np.einsum("ln,ln->n", yc, yc),
                           np.einsum("ln,ln->n", xc, yc))
                if p == 0 and m > 2:
                    # the sweep's first pairs meet each row before it rotates
                    # it: row 0 at (0, 1), as a, and row q at (0, q), as b
                    for row, v, norm2 in ((0, xc, a), (q, yc, b)) if q == 1 else ((q, yc, b),):
                        if sweep == 0:
                            entry[row] = norm2
                            continue
                        small = norm2 <= _EPS**2 * entry[row]
                        if small.any():
                            v[:, small] = 0.0
                            norm2[small] = 0.0
                            g[small] = 0.0
                skip = np.abs(g) <= tol * np.sqrt(a) * np.sqrt(b)
                if skip.all():
                    continue
                rotated = True
                _rotate_rows(x, y, a, b, g, skip)
        if not rotated or m <= 2:
            return Y
    raise np.linalg.LinAlgError(
        f"one-sided Jacobi did not converge in {_JACOBI_MAX_SWEEPS} sweeps")
