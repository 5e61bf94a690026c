"""Fréchet functional, fixed-point barycentre solver, and barycentre certificate.

The barycentre of covariances S_1..S_n with weights w_i minimizes the
weighted Fréchet functional ``F(C) = sum_i w_i d^2(C, S_i)``.  The solver is
the standard fixed-point scheme of Álvarez-Esteban et al. (2016),

    C_{t+1} = C_t^{-1/2} ( sum_i w_i (C_t^{1/2} S_i C_t^{1/2})^{1/2} )^2 C_t^{-1/2},

run on ridge-regularized iterates so that singular limits can be approached.
Independently of the solver, :func:`verify_barycentre_certificate` checks the
inversion-free first-order identity

    sum_i w_i (C^{1/2} S_i C^{1/2})^{1/2} = C,

which needs only PSD square roots, so it is exact even when the candidate is
singular.  Every barycentre satisfies it, but it is a necessary condition
only: a singular ``C`` can satisfy it without being a barycentre (``C = 0``
always does).

Every pass runs block by block.  The inputs are block diagonal along the
connected components of the union of their nonzero patterns (the doubling
chains, for the paper's construction).  A problem keeps each input as the
factors of its blocks: factored from dense inputs, or taken as given
(:meth:`BarycentreProblem.from_block_factors`, to which
``construct.chain_factors`` hands the constructed families' exact factors).
A pass over a matrix block diagonal along them runs on them, a pass over
any other matrix on the whole space as one block, and the iteration
commutes with a common block structure.  So each pass stacks the blocks of
equal size, across blocks and inputs, into one ``eigh`` and one stacked
:func:`linalg.polar` per size: a closed form for blocks that keep at most
two rows, one-sided Jacobi sweeps over a large stack of blocks that keep
three to five (the Monte-Carlo run's longer chains), and an SVD otherwise;
a dense problem is the case of one block.  What decides a verdict stays
global: the PSD rule and the pseudo-inverse cutoff take the largest
eigenvalue over all blocks, and the change, the certificate residual and the
Fréchet value are norms and traces summed over the blocks.
"""

import warnings
from dataclasses import InitVar, dataclass, field
from typing import NamedTuple

import numpy as np

from . import linalg
from .errors import InvalidInput, NonFinite, check_integer, is_real
from .linalg import PSD_TOL, check_same_dim, check_symmetric, check_weights

# Relative eigenvalue cutoff for the pseudo-inverse inside the solver only.
# Deliberately far below linalg.RANK_TOL: truncating at 1e-10 freezes the
# support tilt of an iterate annealing toward a singular barycentre about
# three decades too early.
SOLVER_RANK_TOL = 1e-14


@dataclass(frozen=True)
class SolverSettings:
    """Stopping and regularization parameters for the fixed-point solver.

    Attributes
    ----------
    tol : float
        Relative Frobenius change of the iterate below which we stop; finite.
        It, ``ridge`` and ``ridge_decay`` must be real numbers (``bool`` and
        strings are not).
    max_iter : int
        Iteration cap, an integer >= 1 (``bool`` is not one).
    ridge : float
        Initial regularization, finite, added as ``ridge * I`` to the iterate
        before inverting; shrinks by ``ridge_decay`` each iteration (floor 0).
    ridge_decay : float
        Multiplicative decay of the ridge, in (0, 1).

    The pseudo-inverse inside the iteration cuts at :data:`SOLVER_RANK_TOL`.
    """

    tol: float = 1e-10
    max_iter: int = 500
    ridge: float = 0.0
    ridge_decay: float = 0.5

    def __post_init__(self):
        if not all(map(is_real, (self.tol, self.ridge, self.ridge_decay))):
            raise InvalidInput("tol, ridge and ridge_decay must be real numbers")
        if not (0.0 < self.tol < np.inf):
            raise InvalidInput("tol must be positive and finite")
        check_integer(self.max_iter, "max_iter", 1)
        if not (0.0 <= self.ridge < np.inf):
            raise InvalidInput("ridge must be finite and nonnegative")
        if not (0.0 < self.ridge_decay < 1.0):
            raise InvalidInput("ridge_decay must be in (0, 1)")


def _components(pattern: np.ndarray) -> tuple:
    """The connected components of a symmetric boolean ``(d, d)`` pattern, grouped by size.

    One int array of shape ``(k_L, L)`` per distinct component size ``L``, in
    ascending ``L``: its rows are the ``k_L`` components of that size, each
    row's indices ascending, the rows ordered by their smallest index.  Each
    index is labelled by the smallest index of its component, found by
    repeating two steps until nothing changes: every index takes the smallest
    label among itself and its neighbours, then the label of its label.  A
    label is always an index of the same component and never grows, so the
    fixed point is constant on each component and there equals its smallest
    index; the second step makes the number of rounds grow with the log of
    the longest path (for the doubling chains, of ``log2(d)``).
    """
    d = len(pattern)
    label = np.arange(d)
    while True:
        new = np.minimum(label, np.where(pattern, label, d).min(axis=1))
        new = new[new]
        if np.array_equal(new, label):
            break
        label = new
    # sizes by ascending label, the order the stable argsort groups them in;
    # counted with bincount, because np.unique imports numpy.ma
    counts = np.bincount(label)
    sizes = counts[counts > 0]
    rows = np.split(np.argsort(label, kind="stable"), np.cumsum(sizes)[:-1])
    return tuple(np.array([r for r in rows if len(r) == L])
                 for L in np.flatnonzero(np.bincount(sizes)))


def _weights(weights, n: int) -> np.ndarray:
    """The checked weights of ``n`` inputs, uniform for ``None``."""
    if n < 1:
        raise InvalidInput("need at least one input covariance")
    return check_weights([1.0 / n] * n if weights is None else weights, n)


def _read_dense(inputs, w: np.ndarray) -> tuple:
    """``(blocks, block_factors, mean, input_trace)`` of dense inputs, in one pass.

    See :class:`BarycentreProblem`: each input is checked in input order, the
    sums are taken over the checked stack, and the factors of its blocks
    prove the PSD rule.
    """
    checked = []
    for S in inputs:
        checked.append(check_symmetric(S))
        check_same_dim(checked[0], checked[-1])
    X = np.stack(checked)

    mean, input_trace = np.zeros(X.shape[1:]), 0.0
    for wi, S, tr in zip(w, X, np.trace(X, axis1=1, axis2=2)):
        mean += wi * S
        input_trace += float(wi) * float(tr)
    blocks = _components((X != 0).any(axis=0))

    residual, max_diag, block_factors = 0.0, 0.0, []
    for stack in _gather(X, blocks):
        F, rank = linalg.pivoted_cholesky(stack)
        R = stack - np.swapaxes(F, -1, -2) @ F
        residual = residual + (R * R).sum(axis=(1, 2, 3))
        max_diag = np.maximum(max_diag, np.diagonal(stack, axis1=-2, axis2=-1).max(axis=(1, 2)))
        block_factors.append(F[:, :, :int(rank.max(initial=0))].copy())
    for i in np.flatnonzero(np.sqrt(residual) > PSD_TOL * np.maximum(1.0, max_diag)):
        eig = np.linalg.eigvalsh(X[i])
        linalg.check_psd_floor(float(eig[0]), float(eig[-1]))
    return blocks, tuple(block_factors), mean, input_trace


def _checked_factors(blocks, block_factors) -> tuple:
    """``(blocks, block_factors)`` as integer and float64 arrays, checked at the boundary.

    ``blocks`` must be nonempty ``(k, L)`` integer arrays that together
    partition ``0..d-1``, and ``block_factors`` one finite ``(n, k, m, L)``
    stack per block array, with one ``n`` for all.
    """
    blocks = tuple(np.asarray(idx) for idx in blocks)
    block_factors = tuple(np.asarray(G, dtype=np.float64) for G in block_factors)
    if not blocks or len(blocks) != len(block_factors):
        raise InvalidInput("need one factor stack per block array, and at least one")
    if not all(idx.ndim == 2 and idx.size and idx.dtype.kind in "iu" for idx in blocks):
        raise InvalidInput("each block array must be a nonempty (k, L) integer array")
    indices = np.sort(np.concatenate([idx.ravel() for idx in blocks]))
    if not np.array_equal(indices, np.arange(len(indices))):
        raise InvalidInput("the blocks must partition the indices 0..d-1")
    n = len(block_factors[0]) if block_factors[0].ndim else 0
    for idx, G in zip(blocks, block_factors):
        if G.ndim != 4 or G.shape[:2] != (n, len(idx)) or G.shape[3] != idx.shape[1]:
            raise InvalidInput(f"a factor stack of shape {G.shape} does not match "
                               f"blocks of shape {idx.shape}")
    if not all(np.isfinite(G).all() for G in block_factors):
        raise InvalidInput("block factors have non-finite entries")
    return blocks, block_factors


def _factor_sums(blocks: tuple, block_factors: tuple, w: np.ndarray) -> tuple:
    """``(mean, input_trace)`` of the inputs ``G_i^T G_i``: ``sum_i w_i G_i^T G_i`` and its trace."""
    mean, traces = [], 0.0
    for G in block_factors:
        M = np.tensordot(w, np.swapaxes(G, -1, -2) @ G, axes=1)
        mean.append((M + np.swapaxes(M, -1, -2)) / 2.0)
        traces = traces + (G * G).sum(axis=(1, 2, 3))
    return _scatter(mean, blocks, sum(idx.size for idx in blocks)), float(w @ traces)


class _Factored(NamedTuple):
    """Inputs given by their block factors (:meth:`BarycentreProblem.from_block_factors`)."""

    blocks: tuple
    block_factors: tuple


@dataclass(frozen=True, eq=False)
class BarycentreProblem:
    """A weighted family of covariances whose barycentre is sought.

    ``inputs`` must share one dimension; ``weights`` default to uniform and
    must be finite, nonnegative and sum to 1 within 1e-12.  The problem keeps
    no dense input, only what the passes over the inputs need: ``blocks``, a
    partition of the indices ``0..d-1`` along which every input is block
    diagonal, as one ``(k_L, L)`` index array per block size ``L``;
    ``block_factors``, one ``(n, k_L, m_L, L)`` stack per size whose
    ``G^T G`` are the inputs' blocks, which every pass over the inputs
    reuses; ``mean = sum_i w_i S_i``, the solver's default start; and
    ``input_trace = sum_i w_i tr S_i``.  Problems compare by identity.

    Dense inputs are read in one pass.  Each input is checked in input order
    by :func:`linalg.check_symmetric` and against the first one's dim, so the
    first bad input raises its own check's error; the symmetrized inputs are
    stacked once, and ``mean`` and ``input_trace`` summed from 0 in input
    order.  ``blocks`` are the connected components of the union of the
    inputs' exact nonzero patterns (see :func:`_components`).  For the
    doubling-shift construction these are the chains ``m, 2m, 4m, ...``
    (``construct.doubling_chains``), and a dense family is the one block
    ``0..d-1``.  The inputs' blocks of each size are gathered as one
    ``(n, k_L, L, L)`` stack and factored with one
    :func:`linalg.pivoted_cholesky` call.  Each block stops at
    LAPACK's default rule for that block, ``L * u * max diag``, so the small
    directions of a graded block are kept even when another block, or
    another input, is far larger; a stack is cut to ``m_L``, the largest rank
    of a block of that size.  The factors are also the PSD check: an input
    whose residual ``||S - F^T F||_F``, summed over its blocks, exceeds
    ``PSD_TOL * max(1, max diag S)`` is checked by the eigenvalues of the
    whole input instead, as :func:`linalg.covariance_factor` does.

    Inputs known by their factors skip all of that: see
    :meth:`from_block_factors`.
    """

    inputs: InitVar[tuple]
    weights: tuple | None = None
    settings: SolverSettings | None = None
    blocks: tuple = field(init=False, repr=False)
    block_factors: tuple = field(init=False, repr=False)
    mean: np.ndarray = field(init=False, repr=False)
    input_trace: float = field(init=False, repr=False)

    def __post_init__(self, inputs):
        if isinstance(inputs, _Factored):
            blocks, block_factors = _checked_factors(*inputs)
            w = _weights(self.weights, len(block_factors[0]))
            mean, input_trace = _factor_sums(blocks, block_factors, w)
        else:
            w = _weights(self.weights, len(inputs))
            blocks, block_factors, mean, input_trace = _read_dense(inputs, w)

        object.__setattr__(self, "weights", tuple(float(x) for x in w))
        if self.settings is None:
            object.__setattr__(self, "settings", SolverSettings())
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "block_factors", block_factors)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "input_trace", input_trace)

    @classmethod
    def from_block_factors(cls, blocks, block_factors, weights=None,
                           settings: SolverSettings | None = None) -> "BarycentreProblem":
        """The problem of the inputs ``S_i``, given by the factors of their diagonal blocks.

        ``blocks`` is a partition of ``0..d-1``, one ``(k_L, L)`` integer
        index array per block size, and ``block_factors`` one ``(n, k_L, m, L)``
        stack per index array: ``S_i``'s block on row ``j`` of ``blocks[s]``
        is ``G^T G`` for ``G = block_factors[s][i, j]``, and ``S_i`` is zero
        off its blocks.  ``construct.chain_factors`` gives the constructed
        families in this form.  The problem keeps these arrays as they are,
        and computes ``mean`` and ``input_trace`` from them.  Its check is at
        the boundary: the factors must be finite, their shapes must match
        ``blocks``, and ``blocks`` must partition the indices.  Each ``G^T G``
        is symmetric PSD by construction, so no input is formed, checked or
        factored.
        """
        return cls(_Factored(blocks, block_factors), weights, settings)

    @property
    def dim(self) -> int:
        return len(self.mean)


def problem(inputs, weights=None, settings: SolverSettings | None = None) -> BarycentreProblem:
    """Convenience constructor; ``weights=None`` means uniform."""
    return BarycentreProblem(inputs, weights, settings)


@dataclass(frozen=True)
class BarycentreResult:
    """Output of :func:`barycentre_fixed_point`.

    ``history`` holds one ``(iteration, change, frechet_value)`` triple per
    iteration; its Fréchet value is at the iterate step ``t`` starts from,
    ``R_t = sigma_{t-1} + ridge_t I`` (ridge included).  ``frechet_value`` is
    at the returned ``barycentre``; ``monotone`` records whether the history
    values followed by it were non-increasing (violations beyond 1e-9 also
    emit a warning).
    """

    barycentre: np.ndarray
    iterations: int
    final_change: float
    certificate_residual: float
    converged: bool
    frechet_value: float
    monotone: bool
    history: tuple


# Element budget of one stacked SVD: at most max(1, _BLOCK_ELEMENTS // L**2) blocks of size L.
_BLOCK_ELEMENTS = 2**16


def _block_size(dim: int) -> int:
    return max(1, _BLOCK_ELEMENTS // dim**2)


def _split(prob: BarycentreProblem, M: np.ndarray) -> tuple:
    """``(blocks, block_factors)`` for a pass over ``M``: the problem's own, or the whole space.

    The problem's own when ``M`` is block diagonal along its partition, as
    the constructed covariance and every solver output are; otherwise the
    one block ``0..d-1``, on which each input's factor is its block factors,
    each on its block's columns, stacked by rows: one ``(n, 1, m, d)`` array
    with ``m <= d``.
    """
    label = np.empty(prob.dim, dtype=np.intp)
    for idx in prob.blocks:
        label[idx] = idx[:, :1]
    if not np.any((M != 0) & (label[:, None] != label)):
        return prob.blocks, prob.block_factors
    rows = []
    for idx, G in zip(prob.blocks, prob.block_factors):
        F = np.zeros((*G.shape[:-1], prob.dim))
        np.put_along_axis(F, idx[None, :, None, :], G, axis=-1)
        rows.append(F.reshape(len(G), -1, prob.dim))
    return (np.arange(prob.dim)[None],), (np.concatenate(rows, axis=1)[:, None],)


def _on_blocks(prob: BarycentreProblem, M) -> tuple:
    """``(blocks, block_factors, stacks)``: the symmetrized ``M`` on :func:`_split`'s blocks."""
    C = check_symmetric(M)
    check_same_dim(C, prob.mean)
    blocks, block_factors = _split(prob, C)
    return blocks, block_factors, _gather(C, blocks)


def _gather(M: np.ndarray, blocks: tuple) -> list:
    """The ``(..., k_L, L, L)`` diagonal blocks of ``M`` or of each matrix of a stack, one per size."""
    return [M[..., idx[:, :, None], idx[:, None, :]] for idx in blocks]


def _scatter(stacks: list, blocks: tuple, dim: int) -> np.ndarray:
    """The ``(dim, dim)`` block-diagonal matrix with the given diagonal blocks."""
    M = np.zeros((dim, dim))
    for X, idx in zip(stacks, blocks):
        M[idx[:, :, None], idx[:, None, :]] = X
    return M


def _trace(stacks: list) -> float:
    return sum(float(np.trace(X, axis1=-2, axis2=-1).sum()) for X in stacks)


def _norm(stacks: list) -> float:
    """Frobenius norm of the block-diagonal matrix; one block has the bits of ``np.linalg.norm``."""
    return float(np.sqrt(sum(float(X.ravel() @ X.ravel()) for X in stacks)))


def _decompose(stacks: list) -> tuple:
    """Eigendecompositions of PSD block stacks under one PSD check: ``([(w, V), ...], lam_max)``.

    One stacked ``eigh`` per size, eigenvalues descending.  The check is
    :func:`linalg.check_psd_floor` on the smallest eigenvalue over all blocks
    against the largest, ``lam_max``, so the verdict is that of the whole
    matrix; rounding-level negatives are then clamped to zero.
    """
    decs = []
    for X in stacks:
        w, V = np.linalg.eigh(X)
        decs.append((w[..., ::-1].copy(), V[..., ::-1].copy()))
    lam_max = max(float(w[..., 0].max()) for w, _ in decs)
    linalg.check_psd_floor(min(float(w[..., -1].min()) for w, _ in decs), lam_max)
    return [(np.clip(w, 0.0, None), V) for w, V in decs], lam_max


def _roots(decs: list) -> list:
    return [linalg._spectral_apply(V, np.sqrt(w)) for w, V in decs]


def _mean_inner_root(roots: list, block_factors: tuple, weights) -> list:
    """The blocks of ``sum_i w_i (R^{1/2} S_i R^{1/2})^{1/2}`` from those of ``R^{1/2}``.

    Per size ``L``, the products ``G_i @ root`` of every input and block are
    stacked, at most ``_block_size(L)`` blocks to one stacked
    :func:`linalg.polar`.  That is polar's closed form when the blocks keep
    at most two rows (for the construction, the chains of length 3 or less,
    whose blocks have rank ``L - 1``), its one-sided Jacobi route for a
    large stack of blocks that keep three to five rows (on the Monte-Carlo
    run's 1,000 inputs at dim 32, the chains of length 4 and 6, so that run
    makes no SVD), and one stacked SVD otherwise.  The weighted sum is a
    running sum in input order, so a single block has the bits of
    ``sum(w * P)`` over the stacked polars ``P`` of the trimmed factors,
    which for stacks below the Jacobi route's size are the bits of
    ``sum(w * polar(F @ root))``, and of ``sum(w * congruence_sqrt(root, S))``
    when no input is trimmed.
    """
    w = np.asarray(weights)
    out = []
    for root, G in zip(roots, block_factors):
        step = max(1, _block_size(root.shape[-1]) // len(root))
        acc = 0.0
        for start in range(0, len(G), step):
            P = w[start:start + step, None, None, None] * linalg.polar(G[start:start + step] @ root)
            P[0] += acc
            # summed over the inputs as an outer reduction, in input order; a
            # stack of single 1x1 blocks has no other axis, and numpy would
            # sum along its only one pairwise
            acc = P.sum(axis=0) if P[0].size > 1 else np.cumsum(P, axis=0)[-1]
        out.append(acc)
    return out


def _frechet(R: list, mid: list, input_trace: float) -> float:
    """``F(R) = tr R + sum_i w_i tr S_i - 2 tr(mid)``, ``mid`` the mean inner root at ``R``.

    By linearity of the trace, ``tr(mid)`` is the weighted sum of the cross terms.
    """
    return max(_trace(R) + input_trace - 2.0 * _trace(mid), 0.0)


def _evaluate(C: list, block_factors: tuple, prob: BarycentreProblem) -> tuple:
    """Certificate residual and Fréchet value of a symmetric ``C`` from one pass.

    ``C`` is given as its diagonal blocks along a partition it is block
    diagonal on, and ``block_factors`` are the factors cut to that partition;
    the decomposition behind ``C^{1/2}`` is the one PSD check of ``C``.
    """
    mid = _mean_inner_root(_roots(_decompose(C)[0]), block_factors, prob.weights)
    residual = _norm([M - X for M, X in zip(mid, C)]) / max(1.0, _norm(C))
    return residual, _frechet(C, mid, prob.input_trace)


def _evaluate_candidate(candidate, prob: BarycentreProblem) -> tuple:
    """:func:`_evaluate` of the symmetrized candidate, on its blocks (see :func:`_on_blocks`)."""
    _, block_factors, C = _on_blocks(prob, candidate)
    return _evaluate(C, block_factors, prob)


def frechet_functional(candidate, prob: BarycentreProblem) -> float:
    """Weighted sum of squared BW distances from ``candidate`` to the inputs."""
    return _evaluate_candidate(candidate, prob)[1]


def verify_barycentre_certificate(candidate, prob: BarycentreProblem) -> float:
    """Residual of the inversion-free barycentre fixed-point identity.

    Returns ``||sum_i w_i (C^{1/2} S_i C^{1/2})^{1/2} - C||_F / max(1, ||C||_F)``
    for candidate ``C``.  The formula never inverts the candidate, so singular
    candidates are handled exactly.  A residual at rounding level shows that
    ``C`` meets the first-order barycentre condition, which is necessary only:
    the zero matrix meets it for every family.
    """
    return _evaluate_candidate(candidate, prob)[0]


def barycentre_fixed_point(prob: BarycentreProblem, init=None) -> BarycentreResult:
    """Run the ridge-regularized fixed-point iteration for the barycentre.

    Each step decomposes its iterate once, one stacked ``eigh`` per block
    size; one pass over the inputs gives both the update and the iterate's
    Fréchet value.  The iterate is kept as its diagonal blocks along the
    problem's partition, or as one block when ``init`` has an entry between
    two of its blocks (:func:`_split`); the update keeps that block
    structure, so this is the dense iteration organised by blocks.

    Parameters
    ----------
    prob : BarycentreProblem
    init : array_like, optional
        Starting covariance, checked by the eigendecomposition of its blocks
        (:func:`_decompose`).  Defaults to the Euclidean mean of the inputs
        plus ``settings.ridge * I`` (positive definite, cheap, unbiased).

    Returns
    -------
    BarycentreResult
        Carries the final iterate, its certificate residual (the quantity
        :func:`verify_barycentre_certificate` returns) and Fréchet value from
        one closing pass, and the per-iteration history.

    Raises
    ------
    NonFinite
        If the iterate leaves the realm of finite floats.
    """
    st = prob.settings
    if init is None:
        blocks, block_factors = prob.blocks, prob.block_factors
        sigma = _gather(prob.mean + st.ridge * np.eye(prob.dim), blocks)
    else:
        blocks, block_factors, sigma = _on_blocks(prob, init)
        _decompose(sigma)  # init's one check: the first step decomposes init + ridge I
    eyes = [np.eye(idx.shape[1]) for idx in blocks]
    ridge = st.ridge
    history = []

    for t in range(1, st.max_iter + 1):
        reg = [S + ridge * eye for S, eye in zip(sigma, eyes)] if ridge > 0 else sigma
        decs, lam_max = _decompose(reg)
        mid = _mean_inner_root(_roots(decs), block_factors, prob.weights)
        cutoff = SOLVER_RANK_TOL * max(1.0, lam_max)
        new = []
        for (w, V), M in zip(decs, mid):
            pinv = linalg._spectral_apply(V, linalg._pinv_sqrt_values(w, cutoff))
            X = pinv @ M @ M @ pinv
            new.append((X + np.swapaxes(X, -1, -2)) / 2.0)
        if not all(np.all(np.isfinite(X)) for X in new):
            raise NonFinite(f"iterate diverged at iteration {t}")

        change = _norm([X - S for X, S in zip(new, sigma)]) / max(1.0, _norm(sigma))
        history.append((t, change, _frechet(reg, mid, prob.input_trace)))
        sigma = new
        ridge *= st.ridge_decay
        if change <= st.tol:
            break

    residual, fval = _evaluate(sigma, block_factors, prob)
    fvals = [h[2] for h in history] + [fval]
    rises = [(t, b - a) for t, (a, b) in enumerate(zip(fvals, fvals[1:]), 1) if b > a + 1e-9]
    for t, rise in rises:
        warnings.warn(f"Fréchet value increased by {rise:.3e} at iteration {t}",
                      RuntimeWarning, stacklevel=2)
    return BarycentreResult(
        barycentre=_scatter(sigma, blocks, prob.dim),
        iterations=len(history),
        final_change=change,
        certificate_residual=residual,
        converged=change <= st.tol,
        frechet_value=fval,
        monotone=not rises,
        history=tuple(history),
    )
