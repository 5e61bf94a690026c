"""Fréchet functional, fixed-point barycentre solver, and barycentre certificate.

The barycentre of covariances S_1..S_n with weights w_i minimizes the
weighted Fréchet functional ``F(C) = sum_i w_i d^2(C, S_i)``.  The solver is
the fixed-point scheme of Álvarez-Esteban et al. (2016), ``C_{t+1} = T̄ C_t T̄``
with ``T̄`` the weighted mean of the optimal maps from ``C_t`` to the inputs,
run on factors ``C_t = K_t^T K_t``, ``S_i = G_i^T G_i`` (generalised
Procrustes analysis, Gower 1975):

    K_{t+1} = sum_i w_i U_i^T G_i,   U_i the orthogonal polar factor of G_i K_t^T.

It never inverts ``C_t``, so a singular iterate needs no ridge and no
eigenvalue cutoff.  ``U_i^T G_i`` does not change when the rows of ``G_i``
are rotated, so each step starts from the rows the previous step's
Procrustes rotated, on which one-sided Jacobi has less left to do; each
chunk of the inputs keeps them in a :class:`linalg._ProcrustesStack` from
step to step (:func:`barycentre_fixed_point`).  The step is gradient
descent with unit step in the Bures-Wasserstein metric (Chewi, Maunu, Rigollet & Stromme,
COLT 2020), and the solver accelerates it by type-II Anderson mixing of the
factor (Walker & Ni, SIAM J. Numer. Anal. 2011), depth ``_MIX_DEPTH``:
``C = K^T K`` is PSD for any mixed ``K``, and a mixed iterate whose Fréchet
value rises is dropped for the plain step.  Independently of the solver,
:func:`verify_barycentre_certificate` checks the inversion-free first-order
identity

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
commutes with a common block structure.  Every pass, a solver step, the
certificate and the solver's closing pass alike, runs on one layout
(:func:`_groups`): the blocks of equal size stacked across blocks and
inputs, each size that has at least ``linalg._JACOBI_MIN_STACK`` blocks over
all inputs alone, and the smaller sizes joined, zero-padded (:func:`_pad`),
into one stack for those taken by one-sided Jacobi and one for the rest,
which saves LAPACK's fixed cost per call.  A step makes one stacked
Procrustes pass per group, the certificate one ``eigh`` of the candidate's
blocks and one stacked :func:`linalg.polar` per group, each over the inputs
in the chunks of one loop (:func:`_input_sum`).  The routes are one-sided
Jacobi for blocks that keep at most two rows (one rotation) and for a large
stack of blocks that keep three to five (sweeps, on the Monte-Carlo run's
longer chains), and an SVD otherwise; a dense problem is the case of one
block.  What decides a verdict stays global: the PSD rule takes the largest
eigenvalue over all blocks, and the change, the certificate residual and
the Fréchet value are norms and traces summed over the blocks.
"""

import warnings
from dataclasses import InitVar, dataclass, field
from typing import NamedTuple

import numpy as np

from . import linalg
from .errors import DimensionMismatch, InvalidInput, NonFinite, check_integer, is_real
from .linalg import check_real, check_same_dim, check_symmetric, check_weights

@dataclass(frozen=True)
class SolverSettings:
    """Stopping parameters for the fixed-point solver.

    Attributes
    ----------
    tol : float
        Relative Frobenius change of the iterate below which we stop; finite.
        It, ``ridge`` and ``ridge_decay`` must be real numbers (``bool`` and
        strings are not).
    max_iter : int
        Cap on the solver's passes, an integer >= 1 (``bool`` is not one); a
        pass whose Anderson-mixed iterate is dropped counts.
    ridge : float
        No effect (the solver inverts nothing), kept for compatibility;
        finite and nonnegative.
    ridge_decay : float
        No effect, kept for compatibility; in (0, 1).
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
    """``(blocks, block_factors, input_trace)`` of dense inputs, in one pass.

    See :class:`BarycentreProblem`: each input is checked in input order,
    ``input_trace`` is summed over the checked stack in input order, and the
    factors of its blocks prove the PSD rule.
    """
    checked = []
    for S in inputs:
        checked.append(check_symmetric(S))
        check_same_dim(checked[0], checked[-1])
    X = np.stack(checked)

    input_trace = sum(float(wi) * float(tr) for wi, tr in zip(w, np.trace(X, axis1=1, axis2=2)))
    blocks = _components((X != 0).any(axis=0))
    return blocks, _proved_factors(_gather(X, blocks), blocks), input_trace


def _proved_factors(stacks: list, blocks: tuple) -> tuple:
    """The ``(n, k_L, m_L, L)`` block factors of ``(n, k_L, L, L)`` diagonal blocks, each matrix proved PSD.

    See :class:`BarycentreProblem`: from the largest order down, a size
    joins one zero-padded stack (:func:`_pad`) while it holds at most
    ``_block_size`` blocks of its largest order, else it stands alone; each
    size is cut to its largest rank, each matrix's block residual its proof.
    """
    n, joined, alone, factors = len(stacks[0]), [], [], {}
    for s in sorted(range(len(blocks)), key=lambda s: -blocks[s].shape[1]):
        top = blocks[(joined or [s])[0]].shape[1]
        fits = n * sum(len(blocks[t]) for t in joined + [s]) <= _block_size(top)
        (joined if fits else alone).append(s)
    for part in filter(None, [[s] for s in alone] + [joined]):
        idx = [blocks[s] for s in part]
        F, rank = linalg.pivoted_cholesky(_pad([stacks[s] for s in part]),
                                          np.concatenate([np.full(len(i), i.shape[1]) for i in idx]))
        ranks = np.split(rank, np.cumsum([len(i) for i in idx])[:-1], axis=1)
        factors.update(zip(part, zip(_unpad(F, idx), ranks)))
    residual, max_diag, block_factors = 0.0, 0.0, []
    for s, stack in enumerate(stacks):
        F, rank = factors[s]
        R = stack - np.swapaxes(F, -1, -2) @ F
        residual = residual + (R * R).sum(axis=(1, 2, 3))
        max_diag = np.maximum(max_diag, np.diagonal(stack, axis1=-2, axis2=-1).max(axis=(1, 2)))
        block_factors.append(F[:, :, :int(rank.max(initial=0))].copy())
    for matrix, r, top in zip(zip(*stacks), np.sqrt(residual), max_diag):
        linalg.check_factor_residual(matrix, float(r), float(top))
    return tuple(block_factors)


def _checked_factors(blocks, block_factors) -> tuple:
    """``(blocks, block_factors)`` as integer and float64 arrays, checked at the boundary.

    ``blocks`` must be nonempty ``(k, L)`` integer arrays that together
    partition ``0..d-1``, and ``block_factors`` one finite ``(n, k, m, L)``
    stack per block array, with one ``n`` for all.
    """
    blocks = tuple(np.asarray(idx) for idx in blocks)
    block_factors = tuple(check_real(G) for G in block_factors)
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
    reuses; and ``input_trace = sum_i w_i tr S_i``.  It holds no ``d x d``
    array: ``dim`` is read from ``blocks``, and the solver builds its
    default start block by block from the factors (:func:`barycentre_fixed_point`).
    Problems compare by identity.

    Dense inputs are read in one pass: each is checked in input order by
    :func:`linalg.check_symmetric` and against the first one's dim, so the
    first bad input raises its own check's error; the symmetrized inputs are
    stacked once, and ``input_trace`` summed in input order.
    ``blocks`` are the connected components of the union of the inputs'
    exact nonzero patterns (:func:`_components`): for the construction, the
    doubling chains ``m, 2m, 4m, ...``; for a dense family, one block.  Sizes
    within :func:`_block_size`'s budget share one zero-padded
    :func:`linalg.pivoted_cholesky` stack, any other size has its own
    (:func:`_proved_factors`), and each block stops at LAPACK's rule for its
    own order, ``L * u * max diag`` (so a graded block keeps its small
    directions beside larger blocks); each size is cut to ``m_L``, the
    largest rank of its blocks.  The factors are
    the PSD check: an input whose residual ``||S - F^T F||_F`` over its blocks
    exceeds ``PSD_TOL * max(1, max diag S)`` is checked by its blocks'
    eigenvalues (:func:`linalg.check_factor_residual`).

    Inputs known by their factors skip all of that: see
    :meth:`from_block_factors`.
    """

    inputs: InitVar[tuple]
    weights: tuple | None = None
    settings: SolverSettings | None = None
    blocks: tuple = field(init=False, repr=False)
    block_factors: tuple = field(init=False, repr=False)
    input_trace: float = field(init=False, repr=False)

    def __post_init__(self, inputs):
        if isinstance(inputs, _Factored):
            blocks, block_factors = _checked_factors(*inputs)
            w = _weights(self.weights, len(block_factors[0]))
            input_trace = float(w @ sum((G * G).sum(axis=(1, 2, 3)) for G in block_factors))
        else:
            w = _weights(self.weights, len(inputs))
            blocks, block_factors, input_trace = _read_dense(inputs, w)

        object.__setattr__(self, "weights", tuple(float(x) for x in w))
        if self.settings is None:
            object.__setattr__(self, "settings", SolverSettings())
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "block_factors", block_factors)
        object.__setattr__(self, "input_trace", input_trace)

    @classmethod
    def from_block_factors(cls, blocks, block_factors, weights=None,
                           settings: SolverSettings | None = None) -> "BarycentreProblem":
        """The problem of the inputs ``S_i``, given by the factors of their diagonal blocks.

        ``blocks`` partitions ``0..d-1``, one ``(k_L, L)`` integer index array
        per block size, and ``block_factors`` holds one ``(n, k_L, m, L)``
        stack per array: ``S_i``'s block on row ``j`` of ``blocks[s]`` is
        ``G^T G``, ``G = block_factors[s][i, j]``, and ``S_i`` is zero off its
        blocks (``construct.chain_factors`` gives the constructed families so).
        The arrays are kept as they are; each ``G^T G`` is PSD by construction,
        so the check is at the boundary only: finite factors, shapes matching
        ``blocks``, and ``blocks`` a partition.
        """
        return cls(_Factored(blocks, block_factors), weights, settings)

    @property
    def dim(self) -> int:
        return sum(idx.size for idx in self.blocks)


def problem(inputs, weights=None, settings: SolverSettings | None = None) -> BarycentreProblem:
    """Convenience constructor; ``weights=None`` means uniform."""
    return BarycentreProblem(inputs, weights, settings)


@dataclass(frozen=True)
class BarycentreResult:
    """Output of :func:`barycentre_fixed_point`.

    ``history`` holds one ``(iteration, change, frechet_value)`` triple per
    iteration: step ``t``'s relative change, and F at ``C_{t-1}``, the iterate
    it starts from (after the first steps, an Anderson-mixed one).  A pass
    whose mixed iterate is dropped adds no row, so ``t`` counts the accepted
    steps and ``iterations`` is at most ``max_iter``, which also counts the
    dropped passes.  ``frechet_value`` is at the returned ``barycentre``;
    ``monotone`` records whether the history values followed by it never
    rose by more than ``1e-9 * input_trace`` (a larger rise also warns).
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


def _on_blocks(prob: BarycentreProblem, M) -> tuple:
    """``(stacks, blocks, block_factors)`` for a pass over ``M``, ``stacks`` its diagonal blocks.

    ``M`` is outside input: checked and symmetrized
    (:func:`linalg.check_symmetric`), and ``d x d``.  The blocks are the
    problem's own when ``M`` is block diagonal along its partition, as the
    constructed covariance and every solver output are; the blocks
    partition the indices, so that is when its blocks hold all of its
    nonzeros, an exact count.  Otherwise they are the one block ``0..d-1``,
    on which each input's factor is its block factors, each on its block's
    columns, stacked by rows: one ``(n, 1, m, d)`` array with ``m <= d``.
    """
    C = check_symmetric(M)
    if C.shape != (prob.dim, prob.dim):
        raise DimensionMismatch(f"dimension mismatch: {C.shape} vs {(prob.dim, prob.dim)}")
    stacks = _gather(C, prob.blocks)
    if np.count_nonzero(C) == sum(np.count_nonzero(S) for S in stacks):
        return stacks, prob.blocks, prob.block_factors
    rows = []
    for idx, G in zip(prob.blocks, prob.block_factors):
        F = np.zeros((*G.shape[:-1], prob.dim))
        np.put_along_axis(F, idx[None, :, None, :], G, axis=-1)
        rows.append(F.reshape(len(G), -1, prob.dim))
    return [C[None]], (np.arange(prob.dim)[None],), (np.concatenate(rows, axis=1)[:, None],)


def _gather(M: np.ndarray, blocks: tuple) -> list:
    """The ``(..., k_L, L, L)`` diagonal blocks of ``M`` or of each matrix of a stack, one per size."""
    return [M[..., idx[:, :, None], idx[:, None, :]] for idx in blocks]


def _scatter(stacks: list, blocks: tuple, dim: int) -> np.ndarray:
    """The ``(dim, dim)`` block-diagonal matrix with the given diagonal blocks."""
    M = np.zeros((dim, dim))
    for X, idx in zip(stacks, blocks):
        M[idx[:, :, None], idx[:, None, :]] = X
    return M


def _mean(prob: BarycentreProblem) -> list:
    """The solver's default start ``sum_i w_i S_i``, as its blocks ``sum_i w_i G_i^T G_i``, symmetrized."""
    mean = []
    for G in prob.block_factors:
        M = np.tensordot(prob.weights, np.swapaxes(G, -1, -2) @ G, axes=1)
        mean.append((M + np.swapaxes(M, -1, -2)) / 2.0)
    return mean


def _trace(stacks: list) -> float:
    return sum(float(np.trace(X, axis1=-2, axis2=-1).sum()) for X in stacks)


def _norm(stacks: list) -> float:
    """Frobenius norm of the block-diagonal matrix; one block has the bits of ``np.linalg.norm``."""
    return float(np.sqrt(sum(float(X.ravel() @ X.ravel()) for X in stacks)))


def _chunks(shape: tuple) -> list:
    """The slices of the inputs one call takes of an ``(n, k, m, L)`` stack.

    At most ``_block_size(L)`` blocks per slice, and at least one input.
    """
    n, k, _, L = shape
    step = max(1, _block_size(L) // k)
    return [slice(start, start + step) for start in range(0, n, step)]


def _input_sum(chunks: list, weights, term) -> np.ndarray:
    """``sum_i w_i term(x)_i`` over ``(part, x)`` pairs, one per :func:`_chunks` slice ``part``.

    The one loop of every pass over the inputs, chunk by chunk in input
    order: ``x`` holds the inputs ``part``, as their factors (the
    certificate) or their :class:`linalg._ProcrustesStack` (a solver
    step), and ``term(x)`` is a C-contiguous stack over them, so the sum
    over the inputs is an outer reduction, a running sum taken term by term
    (over a strided axis numpy would sum pairwise).
    """
    w, acc = np.asarray(weights), 0.0
    for part, x in chunks:
        P = w[part, None, None, None] * term(x)
        P[0] += acc
        # a stack of single 1x1 results has no other axis, and numpy would
        # sum along its only one pairwise
        acc = P.sum(axis=0) if P[0].size > 1 else np.cumsum(P, axis=0)[-1]
    return acc


def _mean_inner_root(roots: list, block_factors: tuple, weights) -> list:
    """The stacks of ``sum_i w_i (R^{1/2} S_i R^{1/2})^{1/2}`` from those of ``R^{1/2}``.

    Per stack (a block size, or a group of them, :func:`_groups`), the
    products ``G_i @ root`` of every input and block go to
    :func:`_input_sum`'s stacked :func:`linalg.polar` (on the Monte-Carlo
    run's 1,000 inputs at dim 32 its Jacobi route, no SVD).
    A single block has the bits of ``sum(w * P)`` over the stacked polars
    ``P`` of the trimmed factors, which below the Jacobi route's stack size
    are the bits of ``sum(w * polar(F @ root))`` over the trimmed factors.
    """
    return [_input_sum([(p, G[p]) for p in _chunks(G.shape)], weights,
                       lambda F, root=root: linalg.polar(F @ root))
            for root, G in zip(roots, block_factors)]


def _frechet(trace: float, cross: float, input_trace: float) -> float:
    """``F(C) = tr C + sum_i w_i tr S_i - 2 cross``, ``cross = sum_i w_i tr (C^{1/2} S_i C^{1/2})^{1/2}``."""
    return max(trace + input_trace - 2.0 * cross, 0.0)


def _evaluate(C: list, block_factors: tuple, prob: BarycentreProblem) -> tuple:
    """Certificate residual and Fréchet value of a symmetric ``C`` from one pass.

    ``C`` is given as the groups' zero-padded stacks (:func:`_groups`) of its
    diagonal blocks along a partition it is block diagonal on, and
    ``block_factors`` as the factors of the inputs' blocks, grouped and
    padded alike: one ``eigh`` and one stacked :func:`linalg.polar` per
    group.  The decomposition behind ``C^{1/2}`` is the one PSD check of
    ``C``; padding adds zero eigenvalues, which leave the verdict as it is.
    With no group (every size of the iterate zero) the residual is 0 and the
    value ``input_trace``.
    """
    decs = linalg.psd_eigh(C) if C else []
    roots = [linalg._spectral_apply(V, np.sqrt(w)) for w, V in decs]
    mid = _mean_inner_root(roots, block_factors, prob.weights)
    residual = _norm([M - X for M, X in zip(mid, C)]) / max(1.0, _norm(C))
    return residual, _frechet(_trace(C), _trace(mid), prob.input_trace)


def _evaluate_candidate(candidate, prob: BarycentreProblem) -> tuple:
    """:func:`_evaluate` of the symmetrized candidate, on its blocks (:func:`_on_blocks`) in groups.

    The groups are the solver's (:func:`_groups`), a candidate block of size
    ``L`` counting as ``L`` iterate rows.
    """
    stacks, _, block_factors = _on_blocks(prob, candidate)
    groups = _groups(stacks, block_factors)
    C, G = ([_pad([X[s] for s in g]) for g in groups] for X in (stacks, block_factors))
    return _evaluate(C, G, prob)


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


def _gram(K: list) -> list:
    """The blocks of ``K^T K``, symmetrized, from the ``(k, r, L)`` factor stacks ``K``."""
    return [(X + np.swapaxes(X, -1, -2)) / 2.0 for X in (np.swapaxes(F, -1, -2) @ F for F in K)]


def _groups(K: list, block_factors: tuple) -> list:
    """The block sizes a pass runs together, as lists of indices into ``K``.

    ``K`` is the ``(k_L, r_L, L)`` factor stacks of the solver's iterate, or
    the ``(k_L, L, L)`` blocks of a candidate (``r_L = L``, the columns of
    ``G C^{1/2}``); each group is one zero-padded stack (:func:`_pad`) of
    the iterate or candidate and one of the input factors, stepped or
    certified with one LAPACK call per chunk of the inputs.
    A size with no iterate rows (``r_L = 0``) stays zero and is in no group.
    A size with at least ``linalg._JACOBI_MIN_STACK`` blocks over all inputs
    (``n k_L``) is a group of its own, so its stack takes the route it takes
    alone.  The smaller sizes form at most two groups: those whose
    ``(m_L, r_L)`` blocks :func:`linalg.procrustes` and :func:`linalg.polar`
    take by Jacobi in any stack (two rows at most), and the rest, so that
    one LAPACK call takes all the small sizes that need the SVD.
    """
    n, alone, jacobi, rest = len(block_factors[0]), [], [], []
    for s, (k, G) in enumerate(zip(K, block_factors)):
        count, r, _ = k.shape
        if r == 0:
            continue
        if n * count >= linalg._JACOBI_MIN_STACK:
            alone.append([s])
        else:
            (jacobi if linalg._route((G.shape[2], r)) == "jacobi" else rest).append(s)
    return alone + [g for g in (jacobi, rest) if g]


def _pad(stacks: list) -> np.ndarray:
    """``(..., k, r, L)`` stacks joined along ``k``, each zero-padded to the largest ``r`` and ``L``.

    A single stack is returned as it is.  Zero rows and columns leave
    ``U^T G`` of :func:`linalg.procrustes` unchanged: to the bit on two rows
    (up to rounding if they are orthogonal within Jacobi's skip bound for one
    column count and not the other), up to rounding on the SVD, where every
    zero row of ``X`` is one of ``G``.  Zero columns of ``G`` give exactly
    zero columns of ``U^T G``; its rows that pad ``r`` stayed exactly zero
    on the SVD too, in every solve measured.
    """
    if len(stacks) == 1:
        return stacks[0]
    *_, rows, cols = np.max([S.shape for S in stacks], axis=0)
    P = np.zeros((*stacks[0].shape[:-3], sum(S.shape[-3] for S in stacks), rows, cols))
    start = 0
    for S in stacks:
        k, r, L = S.shape[-3:]
        P[..., start:start + k, :r, :L] = S
        start += k
    return P


def _unpad(P: np.ndarray, blocks: list) -> list:
    """The ``(..., k, L, L)`` stacks :func:`_pad` joined into ``P``, one per ``(k, L)`` block array."""
    starts = np.cumsum([0] + [len(idx) for idx in blocks])
    return [P[..., a:a + len(idx), :idx.shape[1], :idx.shape[1]] for a, idx in zip(starts, blocks)]


# Depth of the solver's Anderson mixing: the most residual differences one
# step's least-squares problem takes.
_MIX_DEPTH = 5


def _anderson(x: list, g: list, memory: list) -> tuple:
    """``(x_{t+1}, mixed)``: the type-II Anderson iterate after ``g = g(x_t)``, over the groups' stacks.

    ``x_t`` is the groups' stacks as one vector and ``f_t = g(x_t) - x_t``
    its residual.  ``memory`` keeps the last ``_MIX_DEPTH + 1`` pairs
    ``(f, g)`` and is updated in place; with ``ΔF``, ``ΔG`` the differences
    of consecutive ones, ``γ = argmin ||f_t - ΔF γ||`` and
    ``x_{t+1} = g_t - ΔG γ`` (Walker & Ni 2011).  With no difference yet the
    iterate is ``g`` itself, and ``mixed`` is false.  The mix is linear, so
    entries that are zero in every ``g`` (a group's padding) stay exactly
    zero.
    """
    flat = np.concatenate([X.ravel() for X in g])
    memory.append((flat - np.concatenate([X.ravel() for X in x]), flat))
    del memory[:-_MIX_DEPTH - 1]
    if len(memory) == 1:
        return g, False
    pairs = list(zip(memory, memory[1:]))
    dF = np.stack([b[0] - a[0] for a, b in pairs], axis=1)
    dG = np.stack([b[1] - a[1] for a, b in pairs], axis=1)
    gamma = np.linalg.lstsq(dF, memory[-1][0], rcond=None)[0]
    mix = flat - dG @ gamma
    ends = np.cumsum([X.size for X in g])
    return [v.reshape(X.shape) for v, X in zip(np.split(mix, ends[:-1]), g)], True


def barycentre_fixed_point(prob: BarycentreProblem, init=None) -> BarycentreResult:
    """Run the fixed-point iteration for the barycentre on a factor of the iterate.

    ``C_t = K_t^T K_t`` is kept as one ``(k_L, r_L, L)`` factor stack per
    block size of the partition, or as one block when ``init`` has an entry
    between two of its blocks (:func:`_on_blocks`).  A step is one orthogonal
    Procrustes pass over the inputs, ``K_{t+1} = sum_i w_i U_i^T G_i``
    (see the module), which also gives ``F(C_t) = tr C_t + input_trace -
    2 <K_{t+1}, K_t>``, since ``tr(U_i^T G_i K_t^T) = ||G_i K_t^T||_*``.  It
    stops once ``||C_{t+1} - C_t||_F / ||C_t||_F`` (0 when both are zero) is
    at most ``settings.tol``, and then returns ``C_{t+1}``.

    The iterate the next step starts from is Anderson-mixed
    (:func:`_anderson`): with ``x_t`` the groups' stacks of ``K_t`` as one
    vector and ``g(x_t)`` its plain step (``K_{t+1}`` above), the next
    iterate is ``g(x_t) - ΔG γ``, ``γ`` from at most ``_MIX_DEPTH``
    differences of past residuals ``g(x) - x``.  The stop rule keeps its
    meaning: the change is between ``C`` of ``g(x_t)`` and of ``x_t``.  A
    safeguard keeps the Fréchet values monotone: when a mixed iterate's F,
    from its own pass, exceeds the last accepted one's by more than
    ``1e-9 * input_trace``, the pass is dropped (no history row), the next
    iterate is the plain step of the last accepted iterate, and the mixing
    restarts.  ``settings.max_iter`` caps the passes, dropped ones included;
    a cap returns the iterate the next pass would start from, or, when the
    closing pass finds a mixed one higher by that bound, the plain step
    that pass would restart from.

    The steps run on groups of block sizes (:func:`_groups`): a size with
    many blocks alone, the small ones as one zero-padded stack (:func:`_pad`)
    per route, so the steps, the change, the cross term, the history and
    the closing pass, one ``eigh`` and one stacked :func:`linalg.polar` per
    group (:func:`_evaluate`), are taken on the groups' stacks; only the
    returned ``d x d`` barycentre is unpadded (:func:`_unpad`).  A step
    takes each group's stack in :func:`_input_sum`'s chunks of the inputs,
    each a :class:`linalg._ProcrustesStack`, which decides the chunk's route
    once.  On Jacobi it steps a working copy of the chunk's factors,
    ``H_i = Q_i G_i``, whose rows the previous step's sweeps rotated (three
    rows or more; fewer keep ``G_i``, as :func:`linalg.procrustes` does).
    ``U_i^T G_i`` is the same from ``H_i`` for any orthogonal ``Q_i``, so the
    iterates agree up to rounding with a run from ``G_i`` at every step,
    while Jacobi starts from rows that the previous step made orthogonal
    against ``K_t``, and which ``K_{t+1}`` has moved less as the iteration
    settles.  Every step has the bits of a
    :func:`linalg.procrustes` of the chunk in its ``(n, k, m, L)`` layout
    that writes its rotated rows back.  ``prob``'s own factors are not
    changed; the closing pass reads the groups' stacks of them.  The mix is
    linear, so a group's padding stays exactly zero, and it needs no change
    of ``H_i``: ``procrustes(Q X, Q G) = U^T G`` for any ``K_t``.

    Parameters
    ----------
    prob : BarycentreProblem
    init : array_like, optional
        Starting covariance, checked as a candidate is (:func:`_on_blocks`);
        by default the inputs' mean ``sum_i w_i S_i``, built block by block
        from the problem's block factors (:func:`_mean`).  ``K_0`` is its
        blocks' factor, whose residual is its PSD check (:func:`_proved_factors`).

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
    start, blocks, block_factors = ((_mean(prob), prob.blocks, prob.block_factors)
                                    if init is None else _on_blocks(prob, init))
    K = [F[0] for F in _proved_factors([S[None] for S in start], blocks)]
    groups = _groups(K, block_factors)
    # per group, K_t's stack, the input factors, and their chunks' Procrustes stacks
    stacks, inputs = ([_pad([X[s] for s in g]) for g in groups] for X in (K, block_factors))
    factors = [[(p, linalg._ProcrustesStack(G[p], k.shape[-2])) for p in _chunks(G.shape)]
               for k, G in zip(stacks, inputs)]
    sigma = _gram(stacks)
    w = np.asarray(prob.weights)
    history, memory, mixed = [], [], False
    bound = 1e-9 * prob.input_trace  # a rise of F up to this is rounding

    for t in range(1, st.max_iter + 1):
        new = [_input_sum(f, w, lambda stack, k=k: stack.stack(k))
               for k, f in zip(stacks, factors)]
        if not all(np.all(np.isfinite(X)) for X in new):
            raise NonFinite(f"iterate diverged at iteration {t}")
        cross = sum(float(a.ravel() @ b.ravel()) for a, b in zip(new, stacks))
        fval = _frechet(_trace(sigma), cross, prob.input_trace)
        if mixed and fval > history[-1][2] + bound:
            # drop the mixed iterate: restart from the last accepted one's plain step
            stacks, sigma, mixed = plain, plain_sigma, False
            memory.clear()
            continue
        plain, plain_sigma = new, _gram(new)
        step, size = _norm([X - S for X, S in zip(plain_sigma, sigma)]), _norm(sigma)
        change = step / size if size > 0 else 0.0  # C_t = 0 makes every U_i^T G_i zero
        history.append((len(history) + 1, change, fval))
        if change <= st.tol:
            sigma, mixed = plain_sigma, False
            break
        stacks, mixed = _anderson(stacks, plain, memory)
        sigma = _gram(stacks) if mixed else plain_sigma

    residual, fval = _evaluate(sigma, inputs, prob)
    if mixed and fval > history[-1][2] + bound:
        # the cap stopped at a mixed iterate that the next pass would drop
        sigma = plain_sigma
        residual, fval = _evaluate(sigma, inputs, prob)
    fvals = [h[2] for h in history] + [fval]
    rises = [(t, b - a) for t, (a, b) in enumerate(zip(fvals, fvals[1:]), 1)
             if b - a > bound]
    for t, rise in rises:
        warnings.warn(f"Fréchet value increased by {rise:.3e} at iteration {t}",
                      RuntimeWarning, stacklevel=2)
    return BarycentreResult(
        barycentre=_scatter([X for g, P in zip(groups, sigma)
                             for X in _unpad(P, [blocks[s] for s in g])],
                            [blocks[s] for g in groups for s in g], prob.dim),
        iterations=len(history),
        final_change=change,
        certificate_residual=residual,
        converged=change <= st.tol,
        frechet_value=fval,
        monotone=not rises,
        history=tuple(history),
    )
