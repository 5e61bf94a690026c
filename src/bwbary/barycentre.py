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
"""

import warnings
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import InvalidInput, NonFinite
from .linalg import check_covariance, check_same_dim, check_symmetric, covariance_factor

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
        Relative Frobenius change of the iterate below which we stop.
    max_iter : int
        Iteration cap.
    ridge : float
        Initial regularization added as ``ridge * I`` to the iterate before
        inverting; shrinks by ``ridge_decay`` each iteration (floor 0).
    ridge_decay : float
        Multiplicative decay of the ridge, in (0, 1).

    The pseudo-inverse inside the iteration cuts at :data:`SOLVER_RANK_TOL`.
    """

    tol: float = 1e-10
    max_iter: int = 500
    ridge: float = 0.0
    ridge_decay: float = 0.5

    def __post_init__(self):
        if not (self.tol > 0):
            raise InvalidInput("tol must be positive")
        if self.max_iter < 1:
            raise InvalidInput("max_iter must be >= 1")
        if self.ridge < 0:
            raise InvalidInput("ridge must be nonnegative")
        if not (0.0 < self.ridge_decay < 1.0):
            raise InvalidInput("ridge_decay must be in (0, 1)")


def _check_weights(weights, n: int) -> np.ndarray:
    """``weights`` as an array, checked: ``n`` nonnegative entries summing to 1 within 1e-12."""
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (n,):
        raise InvalidInput("weights must match the number of inputs")
    if np.any(w < 0):
        raise InvalidInput("weights must be nonnegative")
    if abs(float(w.sum()) - 1.0) > 1e-12:
        raise InvalidInput("weights must sum to 1 within 1e-12")
    return w


@dataclass(frozen=True)
class BarycentreProblem:
    """A weighted family of covariances whose barycentre is sought.

    ``inputs`` must share one dimension; ``weights`` default to uniform and
    must be nonnegative and sum to 1 within 1e-12.  Each input is validated
    and factored by one :func:`linalg.covariance_factor` call, whose
    pivoted-Cholesky factor is also its PSD check: ``factors[i]`` is that
    factor of ``inputs[i]`` (``factors[i].T @ factors[i] = inputs[i]``),
    padded with zero rows to ``r``, the largest rank among the inputs.  The
    ``(n, r, d)`` array is what every pass over the inputs reuses.
    """

    inputs: tuple
    weights: tuple
    settings: SolverSettings = field(default_factory=SolverSettings)
    factors: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.inputs) < 1:
            raise InvalidInput("need at least one input covariance")
        mats, trimmed = zip(*(covariance_factor(S) for S in self.inputs))
        for S in mats[1:]:
            check_same_dim(mats[0], S)
        factors = np.zeros((len(mats), max(len(F) for F in trimmed), mats[0].shape[0]))
        for padded, F in zip(factors, trimmed):
            padded[:len(F)] = F
        w = _check_weights(self.weights, len(mats))
        object.__setattr__(self, "inputs", mats)
        object.__setattr__(self, "weights", tuple(float(x) for x in w))
        object.__setattr__(self, "factors", factors)

    @property
    def dim(self) -> int:
        return self.inputs[0].shape[0]


def problem(inputs, weights=None, settings: SolverSettings | None = None) -> BarycentreProblem:
    """Convenience constructor; ``weights=None`` means uniform."""
    n = len(inputs)
    if n < 1:
        raise InvalidInput("need at least one input covariance")
    if weights is None:
        weights = [1.0 / n] * n
    return BarycentreProblem(
        inputs=tuple(inputs),
        weights=tuple(weights),
        settings=settings if settings is not None else SolverSettings(),
    )


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


# Element budget of one stacked SVD: blocks of max(1, _BLOCK_ELEMENTS // d**2) matrices.
_BLOCK_ELEMENTS = 2**16


def _block_size(dim: int) -> int:
    return max(1, _BLOCK_ELEMENTS // dim**2)


def _inner_roots(root: np.ndarray, factors: np.ndarray):
    """Yield ``|C_i @ root| = (R^{1/2} S_i R^{1/2})^{1/2}`` in input order, one stacked SVD per block."""
    block = _block_size(root.shape[0])
    for start in range(0, len(factors), block):
        yield from linalg.polar(factors[start:start + block] @ root)


def _mean_inner_root(root: np.ndarray, prob: BarycentreProblem) -> np.ndarray:
    """``sum_i w_i (R^{1/2} S_i R^{1/2})^{1/2}`` for ``root = R^{1/2}``, in one pass.

    Summed one matrix at a time in input order, so the result has the bits of
    ``sum(w * polar(F @ root))`` over the trimmed factors ``F``, which are the
    bits of ``sum(w * congruence_sqrt(root, S))`` when no input is trimmed.
    """
    return sum(w * R for w, R in zip(prob.weights, _inner_roots(root, prob.factors)))


def _input_trace(prob: BarycentreProblem) -> float:
    return sum(w * float(np.trace(S)) for w, S in zip(prob.weights, prob.inputs))


def _frechet(R: np.ndarray, mid: np.ndarray, input_trace: float) -> float:
    """``F(R) = tr R + sum_i w_i tr S_i - 2 tr(mid)``, ``mid`` the mean inner root at ``R``.

    By linearity of the trace, ``tr(mid)`` is the weighted sum of the cross terms.
    """
    return max(float(np.trace(R)) + input_trace - 2.0 * float(np.trace(mid)), 0.0)


def _candidate(candidate, prob: BarycentreProblem) -> np.ndarray:
    """Symmetrized candidate of the problem's dimension; :func:`_evaluate` checks PSD-ness."""
    C = check_symmetric(candidate)
    check_same_dim(C, prob.inputs[0])
    return C


def _evaluate(C: np.ndarray, prob: BarycentreProblem, input_trace: float) -> tuple:
    """Certificate residual and Fréchet value of a symmetric ``C`` from one pass.

    The decomposition behind ``C^{1/2}`` is the one PSD check of ``C``.
    """
    mid = _mean_inner_root(linalg.sqrt_psd(C), prob)
    residual = float(np.linalg.norm(mid - C) / max(1.0, np.linalg.norm(C)))
    return residual, _frechet(C, mid, input_trace)


def frechet_functional(candidate, prob: BarycentreProblem) -> float:
    """Weighted sum of squared BW distances from ``candidate`` to the inputs."""
    return _evaluate(_candidate(candidate, prob), prob, _input_trace(prob))[1]


def verify_barycentre_certificate(candidate, prob: BarycentreProblem) -> float:
    """Residual of the inversion-free barycentre fixed-point identity.

    Returns ``||sum_i w_i (C^{1/2} S_i C^{1/2})^{1/2} - C||_F / max(1, ||C||_F)``
    for candidate ``C``.  The formula never inverts the candidate, so singular
    candidates are handled exactly.  A residual at rounding level shows that
    ``C`` meets the first-order barycentre condition, which is necessary only:
    the zero matrix meets it for every family.
    """
    return _evaluate(_candidate(candidate, prob), prob, _input_trace(prob))[0]


def barycentre_fixed_point(prob: BarycentreProblem, init=None) -> BarycentreResult:
    """Run the ridge-regularized fixed-point iteration for the barycentre.

    Each step decomposes its iterate once; one pass over the inputs gives both
    the update and the iterate's Fréchet value.

    Parameters
    ----------
    prob : BarycentreProblem
    init : array_like, optional
        Starting covariance.  Defaults to the Euclidean mean of the inputs
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
    eye = np.eye(prob.dim)
    if init is None:
        sigma = sum(w * S for w, S in zip(prob.weights, prob.inputs))
        sigma = sigma + st.ridge * eye
    else:
        # the first decomposition is of init + ridge I, so init is checked here
        sigma = check_covariance(init)
        check_same_dim(sigma, prob.inputs[0])

    input_trace = _input_trace(prob)
    ridge = st.ridge
    history = []

    for t in range(1, st.max_iter + 1):
        reg = sigma + ridge * eye if ridge > 0 else sigma
        dec = linalg._psd_eigs(reg)
        mid = _mean_inner_root(dec.sqrt(), prob)
        pinv = dec.pinv_sqrt(SOLVER_RANK_TOL)
        new = pinv @ mid @ mid @ pinv
        new = (new + new.T) / 2.0
        if not np.all(np.isfinite(new)):
            raise NonFinite(f"iterate diverged at iteration {t}")

        change = float(np.linalg.norm(new - sigma) / max(1.0, np.linalg.norm(sigma)))
        history.append((t, change, _frechet(reg, mid, input_trace)))
        sigma = new
        ridge *= st.ridge_decay
        if change <= st.tol:
            break

    residual, fval = _evaluate(sigma, prob, input_trace)
    fvals = [h[2] for h in history] + [fval]
    rises = [(t, b - a) for t, (a, b) in enumerate(zip(fvals, fvals[1:]), 1) if b > a + 1e-9]
    for t, rise in rises:
        warnings.warn(f"Fréchet value increased by {rise:.3e} at iteration {t}",
                      RuntimeWarning, stacklevel=2)
    return BarycentreResult(
        barycentre=sigma,
        iterations=len(history),
        final_change=change,
        certificate_residual=residual,
        converged=change <= st.tol,
        frechet_value=fval,
        monotone=not rises,
        history=tuple(history),
    )
