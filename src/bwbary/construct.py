"""Constructors for the shift-conjugation family with a singular barycentre.

The building block is the doubling shift ``F`` on basis vectors,
``F e_k = e_{2k}`` (1-based), truncated to a given dimension.  Conjugating a
diagonal covariance that vanishes on every odd-indexed direction with PSD
maps of the form ``I + a (F + F^T)`` produces families whose exact
Bures-Wasserstein barycentre is that singular covariance: whenever the maps
are PSD and average to the identity, the barycentre certificate holds with
equality.  Every conjugation ``T C T`` is block diagonal along the doubling
chains (:func:`doubling_chains`), and :func:`chain_factors` gives its exact
factor ``C^{1/2} T`` on each chain, the form a barycentre problem keeps, so
no product need be formed.

At finite truncation each conjugated covariance has the same kernel
dimension as the original, ``(dim + 1) // 2``: its kernel is the inverse image
of the original kernel under the map, and :func:`conjugated_kernel` computes it
that way, with no eigenvalue cutoff.  The odd directions ``e_j`` with ``2j > dim`` are fixed by
the truncated maps, so every conjugated kernel shares their span (of dimension
``dim/4`` for a power of two) with the original kernel; the rest of the
kernels are tilted apart, by canonical angles of at least ``arctan(1/2)`` for
the pair maps.  Vanishing of the conjugated kernels is
strictly a limit phenomenon, so this module reports kernel dimensions and
angles rather than asserting injectivity.
"""

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import linalg
from .errors import InvalidInput, check_integer, is_real

# Canonical angles at or below this are rounding noise around zero: the
# directions they belong to lie in both kernels.
SHARED_ANGLE_TOL = 1e-8


@dataclass(frozen=True)
class TruncationConfig:
    """Finite truncation of the singular-covariance construction.

    The kernel is the odd 1-based directions 1, 3, 5, ..., the heads of the
    doubling chains; the ``dim // 2`` even directions carry the decay law.

    Attributes
    ----------
    dim : int
        Truncation dimension, an integer >= 2 (``bool`` is not one); a power
        of two keeps the shift orbits tidy.
    decay : float or sequence of float
        A float ``r`` in (0, 1) puts eigenvalue ``r**k`` on the k-th kept
        direction (geometric decay); a sequence lists the ``dim // 2`` kept
        eigenvalues explicitly, in increasing index order.  Each is a real
        number (``bool`` and strings are not).
    values : tuple of float
        The kept eigenvalues, derived from ``decay`` (not an init argument).
        Each is a positive finite float, so a geometric ``r`` whose
        ``r**(dim // 2)`` underflows to 0 raises :class:`InvalidInput`
        (``r = 0.5`` reaches ``dim = 2149``).
    """

    dim: int
    decay: float | Sequence[float] = 0.5
    values: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        kept = check_integer(self.dim, "dim", 2) // 2
        scalar = np.ndim(self.decay) == 0  # a 0-d array is no sequence
        if not all(map(is_real, [self.decay] if scalar else self.decay)):
            raise InvalidInput("decay must be a real number or a sequence of real numbers")
        if scalar:
            r = float(self.decay)
            if not (0.0 < r < 1.0):
                raise InvalidInput("geometric decay ratio must be in (0, 1)")
            values = tuple(r ** k for k in range(1, kept + 1))
        else:
            values = tuple(float(v) for v in self.decay)
            if len(values) != kept:
                raise InvalidInput(
                    f"decay list has {len(values)} entries but {kept} kept directions")
            object.__setattr__(self, "decay", values)
        if not all(0.0 < v < math.inf for v in values):
            raise InvalidInput(
                "every kept eigenvalue must be a positive finite float; "
                "a geometric ratio r needs r**(dim // 2) > 0")
        object.__setattr__(self, "values", values)


def doubling_shift(dim: int) -> np.ndarray:
    """Matrix of the doubling shift ``e_k -> e_{2k}`` (1-based) at truncation.

    Columns whose image index exceeds ``dim`` are zero, so ``F.T @ F`` is a
    0/1 diagonal projector and the operator norm is exactly 1.  The result is
    not symmetric.
    """
    check_integer(dim, "dim", 2)
    F = np.zeros((dim, dim))
    ks = np.arange(1, dim // 2 + 1)
    F[2 * ks - 1, ks - 1] = 1.0
    return F


def doubling_chains(dim: int) -> list:
    """The orbits ``[m, 2m, 4m, ...]`` (1-based, up to ``dim``) of the doubling shift, ``m`` odd.

    ``F + F^T`` links ``k`` only to ``2k`` and ``k/2``, so these chains are the
    connected components of its pattern: every map ``I + a (F + F^T)``, every
    diagonal covariance and every conjugation ``T C T`` of one by the other is
    block diagonal along them.  There are ``ceil(dim/2)`` chains, the one from
    ``m`` of length ``floor(log2(dim/m)) + 1``.
    """
    check_integer(dim, "dim", 1)
    chains = []
    for m in range(1, dim + 1, 2):
        chain = [m]
        while 2 * chain[-1] <= dim:
            chain.append(2 * chain[-1])
        chains.append(chain)
    return chains


def symmetrized_shift(dim: int) -> np.ndarray:
    """``F + F^T`` for the doubling shift; symmetric, indefinite, norm < 2."""
    F = doubling_shift(dim)
    return F + F.T


def build_shift_map(dim: int, c: float = 2.0) -> np.ndarray:
    """The self-adjoint map ``F + F^T + c I``, for finite ``c >= 2``.

    PSD for every such ``c``: the symmetrized shift has operator norm below 2,
    so the smallest eigenvalue exceeds ``c - 2``.  The operator norm is at
    most ``c + 2``.  Any other ``c``, NaN, infinity and anything that is not a
    real number included, raises :class:`InvalidInput`.
    """
    if not (is_real(c) and 2.0 <= c < math.inf):
        raise InvalidInput("c must be finite and >= 2 to keep the map PSD")
    return symmetrized_shift(dim) + c * np.eye(dim)


def build_pair_maps(dim: int) -> tuple:
    """The PSD pair ``I + (F + F^T)/2`` and ``I - (F + F^T)/2``.

    All entries are dyadic rationals, so the two maps sum to twice the
    identity bit-exactly.  Their spectra coincide as multisets because the
    symmetrized shift's spectrum is symmetric about zero.
    """
    half = symmetrized_shift(dim) / 2.0
    eye = np.eye(dim)
    return eye + half, eye - half


def chain_factors(config: TruncationConfig, coeffs) -> tuple:
    """Exact chain-block factors of the conjugations ``T_i C T_i``: ``(blocks, block_factors)``.

    ``C = build_covariance(config)`` and ``T_i = I + a_i (F + F^T)`` for the
    coefficients ``a_i`` (each in ``[-1/2, 1/2]``, NaN not, so every map is
    PSD).  Every ``T_i C T_i`` is block diagonal along the doubling chains,
    and on a chain of length ``L`` it is ``G^T G`` with
    ``G = diag(sqrt(c_1), .., sqrt(c_{L-1})) (I_L + a_i P_L)[1:, :]``: ``C``'s
    block is ``diag(0, c_1, .., c_{L-1})``, its zero at the chain's head (the
    direction in ``ker C``), and ``P_L`` is the path adjacency of the chain,
    ``F + F^T``'s block.  So ``G`` is ``C^{1/2} T_i``'s block with its zero row
    dropped, and its ``L - 1`` rows are the block's rank.

    The result is in the form :class:`barycentre.BarycentreProblem` keeps:
    ``blocks`` holds the chains as 0-based ``(k_L, L)`` index arrays, one per
    length ``L`` ascending, rows ordered by their head, each row ascending
    (the order of ``barycentre._components``); ``block_factors`` the matching
    ``(n, k_L, L - 1, L)`` stacks, for all inputs and chains at once.
    """
    a = linalg.check_real(coeffs)
    if a.ndim != 1 or a.size < 1:
        raise InvalidInput("need a one-dimensional sequence of at least one coefficient")
    if not np.all(np.abs(a) <= 0.5):
        raise InvalidInput("coefficients must lie in [-1/2, 1/2] to keep maps PSD")
    chains = doubling_chains(config.dim)
    # the 1-based even direction 2k carries values[k - 1]
    root = np.sqrt(np.array((0.0, *config.values)))
    blocks, block_factors = [], []
    for L in sorted({len(chain) for chain in chains}):
        chain = np.array([c for c in chains if len(c) == L])
        path = np.eye(L, k=1) + np.eye(L, k=-1)
        rows = (np.eye(L) + a[:, None, None] * path)[:, None, 1:]
        blocks.append(chain - 1)
        block_factors.append(root[chain[:, 1:] // 2][None, :, :, None] * rows)
    return tuple(blocks), tuple(block_factors)


def build_covariance(config: TruncationConfig) -> np.ndarray:
    """Diagonal covariance that vanishes on the odd directions.

    The even directions carry ``config.values`` in order: ``r**k`` on the k-th
    for geometric decay, or the explicit list.  With ``dim=8``, ``r=1/2`` this
    is ``diag(0, 1/2, 0, 1/4, 0, 1/8, 0, 1/16)``.
    """
    d = np.zeros(config.dim)
    d[1::2] = config.values
    return np.diag(d)


def conjugate(T, cov) -> np.ndarray:
    """Conjugation ``T @ cov @ T`` of a covariance by a self-adjoint map.

    Both operands must pass :func:`linalg.check_symmetric` (finite, symmetric
    within its tolerance) and share a dim; it returns an exactly symmetric
    operand with its bits.  The product is symmetrized and returned as
    computed: its eigenvalues are checked by the PSD rule of
    :func:`linalg.check_psd_floor` (rounding-level negatives pass, anything
    below raises :class:`NotPSD`) but never clamped.
    """
    T, C = linalg.check_symmetric(T), linalg.check_symmetric(cov)
    linalg.check_same_dim(T, C)
    P = T @ C @ T
    P = (P + P.T) / 2.0
    w = np.linalg.eigvalsh(P)
    linalg.check_psd_floor(float(w[0]), float(w[-1]), "conjugation produced eigenvalue")
    return P


def conjugated_kernel(T) -> np.ndarray:
    """Orthonormal basis (columns) of ``ker(T C T)``, ``C`` a constructed covariance.

    Exact for a symmetric positive-definite ``T``, as every map this module
    builds is: ``ker(T C T) = T^{-1} E``, ``E`` the odd coordinate directions
    (they span ``ker C`` for every decay), so no eigenvalue is classified.  Raises
    :class:`InvalidInput` when ``T`` has no Cholesky factor.
    """
    T = linalg.check_symmetric(T)
    try:
        L = np.linalg.cholesky(T)
    except np.linalg.LinAlgError:
        raise InvalidInput("map is not positive definite") from None
    E = np.eye(T.shape[0])[:, 0::2]
    return np.linalg.qr(np.linalg.solve(L.T, np.linalg.solve(L, E)))[0]


def kernel_report(config: TruncationConfig, maps) -> dict:
    """Kernel bookkeeping for ``C = build_covariance(config)`` and ``T C T``, ``T`` in ``maps``.

    Returns the kernel dimension of ``C`` and, per map, that of ``T C T`` and
    two summaries of the canonical angles between the two kernels, both from
    :func:`conjugated_kernel`:

    ``shared_dims``
        the number of angles at most ``SHARED_ANGLE_TOL``, i.e. the dimension
        of the shared subspace (``dim/4`` for the pair maps).
    ``min_nonzero_angles``
        the smallest angle above ``SHARED_ANGLE_TOL``: the separation of the
        kernels outside the shared subspace, ``arctan(1/2)`` for the pair
        maps.  NaN when every angle is shared.

    A map of another dim raises :class:`DimensionMismatch`.
    """
    base = np.eye(config.dim)[:, 0::2]
    report = {"kernel_dim": base.shape[1],
              "kernel_dims": [], "shared_dims": [], "min_nonzero_angles": []}
    for T in maps:
        ker = conjugated_kernel(T)
        angles = linalg.principal_angles(ker, base)
        nonzero = angles[angles > SHARED_ANGLE_TOL]
        report["kernel_dims"].append(int(ker.shape[1]))
        report["shared_dims"].append(int(angles.size - nonzero.size))
        report["min_nonzero_angles"].append(
            float(nonzero.min()) if nonzero.size else float("nan"))
    return report
