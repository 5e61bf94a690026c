"""Helpers shared by the test modules: random inputs, the constructed triple and oracles.

``sqrt_psd``, ``psd_factor`` and ``congruence_sqrt`` are the plain dense
references that the package's block-stacked passes are checked against,
bit for bit where the passes promise it.  ``reference_coefficients`` and
``reference_map_coefficient`` draw the Monte-Carlo coefficients with one
numpy ``Generator`` per stream, the reference for ``randomized``'s single
vectorised pass.  ``reference_input_sum`` and ``reference_procrustes_step``
take a solver step stack by stack through ``linalg.procrustes``, writing
the rows its Jacobi sweeps rotated back into the factors, the reference for
``linalg._ProcrustesStack``, which keeps them rows-last between steps.
``reference_proved_factors`` factors a problem's diagonal blocks with one
``pivoted_cholesky`` per block size, the reference for
``barycentre._proved_factors``, which joins the small sizes into one
zero-padded stack.
"""

import numpy as np
from scipy.integrate import quad
from scipy.stats import norm

from bwbary import TruncationConfig, build_covariance, build_pair_maps, conjugate, optimal_map
from bwbary.barycentre import _block_size
from bwbary.linalg import (
    RANK_TOL,
    _spectral_apply,
    check_factor_residual,
    check_symmetric,
    pivoted_cholesky,
    polar,
    procrustes,
    psd_eigh,
)


def random_psd(rng, n, rank=None):
    G = rng.standard_normal((n, rank or n))
    return G @ G.T


def eigh_one(M) -> tuple:
    """``(w, V)``: :func:`psd_eigh` of the symmetrized ``M`` as a stack of one, descending."""
    [(w, V)] = psd_eigh([check_symmetric(M, tol=np.inf)[None]])
    return w[0], V[0]


def sqrt_psd(M):
    """Symmetric PSD square root of a covariance, from its checked eigendecomposition.

    Eigenvalues in ``[-PSD_TOL * max(1, lam_max), 0)`` are clamped to zero;
    anything below raises :class:`NotPSD`.
    """
    w, V = eigh_one(M)
    return _spectral_apply(V, np.sqrt(w))


def psd_factor(M):
    """Factor ``C`` with ``C.T @ C = M``: :func:`pivoted_cholesky` of the symmetrized ``M``.

    The factor of a stack of one, so it has the bits of any stack holding
    ``M``.  Rows beyond the numerically detected rank are zero.
    """
    return pivoted_cholesky(check_symmetric(M, tol=np.inf)[None])[0][0]


def congruence_sqrt(root, M):
    """PSD square root of ``root @ M @ root`` for PSD ``M`` and symmetric ``root``.

    The symmetric polar factor ``|C @ root|`` of the pivoted-Cholesky factor
    ``C`` of ``M``, which keeps absolute accuracy at rounding level even
    when the product's spectrum spans hundreds of decades, where
    :func:`sqrt_psd` of the explicit product degrades.
    """
    return polar(psd_factor(M) @ root)


def constructed_triple(dim):
    """The barycentre ``C`` of the pair at truncation ``dim``, and its inputs ``S_1``, ``S_2``."""
    cov = build_covariance(TruncationConfig(dim=dim))
    t1, t2 = build_pair_maps(dim)
    return cov, conjugate(t1, cov), conjugate(t2, cov)


def two_input_oracle(A, B, t):
    """The exact barycentre of ``A``, ``B`` with weights ``1 - t``, ``t``, and its dual maps.

    For ``A`` positive definite the barycentre is the point at ``t`` on the
    Bures-Wasserstein geodesic from ``A`` to ``B`` (McCann 1997):
    ``C* = M A M`` with ``M = (1 - t) I + t T``, ``T`` the optimal map from
    ``A`` to ``B``.  The maps from ``C*`` to the inputs are ``M^{-1}`` and
    ``T M^{-1}``, and they average to the identity.  ``B`` may be singular.
    Returns ``(C*, M^{-1}, T M^{-1})``.
    """
    T = optimal_map(A, B)
    M = (1.0 - t) * np.eye(len(T)) + t * T
    M_inv = np.linalg.inv(M)
    C = M @ A @ M
    return (C + C.T) / 2.0, M_inv, T @ M_inv


def range_projector(M, rank_tol=RANK_TOL):
    """``V_r V_r^T`` for the eigenvectors ``V_r`` above the rank cutoff."""
    w, V = eigh_one(M)
    V = V[:, w > rank_tol * max(1.0, w[0])]
    return V @ V.T


def quantile_coupling_w2sq(sigma1, sigma2):
    """1-D squared W2 between N(0, s1^2), N(0, s2^2) by quantile quadrature."""
    val, _ = quad(lambda u: (sigma1 * norm.ppf(u) - sigma2 * norm.ppf(u)) ** 2,
                  1e-12, 1 - 1e-12)
    return val


def law_draw(name, generator):
    """One coefficient of the named law from a numpy ``Generator``."""
    if name == "uniform":
        return float(generator.uniform(-0.5, 0.5))
    if name == "two-point":
        return 0.5 if int(generator.integers(2)) else -0.5
    return float(generator.triangular(-0.5, 0.0, 0.5))


def philox_stream(seed_seq):
    return np.random.Generator(np.random.Philox(seed_seq))


def reference_coefficients(law, seed, n, antithetic=False):
    """``draw_coefficients``'s contract, one Philox generator per spawned stream."""
    children = np.random.SeedSequence(seed).spawn(n // 2 if antithetic else n)
    draws = [law_draw(law.name, philox_stream(child)) for child in children]
    if antithetic:
        draws = [x for a in draws for x in (a, -a)]
    return np.array(draws)


def reference_map_coefficient(law, seed):
    """``random_map_sample``'s coefficient: the first draw of the unspawned stream."""
    return law_draw(law.name, philox_stream(np.random.SeedSequence(seed)))


def reference_input_sum(G, weights, term):
    """``sum_i w_i term(G_i)`` over an ``(n, k, m, L)`` stack, ``_block_size(L)`` blocks per call.

    ``term`` returns C-contiguous stacks, summed over the inputs as a running
    sum in input order (a stack of 1x1 results by ``cumsum``, which is
    sequential).
    """
    w = np.asarray(weights)
    step = max(1, _block_size(G.shape[-1]) // G.shape[1])
    acc = 0.0
    for start in range(0, len(G), step):
        P = w[start:start + step, None, None, None] * term(G[start:start + step])
        P[0] += acc
        acc = P.sum(axis=0) if P[0].size > 1 else np.cumsum(P, axis=0)[-1]
    return acc


def reference_procrustes_step(H, k):
    """``U_i^T H_i``, ``U_i`` the orthogonal polar factor of ``H_i k^T``, over a stack ``H``.

    The rows that ``procrustes``'s Jacobi sweeps rotated replace ``H``'s in
    place (three rows or more); otherwise nothing is written.
    """
    R, rotated = procrustes(H @ np.swapaxes(k, -1, -2), H)
    if rotated is not H:
        H[...] = rotated
    return R


def reference_proved_factors(stacks):
    """The ``(n, k, m, L)`` factors of ``(n, k, L, L)`` diagonal blocks, one ``pivoted_cholesky`` per size.

    Each size cut to its largest rank, and each matrix's residual over its
    blocks checked as its PSD proof.
    """
    residual, max_diag, block_factors = 0.0, 0.0, []
    for stack in stacks:
        F, rank = pivoted_cholesky(stack)
        R = stack - np.swapaxes(F, -1, -2) @ F
        residual = residual + (R * R).sum(axis=(1, 2, 3))
        max_diag = np.maximum(max_diag, np.diagonal(stack, axis1=-2, axis2=-1).max(axis=(1, 2)))
        block_factors.append(F[:, :, :int(rank.max(initial=0))].copy())
    for matrix, r, top in zip(zip(*stacks), np.sqrt(residual), max_diag):
        check_factor_residual(matrix, float(r), float(top))
    return tuple(block_factors)
