"""Helpers shared by the test modules: random inputs, the constructed triple and oracles."""

import numpy as np
from scipy.integrate import quad
from scipy.stats import norm

from bwbary import TruncationConfig, build_covariance, build_pair_maps, conjugate, optimal_map
from bwbary.linalg import RANK_TOL, eig_sym


def random_psd(rng, n, rank=None):
    G = rng.standard_normal((n, rank or n))
    return G @ G.T


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
    dec = eig_sym(M)
    V = dec.eigenvectors[:, dec.eigenvalues > rank_tol * max(1.0, dec.eigenvalues[0])]
    return V @ V.T


def quantile_coupling_w2sq(sigma1, sigma2):
    """1-D squared W2 between N(0, s1^2), N(0, s2^2) by quantile quadrature."""
    val, _ = quad(lambda u: (sigma1 * norm.ppf(u) - sigma2 * norm.ppf(u)) ** 2,
                  1e-12, 1 - 1e-12)
    return val
