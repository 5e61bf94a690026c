"""Helpers shared by the test modules: random inputs, the constructed triple and oracles."""

from scipy.integrate import quad
from scipy.stats import norm

from bwbary import TruncationConfig, build_covariance, build_pair_maps, conjugate
from bwbary.linalg import RANK_TOL, eig_sym


def random_psd(rng, n, rank=None):
    G = rng.standard_normal((n, rank or n))
    return G @ G.T


def constructed_triple(dim):
    """The barycentre ``C`` of the pair at truncation ``dim``, and its inputs ``S_1``, ``S_2``."""
    cov = build_covariance(TruncationConfig(dim=dim))
    t1, t2 = build_pair_maps(dim)
    return cov, conjugate(t1, cov), conjugate(t2, cov)


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
