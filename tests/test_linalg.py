"""Core linear algebra: eigendecomposition, PSD functions, rank bookkeeping."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bwbary import (
    InvalidInput,
    NotPSD,
    eig_sym,
    kernel_dim,
    operator_norm,
    pinv_sqrt,
    sqrt_psd,
    symmetrized_shift,
)
from bwbary.construct import build_covariance, TruncationConfig
from bwbary.linalg import congruence_sqrt, polar, psd_factor, range_projector


def random_psd(rng, n, rank=None):
    G = rng.standard_normal((n, rank or n))
    return G @ G.T


class TestEigSym:
    def test_diagonal(self):
        dec = eig_sym(np.diag([3.0, 1.0]))
        np.testing.assert_allclose(dec.eigenvalues, [3.0, 1.0])
        np.testing.assert_allclose(dec.eigenvectors, np.eye(2))

    def test_identity(self):
        dec = eig_sym(np.eye(4))
        np.testing.assert_allclose(dec.eigenvalues, np.ones(4))

    def test_shift_spectrum_symmetric_about_zero(self):
        # the symmetrized doubling shift is the adjacency matrix of a forest
        # of paths, hence bipartite: eigenvalues come in +/- pairs
        w = eig_sym(symmetrized_shift(8)).eigenvalues
        np.testing.assert_allclose(w, -w[::-1], atol=1e-10)

    def test_golden_eigenvectors(self):
        # the sign/tie convention pins the eigenvectors of [[2,1],[1,2]]
        # exactly: both components tie in magnitude, so the first must be
        # positive in each column
        dec = eig_sym(np.array([[2.0, 1.0], [1.0, 2.0]]))
        s = np.sqrt(0.5)
        np.testing.assert_allclose(dec.eigenvalues, [3.0, 1.0], atol=1e-15)
        np.testing.assert_allclose(dec.eigenvectors, [[s, s], [s, -s]], atol=1e-15)

    def test_deterministic_and_sign_convention(self):
        rng = np.random.default_rng(0)
        M = random_psd(rng, 6)
        d1, d2 = eig_sym(M), eig_sym(M.copy())
        assert np.array_equal(d1.eigenvalues, d2.eigenvalues)
        assert np.array_equal(d1.eigenvectors, d2.eigenvectors)
        for j in range(6):
            col = d1.eigenvectors[:, j]
            assert col[np.argmax(np.abs(col))] > 0

    def test_reconstruction_and_orthonormality(self):
        rng = np.random.default_rng(1)
        for n in (2, 5, 17):
            A = rng.standard_normal((n, n))
            M = (A + A.T) / 2
            dec = eig_sym(M)
            scale = max(1.0, np.linalg.norm(M))
            assert np.linalg.norm(dec.reconstruct() - M) <= 1e-10 * scale
            V = dec.eigenvectors
            assert np.linalg.norm(V.T @ V - np.eye(n)) <= 1e-10 * n

    def test_nonfinite_rejected(self):
        with pytest.raises(InvalidInput):
            eig_sym(np.array([[np.nan, 0.0], [0.0, 1.0]]))


class TestSqrtPsd:
    def test_diagonal(self):
        np.testing.assert_allclose(sqrt_psd(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))

    def test_zero(self):
        np.testing.assert_allclose(sqrt_psd(np.zeros((3, 3))), np.zeros((3, 3)))

    def test_two_by_two(self):
        M = np.array([[2.0, 1.0], [1.0, 2.0]])
        R = sqrt_psd(M)
        np.testing.assert_allclose(np.sort(np.linalg.eigvalsh(R)), [1.0, np.sqrt(3.0)])
        np.testing.assert_allclose(R @ R, M, atol=1e-12)

    def test_roundtrip_random(self):
        rng = np.random.default_rng(2)
        for n in (2, 4, 9):
            M = random_psd(rng, n)
            R = sqrt_psd(M)
            scale = max(1.0, np.linalg.norm(M))
            assert np.linalg.norm(R @ R - M) <= 1e-9 * scale

    def test_rank_deficient_roundtrip(self):
        rng = np.random.default_rng(3)
        M = random_psd(rng, 6, rank=2)
        R = sqrt_psd(M)
        assert np.linalg.norm(R @ R - M) <= 1e-9 * max(1.0, np.linalg.norm(M))

    def test_not_psd(self):
        with pytest.raises(NotPSD):
            sqrt_psd(-np.eye(2))


class TestPinvSqrt:
    def test_rank_one_diagonal(self):
        np.testing.assert_allclose(pinv_sqrt(np.diag([4.0, 0.0])), np.diag([0.5, 0.0]))

    def test_identity(self):
        np.testing.assert_allclose(pinv_sqrt(np.eye(3)), np.eye(3))

    def test_below_rank_threshold_is_zeroed(self):
        # threshold is rank_tol * max(1, lam_max) = 1e-10 here, so 1e-20 is kernel
        np.testing.assert_allclose(pinv_sqrt(np.diag([1e-20, 1.0])), np.diag([0.0, 1.0]))

    def test_projector_identity(self):
        rng = np.random.default_rng(4)
        for rank in (2, 4):
            M = random_psd(rng, 5, rank=rank)
            P = pinv_sqrt(M)
            proj = range_projector(M)
            scale = max(1.0, np.linalg.norm(M))
            assert np.linalg.norm(P @ M @ P - proj) <= 1e-8 * scale


class TestOperatorNorm:
    def test_identity(self):
        assert operator_norm(np.eye(5)) == pytest.approx(1.0)

    @pytest.mark.parametrize("dim", [2, 8, 64, 256])
    def test_shift_bound(self, dim):
        assert operator_norm(symmetrized_shift(dim)) <= 2.0 + 1e-12

    @pytest.mark.parametrize("alpha", [-2.0, -1.0, 0.5, 3.0])
    def test_scaling(self, alpha):
        rng = np.random.default_rng(5)
        A = rng.standard_normal((6, 6))
        M = (A + A.T) / 2
        base = operator_norm(M)
        assert operator_norm(alpha * M) == pytest.approx(abs(alpha) * base, rel=1e-12)

    def test_nonfinite(self):
        with pytest.raises(InvalidInput):
            operator_norm(np.array([[np.inf]]))


class TestKernelDim:
    def test_explicit(self):
        assert kernel_dim(np.diag([1.0, 0.0, 0.5, 0.0]), rank_tol=1e-10) == 2

    def test_identity(self):
        assert kernel_dim(np.eye(8)) == 0

    def test_constructed_covariance(self):
        cov = build_covariance(TruncationConfig(dim=16))
        assert kernel_dim(cov) == 8

    def test_kernel_plus_rank_is_dim(self):
        rng = np.random.default_rng(6)
        for rank in (1, 3, 5):
            M = random_psd(rng, 5, rank=rank)
            w = np.linalg.eigvalsh(M)
            numerical_rank = int(np.sum(w >= 1e-10 * max(w[-1], 1.0)))
            assert kernel_dim(M) + numerical_rank == 5


class TestFactoredRoots:
    def test_psd_factor_reconstructs(self):
        rng = np.random.default_rng(7)
        for rank in (2, 5):
            M = random_psd(rng, 5, rank=rank)
            C = psd_factor(M)
            np.testing.assert_allclose(C.T @ C, M, atol=1e-12 * max(1.0, np.linalg.norm(M)))

    def test_congruence_matches_plain_sqrt(self):
        rng = np.random.default_rng(8)
        A = random_psd(rng, 5)
        B = random_psd(rng, 5)
        root = sqrt_psd(A)
        expected = sqrt_psd(root @ B @ root)
        np.testing.assert_allclose(congruence_sqrt(root, B), expected, atol=1e-9)

    def test_congruence_handles_graded_spectra(self):
        # spectrum spanning ~38 decades after the congruence: the factored
        # route stays at rounding level where the plain product square root
        # loses half the exponent range
        cov = build_covariance(TruncationConfig(dim=64))
        root = sqrt_psd(cov)
        R = congruence_sqrt(root, cov)
        np.testing.assert_allclose(R, cov, atol=1e-13)

    def test_polar_thin_svd(self):
        rng = np.random.default_rng(9)
        X = rng.standard_normal((3, 12, 12))
        _, sv, Vt = np.linalg.svd(X)  # full SVD: the square case keeps its bits
        R = (np.swapaxes(Vt, -1, -2) * sv[..., None, :]) @ Vt
        assert np.array_equal(polar(X), (R + np.swapaxes(R, -1, -2)) / 2.0)
        # a wide (r, d) factor gives the (d, d) root of its zero-padded square
        padded = X.copy()
        padded[:, 5:] = 0.0
        wide = polar(X[:, :5])
        assert wide.shape == (3, 12, 12)
        np.testing.assert_allclose(wide, polar(padded), atol=1e-13)

    def test_congruence_against_algebraic_truth(self):
        # for a conjugated covariance T C T with PSD T, the congruence square
        # root (C^{1/2} T C T C^{1/2})^{1/2} equals C^{1/2} T C^{1/2} exactly,
        # which gives an entrywise oracle (cross-checked once against a
        # 50-digit eigendecomposition; agreement 2e-16)
        from bwbary import build_pair_maps, conjugate

        for dim in (8, 32):
            cov = build_covariance(TruncationConfig(dim=dim))
            t1, _ = build_pair_maps(dim)
            root = sqrt_psd(cov)
            ours = congruence_sqrt(root, conjugate(t1, cov))
            np.testing.assert_allclose(ours, root @ t1 @ root, atol=1e-14)


@settings(max_examples=50, deadline=None)
@given(st.floats(-5.0, 5.0), st.floats(0.01, 5.0), st.floats(0.01, 5.0))
def test_sqrt_psd_two_by_two_parametrized(offdiag_scale, lam1, lam2):
    # rotate a diagonal through a fixed angle; sqrt must square back
    c, s = np.cos(offdiag_scale), np.sin(offdiag_scale)
    Q = np.array([[c, -s], [s, c]])
    M = Q @ np.diag([lam1, lam2]) @ Q.T
    R = sqrt_psd(M)
    assert np.linalg.norm(R @ R - M) <= 1e-9 * max(1.0, np.linalg.norm(M))
