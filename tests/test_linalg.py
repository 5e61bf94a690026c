"""Core linear algebra: eigendecomposition, PSD functions, rank bookkeeping."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bwbary import (
    DimensionMismatch,
    InvalidInput,
    NotPSD,
    build_pair_maps,
    conjugate,
    eig_sym,
    kernel_dim,
    sqrt_psd,
    symmetrized_shift,
)
from bwbary import linalg
from bwbary.construct import build_covariance, TruncationConfig
from bwbary.linalg import (
    PSD_TOL,
    check_psd_floor,
    check_symmetric,
    congruence_sqrt,
    covariance_factor,
    pivoted_cholesky,
    polar,
    principal_angles,
    psd_factor,
)
from helpers import random_psd, range_projector


class TestCheckSymmetric:
    """Finiteness is tested before any subtraction, then asymmetry against ``tol * max(1, maxAbs)``."""

    @pytest.mark.parametrize("entries", [
        [(0, 0, np.nan)], [(1, 1, np.inf)],
        [(0, 2, np.inf), (2, 0, np.inf)], [(0, 2, -np.inf), (2, 0, -np.inf)],
    ], ids=["nan", "inf", "mirrored-inf", "mirrored-minus-inf"])
    def test_non_finite_raises_without_a_warning(self, entries):
        # an infinite entry on the diagonal or at both mirrored places makes
        # M - M.T compute inf - inf, which numpy warns about
        M = np.eye(3)
        for i, j, value in entries:
            M[i, j] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInput, match="^matrix has non-finite entries$"):
                check_symmetric(M)

    @pytest.mark.parametrize("largest", [1e3, -1e3])
    def test_asymmetry_is_relative_to_the_largest_entry(self, largest):
        M = np.diag([1.0, largest, 2.0])
        M[0, 2] = 0.9e-9  # within 1e-12 * 1e3
        np.testing.assert_array_equal(check_symmetric(M), (M + M.T) / 2.0)
        M[0, 2] = 1.1e-9
        with pytest.raises(InvalidInput, match="^matrix is not symmetric within tolerance$"):
            check_symmetric(M)


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
            V = dec.eigenvectors
            assert np.linalg.norm((V * dec.eigenvalues) @ V.T - M) <= 1e-10 * scale
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
        np.testing.assert_allclose(eig_sym(np.diag([4.0, 0.0])).pinv_sqrt(), np.diag([0.5, 0.0]))

    def test_identity(self):
        np.testing.assert_allclose(eig_sym(np.eye(3)).pinv_sqrt(), np.eye(3))

    def test_below_rank_threshold_is_zeroed(self):
        # threshold is rank_tol * max(1, lam_max) = 1e-10 here, so 1e-20 is kernel
        np.testing.assert_allclose(eig_sym(np.diag([1e-20, 1.0])).pinv_sqrt(), np.diag([0.0, 1.0]))

    def test_projector_identity(self):
        rng = np.random.default_rng(4)
        for rank in (2, 4):
            M = random_psd(rng, 5, rank=rank)
            P = eig_sym(M).pinv_sqrt()
            proj = range_projector(M)
            scale = max(1.0, np.linalg.norm(M))
            assert np.linalg.norm(P @ M @ P - proj) <= 1e-8 * scale


class TestOperatorNorm:
    @pytest.mark.parametrize("dim", [2, 8, 64, 256])
    def test_shift_bound(self, dim):
        assert np.linalg.norm(symmetrized_shift(dim), 2) <= 2.0 + 1e-12


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


def svd_polar(X):
    """``|X|`` of an ``(r, L)`` matrix or a stack of them from numpy's SVD: the reference.

    ``X`` is padded with ``L`` zero rows first, which leaves ``X.T @ X``
    unchanged and gives the SVD an operand with at least one row.
    """
    L = X.shape[-1]
    padded = np.concatenate([X, np.zeros(X.shape[:-2] + (L, L))], axis=-2)
    _, sv, Vt = np.linalg.svd(padded, full_matrices=False)
    R = (np.swapaxes(Vt, -1, -2) * sv[..., None, :]) @ Vt
    return (R + np.swapaxes(R, -1, -2)) / 2.0


class TestClosedFormPolar:
    """``polar`` of at most two rows is computed in closed form, without LAPACK."""

    @settings(max_examples=400, deadline=None)
    @given(st.integers(0, 2), st.integers(1, 9), st.integers(-100, 100),
           st.sampled_from(["graded", "zero row", "parallel", "orthogonal", "equal norms"]),
           st.integers(0, 2**32 - 1))
    def test_matches_the_svd(self, rows, L, k, kind, seed):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((rows, L)) * 0.5 ** np.arange(L)
        if kind == "zero row" and rows:
            X[rng.integers(rows)] = 0.0
        elif kind == "parallel" and rows == 2:
            X[1] = rng.uniform(-2.0, 2.0) * X[0]  # rank 1
        elif kind in ("orthogonal", "equal norms") and rows == 2 and L >= 2:
            # rows (u, v) and (-v, u), or (u, v) and (v, u), on two columns:
            # a == b exactly, with g == 0 or g != 0 (zeta == 0)
            u, v = rng.standard_normal(2)
            cols = rng.choice(L, 2, replace=False)
            X[:] = 0.0
            X[:, cols] = [[u, v], [-v, u]] if kind == "orthogonal" else [[u, v], [v, u]]
        X *= 10.0**k
        P = polar(X)
        assert P.shape == (L, L)
        assert np.array_equal(P, P.T)
        assert np.linalg.norm(P - svd_polar(X)) <= 1e-14 * np.linalg.norm(X)

    @pytest.mark.parametrize("rows", [0, 1, 2])
    def test_makes_no_lapack_call(self, rows, lapack_calls):
        X = np.random.default_rng(10).standard_normal((50, 3, rows, 4))
        lapack_calls.clear()
        P = polar(X)
        assert P.shape == (50, 3, 4, 4)
        assert not lapack_calls
        if rows == 0:
            assert not np.any(P)

    @pytest.mark.parametrize("rows", [1, 2])
    def test_stack_has_the_bits_of_separate_calls(self, rows):
        rng = np.random.default_rng(11)
        X = rng.standard_normal((3, 4, rows, 7)) * 0.5 ** np.arange(7)
        X[0, 1] = 0.0  # a zero matrix
        X[1, 2, -1] = 0.0  # a zero row
        X[2, 0, -1] = 3.0 * X[2, 0, 0]  # parallel rows when there are two
        P = polar(X)
        for idx in np.ndindex(3, 4):
            assert np.array_equal(P[idx], polar(X[idx]))
            assert np.array_equal(P[idx], polar(X[idx][None])[0])

    def test_two_by_two_congruence_is_the_polar_of_its_factor(self, lapack_calls):
        rng = np.random.default_rng(12)
        M = random_psd(rng, 2)
        root = sqrt_psd(random_psd(rng, 2))
        lapack_calls.clear()
        R = congruence_sqrt(root, M)
        assert lapack_calls["svd"] == 0
        assert np.array_equal(R, polar(psd_factor(M) @ root))
        np.testing.assert_allclose(R, sqrt_psd(root @ M @ root), atol=1e-12)


JACOBI_ROWS = range(3, linalg._JACOBI_MAX_ROWS + 1)


def jacobi_stack(rng, n, rows, L, kind):
    """``n`` random ``(rows, L)`` matrices of one kind, for polar's Jacobi route."""
    X = rng.standard_normal((n, rows, L)) * 0.5 ** np.arange(L)  # graded columns
    if kind == "zero row":
        X[np.arange(n), rng.integers(rows, size=n)] = 0.0
    elif kind == "parallel":
        X[:, 1] = rng.uniform(-2.0, 2.0, (n, 1)) * X[:, 0]
    elif kind == "equal norms":
        # cyclic shifts of one row with two adjacent nonzeros: the computed
        # norms are equal to the bit, and neighbouring rows are not orthogonal
        v = np.zeros((n, L))
        v[:, :2] = rng.standard_normal((n, 2))
        X = np.stack([np.roll(v, k, axis=1) for k in range(rows)], axis=1)
    elif kind == "clustered":
        # singular values 1, then rows - 1 within 1e-12 of each other at 1e-9
        U = np.linalg.qr(rng.standard_normal((n, rows, rows)))[0]
        V = np.linalg.qr(rng.standard_normal((n, L, rows)))[0]
        sv = 1e-9 * (1.0 + 1e-12 * np.arange(rows))
        sv[0] = 1.0
        X = (U * sv) @ np.swapaxes(V, -1, -2)
    return X


class TestJacobiPolar:
    """Large stacks of matrices with 3 to ``_JACOBI_MAX_ROWS`` rows take one-sided Jacobi."""

    N = linalg._JACOBI_MIN_STACK

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(JACOBI_ROWS), st.integers(0, 4), st.integers(-100, 100),
           st.sampled_from(["graded", "zero row", "parallel", "equal norms", "clustered"]),
           st.integers(0, 2**32 - 1))
    def test_matches_the_svd(self, rows, extra, k, kind, seed):
        X = jacobi_stack(np.random.default_rng(seed), self.N, rows, rows + extra, kind)
        X *= 10.0**k
        P = polar(X)
        assert P.shape == (self.N, rows + extra, rows + extra)
        assert np.array_equal(P, np.swapaxes(P, -1, -2))
        # the SVD polar itself is off by up to 1.5e-14 ||X|| on about one of
        # 50,000 such matrices (against 50-digit references, where the
        # Jacobi route stayed within 5e-16), so the bound is 3e-14
        error = np.linalg.norm(P - svd_polar(X), axis=(1, 2))
        assert np.all(error <= 3e-14 * np.linalg.norm(X, axis=(1, 2)))

    @pytest.mark.parametrize("rows", JACOBI_ROWS)
    def test_matrix_has_the_same_bits_in_another_stack(self, rows):
        rng = np.random.default_rng(13)
        X = jacobi_stack(rng, self.N, rows, 6, "graded")
        Y = jacobi_stack(rng, 2 * self.N + 6, rows, 6, "graded").reshape(-1, 2, rows, 6)
        X[[0, 5]] = 0.0  # zero matrices and a zero row share the stack
        X[7, 1] = 0.0
        Y[3] = X[4:6]
        Y[-1, 0] = X[7]
        P, Q = polar(X), polar(Y)
        assert np.array_equal(P[4:6], Q[3])
        assert np.array_equal(P[7], Q[-1, 0])
        assert not np.any(P[0])

    @pytest.mark.parametrize("rows", JACOBI_ROWS)
    def test_makes_no_lapack_call(self, rows, lapack_calls):
        X = jacobi_stack(np.random.default_rng(14), self.N, rows, 6, "graded")
        lapack_calls.clear()
        polar(X)
        assert not lapack_calls
        # one matrix fewer, or fewer columns than rows, and the stack takes the SVD
        polar(X[1:])
        polar(X[..., :rows - 1])
        assert lapack_calls.shapes["svd"] == [(self.N - 1, rows, 6), (self.N, rows, rows - 1)]

    def test_more_rows_take_the_svd(self, lapack_calls):
        rows = linalg._JACOBI_MAX_ROWS + 1
        X = jacobi_stack(np.random.default_rng(15), self.N, rows, rows + 1, "graded")
        lapack_calls.clear()
        polar(X)
        assert lapack_calls.shapes["svd"] == [X.shape]

    def test_sweep_cap_raises(self, monkeypatch):
        X = jacobi_stack(np.random.default_rng(16), self.N, 3, 4, "graded")
        monkeypatch.setattr(linalg, "_JACOBI_MAX_SWEEPS", 1)
        with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
            polar(X)


def bases_with_angles(rng, n, angles, extra=0):
    """Bases ``U`` (``k + extra`` columns) and ``W`` (``k``) whose spans meet at ``angles``.

    ``U``'s columns are ``q_1 .. q_k`` plus ``extra`` more directions,
    ``W``'s are ``cos(t_i) q_i + sin(t_i) q_{k+i}``, all ``q`` orthonormal;
    each basis is then mixed by a random orthogonal matrix, so no column is
    a principal vector.
    """
    k = len(angles)
    Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    U = np.hstack([Q[:, :k], Q[:, 2 * k:2 * k + extra]])
    W = np.cos(angles) * Q[:, :k] + np.sin(angles) * Q[:, k:2 * k]
    mix = lambda m: np.linalg.qr(rng.standard_normal((m, m)))[0]
    return U @ mix(k + extra), W @ mix(k)


class TestPrincipalAngles:
    """Canonical angles by the cosine/sine method, each angle from the accurate one."""

    @pytest.mark.parametrize("angles", [
        [0.0, 1.2],                                   # a shared direction, one angle past pi/4
        [0.0, 1e-9, 1e-5, 0.3, 0.78, 0.79, 1.2, np.pi / 2],
        [1e-9, 2e-9, np.pi / 4, 1.0, 1.5],
        [0.0, 0.0, 0.46364760900080615, 0.9],
    ])
    @pytest.mark.parametrize("extra", [0, 2])
    def test_known_angles_to_a_few_ulps(self, angles, extra):
        expected = np.sort(angles)[::-1]
        n = 2 * len(angles) + extra + 3
        for seed in range(40):
            U, W = bases_with_angles(np.random.default_rng(seed), n, np.array(angles), extra)
            for got in (principal_angles(U, W), principal_angles(W, U)):
                assert got.shape == expected.shape
                assert np.max(np.abs(got - expected)) <= 1e-14, (seed, got - expected)

    def test_agrees_with_scipy(self):
        from scipy.linalg import subspace_angles

        rng = np.random.default_rng(13)
        for _ in range(200):
            n = int(rng.integers(2, 13))
            U = rng.standard_normal((n, int(rng.integers(1, n + 1))))
            W = rng.standard_normal((n, int(rng.integers(1, n + 1))))
            if rng.random() < 0.5:
                W[:, 0] = U @ rng.standard_normal(U.shape[1])  # a shared direction
            ours, theirs = principal_angles(U, W), subspace_angles(U, W)
            assert ours.shape == theirs.shape
            assert np.all(np.diff(ours) <= 0.0)
            np.testing.assert_allclose(ours, theirs, rtol=0.0, atol=1e-7)

    @pytest.mark.parametrize("U, W", [
        (np.ones((6, 0)), np.eye(6)[:, :3]),
        (np.eye(6)[:, :3], np.ones((6, 0))),
        (np.zeros((6, 2)), np.eye(6)[:, :3]),
        (np.zeros((0, 2)), np.zeros((0, 3))),
        (np.eye(6)[:, [0, 0, 1]] * [1.0, 2.0, 1.0], np.eye(6)[:, 1:4]),
        (np.eye(6)[:, [0, 1, 2, 0]], np.eye(6)[:, [0, 3]] @ [[1.0, 1.0], [1.0, 1.0]]),
    ], ids=["zero columns", "zero columns second", "zero matrix", "no rows",
            "repeated column", "rank one"])
    def test_degenerate_bases_match_scipy(self, U, W):
        from scipy.linalg import subspace_angles

        ours, theirs = principal_angles(U, W), subspace_angles(U, W)
        assert ours.shape == theirs.shape and ours.dtype == theirs.dtype
        np.testing.assert_allclose(ours, theirs, rtol=0.0, atol=1e-7)

    def test_rejects_what_scipy_rejects(self):
        with pytest.raises(DimensionMismatch):
            principal_angles(np.eye(3), np.eye(4))
        with pytest.raises(InvalidInput):
            principal_angles(np.ones(3), np.ones(3))
        with pytest.raises(InvalidInput):
            principal_angles(np.full((3, 2), np.nan), np.eye(3))


def eigvalsh_verdict(M):
    """The PSD rule on the eigenvalues: ``None`` when it accepts, else the NotPSD message."""
    w = np.linalg.eigvalsh(check_symmetric(M))
    try:
        check_psd_floor(float(w[0]), float(w[-1]))
    except NotPSD as exc:
        return str(exc)
    return None


def factor_verdict(M):
    """:func:`covariance_factor`'s verdict in the same form."""
    try:
        covariance_factor(M)
    except NotPSD as exc:
        return str(exc)
    return None


def with_spectrum(rng, eigenvalues, rotate=True):
    if not rotate:
        return np.diag(eigenvalues)
    Q, _ = np.linalg.qr(rng.standard_normal((len(eigenvalues), len(eigenvalues))))
    return (Q * eigenvalues) @ Q.T


class TestCovarianceFactor:
    """The factor's PSD proof accepts or rejects exactly when the eigenvalue rule does."""

    def test_random_psd_of_every_rank(self, lapack_calls):
        rng = np.random.default_rng(41)
        d = 12
        for rank in range(d + 1):
            G = rng.standard_normal((d, rank))
            M = G @ G.T
            assert eigvalsh_verdict(M) is None
            A, F = covariance_factor(M)
            assert np.array_equal(A, check_symmetric(M))
            assert F.shape == (rank, d)
            np.testing.assert_allclose(F.T @ F, A, atol=1e-12 * max(1.0, np.abs(A).max()))
        assert lapack_calls["eigvalsh"] == d + 1  # the reference's own; the factor needs none

    @pytest.mark.parametrize("dim", [32, 64, 128, 256])
    def test_construction_is_proved_without_eigenvalues(self, dim, lapack_calls):
        cov = build_covariance(TruncationConfig(dim=dim))
        t1, t2 = build_pair_maps(dim)
        mats = [cov, conjugate(t1, cov), conjugate(t2, cov)]
        lapack_calls.clear()
        for M in mats:
            A, F = covariance_factor(M)
            assert F.shape[0] <= dim // 2
        assert lapack_calls["eigvalsh"] == 0
        assert lapack_calls["pstrf"] == len(mats)
        for M in mats:
            assert eigvalsh_verdict(M) is None

    @pytest.mark.parametrize("rotate", [True, False], ids=["rotated", "diagonal"])
    @pytest.mark.parametrize("lam_max", [0.5, 10.0])
    @pytest.mark.parametrize("depth", [0.5, 2.0])
    def test_indefinite_verdicts_and_messages_match_the_rule(self, lam_max, depth, rotate):
        rng = np.random.default_rng(42)
        tau = PSD_TOL * max(1.0, lam_max)
        # trace and Frobenius norm well above lam_max; on the diagonal matrix
        # the residual is exactly depth * tau, so a floor taken from either
        # would accept the -2 tau matrix the rule rejects
        spectrum = [lam_max] * 6 + [0.3 * lam_max, 0.1, 0.0, 0.0, -depth * tau]
        M = with_spectrum(rng, spectrum, rotate)
        expected = eigvalsh_verdict(M)
        assert (expected is None) == (depth < 1.0)
        assert factor_verdict(M) == expected

    def test_rule_decides_where_the_proof_does_not_pass(self, lapack_calls):
        # lam_max = 2 * max diag and lam_min = -1.5 PSD_TOL * max diag: the
        # residual ||A - F^T F|| exceeds PSD_TOL * max diag, the rule's floor
        # PSD_TOL * lam_max does not reach lam_min
        c = np.sqrt(0.5)
        Q = np.array([[c, -c], [c, c]])
        M = np.zeros((4, 4))
        M[:2, :2] = Q @ np.diag([20.0, -1.5e-7]) @ Q.T
        M[2, 2], M[3, 3] = 5.0, 3.0
        assert np.max(np.diag(M)) == pytest.approx(10.0)
        assert eigvalsh_verdict(M) is None
        lapack_calls.clear()
        A, F = covariance_factor(M)
        assert lapack_calls["eigvalsh"] == 1
        assert np.linalg.norm(A - F.T @ F) > PSD_TOL * 10.0


class TestPivotedCholesky:
    """The stacked numpy pivoted Cholesky: LAPACK pstrf's rule, one matrix or a stack at a time."""

    def test_rank_is_pstrf_rank_for_every_rank(self):
        # one stack per dim holding an input of every rank 0..d
        rng = np.random.default_rng(80)
        for d in range(2, 65):
            mats = np.stack([random_psd(rng, d, rank) if rank else np.zeros((d, d))
                             for rank in range(d + 1)])
            F, rank = pivoted_cholesky(mats)
            assert rank.tolist() == [linalg._pstrf(M, lower=0)[2] for M in mats], d
            for M, G, r in zip(mats, F, rank):
                assert not np.any(G[r:])
                assert np.linalg.norm(M - G.T @ G) <= 4 * d * np.finfo(float).eps * max(
                    1.0, np.linalg.norm(M))

    def test_stack_has_the_bits_of_separate_calls(self):
        rng = np.random.default_rng(81)
        for d in (1, 3, 16, 70):
            mats = np.stack([random_psd(rng, d, rank) for rank in (1, max(1, d // 3), d, d)]
                            + [np.zeros((d, d)), -np.eye(d)]).reshape(2, 3, d, d)
            F, rank = pivoted_cholesky(mats)
            assert F.shape == mats.shape and rank.shape == (2, 3)
            for idx in np.ndindex(2, 3):
                one, r = pivoted_cholesky(mats[idx][None])
                assert np.array_equal(F[idx], one[0]) and rank[idx] == r[0]

    def test_factor_is_upper_triangular_in_pivot_order(self):
        # full rank: the j-th pivot column is nonzero in rows 0..j only
        rng = np.random.default_rng(82)
        M = random_psd(rng, 9)
        F, rank = pivoted_cholesky(M[None])
        F = F[0]
        assert rank[0] == 9
        order = np.argsort(np.count_nonzero(F, axis=0))
        U = F[:, order]
        assert np.array_equal(U, np.triu(U)) and np.all(np.diag(U) > 0)
        assert U[0, 0] ** 2 == M.diagonal().max()  # the first pivot is the largest diagonal
        # each pivot is the largest remaining diagonal, and those only shrink
        assert np.all(np.diff(np.diag(U)) <= 0)

    def test_each_matrix_stops_at_its_own_rule(self):
        # n * u * max diag of each matrix: 1e-17 is kept beside 1e-3 but not beside 1
        u = np.finfo(float).eps / 2
        mats = np.stack([np.diag([1.0, 1e-17]), np.diag([1e-3, 1e-17]), np.diag([1.0, 2 * u]),
                         np.diag([1.0, 2 * u * 1.0001])])
        assert pivoted_cholesky(mats)[1].tolist() == [1, 2, 1, 2]

    @pytest.mark.parametrize("M, rank", [
        (np.zeros((3, 3)), 0),
        (-np.eye(2), 0),
        (np.array([[1.0, 2.0], [2.0, 1.0]]), 1),  # indefinite: stops at its negative pivot
    ], ids=["zero", "negative", "indefinite"])
    def test_nonpositive_pivots_stop(self, M, rank):
        F, r = pivoted_cholesky(M[None])
        assert r[0] == rank and np.all(np.isfinite(F))
        assert not np.any(F[0][rank:])

    def test_psd_factor_is_a_stack_of_one(self, lapack_calls):
        rng = np.random.default_rng(83)
        M = random_psd(rng, 12, 7)
        lapack_calls.clear()
        C = psd_factor(M)
        assert lapack_calls["pstrf"] == 0
        assert C.shape == (12, 12)
        assert np.array_equal(C, pivoted_cholesky(np.stack([M, random_psd(rng, 12)]))[0][0])


@settings(max_examples=50, deadline=None)
@given(st.floats(-5.0, 5.0), st.floats(0.01, 5.0), st.floats(0.01, 5.0))
def test_sqrt_psd_two_by_two_parametrized(offdiag_scale, lam1, lam2):
    # rotate a diagonal through a fixed angle; sqrt must square back
    c, s = np.cos(offdiag_scale), np.sin(offdiag_scale)
    Q = np.array([[c, -s], [s, c]])
    M = Q @ np.diag([lam1, lam2]) @ Q.T
    R = sqrt_psd(M)
    assert np.linalg.norm(R @ R - M) <= 1e-9 * max(1.0, np.linalg.norm(M))
