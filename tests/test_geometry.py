"""Distance and transport map against independent 1-D and structural oracles."""

import gc

import numpy as np
import pytest

from bwbary import (
    DimensionMismatch,
    KernelNotIncluded,
    NotPSD,
    TruncationConfig,
    build_covariance,
    build_pair_maps,
    bw_distance,
    bw_distance_sq,
    conjugate,
    optimal_map,
)
from bwbary import geometry
from bwbary.linalg import SYM_TOL
from helpers import quantile_coupling_w2sq, random_psd, range_projector


class TestDistance:
    def test_zero_on_identical(self):
        cov = build_covariance(TruncationConfig(dim=8))
        assert bw_distance_sq(cov, cov) <= 1e-12

    def test_one_dimensional_vs_quantile_oracle(self):
        # oracle: quadrature over the quantile coupling gives (s1 - s2)^2
        oracle = quantile_coupling_w2sq(2.0, 1.0)
        assert oracle == pytest.approx(1.0, abs=1e-9)
        assert bw_distance_sq(np.array([[4.0]]), np.array([[1.0]])) == pytest.approx(
            oracle, abs=1e-10
        )

    def test_orthogonal_supports(self):
        # no mass can be shared, the cross term vanishes: d^2 = trA + trB
        A = np.diag([1.0, 0.0])
        B = np.diag([0.0, 1.0])
        assert bw_distance_sq(A, B) == pytest.approx(2.0, abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(10)
        for _ in range(25):
            n = int(rng.integers(1, 7))
            A = random_psd(rng, n)
            B = random_psd(rng, n, rank=max(1, n - 1))
            tol = 1e-9 * max(1.0, np.trace(A) + np.trace(B))
            assert abs(bw_distance_sq(A, B) - bw_distance_sq(B, A)) <= tol

    def test_commuting_reduction(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            n = int(rng.integers(2, 8))
            a = rng.uniform(0.0, 4.0, n)
            b = rng.uniform(0.0, 4.0, n)
            expected = float(np.sum((np.sqrt(a) - np.sqrt(b)) ** 2))
            assert bw_distance_sq(np.diag(a), np.diag(b)) == pytest.approx(
                expected, abs=1e-10
            )

    def test_triangle_inequality(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            n = int(rng.integers(2, 6))
            A, B, C = (random_psd(rng, n) for _ in range(3))
            assert bw_distance(A, C) <= bw_distance(A, B) + bw_distance(B, C) + 1e-7

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            bw_distance_sq(np.eye(2), np.eye(3))


class TestOptimalMap:
    def test_identity_case_pd(self):
        A = np.array([[2.0, 0.5], [0.5, 1.0]])
        np.testing.assert_allclose(optimal_map(A, A), np.eye(2), atol=1e-10)

    def test_identity_case_singular_gives_projector(self):
        A = np.diag([1.0, 0.0])
        np.testing.assert_allclose(optimal_map(A, A), range_projector(A), atol=1e-10)

    def test_one_dimensional_is_sigma_ratio(self):
        # quantile coupling maps x -> (s2/s1) x, so the matrix is s2/s1
        M = optimal_map(np.array([[1.0]]), np.array([[4.0]]))
        assert M[0, 0] == pytest.approx(2.0, abs=1e-12)

    def test_pushforward_on_conjugated_target(self):
        # positive-definite source: target built by conjugation must be reached
        dim = 16
        t1, _ = build_pair_maps(dim)
        rng = np.random.default_rng(13)
        base = random_psd(rng, dim) + 0.1 * np.eye(dim)
        target = conjugate(t1, base)
        M = optimal_map(base, target)
        err = np.linalg.norm(M @ base @ M - target) / max(1.0, np.linalg.norm(target))
        assert err <= 1e-7
        # a PSD pushforward of a PD source is unique, so the map recovers the
        # PSD conjugator even though the two do not commute
        np.testing.assert_allclose(M, t1, atol=1e-10)

    def test_pushforward_random(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            A = random_psd(rng, n)
            B = random_psd(rng, n)
            M = optimal_map(A, B)
            err = np.linalg.norm(M @ A @ M - B) / max(1.0, np.linalg.norm(B))
            assert err <= 1e-7

    def test_pushforward_singular_with_kernel_inclusion(self):
        rng = np.random.default_rng(15)
        for _ in range(10):
            A = random_psd(rng, 6, rank=3)
            R = range_projector(A)
            B = R @ random_psd(rng, 6) @ R  # range(B) inside range(A)
            M = optimal_map(A, B)
            err = np.linalg.norm(M @ A @ M - B) / max(1.0, np.linalg.norm(B))
            assert err <= 1e-7

    def test_distance_map_consistency(self):
        # the coupling realized by the map attains the distance:
        # d^2(A, B) = tr((I - M) A (I - M)) for the optimal M
        rng = np.random.default_rng(16)
        for _ in range(10):
            n = int(rng.integers(2, 6))
            A = random_psd(rng, n) + 0.05 * np.eye(n)
            B = random_psd(rng, n) + 0.05 * np.eye(n)
            M = optimal_map(A, B)
            diff = np.eye(n) - M
            coupled = float(np.trace(diff @ A @ diff))
            assert bw_distance_sq(A, B) == pytest.approx(coupled, abs=1e-9)

    def test_kernel_not_included_raises(self):
        with pytest.raises(KernelNotIncluded):
            optimal_map(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))

    def test_kernel_tilt_of_conjugation_detected(self):
        # conjugating tilts the kernel away, so no map exists from the
        # singular base to its conjugation at truncation
        dim = 16
        cov = build_covariance(TruncationConfig(dim=dim))
        t1, _ = build_pair_maps(dim)
        with pytest.raises(KernelNotIncluded):
            optimal_map(cov, conjugate(t1, cov))


class TestFactorMemo:
    """Distance and map factor each live, unchanged, exactly symmetric array once."""

    def test_each_array_is_factored_once(self, lapack_calls):
        rng = np.random.default_rng(50)
        mats = [random_psd(rng, 8) for _ in range(3)] + [random_psd(rng, 8, rank=4)]
        lapack_calls.clear()
        for i in range(len(mats)):
            for j in range(i + 1, len(mats)):
                bw_distance_sq(mats[i], mats[j])
        for i in range(3):  # full-rank sources onto targets already factored
            optimal_map(mats[i], mats[(i + 1) % len(mats)])
        assert lapack_calls["pstrf"] == len(mats)

    def test_each_source_is_decomposed_once(self, lapack_calls):
        rng = np.random.default_rng(55)
        A, B, C = random_psd(rng, 8), random_psd(rng, 8), random_psd(rng, 8, rank=4)
        lapack_calls.clear()
        maps = [optimal_map(A, B), optimal_map(A, C)]
        assert lapack_calls["eigh"] == 1
        assert id(A) in geometry._sources
        A *= 2.0  # changed in place: decomposed again, with the fresh copy's bits
        again = optimal_map(A, B)
        assert lapack_calls["eigh"] == 2
        assert np.array_equal(again, optimal_map(A.copy(), B))
        assert not np.array_equal(again, maps[0])
        A[0, 0] = -1.0
        with pytest.raises(NotPSD):
            optimal_map(A, B)

    def test_memoized_results_equal_fresh_ones(self):
        rng = np.random.default_rng(51)
        mats = [random_psd(rng, 10), random_psd(rng, 10, rank=5), random_psd(rng, 10)]
        for _ in range(2):  # the second round runs on stored factors
            memo = [bw_distance_sq(mats[0], mats[1]), bw_distance_sq(mats[1], mats[2]),
                    optimal_map(mats[0], mats[1]), optimal_map(mats[2], mats[0])]
        fresh = [bw_distance_sq(mats[0].copy(), mats[1].copy()),
                 bw_distance_sq(mats[1].copy(), mats[2].copy()),
                 optimal_map(mats[0].copy(), mats[1].copy()),
                 optimal_map(mats[2].copy(), mats[0].copy())]
        assert memo[:2] == fresh[:2]
        assert np.array_equal(memo[2], fresh[2]) and np.array_equal(memo[3], fresh[3])

    def test_change_in_place_is_noticed(self):
        rng = np.random.default_rng(52)
        A, B = random_psd(rng, 6), random_psd(rng, 6, rank=3)
        bw_distance_sq(A, B)
        A *= 3.0
        assert bw_distance_sq(A, B) == bw_distance_sq(A.copy(), B.copy())
        B[0, 0] = -1.0
        with pytest.raises(NotPSD):
            bw_distance_sq(A, B)
        with pytest.raises(NotPSD):
            optimal_map(A, B)

    def test_entry_goes_with_its_array(self):
        rng = np.random.default_rng(53)
        A, B = random_psd(rng, 5), random_psd(rng, 5)
        bw_distance_sq(A, B)
        key = id(A)
        optimal_map(A, B)
        assert key in geometry._factors and id(B) in geometry._factors
        assert key in geometry._sources
        del A
        gc.collect()
        assert key not in geometry._factors and key not in geometry._sources
        assert id(B) in geometry._factors

    def test_asymmetric_input_is_never_stored(self, lapack_calls):
        rng = np.random.default_rng(54)
        A, B = random_psd(rng, 6), random_psd(rng, 6)
        skew = A.copy()
        skew[0, 1] += 0.5 * SYM_TOL * np.max(np.abs(A))
        symmetrized = (skew + skew.T) / 2.0
        lapack_calls.clear()
        for _ in range(2):
            assert bw_distance_sq(skew, B) == bw_distance_sq(symmetrized.copy(), B)
        assert id(skew) not in geometry._factors
        # skew factored on both calls, B once, each fresh copy once
        assert lapack_calls["pstrf"] == 5

    def test_nested_list_input(self):
        A, B = [[4.0, 1.0], [1.0, 3.0]], [[2.0, 0.0], [0.0, 1.0]]
        assert bw_distance_sq(A, B) == bw_distance_sq(np.array(A), np.array(B))
        np.testing.assert_array_equal(optimal_map(A, B), optimal_map(np.array(A), np.array(B)))
