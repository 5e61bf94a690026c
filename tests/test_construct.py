"""Constructors: shift, maps, covariance, conjugation, kernel bookkeeping."""

import numpy as np
import pytest

from bwbary import (
    SHARED_ANGLE_TOL,
    BarycentreProblem,
    InvalidInput,
    TruncationConfig,
    build_covariance,
    build_pair_maps,
    build_shift_map,
    conjugate,
    doubling_shift,
    kernel_dim,
    kernel_report,
    symmetrized_shift,
)
from bwbary.construct import chain_factors, conjugated_kernel, doubling_chains
from bwbary.errors import DimensionMismatch, NotPSD


class TestDoublingShift:
    def test_dim_four(self):
        F = doubling_shift(4)
        expected = np.zeros((4, 4))
        expected[1, 0] = 1.0  # e_1 -> e_2
        expected[3, 1] = 1.0  # e_2 -> e_4
        np.testing.assert_array_equal(F, expected)

    def test_dim_two(self):
        F = doubling_shift(2)
        assert F[1, 0] == 1.0 and np.count_nonzero(F) == 1

    @pytest.mark.parametrize("dim", [2, 5, 16, 127, 256])
    def test_operator_norm_exactly_one(self, dim):
        F = doubling_shift(dim)
        assert np.linalg.norm(F, 2) == pytest.approx(1.0, abs=1e-12)

    def test_gram_is_diagonal_projector(self):
        F = doubling_shift(12)
        G = F.T @ F
        np.testing.assert_array_equal(G, np.diag(np.diag(G)))
        assert set(np.diag(G)) == {0.0, 1.0}

    def test_too_small(self):
        with pytest.raises(InvalidInput):
            doubling_shift(1)


class TestDoublingChains:
    def test_dim_eight(self):
        assert doubling_chains(8) == [[1, 2, 4, 8], [3, 6], [5], [7]]

    @pytest.mark.parametrize("dim", [1, 2, 7, 32, 100, 128])
    def test_partition_of_the_indices(self, dim):
        chains = doubling_chains(dim)
        assert sorted(k for chain in chains for k in chain) == list(range(1, dim + 1))
        assert len(chains) == (dim + 1) // 2
        for chain in chains:
            m = chain[0]
            assert m % 2 == 1 and chain == [m * 2**j for j in range(len(chain))]
            assert len(chain) == int(np.floor(np.log2(dim / m))) + 1
            # F + F^T links consecutive chain members and nothing else
            if dim >= 2:
                S = symmetrized_shift(dim)
                idx = np.array(chain) - 1
                rest = np.setdiff1d(np.arange(dim), idx)
                assert not np.any(S[np.ix_(idx, rest)])
                assert np.all(np.diag(S[np.ix_(idx, idx)], 1) == 1.0)


class TestChainFactors:
    COEFFS = (-0.5, -0.125, 0.0, 0.3, 0.5)

    @pytest.mark.parametrize("dim", [2, 8, 33, 64])
    def test_factors_give_the_conjugations(self, dim):
        config = TruncationConfig(dim=dim, decay=0.7)
        cov = build_covariance(config)
        blocks, factors = chain_factors(config, self.COEFFS)
        for i, a in enumerate(self.COEFFS):
            S = conjugate(np.eye(dim) + a * symmetrized_shift(dim), cov)
            rebuilt = np.zeros((dim, dim))
            for idx, G in zip(blocks, factors):
                rebuilt[idx[:, :, None], idx[:, None, :]] = np.swapaxes(G[i], -1, -2) @ G[i]
            np.testing.assert_allclose(rebuilt, S, rtol=0, atol=4 * np.finfo(float).eps)

    @pytest.mark.parametrize("dim", [2, 7, 32, 100])
    def test_blocks_are_the_chains_grouped_by_length(self, dim):
        blocks, factors = chain_factors(TruncationConfig(dim=dim), self.COEFFS)
        lengths = [idx.shape[1] for idx in blocks]
        assert lengths == sorted(set(lengths))
        chains = [(row + 1).tolist() for idx in blocks for row in idx]
        assert chains == sorted(doubling_chains(dim), key=lambda c: (len(c), c[0]))
        for idx, G in zip(blocks, factors):
            L = idx.shape[1]
            # one row per nonzero eigenvalue of C on the chain: all but the head
            assert G.shape == (len(self.COEFFS), len(idx), L - 1, L)
            assert np.all(np.abs(G).sum(axis=-1) > 0)

    @pytest.mark.parametrize("coeffs", [[0.6], [np.nan], [], [[0.1]], 0.1])
    def test_coefficients_are_checked(self, coeffs):
        with pytest.raises(InvalidInput):
            chain_factors(TruncationConfig(dim=8), coeffs)


class TestShiftMap:
    def test_dim_two_default(self):
        np.testing.assert_array_equal(build_shift_map(2), [[2.0, 1.0], [1.0, 2.0]])

    @pytest.mark.parametrize("dim", [4, 32, 128])
    def test_psd_and_norm_bound(self, dim):
        T = build_shift_map(dim, c=2.0)
        w = np.linalg.eigvalsh(T)
        assert w[0] >= -1e-12
        assert np.linalg.norm(T, 2) <= 4.0 + 1e-12

    def test_shifting_c_shifts_spectrum(self):
        w2 = np.linalg.eigvalsh(build_shift_map(16, c=2.0))
        w3 = np.linalg.eigvalsh(build_shift_map(16, c=3.0))
        np.testing.assert_allclose(w3, w2 + 1.0, atol=1e-12)

    def test_small_c_needs_flag(self):
        with pytest.raises(InvalidInput):
            build_shift_map(8, c=1.0)

    @pytest.mark.parametrize("c", [np.nan, np.inf])
    def test_non_finite_c_is_invalid(self, c):
        # NaN and +inf both pass a bare c < 2 check
        with pytest.raises(InvalidInput, match="finite and >= 2"):
            build_shift_map(8, c=c)

    def test_c_must_be_a_number(self):
        # a string c compared with 2.0 raised TypeError
        with pytest.raises(InvalidInput, match="finite and >= 2"):
            build_shift_map(8, c="3")
        np.testing.assert_array_equal(build_shift_map(8, c=np.float64(3.0)),
                                      build_shift_map(8, c=3.0))


class TestIntegerArguments:
    """A dim or a count that is not an integer is invalid input, not a TypeError."""

    @pytest.mark.parametrize("call, message", [
        (lambda: doubling_shift(8.0), "dim must be an integer >= 2"),
        (lambda: doubling_shift(True), "dim must be an integer >= 2"),
        (lambda: doubling_chains(8.0), "dim must be an integer >= 1"),
        (lambda: build_pair_maps(8.0), "dim must be an integer >= 2"),
        (lambda: build_shift_map(8.0), "dim must be an integer >= 2"),
        # a family's dim is its TruncationConfig's
        (lambda: chain_factors(TruncationConfig(dim=8.0), [0.5, -0.5]),
         "dim must be an integer >= 2"),
    ], ids=["shift-float", "shift-bool", "chains-float", "pair-float", "shift-map-float",
            "family-dim-float"])
    def test_not_an_integer(self, call, message):
        with pytest.raises(InvalidInput, match=message):
            call()

    def test_numpy_integers_count(self):
        assert doubling_chains(np.int64(8)) == doubling_chains(8)
        np.testing.assert_array_equal(build_pair_maps(np.int64(8))[0], build_pair_maps(8)[0])


class TestPairMaps:
    @pytest.mark.parametrize("dim", [2, 16, 64, 256])
    def test_average_identity_bit_exact(self, dim):
        t1, t2 = build_pair_maps(dim)
        assert np.array_equal(t1 + t2, 2.0 * np.eye(dim))

    def test_dim_two_values(self):
        t1, t2 = build_pair_maps(2)
        np.testing.assert_array_equal(t1, [[1.0, 0.5], [0.5, 1.0]])
        np.testing.assert_array_equal(t2, [[1.0, -0.5], [-0.5, 1.0]])

    def test_spectra_coincide(self):
        t1, t2 = build_pair_maps(32)
        np.testing.assert_allclose(
            np.linalg.eigvalsh(t1), np.linalg.eigvalsh(t2), atol=1e-12
        )

    def test_both_psd(self):
        t1, t2 = build_pair_maps(64)
        assert np.linalg.eigvalsh(t1)[0] >= -1e-12
        assert np.linalg.eigvalsh(t2)[0] >= -1e-12


class TestMapFamily:
    """Families of maps ``I + a_i (F + F^T)``, given by their chain factors ``C^{1/2} T_i``."""

    @staticmethod
    def weighted_average(factors, weights):
        return [np.tensordot(weights, G, axes=1) for G in factors]

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_uniform_family_averages_to_identity(self, n):
        config = TruncationConfig(dim=16)
        _, factors = chain_factors(config, np.linspace(-0.5, 0.5, n))
        _, identity = chain_factors(config, [0.0])
        assert all(len(G) == n for G in factors)
        for avg, G0 in zip(self.weighted_average(factors, np.full(n, 1.0 / n)), identity):
            assert np.linalg.norm(avg - G0[0]) <= 1e-15

    def test_weighted_family(self):
        config = TruncationConfig(dim=8)
        weights = np.array([1.0 / 3.0, 2.0 / 3.0])
        _, factors = chain_factors(config, [-0.5, 0.25])
        _, identity = chain_factors(config, [0.0])
        for avg, G0 in zip(self.weighted_average(factors, weights), identity):
            assert np.linalg.norm(avg - G0[0]) <= 1e-15

    def test_pair_is_special_case(self):
        config = TruncationConfig(dim=8)
        root = np.sqrt(build_covariance(config))
        blocks, factors = chain_factors(config, [0.5, -0.5])
        for i, t in enumerate(build_pair_maps(8)):
            for idx, G in zip(blocks, factors):
                # the chain's rows of C^{1/2} T but its zero head row
                rows = (root @ t)[idx[:, 1:, None], idx[:, None, :]]
                np.testing.assert_array_equal(G[i], rows)

    def test_rejects_large_coefficients(self):
        with pytest.raises(InvalidInput):
            chain_factors(TruncationConfig(dim=8), [0.6, -0.6])

    @pytest.mark.parametrize("coeffs", [[np.nan, np.nan], [np.inf, -np.inf]])
    def test_rejects_non_finite_coefficients(self, coeffs):
        # NaN compares false with 1/2
        with pytest.raises(InvalidInput, match=r"\[-1/2, 1/2\]"):
            chain_factors(TruncationConfig(dim=8), coeffs)

    @pytest.mark.parametrize("coeffs, weights, message", [
        ([-0.5, 0.5], [1.0, 1.0], "sum to 1"),  # the maps average to 2I
        ([0.5, -0.5, 0.25], [0.8, 0.6, -0.4], "nonnegative"),
        ([-0.5, 0.5], [0.25, 0.25, 0.5], "match the number"),
    ], ids=["sum_two", "negative", "wrong_length"])
    def test_rejects_bad_weights(self, coeffs, weights, message):
        # each weighted coefficient sum vanishes (or cannot be formed); the
        # weights break BarycentreProblem's rule
        with pytest.raises(InvalidInput, match=message):
            BarycentreProblem.from_block_factors(
                *chain_factors(TruncationConfig(dim=8), coeffs), weights=weights)


class TestBuildCovariance:
    def test_dim_eight_geometric(self):
        config = TruncationConfig(dim=8, decay=0.5)
        assert config.values == (0.5, 0.25, 0.125, 0.0625)
        np.testing.assert_array_equal(
            np.diag(build_covariance(config)), [0.0, 0.5, 0.0, 0.25, 0.0, 0.125, 0.0, 0.0625]
        )

    def test_values_are_derived(self):
        # two init fields; values follows them and takes no part in equality
        assert TruncationConfig(dim=4, decay=(0.5, 0.25)) == TruncationConfig(
            dim=4, decay=[0.5, 0.25])
        with pytest.raises(TypeError):
            TruncationConfig(dim=4, values=(1.0, 1.0))

    def test_odd_dim(self):
        # the odd directions 1, 3, 5 are the kernel; 2 and 4 carry the decay
        np.testing.assert_array_equal(
            np.diag(build_covariance(TruncationConfig(dim=5))), [0.0, 0.5, 0.0, 0.25, 0.0])

    def test_kernel_dim(self):
        cov = build_covariance(TruncationConfig(dim=16))
        assert kernel_dim(cov) == 8

    def test_explicit_list(self):
        cov = build_covariance(TruncationConfig(dim=4, decay=(1.0, 1.0)))
        np.testing.assert_array_equal(np.diag(cov), [0.0, 1.0, 0.0, 1.0])

    def test_bad_configs(self):
        with pytest.raises(InvalidInput):
            TruncationConfig(dim=1)
        with pytest.raises(InvalidInput):
            TruncationConfig(dim=4, decay=1.5)
        with pytest.raises(InvalidInput):
            TruncationConfig(dim=4, decay=(1.0,))  # two kept directions

    @pytest.mark.parametrize("decay", ["0.5", [1, 2, 3, "4"], [True, 1, 1, 1], np.array(0.5)],
                             ids=["string", "string-entry", "bool-entry", "0-d-array"])
    def test_decay_must_be_numbers(self, decay):
        # float() read the first three as 0.5, 4.0 and 1.0; the 0-d array raised TypeError
        with pytest.raises(InvalidInput, match="real number"):
            TruncationConfig(8, decay=decay)

    def test_numpy_decay_is_a_number(self):
        assert TruncationConfig(8, decay=np.float64(0.5)).values == TruncationConfig(8).values
        assert TruncationConfig(4, decay=np.array([1.0, 2.0])).values == (1.0, 2.0)

    @pytest.mark.parametrize("dim", [8.0, True, "8"])
    def test_dim_must_be_an_integer(self, dim):
        with pytest.raises(InvalidInput, match="integer >= 2"):
            TruncationConfig(dim=dim)

    @pytest.mark.parametrize("dim, decay", [
        (4096, 0.5),  # 0.5**2048 underflows to 0
        (8, 1e-200),  # 1e-200**2 does
        (8, (float("nan"), 1.0, 1.0, 1.0)),
        (8, (float("inf"), 1.0, 1.0, 1.0)),
        (8, (1.0, 0.0, 1.0, 1.0)),
    ], ids=["underflow_4096", "underflow_1e-200", "nan", "inf", "zero"])
    def test_kept_eigenvalues_positive_and_finite(self, dim, decay):
        with pytest.raises(InvalidInput, match="positive finite"):
            TruncationConfig(dim=dim, decay=decay)

    def test_last_dim_before_underflow(self):
        # 0.5**1074 is the smallest positive double
        assert TruncationConfig(dim=2149).values[-1] == 5e-324
        with pytest.raises(InvalidInput):
            TruncationConfig(dim=2150)


class TestConjugate:
    def test_identity(self):
        cov = build_covariance(TruncationConfig(dim=8))
        np.testing.assert_array_equal(conjugate(np.eye(8), cov), cov)

    def test_scaling(self):
        cov = build_covariance(TruncationConfig(dim=8))
        np.testing.assert_allclose(conjugate(2.0 * np.eye(8), cov), 4.0 * cov)

    def test_trace_identity(self):
        # tr(T C T) = tr(T^2 C) by cyclicity, computed along both routes
        dim = 64
        cov = build_covariance(TruncationConfig(dim=dim))
        t1, _ = build_pair_maps(dim)
        s1 = conjugate(t1, cov)
        assert np.trace(s1) == pytest.approx(np.trace(t1 @ t1 @ cov), abs=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            conjugate(np.eye(3), np.eye(4))

    @pytest.mark.parametrize("T, cov, message", [
        # T C T of this T, symmetrized, read [[1, 1], [1, 1]], not T C T^T = [[2, 1], [1, 1]]
        ([[1.0, 1.0], [0.0, 1.0]], np.eye(2), "not symmetric"),
        ([[np.nan, 0.0], [0.0, 1.0]], np.eye(2), "non-finite"),
        (np.eye(2), [[1.0, 0.0], [0.0, np.inf]], "non-finite"),
    ], ids=["asymmetric-map", "nan-map", "inf-covariance"])
    def test_operands_are_checked(self, T, cov, message):
        with pytest.raises(InvalidInput, match=message):
            conjugate(T, cov)

    def test_rounding_negatives_kept_and_indefinite_rejected(self):
        # -1e-12 is above the PSD floor (1e-8): checked, passed through unclamped
        kept = conjugate(np.eye(2), np.diag([1.0, -1e-12]))
        np.testing.assert_array_equal(kept, np.diag([1.0, -1e-12]))
        with pytest.raises(NotPSD):
            conjugate(np.eye(2), np.diag([1.0, -1e-6]))


class TestKernelBookkeeping:
    def test_dims_and_angles(self):
        dim = 32
        report = kernel_report(TruncationConfig(dim=dim), build_pair_maps(dim))
        assert set(report) == {"kernel_dim", "kernel_dims", "shared_dims",
                               "min_nonzero_angles"}
        assert report["kernel_dim"] == dim // 2
        assert report["kernel_dims"] == [dim // 2, dim // 2]
        # the truncated tail is shared; every other angle is at least arctan(1/2)
        assert report["shared_dims"] == [dim // 4, dim // 4]
        for angle in report["min_nonzero_angles"]:
            assert angle == pytest.approx(np.arctan(0.5), abs=1e-10)

    @pytest.mark.parametrize("dim", [8, 64, 128, 256])
    def test_exact_at_large_dims(self, dim):
        # the eigenvalue count is wrong from dim 64 up; the kernels from the
        # maps are exact at every dim
        config = TruncationConfig(dim=dim)
        cov = build_covariance(config)
        t1, t2 = build_pair_maps(dim)
        report = kernel_report(config, [t1, t2])
        assert report["kernel_dim"] == dim // 2
        assert report["kernel_dims"] == [dim // 2, dim // 2]
        assert report["shared_dims"] == [dim // 4, dim // 4]
        for angle in report["min_nonzero_angles"]:
            assert abs(angle - np.arctan(0.5)) <= 1e-15
        # orthonormal bases of the kernels of the conjugated covariances
        for T in (t1, t2):
            Q = conjugated_kernel(T)
            np.testing.assert_allclose(Q.T @ Q, np.eye(dim // 2), atol=1e-14)
            S = T @ cov @ T
            assert np.linalg.norm(S @ Q, 2) <= 1e-15 * np.linalg.norm(S, 2)

    def test_map_family_and_shift_map(self):
        dim = 32
        config = TruncationConfig(dim=dim)
        maps = [np.eye(dim) + a * symmetrized_shift(dim) for a in np.linspace(-0.5, 0.5, 5)]
        maps.append(build_shift_map(dim, c=2.0))
        report = kernel_report(config, maps)
        assert report["kernel_dims"] == [dim // 2] * len(maps)

    def test_indefinite_map_is_invalid_input(self):
        T = symmetrized_shift(16) + np.eye(16)
        assert np.linalg.eigvalsh(T)[0] < 0
        with pytest.raises(InvalidInput, match="not positive definite"):
            kernel_report(TruncationConfig(dim=16), [T])

    def test_map_of_wrong_dim(self):
        with pytest.raises(DimensionMismatch):
            kernel_report(TruncationConfig(dim=16), [np.eye(8)])

    def test_truncated_tail_directions_are_shared(self):
        # odd indices j with 2j > dim are fixed points of the truncated maps,
        # so the conjugated kernels share them with the base kernel and the
        # smallest canonical angle is zero; the moved part starts at
        # arctan(1/2) ~ 0.4636 rad
        from bwbary import kernel_basis, principal_angles

        dim = 32
        cov = build_covariance(TruncationConfig(dim=dim))
        t1, _ = build_pair_maps(dim)
        s1 = conjugate(t1, cov)
        angles = np.sort(principal_angles(kernel_basis(s1), kernel_basis(cov)))
        assert np.sum(angles <= SHARED_ANGLE_TOL) == dim // 4
        nonzero = angles[angles > SHARED_ANGLE_TOL]
        assert nonzero[0] == pytest.approx(np.arctan(0.5), abs=1e-10)

    def test_kernel_invariant_under_positive_scaling(self):
        dim = 32
        cov = build_covariance(TruncationConfig(dim=dim))
        t1, _ = build_pair_maps(dim)
        s1 = conjugate(t1, cov)
        assert kernel_dim(4.0 * s1) == kernel_dim(s1)
