"""Fréchet functional, fixed-point solver, and the barycentre certificate."""

import dataclasses

import numpy as np
import pytest

from bwbary import (
    DimensionMismatch,
    InvalidInput,
    NotPSD,
    SolverSettings,
    TruncationConfig,
    barycentre_fixed_point,
    build_covariance,
    build_map_family,
    build_pair_maps,
    bw_distance_sq,
    conjugate,
    frechet_functional,
    problem,
    symmetrized_shift,
    verify_barycentre_certificate,
)
from bwbary import barycentre, construct, linalg
from helpers import constructed_triple, random_psd, two_input_oracle


def project_psd(M):
    w, V = np.linalg.eigh((M + M.T) / 2)
    return (V * np.clip(w, 0.0, None)) @ V.T


class TestTwoInputOracle:
    """Two inputs that do not commute, against their closed-form barycentre.

    ``A`` is a full-rank Wishart matrix ``G G^T / 2d`` (condition number
    about 20 to 40, well inside ``RANK_TOL``), ``B`` has rank 8 to
    ``min(d, 64)``.
    """

    @pytest.fixture(params=[(d, t) for d in (16, 32, 64, 128) for t in (0.2, 0.5)],
                    ids=lambda p: f"d{p[0]}_t{p[1]}")
    def case(self, request):
        d, t = request.param
        rng = np.random.default_rng([d, round(10 * t)])
        A = random_psd(rng, d, 2 * d) / (2 * d)
        B = random_psd(rng, d, int(rng.integers(8, min(d, 64) + 1))) / d
        return A, B, t

    def test_oracle_is_exact(self, case):
        A, B, t = case
        C, to_a, to_b = two_input_oracle(A, B, t)
        assert verify_barycentre_certificate(C, problem([A, B], [1.0 - t, t])) <= 1e-13
        assert np.linalg.norm((1.0 - t) * to_a + t * to_b - np.eye(len(A))) <= 1e-13

    @pytest.mark.parametrize("ridge", [0.0, 1e-6])
    def test_solver_converges_to_the_oracle(self, case, ridge):
        A, B, t = case
        C = two_input_oracle(A, B, t)[0]
        result = barycentre_fixed_point(problem([A, B], [1.0 - t, t], SolverSettings(ridge=ridge)))
        assert result.converged
        assert np.linalg.norm(result.barycentre - C) <= 1e-9 * np.linalg.norm(C)


class TestFrechetFunctional:
    def test_single_input_at_itself(self):
        rng = np.random.default_rng(20)
        S = random_psd(rng, 4)
        assert frechet_functional(S, problem([S])) <= 1e-10

    def test_two_scalar_inputs(self):
        # 1-D closed form: 1/2 (2-1)^2 + 1/2 (2-3)^2 = 1
        prob = problem([np.array([[1.0]]), np.array([[9.0]])])
        assert frechet_functional(np.array([[4.0]]), prob) == pytest.approx(1.0, abs=1e-12)

    def test_local_minimality_on_orthogonal_lines(self):
        # the barycentre of two orthogonal rank-one lines with equal weights
        prob = problem([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
        candidate = np.diag([0.25, 0.25])
        base = frechet_functional(candidate, prob)
        rng = np.random.default_rng(21)
        for _ in range(100):
            P = rng.standard_normal((2, 2)) * 0.1
            perturbed = project_psd(candidate + (P + P.T) / 2)
            assert frechet_functional(perturbed, prob) >= base - 1e-12


class TestCertificate:
    def test_single_input_is_its_own_barycentre(self):
        rng = np.random.default_rng(22)
        S = random_psd(rng, 5)
        assert verify_barycentre_certificate(S, problem([S])) <= 1e-13

    @pytest.mark.parametrize("dim", [8, 16, 32, 64, 128, 256])
    def test_constructed_family_certifies_exactly(self, dim):
        cov, s1, s2 = constructed_triple(dim)
        assert verify_barycentre_certificate(cov, problem([s1, s2])) <= 1e-9

    @pytest.mark.parametrize("decay", [0.9, (3.0, 0.7, 0.02, 1e-6, 5.0, 0.4, 0.11, 2.0)])
    def test_certificate_exact_for_other_decay_laws(self, decay):
        cov = build_covariance(TruncationConfig(dim=16, decay=decay))
        t1, t2 = build_pair_maps(16)
        prob = problem([conjugate(t1, cov), conjugate(t2, cov)])
        assert verify_barycentre_certificate(cov, prob) <= 1e-9

    def test_certificate_exact_for_weighted_families(self):
        from bwbary import build_map_family

        cov = build_covariance(TruncationConfig(dim=16))
        weights = [0.2, 0.3, 0.5]
        coeffs = [0.5, 0.1, -0.26]  # weighted mean zero
        maps = build_map_family(16, coeffs=coeffs, weights=weights)
        prob = problem([conjugate(T, cov) for T in maps], weights)
        assert verify_barycentre_certificate(cov, prob) <= 1e-9

    def test_certificate_is_discriminative(self):
        cov, s1, s2 = constructed_triple(64)
        rng = np.random.default_rng(23)
        P = rng.standard_normal((64, 64))
        P = (P + P.T) / 2
        P *= 1e-2 / np.linalg.norm(P)
        perturbed = project_psd(cov + P)
        assert verify_barycentre_certificate(perturbed, problem([s1, s2])) > 1e-4

    def test_zero_residual_is_necessary_not_sufficient(self):
        # C = 0 meets the fixed-point identity for every family (both sides
        # vanish), yet its Fréchet value is sum_i w_i tr S_i, three times C's
        cov, s1, s2 = constructed_triple(32)
        prob = problem([s1, s2])
        zero = np.zeros((32, 32))
        assert verify_barycentre_certificate(zero, prob) == 0.0
        assert frechet_functional(zero, prob) == pytest.approx(1.499, abs=1e-3)
        assert frechet_functional(cov, prob) == pytest.approx(0.499, abs=1e-3)


class TestSolver:
    def test_identical_inputs(self):
        rng = np.random.default_rng(24)
        S = random_psd(rng, 4)
        res = barycentre_fixed_point(problem([S, S], [0.3, 0.7]))
        assert np.linalg.norm(res.barycentre - S) <= 1e-8
        assert res.converged

    def test_commuting_scalars(self):
        # 1-D brute force: minimize 1/2 (s-1)^2 + 1/2 (s-3)^2 over s = sqrt(var)
        grid = np.linspace(0.0, 4.0, 200001)
        values = 0.5 * (grid - 1.0) ** 2 + 0.5 * (grid - 3.0) ** 2
        s_star = grid[np.argmin(values)]
        assert s_star**2 == pytest.approx(4.0, abs=1e-6)

        res = barycentre_fixed_point(problem([np.array([[1.0]]), np.array([[9.0]])]))
        assert res.barycentre[0, 0] == pytest.approx(4.0, abs=1e-10)

    def test_commuting_diagonal_closed_form(self):
        rng = np.random.default_rng(25)
        diags = rng.uniform(0.1, 9.0, size=(3, 5))
        w = np.array([0.2, 0.5, 0.3])
        expected = np.diag((w[:, None] * np.sqrt(diags)).sum(axis=0) ** 2)
        res = barycentre_fixed_point(problem([np.diag(d) for d in diags], w.tolist()))
        assert np.linalg.norm(res.barycentre - expected) <= 1e-8

    def test_singular_family_recovers_base(self):
        cov, s1, s2 = constructed_triple(32)
        settings = SolverSettings(ridge=1e-6, ridge_decay=0.5)
        res = barycentre_fixed_point(problem([s1, s2], settings=settings))
        assert res.converged
        assert np.linalg.norm(res.barycentre - cov) <= 1e-6
        assert res.certificate_residual <= 1e-8
        assert res.monotone

    def test_converged_implies_small_change(self):
        rng = np.random.default_rng(26)
        prob = problem([random_psd(rng, 3) for _ in range(3)])
        res = barycentre_fixed_point(prob)
        assert res.converged
        assert res.final_change <= prob.settings.tol
        assert res.iterations == len(res.history)

    def test_certificate_consistency_on_pd_instances(self):
        rng = np.random.default_rng(27)
        for _ in range(5):
            mats = [random_psd(rng, 3) + 0.2 * np.eye(3) for _ in range(3)]
            prob = problem(mats)
            res = barycentre_fixed_point(prob)
            assert res.converged
            assert res.certificate_residual <= 10 * prob.settings.tol


class TestSharedPass:
    """The solver's closing pass gives the certificate and the Fréchet value."""

    @pytest.fixture(scope="class")
    def pair_run(self):
        _, s1, s2 = constructed_triple(32)
        prob = problem([s1, s2], settings=SolverSettings(ridge=1e-6, ridge_decay=0.5))
        return [s1, s2], prob, barycentre_fixed_point(prob)

    def test_result_equals_public_evaluations(self, pair_run):
        _, prob, res = pair_run
        assert res.certificate_residual == verify_barycentre_certificate(res.barycentre, prob)
        assert res.frechet_value == frechet_functional(res.barycentre, prob)

    def test_frechet_value_agrees_with_distances(self, pair_run):
        inputs, prob, res = pair_run
        expected = sum(w * bw_distance_sq(res.barycentre, S)
                       for w, S in zip(prob.weights, inputs))
        assert res.frechet_value == pytest.approx(expected, rel=1e-10)

    @pytest.mark.parametrize("case", ["pair", "random", "blocks"])
    def test_one_decomposition_and_one_pass_per_step(self, case, lapack_calls):
        if case == "pair":
            _, s1, s2 = constructed_triple(32)
            inputs, settings = [s1, s2], SolverSettings(ridge=1e-6, ridge_decay=0.5)
        elif case == "random":
            rng = np.random.default_rng(29)
            inputs, settings = [random_psd(rng, 4) for _ in range(3)], None
        else:
            # more inputs than one block, and a ragged last block
            rng = np.random.default_rng(30)
            dim = 64
            block = barycentre._block_size(dim)
            inputs, settings = [random_psd(rng, dim) for _ in range(block + 5)], None
        lapack_calls.clear()
        prob = problem(inputs, settings=settings)
        res = barycentre_fixed_point(prob)
        n = len(inputs)
        passes = res.iterations + 1  # one per step, and the closing pass
        # the stacked block factors are the inputs' PSD check, with no LAPACK
        # pivoted Cholesky and no eigenvalues
        assert lapack_calls["pstrf"] == 0
        assert lapack_calls["eigvalsh"] == 0
        if case == "pair":
            # the dim-32 chains have 5 distinct lengths (6, 4, 3, 2, 1): per
            # pass one stacked eigh of each size, over all chains of that size,
            # and one stacked polar of each size over both inputs; a chain of
            # length L keeps L - 1 rows, so only lengths 4 and 6 reach the SVD
            # (polar takes at most two rows in closed form)
            assert [idx.shape[1] for idx in prob.blocks] == [1, 2, 3, 4, 6]
            assert lapack_calls["eigh"] == 5 * passes
            assert lapack_calls["svd"] == 2 * passes
            assert lapack_calls.shapes["svd"] == [(2, 1, 3, 4), (2, 1, 5, 6)] * passes
            assert lapack_calls.shapes["eigh"][:5] == [(8, 1, 1), (4, 2, 2), (2, 3, 3),
                                                       (1, 4, 4), (1, 6, 6)]
            return
        blocks = -(-n // barycentre._block_size(prob.dim))
        if case == "blocks":
            assert blocks == 2
        assert len(prob.blocks) == 1  # dense: one block of size d
        assert lapack_calls["eigh"] == passes
        assert lapack_calls["svd"] == blocks * passes


def dense_mean_inner_root(root, prob):
    """The pass on a problem whose inputs form one dense block, from its ``(d, d)`` root."""
    assert [idx.shape for idx in prob.blocks] == [(1, prob.dim)]
    return barycentre._mean_inner_root([root[None]], prob.block_factors, prob.weights)[0][0]


class TestBlockedPass:
    """The stacked, blocked inner-root pass has the bits of the per-input sum."""

    def test_blocked_mean_equals_per_input_sum(self):
        rng = np.random.default_rng(31)
        dim = 32
        n = 2 * barycentre._block_size(dim) + 3
        cov = build_covariance(TruncationConfig(dim=dim))
        shift = symmetrized_shift(dim)
        inputs = []
        for i in range(n):
            kind = i % 3
            if kind == 0:
                inputs.append(random_psd(rng, dim))
            elif kind == 1:
                inputs.append(random_psd(rng, dim, rank=dim // 4))
            else:
                inputs.append(conjugate(np.eye(dim) + rng.uniform(-0.5, 0.5) * shift, cov))
        w = rng.uniform(0.5, 1.5, n)
        prob = problem(inputs, (w / w.sum()).tolist())
        root = linalg.sqrt_psd(sum(inputs) / n)
        expected = sum(wi * linalg.congruence_sqrt(root, S)
                       for wi, S in zip(prob.weights, inputs))
        assert np.array_equal(dense_mean_inner_root(root, prob), expected)

    def test_jacobi_polars_are_summed_in_input_order(self, lapack_calls):
        # at dim 8 the chain 1, 2, 4, 8 keeps 3 rows, and enough inputs take
        # polar's Jacobi route
        n = linalg._JACOBI_MIN_STACK + 3
        rng = np.random.default_rng(34)
        w = rng.uniform(0.5, 1.5, n)
        prob = problem(conjugated_family(8, n, seed=35), (w / w.sum()).tolist())
        G = prob.block_factors[-1]
        assert G.shape == (n, 1, 3, 4)
        roots = barycentre._gather(linalg.sqrt_psd(prob.mean), prob.blocks)
        lapack_calls.clear()
        mean = barycentre._mean_inner_root(roots, prob.block_factors, prob.weights)[-1]
        assert lapack_calls["svd"] == 0
        expected = sum(wi * P for wi, P in zip(prob.weights, linalg.polar(G @ roots[-1])))
        assert np.array_equal(mean, expected)

    def test_scalar_inputs_are_summed_in_input_order(self):
        # (n, 1, 1, 1) stacks: a plain reduction over the inputs would be pairwise
        rng = np.random.default_rng(33)
        n = 300
        w = rng.uniform(0.5, 1.5, n)
        inputs = [np.array([[x]]) for x in rng.uniform(0.1, 9.0, n)]
        prob = problem(inputs, (w / w.sum()).tolist())
        root = np.array([[1.7]])
        expected = sum(wi * linalg.congruence_sqrt(root, S)
                       for wi, S in zip(prob.weights, inputs))
        assert np.array_equal(dense_mean_inner_root(root, prob), expected)

    def test_stack_of_one_has_the_bits_of_one_matrix(self):
        rng = np.random.default_rng(32)
        S = random_psd(rng, 16, rank=5)
        root = linalg.sqrt_psd(random_psd(rng, 16))
        X = linalg.psd_factor(S) @ root
        single = linalg.congruence_sqrt(root, S)
        assert single.shape == (16, 16)
        assert np.array_equal(linalg.polar(X), single)
        assert np.array_equal(linalg.polar(X[None])[0], single)


def conjugated_family(dim, n, seed):
    """``n`` inputs ``T_a C T_a``, ``T_a = I + a (F + F^T)``: rank ``dim/2`` each."""
    rng = np.random.default_rng(seed)
    cov = build_covariance(TruncationConfig(dim=dim))
    shift = symmetrized_shift(dim)
    return [conjugate(np.eye(dim) + a * shift, cov) for a in rng.uniform(-0.5, 0.5, n)]


class TestTrimmedStack:
    """The block factors are cut to the blocks' largest rank, and the stacked pass to match."""

    def test_factors_are_cut_to_the_largest_rank(self):
        # a doubling chain of length L keeps L - 1 rows (its first index is
        # odd, where C vanishes); the length-1 chains keep none
        prob = problem(conjugated_family(32, 5, seed=33))
        assert [G.shape for G in prob.block_factors] == [
            (5, 8, 0, 1), (5, 4, 1, 2), (5, 2, 2, 3), (5, 1, 3, 4), (5, 1, 5, 6)]
        _, s1, s2 = constructed_triple(64)
        assert [G.shape[2] for G in problem([s1, s2]).block_factors] == [0, 1, 2, 3, 4, 6]
        rng = np.random.default_rng(34)
        low = random_psd(rng, 32, rank=4)
        prob = problem(conjugated_family(32, 2, seed=35) + [low])
        [G] = prob.block_factors  # a dense input makes one block
        assert G.shape == (3, 1, 16, 32)
        assert not np.any(G[2, 0, 4:])  # the lower rank keeps its zero rows
        np.testing.assert_allclose(G[2, 0].T @ G[2, 0], low, atol=1e-12 * np.abs(low).max())
        full = problem(conjugated_family(32, 2, seed=36) + [random_psd(rng, 32)])
        assert full.block_factors[0].shape == (3, 1, 32, 32)

    def test_trimmed_mean_has_the_bits_of_the_per_input_sum(self):
        rng = np.random.default_rng(37)
        dim = 32
        n = 2 * barycentre._block_size(dim) + 3
        inputs = conjugated_family(dim, n, seed=38)
        inputs[1::4] = [random_psd(rng, dim, rank=dim // 4) for _ in inputs[1::4]]
        w = rng.uniform(0.5, 1.5, n)
        prob = problem(inputs, (w / w.sum()).tolist())
        [G] = prob.block_factors
        assert G.shape == (n, 1, dim // 2, dim)
        root = linalg.sqrt_psd(sum(inputs) / n)
        mean = dense_mean_inner_root(root, prob)
        expected = sum(wi * linalg.polar(F @ root) for wi, F in zip(prob.weights, G[:, 0]))
        assert np.array_equal(mean, expected)
        square = sum(wi * linalg.congruence_sqrt(root, S)
                     for wi, S in zip(prob.weights, inputs))
        assert np.linalg.norm(mean - square) <= 1e-13 * np.linalg.norm(square)

    def test_stacked_svds_take_the_trimmed_operands(self, lapack_calls):
        dim = 32
        block = barycentre._block_size(dim)
        prob = problem(conjugated_family(dim, block + 6, seed=39))
        cov = build_covariance(TruncationConfig(dim=dim))
        lapack_calls.clear()
        verify_barycentre_certificate(cov, prob)
        # one stacked polar per chain length, over every chain of that length
        # in every input; a chain of length L has rank L - 1 (its first index
        # is odd, so C vanishes there), and the length-1 chains are all zero.
        # Lengths 1, 2 and 3 keep at most two rows and take polar's closed
        # form, so only lengths 4 and 6 reach the SVD
        assert lapack_calls.shapes["svd"] == [(block + 6, 1, 3, 4), (block + 6, 1, 5, 6)]
        # a dense input joins every chain into one block, and the dense pass
        # keeps its blocks of _block_size(d) inputs
        rng = np.random.default_rng(40)
        prob = problem(conjugated_family(dim, block + 5, seed=39) + [random_psd(rng, dim)])
        lapack_calls.clear()
        verify_barycentre_certificate(cov, prob)
        assert lapack_calls.shapes["svd"] == [(block, 1, 32, 32), (6, 1, 32, 32)]


class TestProblemValidation:
    def test_empty_inputs(self):
        with pytest.raises(InvalidInput):
            problem([])

    def test_weights_must_sum_to_one(self):
        with pytest.raises(InvalidInput):
            problem([np.eye(2), np.eye(2)], [0.5, 0.6])

    def test_weights_must_be_nonnegative(self):
        with pytest.raises(InvalidInput):
            problem([np.eye(2), np.eye(2)], [1.5, -0.5])

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidInput):
            problem([np.eye(2), np.eye(3)])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_weights_must_be_finite(self, bad):
        # NaN fails every comparison, so only a finiteness check catches it
        with pytest.raises(InvalidInput, match="finite"):
            problem([np.eye(2), np.eye(2)], [0.5, bad])
        with pytest.raises(InvalidInput, match="finite"):
            build_map_family(8, coeffs=[0.5, -0.5], weights=[bad, 0.5])

    def test_settings_validation(self):
        with pytest.raises(InvalidInput):
            SolverSettings(tol=0.0)
        with pytest.raises(InvalidInput):
            SolverSettings(max_iter=0)
        # a float or a bool cap passed here and then broke range() in the solver
        for bad in (2.5, float("nan"), True):
            with pytest.raises(InvalidInput, match="max_iter must be an integer"):
                SolverSettings(max_iter=bad)
        assert SolverSettings(max_iter=np.int64(3)).max_iter == 3
        with pytest.raises(InvalidInput):
            SolverSettings(ridge=-1e-3)
        with pytest.raises(InvalidInput):
            SolverSettings(ridge_decay=0.0)

    @pytest.mark.parametrize("field, bad", [("tol", True), ("tol", "1e-3"), ("ridge", True),
                                            ("ridge_decay", "0.5")],
                             ids=["tol-bool", "tol-string", "ridge-bool", "decay-string"])
    def test_settings_are_numbers(self, field, bad):
        # tol=True read as 1.0 and tol="1e-3" raised TypeError
        with pytest.raises(InvalidInput, match="must be real numbers"):
            SolverSettings(**{field: bad})
        assert SolverSettings(**{field: np.float64(0.25)}) == SolverSettings(**{field: 0.25})

    @pytest.mark.parametrize("name", ["tol", "ridge"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_settings_must_be_finite(self, name, bad):
        # an infinite tol stops every run after one step; a NaN ridge would act as none
        with pytest.raises(InvalidInput, match=f"{name} must be .*finite"):
            SolverSettings(**{name: bad})

    def test_frechet_agrees_with_distances(self):
        rng = np.random.default_rng(28)
        mats = [random_psd(rng, 4) for _ in range(3)]
        weights = [0.2, 0.3, 0.5]
        cand = random_psd(rng, 4)
        expected = sum(w * bw_distance_sq(cand, S) for w, S in zip(weights, mats))
        assert frechet_functional(cand, problem(mats, weights)) == pytest.approx(
            expected, rel=1e-10
        )


def bad_input(kind, rng, dim):
    """A bad input of the given kind, and what checking it on its own raises: ``(M, type, message)``."""
    S = random_psd(rng, dim)
    if kind == "non-square":
        return S[:, 1:], InvalidInput, f"expected a square matrix, got shape {(dim, dim - 1)}"
    if kind == "empty":
        return np.zeros((0, 0)), InvalidInput, "matrix must have dimension >= 1"
    if kind in ("nan", "inf"):
        S[3, 5] = np.nan if kind == "nan" else np.inf
        return S, InvalidInput, "matrix has non-finite entries"
    if kind == "asymmetric":
        S[3, 5] += 1e-9 * np.abs(S).max()
        return S, InvalidInput, "matrix is not symmetric within tolerance"
    if kind == "wrong dim":
        return random_psd(rng, dim - 1), DimensionMismatch, \
            f"dimension mismatch: {(dim, dim)} vs {(dim - 1, dim - 1)}"
    # not PSD: the smallest eigenvalue 1e-3 below zero, against lam_max >= 1
    w = np.linalg.eigvalsh(S)
    M = S - (w[0] + 1e-3) * np.eye(dim)
    w_min = np.linalg.eigvalsh(linalg.check_symmetric(M))[0]
    return M, NotPSD, f"smallest eigenvalue {w_min:.3e} below PSD tolerance"


class TestChunkedChecks:
    """The inputs are checked in input order; the first bad one raises its own check's error."""

    DIM = 32

    @pytest.mark.parametrize("kind", ["non-square", "empty", "nan", "inf", "asymmetric",
                                      "wrong dim", "not PSD"])
    @pytest.mark.parametrize("where", ["first", "middle", "ragged last chunk"])
    def test_bad_input_raises_its_own_error(self, kind, where):
        rng = np.random.default_rng(90)
        block = barycentre._block_size(self.DIM)
        n = 2 * block + 5
        inputs = conjugated_family(self.DIM, n, seed=91)
        at = {"first": 0, "middle": block + 7, "ragged last chunk": 2 * block + 3}[where]
        inputs[at], kind_type, message = bad_input(kind, rng, self.DIM)
        if kind == "wrong dim" and at == 0:
            # the first input sets the dim, so the second is the one that differs
            message = f"dimension mismatch: {inputs[0].shape} vs {(self.DIM, self.DIM)}"
        with pytest.raises(InvalidInput) as exc:
            problem(inputs)
        assert type(exc.value) is kind_type
        assert str(exc.value) == message

    @pytest.mark.parametrize("lam_max", [0.5, 10.0])
    @pytest.mark.parametrize("depth", [0.5, 2.0])
    def test_psd_verdict_is_the_rule(self, lam_max, depth):
        # a rotated spectrum with one eigenvalue depth * tau below zero, among
        # PSD inputs: the problem rejects it exactly when the eigenvalue rule does
        rng = np.random.default_rng(92)
        tau = linalg.PSD_TOL * max(1.0, lam_max)
        spectrum = np.array([lam_max] * 6 + [0.3 * lam_max, 0.1, 0.0, 0.0, -depth * tau])
        Q, _ = np.linalg.qr(rng.standard_normal((11, 11)))
        M = (Q * spectrum) @ Q.T
        inputs = [random_psd(rng, 11), M, random_psd(rng, 11)]
        if depth < 1.0:
            problem(inputs)
            return
        w_min = np.linalg.eigvalsh(linalg.check_symmetric(M))[0]
        with pytest.raises(NotPSD, match=f"smallest eigenvalue {w_min:.3e} below"):
            problem(inputs)

    def test_eigenvalues_only_where_the_factor_proof_fails(self, lapack_calls):
        # lam_max = 2 max diag and lam_min = -1.5 PSD_TOL max diag: the block
        # residual exceeds PSD_TOL max diag, so the rule decides, and accepts
        c = np.sqrt(0.5)
        Q = np.array([[c, -c], [c, c]])
        M = np.zeros((4, 4))
        M[:2, :2] = Q @ np.diag([20.0, -1.5e-7]) @ Q.T
        M[2, 2], M[3, 3] = 5.0, 3.0
        lapack_calls.clear()
        prob = problem([np.diag([1.0, 2.0, 3.0, 4.0]), M])
        assert lapack_calls["eigvalsh"] == 1 and lapack_calls["pstrf"] == 0
        assert [idx.shape for idx in prob.blocks] == [(2, 1), (1, 2)]


class TestBlockFactorAccuracy:
    """Each chain block is factored on its own, so the graded tail of the pair is kept."""

    @pytest.mark.parametrize("dim", [32, 64, 128, 512])
    def test_pair_block_factors(self, dim):
        cov, s1, s2 = constructed_triple(dim)
        prob = problem([s1, s2])
        ranks = np.zeros(2, dtype=int)
        for idx, G in zip(prob.blocks, prob.block_factors):
            L = idx.shape[1]
            for i, S in enumerate((s1, s2)):
                A = S[idx[:, :, None], idx[:, None, :]]
                F = G[i]
                R = A - np.swapaxes(F, -1, -2) @ F
                for a, r in zip(A, R):
                    assert np.linalg.norm(r) <= L * np.finfo(float).eps * np.linalg.norm(a)
                ranks[i] += np.count_nonzero(np.abs(F).sum(axis=-1))
        # at least the dense pstrf rank; at dims 128 and 512 that cut loses the
        # tail (45 and 43 of the true 64 and 256; the blocks keep 63 and 167)
        dense = [linalg.covariance_factor(S)[1].shape[0] for S in (s1, s2)]
        assert np.all(ranks >= dense)
        if dim >= 128:
            assert np.all(ranks > dense)
            assert verify_barycentre_certificate(cov, prob) <= 1e-15


def pair_factors(dim, settings=None):
    """The pair's problem from its exact chain-block factors."""
    return barycentre.BarycentreProblem.from_block_factors(
        *construct.chain_factors(TruncationConfig(dim=dim), (0.5, -0.5)), settings=settings)


class TestFactorPath:
    """A problem built from the inputs' block factors, against the same inputs given densely."""

    @pytest.mark.parametrize("dim", [8, 32, 128, 512])
    def test_pair_matches_the_dense_problem(self, dim):
        cov, s1, s2 = constructed_triple(dim)
        dense, factored = problem([s1, s2]), pair_factors(dim)
        assert len(factored.blocks) == len(dense.blocks)
        assert all(np.array_equal(a, b) for a, b in zip(factored.blocks, dense.blocks))
        assert factored.weights == dense.weights == (0.5, 0.5)
        assert np.linalg.norm(factored.mean - dense.mean) <= 1e-15 * np.linalg.norm(dense.mean)
        assert abs(factored.input_trace - dense.input_trace) <= 1e-15 * dense.input_trace

    def test_weighted_family_sums_match_the_dense_problem(self):
        config = TruncationConfig(dim=32)
        rng = np.random.default_rng(80)
        coeffs = rng.uniform(-0.5, 0.5, 16)
        w = rng.uniform(0.5, 1.5, 16)
        w = (w / w.sum()).tolist()
        cov = build_covariance(config)
        dense = problem([conjugate(np.eye(32) + a * symmetrized_shift(32), cov)
                         for a in coeffs], w)
        factored = barycentre.BarycentreProblem.from_block_factors(
            *construct.chain_factors(config, coeffs), weights=w)
        assert np.linalg.norm(factored.mean - dense.mean) <= 1e-15 * np.linalg.norm(dense.mean)
        assert abs(factored.input_trace - dense.input_trace) <= 1e-15 * dense.input_trace
        assert np.array_equal(factored.mean, factored.mean.T)

    def test_pair_keeps_every_direction_at_dim_512(self):
        # the exact factors keep the dim/2 rows of S1 that the per-block
        # pivoted rule of the dense path cuts to 167
        cov, s1, s2 = constructed_triple(512)
        factored = pair_factors(512)
        rows = [sum(int(np.count_nonzero(np.abs(G[0]).sum(axis=-1))) for G in p.block_factors)
                for p in (factored, problem([s1, s2]))]
        assert rows == [256, 167]
        assert verify_barycentre_certificate(cov, factored) <= 1e-15

    @pytest.mark.parametrize("dim", [32, 128])
    def test_pair_solve_matches_the_dense_solve(self, dim):
        cov, s1, s2 = constructed_triple(dim)
        settings = SolverSettings(ridge=1e-6, ridge_decay=0.5)
        dense = barycentre_fixed_point(problem([s1, s2], settings=settings))
        factored = barycentre_fixed_point(pair_factors(dim, settings))
        assert factored.iterations == dense.iterations
        assert abs(factored.frechet_value - dense.frechet_value) <= 1e-13 * dense.frechet_value
        assert np.linalg.norm(factored.barycentre - cov) <= 1e-6

    @staticmethod
    def bad(kind):
        blocks, factors = construct.chain_factors(TruncationConfig(dim=8), (0.5, -0.5))
        blocks, factors = list(blocks), list(factors)
        # dim 8: chains 5 and 7, chain 3-6, chain 1-2-4-8
        if kind in ("nan", "inf"):
            factors[2] = factors[2].copy()
            factors[2][1, 0, 2, 3] = np.nan if kind == "nan" else np.inf
        elif kind == "inputs":
            factors[1] = factors[1][:1]
        elif kind == "chains":
            factors[0] = factors[0][:, :1]
        elif kind == "length":
            factors[2] = factors[2][..., :3]
        elif kind == "ndim":
            factors[0] = factors[0][0]
        elif kind == "count":
            factors = factors[:-1]
        elif kind == "overlap":
            blocks[0] = blocks[0] * 0
        elif kind == "gap":
            blocks[-1] = blocks[-1] + 1
        elif kind == "float":
            blocks[0] = blocks[0].astype(float)
        return blocks, factors

    @pytest.mark.parametrize("kind", ["nan", "inf", "inputs", "chains", "length", "ndim",
                                      "count", "overlap", "gap", "float"])
    def test_bad_factors_are_invalid_input(self, kind):
        with pytest.raises(InvalidInput):
            barycentre.BarycentreProblem.from_block_factors(*self.bad(kind))

    def test_weights_are_checked(self):
        blocks, factors = construct.chain_factors(TruncationConfig(dim=8), (0.5, -0.5))
        with pytest.raises(InvalidInput):
            barycentre.BarycentreProblem.from_block_factors(blocks, factors, weights=[1.0])
        with pytest.raises(InvalidInput):
            barycentre.BarycentreProblem.from_block_factors(blocks, factors, weights=[0.7, 0.4])


class TestProblemState:
    """The problem keeps each input only as its block factors, and the two sums the passes read."""

    @staticmethod
    def family():
        rng = np.random.default_rng(70)
        inputs = conjugated_family(16, 6, seed=71) + [random_psd(rng, 16) for _ in range(3)]
        # asymmetric within SYM_TOL, so the problem's symmetrization changes its bits
        inputs[7] = inputs[7] + np.triu(np.full((16, 16), 1e-14), 1)
        w = rng.uniform(0.5, 1.5, len(inputs))
        return inputs, (w / w.sum()).tolist()

    def test_state_is_the_factors_and_two_sums(self):
        prob = problem(*self.family())
        assert not hasattr(prob, "inputs")
        assert [f.name for f in dataclasses.fields(prob)] == [
            "weights", "settings", "blocks", "block_factors", "mean", "input_trace"]

    def test_sums_have_the_bits_of_the_symmetrized_inputs(self):
        inputs, weights = self.family()
        prob = problem(inputs, weights)
        sym = [linalg.check_symmetric(S) for S in inputs]
        assert not np.array_equal(sym[7], inputs[7])
        assert np.array_equal(prob.mean, sum(w * S for w, S in zip(prob.weights, sym)))
        assert prob.input_trace == sum(w * float(np.trace(S)) for w, S in zip(prob.weights, sym))

    def test_problems_compare_by_identity(self):
        # without its inputs, a generated __eq__ would compare only weights and settings
        inputs, weights = self.family()
        a, b = problem(inputs, weights), problem(inputs, weights)
        other = problem(inputs[::-1], weights)  # the same weights and settings
        assert a == a and a != b and a != other
        assert len({a, b, other}) == 3


def as_sets(blocks):
    """The partition as a set of frozensets of 1-based indices."""
    return {frozenset(int(k) + 1 for k in row) for idx in blocks for row in idx}


def chain_sets(dim):
    return {frozenset(chain) for chain in construct.doubling_chains(dim)}


def rotated(mats, seed):
    """``Q M Q^T`` for a random orthogonal ``Q``, which makes every matrix dense."""
    dim = len(mats[0])
    Q = np.linalg.qr(np.random.default_rng(seed).standard_normal((dim, dim)))[0]
    return Q, [Q @ M @ Q.T for M in mats]


def components_by_unique(pattern):
    """The reference partition: ``_components`` as it counted sizes with ``np.unique``."""
    d = len(pattern)
    label = np.arange(d)
    while True:
        new = np.minimum(label, np.where(pattern, label, d).min(axis=1))
        new = new[new]
        if np.array_equal(new, label):
            break
        label = new
    _, sizes = np.unique(label, return_counts=True)
    rows = np.split(np.argsort(label, kind="stable"), np.cumsum(sizes)[:-1])
    return tuple(np.array([r for r in rows if len(r) == L]) for L in np.unique(sizes))


def random_pattern(rng, dim):
    """A symmetric boolean pattern with about two links per index, diagonal set."""
    upper = np.triu(rng.random((dim, dim)) < 1.0 / max(dim, 1), 1)
    return upper | upper.T | np.eye(dim, dtype=bool)


class TestComponents:
    """``_components`` counts sizes with bincount and gives the partition np.unique gave."""

    def assert_same(self, pattern):
        got, expected = barycentre._components(pattern), components_by_unique(pattern)
        assert len(got) == len(expected)
        for g, e in zip(got, expected):
            assert g.dtype == e.dtype and g.shape == e.shape and np.array_equal(g, e)

    @pytest.mark.parametrize("dim", [1, 2, 3, 7, 16, 33, 64, 100, 255, 300])
    def test_random_patterns(self, dim):
        rng = np.random.default_rng(70 + dim)
        for _ in range(5):
            self.assert_same(random_pattern(rng, dim))

    @pytest.mark.parametrize("dim", [1, 5, 64])
    def test_all_singletons_and_one_component(self, dim):
        self.assert_same(np.eye(dim, dtype=bool))
        self.assert_same(np.ones((dim, dim), dtype=bool))

    @pytest.mark.parametrize("dim", [2, 3, 8, 31, 64, 100, 256, 1024])
    def test_doubling_chains(self, dim):
        pattern = construct.symmetrized_shift(dim) != 0.0
        pattern |= np.eye(dim, dtype=bool)
        self.assert_same(pattern)
        assert as_sets(barycentre._components(pattern)) == chain_sets(dim)


class TestSplitPass:
    """Passes run block by block along the partition; verdicts stay global."""

    @pytest.mark.parametrize("dim", [8, 16, 32, 64, 128])
    def test_partition_of_the_pair_is_the_doubling_chains(self, dim):
        _, s1, s2 = constructed_triple(dim)
        assert as_sets(problem([s1, s2]).blocks) == chain_sets(dim)

    def test_partition_of_other_families_is_the_doubling_chains(self):
        cov = build_covariance(TruncationConfig(dim=32))
        maps = build_map_family(32, n=5)
        assert as_sets(problem([conjugate(T, cov) for T in maps]).blocks) == chain_sets(32)
        assert as_sets(problem(conjugated_family(32, 50, seed=60)).blocks) == chain_sets(32)
        # the +-1 similarity the pair-recovery benchmark applies keeps the pattern
        _, s1, s2 = constructed_triple(64)
        d = np.random.default_rng(61).choice([-1.0, 1.0], size=64)
        flip = np.outer(d, d)
        assert as_sets(problem([flip * s1, flip * s2]).blocks) == chain_sets(64)

    @pytest.mark.parametrize("dim", [32, 64, 128])
    def test_rotated_pair_gives_the_same_iterates(self, dim):
        # Q^T bary(Q S Q^T) Q against the split run, over the first 15 steps,
        # while the ridge keeps every iterate eigenvalue above the 1e-14
        # cutoff; later steps amplify rounding in the cut directions in any
        # basis (the dense solver alone moves by about 2e-8 under rotation)
        cov, s1, s2 = constructed_triple(dim)
        settings = SolverSettings(ridge=1e-6, ridge_decay=0.5, tol=1e-300, max_iter=15)
        Q, rot = rotated([cov, s1, s2], seed=dim)
        split, dense = problem([s1, s2], settings=settings), problem(rot[1:], settings=settings)
        assert len(split.blocks) > 1 and len(dense.blocks) == 1
        a, b = barycentre_fixed_point(split), barycentre_fixed_point(dense)
        X = Q.T @ b.barycentre @ Q
        assert np.linalg.norm(a.barycentre - X) <= 1e-9 * np.linalg.norm(X)
        assert a.frechet_value == pytest.approx(b.frechet_value, rel=1e-10)
        assert abs(a.certificate_residual - b.certificate_residual) <= 1e-12
        assert verify_barycentre_certificate(cov, split) <= 1e-13
        assert verify_barycentre_certificate(rot[0], dense) <= 1e-13
        assert frechet_functional(cov, split) == pytest.approx(
            frechet_functional(rot[0], dense), rel=1e-10)

    def test_rotated_monte_carlo_family_gives_the_same_barycentre(self):
        inputs = conjugated_family(32, 50, seed=62)
        settings = SolverSettings(ridge=1e-6)
        Q, rot = rotated(inputs, seed=63)
        split, dense = problem(inputs, settings=settings), problem(rot, settings=settings)
        assert len(dense.blocks) == 1
        a, b = barycentre_fixed_point(split), barycentre_fixed_point(dense)
        assert a.converged and b.converged and a.iterations == b.iterations
        X = Q.T @ b.barycentre @ Q
        assert np.linalg.norm(a.barycentre - X) <= 1e-9 * np.linalg.norm(X)
        assert a.frechet_value == pytest.approx(b.frechet_value, rel=1e-10)
        assert abs(a.certificate_residual - b.certificate_residual) <= 1e-12
        cov = build_covariance(TruncationConfig(dim=32))
        assert verify_barycentre_certificate(cov, split) == pytest.approx(
            verify_barycentre_certificate(Q @ cov @ Q.T, dense), rel=1e-9)
        assert a.certificate_residual == verify_barycentre_certificate(a.barycentre, split)
        assert a.frechet_value == frechet_functional(a.barycentre, split)

    @pytest.mark.parametrize("reach", ["two chains", "dense"])
    def test_candidate_outside_the_pattern(self, reach):
        cov, s1, s2 = constructed_triple(32)
        inputs = [s1, s2]
        prob = problem(inputs)
        if reach == "two chains":
            # a rank-one term joining index 2 (chain of 1) and index 3 (chain of 3)
            v = np.zeros(32)
            v[[1, 2]] = 0.1
            candidate = cov + np.outer(v, v)
        else:
            rng = np.random.default_rng(64)
            P = rng.standard_normal((32, 32))
            candidate = project_psd(cov + 1e-3 * (P + P.T))
        # an entry between two blocks puts the pass on the whole space
        blocks, _ = barycentre._split(prob, candidate)
        assert [idx.shape for idx in blocks] == [(1, 32)]
        root = linalg.sqrt_psd(candidate)
        mid = sum(w * linalg.congruence_sqrt(root, S) for w, S in zip(prob.weights, inputs))
        expected = np.linalg.norm(mid - candidate) / max(1.0, np.linalg.norm(candidate))
        assert expected > 1e-4
        assert verify_barycentre_certificate(candidate, prob) == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize("reach", ["two chains", "dense"])
    def test_joined_factor_is_the_row_stack_of_its_parts(self, reach):
        _, s1, s2 = constructed_triple(32)
        prob = problem([s1, s2])
        M = np.ones((32, 32)) if reach == "dense" else np.eye(32)
        M[1, 2] = M[2, 1] = 1.0  # joins the chains of 1 and 3 (1-based indices 2 and 3)
        blocks, factors = barycentre._split(prob, M)
        assert [idx.shape for idx in blocks] == [(1, 32)]
        part_rank = {frozenset(row.tolist()): np.count_nonzero(np.abs(G).sum(axis=-1), axis=-1)
                     for idx, Gs in zip(prob.blocks, prob.block_factors)
                     for row, G in zip(idx, np.moveaxis(Gs, 1, 0))}
        for idx, Gs in zip(blocks, factors):
            for row, G in zip(idx, np.moveaxis(Gs, 1, 0)):
                parts = [rank for part, rank in part_rank.items() if part <= set(row.tolist())]
                # each part keeps all of its nonzero rows
                assert np.array_equal(np.count_nonzero(np.abs(G).sum(axis=-1), axis=-1),
                                      sum(parts))
                for S, F in zip((s1, s2), G):
                    A = S[np.ix_(row, row)]
                    assert np.linalg.norm(A - F.T @ F) <= 32 * np.finfo(float).eps * np.linalg.norm(A)

    def test_init_outside_the_pattern(self):
        # an init joining the chains of 1 and 3 is iterated on the whole space:
        # the same iterates as the dense run on the rotated problem
        cov, s1, s2 = constructed_triple(32)
        v = np.zeros(32)
        v[[1, 2]] = 0.1
        init = cov + np.outer(v, v) + 1e-3 * np.eye(32)
        settings = SolverSettings(ridge=1e-6, tol=1e-300, max_iter=5)
        Q, rot = rotated([init, s1, s2], seed=65)
        a = barycentre_fixed_point(problem([s1, s2], settings=settings), init=init)
        b = barycentre_fixed_point(problem(rot[1:], settings=settings), init=rot[0])
        X = Q.T @ b.barycentre @ Q
        assert abs(a.barycentre[1, 2]) > 1e-6
        assert np.linalg.norm(a.barycentre - X) <= 1e-9 * np.linalg.norm(X)

    def test_pseudo_inverse_cutoff_is_global(self):
        # SOLVER_RANK_TOL * max(1, lam_max) with lam_max = 1e6 from the 1x1
        # block cuts the whole 2x2 block (eigenvalues 1.5e-10 and 0.5e-10), which
        # its own scale would keep
        S = np.zeros((3, 3))
        S[0, 0] = 1e6
        S[1:, 1:] = [[1e-10, 0.5e-10], [0.5e-10, 1e-10]]
        prob = problem([S], settings=SolverSettings(max_iter=1))
        assert [idx.shape for idx in prob.blocks] == [(1, 1), (1, 2)]
        X = barycentre_fixed_point(prob).barycentre
        assert X[0, 0] == pytest.approx(1e6, rel=1e-12)
        assert not np.any(X[1:, 1:])

    def test_psd_floor_is_global(self):
        # the floor is -PSD_TOL * max(1, lam_max) with lam_max over all blocks:
        # 10 on the chain of 1, so a block (the chain of 3) whose own floor
        # would be -PSD_TOL passes at -5e-8 and fails at -2e-7
        cov, s1, s2 = constructed_triple(16)
        prob = problem([s1, s2])
        candidate = cov.copy()
        candidate[1, 1] = 10.0
        candidate[2, 2] = -5e-8
        assert len(barycentre._split(prob, candidate)[0]) > 1
        verify_barycentre_certificate(candidate, prob)
        candidate[2, 2] = -2e-7
        with pytest.raises(NotPSD, match="smallest eigenvalue -2.000e-07 below PSD tolerance"):
            verify_barycentre_certificate(candidate, prob)
        with pytest.raises(NotPSD, match="below PSD tolerance"):
            frechet_functional(candidate, prob)
        # an input is checked whole by its factor, under the same rule
        with pytest.raises(NotPSD, match="smallest eigenvalue -2.000e-07 below PSD tolerance"):
            problem([s1, candidate])
