"""Fréchet functional, fixed-point solver, and the barycentre certificate."""

import dataclasses
import tracemalloc
import warnings

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
    build_pair_maps,
    bw_distance_sq,
    conjugate,
    frechet_functional,
    problem,
    symmetrized_shift,
    verify_barycentre_certificate,
)
from bwbary import barycentre, construct, linalg
from helpers import (
    congruence_sqrt,
    constructed_triple,
    psd_factor,
    random_psd,
    reference_input_sum,
    reference_procrustes_step,
    reference_proved_factors,
    sqrt_psd,
    two_input_oracle,
)


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
        cov = build_covariance(TruncationConfig(dim=16))
        weights = [0.2, 0.3, 0.5]
        coeffs = [0.5, 0.1, -0.26]  # weighted mean zero
        maps = [np.eye(16) + a * symmetrized_shift(16) for a in coeffs]
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
        res = barycentre_fixed_point(problem([s1, s2]))
        assert res.converged
        assert np.linalg.norm(res.barycentre - cov) <= 1e-9 * np.linalg.norm(cov)
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


class TestFactorUpdate:
    """The iteration on the factor ``K_t`` of ``C_t = K_t^T K_t``, with no ridge and no cutoff."""

    @pytest.mark.parametrize("dim", [32, 64, 128, 512, 2048])
    def test_default_settings_recover_the_pair(self, dim):
        cov = build_covariance(TruncationConfig(dim=dim))
        res = barycentre_fixed_point(pair_factors(dim))
        assert res.converged and res.monotone
        assert np.linalg.norm(res.barycentre - cov) <= 1e-9 * np.linalg.norm(cov)
        assert res.certificate_residual <= 1e-10

    def test_scaled_pair_takes_the_same_steps(self):
        # the update is scale-equivariant and the stop and monotone rules are
        # relative, so 1e-8 S and 1e8 S behave as S; with a max(1, ||C||)
        # floor on the change, the 1e-8 pair stopped after 4 steps, 1.9e-2
        # from C (pytest turns the solver's RuntimeWarning into an error)
        cov, s1, s2 = constructed_triple(128)
        runs = {s: barycentre_fixed_point(problem([s * s1, s * s2])) for s in (1e-8, 1.0, 1e8)}
        assert len({res.iterations for res in runs.values()}) == 1
        for s, res in runs.items():
            assert res.converged and res.monotone
            assert np.linalg.norm(res.barycentre - s * cov) <= 1e-9 * s * np.linalg.norm(cov)

    def test_ridge_settings_have_no_effect(self):
        _, s1, s2 = constructed_triple(32)
        a = barycentre_fixed_point(problem([s1, s2]))
        b = barycentre_fixed_point(problem([s1, s2], settings=SolverSettings(ridge=1e-6,
                                                                             ridge_decay=0.9)))
        assert np.array_equal(a.barycentre, b.barycentre) and a.history == b.history

    def test_history_value_is_the_frechet_value_of_the_step_start(self):
        # a step's value is F(C_{t-1}), from the step's own pass; F(C_t) of
        # the run stopped after t steps is the closing pass's
        rng = np.random.default_rng(38)
        inputs = [random_psd(rng, 6, rank=r) for r in (6, 3, 4)]
        res = barycentre_fixed_point(problem(inputs, settings=SolverSettings(max_iter=4)))
        F0 = frechet_functional(sum(inputs) / 3, problem(inputs))
        assert res.history[0][2] == pytest.approx(F0, rel=1e-12)
        for t in (1, 2, 3):
            short = barycentre_fixed_point(problem(inputs, settings=SolverSettings(max_iter=t)))
            assert res.history[t][2] == pytest.approx(short.frechet_value, rel=1e-12)

    def test_zero_start_stays_zero(self):
        res = barycentre_fixed_point(problem([np.eye(3), 2.0 * np.eye(3)]), init=np.zeros((3, 3)))
        assert res.converged and res.iterations == 1 and res.final_change == 0.0
        assert not np.any(res.barycentre)


def mc_problem(n, seed):
    """The population experiment's problem: ``n`` uniform-law dim-32 inputs, by chain factors."""
    from bwbary import randomized

    coeffs = randomized.draw_coefficients(randomized.RandomMapLaw("uniform"), seed, n)
    return barycentre.BarycentreProblem.from_block_factors(
        *construct.chain_factors(TruncationConfig(dim=32), coeffs))


class TestWarmStart:
    """The steps run on a rotated copy of the input factors, which Jacobi starts from."""

    def test_problem_factors_are_untouched_and_solves_repeat(self):
        # 600 inputs: the (600, 1, 3, 4) and (600, 1, 5, 6) stacks take
        # Jacobi, whose rotated rows the steps carry over
        prob = mc_problem(linalg._JACOBI_MIN_STACK + 88, seed=4)
        before = [G.copy() for G in prob.block_factors]
        first = barycentre_fixed_point(prob)
        assert all(np.array_equal(G, B) for G, B in zip(prob.block_factors, before))
        second = barycentre_fixed_point(prob)
        assert np.array_equal(first.barycentre, second.barycentre)
        assert first.history == second.history
        assert first.certificate_residual == second.certificate_residual

    def test_monte_carlo_solve_rotates_rows_less(self, monkeypatch):
        # the seed-1 run of 1,000 inputs takes 9 mixed steps; restarted from
        # the problem's factors at every step, the 14 plain steps made 540
        # row rotations, warm-started 316, and the mixed steps 237
        prob = mc_problem(1000, seed=1)
        calls = [0]
        rotate = linalg._rotate_rows

        def counting(*args):
            calls[0] += 1
            rotate(*args)

        monkeypatch.setattr(linalg, "_rotate_rows", counting)
        res = barycentre_fixed_point(prob)
        assert res.converged and res.iterations == 9
        assert calls[0] <= 250


def resident_case(case):
    """A problem whose steps take the resident buffers, and the routes its step groups cover."""
    if case.startswith("mc"):
        from bwbary import randomized

        coeffs = randomized.draw_coefficients(randomized.RandomMapLaw("uniform"), 1, 1000)
        return barycentre.BarycentreProblem.from_block_factors(
            *construct.chain_factors(TruncationConfig(dim=int(case[2:])), coeffs))
    if case.startswith("pair"):
        _, s1, s2 = constructed_triple(int(case[4:]))
        return problem([s1, s2])
    if case == "random":
        return random_block_family()
    # a single input: a dense one of rank 2, and one input's chain blocks
    if case == "one input":
        G = np.random.default_rng(5).standard_normal((8, 2))
        return problem([G @ G.T])
    if case == "one chain input":
        return barycentre.BarycentreProblem.from_block_factors(
            *construct.chain_factors(TruncationConfig(dim=32), [0.3]))
    # dense Wishart families, one block of size d: rank 2 takes one Jacobi
    # rotation, and rank 4 over 600 inputs (factors of up to five rows)
    # takes Jacobi sweeps
    rng = np.random.default_rng(43)
    n, rank = (5, 2) if case == "wishart rank 2" else (linalg._JACOBI_MIN_STACK + 88, 4)
    return problem([random_psd(rng, 8, rank=rank) for _ in range(n)])


def recorded_steps(monkeypatch):
    """Hook the solver's steps: a list that gets ``(chunks, k, total)`` per group and pass.

    ``chunks`` are the group's ``(part, linalg._ProcrustesStack)`` pairs,
    ``k`` the iterate's stack they were stepped against, and ``total`` the
    sum :func:`barycentre._input_sum` returned; the certificate's sums over
    ``(part, factors)`` pairs are not recorded.
    """
    steps, ks = [], []
    input_sum, stack = barycentre._input_sum, linalg._ProcrustesStack.stack

    def recording_stack(self, K):
        ks.append(K.copy())
        return stack(self, K)

    def recording_sum(chunks, weights, term):
        total = input_sum(chunks, weights, term)
        if isinstance(chunks[0][1], linalg._ProcrustesStack):
            steps.append((chunks, ks[-1], total))
        return total

    monkeypatch.setattr(linalg._ProcrustesStack, "stack", recording_stack)
    monkeypatch.setattr(barycentre, "_input_sum", recording_sum)
    return steps


def step_inputs(prob):
    """The default-start solve's groups, and each one's padded ``(n, k, m, L)`` input factors."""
    groups = barycentre._groups(start_factors(prob), prob.block_factors)
    return groups, [barycentre._pad([prob.block_factors[s] for s in g]) for g in groups]


class TestResidentSteps:
    """Each step keeps a Jacobi chunk's factors rows-last, with the bits of the stack-by-stack step."""

    @pytest.mark.parametrize("case", ["mc32", "mc256", "mc512", "pair64", "pair128", "random",
                                      "one input", "one chain input",
                                      "wishart rank 2", "wishart rank 4"])
    def test_steps_have_the_bits_of_the_stacked_procrustes(self, case, monkeypatch):
        prob = resident_case(case)
        for G in prob.block_factors:
            G.flags.writeable = False  # a write into the problem's factors raises
        before = [G.copy() for G in prob.block_factors]
        groups, inputs = step_inputs(prob)
        steps = recorded_steps(monkeypatch)
        res = barycentre_fixed_point(prob)
        assert res.converged
        assert all(np.array_equal(G, B) for G, B in zip(prob.block_factors, before))
        # replay every group's steps on a working copy of its factors, which
        # the stacked procrustes rotates in place; a pass, dropped or not,
        # steps the groups in order
        assert len(steps) % len(groups) == 0 and len(steps) >= len(groups) * res.iterations
        working, residents = {}, set()
        for t, (factors, k, out) in enumerate(steps):
            H = working.setdefault(id(factors), inputs[t % len(groups)].copy())
            expected = reference_input_sum(
                H, prob.weights, lambda F, k=k: reference_procrustes_step(F, k))
            assert np.array_equal(out, expected)
            residents |= {stack.H.shape[0] for _, stack in factors if stack.Y is not None}
        assert len(working) == len(groups)
        if case == "mc32":
            # one-, two-, three- and five-row chunks
            assert residents == {1, 2, 3, 5}
        if case == "mc512":
            # one size's stack is split between a Jacobi and an SVD chunk
            assert any(len({s.Y is None for _, s in f}) == 2 for f, _, _ in steps)
        assert residents


class TestGroupedSteps:
    """A step runs each large block size alone and the small ones as one padded stack per route."""

    def test_monte_carlo_steps_each_nonempty_size_once(self, monkeypatch):
        # 1,000 inputs: every size has at least _JACOBI_MIN_STACK blocks and
        # steps alone; the chains of length 1 keep no iterate rows, so they
        # make no call
        prob = mc_problem(1000, seed=1)
        K = start_factors(prob)
        assert [k.shape[1] for k in K] == [0, 2, 3, 4, 6]
        groups, inputs = step_inputs(prob)
        assert groups == [[1], [2], [3], [4]]
        steps = recorded_steps(monkeypatch)
        res = barycentre_fixed_point(prob)
        assert res.iterations == 9
        # the shape of each group's X = G k^T
        shapes = [(*inputs[t % len(groups)].shape[:-1], k.shape[1])
                  for t, (_, k, _) in enumerate(steps)]
        assert shapes == [(1000, 4, 1, 2), (1000, 2, 2, 3), (1000, 1, 3, 4),
                          (1000, 1, 5, 6)] * res.iterations

    @pytest.mark.parametrize("case", ["pair 64", "pair 128", "random"])
    def test_padded_part_stays_exactly_zero(self, case, monkeypatch):
        if case == "random":
            prob = random_block_family()
        else:
            _, s1, s2 = constructed_triple(int(case.split()[1]))
            prob = problem([s1, s2])
        K = start_factors(prob)
        groups = barycentre._groups(K, prob.block_factors)
        # the sizes of at most two factor rows, on the Jacobi route, and the rest
        assert len(groups) == 2 and all(len(g) > 1 for g in groups)
        grams, mixed = [], [0]
        gram, anderson = barycentre._gram, barycentre._anderson

        def recording(stacks):
            grams.append([P.copy() for P in stacks])
            return gram(stacks)

        def counting(*args):
            stacks, is_mixed = anderson(*args)
            mixed[0] += is_mixed
            return stacks, is_mixed

        monkeypatch.setattr(barycentre, "_gram", recording)
        monkeypatch.setattr(barycentre, "_anderson", counting)
        res = barycentre_fixed_point(prob)
        # the start's grouped iterate, each step's plain step and each mixed
        # iterate; the closing pass takes the last of them as it is
        assert mixed[0] > 0
        assert len(grams) == 1 + res.iterations + mixed[0]
        for stacks in grams:
            for g, P in zip(groups, stacks):
                padding = np.ones(P.shape, dtype=bool)
                for part in barycentre._unpad(padding, [prob.blocks[s] for s in g]):
                    part[...] = False
                assert padding.any() and not np.any(P[padding])
        assert res.converged and res.monotone


def start_factors(prob):
    """The solver's ``K_0`` stacks from the inputs' mean, one per block size."""
    return [F[0] for F in barycentre._proved_factors([S[None] for S in barycentre._mean(prob)],
                                                     prob.blocks)]


def dense_mean(prob):
    """The solver's default start as one ``d x d`` matrix."""
    return barycentre._scatter(barycentre._mean(prob), prob.blocks, prob.dim)


def random_block_family():
    """Three inputs on blocks of sizes 2, 3, 4 and 5, keeping 2, 1, 3 and 4 factor rows."""
    rng = np.random.default_rng(41)
    blocks = (np.array([[0, 1], [2, 3]]), np.array([[4, 5, 6]]), np.arange(7, 11)[None],
              np.arange(11, 16)[None])
    factors = [rng.standard_normal((3, len(idx), m, idx.shape[1]))
               for idx, m in zip(blocks, (2, 1, 3, 4))]
    return barycentre.BarycentreProblem.from_block_factors(blocks, factors)


class TestAndersonMixing:
    """The steps are Anderson-mixed, and a mixed iterate whose Fréchet value rises is dropped."""

    def test_rank_16_wishart_set_converges(self):
        # the plain iteration stopped at the 500-step cap, 2e-6 from the
        # reference; mixed, it converges in about 110 steps
        rng = np.random.default_rng(0)
        inputs = [random_psd(rng, 64, rank=16) for _ in range(5)]
        res = barycentre_fixed_point(problem(inputs))
        ref = barycentre_fixed_point(problem(inputs, settings=SolverSettings(tol=1e-14)))
        assert res.converged and ref.converged and res.monotone
        assert np.linalg.norm(res.barycentre - ref.barycentre) <= 1e-8 * np.linalg.norm(ref.barycentre)

    def test_dropped_iterate_keeps_the_run_monotone(self, monkeypatch):
        prob = random_block_family()
        groups = barycentre._groups(start_factors(prob), prob.block_factors)
        steps = recorded_steps(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            res = barycentre_fixed_point(prob)
        # one step per group and pass; a dropped pass adds no history row
        passes = len(steps) // len(groups)
        assert len(steps) == passes * len(groups) and passes > res.iterations
        assert [h[0] for h in res.history] == list(range(1, res.iterations + 1))
        assert res.converged and res.monotone
        assert res.certificate_residual <= 1e-10

    def test_cap_at_a_dropped_iterate_returns_its_plain_step(self):
        # pass 8 drops its mixed iterate and ends on the plain step from the
        # iterate of pass 7; a cap of 7 stops at that mixed iterate, which the
        # closing pass finds higher, and returns the same plain step
        prob = random_block_family()
        runs = [barycentre_fixed_point(barycentre.BarycentreProblem.from_block_factors(
            prob.blocks, prob.block_factors, settings=SolverSettings(max_iter=m)))
            for m in (7, 8)]
        assert [res.iterations for res in runs] == [7, 7]
        assert all(res.monotone and not res.converged for res in runs)
        assert np.array_equal(runs[0].barycentre, runs[1].barycentre)
        assert runs[0].history == runs[1].history
        assert runs[0].frechet_value < runs[0].history[-1][2]


class TestSharedPass:
    """The solver's closing pass gives the certificate and the Fréchet value."""

    @pytest.fixture(scope="class")
    def pair_run(self):
        _, s1, s2 = constructed_triple(32)
        prob = problem([s1, s2])
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
            inputs, settings = [s1, s2], None
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
            # the dim-32 chains have 5 distinct lengths (6, 4, 3, 2, 1); a
            # chain of length L keeps L - 1 rows, so only lengths 4 and 6
            # reach the SVD (the others keep at most two rows, which take one
            # Jacobi rotation).  A step's procrustes stacks both, zero-padded
            # to 5 rows and 6 columns, into one SVD, and so does the closing
            # pass's polar.  The steps decompose no iterate: the closing pass's
            # certificate makes the only eigh, one per group, of the padded
            # chains of lengths 2 and 3 and of lengths 4 and 6; the chains of
            # length 1 keep no iterate rows and are in no group
            assert [idx.shape[1] for idx in prob.blocks] == [1, 2, 3, 4, 6]
            assert lapack_calls["svd"] == res.iterations + 1
            assert lapack_calls.shapes["svd"] == [(2, 2, 5, 6)] * passes
            assert lapack_calls.shapes["eigh"] == [(6, 3, 3), (2, 6, 6)]
            return
        blocks = -(-n // barycentre._block_size(prob.dim))
        if case == "blocks":
            assert blocks == 2
        assert len(prob.blocks) == 1  # dense: one block of size d
        assert lapack_calls["eigh"] == 1
        assert lapack_calls["svd"] == blocks * passes


class TestGroupedCertificate:
    """The certificate runs on the solver's groups of block sizes, one padded stack each."""

    @pytest.mark.parametrize("case", ["pair 64", "pair 128", "pair 512", "random"])
    def test_grouped_inner_root_is_the_per_size_one(self, case, monkeypatch):
        if case == "random":
            prob = random_block_family()
            C = dense_mean(prob)
        else:
            C, s1, s2 = constructed_triple(int(case.split()[1]))
            prob = problem([s1, s2])
        passes, mean_inner_root = [], barycentre._mean_inner_root

        def recording(roots, block_factors, weights):
            passes.append(mean_inner_root(roots, block_factors, weights))
            return passes[-1]

        monkeypatch.setattr(barycentre, "_mean_inner_root", recording)
        verify_barycentre_certificate(C, prob)
        monkeypatch.undo()
        [grouped] = passes
        stacks, blocks, factors = barycentre._on_blocks(prob, C)
        assert blocks is prob.blocks
        roots = [linalg._spectral_apply(V, np.sqrt(w)) for w, V in linalg.psd_eigh(stacks)]
        per_size = barycentre._mean_inner_root(roots, factors, prob.weights)
        groups = barycentre._groups(stacks, factors)
        assert len(grouped) == len(groups) < len(blocks)
        for g, P in zip(groups, grouped):
            padding = np.ones(P.shape, dtype=bool)
            for part in barycentre._unpad(padding, [blocks[s] for s in g]):
                part[...] = False
            assert not np.any(P[padding])
            assert padding.any() or len(g) == 1
            for s, part in zip(g, barycentre._unpad(P, [blocks[s] for s in g])):
                assert np.linalg.norm(part - per_size[s]) <= 1e-15 * np.linalg.norm(C)


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
        root = sqrt_psd(sum(inputs) / n)
        expected = sum(wi * congruence_sqrt(root, S)
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
        roots = barycentre._gather(sqrt_psd(dense_mean(prob)), prob.blocks)
        lapack_calls.clear()
        mean = barycentre._mean_inner_root(roots, prob.block_factors, prob.weights)[-1]
        assert lapack_calls["svd"] == 0
        expected = sum(wi * P for wi, P in zip(prob.weights, linalg.polar(G @ roots[-1])))
        assert np.array_equal(mean, expected)

    def test_two_row_polars_are_summed_in_input_order(self, lapack_calls):
        # at dim 16 the chain 3, 6, 12 keeps 2 rows and 5, 10 and 7, 14 keep
        # 1 row, and the polars of a stack this large would be summed pairwise were they
        # strided (dim 8 has no chain that keeps 2 rows)
        n = linalg._JACOBI_MIN_STACK + 3
        rng = np.random.default_rng(36)
        w = rng.uniform(0.5, 1.5, n)
        prob = problem(conjugated_family(16, n, seed=37), (w / w.sum()).tolist())
        assert [G.shape[2] for G in prob.block_factors] == [0, 1, 2, 4]
        roots = barycentre._gather(sqrt_psd(dense_mean(prob)), prob.blocks)
        lapack_calls.clear()
        means = barycentre._mean_inner_root(roots, prob.block_factors, prob.weights)
        assert lapack_calls["svd"] == 0
        for G, root, mean in list(zip(prob.block_factors, roots, means))[1:3]:
            expected = sum(wi * P for wi, P in zip(prob.weights, linalg.polar(G @ root)))
            assert np.array_equal(mean, expected)

    def test_scalar_inputs_are_summed_in_input_order(self):
        # (n, 1, 1, 1) stacks: a plain reduction over the inputs would be pairwise
        rng = np.random.default_rng(33)
        n = 300
        w = rng.uniform(0.5, 1.5, n)
        inputs = [np.array([[x]]) for x in rng.uniform(0.1, 9.0, n)]
        prob = problem(inputs, (w / w.sum()).tolist())
        root = np.array([[1.7]])
        expected = sum(wi * congruence_sqrt(root, S)
                       for wi, S in zip(prob.weights, inputs))
        assert np.array_equal(dense_mean_inner_root(root, prob), expected)

    def test_stack_of_one_has_the_bits_of_one_matrix(self):
        rng = np.random.default_rng(32)
        S = random_psd(rng, 16, rank=5)
        root = sqrt_psd(random_psd(rng, 16))
        X = psd_factor(S) @ root
        single = congruence_sqrt(root, S)
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
        root = sqrt_psd(sum(inputs) / n)
        mean = dense_mean_inner_root(root, prob)
        expected = sum(wi * linalg.polar(F @ root) for wi, F in zip(prob.weights, G[:, 0]))
        assert np.array_equal(mean, expected)
        square = sum(wi * congruence_sqrt(root, S)
                     for wi, S in zip(prob.weights, inputs))
        assert np.linalg.norm(mean - square) <= 1e-13 * np.linalg.norm(square)

    def test_stacked_svds_take_the_trimmed_operands(self, lapack_calls):
        dim = 32
        block = barycentre._block_size(dim)
        prob = problem(conjugated_family(dim, block + 6, seed=39))
        cov = build_covariance(TruncationConfig(dim=dim))
        lapack_calls.clear()
        verify_barycentre_certificate(cov, prob)
        # one stacked polar per group of chain lengths, over every chain of
        # those lengths in every input; a chain of length L has rank L - 1
        # (its first index is odd, so C vanishes there), and the length-1
        # chains are all zero.  Their 8 (block + 6) blocks step alone, and
        # lengths 2 and 3 keep at most two rows and take polar's Jacobi route,
        # so only lengths 4 and 6 reach the SVD, zero-padded into one stack
        assert lapack_calls.shapes["svd"] == [(block + 6, 2, 5, 6)]
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


class TestInputOrderChecks:
    """The inputs are checked in input order; the first bad one raises its own check's error."""

    DIM = 32

    @pytest.mark.parametrize("kind", ["non-square", "empty", "nan", "inf", "asymmetric",
                                      "wrong dim", "not PSD"])
    @pytest.mark.parametrize("where", ["first", "middle", "end"])
    def test_bad_input_raises_its_own_error(self, kind, where):
        rng = np.random.default_rng(90)
        block = barycentre._block_size(self.DIM)
        n = 2 * block + 5
        inputs = conjugated_family(self.DIM, n, seed=91)
        at = {"first": 0, "middle": block + 7, "end": 2 * block + 3}[where]
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
        # residual exceeds PSD_TOL max diag, so the rule decides, and accepts;
        # the eigenvalues are taken block by block, one eigvalsh per block size
        c = np.sqrt(0.5)
        Q = np.array([[c, -c], [c, c]])
        M = np.zeros((4, 4))
        M[:2, :2] = Q @ np.diag([20.0, -1.5e-7]) @ Q.T
        M[2, 2], M[3, 3] = 5.0, 3.0
        lapack_calls.clear()
        prob = problem([np.diag([1.0, 2.0, 3.0, 4.0]), M])
        assert lapack_calls["eigvalsh"] == 2 and lapack_calls["pstrf"] == 0
        assert [idx.shape for idx in prob.blocks] == [(2, 1), (1, 2)]

    def test_block_diagonal_input_is_decomposed_block_by_block(self, lapack_calls):
        # a not-PSD input on blocks of sizes 1 and 3: the rule reads the
        # eigenvalues of its blocks, and no d x d eigvalsh is made
        M = np.zeros((7, 7))
        M[:3, :3] = [[2.0, 1.0, 0.0], [1.0, 2.0, 1.0], [0.0, 1.0, -0.5]]
        M[3:6, 3:6] = np.eye(3)
        M[6, 6] = 4.0
        w_min = np.linalg.eigvalsh(M[:3, :3])[0]
        lapack_calls.clear()
        with pytest.raises(NotPSD, match=f"smallest eigenvalue {w_min:.3e} below"):
            problem([np.eye(7), M])
        assert lapack_calls.shapes["eigvalsh"] == [(4, 1, 1), (1, 3, 3)]


class TestBlockFactorAccuracy:
    """Each chain block stops at its own rule, so the graded tail of the pair is kept."""

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


def dense_stacks(inputs):
    """The diagonal blocks of dense inputs along their components, as the problem gathers them."""
    X = np.stack(inputs)
    blocks = barycentre._components((X != 0).any(axis=0))
    return blocks, barycentre._gather(X, blocks)


def graded_input(last):
    """blockdiag(B, A): ``B = [[1, 1/2], [1/2, 1/4 + last]]`` and a random PSD ``4 x 4`` block ``A``.

    ``B``'s second pivot leaves ``last`` exactly, for ``|last|`` a small
    multiple of the unit roundoff.
    """
    M = np.zeros((6, 6))
    M[:2, :2] = [[1.0, 0.5], [0.5, 0.25 + last]]
    M[2:, 2:] = random_psd(np.random.default_rng(44), 4)
    return M


class TestJoinedFactor:
    """Block sizes joined into one zero-padded stack have the bits of one call per size."""

    @staticmethod
    def recorded(monkeypatch):
        shapes, factor = [], linalg.pivoted_cholesky
        monkeypatch.setattr(linalg, "pivoted_cholesky",
                            lambda A, sizes=None: shapes.append(A.shape) or factor(A, sizes))
        return shapes

    @pytest.mark.parametrize("dim", [32, 64, 128, 512, 1024])
    def test_dense_pair(self, dim, monkeypatch):
        _, s1, s2 = constructed_triple(dim)
        shapes = self.recorded(monkeypatch)
        prob = problem([s1, s2])
        blocks, stacks = dense_stacks([s1, s2])
        expected = reference_proved_factors(stacks)
        assert len(prob.block_factors) == len(expected) == len(blocks)
        assert all(np.array_equal(G, F) for G, F in zip(prob.block_factors, expected))
        # at dim 1024 the 256 chains of length 1 would take the padded stack
        # to 2 * 512 blocks of order 11, past _block_size(11) = 541, so they
        # stand alone beside the joined remainder; below, one stack
        k = sum(len(idx) for idx in blocks)
        if dim == 1024:
            assert shapes == [(2, 256, 1, 1), (2, k - 256, 11, 11)]
        else:
            assert shapes == [(2, k, blocks[-1].shape[1], blocks[-1].shape[1])]

    @pytest.mark.parametrize("case", ["random blocks", "monte carlo", "chain pair 2048"])
    def test_solver_start(self, case, monkeypatch):
        if case == "random blocks":
            prob = random_block_family()
        elif case == "monte carlo":
            prob = mc_problem(1000, seed=1)
        else:
            prob = pair_factors(2048)
        stacks = [S[None] for S in barycentre._mean(prob)]
        shapes = self.recorded(monkeypatch)
        K = barycentre._proved_factors(stacks, prob.blocks)
        monkeypatch.undo()
        expected = reference_proved_factors(stacks)
        assert all(np.array_equal(G, F) for G, F in zip(K, expected))
        if case == "chain pair 2048":
            # the 256 chains of length 2 would take the stack padded to 12
            # to 512 blocks, past _block_size(12) = 455: they and the 512
            # chains of length 1 stand alone
            assert shapes == [(1, 256, 2, 2), (1, 512, 1, 1), (1, 256, 12, 12)]
        else:
            assert len(shapes) == 1

    def test_random_block_family_from_dense_inputs(self):
        family = random_block_family()
        inputs = [barycentre._scatter([np.swapaxes(G[i], -1, -2) @ G[i] for G in family.block_factors],
                                      family.blocks, family.dim) for i in range(3)]
        prob = problem(inputs)
        _, stacks = dense_stacks(inputs)
        assert all(np.array_equal(G, F)
                   for G, F in zip(prob.block_factors, reference_proved_factors(stacks)))

    def test_graded_block_stops_at_its_own_order(self):
        # the 2 x 2 block's last pivot, 3u, is above its own stop 2 u max diag
        # and below the stop 4 u max diag of the order it is padded to
        u = np.finfo(float).eps / 2
        M = graded_input(3 * u)
        prob = problem([M])
        _, stacks = dense_stacks([M])
        assert [S.shape[-1] for S in stacks] == [2, 4]
        _, rank = linalg.pivoted_cholesky(barycentre._pad(stacks))
        assert rank[0].tolist() == [1, 4]  # what the padded order's rule would keep
        assert [G.shape[2] for G in prob.block_factors] == [2, 4]
        assert all(np.array_equal(G, F)
                   for G, F in zip(prob.block_factors, reference_proved_factors(stacks)))

    def test_not_psd_input_raises_the_reference_message(self):
        M = graded_input(-1e-3)
        _, stacks = dense_stacks([M])
        with pytest.raises(NotPSD) as expected:
            reference_proved_factors(stacks)
        with pytest.raises(NotPSD) as joined:
            problem([M])
        assert str(joined.value) == str(expected.value)

    def test_chain_start_memory(self):
        # dim 16384: the chain lengths 1 to 5 stand alone and the 256 longer
        # chains are joined, padded to the longest chain's 15; the peak reads
        # 1.4 MiB, and joining every length would read about 34 MiB
        prob = barycentre.BarycentreProblem.from_block_factors(
            *construct.chain_factors(TruncationConfig(dim=16384, decay=0.98), (0.5, -0.5)))
        stacks = [S[None] for S in barycentre._mean(prob)]
        K, peak = traced(lambda: barycentre._proved_factors(stacks, prob.blocks))
        assert peak <= 8 * 2**20
        assert all(np.array_equal(G, F) for G, F in zip(K, reference_proved_factors(stacks)))

    def test_dense_block_beside_isolated_coordinates(self, monkeypatch):
        # a 128 x 128 block and 255 coordinates of their own: padding the
        # 2 * 255 blocks of order 1 to 128 would take 64 MiB, so each size
        # has its call, as in the per-size loop, and its memory
        rng, d = np.random.default_rng(45), 128 + 255
        inputs = []
        for _ in range(2):
            M = np.diag(rng.uniform(0.5, 1.5, d))
            M[:128, :128] = random_psd(rng, 128)
            inputs.append(M)
        blocks, stacks = dense_stacks(inputs)
        shapes = self.recorded(monkeypatch)
        K, peak = traced(lambda: barycentre._proved_factors(stacks, blocks))
        monkeypatch.undo()
        expected, reference_peak = traced(lambda: reference_proved_factors(stacks))
        assert sorted(shapes) == [(2, 1, 128, 128), (2, 255, 1, 1)]
        assert all(np.array_equal(G, F) for G, F in zip(K, expected))
        assert peak <= 1.5 * reference_peak


def traced(fn):
    """``fn()`` and the ``tracemalloc`` peak of the call, in bytes."""
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


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
        start, dense_start = dense_mean(factored), dense_mean(dense)
        assert np.linalg.norm(start - dense_start) <= 1e-15 * np.linalg.norm(dense_start)
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
        start, dense_start = dense_mean(factored), dense_mean(dense)
        assert np.linalg.norm(start - dense_start) <= 1e-15 * np.linalg.norm(dense_start)
        assert abs(factored.input_trace - dense.input_trace) <= 1e-15 * dense.input_trace
        assert np.array_equal(start, start.T)

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
        dense = barycentre_fixed_point(problem([s1, s2]))
        factored = barycentre_fixed_point(pair_factors(dim))
        assert factored.iterations == dense.iterations
        assert abs(factored.frechet_value - dense.frechet_value) <= 1e-13 * dense.frechet_value
        assert np.linalg.norm(factored.barycentre - cov) <= 1e-9 * np.linalg.norm(cov)

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
    """The problem keeps each input only as its block factors, and the trace the passes read."""

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
            "weights", "settings", "blocks", "block_factors", "input_trace"]

    def test_sums_have_the_bits_of_the_symmetrized_inputs(self):
        inputs, weights = self.family()
        prob = problem(inputs, weights)
        sym = [linalg.check_symmetric(S) for S in inputs]
        assert not np.array_equal(sym[7], inputs[7])
        assert prob.input_trace == sum(w * float(np.trace(S)) for w, S in zip(prob.weights, sym))

    def test_factored_problem_holds_no_dense_array(self):
        # one dense d x d matrix alone takes 128 MiB at dim 4096
        tracemalloc.start()
        try:
            prob = barycentre.BarycentreProblem.from_block_factors(
                *construct.chain_factors(TruncationConfig(dim=4096, decay=0.999), (0.5, -0.5)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20
        assert prob.dim == 4096
        assert not hasattr(prob, "mean")

    def test_default_start_solve_forms_no_dense_array_but_its_result(self, monkeypatch):
        # the result alone takes 32 MiB at dim 2048; the start is built, and
        # factored, block by block, and is not checked as outside input is
        prob = pair_factors(2048)
        calls = [0]
        check_symmetric = barycentre.check_symmetric

        def counting(M):
            calls[0] += 1
            return check_symmetric(M)

        monkeypatch.setattr(barycentre, "check_symmetric", counting)
        tracemalloc.start()
        try:
            res = barycentre_fixed_point(prob)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.converged and res.barycentre.shape == (2048, 2048)
        assert peak <= 40 * 2**20
        assert calls[0] == 0
        barycentre_fixed_point(prob, init=res.barycentre)
        assert calls[0] == 1

    @pytest.mark.parametrize("case", ["monte carlo", "dense pair"])
    def test_default_start_is_the_factors_mean(self, case):
        if case == "monte carlo":
            prob = mc_problem(1000, seed=1)
        else:
            _, s1, s2 = constructed_triple(64)
            prob = problem([s1, s2])
        M = np.zeros((prob.dim, prob.dim))
        for idx, G in zip(prob.blocks, prob.block_factors):
            X = np.tensordot(prob.weights, np.swapaxes(G, -1, -2) @ G, axes=1)
            M[idx[:, :, None], idx[:, None, :]] = (X + np.swapaxes(X, -1, -2)) / 2.0
        default, started = barycentre_fixed_point(prob), barycentre_fixed_point(prob, init=M)
        assert np.array_equal(default.barycentre, started.barycentre)
        assert default.history == started.history
        assert default.certificate_residual == started.certificate_residual
        assert default.frechet_value == started.frechet_value

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
        maps = [np.eye(32) + a * symmetrized_shift(32) for a in np.linspace(-0.5, 0.5, 5)]
        assert as_sets(problem([conjugate(T, cov) for T in maps]).blocks) == chain_sets(32)
        assert as_sets(problem(conjugated_family(32, 50, seed=60)).blocks) == chain_sets(32)
        # the +-1 similarity the pair-recovery benchmark applies keeps the pattern
        _, s1, s2 = constructed_triple(64)
        d = np.random.default_rng(61).choice([-1.0, 1.0], size=64)
        flip = np.outer(d, d)
        assert as_sets(problem([flip * s1, flip * s2]).blocks) == chain_sets(64)

    @pytest.mark.parametrize("dim", [32, 64, 128])
    def test_rotated_pair_reaches_the_barycentre(self, dim):
        # the chain blocks and the one dense block of Q S Q^T, default
        # settings: both runs reach C within 1e-9, and stop
        cov, s1, s2 = constructed_triple(dim)
        Q, rot = rotated([cov, s1, s2], seed=dim)
        split, dense = problem([s1, s2]), problem(rot[1:])
        assert len(split.blocks) > 1 and len(dense.blocks) == 1
        a, b = barycentre_fixed_point(split), barycentre_fixed_point(dense)
        assert a.converged and b.converged and a.monotone and b.monotone
        assert np.linalg.norm(a.barycentre - cov) <= 1e-9 * np.linalg.norm(cov)
        assert np.linalg.norm(Q.T @ b.barycentre @ Q - cov) <= 1e-9 * np.linalg.norm(cov)
        assert verify_barycentre_certificate(cov, split) <= 1e-13
        assert verify_barycentre_certificate(rot[0], dense) <= 1e-13
        assert frechet_functional(cov, split) == pytest.approx(
            frechet_functional(rot[0], dense), rel=1e-10)

    def test_rotated_monte_carlo_family_gives_the_same_barycentre(self):
        inputs = conjugated_family(32, 50, seed=62)
        Q, rot = rotated(inputs, seed=63)
        split, dense = problem(inputs), problem(rot)
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
        _, blocks, _ = barycentre._on_blocks(prob, candidate)
        assert [idx.shape for idx in blocks] == [(1, 32)]
        root = sqrt_psd(candidate)
        mid = sum(w * congruence_sqrt(root, S) for w, S in zip(prob.weights, inputs))
        expected = np.linalg.norm(mid - candidate) / max(1.0, np.linalg.norm(candidate))
        assert expected > 1e-4
        assert verify_barycentre_certificate(candidate, prob) == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize("reach", ["two chains", "dense"])
    def test_joined_factor_is_the_row_stack_of_its_parts(self, reach):
        _, s1, s2 = constructed_triple(32)
        prob = problem([s1, s2])
        M = np.ones((32, 32)) if reach == "dense" else np.eye(32)
        M[1, 2] = M[2, 1] = 1.0  # joins the chains of 1 and 3 (1-based indices 2 and 3)
        _, blocks, factors = barycentre._on_blocks(prob, M)
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
        settings = SolverSettings(tol=1e-300, max_iter=5)
        Q, rot = rotated([init, s1, s2], seed=65)
        a = barycentre_fixed_point(problem([s1, s2], settings=settings), init=init)
        b = barycentre_fixed_point(problem(rot[1:], settings=settings), init=rot[0])
        X = Q.T @ b.barycentre @ Q
        assert abs(a.barycentre[1, 2]) > 1e-6
        assert np.linalg.norm(a.barycentre - X) <= 1e-9 * np.linalg.norm(X)

    def test_small_block_beside_a_large_one_is_kept(self):
        # a 2x2 block with eigenvalues 1.5e-10 and 0.5e-10 beside a 1x1 block
        # of 1e6: each block's factor stops by its own scale, and the factor
        # update has no cutoff, so the single input is its own barycentre
        S = np.zeros((3, 3))
        S[0, 0] = 1e6
        S[1:, 1:] = [[1e-10, 0.5e-10], [0.5e-10, 1e-10]]
        prob = problem([S])
        assert [idx.shape for idx in prob.blocks] == [(1, 1), (1, 2)]
        res = barycentre_fixed_point(prob)
        assert res.converged
        assert res.barycentre[0, 0] == pytest.approx(1e6, rel=1e-15)
        np.testing.assert_allclose(res.barycentre[1:, 1:], S[1:, 1:], rtol=1e-14)

    @pytest.mark.parametrize("entry, anchor, whole", [(-0.0, 0.0, False), (5e-324, 1e-300, True)])
    def test_partition_decision_is_exact(self, entry, anchor, whole):
        # an off-block -0.0 is a zero, and a subnormal is a nonzero: each
        # takes the path, and gives the bits, of its unambiguous anchor
        cov, s1, s2 = constructed_triple(32)
        prob = problem([s1, s2])
        values = []
        for x in (entry, anchor):
            candidate = cov.copy()
            candidate[1, 2] = candidate[2, 1] = x  # joins the chains of 1 and 3
            _, blocks, _ = barycentre._on_blocks(prob, candidate)
            assert (blocks is not prob.blocks) == whole
            values.append((verify_barycentre_certificate(candidate, prob).hex(),
                           frechet_functional(candidate, prob).hex()))
        assert values[0] == values[1]
        assert (values[0][0] != verify_barycentre_certificate(cov, prob).hex()) == whole

    def test_psd_floor_is_global(self):
        # the floor is -PSD_TOL * max(1, lam_max) with lam_max over all blocks:
        # 10 on the chain of 1, so a block (the chain of 3) whose own floor
        # would be -PSD_TOL passes at -5e-8 and fails at -2e-7
        cov, s1, s2 = constructed_triple(16)
        prob = problem([s1, s2])
        candidate = cov.copy()
        candidate[1, 1] = 10.0
        candidate[2, 2] = -5e-8
        assert len(barycentre._on_blocks(prob, candidate)[1]) > 1
        verify_barycentre_certificate(candidate, prob)
        candidate[2, 2] = -2e-7
        with pytest.raises(NotPSD, match="smallest eigenvalue -2.000e-07 below PSD tolerance"):
            verify_barycentre_certificate(candidate, prob)
        with pytest.raises(NotPSD, match="below PSD tolerance"):
            frechet_functional(candidate, prob)
        # an input is checked whole by its factor, under the same rule
        with pytest.raises(NotPSD, match="smallest eigenvalue -2.000e-07 below PSD tolerance"):
            problem([s1, candidate])
