"""Random map draws and the Monte-Carlo population experiment."""

import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bwbary import (
    InvalidInput,
    RandomMapLaw,
    TruncationConfig,
    build_covariance,
    build_pair_maps,
    conjugate,
    draw_coefficients,
    population_mc_experiment,
    problem,
    random_map_sample,
    symmetrized_shift,
    verify_barycentre_certificate,
)
from bwbary import randomized
from helpers import reference_coefficients, reference_map_coefficient


class TestLawsAndDraws:
    def test_bad_law_name(self):
        with pytest.raises(InvalidInput):
            RandomMapLaw("gaussian")

    def test_sample_dim_must_be_an_integer(self):
        with pytest.raises(InvalidInput, match="dim must be an integer >= 2"):
            random_map_sample(RandomMapLaw("uniform"), 0, 8.0)

    def test_draws_are_deterministic(self):
        law = RandomMapLaw("uniform")
        a = draw_coefficients(law, seed=123, n=50)
        b = draw_coefficients(law, seed=123, n=50)
        np.testing.assert_array_equal(a, b)
        c = draw_coefficients(law, seed=124, n=50)
        assert not np.array_equal(a, c)

    def test_supports(self):
        for name in ("uniform", "triangular"):
            a = draw_coefficients(RandomMapLaw(name), seed=7, n=500)
            assert np.all(np.abs(a) <= 0.5)
        a = draw_coefficients(RandomMapLaw("two-point"), seed=7, n=500)
        assert set(np.unique(a)) == {-0.5, 0.5}

    def test_antithetic_mean_is_exactly_zero(self):
        a = draw_coefficients(RandomMapLaw("uniform"), seed=9, n=100, antithetic=True)
        assert np.sum(a) == 0.0
        np.testing.assert_array_equal(a[0::2], -a[1::2])

    def test_antithetic_needs_even_n(self):
        with pytest.raises(InvalidInput):
            draw_coefficients(RandomMapLaw("uniform"), seed=9, n=5, antithetic=True)

    def test_sampled_map_is_psd_average_identity_family(self):
        T = random_map_sample(RandomMapLaw("uniform"), seed=11, dim=16)
        assert np.linalg.eigvalsh(T)[0] >= -1e-12
        # the matching mirrored draw restores the identity on average
        a = (T - np.eye(16))[1, 0]
        mirrored = np.eye(16) - a * symmetrized_shift(16)
        np.testing.assert_allclose((T + mirrored) / 2, np.eye(16), atol=1e-15)

    def test_two_point_draw_hits_pair_map(self):
        # find one positive draw; it must equal the first of the PSD pair
        law = RandomMapLaw("two-point")
        for seed in range(20):
            T = random_map_sample(law, seed=seed, dim=8)
            if T[1, 0] > 0:
                np.testing.assert_array_equal(T, build_pair_maps(8)[0])
                break
        else:
            pytest.fail("no positive two-point draw in 20 seeds")

    @pytest.mark.parametrize("seed", [1.5, -1, True, "3", None])
    def test_seed_must_be_a_nonnegative_integer(self, seed):
        law = RandomMapLaw("uniform")
        for call in (lambda: draw_coefficients(law, seed, 4),
                     lambda: random_map_sample(law, seed, 8),
                     lambda: population_mc_experiment(TruncationConfig(dim=8), law, 4, seed)):
            with pytest.raises(InvalidInput, match="seed must be an integer >= 0"):
                call()

    def test_numpy_integer_seed_draws_as_its_value(self):
        law = RandomMapLaw("triangular")
        np.testing.assert_array_equal(draw_coefficients(law, np.int64(5), 6),
                                      draw_coefficients(law, 5, 6))

    def test_sample_mean_clt_bound(self):
        # var(a) = 1/12 for the uniform law; 3-sigma entrywise bound on the
        # nonzero diagonals of mean(T) - I at n = 10^4
        n = 10_000
        a = draw_coefficients(RandomMapLaw("uniform"), seed=2024, n=n)
        abar = float(np.mean(a))
        assert abs(abar) <= 3.0 * (1.0 / np.sqrt(12.0)) / np.sqrt(n)


# seeds of more 32-bit words than SeedSequence's 4-word pool, and numpy's
# 64-bit range
WIDE_SEEDS = st.one_of(st.integers(0, 2**64 - 1), st.sampled_from([2**64, 2**128 + 5, 2**200 + 3]))

# SHA-256 of draw_coefficients(law, seed, 1000).tobytes(), as numpy's
# per-stream generators drew them: CI's Monte-Carlo (law, seed) pairs
PINNED_DIGESTS = {
    ("uniform", 1): "15b62093a2643e1cb6cd4d37e3bc149a67f87e24ea6a69513b31fe6eaa80875d",
    ("two-point", 113): "a228a8d65d99d257744da89589a81cd3d858c4613c2b6f683662acbe333b5154",
    ("triangular", 1): "14ccf227b6f5c24144e74e1020ecb6e858ef6bb90ca710fcc12ce969e69597a0",
}


class TestVectorisedStreams:
    """The one vectorised pass draws the bits of one numpy generator per stream."""

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(randomized.LAWS), WIDE_SEEDS, st.integers(1, 64), st.booleans())
    def test_coefficients_match_the_per_stream_reference(self, name, seed, streams, antithetic):
        law = RandomMapLaw(name)
        n = 2 * streams if antithetic else streams
        got = draw_coefficients(law, seed, n, antithetic)
        assert got.tobytes() == reference_coefficients(law, seed, n, antithetic).tobytes()

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(randomized.LAWS), WIDE_SEEDS)
    def test_sampled_map_matches_the_unspawned_reference(self, name, seed):
        law = RandomMapLaw(name)
        a = reference_map_coefficient(law, seed)
        expected = np.eye(8) + a * symmetrized_shift(8)
        assert random_map_sample(law, seed, 8).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("antithetic", [False, True])
    @pytest.mark.parametrize(("name", "seed"), list(PINNED_DIGESTS))
    def test_thousand_draws_match_the_per_stream_reference(self, name, seed, antithetic):
        law = RandomMapLaw(name)
        got = draw_coefficients(law, seed, 1000, antithetic)
        assert got.tobytes() == reference_coefficients(law, seed, 1000, antithetic).tobytes()

    @pytest.mark.parametrize(("name", "seed"), list(PINNED_DIGESTS))
    def test_thousand_draws_keep_their_pinned_digest(self, name, seed):
        got = draw_coefficients(RandomMapLaw(name), seed, 1000)
        assert hashlib.sha256(got.tobytes()).hexdigest() == PINNED_DIGESTS[name, seed]

    @pytest.mark.parametrize("seed", [0, 5, 2**64 - 1, 2**200 + 3])
    def test_keys_up_to_the_last_one_word_spawn_index(self, seed):
        spawn = np.array([0, 1, 2**31, 2**32 - 1], dtype=np.uint64)
        key0, key1 = randomized._stream_keys(seed, spawn)
        for j, index in enumerate(spawn.tolist()):
            expected = np.random.SeedSequence(seed, spawn_key=(index,)).generate_state(2, np.uint64)
            assert (int(key0[j]), int(key1[j])) == tuple(expected.tolist())

    def test_more_streams_than_one_word_spawn_indices_are_refused(self, monkeypatch):
        # the bound is checked before any stream is drawn: 2**32 + 1 streams
        # would need 32 GiB for their coefficients alone
        def no_draw(*args):
            raise AssertionError("drew streams")

        monkeypatch.setattr(randomized, "_draws", no_draw)
        law = RandomMapLaw("uniform")
        with pytest.raises(InvalidInput, match="at most 2\\*\\*32 streams"):
            draw_coefficients(law, 1, 2**32 + 1)
        with pytest.raises(InvalidInput, match="at most 2\\*\\*32 streams"):
            draw_coefficients(law, 1, 2**33 + 2, antithetic=True)


class TestPopulationExperiment:
    def test_needs_two_draws(self):
        config = TruncationConfig(dim=8)
        with pytest.raises(InvalidInput):
            population_mc_experiment(config, RandomMapLaw("uniform"), n=1, seed=0)

    def test_draw_count_must_be_an_integer(self):
        # 2.5 passes a bare n >= 2 comparison, but a draw takes a whole
        # number of streams
        law = RandomMapLaw("uniform")
        with pytest.raises(InvalidInput, match="n must be an integer >= 2"):
            population_mc_experiment(TruncationConfig(dim=8), law, 2.5, 0)
        with pytest.raises(InvalidInput, match="n must be an integer >= 1"):
            draw_coefficients(law, 0, 2.5)

    def test_antithetic_two_point_reduces_to_deterministic_pair(self):
        dim = 16
        config = TruncationConfig(dim=dim)
        report = population_mc_experiment(
            config, RandomMapLaw("two-point"), n=2, seed=3, antithetic=True
        )
        assert report.mean_deviation == 0.0
        assert report.certificate_residual <= 1e-9
        cov = build_covariance(config)
        t1, t2 = build_pair_maps(dim)
        expected = verify_barycentre_certificate(
            cov, problem([conjugate(t1, cov), conjugate(t2, cov)])
        )
        assert report.certificate_residual == pytest.approx(expected, abs=1e-12)

    def test_uniform_experiment_report(self):
        config = TruncationConfig(dim=16)
        report = population_mc_experiment(config, RandomMapLaw("uniform"), n=64, seed=5)
        assert report.n == 64 and report.dim == 16
        assert report.coefficients.shape == (64,)
        # residual tracks the empirical mean deviation scale
        assert report.certificate_residual <= report.mean_deviation
        assert report.solver.converged
        assert np.all(np.isfinite(report.solver.barycentre))

    def test_mean_deviation_is_that_of_the_summed_maps(self):
        # (sum_i T_i) / n - I, with the maps summed in draw order, has the
        # bits of the mean coefficient times F + F^T
        config = TruncationConfig(dim=16)
        shift = symmetrized_shift(16)
        for name in ("uniform", "two-point", "triangular"):
            report = population_mc_experiment(config, RandomMapLaw(name), n=40, seed=8)
            maps = sum(np.eye(16) + a * shift for a in report.coefficients) / 40
            assert report.mean_deviation == float(np.linalg.norm(maps - np.eye(16)))

    def test_memory_is_that_of_the_factors(self):
        # 1,000 dim-32 inputs as their chain-block factors; as dense products
        # T C T the peak was 10.6 MiB
        population_mc_experiment(TruncationConfig(dim=8), RandomMapLaw("uniform"), n=4, seed=0)
        tracemalloc.start()
        try:
            population_mc_experiment(TruncationConfig(dim=32), RandomMapLaw("uniform"),
                                     n=1000, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2**20

    def test_experiment_is_reproducible(self):
        config = TruncationConfig(dim=8)
        r1 = population_mc_experiment(config, RandomMapLaw("triangular"), n=16, seed=42)
        r2 = population_mc_experiment(config, RandomMapLaw("triangular"), n=16, seed=42)
        np.testing.assert_array_equal(r1.coefficients, r2.coefficients)
        assert r1.certificate_residual == r2.certificate_residual
        assert r1.mean_deviation == r2.mean_deviation

    @pytest.mark.parametrize("seed", [1, 2, 113])
    @pytest.mark.parametrize("law", ["uniform", "two-point", "triangular"])
    def test_solver_reaches_the_exact_empirical_barycentre(self, law, seed):
        # the maps T_a = I + a (F + F^T) commute and their mean T̄ is positive
        # definite, so T̄ C T̄ is the empirical family's barycentre (the
        # compatible case of Boissard, Le Gouic & Loubes 2015)
        config = TruncationConfig(dim=32)
        report = population_mc_experiment(config, RandomMapLaw(law), n=1000, seed=seed)
        mean_map = np.eye(32) + np.mean(report.coefficients) * symmetrized_shift(32)
        exact = conjugate(mean_map, build_covariance(config))
        assert report.solver.converged and report.solver.monotone
        error = np.linalg.norm(report.solver.barycentre - exact) / np.linalg.norm(exact)
        assert error <= 1e-9
        assert report.exact_barycentre_error == pytest.approx(error, rel=1e-2)

    @pytest.mark.parametrize("law, seed, antithetic", [
        ("uniform", 1, False), ("two-point", 1, False), ("triangular", 1, False),
        ("uniform", 2, True)])
    def test_solver_converges_at_dim_512(self, law, seed, antithetic):
        # at dim 512 some chains of length 4 start from a factor of 2 rows,
        # padded with zero rows to the 4 of their stack: their (3, 4) blocks
        # of G K^T have rank 2, so one row lies in the span of the others,
        # which Jacobi zeroes rather than sweeping to its cap
        report = population_mc_experiment(TruncationConfig(dim=512), RandomMapLaw(law),
                                          n=1000, seed=seed, antithetic=antithetic)
        assert report.solver.converged and report.solver.monotone
        assert report.exact_barycentre_error <= 1e-9

    @pytest.mark.parametrize("seed", [1, 2, 113])
    @pytest.mark.parametrize("law", ["uniform", "two-point", "triangular"])
    def test_certificate_of_an_exact_barycentre_is_at_rounding(self, law, seed):
        # antithetic pairs make the empirical map mean exactly I, so the base
        # covariance is the family's barycentre itself; its certificate reads
        # 3.8e-16 to 4.8e-16 on these runs
        config = TruncationConfig(dim=32)
        report = population_mc_experiment(config, RandomMapLaw(law), n=1000, seed=seed,
                                          antithetic=True)
        assert report.mean_deviation == 0.0
        assert report.certificate_residual <= 1e-15

    def test_exact_barycentre_error_is_that_of_the_summed_maps(self):
        # T̄ = I + mean(a) (F + F^T), the mean summed in draw order as for
        # mean_deviation, and the error relative to T̄ C T̄
        config = TruncationConfig(dim=16)
        report = population_mc_experiment(config, RandomMapLaw("triangular"), n=40, seed=9)
        mean = float(np.cumsum(report.coefficients)[-1]) / 40
        mean_map = np.eye(16) + symmetrized_shift(16) * mean
        exact = mean_map @ build_covariance(config) @ mean_map
        error = np.linalg.norm(report.solver.barycentre - exact) / np.linalg.norm(exact)
        assert report.exact_barycentre_error == float(error)
