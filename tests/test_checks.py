"""Each public entry point checks each outside covariance once per call.

The check is the decomposition the entry point needs anyway, under the one
PSD rule of ``linalg.check_psd_floor``; counts come from the ``lapack_calls``
fixture.
"""

import numpy as np
import pytest

from bwbary import (
    NotPSD,
    RandomMapLaw,
    TruncationConfig,
    barycentre_fixed_point,
    build_covariance,
    build_pair_maps,
    bw_distance_sq,
    conjugate,
    frechet_functional,
    optimal_map,
    population_mc_experiment,
    problem,
    verify_barycentre_certificate,
)
from bwbary.cli import main


@pytest.mark.parametrize("evaluate", [verify_barycentre_certificate, frechet_functional])
def test_candidate_is_checked_by_its_root(evaluate, lapack_calls):
    cov = build_covariance(TruncationConfig(dim=16))
    t1, t2 = build_pair_maps(16)
    prob = problem([conjugate(t1, cov), conjugate(t2, cov)])
    lapack_calls.clear()
    evaluate(cov, prob)
    assert lapack_calls["eigh"] == 1
    assert lapack_calls["eigvalsh"] == 0


def test_optimal_map_checks_its_source_by_its_decomposition(lapack_calls):
    rng = np.random.default_rng(40)
    G, H = rng.standard_normal((2, 6, 12))
    A, B = G @ G.T, H @ H.T
    lapack_calls.clear()
    optimal_map(A, B)
    # the source's eigh; the target's check is the pstrf its root needs
    assert lapack_calls["eigh"] == 1
    assert lapack_calls["eigvalsh"] == 0
    assert lapack_calls["pstrf"] == 1


def test_optimal_map_reads_the_kernel_limit_from_the_target_factor(lapack_calls):
    rng = np.random.default_rng(42)
    G = rng.standard_normal((16, 8))
    A = G @ G.T  # rank 8, so the kernel-inclusion test runs
    lapack_calls.clear()
    optimal_map(A, A @ A)
    # lam_max(B) = ||F_B||_2^2 from the target's (8, 16) factor, no eigvalsh of B
    assert lapack_calls["eigvalsh"] == 0
    assert lapack_calls.shapes["svd"][0] == (8, 16)


def test_distance_checks_each_argument_by_its_factor(lapack_calls):
    rng = np.random.default_rng(41)
    G, H = rng.standard_normal((2, 64, 32))
    A, B = G @ G.T, H @ H.T
    lapack_calls.clear()
    bw_distance_sq(A, B)
    # one pstrf per argument is its check; the cross term's SVD is of the
    # product of the factors cut to their ranks
    assert lapack_calls["pstrf"] == 2
    assert lapack_calls.shapes["svd"] == [(32, 32)]
    assert lapack_calls["eigh"] == lapack_calls["eigvalsh"] == 0


def test_monte_carlo_checks_each_input_once(lapack_calls):
    n = 12
    report = population_mc_experiment(TruncationConfig(dim=8), RandomMapLaw(), n, seed=7)
    assert report.n == n
    assert lapack_calls["eigvalsh"] == 0
    assert lapack_calls["pstrf"] == n


NOT_PSD = np.diag([1.0, -1e-6])
PSD = np.diag([1.0, 0.5])


@pytest.mark.parametrize("call", [
    lambda: verify_barycentre_certificate(NOT_PSD, problem([PSD])),
    lambda: frechet_functional(NOT_PSD, problem([PSD])),
    lambda: optimal_map(NOT_PSD, PSD),
    lambda: barycentre_fixed_point(problem([PSD]), init=NOT_PSD),
], ids=["certificate", "frechet", "optimal_map", "solver_init"])
def test_not_psd_is_rejected(call):
    with pytest.raises(NotPSD):
        call()


class TestCliChecksEachFileOnce:
    """Each matrix file is read without a check and checked by the code that uses it."""

    @pytest.fixture()
    def pair(self, tmp_path, lapack_calls, capsys):
        assert main(["construct", "--dim", "16", "--pair", "--out", str(tmp_path)]) == 0
        lapack_calls.clear()
        return tmp_path

    def test_construct(self, tmp_path, lapack_calls, capsys):
        assert main(["construct", "--dim", "16", "--pair", "--out", str(tmp_path)]) == 0
        # each covariance read back (sigma, s1, s2) is checked by the eigh
        # behind its kernel_dim; the eigvalsh are conjugate()'s own checks
        assert lapack_calls["pstrf"] == 0
        assert lapack_calls["eigh"] == 3
        assert lapack_calls["eigvalsh"] == 2

    def test_verify(self, pair, lapack_calls, capsys):
        assert main(["verify", "--candidate", str(pair / "sigma.json"),
                     "--inputs", str(pair / "s1.json"), str(pair / "s2.json")]) == 0
        # one pstrf per input in problem(); the candidate's eigh in the certificate
        assert lapack_calls["pstrf"] == 2
        assert lapack_calls["eigh"] == 1
        assert lapack_calls["eigvalsh"] == 0

    def test_barycentre_with_init(self, pair, lapack_calls, capsys):
        # started at the barycentre sigma, the solver converges within the two steps
        assert main(["barycentre", "--inputs", str(pair / "s1.json"), str(pair / "s2.json"),
                     "--init", str(pair / "sigma.json"), "--max-iter", "2",
                     "--out", str(pair / "bary.json")]) == 0
        # one pstrf per input in problem(), one for --init in the solver
        assert lapack_calls["pstrf"] == 3
        assert lapack_calls["eigvalsh"] == 0
