"""Each public entry point checks each outside covariance once per call.

The check is the decomposition the entry point needs anyway, under the one
PSD rule of ``linalg.check_psd_floor``; counts come from the ``lapack_calls``
fixture.
"""

import numpy as np
import pytest

from bwbary import (
    BarycentreProblem,
    InvalidInput,
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
from bwbary import linalg
from bwbary.cli import main
from bwbary.construct import chain_factors
from bwbary.linalg import pivoted_cholesky


@pytest.mark.parametrize("evaluate", [verify_barycentre_certificate, frechet_functional])
def test_candidate_is_checked_by_its_root(evaluate, lapack_calls):
    cov = build_covariance(TruncationConfig(dim=16))
    t1, t2 = build_pair_maps(16)
    prob = problem([conjugate(t1, cov), conjugate(t2, cov)])
    lapack_calls.clear()
    evaluate(cov, prob)
    # one eigh per group of the candidate's blocks: the chains of lengths 1,
    # 2 and 3, which keep at most two factor rows, zero-padded into one
    # stack, and the chain of length 5
    assert lapack_calls.shapes["eigh"] == [(7, 3, 3), (1, 5, 5)]
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


def recorded_factors(monkeypatch) -> list:
    """The stack shapes of every ``linalg.pivoted_cholesky`` call from now on, in call order."""
    factored = []
    monkeypatch.setattr(linalg, "pivoted_cholesky",
                        lambda A, sizes=None: factored.append(A.shape) or pivoted_cholesky(A, sizes))
    return factored


def test_monte_carlo_checks_each_input_once(lapack_calls, monkeypatch):
    factored = recorded_factors(monkeypatch)
    n = 12
    report = population_mc_experiment(TruncationConfig(dim=8), RandomMapLaw(), n, seed=7)
    assert report.n == n
    # the problem takes each input as its exact chain-block factors, whose
    # one check is the boundary check of their values and shapes: no input
    # is factored, and none checked by its eigenvalues.  The only factors
    # is the solver's start: the mean's blocks of every chain length (the
    # dim-8 chains 5 and 7, 3-6 and 1-2-4-8), zero-padded into one stack
    assert factored == [(1, 4, 4, 4)]
    assert lapack_calls["pstrf"] == 0
    assert lapack_calls["eigvalsh"] == 0


def test_a_pair_recovery_factors_once_per_problem(monkeypatch):
    # the pairs at dims 64 and 128, each certified on one problem and solved
    # on another: every problem and each solver start factors its 6 or 7
    # chain lengths (39 calls, one per length, before they were joined) in
    # one padded stack, well within _block_size's budget
    factored = recorded_factors(monkeypatch)
    for dim in (64, 128):
        cov = build_covariance(TruncationConfig(dim=dim))
        inputs = [conjugate(t, cov) for t in build_pair_maps(dim)]
        verify_barycentre_certificate(cov, problem(inputs))
        barycentre_fixed_point(problem(inputs))
    assert factored == [(2, 32, 7, 7)] * 2 + [(1, 32, 7, 7)] + [(2, 64, 8, 8)] * 2 + [(1, 64, 8, 8)]


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


EYE = np.eye(2)

# each kind casts a valid real array to its dtype, so only the dtype is wrong
NOT_REAL = {
    "complex": lambda x: np.asarray(x, dtype=complex),
    "bool": lambda x: np.asarray(x, dtype=bool),
    "string": lambda x: np.asarray(x).astype(str),
    "object": lambda x: np.asarray(x, dtype=object),
}


def bad_block_factors(kind):
    blocks, factors = chain_factors(TruncationConfig(dim=8), (0.5, -0.5))
    return BarycentreProblem.from_block_factors(blocks, [kind(G) for G in factors])


@pytest.mark.parametrize("kind", NOT_REAL.values(), ids=NOT_REAL.keys())
@pytest.mark.parametrize("call", [
    lambda kind: bw_distance_sq(kind(EYE), EYE),
    lambda kind: optimal_map(EYE, kind(EYE)),
    lambda kind: problem([EYE, kind(EYE)]),
    lambda kind: problem([EYE, EYE], kind([1.0, 0.0])),
    bad_block_factors,
    lambda kind: verify_barycentre_certificate(kind(EYE), problem([EYE])),
    lambda kind: barycentre_fixed_point(problem([EYE]), init=kind(EYE)),
    lambda kind: linalg.kernel_basis(kind(EYE)),
    lambda kind: linalg.principal_angles(kind(EYE), EYE),
    lambda kind: chain_factors(TruncationConfig(dim=8), kind([0.0, 0.0])),
], ids=["bw_distance_sq", "optimal_map", "problem inputs", "problem weights",
        "from_block_factors", "certificate candidate", "solver init", "kernel_basis",
        "principal_angles", "chain_factors"])
def test_entries_that_are_not_real_numbers_are_rejected(call, kind):
    with pytest.raises(InvalidInput, match="real numbers"):
        call(kind)


RAGGED = [[1.0, 0.0], [0.0]]


@pytest.mark.parametrize("call", [
    lambda: linalg.check_real(RAGGED),
    lambda: problem([RAGGED]),
    lambda: problem([EYE, EYE], [[0.5], [0.25, 0.25]]),
    lambda: bw_distance_sq(RAGGED, EYE),
    lambda: verify_barycentre_certificate(RAGGED, problem([EYE])),
], ids=["check_real", "problem inputs", "problem weights", "bw_distance_sq",
        "certificate candidate"])
def test_ragged_nested_lists_are_rejected(call):
    # numpy itself raises a plain ValueError on an inhomogeneous shape
    with pytest.raises(InvalidInput, match="rectangular array"):
        call()


class TestCliChecksEachFileOnce:
    """Each matrix file is read without a check and checked by the code that uses it."""

    @pytest.fixture()
    def pair(self, tmp_path, lapack_calls, capsys):
        assert main(["construct", "--dim", "16", "--pair", "--out", str(tmp_path)]) == 0
        lapack_calls.clear()
        return tmp_path

    def test_construct(self, tmp_path, lapack_calls, capsys):
        # each conjugation's one check is conjugate()'s eigvalsh; the files are
        # not read back, and the kernels come from the maps
        for branch, conjugations in ((["--pair"], 2), (["--c", "2"], 1),
                                     (["--law", "uniform"], 1)):
            lapack_calls.clear()
            assert main(["construct", "--dim", "16", *branch,
                         "--out", str(tmp_path / branch[0].lstrip("-"))]) == 0
            counts = (lapack_calls["pstrf"], lapack_calls["eigh"], lapack_calls["eigvalsh"])
            assert counts == (0, 0, conjugations), branch

    def test_verify(self, pair, lapack_calls, capsys):
        assert main(["verify", "--candidate", str(pair / "sigma.json"),
                     "--inputs", str(pair / "s1.json"), str(pair / "s2.json")]) == 0
        # the inputs' stacked block factors in problem(), with no pstrf; the
        # candidate's eigh per group of chain lengths in the certificate
        assert lapack_calls["pstrf"] == 0
        assert lapack_calls["eigh"] == 2
        assert lapack_calls["eigvalsh"] == 0

    def test_barycentre_with_init(self, pair, lapack_calls, capsys):
        # started at the barycentre sigma, the solver converges within the two steps
        assert main(["barycentre", "--inputs", str(pair / "s1.json"), str(pair / "s2.json"),
                     "--init", str(pair / "sigma.json"), "--max-iter", "2",
                     "--out", str(pair / "bary.json")]) == 0
        # the inputs' stacked block factors in problem(), and --init's, with
        # no pstrf; the step decomposes no iterate, so the closing pass makes
        # the only eigh, one per group: the chains of lengths 2 and 3, and of
        # length 5 (those of length 1 keep no rows of sigma's factor)
        assert lapack_calls["pstrf"] == 0
        assert lapack_calls.shapes["eigh"] == [(3, 3, 3), (1, 5, 5)]
        assert lapack_calls["eigvalsh"] == 0
        assert "iterations=1 " in capsys.readouterr().out

    def test_sweep(self, tmp_path, lapack_calls, capsys):
        assert main(["sweep", "--dims", "8..32", "--out-csv", str(tmp_path / "s.csv")]) == 0
        # per dim: the inputs are their exact chain-block factors, with no
        # check and no factoring; sigma's eigh per group of chain lengths in
        # the certificate, two at each dim; the eigvalsh of min_eig_t1.  The
        # kernels come from the maps, with no eigh.
        assert lapack_calls["pstrf"] == 0
        assert lapack_calls["eigh"] == 2 * 3
        assert lapack_calls["eigvalsh"] == 1 * 3
