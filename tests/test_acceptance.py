"""End-to-end verification suite.

One test per top-level guarantee, each printing a summary line (visible with
``pytest -s``).  Oracles used here are deliberately independent of the
library's code paths: the 2x2 distance uses the trace/determinant closed
form, the grid minimizer scans PSD parameter space directly, the 1-D
distance is integrated over the quantile coupling, and the commuting
closed form is cross-checked by brute-force minimization.
"""

import time

import numpy as np

from bwbary import (
    RandomMapLaw,
    RecurrenceParams,
    SolverSettings,
    TruncationConfig,
    barycentre_fixed_point,
    build_pair_maps,
    build_shift_map,
    bw_distance,
    bw_distance_sq,
    doubling_shift,
    frechet_functional,
    generating_coefficients,
    growth_witness,
    kernel_basis,
    kernel_dim,
    kernel_recurrence_solve,
    kernel_report,
    population_mc_experiment,
    principal_angles,
    problem,
    symmetrized_shift,
    verify_barycentre_certificate,
)
from helpers import constructed_triple, quantile_coupling_w2sq, random_psd

# Monte-Carlo regression bound, calibrated once at seed 42 (measured
# residual 6.470e-3 = 0.205/sqrt(n)) and frozen with headroom.
MC_RESIDUAL_C = 0.25


def _pass(name, detail):
    print(f"[PASS] {name}: {detail}")


# --------------------------------------------------------------------------
# independent oracles
# --------------------------------------------------------------------------

def bw2_closed_form(A, B):
    """2x2 squared distance from traces and determinants only."""
    tr_ab = A[0, 0] * B[0, 0] + 2.0 * A[0, 1] * B[0, 1] + A[1, 1] * B[1, 1]
    det_a = A[0, 0] * A[1, 1] - A[0, 1] ** 2
    det_b = B[0, 0] * B[1, 1] - B[0, 1] ** 2
    cross = tr_ab + 2.0 * np.sqrt(max(det_a, 0.0) * max(det_b, 0.0))
    return A[0, 0] + A[1, 1] + B[0, 0] + B[1, 1] - 2.0 * np.sqrt(max(cross, 0.0))


def grid_refine_frechet_min(inputs, weights, levels=6, npts=25):
    """Minimize the Fréchet functional over 2x2 PSD [[p, r], [r, q]] by a
    zooming grid; vectorized through the closed form above."""
    tmax = float(max(np.trace(S) for S in inputs))
    p_lo = q_lo = 0.0
    p_hi = q_hi = tmax
    r_lo, r_hi = -tmax, tmax
    best = (np.inf, 0.0, 0.0, 0.0)
    for _ in range(levels):
        p = np.linspace(p_lo, p_hi, npts)
        q = np.linspace(q_lo, q_hi, npts)
        r = np.linspace(r_lo, r_hi, npts)
        P, Q, R = np.meshgrid(p, q, r, indexing="ij")
        psd = (P >= 0) & (Q >= 0) & (P * Q >= R**2)
        F = np.zeros_like(P)
        for w, S in zip(weights, inputs):
            tr_s = S[0, 0] + S[1, 1]
            det_s = max(S[0, 0] * S[1, 1] - S[0, 1] ** 2, 0.0)
            tr_ab = P * S[0, 0] + 2.0 * R * S[0, 1] + Q * S[1, 1]
            det_a = np.clip(P * Q - R**2, 0.0, None)
            cross = tr_ab + 2.0 * np.sqrt(det_a * det_s)
            F += w * (P + Q + tr_s - 2.0 * np.sqrt(np.clip(cross, 0.0, None)))
        F = np.where(psd, F, np.inf)
        idx = np.unravel_index(np.argmin(F), F.shape)
        best = (float(F[idx]), float(P[idx]), float(Q[idx]), float(R[idx]))
        dp = 2.0 * (p_hi - p_lo) / (npts - 1)
        dq = 2.0 * (q_hi - q_lo) / (npts - 1)
        dr = 2.0 * (r_hi - r_lo) / (npts - 1)
        p_lo, p_hi = max(0.0, best[1] - dp), best[1] + dp
        q_lo, q_hi = max(0.0, best[2] - dq), best[2] + dq
        r_lo, r_hi = best[3] - dr, best[3] + dr
    return best[0]


# --------------------------------------------------------------------------
# criteria
# --------------------------------------------------------------------------

def test_generative_certificate_exactness():
    """The constructed family certifies its singular barycentre to 1e-9."""
    start = time.perf_counter()
    worst = 0.0
    for dim in (8, 16, 32, 64, 128):
        cov, s1, s2 = constructed_triple(dim)
        residual = verify_barycentre_certificate(cov, problem([s1, s2], [0.5, 0.5]))
        worst = max(worst, residual)
        assert residual <= 1e-9, f"dim {dim}: residual {residual:.3e}"
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _pass("certificate exactness", f"worst residual {worst:.3e} over dims 8..128 "
          f"({elapsed:.2f}s)")


def test_recurrence_oracle_equivalence():
    """Iterated recurrence and closed form agree termwise; zero seeds vanish;
    integer seeds with nonzero slope grow linearly."""
    start = time.perf_counter()
    rng = np.random.default_rng(1234)
    horizon = 30

    worst = 0.0
    for _ in range(1000):
        y0, y1 = rng.uniform(-10.0, 10.0, 2)
        sign = "plus" if rng.integers(2) else "minus"
        p = RecurrenceParams(float(y0), float(y1), sign, horizon)
        diff = np.abs(kernel_recurrence_solve(p) - generating_coefficients(p))
        worst = max(worst, float(diff.max()))
    assert worst <= 1e-9

    zero = kernel_recurrence_solve(RecurrenceParams(0.0, 0.0, "plus", horizon))
    assert np.all(zero == 0.0)
    assert growth_witness(RecurrenceParams(0.0, 0.0, "minus")).all_zero

    checked = 0
    while checked < 1000:
        y0, y1 = (float(v) for v in rng.integers(-10, 11, 2))
        sign = "plus" if rng.integers(2) else "minus"
        p = RecurrenceParams(y0, y1, sign, horizon)
        a, _ = p.affine_coefficients()
        if a == 0.0:
            continue
        y = kernel_recurrence_solve(p)
        assert abs(y[horizon]) >= horizon * abs(a) / 2.0, (y0, y1, sign)
        checked += 1

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _pass("recurrence oracle equivalence",
          f"worst termwise diff {worst:.3e}, 1000 growth seeds ({elapsed:.2f}s)")


def test_norm_bounds():
    """Shift norm exactly 1, symmetrization below 2, shifted map PSD below 4,
    and the pair sums to twice the identity bit-exactly."""
    start = time.perf_counter()
    for dim in (2, 3, 8, 17, 64, 256):
        assert abs(np.linalg.norm(doubling_shift(dim), 2) - 1.0) <= 1e-12
        assert np.linalg.norm(symmetrized_shift(dim), 2) <= 2.0 + 1e-12
        T = build_shift_map(dim, c=2.0)
        assert np.linalg.norm(T, 2) <= 4.0 + 1e-12
        assert np.linalg.eigvalsh(T)[0] >= -1e-12
        t1, t2 = build_pair_maps(dim)
        assert np.array_equal(t1 + t2, 2.0 * np.eye(dim))
    elapsed = time.perf_counter() - start
    _pass("norm bounds", f"dims up to 256 ({elapsed:.2f}s)")


def test_solver_vs_brute_force():
    """Fixed point matches a grid+refine minimizer on random 2x2 problems and
    the commuting closed form on diagonal problems."""
    start = time.perf_counter()
    rng = np.random.default_rng(77)

    worst_gap = 0.0
    for trial in range(60):
        n = 2 if trial < 50 else 3
        inputs = [random_psd(rng, 2) + 0.05 * np.eye(2) for _ in range(n)]
        weights = [1.0 / n] * n
        res = barycentre_fixed_point(problem(inputs, weights))
        f_solver = frechet_functional(res.barycentre, problem(inputs, weights))
        f_grid = grid_refine_frechet_min(inputs, weights)
        gap = abs(f_solver - f_grid)
        worst_gap = max(worst_gap, gap)
        assert gap <= 1e-4

    worst_comm = 0.0
    for _ in range(20):
        d = int(rng.integers(2, 9))
        n = int(rng.integers(2, 4))
        diags = rng.uniform(0.1, 9.0, size=(n, d))
        w = rng.uniform(0.2, 1.0, size=n)
        w = w / w.sum()
        expected = np.diag((w[:, None] * np.sqrt(diags)).sum(axis=0) ** 2)
        res = barycentre_fixed_point(problem([np.diag(x) for x in diags], w.tolist()))
        err = np.linalg.norm(res.barycentre - expected)
        worst_comm = max(worst_comm, err)
        assert err <= 1e-8

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _pass("solver vs brute force",
          f"worst grid gap {worst_gap:.3e}, worst commuting error {worst_comm:.3e} "
          f"({elapsed:.2f}s)")


def test_singular_recovery_end_to_end():
    """The ridge-decayed fixed point recovers the singular barycentre."""
    start = time.perf_counter()
    cov, s1, s2 = constructed_triple(32)
    settings = SolverSettings(ridge=1e-6, ridge_decay=0.5)
    res = barycentre_fixed_point(problem([s1, s2], [0.5, 0.5], settings))
    err = np.linalg.norm(res.barycentre - cov)
    assert err <= 1e-6, f"Frobenius error {err:.3e}"
    assert res.certificate_residual <= 1e-8
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _pass("singular recovery",
          f"error {err:.3e}, certificate {res.certificate_residual:.3e}, "
          f"{res.iterations} iterations ({elapsed:.2f}s)")


def test_monte_carlo_population():
    """Empirical map average stays near the identity and the base covariance
    certifies against the empirical family at the frozen calibration bound."""
    start = time.perf_counter()
    n, seed, dim = 1000, 42, 32
    report = population_mc_experiment(
        TruncationConfig(dim=dim), RandomMapLaw("uniform"), n=n, seed=seed
    )
    clt_bound = 3.0 * np.sqrt(dim / (12.0 * n))
    assert report.mean_deviation <= clt_bound
    regression_bound = MC_RESIDUAL_C / np.sqrt(n)
    assert report.certificate_residual <= regression_bound
    assert report.solver.converged
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _pass("monte carlo population",
          f"mean deviation {report.mean_deviation:.4f} <= {clt_bound:.4f}, "
          f"residual {report.certificate_residual:.4e} <= {regression_bound:.4e} "
          f"({elapsed:.1f}s)")


def test_distance_sanity_suite():
    """Symmetry, vanishing on the diagonal, commuting reduction, quantile
    oracle, and the triangle inequality on random triples."""
    start = time.perf_counter()
    rng = np.random.default_rng(99)

    for _ in range(50):
        d = int(rng.integers(1, 7))
        A = random_psd(rng, d)
        B = random_psd(rng, d, rank=max(1, d - 1))
        tol = 1e-9 * max(1.0, np.trace(A) + np.trace(B))
        assert abs(bw_distance_sq(A, B) - bw_distance_sq(B, A)) <= tol
        assert bw_distance_sq(A, A) <= 1e-10

    for _ in range(20):
        d = int(rng.integers(2, 8))
        a = rng.uniform(0.0, 4.0, d)
        b = rng.uniform(0.0, 4.0, d)
        expected = float(np.sum((np.sqrt(a) - np.sqrt(b)) ** 2))
        assert abs(bw_distance_sq(np.diag(a), np.diag(b)) - expected) <= 1e-10

    oracle = quantile_coupling_w2sq(2.0, 1.0)
    assert abs(bw_distance_sq(np.array([[4.0]]), np.array([[1.0]])) - oracle) <= 1e-10
    assert abs(oracle - 1.0) <= 1e-9

    worst_slack = -np.inf
    for _ in range(200):
        d = int(rng.integers(2, 6))
        A, B, C = (random_psd(rng, d) for _ in range(3))
        slack = bw_distance(A, C) - bw_distance(A, B) - bw_distance(B, C)
        worst_slack = max(worst_slack, slack)
        assert slack <= 1e-7

    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _pass("distance sanity",
          f"worst triangle slack {worst_slack:.2e} over 200 triples ({elapsed:.2f}s)")


def test_kernel_bookkeeping_dimensions():
    """Kernel dimensions survive conjugation at truncation: dim/2 for the base
    and for both conjugated covariances."""
    cov, s1, s2 = constructed_triple(32)
    assert kernel_dim(cov) == 16
    assert kernel_dim(s1) == 16
    assert kernel_dim(s2) == 16
    # at dim 64 the conjugation pushes the smallest kept eigenvalue below the
    # default cutoff; an explicit rank tolerance resolves the spectrum
    cov64, s1_64, s2_64 = constructed_triple(64)
    assert kernel_dim(cov64) == 32
    assert kernel_dim(s1_64, rank_tol=1e-13) == 32
    assert kernel_dim(s2_64, rank_tol=1e-13) == 32
    # the construction's own kernels come from the maps, with no cutoff, and
    # are exact where the eigenvalue count fails (it reads 96 at dim 128)
    for dim in (64, 128):
        report = kernel_report(TruncationConfig(dim=dim), build_pair_maps(dim))
        assert report["kernel_dim"] == dim // 2
        assert report["kernel_dims"] == [dim // 2, dim // 2]
        assert report["shared_dims"] == [dim // 4, dim // 4]
    _pass("kernel bookkeeping", "kernel dims dim/2 at 32 (default tol) and 64 (1e-13); "
                                "exact from the maps at 64 and 128")


def test_kernel_minimum_principal_angle():
    """Outside the truncated tail, every canonical angle between the conjugated
    kernel and the base kernel exceeds 1e-6 rad at the default configuration,
    and the smallest of them is arctan(1/2).

    The odd basis directions e_j with 2j > dim are fixed by both truncated
    maps, so ker(T C T) and ker(C) share their span (dim/4 directions) exactly:
    the rows of S_i and C at those indices are zero.  With the tail removed,
    the reduced kernels have dim/4 directions each and share none of them.
    kernel_report gives the same split as shared_dims and min_nonzero_angles.
    """
    dim = 32
    cov, s1, s2 = constructed_triple(dim)
    j = np.arange(1, dim + 1)
    tail = np.flatnonzero((j % 2 == 1) & (2 * j > dim))
    assert tail.size == dim // 4
    keep = np.setdiff1d(np.arange(dim), tail)
    assert np.all(cov[tail, :] == 0.0)
    reduced_base = kernel_basis(cov[np.ix_(keep, keep)])
    assert reduced_base.shape[1] == dim // 4

    worst = np.inf
    for S in (s1, s2):
        assert np.all(S[tail, :] == 0.0)
        reduced = kernel_basis(S[np.ix_(keep, keep)])
        assert reduced.shape[1] == dim // 4
        angles = principal_angles(reduced, reduced_base)
        assert np.all(angles > 1e-6), (
            f"minimum principal angle {angles.min():.3e} rad outside the "
            f"truncated tail: a moved kernel direction is shared"
        )
        assert abs(float(angles.min()) - np.arctan(0.5)) <= 1e-10
        worst = min(worst, float(angles.min()))

    report = kernel_report(TruncationConfig(dim=dim), build_pair_maps(dim))
    assert report["shared_dims"] == [dim // 4, dim // 4]
    for angle in report["min_nonzero_angles"]:
        assert abs(angle - np.arctan(0.5)) <= 1e-10
    _pass("kernel separation",
          f"{dim // 4} shared tail directions, minimum angle elsewhere "
          f"{worst:.16f} = arctan(1/2)")
