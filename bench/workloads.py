"""The benchmark's workloads: seeded inputs, one closed-loop operation, and its checks.

An operation is a list of calls.  A call is the unit that is timed from the
outside, checked, and counted as attempted or failed.  Each workload gives

- ``build(seed, workdir)``: the inputs, made from the seed (this is what
  ``setup_s`` times in a fresh interpreter, together with ``import bwbary``);
- ``reference(inputs)``: anything the checks need that must not be timed;
- ``calls(inputs)``: the calls of one operation, on fresh copies of the
  inputs so that no object outlives one operation;
- ``check(inputs, ref, outputs)``: one verdict per call.

Library functions are looked up through their module at call time, so the
tracer's wrappers see them.
"""

import json
import math
import subprocess
import sys
from contextlib import redirect_stdout
from dataclasses import dataclass
from io import StringIO
from pathlib import Path
from typing import Callable

import numpy as np

from bwbary import barycentre, construct, geometry, randomized

# --- mc_population --------------------------------------------------------

MC_DIM, MC_N = 32, 1000


def mc_build(seed, workdir):
    return {
        "config": construct.TruncationConfig(dim=MC_DIM),
        "law": randomized.RandomMapLaw("uniform"),
        "seed": seed,
    }


def mc_calls(inputs):
    def experiment():
        return randomized.population_mc_experiment(
            inputs["config"], inputs["law"], n=MC_N, seed=inputs["seed"])

    return [experiment]


def mc_check(inputs, ref, outputs):
    # CLT bound on ||mean T - I||_F: the coefficient mean has sd 1/sqrt(12 n) and
    # ||F + F^T||_F = sqrt(dim) at dim 32, so this is a 3-sigma check (false
    # alarm rate 0.27% per seed).
    bound = 3.0 * math.sqrt(MC_DIM / (12.0 * MC_N))
    return [r.solver.converged and r.mean_deviation <= bound for r in outputs]


# --- pair_recovery --------------------------------------------------------

PAIR_DIMS = (64, 128)
PAIR_SETTINGS = dict(ridge=1e-6, ridge_decay=0.5)


def pair_build(seed, workdir):
    # The seed draws a +-1 diagonal similarity D per dim.  D C D = C for the
    # diagonal C, and the problem keeps its spectrum and iteration path while
    # its bits change.  (A seeded permutation changed the dim-128 iteration
    # count from 37 to up to 45, which would mix problem difficulty into the
    # seed-to-seed spread of the timing.)
    rng = np.random.default_rng(seed)
    problems = []
    for dim in PAIR_DIMS:
        C = construct.build_covariance(construct.TruncationConfig(dim=dim))
        T1, T2 = construct.build_pair_maps(dim)
        d = rng.choice([-1.0, 1.0], size=dim)
        flip = np.outer(d, d)
        problems.append(tuple(flip * M for M in
                              (C, construct.conjugate(T1, C), construct.conjugate(T2, C))))
    return {"problems": problems}


def pair_calls(inputs):
    problems = [tuple(M.copy() for M in p) for p in inputs["problems"]]
    settings = barycentre.SolverSettings(**PAIR_SETTINGS)

    def certify_and_recover():
        out = []
        for C, S1, S2 in problems:
            cert = barycentre.verify_barycentre_certificate(C, barycentre.problem([S1, S2]))
            result = barycentre.barycentre_fixed_point(
                barycentre.problem([S1, S2], settings=settings))
            out.append((cert, result))
        return out

    return [certify_and_recover]


def pair_check(inputs, ref, outputs):
    verdicts = []
    for per_dim in outputs:
        ok = True
        for (C, _, _), (cert, result) in zip(inputs["problems"], per_dim):
            ok = ok and (cert <= 1e-9
                         and float(np.linalg.norm(result.barycentre - C)) <= 1e-6
                         and result.certificate_residual <= 1e-8)
        verdicts.append(ok)
    return verdicts


# --- geometry_batch -------------------------------------------------------

GEO_DIM, GEO_PER_KIND, GEO_MAPS = 64, 16, 32
# Distances must match the reference within this share of trA + trB; the
# reference's square roots of rounding-level eigenvalues limit it to ~1e-8.
GEO_DIST_RTOL = 1e-6
MAP_RTOL = 1e-6


def geometry_build(seed, workdir):
    rng = np.random.default_rng(seed)
    dim = GEO_DIM
    C = construct.build_covariance(construct.TruncationConfig(dim=dim))
    shift = construct.symmetrized_shift(dim)
    mats = []
    for a in rng.uniform(-0.5, 0.5, GEO_PER_KIND):
        T = np.eye(dim) + a * shift
        mats.append(T @ C @ T)
    for cols in (2 * dim, dim // 2):  # full-rank, then rank-32 Wishart
        for _ in range(GEO_PER_KIND):
            G = rng.standard_normal((dim, cols))
            mats.append(G @ G.T / cols)
    mats = [(M + M.T) / 2.0 for M in mats]
    pairs = [(i, j) for i in range(len(mats)) for j in range(i + 1, len(mats))]
    sources = range(GEO_PER_KIND, 2 * GEO_PER_KIND)  # the full-rank Wisharts
    maps = []
    for s in sources:
        others = [k for k in range(len(mats)) if k != s]
        maps.extend((s, int(t)) for t in rng.choice(others, size=GEO_MAPS // GEO_PER_KIND,
                                                    replace=False))
    return {"mats": mats, "pairs": pairs, "maps": maps}


def _reference_sqrt(M):
    w, V = np.linalg.eigh(M)
    return (V * np.sqrt(np.clip(w, 0.0, None))) @ V.T


def geometry_reference(inputs):
    """Textbook d^2 = trA + trB - 2 tr((A^1/2 B A^1/2)^1/2) from eigh alone."""
    mats = inputs["mats"]
    roots = [_reference_sqrt(M) for M in mats]
    traces = [float(np.trace(M)) for M in mats]
    ref = []
    for i, j in inputs["pairs"]:
        inner = roots[i] @ mats[j] @ roots[i]
        cross = float(np.sum(np.sqrt(np.clip(np.linalg.eigvalsh((inner + inner.T) / 2), 0, None))))
        ref.append(traces[i] + traces[j] - 2.0 * cross)
    return {"distances": ref, "traces": traces}


def geometry_calls(inputs):
    mats = [M.copy() for M in inputs["mats"]]
    calls = [(lambda a=mats[i], b=mats[j]: geometry.bw_distance_sq(a, b))
             for i, j in inputs["pairs"]]
    calls += [(lambda a=mats[s], b=mats[t]: geometry.optimal_map(a, b))
              for s, t in inputs["maps"]]
    return calls


def geometry_check(inputs, ref, outputs):
    mats, traces = inputs["mats"], ref["traces"]
    verdicts = []
    for (i, j), d, expect in zip(inputs["pairs"], outputs, ref["distances"]):
        verdicts.append(abs(d - expect) <= GEO_DIST_RTOL * (traces[i] + traces[j]))
    for (s, t), M in zip(inputs["maps"], outputs[len(inputs["pairs"]):]):
        # sources are full rank, so range(A) is the whole space
        A, B = mats[s], mats[t]
        verdicts.append(float(np.linalg.norm(M @ A @ M - B)) <= MAP_RTOL * float(np.linalg.norm(B)))
    return verdicts


# --- cli_pipeline ---------------------------------------------------------

CLI_SUBCOMMANDS = ("construct", "verify", "barycentre", "recurrence", "sweep")


def cli_build(seed, workdir):
    # The pipeline's arguments are fixed; the seed is passed to `construct`,
    # which records it in its report (the pair construction draws nothing).
    w = Path(workdir)
    argvs = [
        ["construct", "--dim", "32", "--pair", "--seed", str(seed), "--out", str(w)],
        ["verify", "--candidate", str(w / "sigma.json"),
         "--inputs", str(w / "s1.json"), str(w / "s2.json")],
        ["barycentre", "--inputs", str(w / "s1.json"), str(w / "s2.json"),
         "--ridge", "1e-6", "--ridge-decay", "0.5", "--out", str(w / "bary.json")],
        ["recurrence", "--y0", "1", "--y1", "0", "--steps", "30"],
        ["sweep", "--dims", "8..32", "--out-csv", str(w / "sweep.csv")],
    ]
    return {"argvs": argvs, "workdir": w}


def cli_calls(inputs):
    """One fresh ``python -m bwbary.cli`` process per subcommand, one at a time."""
    def run(argv):
        return subprocess.run([sys.executable, "-m", "bwbary.cli", *argv],
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              timeout=120).returncode

    return [(lambda argv=argv: run(argv)) for argv in inputs["argvs"]]


def cli_inprocess_calls(inputs):
    """The same pipeline through ``bwbary.cli.main`` in this process, so io spans show."""
    import bwbary.cli

    def run(argv):
        with redirect_stdout(StringIO()):
            return bwbary.cli.main(argv)

    return [(lambda argv=argv: run(argv)) for argv in inputs["argvs"]]


def _load(path):
    doc = json.loads(Path(path).read_text())
    return np.asarray(doc["data"], dtype=np.float64).reshape(doc["dim"], doc["dim"])


def cli_check(inputs, ref, outputs):
    verdicts = [code == 0 for code in outputs]
    w = inputs["workdir"]
    if verdicts[2]:  # the recovered barycentre must match the constructed covariance
        verdicts[2] = float(np.linalg.norm(_load(w / "bary.json") - _load(w / "sigma.json"))) <= 1e-6
    return verdicts


@dataclass(frozen=True)
class Workload:
    build: Callable
    calls: Callable
    check: Callable
    reference: Callable = lambda inputs: None
    # Calls for the traced run when ``calls`` leaves the process.
    inprocess_calls: Callable | None = None


WORKLOADS = {
    "mc_population": Workload(mc_build, mc_calls, mc_check),
    "pair_recovery": Workload(pair_build, pair_calls, pair_check),
    "geometry_batch": Workload(geometry_build, geometry_calls, geometry_check,
                               reference=geometry_reference),
    "cli_pipeline": Workload(cli_build, cli_calls, cli_check,
                             inprocess_calls=cli_inprocess_calls),
}


def warm_up():
    """Small calls through every path, so lazy imports and first-call costs land before timing."""
    C = construct.build_covariance(construct.TruncationConfig(dim=8))
    T1, T2 = construct.build_pair_maps(8)
    S1, S2 = construct.conjugate(T1, C), construct.conjugate(T2, C)
    barycentre.barycentre_fixed_point(barycentre.problem(
        [S1, S2], settings=barycentre.SolverSettings(max_iter=3)))
    geometry.optimal_map(S1 + np.eye(8), S2)
    randomized.population_mc_experiment(
        construct.TruncationConfig(dim=8), randomized.RandomMapLaw("uniform"), n=4, seed=0,
        settings=barycentre.SolverSettings(max_iter=3))

