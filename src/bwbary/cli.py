"""Command-line front end.

Subcommands construct the shift-conjugation family, verify barycentre
certificates, run the fixed-point solver, cross-check the kernel recurrence,
run the Monte-Carlo population experiment, and sweep truncation dimensions.
Exit codes: 0 success / within tolerance, 1 tolerance failure, 2 invalid
input, 3 numerical failure.  ``--rank-tol`` overrides the default
kernel/rank cutoff; ``construct`` and ``sweep`` require it from dim 64 up.
"""

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from . import linalg
from .barycentre import (
    SolverSettings,
    barycentre_fixed_point,
    problem,
    verify_barycentre_certificate,
)
from .construct import (
    TruncationConfig,
    build_covariance,
    build_pair_maps,
    build_shift_map,
    conjugate,
    kernel_report,
)
from .errors import InvalidInput, KernelNotIncluded, NonFinite
from .io import RunReport, _read_matrix, file_digest, save_matrix
from .randomized import RandomMapLaw, population_mc_experiment, random_map_sample
from .recurrence import (
    RecurrenceParams,
    generating_coefficients,
    growth_witness,
    kernel_recurrence_solve,
)

EXIT_OK = 0
EXIT_TOLERANCE = 1
EXIT_INVALID = 2
EXIT_NUMERICAL = 3


def _parse_decay(text: str):
    if text.startswith("geometric:"):
        return float(text.split(":", 1)[1])
    if text.startswith("list:"):
        return tuple(float(v) for v in text.split(":", 1)[1].split(","))
    raise InvalidInput(f"bad --decay {text!r}; use geometric:<r> or list:<v,..>")


def _parse_weights(text, n):
    if text is None:
        return [1.0 / n] * n
    weights = [float(v) for v in text.split(",")]
    if len(weights) != n:
        raise InvalidInput(f"got {len(weights)} weights for {n} inputs")
    return weights


def _parse_dims(text: str):
    if ".." in text:
        lo, hi = (int(v) for v in text.split("..", 1))
        if lo < 1:
            raise InvalidInput(f"bad --dims {text!r}: the lower bound must be >= 1")
        dims = []
        d = lo
        while d <= hi:
            dims.append(d)
            d *= 2
        if not dims:
            raise InvalidInput(f"bad --dims {text!r}: the range is empty")
        return dims
    return [int(v) for v in text.split(",")]


def _rank_tol(args, dims) -> float:
    """The kernel cutoff for ``dims``: ``--rank-tol``, else :data:`linalg.RANK_TOL`.

    The default no longer separates the conjugated spectrum from rounding
    noise from dim 64 up, so there ``--rank-tol`` must be given.
    """
    if args.rank_tol is None and any(d >= 64 for d in dims):
        raise InvalidInput(
            "dims from 64 up need an explicit --rank-tol: "
            "the default no longer separates the conjugated spectrum from noise"
        )
    return linalg.RANK_TOL if args.rank_tol is None else args.rank_tol


def _emit(report: RunReport, args, text_lines) -> None:
    if args.report == "json":
        print(report.to_json())
    else:
        for line in text_lines:
            print(line)


def cmd_construct(args) -> int:
    """Write the covariance, maps and conjugations, and report each file as read back.

    Each file read back is checked for symmetry; a covariance's one PSD check
    is the eigendecomposition behind its ``kernel_dim``.
    """
    rank_tol = _rank_tol(args, [args.dim])
    report = RunReport(args.argv, seed=args.seed)
    config = TruncationConfig(dim=args.dim, decay=_parse_decay(args.decay))
    sigma = build_covariance(config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    save_matrix(out / "sigma.json", sigma, "covariance")
    written = {"sigma": out / "sigma.json"}
    if args.pair:
        t1, t2 = build_pair_maps(args.dim)
        for name, mat in (("t1", t1), ("t2", t2)):
            save_matrix(out / f"{name}.json", mat, "map")
            written[name] = out / f"{name}.json"
        for name, mat in (("s1", conjugate(t1, sigma)), ("s2", conjugate(t2, sigma))):
            save_matrix(out / f"{name}.json", mat, "covariance")
            written[name] = out / f"{name}.json"
    else:
        if args.law is not None:
            t = random_map_sample(RandomMapLaw(args.law), args.seed, args.dim)
        else:
            t = build_shift_map(args.dim, c=args.c)
        save_matrix(out / "t.json", t, "map")
        written["t"] = out / "t.json"
        save_matrix(out / "s.json", conjugate(t, sigma), "covariance")
        written["s"] = out / "s.json"

    lines = []
    for name, path in written.items():
        mat, kind = _read_matrix(path)
        linalg.check_symmetric(mat)
        report.add_result(f"digest_{name}", file_digest(path))
        if kind == "covariance":
            kdim = linalg.kernel_dim(mat, rank_tol)
            report.add_result(f"kernel_dim_{name}", kdim)
            report.add_result(f"trace_{name}", float(np.trace(mat)))
            lines.append(f"{name}: wrote {path}  kernel_dim={kdim}  trace={np.trace(mat):.6g}")
        else:
            lines.append(f"{name}: wrote {path}")
    _emit(report, args, lines)
    return EXIT_OK


def cmd_verify(args) -> int:
    # the files are checked by their consumers: the inputs by problem(), the
    # candidate by the certificate's decomposition of it
    report = RunReport(args.argv)
    candidate, _ = _read_matrix(args.candidate)
    report.add_input(args.candidate)
    inputs = []
    for path in args.inputs:
        mat, _ = _read_matrix(path)
        report.add_input(path)
        inputs.append(mat)
    weights = _parse_weights(args.weights, len(inputs))
    residual = verify_barycentre_certificate(candidate, problem(inputs, weights))
    ok = residual <= args.tol
    report.add_result("certificate_residual", residual)
    report.add_result("tolerance", args.tol)
    report.add_result("within_tolerance", bool(ok))
    # every barycentre has residual 0, but so do spurious singular fixed
    # points such as the zero matrix: passing does not prove a barycentre
    report.add_result("necessary_condition_only", True)
    _emit(report, args, [f"certificate residual {residual:.3g} "
                         f"({'within' if ok else 'EXCEEDS'} tolerance {args.tol:g}; "
                         "a necessary condition only, not proof of a barycentre)"])
    return EXIT_OK if ok else EXIT_TOLERANCE


def cmd_barycentre(args) -> int:
    # the inputs are checked by problem(), --init by barycentre_fixed_point
    report = RunReport(args.argv)
    inputs = []
    for path in args.inputs:
        mat, _ = _read_matrix(path)
        report.add_input(path)
        inputs.append(mat)
    weights = _parse_weights(args.weights, len(inputs))
    settings = SolverSettings(
        tol=args.tol, max_iter=args.max_iter, ridge=args.ridge, ridge_decay=args.ridge_decay
    )
    init = None
    if args.init is not None:
        init, _ = _read_matrix(args.init)
        report.add_input(args.init)
    result = barycentre_fixed_point(problem(inputs, weights, settings), init=init)

    save_matrix(args.out, result.barycentre, "covariance")
    if args.csv is not None:
        with open(args.csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["iteration", "change", "frechet_value"])
            for row in result.history:
                writer.writerow([row[0], repr(row[1]), repr(row[2])])
    report.add_result("iterations", result.iterations)
    report.add_result("final_change", result.final_change)
    report.add_result("certificate_residual", result.certificate_residual)
    report.add_result("converged", result.converged)
    report.add_result("frechet_value", result.frechet_value)
    report.add_result("monotone", result.monotone)
    _emit(report, args, [
        f"wrote {args.out}",
        f"iterations={result.iterations} converged={result.converged} "
        f"final_change={result.final_change:.3g}",
        f"certificate residual {result.certificate_residual:.3g}",
    ])
    return EXIT_OK if result.converged else EXIT_TOLERANCE


def cmd_recurrence(args) -> int:
    if args.steps > 60:
        raise InvalidInput("steps must be <= 60 (values overflow the affine regime)")
    report = RunReport(args.argv)
    params = RecurrenceParams(y0=args.y0, y1=args.y1, sign=args.sign, horizon=args.steps)
    iterated = kernel_recurrence_solve(params)
    closed = generating_coefficients(params)
    diff = np.abs(iterated - closed)
    witness = growth_witness(params)

    rows = [(j, float(iterated[j]), float(closed[j]), float(diff[j]))
            for j in range(args.steps + 1)]
    if args.csv is not None:
        with open(args.csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["j", "recurrence", "closed_form", "abs_diff"])
            for row in rows:
                writer.writerow([row[0], repr(row[1]), repr(row[2]), repr(row[3])])
    max_diff = float(diff.max())
    a, b = params.affine_coefficients()
    report.add_result("max_abs_diff", max_diff)
    report.add_result("slope", a)
    report.add_result("offset", b)
    report.add_result("witness_kind", witness.kind)
    report.add_result("witness_start_index", witness.start_index)
    report.add_result("witness_holds", witness.holds)
    lines = [f"j={j}: recurrence={r!r} closed={c!r}" for j, r, c, _ in rows]
    lines.append(f"max |recurrence - closed_form| = {max_diff:.3g}")
    lines.append(f"witness: {witness.kind} from j={witness.start_index} (holds={witness.holds})")
    _emit(report, args, lines)
    return EXIT_OK if max_diff <= 1e-9 else EXIT_TOLERANCE


def cmd_mc(args) -> int:
    report = RunReport(args.argv, seed=args.seed)
    config = TruncationConfig(dim=args.dim, decay=_parse_decay(args.decay))
    mc = population_mc_experiment(
        config,
        RandomMapLaw(args.law),
        args.n,
        args.seed,
        antithetic=args.antithetic,
    )
    report.add_result("n", mc.n)
    report.add_result("mean_deviation", mc.mean_deviation)
    report.add_result("certificate_residual", mc.certificate_residual)
    report.add_result("solver_iterations", mc.solver.iterations)
    report.add_result("solver_converged", mc.solver.converged)
    report.add_result("solver_certificate_residual", mc.solver.certificate_residual)
    _emit(report, args, [
        f"n={mc.n} seed={mc.seed} law={mc.law.name} antithetic={mc.antithetic}",
        f"empirical mean deviation ||mean T - I||_F = {mc.mean_deviation:.3g}",
        f"certificate residual of base covariance: {mc.certificate_residual:.3g}",
        f"solver: iterations={mc.solver.iterations} converged={mc.solver.converged}",
    ])
    return EXIT_OK if mc.solver.converged else EXIT_TOLERANCE


def cmd_sweep(args) -> int:
    dims = _parse_dims(args.dims)
    rank_tol = _rank_tol(args, dims)
    decay = _parse_decay(args.decay)
    rows = []
    for dim in dims:
        config = TruncationConfig(dim=dim, decay=decay)
        sigma = build_covariance(config)
        t1, t2 = build_pair_maps(dim)
        s1, s2 = conjugate(t1, sigma), conjugate(t2, sigma)
        residual = verify_barycentre_certificate(sigma, problem([s1, s2]))
        info = kernel_report(sigma, [s1, s2], rank_tol)
        min_eig_t1 = float(np.linalg.eigvalsh(t1)[0])
        rows.append({
            "dim": dim,
            "kernel_dim_sigma": info["kernel_dim"],
            "kernel_dim_s1": info["kernel_dims"][0],
            "kernel_dim_s2": info["kernel_dims"][1],
            "min_eig_t1": min_eig_t1,
            "shared_dims_s1": info["shared_dims"][0],
            "min_nonzero_angle_s1": info["min_nonzero_angles"][0],
            "certificate_residual": residual,
        })
    with open(args.out_csv, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        for row in rows:
            writer.writerow({k: (repr(v) if isinstance(v, float) else v) for k, v in row.items()})
    for row in rows:
        print(", ".join(f"{k}={v:.3g}" if isinstance(v, float) else f"{k}={v}"
                        for k, v in row.items()))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bwbary",
        description="Bures-Wasserstein barycentre toolkit for covariance matrices.",
    )
    parser.add_argument("--rank-tol", type=float, default=None,
                        help="kernel/rank eigenvalue cutoff")
    parser.add_argument("--report", choices=("json", "text"), default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build the covariance, maps and conjugations")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--decay", default="geometric:0.5")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--pair", action="store_true", help="the average-identity pair")
    group.add_argument("--c", type=float, default=2.0,
                       help="identity multiple for a single shift map")
    group.add_argument("--law", choices=("uniform", "two-point", "triangular"),
                       help="draw one random map instead")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("verify", help="check the barycentre certificate of a candidate "
                                      "(a necessary condition only)")
    p.add_argument("--candidate", required=True)
    p.add_argument("--inputs", nargs="+", required=True)
    p.add_argument("--weights", default=None)
    p.add_argument("--tol", type=float, default=1e-9)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("barycentre", help="run the fixed-point solver")
    p.add_argument("--inputs", nargs="+", required=True)
    p.add_argument("--weights", default=None)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--max-iter", type=int, default=500)
    p.add_argument("--ridge", type=float, default=0.0)
    p.add_argument("--ridge-decay", type=float, default=0.5)
    p.add_argument("--init", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--csv", default=None)
    p.set_defaults(func=cmd_barycentre)

    p = sub.add_parser("recurrence", help="iterate the kernel recurrence vs closed form")
    p.add_argument("--y0", type=float, required=True)
    p.add_argument("--y1", type=float, required=True)
    p.add_argument("--sign", choices=("plus", "minus"), default="plus")
    p.add_argument("--steps", type=int, default=30)
    p.add_argument("--csv", default=None)
    p.set_defaults(func=cmd_recurrence)

    p = sub.add_parser("mc", help="Monte-Carlo population experiment")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--decay", default="geometric:0.5")
    p.add_argument("--law", choices=("uniform", "two-point", "triangular"),
                   default="uniform")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--antithetic", action="store_true")
    p.set_defaults(func=cmd_mc)

    p = sub.add_parser("sweep", help="truncation study across dimensions")
    p.add_argument("--dims", required=True, help="comma list or lo..hi doubling range")
    p.add_argument("--decay", default="geometric:0.5")
    p.add_argument("--out-csv", required=True)
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    argv = list(argv) if argv is not None else sys.argv[1:]
    args = parser.parse_args(argv)
    args.argv = argv
    try:
        return args.func(args)
    except (ValueError, OSError, KernelNotIncluded) as exc:
        # ValueError covers InvalidInput/NotPSD and flag-parsing failures
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (NonFinite, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
