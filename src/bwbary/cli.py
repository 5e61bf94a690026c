"""Command-line front end.

Subcommands construct the shift-conjugation family, verify barycentre
certificates, run the fixed-point solver, cross-check the kernel recurrence,
run the Monte-Carlo population experiment, and sweep truncation dimensions.
Exit codes: 0 success / within tolerance, 1 tolerance failure, 2 invalid
input, 3 numerical failure.  ``construct`` reports each kernel dimension as
``(dim + 1) // 2``, that of the odd directions, since every map it builds is
positive definite and ``ker(T C T) = T^{-1} ker C``; ``sweep`` takes the
kernels themselves from the maps (:func:`construct.kernel_report`).  Neither
count needs an eigenvalue cutoff, and both hold at any dimension.
"""

import argparse
import sys
from math import inf
from pathlib import Path

from .errors import InvalidInput, KernelNotIncluded, NonFinite
from .io import RunReport, _read_matrix, file_digest, save_matrix

# Each cmd_* imports the library modules it runs, and numpy, inside its body
# (csv loads in _write_csv), so a process loads only its subcommand's modules:
# ``recurrence`` no numpy and no linalg, only ``mc`` and ``construct --law``
# numpy.random.

EXIT_OK = 0
EXIT_TOLERANCE = 1
EXIT_INVALID = 2
EXIT_NUMERICAL = 3


def _number(option: str, text: str, value: str) -> float:
    """``value``, one field of ``option``'s argument ``text``, as a float; else name the option."""
    try:
        return float(value)
    except ValueError:
        raise InvalidInput(f"bad {option} {text!r}: {value!r} is not a number") from None


def _parse_decay(text: str):
    if text.startswith("geometric:"):
        return _number("--decay", text, text.split(":", 1)[1])
    if text.startswith("list:"):
        return tuple(_number("--decay", text, v) for v in text.split(":", 1)[1].split(","))
    raise InvalidInput(f"bad --decay {text!r}; use geometric:<r> or list:<v,..>")


def _read_inputs(args, report: RunReport) -> tuple:
    """The ``--inputs`` matrices, each recorded in ``report``, and the ``--weights``.

    Weights default to uniform.  The files are parsed only: each is checked by
    the code that uses it.
    """
    inputs = []
    for path in args.inputs:
        mat, _ = _read_matrix(path)
        report.add_input(path)
        inputs.append(mat)
    n = len(inputs)
    if args.weights is None:
        return inputs, [1.0 / n] * n
    weights = [_number("--weights", args.weights, v) for v in args.weights.split(",")]
    if len(weights) != n:
        raise InvalidInput(f"got {len(weights)} weights for {n} inputs")
    return inputs, weights


def _parse_dims(text: str):
    """The dims of ``--dims``: a comma list, or ``lo..hi`` doubling from ``lo``; each >= 2."""
    def dim(value: str) -> int:
        try:
            if int(value) >= 2:
                return int(value)
        except ValueError:
            pass
        raise InvalidInput(f"bad --dims {text!r}: {value!r} is not an integer >= 2")

    if ".." in text:
        lo, hi = (dim(v) for v in text.split("..", 1))
        dims = []
        d = lo
        while d <= hi:
            dims.append(d)
            d *= 2
        if not dims:
            raise InvalidInput(f"bad --dims {text!r}: the range is empty")
        return dims
    return [dim(v) for v in text.split(",")]


def _write_csv(path, header, rows) -> None:
    """Write ``header`` and ``rows`` as CSV, floats by ``repr`` (the shortest round-trip)."""
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(v) if isinstance(v, float) else v for v in row])


def _emit(report: RunReport, args, text_lines) -> None:
    if args.report == "json":
        print(report.to_json())
    else:
        for line in text_lines:
            print(line)


def cmd_construct(args) -> int:
    """Write the covariance, maps and conjugations, and report each file written.

    Each conjugation is checked once, by :func:`conjugate`'s eigenvalues; the
    files are not read back.  A covariance's ``trace`` comes from the matrix in
    memory, whose file reproduces it bit-exactly, its ``kernel_dim`` is that
    of the odd directions, ``(dim + 1) // 2``, since every map built here is
    positive definite, and every ``digest`` is of the file as written.
    """
    import numpy as np

    from .construct import (
        TruncationConfig,
        build_covariance,
        build_pair_maps,
        build_shift_map,
        conjugate,
    )

    report = RunReport(args.argv, seed=args.seed)
    config = TruncationConfig(dim=args.dim, decay=_parse_decay(args.decay))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    # name -> (matrix, kind), in the order written
    sigma = build_covariance(config)
    files = {"sigma": (sigma, "covariance")}
    if args.pair:
        t1, t2 = build_pair_maps(args.dim)
        files.update(t1=(t1, "map"), t2=(t2, "map"),
                     s1=(conjugate(t1, sigma), "covariance"),
                     s2=(conjugate(t2, sigma), "covariance"))
    else:
        if args.law is not None:
            from .randomized import RandomMapLaw, random_map_sample

            t = random_map_sample(RandomMapLaw(args.law), args.seed, args.dim)
        else:
            t = build_shift_map(args.dim, c=args.c)
        files.update(t=(t, "map"), s=(conjugate(t, sigma), "covariance"))

    kdim = (args.dim + 1) // 2
    lines = []
    for name, (mat, kind) in files.items():
        path = out / f"{name}.json"
        save_matrix(path, mat, kind)
        report.add_result(f"digest_{name}", file_digest(path))
        if kind == "covariance":
            report.add_result(f"kernel_dim_{name}", kdim)
            report.add_result(f"trace_{name}", float(np.trace(mat)))
            lines.append(f"{name}: wrote {path}  kernel_dim={kdim}  trace={np.trace(mat):.6g}")
        else:
            lines.append(f"{name}: wrote {path}")
    _emit(report, args, lines)
    return EXIT_OK


def cmd_verify(args) -> int:
    from .barycentre import problem, verify_barycentre_certificate

    if not (0.0 <= args.tol < inf):
        raise InvalidInput(f"bad --tol {args.tol!r}: it must be finite and nonnegative")
    # the files are checked by their consumers: the inputs by problem(), the
    # candidate by the certificate's decomposition of it
    report = RunReport(args.argv)
    candidate, _ = _read_matrix(args.candidate)
    report.add_input(args.candidate)
    inputs, weights = _read_inputs(args, report)
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
    from .barycentre import SolverSettings, barycentre_fixed_point, problem

    # the inputs are checked by problem(), --init by barycentre_fixed_point
    report = RunReport(args.argv)
    inputs, weights = _read_inputs(args, report)
    # a solver flag not given is absent from args, so SolverSettings' default holds
    settings = SolverSettings(**{k: v for k, v in vars(args).items()
                                 if k in ("tol", "max_iter", "ridge", "ridge_decay")})
    init = None
    if args.init is not None:
        init, _ = _read_matrix(args.init)
        report.add_input(args.init)
    result = barycentre_fixed_point(problem(inputs, weights, settings), init=init)

    save_matrix(args.out, result.barycentre, "covariance")
    if args.csv is not None:
        _write_csv(args.csv, ["iteration", "change", "frechet_value"], result.history)
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
    """Compare the iterated recurrence with its closed form, on Python floats.

    The two agree to rounding relative to the terms' size, so the verdict is
    ``max |recurrence - closed_form| <= 1e-9 max(1, term_bound)``, where
    ``term_bound = |b| + |a| (steps + 1)`` bounds every term: scaling both
    seeds does not change it.
    """
    from .recurrence import RecurrenceParams, closed_form, growth_witness, iterate

    if args.steps > 60:
        raise InvalidInput("steps must be <= 60 (values overflow the affine regime)")
    report = RunReport(args.argv)
    params = RecurrenceParams(y0=args.y0, y1=args.y1, sign=args.sign, horizon=args.steps)
    witness = growth_witness(params)

    rows = [(j, r, c, abs(r - c))
            for j, (r, c) in enumerate(zip(iterate(params), closed_form(params)))]
    if args.csv is not None:
        _write_csv(args.csv, ["j", "recurrence", "closed_form", "abs_diff"], rows)
    max_diff = max(row[3] for row in rows)
    tol = 1e-9 * max(1.0, params.term_bound())
    a, b = params.affine_coefficients()
    report.add_result("max_abs_diff", max_diff)
    report.add_result("tolerance", tol)
    report.add_result("slope", a)
    report.add_result("offset", b)
    report.add_result("witness_kind", witness.kind)
    report.add_result("witness_start_index", witness.start_index)
    report.add_result("witness_holds", witness.holds)
    lines = [f"j={j}: recurrence={r!r} closed={c!r}" for j, r, c, _ in rows]
    lines.append(f"max |recurrence - closed_form| = {max_diff:.3g}")
    lines.append(f"witness: {witness.kind} from j={witness.start_index} (holds={witness.holds})")
    _emit(report, args, lines)
    return EXIT_OK if max_diff <= tol else EXIT_TOLERANCE


def cmd_mc(args) -> int:
    from .construct import TruncationConfig
    from .randomized import RandomMapLaw, population_mc_experiment

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
    import numpy as np

    from .barycentre import BarycentreProblem, verify_barycentre_certificate
    from .construct import (
        TruncationConfig,
        build_covariance,
        build_pair_maps,
        chain_factors,
        kernel_report,
    )

    report = RunReport(args.argv)
    dims = _parse_dims(args.dims)
    decay = _parse_decay(args.decay)
    rows = []
    for dim in dims:
        config = TruncationConfig(dim=dim, decay=decay)
        sigma = build_covariance(config)
        t1, t2 = build_pair_maps(dim)
        # the inputs t1 sigma t1 and t2 sigma t2, as their exact chain-block
        # factors: no product is formed, checked or factored
        prob = BarycentreProblem.from_block_factors(*chain_factors(config, (0.5, -0.5)))
        residual = verify_barycentre_certificate(sigma, prob)
        info = kernel_report(config, [t1, t2])
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
    _write_csv(args.out_csv, list(rows[0]), [row.values() for row in rows])
    report.add_result("rows", rows)
    _emit(report, args, [", ".join(f"{k}={v:.3g}" if isinstance(v, float) else f"{k}={v}"
                                   for k, v in row.items()) for row in rows])
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bwbary",
        description="Bures-Wasserstein barycentre toolkit for covariance matrices.",
    )
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
    # no defaults here: a flag not given leaves SolverSettings' own
    p.add_argument("--tol", type=float, default=argparse.SUPPRESS)
    p.add_argument("--max-iter", type=int, default=argparse.SUPPRESS)
    p.add_argument("--ridge", type=float, default=argparse.SUPPRESS)
    p.add_argument("--ridge-decay", type=float, default=argparse.SUPPRESS)
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


def _numerical_errors() -> tuple:
    """The exceptions that mean a numerical failure; numpy's LinAlgError once numpy is loaded."""
    numpy = sys.modules.get("numpy")
    return (NonFinite,) if numpy is None else (NonFinite, numpy.linalg.LinAlgError)


def main(argv=None) -> int:
    parser = build_parser()
    argv = list(argv) if argv is not None else sys.argv[1:]
    args = parser.parse_args(argv)
    args.argv = argv
    try:
        return args.func(args)
    except _numerical_errors() as exc:
        # before ValueError, which LinAlgError subclasses
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, OSError, KernelNotIncluded) as exc:
        # ValueError covers InvalidInput/NotPSD and flag-parsing failures
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
