"""bwbary benchmark: one workload per run, timed end to end, or traced per layer.

Run from the root of a checkout:

    python3 bench/run.py --workload mc_population --seed 1 --seconds 25 --trace 0

``--trace 0`` prints every end-to-end metric of BENCHMARK.json and ``--trace 1``
every per-layer metric, each on the last line of standard output as
``{"correct", "attempted", "failed", "metrics"}``.  The lines before it are an
environment record and a human-readable summary.  The workloads, metric
definitions and the layer-to-end-to-end map are in bench/README.md.
"""

import os
import sys

# BLAS is pinned to one thread before numpy loads, here and in every child
# process: on the 2-core reference box the dim-128 solve was both faster and
# steadier with one thread than with two.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_work"
SETUP_PROBES = 5
IMPORT_PROBES = 3
PROBE_TIMEOUT_S = 60


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--setup-probe", action="store_true",
                   help="internal: import bwbary, build the inputs and exit")
    return p.parse_args(argv)


def median(values):
    return statistics.median(values) if values else 0.0


# --- measurement ------------------------------------------------------------

# On a shared host, contention from other tenants changes the speed of all
# code here by up to 1.5x, in phases of seconds to minutes.  Each end-to-end
# timing is therefore scaled by how long a fixed reference kernel took just
# before and just after it, and is reported in reference seconds: seconds on a
# machine where one burst of the kernel takes REFERENCE_BURST_S.  On the
# reference box (2-core Xeon VM, one BLAS thread) this cut the spread of
# op_s over ten seeds from 0.22 to 0.10 on mc_population, 0.13 to 0.06 on
# pair_recovery and 0.24 to 0.03 on geometry_batch; cli_pipeline, whose time
# is mostly fresh interpreters, stayed at 0.12.  The kernel uses numpy and
# scipy only, so no change to bwbary can change it.
REFERENCE_BURST_S = 0.045


class SpeedReference:
    """Bursts of a fixed numpy/scipy kernel that mirrors the library's mix of work."""

    def __init__(self):
        import numpy as np
        from scipy.linalg import get_lapack_funcs

        rng = np.random.default_rng(0)
        self._mats = []
        for n in (32, 64):
            G = rng.standard_normal((n, n))
            self._mats.append(G @ G.T / n)
        self._pstrf = get_lapack_funcs(("pstrf",), (self._mats[0],))[0]
        self.bursts = []
        self._last = self._burst()

    def _burst(self):
        import numpy as np

        start = time.perf_counter()
        for _ in range(40):
            for S in self._mats:
                A = np.asarray(S, dtype=np.float64)
                np.all(np.isfinite(A))
                A = (A + A.T) / 2.0
                np.linalg.eigvalsh(A)
                C = np.triu(self._pstrf(A, lower=0)[0])
                np.linalg.svd(C @ A, compute_uv=False)
                np.linalg.eigh(A)
        elapsed = time.perf_counter() - start
        self.bursts.append(elapsed)
        return elapsed

    def scale(self):
        """Factor for the timing just taken: reference burst over the mean of the bursts around it."""
        after = self._burst()
        factor = 2.0 * REFERENCE_BURST_S / (self._last + after)
        self._last = after
        return factor


def run_op(wl, calls, inputs, ref):
    """Run one operation's calls back to back; return (wall_s, call_s, ok)."""
    outputs, call_s = [], []
    start = time.perf_counter()
    for call in calls:
        t0 = time.perf_counter()
        try:
            out = call()
        except Exception as exc:  # a raising call is a failed call, never a crashed run
            out = exc
        call_s.append(time.perf_counter() - t0)
        outputs.append(out)
    wall = time.perf_counter() - start
    try:
        verdicts = wl.check(inputs, ref, outputs)
    except Exception:
        verdicts = [False] * len(outputs)
    ok = [bool(v) and not isinstance(o, Exception) for v, o in zip(verdicts, outputs)]
    return wall, call_s, ok


def probe(code_or_args, timeout=PROBE_TIMEOUT_S):
    """Wall time and stdout of one fresh interpreter."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *code_or_args], capture_output=True, text=True,
                          timeout=timeout, cwd=ROOT)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"probe {code_or_args} failed: {proc.stderr.strip()}")
    return wall, proc.stdout


def setup_seconds(workload, seed, speed):
    """Median over fresh interpreters that import bwbary and build the inputs."""
    script = str(Path(__file__).resolve())
    argv = [script, "--setup-probe", "--workload", workload, "--seed", str(seed),
            "--seconds", "0", "--trace", "0"]
    walls = []
    for _ in range(SETUP_PROBES):
        wall = probe(argv)[0]
        walls.append(wall * speed.scale())
    return median(walls)


def import_seconds():
    """Median in-interpreter time of ``import bwbary.cli`` over fresh interpreters."""
    code = ("import time; t = time.perf_counter(); import bwbary.cli; "
            "print(time.perf_counter() - t)")
    return median([float(probe(["-c", code])[1]) for _ in range(IMPORT_PROBES)])


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def timed_run(wl, inputs, ref, seconds, speed):
    """Closed loop until ``seconds`` have passed; timings scaled to reference seconds."""
    walls, raw_walls, call_s, ok = [], [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        wall, cs, verdicts = run_op(wl, wl.calls(inputs), inputs, ref)
        factor = speed.scale()
        raw_walls.append(wall)
        walls.append(wall * factor)
        call_s.extend(c * factor for c in cs)
        ok.extend(verdicts)
        if time.perf_counter() >= deadline:
            break
    return walls, raw_walls, call_s, ok


def traced_run(wl, inputs, ref, seconds, tracer):
    """Alternate untraced and traced operations; the traced ones feed the tracer."""
    make_calls = wl.inprocess_calls or wl.calls
    untraced, traced, ok = [], [], []
    cli_walls = {}
    deadline = time.perf_counter() + seconds
    while True:
        wall, cs, verdicts = run_op(wl, make_calls(inputs), inputs, ref)
        untraced.append(wall)
        ok.extend(verdicts)
        if wl.inprocess_calls is not None:
            for argv, s in zip(inputs["argvs"], cs):
                cli_walls.setdefault(argv[0], []).append(s)
        tracer.begin_op()
        with tracer.installed():
            wall, _, verdicts = run_op(wl, make_calls(inputs), inputs, ref)
        tracer.end_op()
        traced.append(wall)
        ok.extend(verdicts)
        if time.perf_counter() >= deadline:
            break
    return untraced, traced, ok, cli_walls


# --- metrics ----------------------------------------------------------------

def end_to_end_metrics(walls, call_s, setup_s):
    return {
        "setup_s": setup_s,
        "op_s": median(walls),
        "call_p50_ms": 1e3 * median(call_s),
        "calls_per_s": len(call_s) / len(walls) / median(walls),
        "peak_rss_mb": peak_rss_mb(),
    }


def percentile_beyond(values, pct):
    """The ``pct``-th percentile and how many samples lie strictly beyond it."""
    if len(values) < 2:
        return 0.0, 0
    cut = statistics.quantiles(values, n=100)[pct - 1]
    return cut, sum(v > cut for v in values)


def layer_metric(name, tracer, extra):
    """Resolve one per-layer metric name; layers a workload never reaches read 0."""
    if name in extra:
        return extra[name]
    ops = tracer.op_stats
    first = ops[0]
    span, _, kind = name.rpartition(".")
    if kind == "calls":
        return first.calls.get(span, 0)
    if kind == "self_s":
        return median([op.self_s.get(span, 0.0) for op in ops])
    if kind == "n3_total":
        return sum(first.n3.values()) if span == "lapack" else first.n3.get(span, 0)
    raise KeyError(f"per-layer metric {name!r} has no definition")


def per_layer_metrics(names, tracer, untraced, traced, cli_walls, import_s):
    from workloads import CLI_SUBCOMMANDS

    first = tracer.op_stats[0]
    p99, beyond = percentile_beyond(tracer.durations("geometry.bw_distance_sq"), 99)
    extra = {
        "barycentre.iterations": first.iterations,
        "io.bytes_written": first.bytes_written,
        "geometry.bw_distance_sq.p99_ms": 1e3 * p99,
        "geometry.bw_distance_sq.beyond_p99": beyond,
        "cli.import_s": import_s,
        "trace.spans": first.spans,
        "trace.overhead_s": median(traced) - median(untraced),
        "trace.overhead_ratio": median(traced) / median(untraced) - 1.0,
    }
    for sub in CLI_SUBCOMMANDS:
        extra[f"cli.{sub}.wall_s"] = median(cli_walls.get(sub, []))
    return {name: layer_metric(name, tracer, extra) for name in names}


# --- environment ------------------------------------------------------------

def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def commit():
    """HEAD of a git checkout if there is one, else None (the source digest identifies it)."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def source_digest():
    digest = hashlib.sha256()
    for path in sorted((SRC / "bwbary").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(args):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": BLAS_THREADS,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit(),
        "source_sha256": source_digest(),
    }


# --- entry point ------------------------------------------------------------

def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "bwbary" / "__init__.py").is_file():
        print(f"error: no bwbary sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])

    import bwbary
    import workloads

    if not Path(bwbary.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: bwbary imported from {bwbary.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    workdir = WORKDIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    if args.setup_probe:
        wl.build(args.seed, workdir)
        return 0

    env = environment(args)
    WORKDIR.mkdir(exist_ok=True)
    print("environment " + json.dumps(env, sort_keys=True))
    try:
        if args.trace:
            import tracer as tracing

            import_s = import_seconds()
            inputs = wl.build(args.seed, workdir)
            ref = wl.reference(inputs)
            workloads.warm_up()
            tracer = tracing.Tracer()
            untraced, traced, ok, cli_walls = traced_run(wl, inputs, ref, args.seconds, tracer)
            names = [m["name"] for m in spec["per_layer"]]
            metrics = per_layer_metrics(names, tracer, untraced, traced, cli_walls, import_s)
            counts = [op.counts() for op in tracer.op_stats]
            if any(c != counts[0] for c in counts):
                print("warning: traced operations on identical inputs gave different counts")
            trace_path = WORKDIR / f"trace-{args.workload}-{args.seed}.json"
            tracer.write(trace_path, {"environment": env, "metrics": metrics,
                                      "untraced_op_s": untraced, "traced_op_s": traced})
            print(f"trace: {len(traced)} traced and {len(untraced)} untraced operations, "
                  f"spans in {trace_path.relative_to(ROOT)}")
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        else:
            speed = SpeedReference()
            setup_s = setup_seconds(args.workload, args.seed, speed)
            inputs = wl.build(args.seed, workdir)
            ref = wl.reference(inputs)
            workloads.warm_up()
            speed.scale()
            walls, raw_walls, call_s, ok = timed_run(wl, inputs, ref, args.seconds, speed)
            metrics = end_to_end_metrics(walls, call_s, setup_s)
            units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
            metrics = {name: metrics[name] for name in units}
            print(f"{args.workload}: setup_s median of {SETUP_PROBES}, op_s median of "
                  f"{len(walls)} operations, call_p50_ms median of {len(call_s)} calls, "
                  f"failed_ratio {ok.count(False) / len(ok):.4g}")
            for pct in (99, 90):
                cut, beyond = percentile_beyond(call_s, pct)
                if beyond >= 10:
                    print(f"  call p{pct}: {1e3 * cut:.4g} ms, {beyond} calls beyond it")
                    break
            print(f"  reference kernel: median burst {1e3 * median(speed.bursts):.4g} ms over "
                  f"{len(speed.bursts)} bursts; unscaled op_s {median(raw_walls):.4g} s; "
                  f"timings below are in reference seconds (burst = {1e3 * REFERENCE_BURST_S:g} ms)")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for name, value in metrics.items():
        print(f"  {name:44s} {value:.6g} {units[name]}")
    failed = ok.count(False)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(ok),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
