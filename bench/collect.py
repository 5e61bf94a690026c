"""Run every workload on several seeds, report spreads, and record the baseline.

Run from the root of a checkout:

    python3 bench/collect.py --seeds 1 2 3 4 5 6 7 8 9 10 --traced-seeds 1 2

For each workload this makes one timed run per seed (``--trace 0``) and gives,
for each end-to-end metric, the median, the quartiles from
``statistics.quantiles(values, n=4)`` and the spread ``(q3 - q1) / median``
next to the metric's bound.  It then makes two traced runs on the first traced
seed, which must give identical counts, and one on each further traced seed.
Everything is written to ``--out`` (default ``bench/baseline.json``).
"""

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
# Per-layer metrics that must repeat exactly across runs on the same seed.
EXACT_SUFFIXES = (".calls", ".n3_total")
EXACT_NAMES = ("lapack.n3_total", "barycentre.iterations")


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    env = next(json.loads(line.split(" ", 1)[1]) for line in lines
               if line.startswith("environment "))
    result = json.loads(lines[-1])
    unscaled = re.search(r"unscaled op_s ([0-9.eE+-]+) s", proc.stdout)
    if unscaled:
        result["unscaled_op_s"] = float(unscaled.group(1))
    return env, result


def exact_counts(metrics):
    return {name: m["value"] for name, m in metrics.items()
            if name.endswith(EXACT_SUFFIXES) or name in EXACT_NAMES}


def summarize(values, bound):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
            "bound": bound, "values": values}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    p.add_argument("--traced-seeds", nargs="*", type=int, default=[1, 2])
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--out", default="bench/baseline.json")
    args = p.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    doc = {"run_seconds": args.seconds, "seeds": args.seeds, "workloads": {}}
    steady = True
    for workload in args.workloads:
        results = []
        for seed in args.seeds:
            env, result = run(workload, seed, args.seconds, 0)
            doc.setdefault("environment", env)
            results.append(result)
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
        entry = {
            "unscaled_op_s": [r.get("unscaled_op_s") for r in results],
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "end_to_end": {},
            "traced": {},
        }
        for name, bound in bounds.items():
            s = summarize([r["metrics"][name]["value"] for r in results], bound)
            s["unit"] = results[0]["metrics"][name]["unit"]
            entry["end_to_end"][name] = s
            flag = "" if s["spread"] < bound / 3 or name == "setup_s" else "  <-- above bound/3"
            steady = steady and bool(flag == "")
            print(f"  {name:14s} median {s['median']:.4g} {s['unit']}  spread {s['spread']:.3f}"
                  f"  bound {bound}{flag}", flush=True)
        repeats = []
        for i, seed in enumerate(args.traced_seeds):
            _, result = run(workload, seed, args.seconds, 1)
            entry["traced"][f"seed_{seed}"] = {k: v["value"] for k, v in result["metrics"].items()}
            if i == 0:
                _, again = run(workload, seed, args.seconds, 1)
                repeats.append(exact_counts(result["metrics"]) == exact_counts(again["metrics"]))
        if repeats:
            entry["traced_counts_repeat"] = all(repeats)
            print(f"  traced counts repeat exactly: {entry['traced_counts_repeat']}", flush=True)
        doc["workloads"][workload] = entry
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {args.out}; every spread below a third of its bound: {steady}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
