"""The benchmark's own tests.

Run from the root of a checkout (they are not collected by the repository's
test suite, whose file pattern is ``test_*.py``):

    python3 -m pytest bench/repeat_check.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def traced_counts(workload, seed):
    """Exact per-operation counts from one traced run of a single operation."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", "1"],
        capture_output=True, text=True, timeout=300, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    return {name: m["value"] for name, m in metrics.items()
            if (name.startswith("lapack.") and name.endswith((".calls", ".n3_total")))
            or name == "barycentre.iterations"}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    first = traced_counts(workload, seed=7)
    assert first["lapack.n3_total"] > 0
    assert traced_counts(workload, seed=7) == first


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=180, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
