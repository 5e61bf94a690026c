"""scipy is imported at the first pivoted Cholesky or principal angle, not with the package.

Each check runs in a fresh interpreter, because the test modules import scipy
themselves.
"""

import subprocess
import sys
import textwrap


def run_fresh(code: str) -> str:
    """Run ``code`` in a fresh interpreter; return the last line it prints."""
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def cli_loads_scipy(*argv) -> bool:
    """Run ``bwbary.cli.main(argv)`` in a fresh interpreter; whether it imported scipy."""
    last = run_fresh(f"""
        import sys
        from bwbary.cli import main
        rc = main({list(argv)!r})
        print(rc, "scipy" in sys.modules)
    """)
    rc, loaded = last.split()
    assert rc == "0"
    return loaded == "True"


def test_package_import_leaves_scipy_out():
    assert run_fresh("""
        import sys
        import bwbary, bwbary.cli
        print("scipy" in sys.modules)
    """) == "False"


def test_cli_loads_scipy_only_when_it_factors(tmp_path):
    assert not cli_loads_scipy("recurrence", "--y0", "1", "--y1", "0", "--steps", "30")
    assert not cli_loads_scipy("construct", "--dim", "32", "--pair", "--out", str(tmp_path))
    assert cli_loads_scipy("verify", "--candidate", str(tmp_path / "sigma.json"),
                           "--inputs", str(tmp_path / "s1.json"), str(tmp_path / "s2.json"))


def test_lazily_fetched_pstrf_is_the_lapack_routine():
    # the factor of a rank-20 dim-32 covariance, first through the lazy path,
    # then from the routine fetched directly, with the pivoting undone by hand
    assert run_fresh("""
        import sys
        import numpy as np
        from bwbary.linalg import covariance_factor

        G = np.random.default_rng(60).standard_normal((32, 20))
        A = G @ G.T
        A = (A + A.T) / 2.0
        assert "scipy" not in sys.modules
        F = covariance_factor(A)[1]
        assert "scipy" in sys.modules

        from scipy.linalg import get_lapack_funcs
        pstrf = get_lapack_funcs(("pstrf",), (A,))[0]
        c, piv, rank, info = pstrf(A, lower=0)
        inv = np.empty(32, dtype=np.intp)
        inv[piv - 1] = np.arange(32)
        expected = np.triu(c[:rank])[:, inv]
        print(rank, F.shape, np.array_equal(F, expected))
    """) == "20 (20, 32) True"
