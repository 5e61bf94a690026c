"""Each process imports only what it runs.

``import bwbary`` loads no submodule: the package's exports are loaded at
first use, and each CLI subcommand imports the modules it runs, so
``recurrence`` loads neither numpy nor ``linalg``, only ``mc`` and
``construct --law`` load ``randomized`` and ``numpy.random``, and no
subcommand loads ``numpy.ma``.

scipy is imported at the first dense covariance factor (LAPACK ``pstrf``,
``linalg.covariance_factor``: distances, maps, ``load_matrix``), not with the
package.  Barycentre problems factor their inputs in numpy, the solver checks
``--init`` by its eigendecomposition, and the principal angles are numpy's,
so no CLI subcommand imports scipy at all.

Each check runs in a fresh interpreter, because the test modules import scipy
and every ``bwbary`` module themselves.
"""

import json
import subprocess
import sys
import textwrap

import pytest


def run_fresh(code: str) -> str:
    """Run ``code`` in a fresh interpreter; return the last line it prints."""
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def cli_modules(*argv) -> set:
    """Run ``bwbary.cli.main(argv)`` in a fresh interpreter; the modules it imported."""
    last = run_fresh(f"""
        import contextlib, io, json, sys
        from bwbary.cli import main
        with contextlib.redirect_stdout(io.StringIO()):
            rc = main({list(argv)!r})
        print(json.dumps([rc, sorted(sys.modules)]))
    """)
    rc, modules = json.loads(last)
    assert rc == 0
    return set(modules)


def cli_loads_scipy(*argv, module="scipy") -> bool:
    """Run ``bwbary.cli.main(argv)`` in a fresh interpreter; whether it imported ``module``."""
    return module in cli_modules(*argv)


def test_package_import_loads_no_submodule():
    assert run_fresh("""
        import sys
        import bwbary
        print([m for m in sys.modules if m.startswith("bwbary.")])
    """) == "[]"


def test_each_subcommand_loads_only_its_modules(tmp_path):
    inputs = ("--inputs", str(tmp_path / "s1.json"), str(tmp_path / "s2.json"))
    runs = {  # in order: construct writes the files the others read
        "construct": ("construct", "--dim", "32", "--pair", "--out", str(tmp_path)),
        "construct --c": ("construct", "--dim", "16", "--out", str(tmp_path / "c")),
        "verify": ("verify", "--candidate", str(tmp_path / "sigma.json"), *inputs),
        "barycentre": ("barycentre", *inputs, "--ridge", "1e-6", "--ridge-decay", "0.5",
                       "--out", str(tmp_path / "bary.json")),
        "recurrence": ("recurrence", "--y0", "1", "--y1", "0", "--steps", "30"),
        "recurrence --csv": ("recurrence", "--y0", "0.3", "--y1", "-0.7", "--sign", "minus",
                             "--csv", str(tmp_path / "rec.csv")),
        "recurrence json": ("--report", "json", "recurrence", "--y0", "1e10", "--y1", "0.1"),
        "sweep": ("sweep", "--dims", "8..32", "--out-csv", str(tmp_path / "s.csv")),
        "construct --law": ("construct", "--dim", "16", "--law", "uniform",
                            "--out", str(tmp_path / "law")),
        "mc": ("mc", "--dim", "8", "--n", "4", "--seed", "3"),
    }
    loaded = {name: cli_modules(*argv) for name, argv in runs.items()}
    for name, modules in loaded.items():
        if name.startswith("recurrence"):
            # the recurrence computes on Python floats
            assert not {"numpy", "bwbary.linalg", "bwbary.barycentre"} & modules, name
        else:
            # the partition's component sizes come from bincount, not np.unique
            assert "numpy" in modules and "numpy.ma" not in modules, name
    assert "bwbary.barycentre" not in loaded["construct"]
    for name, modules in loaded.items():
        draws = name in ("mc", "construct --law")
        assert ("bwbary.randomized" in modules) == draws, name
        assert ("numpy.random" in modules) == draws, name


def test_star_import_binds_all_to_the_defining_objects():
    assert run_fresh("""
        import importlib
        import bwbary

        names = {}
        exec("from bwbary import *", names)
        del names["__builtins__"]
        same = all(names[n] is getattr(importlib.import_module(f"bwbary.{m}"), n)
                   for n, m in bwbary._EXPORTS.items())
        print(sorted(names) == sorted(bwbary.__all__), same)
    """) == "True True"


def test_submodule_is_an_attribute_before_it_is_imported():
    assert run_fresh("""
        import bwbary
        print(bwbary.linalg.__name__, bwbary.linalg.PSD_TOL == bwbary.PSD_TOL)
    """) == "bwbary.linalg True"


def test_package_namespace():
    import bwbary

    assert set(bwbary.__all__) <= set(dir(bwbary))
    assert len(bwbary.__all__) == len(set(bwbary.__all__)) == 45
    with pytest.raises(AttributeError, match="no_such_name"):
        bwbary.no_such_name  # noqa: B018
    assert not hasattr(bwbary, "no_such_name")


def test_exports_are_looked_up_at_each_access(monkeypatch):
    # nothing is cached in the package, so a name replaced in its defining
    # module (as the benchmark's tracer does) is what the package returns
    import bwbary
    from bwbary import barycentre

    def replacement(*args, **kwargs):
        raise AssertionError("not called")

    monkeypatch.setattr(barycentre, "problem", replacement)
    assert bwbary.problem is replacement
    monkeypatch.undo()
    assert bwbary.problem is barycentre.problem
    assert "problem" not in vars(bwbary)


def test_package_import_leaves_scipy_out():
    assert run_fresh("""
        import sys
        import bwbary, bwbary.cli
        print("scipy" in sys.modules)
    """) == "False"


def test_cli_loads_scipy_only_when_it_factors(tmp_path):
    assert not cli_loads_scipy("recurrence", "--y0", "1", "--y1", "0", "--steps", "30")
    assert not cli_loads_scipy("construct", "--dim", "32", "--pair", "--out", str(tmp_path))
    inputs = ("--inputs", str(tmp_path / "s1.json"), str(tmp_path / "s2.json"))
    assert not cli_loads_scipy("verify", "--candidate", str(tmp_path / "sigma.json"), *inputs)
    assert not cli_loads_scipy("barycentre", *inputs, "--ridge", "1e-6", "--ridge-decay", "0.5",
                               "--out", str(tmp_path / "bary.json"))
    assert not cli_loads_scipy("sweep", "--dims", "8..32", "--out-csv", str(tmp_path / "s.csv"))
    # --init is checked by the eigendecomposition of its blocks, with no pstrf
    assert not cli_loads_scipy("barycentre", *inputs, "--init", str(tmp_path / "sigma.json"),
                               "--max-iter", "2", "--out", str(tmp_path / "bary.json"))


def test_no_subcommand_imports_scipy(tmp_path):
    inputs = ("--inputs", str(tmp_path / "s1.json"), str(tmp_path / "s2.json"))
    runs = {  # in order: construct writes the files the others read
        "construct": ("construct", "--dim", "32", "--pair", "--out", str(tmp_path)),
        "verify": ("verify", "--candidate", str(tmp_path / "sigma.json"), *inputs),
        "barycentre": ("barycentre", *inputs, "--ridge", "1e-6", "--out", str(tmp_path / "b.json")),
        "barycentre --init": ("barycentre", *inputs, "--init", str(tmp_path / "sigma.json"),
                              "--out", str(tmp_path / "b.json")),
        "recurrence": ("recurrence", "--y0", "1", "--y1", "0", "--steps", "30"),
        "sweep": ("sweep", "--dims", "8..32", "--out-csv", str(tmp_path / "s.csv")),
        "mc": ("mc", "--dim", "8", "--n", "4"),
    }
    loaded = {name: sorted(m for m in cli_modules(*argv) if m.split(".")[0] == "scipy")
              for name, argv in runs.items()}
    assert loaded == {name: [] for name in runs}


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


def test_cli_never_imports_scipy_linalg(tmp_path):
    assert not cli_loads_scipy("construct", "--dim", "32", "--pair", "--out", str(tmp_path),
                               module="scipy.linalg")
    assert not cli_loads_scipy("verify", "--candidate", str(tmp_path / "sigma.json"),
                               "--inputs", str(tmp_path / "s1.json"), str(tmp_path / "s2.json"),
                               module="scipy.linalg")
    assert not cli_loads_scipy("barycentre", "--inputs", str(tmp_path / "s1.json"),
                               str(tmp_path / "s2.json"), "--ridge", "1e-6",
                               "--ridge-decay", "0.5", "--out", str(tmp_path / "bary.json"),
                               module="scipy.linalg")
    assert not cli_loads_scipy("sweep", "--dims", "8..32", "--out-csv", str(tmp_path / "sweep.csv"),
                               module="scipy.linalg")
