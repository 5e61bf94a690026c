"""Each process imports only what it runs.

``import bwbary`` loads no submodule and no scipy: the package's exports are
loaded at first use.  Each CLI subcommand imports the modules it runs, and
one test per subcommand checks the whole import profile of one run of it
(construct with ``--pair``, ``--c`` and ``--law``; verify; barycentre with and
without ``--init``; three recurrence runs; sweep; mc):

- no subcommand imports scipy: barycentre problems factor their inputs in
  numpy, the solver checks ``--init`` by its eigendecomposition, and the
  principal angles are numpy's.  scipy is imported at the first dense
  covariance factor (LAPACK ``pstrf``, ``linalg.covariance_factor``:
  distances, maps, ``load_matrix``), which no subcommand reaches;
- ``recurrence`` computes on Python floats, so it loads neither numpy nor
  ``linalg`` nor the solver; every other subcommand loads numpy but not
  ``numpy.ma`` (the partition's component sizes come from ``bincount``, not
  ``np.unique``);
- ``construct`` without ``--law`` loads no solver;
- only ``mc`` and ``construct --law`` load ``randomized``, and no subcommand
  loads ``numpy.random``: ``randomized`` computes its Philox streams itself.

Each check runs in a fresh interpreter, because the test modules import scipy
and every ``bwbary`` module themselves; the runs of all subcommands share one
module-scoped fixture, so each command starts one interpreter.
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
    assert rc == 0, argv
    return set(modules)


# in order: construct-pair writes the files the later runs read ({d} is their directory)
SUBCOMMANDS = {
    "construct-pair": "construct --dim 32 --pair --out {d}",
    "construct-c": "construct --dim 16 --c 2 --out {d}/c",
    "construct-law": "construct --dim 16 --law uniform --out {d}/law",
    "verify": "verify --candidate {d}/sigma.json --inputs {d}/s1.json {d}/s2.json",
    "barycentre": "barycentre --inputs {d}/s1.json {d}/s2.json --ridge 1e-6 --ridge-decay 0.5"
                  " --out {d}/bary.json",
    "barycentre-init": "barycentre --inputs {d}/s1.json {d}/s2.json --init {d}/sigma.json"
                       " --out {d}/bary_init.json",
    "recurrence": "recurrence --y0 1 --y1 0 --steps 30",
    "recurrence-csv": "recurrence --y0 0.3 --y1 -0.7 --sign minus --csv {d}/rec.csv",
    "recurrence-json": "--report json recurrence --y0 1e10 --y1 0.1",
    "sweep": "sweep --dims 8..32 --out-csv {d}/s.csv",
    "mc": "mc --dim 8 --n 4 --seed 3",
}


@pytest.fixture(scope="module")
def subcommand_modules(tmp_path_factory):
    """The modules each of :data:`SUBCOMMANDS` imported, each run in a fresh interpreter."""
    d = str(tmp_path_factory.mktemp("cli"))
    return {name: cli_modules(*(arg.format(d=d) for arg in command.split()))
            for name, command in SUBCOMMANDS.items()}


@pytest.mark.parametrize("name", SUBCOMMANDS)
def test_subcommand_loads_only_its_modules(name, subcommand_modules):
    modules = subcommand_modules[name]
    assert not [m for m in modules if m.split(".")[0] == "scipy"]
    if name.startswith("recurrence"):
        assert not {"numpy", "bwbary.linalg", "bwbary.barycentre"} & modules
    else:
        assert "numpy" in modules and "numpy.ma" not in modules
    if name in ("construct-pair", "construct-c"):
        assert "bwbary.barycentre" not in modules
    assert ("bwbary.randomized" in modules) == (name in ("mc", "construct-law"))
    assert "numpy.random" not in modules


def test_package_import_loads_no_submodule():
    assert run_fresh("""
        import sys
        import bwbary
        print([m for m in sys.modules if m.startswith("bwbary.")])
    """) == "[]"


def test_package_import_leaves_scipy_out():
    assert run_fresh("""
        import sys
        import bwbary, bwbary.cli
        print("scipy" in sys.modules)
    """) == "False"


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
    assert len(bwbary.__all__) == len(set(bwbary.__all__)) == 41
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
