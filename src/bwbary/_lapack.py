"""The one LAPACK routine bwbary calls directly, fetched from scipy at its first use.

The routine is ``pstrf``, the pivoted Cholesky of one dense matrix, and its
only caller is ``linalg.covariance_factor`` (distances, maps and
``check_covariance``); barycentre problems factor their blocks with the
numpy routine ``linalg.pivoted_cholesky`` instead.  Importing scipy costs
more than the rest of ``bwbary.cli``, so the import waits for the first
dense factor.  Even then only scipy's top level is
imported (about 10 ms): the routine comes from scipy's compiled LAPACK
wrapper, ``scipy/linalg/_flapack<suffix>``, loaded directly from its file.
That skips ``scipy/linalg/__init__.py``, which pulls in ``numpy.testing``,
``unittest`` and more, about 0.2 s that a CLI process spends on nothing else.
``import scipy`` still runs first, because on Windows wheels it registers
the directory of scipy's bundled libraries that the extension links against.

The loaded module is registered as ``scipy.linalg._flapack``, so a later
``import scipy.linalg`` in the same process takes it over, and its
``get_lapack_funcs(("pstrf",), ...)[0]`` is the very routine returned here.
When ``scipy.linalg._flapack`` is already imported it is reused; when the
file is missing or fails to load, the routine is fetched through
``scipy.linalg.get_lapack_funcs`` as before.  Either way the factors have
the same bits.

The routine is defined outside the modules that ``bench/tracer.py`` wraps, so
that its ``lapack.pstrf`` span times the LAPACK call itself, with no traced
bwbary function in between.
"""

import functools
import importlib.machinery
import importlib.util
import os
import sys

import numpy as np

_FLAPACK = "scipy.linalg._flapack"


def _flapack_path():
    """The file of scipy's compiled LAPACK wrapper, or ``None`` when there is none."""
    import scipy

    directory = os.path.join(os.path.dirname(scipy.__file__), "linalg")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(directory, "_flapack" + suffix)
        if os.path.isfile(path):
            return path
    return None


def _load_flapack():
    """``scipy.linalg._flapack`` without importing ``scipy.linalg``, or ``None``."""
    if _FLAPACK in sys.modules:
        return sys.modules[_FLAPACK]
    path = _flapack_path()
    if path is None:
        return None
    spec = importlib.util.spec_from_file_location(_FLAPACK, path)
    try:
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    except ImportError:
        return None
    sys.modules[_FLAPACK] = module
    return module


@functools.cache
def _routine():
    flapack = _load_flapack()
    if flapack is not None:
        return flapack.dpstrf
    from scipy.linalg import get_lapack_funcs

    return get_lapack_funcs(("pstrf",), (np.empty((1, 1), dtype=np.float64),))[0]


def pstrf(a, lower=0):
    """LAPACK ``dpstrf``, pivoted Cholesky of a float64 matrix: ``(c, piv, rank, info)``."""
    return _routine()(a, lower=lower)
