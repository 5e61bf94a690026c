"""Fixtures shared by the test modules."""

from collections import Counter, defaultdict

import numpy as np
import pytest

from bwbary import linalg


class LapackCalls(Counter):
    """Call counts keyed by routine, with ``shapes[name]``: each call's operand shape, in order."""

    def __init__(self):
        super().__init__()
        self.shapes = defaultdict(list)

    def clear(self):
        super().clear()
        self.shapes.clear()


@pytest.fixture
def lapack_calls(monkeypatch):
    """Count the LAPACK-backed calls the package makes while the test runs.

    Returns a :class:`LapackCalls` keyed by ``"eigh"``, ``"eigvalsh"`` and
    ``"svd"`` (numpy's wrappers) and ``"pstrf"`` (``linalg``'s pivoted
    Cholesky); ``shapes`` records the shape of each call's matrix operand, so
    a stacked SVD shows as one ``(k, m, n)`` entry.  Counting starts at
    set-up; ``clear()`` starts it again.
    """
    calls = LapackCalls()

    def counting(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            calls.shapes[name].append(np.shape(args[0]))
            return original(*args, **kwargs)

        return wrapper

    for name in ("eigh", "eigvalsh", "svd"):
        monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
    monkeypatch.setattr(linalg, "_pstrf", counting("pstrf", linalg._pstrf))
    return calls
