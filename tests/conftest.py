"""Fixtures shared by the test modules."""

from collections import Counter

import numpy as np
import pytest

from bwbary import linalg


@pytest.fixture
def lapack_calls(monkeypatch):
    """Count the LAPACK-backed calls the package makes while the test runs.

    Returns a :class:`collections.Counter` keyed by ``"eigh"``, ``"eigvalsh"``
    and ``"svd"`` (numpy's wrappers) and ``"pstrf"`` (``linalg``'s pivoted
    Cholesky).  Counting starts at set-up; ``clear()`` starts it again.
    """
    calls = Counter()

    def counting(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in ("eigh", "eigvalsh", "svd"):
        monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
    monkeypatch.setattr(linalg, "_pstrf", counting("pstrf", linalg._pstrf))
    return calls
