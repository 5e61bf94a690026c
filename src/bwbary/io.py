"""Matrix files and run reports.

Matrices travel as JSON objects ``{"dim": N, "kind": "covariance"|"map",
"data": [N*N floats, row-major]}``.  Python's ``json`` prints floats with
``repr``, the shortest string that round-trips, so save-then-load reproduces
entries bit-exactly.  Reports are JSON with sorted keys; the wall-clock lives
in an isolated ``"timing"`` object so that everything outside it is
byte-identical across reruns with the same command and seed.

numpy is imported by the functions that handle matrices, not with the
module, so a process that only writes reports (``bwbary recurrence``) runs
without it.
"""

import json
import time
from pathlib import Path

from .errors import InvalidInput

KINDS = ("covariance", "map")


def save_matrix(path, matrix, kind: str) -> None:
    """Write a matrix as a MatrixFile JSON document; its entries must be real numbers."""
    from .linalg import check_square

    if kind not in KINDS:
        raise InvalidInput(f"kind must be one of {KINDS}")
    A = check_square(matrix)
    doc = {"dim": int(A.shape[0]), "kind": kind, "data": A.reshape(-1).tolist()}
    try:
        # NaN and Infinity tokens are not JSON, and load_matrix rejects them
        text = json.dumps(doc, allow_nan=False)
    except ValueError as exc:
        raise InvalidInput("matrix has non-finite entries") from exc
    Path(path).write_text(text + "\n")


def load_matrix(path) -> tuple:
    """Read a MatrixFile; returns ``(matrix, kind)``.

    Covariance files must pass the covariance invariants (symmetry, PSD up
    to tolerance); map files only symmetry.
    """
    # linalg loads here, not with the module: ``recurrence`` writes reports only
    from .linalg import check_symmetric, covariance_factor

    A, kind = _read_matrix(path)
    if kind == "covariance":
        covariance_factor(A)
    else:
        check_symmetric(A)
    return A, kind


def _read_matrix(path) -> tuple:
    """:func:`load_matrix` without its symmetry and PSD checks: parse, shape and finiteness only.

    For a caller whose next step checks the matrix anyway, so that each file
    is checked once, by the code that uses it.
    """
    import numpy as np

    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise InvalidInput(f"cannot read matrix file {path}: {exc}") from exc
    try:
        dim = doc["dim"]
        kind = doc["kind"]
        data = doc["data"]
    except (KeyError, TypeError) as exc:
        raise InvalidInput(f"malformed matrix file {path}: missing {exc}") from exc
    if type(dim) is not int:  # int() would truncate 2.9 and read true as 1
        raise InvalidInput(f"dim must be an integer, got {dim!r} in {path}")
    if kind not in KINDS:
        raise InvalidInput(f"bad kind {kind!r} in {path}")
    if not isinstance(data, list) or dim < 1 or len(data) != dim * dim:
        raise InvalidInput(f"data does not match dim {dim} in {path}")
    # one pass over the types: asarray would read true as 1.0 and "1e0" as 1.0
    bad = set(map(type, data)) - {float, int}
    if bad:
        names = ", ".join(sorted(t.__name__ for t in bad))
        raise InvalidInput(f"data entries must be JSON numbers, got {names} in {path}")
    try:
        A = np.asarray(data, dtype=np.float64).reshape(dim, dim)
    except OverflowError as exc:  # an integer entry beyond the float range
        raise InvalidInput(f"data entry too large for a float in {path}") from exc
    if not np.all(np.isfinite(A)):  # json reads the NaN and Infinity tokens
        raise InvalidInput(f"matrix has non-finite entries in {path}")
    return A, kind


def file_digest(path) -> str:
    import hashlib

    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class RunReport:
    """Accumulates a reproducible record of one CLI invocation."""

    def __init__(self, command: list, seed=None):
        self._start = time.perf_counter()
        self.doc = {
            "command": list(command),
            "inputs": {},
            "results": {},
            "seed": seed,
        }

    def add_input(self, path) -> None:
        self.doc["inputs"][str(path)] = file_digest(path)

    def add_result(self, key: str, value) -> None:
        """Record ``value``, a JSON-ready Python value, under ``key``."""
        self.doc["results"][key] = value

    def finish(self) -> dict:
        out = dict(self.doc)
        out["timing"] = {"wall_clock_s": time.perf_counter() - self._start}
        return out

    def to_json(self) -> str:
        return json.dumps(self.finish(), sort_keys=True, indent=2)
