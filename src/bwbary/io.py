"""Matrix files and run reports.

Matrices travel as JSON objects ``{"dim": N, "kind": "covariance"|"map",
"data": [N*N floats, row-major]}``.  Python's ``json`` prints floats with
``repr``, the shortest string that round-trips, so save-then-load reproduces
entries bit-exactly.  Reports are JSON with sorted keys; the wall-clock lives
in an isolated ``"timing"`` object so that everything outside it is
byte-identical across reruns with the same command and seed.
"""

import hashlib
import json
import time
from pathlib import Path

import numpy as np

from .errors import InvalidInput
from .linalg import check_covariance, check_symmetric

KINDS = ("covariance", "map")


def save_matrix(path, matrix, kind: str) -> None:
    """Write a matrix as a MatrixFile JSON document."""
    if kind not in KINDS:
        raise InvalidInput(f"kind must be one of {KINDS}")
    A = np.asarray(matrix, dtype=np.float64)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise InvalidInput(f"expected a square matrix, got shape {A.shape}")
    doc = {"dim": int(A.shape[0]), "kind": kind, "data": A.reshape(-1).tolist()}
    Path(path).write_text(json.dumps(doc) + "\n")


def load_matrix(path) -> tuple:
    """Read a MatrixFile; returns ``(matrix, kind)``.

    Covariance files must pass the covariance invariants (symmetry, PSD up
    to tolerance); map files only symmetry.
    """
    A, kind = _read_matrix(path)
    if kind == "covariance":
        check_covariance(A)
    else:
        check_symmetric(A)
    return A, kind


def _read_matrix(path) -> tuple:
    """:func:`load_matrix` without its symmetry and PSD checks: parse, shape and finiteness only.

    For a caller whose next step checks the matrix anyway, so that each file
    is checked once, by the code that uses it.
    """
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise InvalidInput(f"cannot read matrix file {path}: {exc}") from exc
    try:
        dim = int(doc["dim"])
        kind = doc["kind"]
        data = doc["data"]
    except (KeyError, TypeError) as exc:
        raise InvalidInput(f"malformed matrix file {path}: missing {exc}") from exc
    if kind not in KINDS:
        raise InvalidInput(f"bad kind {kind!r} in {path}")
    if not isinstance(data, list) or dim < 1 or len(data) != dim * dim:
        raise InvalidInput(f"data does not match dim {dim} in {path}")
    try:
        A = np.asarray(data, dtype=np.float64).reshape(dim, dim)
    except (TypeError, ValueError) as exc:
        raise InvalidInput(f"non-numeric data in {path}: {exc}") from exc
    if not np.all(np.isfinite(A)):
        raise InvalidInput("matrix has non-finite entries")
    return A, kind


def file_digest(path) -> str:
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
        if isinstance(value, np.ndarray):
            value = value.tolist()
        elif isinstance(value, (np.floating, np.integer)):
            value = value.item()
        self.doc["results"][key] = value

    def finish(self) -> dict:
        out = dict(self.doc)
        out["timing"] = {"wall_clock_s": time.perf_counter() - self._start}
        return out

    def to_json(self) -> str:
        return json.dumps(self.finish(), sort_keys=True, indent=2)
