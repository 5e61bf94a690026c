"""Span tracer that wraps bwbary's module functions and numpy's LAPACK entry points.

The tracer edits no source file.  It replaces, for the life of one
``Tracer.installed()`` block, every module-level name that refers to a
function defined in a traced bwbary module -- in every traced module's
namespace and in the package namespace -- with a wrapper that records a span.
Calls made through ``from .linalg import check_covariance`` or through
``linalg.psd_factor`` are both caught, because both are global look-ups at
call time.  ``numpy.linalg.{eigh,eigvalsh,svd}`` and ``bwbary.linalg._pstrf``
are wrapped the same way under the names ``lapack.<routine>``.

Each span is ``(id, parent_id, name, start, end)``.  Self time is the span's
duration minus the time covered by its direct children.  Spans stay in memory
until :meth:`Tracer.write` is called.
"""

import importlib
import inspect
import json
import os
import time
from contextlib import contextmanager

import numpy as np

TRACED_MODULES = (
    "linalg", "geometry", "barycentre", "construct", "randomized", "io", "cli", "recurrence",
)
LAPACK_ROUTINES = ("eigh", "eigvalsh", "svd")


def _n3(routine, args):
    """Computed operation proxy of one LAPACK call: dim**3, or m*n*min(m, n) for svd."""
    shape = np.shape(args[0]) if args else ()
    if len(shape) < 2:
        return 0
    m, n = shape[-2], shape[-1]
    return m * n * min(m, n) if routine == "svd" else n ** 3


class OpStats:
    """Per-name call counts, self time and computed LAPACK work for one operation."""

    def __init__(self):
        self.calls = {}
        self.self_s = {}
        self.n3 = {}
        self.iterations = 0
        self.bytes_written = 0
        self.spans = 0

    def counts(self):
        """The part of the stats that must repeat exactly for identical inputs."""
        return {
            "calls": dict(sorted(self.calls.items())),
            "n3": dict(sorted(self.n3.items())),
            "iterations": self.iterations,
            "bytes_written": self.bytes_written,
        }


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.spans = []  # (id, parent_id, name_id, start, end)
        self._stack = []  # frames: [span_id, child_seconds]
        self._next_id = 0
        self.op = OpStats()
        self.op_stats = []

    def begin_op(self):
        self.op = OpStats()

    def end_op(self):
        self.op_stats.append(self.op)

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name, fn, after=None):
        """Return ``fn`` wrapped in a span named ``name``; ``after(result, args)`` runs on return."""
        name_id = self._name_id(name)
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else None
            frame = [span_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                op = self.op
                op.calls[name] = op.calls.get(name, 0) + 1
                op.self_s[name] = op.self_s.get(name, 0.0) + duration - frame[1]
                op.spans += 1
                if parent is not None:
                    parent[1] += duration
                self.spans.append((span_id, parent[0] if parent else -1, name_id, start, end))
            if after is not None:
                after(result, args)
            return result

        traced.__wrapped__ = fn
        return traced

    def _lapack_after(self, routine):
        key = f"lapack.{routine}"

        def after(result, args):
            self.op.n3[key] = self.op.n3.get(key, 0) + _n3(routine, args)

        return after

    def _count_iterations(self, result, args):
        self.op.iterations += result.iterations

    def _count_bytes(self, result, args):
        self.op.bytes_written += os.path.getsize(args[0])

    @contextmanager
    def installed(self):
        """Install every wrapper; restore the original objects on exit."""
        package = importlib.import_module("bwbary")
        modules = {m: importlib.import_module(f"bwbary.{m}") for m in TRACED_MODULES}
        hooks = {
            "barycentre.barycentre_fixed_point": self._count_iterations,
            "io.save_matrix": self._count_bytes,
        }
        wrappers = {}
        for short, module in modules.items():
            for attr, obj in vars(module).items():
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    name = f"{short}.{attr}"
                    wrappers[obj] = self.wrap(name, obj, hooks.get(name))
        patched = []  # (namespace, attribute, original)
        for namespace in (package, *modules.values()):
            for attr, obj in list(vars(namespace).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    patched.append((namespace, attr, obj))
                    setattr(namespace, attr, wrappers[obj])
        linalg = modules["linalg"]
        patched.append((linalg, "_pstrf", linalg._pstrf))
        linalg._pstrf = self.wrap("lapack.pstrf", linalg._pstrf, self._lapack_after("pstrf"))
        for routine in LAPACK_ROUTINES:
            original = getattr(np.linalg, routine)
            patched.append((np.linalg, routine, original))
            setattr(np.linalg, routine,
                    self.wrap(f"lapack.{routine}", original, self._lapack_after(routine)))
        try:
            yield self
        finally:
            for namespace, attr, original in reversed(patched):
                setattr(namespace, attr, original)

    def durations(self, name):
        """Durations in seconds of every recorded span called ``name``."""
        name_id = self._name_ids.get(name)
        return [end - start for _, _, nid, start, end in self.spans if nid == name_id]

    def write(self, path, extra):
        """Write all spans (columnar, names indexed) and ``extra`` as one JSON document."""
        doc = dict(extra)
        doc["span_names"] = self.names
        doc["span_columns"] = ["id", "parent_id", "name", "start_s", "end_s"]
        doc["spans"] = self.spans
        doc["op_counts"] = [op.counts() for op in self.op_stats]
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
