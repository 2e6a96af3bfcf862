"""Layer spans and counters for the traced benchmark run.

The pixelinv modules import each other's functions by name, so a function
is wrapped at every binding through which a workload reaches it, and the
originals are restored afterwards. Spans (name, start, end, parent) are
kept in memory; counters are taken from the arguments and return values
seen at the same boundaries, never from state inside the library.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from contextlib import contextmanager

# (span name, function name, modules in which the workloads look it up).
# The bare "pixelinv" bindings are the ones the benchmark itself calls.
PROBES = [
    ("mesh.build_mesh", "build_mesh", ("pixelinv", "pixelinv.experiments")),
    ("mesh.disk_layout", "standard_disk_layout", ("pixelinv", "pixelinv.experiments")),
    ("assembly.pixel_matrices", "assemble_pixel_matrices", ("pixelinv", "pixelinv.experiments")),
    ("assembly.load", "assemble_load", ("pixelinv", "pixelinv.experiments")),
    ("assembly.global_matrix", "global_matrix", ("pixelinv.forward",)),
    ("linsolve.solve", "solve_multi", ("pixelinv.linsolve",)),
    ("linsolve.solve", "solve_spd", ("pixelinv.linsolve",)),
    ("forward.matrix", "forward_matrix", ("pixelinv", "pixelinv.experiments")),
    ("forward.pair_values", "forward_pair_values", ("pixelinv.experiments",)),
    ("analysis.condition_number", "condition_number", ("pixelinv.experiments",)),
    ("analysis.singular_values", "singular_values", ("pixelinv.analysis",)),
    ("experiments.landscape", "run_residual_landscape", ("pixelinv",)),
    ("experiments.stability", "run_stability_study", ("pixelinv",)),
]


def _spmv_bytes(matrix) -> int:
    """Bytes one CSR matrix-vector product moves: values, column indices and
    row pointers read once, input vector read and output vector written once."""
    if not hasattr(matrix, "indptr"):
        return 0
    rows = matrix.shape[0]
    return (
        matrix.nnz * (matrix.data.itemsize + matrix.indices.itemsize)
        + (rows + 1) * matrix.indptr.itemsize
        + 2 * rows * 8
    )


class Tracer:
    """In-memory span recorder with counters taken at the same boundaries."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = defaultdict(float)
        self.max_residual = 0.0
        self.nnz = 0
        self.missing = []
        self._stack = []

    @contextmanager
    def span(self, name):
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def _count(self, name, args, kwargs, result):
        if name == "assembly.global_matrix":
            self.nnz = max(self.nnz, int(result.nnz))
        elif name == "linsolve.solve":
            reports = result if isinstance(result, list) else [result]
            matrix = args[0] if args else kwargs["matrix"]
            iterations = sum(int(r.iterations) for r in reports)
            self.counts["linsolve.solves"] += len(reports)
            self.counts["linsolve.cg_iterations"] += iterations
            self.counts["linsolve.spmv_bytes_computed"] += iterations * _spmv_bytes(matrix)
            self.max_residual = max([self.max_residual] + [float(r.residual_norm) for r in reports])
            if any(self.spans[i][0].startswith("forward.") for i in self._stack):
                self.counts["forward.solves"] += len(reports)
        elif name == "forward.matrix":
            loads = args[2] if len(args) > 2 else kwargs["loads"]
            self.counts["forward.loads"] += len(loads)
        elif name == "forward.pair_values":
            pairs = args[2] if len(args) > 2 else kwargs["pairs"]
            self.counts["forward.loads"] += len({id(excitation) for excitation, _ in pairs})

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            self._count(name, args, kwargs, result)
            return result

        return wrapper

    def totals(self) -> dict:
        """Per span name: total time (``<name>_s``) and calls (``<name>_calls``);
        per layer: self time (``<layer>.self_s``); plus the counters."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(float, self.counts)
        for i, (name, start, end, _) in enumerate(self.spans):
            out[name + "_s"] += end - start
            out[name + "_calls"] += 1
            out[name.split(".")[0] + ".self_s"] += end - start - child[i]
        return out


@contextmanager
def installed(tracer: Tracer):
    """Route every probed binding through ``tracer`` until the block exits."""
    patched = []
    try:
        for name, attr, modules in PROBES:
            for modname in modules:
                module = importlib.import_module(modname)
                fn = getattr(module, attr, None)
                if fn is None:
                    tracer.missing.append(f"{modname}.{attr}")
                    continue
                setattr(module, attr, tracer.wrap(name, fn))
                patched.append((module, attr, fn))
        yield tracer
    finally:
        for module, attr, fn in reversed(patched):
            setattr(module, attr, fn)
