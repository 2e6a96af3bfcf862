"""The three benchmark workloads, their output checks and the timing harness.

Each workload puts most of its time in a different layer, so that a
change to one layer moves one workload and leaves the others alone:

* ``forward`` - ``forward_matrix`` (F plus all n Jacobian slices) on
  nx=15, k=4 (N=3481, m=56, n=225) at seeded random sigma in [0.5, 2]^n,
  one call at a time (closed loop). Multi-RHS CG on one large matrix is
  about 90% of each call, set-up is the heaviest of any workload, and
  there is no SVD. It is the latency a library user sees per
  Gauss-Newton step.
* ``landscape`` - ``run_residual_landscape`` on the 3x3 grid at a step of
  0.02: 900 different tiny systems (N=121) with one solve each.
  Per-call overhead dominates and no factorization can be amortized, the
  opposite use of ``linsolve`` and ``global_matrix`` from ``forward``.
* ``stability`` - ``run_stability_study`` with explicit k=2 for nx=10..12.
  One-sided Jacobi SVD of the (m^2, n) Jacobian is most of the time;
  ``forward`` and ``landscape`` bypass the SVD entirely.

Each workload is a sequence of passes, and a pass is a fixed list of
items (one ``forward_matrix`` call, one landscape study, one stability
rung). Items are timed one at a time; their outputs are checked after
the timer stops, and the oracle comparisons run after the timed phase.
"""

from __future__ import annotations

import contextlib
import math
import resource
import statistics
import time
import traceback

import numpy as np
import scipy.sparse.linalg as spla

import pixelinv
from spans import Tracer, installed

# Pinned inputs. The seed only draws sigmas (forward) and picks which
# outputs the oracles recompute.
PINNED = {
    "forward": {"nx": 15, "k": 4, "radius_fraction": 0.25, "sigma_low": 0.5,
                "sigma_high": 2.0, "tol": 1e-10, "evals_per_pass": 4, "oracle_evals": 2},
    "landscape": {"nx": 3, "k": 4, "radius_fraction": 0.25, "tol": 1e-10,
                  "landscape_step": 0.02, "landscape_max": 0.6, "oracle_rows": 16},
    "stability": {"k": 2, "nx_min": 10, "nx_max": 12, "radius_fraction": 0.25, "tol": 1e-10},
}

# Relative tolerances of the output checks. The seed state reaches about
# 1.4e-11 (forward), 3.9e-10 (landscape misfit) and 5e-13 (stability).
FORWARD_RTOL = 1e-9
LANDSCAPE_RTOL = 1e-8
STABILITY_RTOL = 1e-8
TRUTH_MAX_R = 1e-20

# setup_s is the fastest of at least SETUP_MIN_REPS samples in a run. A
# sample repeats the set-up until it has lasted SETUP_SAMPLE_S and divides
# by the repetitions, so a 10 ms set-up is not timed by one burst or lull.
SETUP_MIN_REPS = 10
SETUP_SAMPLE_S = 0.1


def setup_grid(nx, k, radius_fraction):
    """The one-off preparation of a grid, through the public calls only."""
    grid = pixelinv.PixelGrid(nx)
    mesh = pixelinv.build_mesh(grid, k)
    disks = pixelinv.standard_disk_layout(mesh, radius_fraction)
    stiffness = pixelinv.assemble_pixel_matrices(mesh, grid)
    loads = [pixelinv.assemble_load(mesh, d) for d in disks]
    return grid, mesh, stiffness, loads


def _direct_values(mesh, grid, sigma, excitations, measurements):
    """Oracle: ``y_r . B_sigma^-1 y_l`` from the one-pass assembler and a
    sparse LU solve, independent of the pixel matrices and of CG."""
    lu = spla.splu(pixelinv.assemble_global(mesh, grid, sigma).tocsc())
    lam = lu.solve(np.column_stack([ld.y for ld in excitations]))
    return lam.T @ np.column_stack([ld.y for ld in measurements])


class Forward:
    def __init__(self, inputs, seed):
        self.inputs = inputs
        self.rng = np.random.default_rng(seed)
        self.sampled = set(
            int(j) for j in self.rng.choice(inputs["evals_per_pass"], inputs["oracle_evals"], replace=False)
        )
        # Drawn once, so every pass repeats the same calls and each item's
        # fastest time is over repeats of one input.
        n = pixelinv.PixelGrid(inputs["nx"]).n
        self.sigmas = [self.rng.uniform(inputs["sigma_low"], inputs["sigma_high"], n)
                       for _ in range(inputs["evals_per_pass"])]
        self.oracle_cases = []

    def setup(self):
        p = self.inputs
        self.grid, self.mesh, self.stiffness, self.loads = setup_grid(p["nx"], p["k"], p["radius_fraction"])

    def items(self, pass_index):
        p = self.inputs
        items = []
        for j, sigma in enumerate(self.sigmas):
            call = lambda sigma=sigma: pixelinv.forward_matrix(self.stiffness, sigma, self.loads, tol=p["tol"])
            items.append((call, (pass_index, j, sigma), 1))
        return items

    def check(self, context, output):
        pass_index, j, sigma = context
        F, jac = output
        values = F.values
        scale = float(np.max(np.abs(values)))
        ok = np.all(np.isfinite(values)) and scale > 0
        ok = ok and np.max(np.abs(values - values.T)) <= FORWARD_RTOL * scale
        # B_sigma is linear in sigma, so sum_i sigma_i dF/dsigma_i = -F exactly.
        ok = ok and np.max(np.abs(pixelinv.directional_derivative(jac, sigma) + values)) <= FORWARD_RTOL * scale
        if pass_index == 0 and j in self.sampled:
            self.oracle_cases.append(((pass_index, j, 0), sigma, values.copy()))
        return set() if ok else {0}

    def finish(self):
        bad = set()
        for key, sigma, values in self.oracle_cases:
            direct = _direct_values(self.mesh, self.grid, sigma, self.loads, self.loads)
            if np.max(np.abs(values - direct)) > FORWARD_RTOL * np.max(np.abs(direct)):
                bad.add(key)
        return bad


class Landscape:
    # The layout of run_residual_landscape: excite the lower-left disk,
    # measure top-middle and top-right; truth 0.5 in pixels 4 and 6.
    EXCITATION = 0
    MEASUREMENTS = (6, 7)
    SWEPT = (3, 5)

    def __init__(self, inputs, seed):
        self.inputs = inputs
        self.config = pixelinv.ExperimentConfig(
            experiment="landscape", nx=inputs["nx"], k=inputs["k"],
            radius_fraction=inputs["radius_fraction"], tol=inputs["tol"],
            landscape_step=inputs["landscape_step"], landscape_max=inputs["landscape_max"],
        )
        side = int(round(inputs["landscape_max"] / inputs["landscape_step"]))
        self.points = side * side
        rng = np.random.default_rng(seed)
        self.sampled = [int(i) for i in rng.choice(self.points, min(inputs["oracle_rows"], self.points), replace=False)]
        self.seen = []  # per pass: the sampled rows

    def setup(self):
        p = self.inputs
        self.grid, self.mesh, _, self.loads = setup_grid(p["nx"], p["k"], p["radius_fraction"])

    def items(self, pass_index):
        return [(lambda: pixelinv.run_residual_landscape(self.config), pass_index, self.points)]

    def check(self, pass_index, output):
        rows = np.array(output.rows, dtype=float)
        if rows.shape != (self.points, 3):
            return set(range(self.points))
        R = rows[:, 2]
        bad = set(np.flatnonzero(~np.isfinite(R) | (R < 0)).tolist())
        truth = np.flatnonzero((np.abs(rows[:, 0] - 0.5) < 1e-12) & (np.abs(rows[:, 1] - 0.5) < 1e-12))
        bad.update(int(i) for i in truth if not R[i] <= TRUTH_MAX_R)
        self.seen.append((pass_index, rows[self.sampled]))
        return bad

    def _sigma(self, a, b):
        sigma = np.ones(self.grid.n)
        sigma[list(self.SWEPT)] = (a, b)
        return sigma

    def _values(self, sigma):
        measurements = [self.loads[r] for r in self.MEASUREMENTS]
        return _direct_values(self.mesh, self.grid, sigma, [self.loads[self.EXCITATION]], measurements)[0]

    def finish(self):
        data = self._values(self._sigma(0.5, 0.5))
        atol = LANDSCAPE_RTOL * float(np.max(np.abs(data)))
        bad = set()
        expected = {}
        for pass_index, rows in self.seen:
            for index, (a, b, R) in zip(self.sampled, rows):
                if index not in expected:
                    misfit = self._values(self._sigma(a, b)) - data
                    expected[index] = math.sqrt(float(misfit @ misfit))
                if not abs(math.sqrt(max(R, 0.0)) - expected[index]) <= atol:
                    bad.add((pass_index, 0, index))
        return bad


class Stability:
    def __init__(self, inputs, seed):
        self.inputs = inputs
        self.rungs = list(range(inputs["nx_min"], inputs["nx_max"] + 1))
        self.seen = []  # (key, nx, cond)
        self._previous = -math.inf  # condition number of the rung before, within a pass

    def _config(self, nx):
        p = self.inputs
        return pixelinv.ExperimentConfig(
            experiment="stability", k=p["k"], nx_min=nx, nx_max=nx,
            radius_fraction=p["radius_fraction"], tol=p["tol"],
        )

    def setup(self):
        for nx in self.rungs:
            setup_grid(nx, self.inputs["k"], self.inputs["radius_fraction"])

    def items(self, pass_index):
        self._previous = -math.inf
        return [(lambda nx=nx: pixelinv.run_stability_study(self._config(nx)), (pass_index, i, nx), 1)
                for i, nx in enumerate(self.rungs)]

    def check(self, context, output):
        pass_index, i, nx = context
        if len(output.rows) != 1:
            return {0}
        row = output.rows[0]
        cond = float(row[3])
        ok = row[0] == nx and math.isfinite(cond) and cond > self._previous
        self._previous = cond
        self.seen.append(((pass_index, i, 0), nx, cond))
        return set() if ok else {0}

    def finish(self):
        expected = {}
        for nx in self.rungs:
            grid, _, stiffness, loads = setup_grid(nx, self.inputs["k"], self.inputs["radius_fraction"])
            _, jac = pixelinv.forward_matrix(stiffness, np.ones(grid.n), loads, tol=self.inputs["tol"])
            s = np.linalg.svd(jac.flattened(), compute_uv=False)
            expected[nx] = s[0] / s[-1]
        return {key for key, nx, cond in self.seen if not abs(cond - expected[nx]) <= STABILITY_RTOL * expected[nx]}


WORKLOADS = {"forward": Forward, "landscape": Landscape, "stability": Stability}


class _Run:
    """Attempt/failure bookkeeping and item timing for one invocation."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.bad = set()
        self.errors = []
        self.passes = 0
        self.setup_times = []

    def _setup(self, tracer=None):
        """Set up once when traced, else time one set-up sample."""
        t0 = time.perf_counter()
        if tracer is not None:
            with tracer.span("workload.setup"):
                self.workload.setup()
            return
        reps = 0
        while reps == 0 or time.perf_counter() - t0 < SETUP_SAMPLE_S:
            self.workload.setup()
            reps += 1
        self.setup_times.append((time.perf_counter() - t0) / reps)

    def timed_passes(self, seconds, traced=False):
        """Set up and run whole passes until ``seconds`` have elapsed (at
        least one pass, and at least ``SETUP_MIN_REPS`` set-up samples).

        Set-up is repeated before every pass, so that its fastest time, like
        each item's, is taken over the whole run. When ``traced``, every second pass
        runs with a Tracer installed around it and its set-up, so traced
        and untraced passes see the same machine. Returns, per pass, the
        ``(elapsed, points)`` of each item and the pass's Tracer or None.
        """
        passes, tracers = [], []
        start = time.perf_counter()
        while len(passes) < 1 + traced or time.perf_counter() - start < seconds:
            index = self.passes
            self.passes += 1
            tracer = Tracer() if traced and index % 2 else None
            timings = []
            with contextlib.nullcontext() if tracer is None else installed(tracer):
                self._setup(tracer)
                for i, (call, context, points) in enumerate(self.workload.items(index)):
                    self.attempted += points
                    t0 = time.perf_counter()
                    try:
                        if tracer is None:
                            output = call()
                        else:
                            with tracer.span("bench.item"):
                                output = call()
                    except Exception:  # counted as failed items, reported in the run record
                        timings.append((time.perf_counter() - t0, points))
                        self.errors.append(traceback.format_exc(limit=4))
                        self.bad.update((index, i, k) for k in range(points))
                    else:
                        timings.append((time.perf_counter() - t0, points))
                        self.bad.update((index, i, k) for k in self.workload.check(context, output))
            passes.append(timings)
            tracers.append(tracer)
        while not traced and len(self.setup_times) < SETUP_MIN_REPS:
            self._setup()
        return passes, tracers


def _fastest(passes):
    """Index of the pass with the least total time."""
    return min(range(len(passes)), key=lambda p: _pass_time(passes[p]))


def _best_items(passes):
    """For each item position of a pass, its fastest ``(elapsed, points)``
    over all passes.

    On a shared machine, contention from other tenants comes in bursts of
    several seconds that only ever slow an item down, so the fastest
    repetition is the steady figure; a median moves with the share of the
    run a burst happens to cover.
    """
    return [min(slot) for slot in zip(*passes)]


def _pass_time(timings):
    return sum(t for t, _ in timings)


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


# Per-layer metrics read straight from the span totals and counters.
_LAYER_TOTALS = [
    ("mesh.build_mesh_s", "s"), ("mesh.disk_layout_s", "s"), ("mesh.self_s", "s"),
    ("assembly.pixel_matrices_s", "s"), ("assembly.load_s", "s"), ("assembly.global_matrix_s", "s"),
    ("assembly.global_matrix_calls", "count"), ("assembly.self_s", "s"),
    ("linsolve.solve_s", "s"), ("linsolve.solves", "count"), ("linsolve.cg_iterations", "count"),
    ("linsolve.spmv_bytes_computed", "B"), ("linsolve.self_s", "s"),
    ("forward.matrix_s", "s"), ("forward.matrix_calls", "count"), ("forward.pair_values_s", "s"),
    ("forward.pair_values_calls", "count"), ("forward.self_s", "s"),
    ("analysis.condition_number_s", "s"), ("analysis.condition_number_calls", "count"),
    ("analysis.singular_values_s", "s"), ("analysis.self_s", "s"),
    ("experiments.self_s", "s"),
]


def _layer_metrics(tracer, overhead, traced_run_s):
    """Per-layer values of one workload execution: the fastest traced pass
    and the set-up before it."""
    r = tracer.totals()
    metrics = {name: (r[name], unit) for name, unit in _LAYER_TOTALS}
    metrics.update({
        "assembly.nnz_computed": (tracer.nnz, "count"),
        "linsolve.max_residual": (tracer.max_residual, "ratio"),
        "forward.solves_per_load": (r["forward.solves"] / r["forward.loads"] if r["forward.loads"] else 0.0, "ratio"),
        "trace.setup_s": (r["workload.setup_s"], "s"),
        "trace.run_s": (traced_run_s, "s"),
        "trace.overhead_frac": (overhead, "ratio"),
        "trace.unaccounted_frac": (r["bench.self_s"] / r["bench.item_s"], "ratio"),
    })
    return metrics


def run(name, seed, seconds, trace, inputs=None):
    """Run one workload and return ``(result, record)``.

    ``result`` has the keys ``correct``, ``attempted``, ``failed`` and
    ``metrics`` (end-to-end metrics untraced, per-layer metrics traced);
    ``record`` holds the extra detail written to the run record.
    """
    inputs = dict(PINNED[name] if inputs is None else inputs)
    harness = _Run(WORKLOADS[name](inputs, seed))
    record = {"inputs": inputs}
    if not trace:
        passes, _ = harness.timed_passes(seconds)
        best = _best_items(passes)
        metrics = {
            "setup_s": (min(harness.setup_times), "s"),
            "run_s": (_pass_time(best), "s"),
            "eval_p50_ms": (1e3 * statistics.median(t / points for t, points in best), "ms"),
            "peak_rss_mb": (_peak_rss_mb(), "MB"),
        }
        record.update(pass_times=[_pass_time(p) for p in passes])
    else:
        passes, tracers = harness.timed_passes(seconds, traced=True)
        plain = [p for p, t in zip(passes, tracers) if t is None]
        traced = [p for p, t in zip(passes, tracers) if t is not None]
        tracers = [t for t in tracers if t is not None]
        best = _fastest(traced)
        traced_run_s = _pass_time(traced[best])
        overhead = _pass_time(_best_items(traced)) / _pass_time(_best_items(plain)) - 1.0
        metrics = _layer_metrics(tracers[best], overhead, traced_run_s)
        record.update(untraced_pass_times=[_pass_time(p) for p in plain],
                      traced_pass_times=[_pass_time(p) for p in traced], fastest_traced_pass=best,
                      missing_probes=sorted(set().union(*(t.missing for t in tracers))),
                      spans=[t.spans for t in tracers])
    harness.bad |= harness.workload.finish()
    failed = len(harness.bad)
    record.update(passes=harness.passes, setup_times=harness.setup_times, errors=harness.errors[:5])
    result = {
        "correct": failed == 0,
        "attempted": harness.attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, record
