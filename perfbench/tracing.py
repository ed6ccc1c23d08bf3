"""Span tracing of burstkin from outside the package.

``Tracer.install`` replaces the public functions of the six modules
(cli, serialize, discrete, continuous, numerics, models) with timing
wrappers, at every place the package looks them up: the defining
module, every module that imported the name, the package namespace,
and class attributes such as ``Potential.value`` and
``KernelGrid.apply``.  ``uninstall`` puts the originals back.

Each wrapped call is a frame on a per-thread stack.  Coarse calls are
also kept as spans (id, name, start, end, parent id, run id) in memory
and written out at the end; per-jump and per-evaluation calls (scalar
``Potential.value``, ``Potential.inverse``, ``find_root_monotone``,
burst samples, integrand and right-hand-side callbacks) only update
counters, so that a 3e5-jump run does not hold millions of span
records.  Random draws are only counted, not timed: their time stays
with the caller.  A frame's self time is its duration minus the time of
the wrapped calls nested in it; layer self time sums the self time of
every frame by the module it belongs to.

``run_sweep`` runs its points on a thread pool.  The points' top-level
frames are adopted by the sweep's frame, whose self time excludes the
union of their intervals; their times are scaled by union / (sum of
their durations), since under the interpreter lock the workers share
one processor.  The sweep's busy time is the workers' thread CPU time.  That keeps
the self times of one batch summing to no more than its wall time.
"""

from __future__ import annotations

import inspect
import itertools
import os
import sys
import threading
from time import perf_counter, thread_time

import numpy as np

__all__ = ["Tracer", "LAYERS", "METRICS", "layer_metrics"]

LAYERS = ("cli", "serialize", "discrete", "continuous", "numerics", "models")

# public names left unwrapped: format_float runs once per CSV value and
# its cost already sits inside the serialize.write_csv span; main is the
# console entry point, which the benchmark does not call
_SKIP = {("serialize", "format_float"), ("cli", "main")}

# per-jump or per-evaluation calls: counted, not kept as spans
_LEAVES = frozenset({"numerics.find_root_monotone", "continuous.Potential.inverse",
                     "models.sample"})

_RATE_FAMILY = {"ConstantRate": "constant", "LinearRate": "linear",
                "QuadraticRate": "quadratic", "HillRate": "hill"}


class _Frame:
    __slots__ = ("span", "child", "units", "intervals", "cpu")

    def __init__(self, span):
        self.span = span
        self.child = 0.0
        self.units = 0
        self.intervals = None   # adopted worker intervals, on a sweep's frame
        self.cpu = 0.0          # worker CPU seconds, on a sweep's frame


class _ThreadState:
    __slots__ = ("stack", "active", "agg", "layer_self", "spans", "adopter")

    def __init__(self):
        self.stack = []
        self.active = {}        # name -> nesting depth, for reentrant calls
        self.agg = {}           # name -> [calls, total_s, self_s, units]
        self.layer_self = {}    # layer -> self seconds
        self.spans = []
        self.adopter = None


def _layer_of(fn, default: str) -> str:
    mod = getattr(fn, "__module__", "") or ""
    short = mod.rpartition(".")[2]
    return short if mod.startswith("burstkin.") and short in LAYERS else default


def _union_length(intervals) -> float:
    total = 0.0
    end = -float("inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def _add(st: _ThreadState, name: str, calls: int = 0, total: float = 0.0,
         units: int = 0) -> None:
    rec = st.agg.get(name)
    if rec is None:
        rec = st.agg[name] = [0, 0.0, 0.0, 0]
    rec[0] += calls
    rec[1] += total
    rec[3] += units


class Tracer:
    """Wrap burstkin's public functions with spans and counters."""

    def __init__(self):
        self.run_id = 0
        self.paused = False
        self.origin = perf_counter()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._states: list = []
        self._main = self._state()
        self._adopter = None
        self._patches: list = []

    # -- per-thread state ----------------------------------------------

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            st = self._local.st = _ThreadState()
            self._states.append(st)
        return st

    # -- the wrapped call ----------------------------------------------

    def _call(self, name, layer, record, fn, args, kwargs, before=None, after=None):
        if self.paused:
            return fn(*args, **kwargs)
        st = self._state()
        stack = st.stack
        outer = name not in st.active
        parent = stack[-1] if stack else None
        adopter = None
        if parent is None and st is not self._main:
            adopter = self._adopter
        parent_span = parent.span if parent else (adopter.span if adopter else 0)
        frame = _Frame(next(self._ids) if record else 0)
        if adopter is not None:
            frame.cpu = thread_time()
        if before is not None and outer:
            args, kwargs = before(frame, args, kwargs)
        st.active[name] = st.active.get(name, 0) + 1
        stack.append(frame)
        t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            t1 = perf_counter()
            if after is not None and outer:
                after(st, frame, args, kwargs, None, exc, t1 - t0)
            self._exit(st, name, layer, record, frame, parent, adopter, parent_span,
                       t0, t1, outer)
            raise
        t1 = perf_counter()
        if after is not None and outer:
            after(st, frame, args, kwargs, result, None, t1 - t0)
        self._exit(st, name, layer, record, frame, parent, adopter, parent_span,
                   t0, t1, outer)
        return result

    def _exit(self, st, name, layer, record, frame, parent, adopter, parent_span,
              t0, t1, outer):
        st.stack.pop()
        depth = st.active[name] - 1
        if depth:
            st.active[name] = depth
        else:
            del st.active[name]
        dur = t1 - t0
        self_s = dur - frame.child
        if parent is not None:
            parent.child += dur
        elif adopter is not None:
            adopter.intervals.append((t0, t1))
            adopter.cpu += thread_time() - frame.cpu
            st.adopter = adopter
        rec = st.agg.get(name)
        if rec is None:
            rec = st.agg[name] = [0, 0.0, 0.0, 0]
        if outer:
            rec[0] += 1
            rec[1] += dur
        rec[2] += self_s
        rec[3] += frame.units
        st.layer_self[layer] = st.layer_self.get(layer, 0.0) + self_s
        if record:
            st.spans.append((frame.span, name, t0, t1, parent_span, self.run_id))

    def _callback(self, fn, owner: _Frame, name: str, layer: str):
        """Count and time the evaluations of a callable handed to a solver."""
        layer = _layer_of(fn, layer)

        def cb(*args, **kwargs):
            owner.units += 1
            return self._call(name, layer, False, fn, args, kwargs)
        return cb

    # -- hooks for functions with extra counters -----------------------

    def _hooks(self, name: str):
        from burstkin.errors import ToleranceNotMet

        def wrap_first(cb_name, cb_layer):
            def before(frame, args, kwargs):
                if args:
                    return (self._callback(args[0], frame, cb_name, cb_layer),) + args[1:], kwargs
                return args, kwargs
            return before

        def quad_after(st, frame, args, kwargs, result, error, dur):
            if isinstance(error, ToleranceNotMet):
                _add(st, "numerics.quad_adaptive.stalled", calls=1)

        def chain_after(st, frame, args, kwargs, result, error, dur):
            if result is not None:
                frame.units += len(result.wait_draws)

        def pdmp_after(st, frame, args, kwargs, result, error, dur):
            model = args[0] if args else kwargs["model"]
            family = _RATE_FAMILY.get(type(model.burst_rate).__name__, "other")
            jumps = len(result.wait_draws) if result is not None else 0
            _add(st, f"continuous.simulate_pdmp.{family}", 1, dur, jumps)

        def matrix_after(st, frame, args, kwargs, result, error, dur):
            grid = args[1] if len(args) > 1 else kwargs["grid"]
            frame.units += 8 * len(grid) ** 2

        def write_after(st, frame, args, kwargs, result, error, dur):
            if error is None:
                frame.units += os.path.getsize(args[0])

        def sweep_before(frame, args, kwargs):
            frame.intervals = []
            self._adopter = frame
            return args, kwargs

        def sweep_after(st, frame, args, kwargs, result, error, dur):
            self._adopter = None
            union = _union_length(frame.intervals)
            in_flight = sum(b - a for a, b in frame.intervals)
            frame.child += union
            scale = union / in_flight if in_flight > 0 else 1.0
            workers = 0
            for other in list(self._states):
                if other.adopter is frame:
                    workers += 1
                    self._merge(st, other, scale)
                    other.adopter = None
            # busy: CPU time the workers actually ran, not time in flight
            _add(st, "cli.run_sweep.busy", 1, frame.cpu, workers)

        return {
            "numerics.quad_adaptive": (wrap_first("numerics.quad_adaptive.f", "numerics"),
                                       quad_after),
            "numerics.find_root_monotone": (
                wrap_first("numerics.find_root_monotone.f", "numerics"), None),
            "numerics.integrate_adaptive": (
                wrap_first("numerics.integrate_adaptive.rhs", "numerics"), None),
            "discrete.simulate_jump_chain": (None, chain_after),
            "continuous.simulate_pdmp": (None, pdmp_after),
            "continuous.kernel_matrix": (None, matrix_after),
            "serialize.write_csv": (None, write_after),
            "cli.run_sweep": (sweep_before, sweep_after),
        }.get(name, (None, None))

    @staticmethod
    def _merge(into: _ThreadState, other: _ThreadState, scale: float = 1.0) -> None:
        for name, rec in other.agg.items():
            dst = into.agg.get(name)
            if dst is None:
                dst = into.agg[name] = [0, 0.0, 0.0, 0]
            dst[0] += rec[0]
            dst[1] += rec[1] * scale
            dst[2] += rec[2] * scale
            dst[3] += rec[3]
        for layer, s in other.layer_self.items():
            into.layer_self[layer] = into.layer_self.get(layer, 0.0) + s * scale
        other.agg = {}
        other.layer_self = {}

    # -- installing the wrappers ---------------------------------------

    def _wrap_function(self, name, layer, fn):
        before, after = self._hooks(name)
        record = name not in _LEAVES
        tracer = self

        def wrapper(*args, **kwargs):
            return tracer._call(name, layer, record, fn, args, kwargs, before, after)
        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def _wrap_counter(self, name, fn):
        """Count calls only: a random draw costs less than a timed frame."""
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.paused:
                _add(tracer._state(), name, calls=1)
            return fn(*args, **kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_value(self, fn):
        tracer = self

        def value(pot, x):
            if tracer.paused:
                return fn(pot, x)
            st = tracer._state()
            if "continuous.Potential.inverse" in st.active:
                _add(st, "continuous.Potential.inverse.f_evals", calls=1)
            name = ("continuous.Potential.value.scalar"
                    if isinstance(x, float) or np.ndim(x) == 0
                    else "continuous.Potential.value.vector")
            return tracer._call(name, "continuous", False, fn, (pot, x), {})
        value.__wrapped__ = fn
        return value

    def _set(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Patch every lookup site of the public functions and hot methods."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        mods = {short: sys.modules[f"burstkin.{short}"] for short in LAYERS}
        wrappers = {}
        for short, mod in mods.items():
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr)
                if (not inspect.isfunction(fn) or fn.__module__ != mod.__name__
                        or (short, attr) in _SKIP):
                    continue
                if attr.startswith("draw_"):
                    wrappers[fn] = self._wrap_counter("numerics.draw", fn)
                else:
                    wrappers[fn] = self._wrap_function(f"{short}.{attr}", short, fn)
        sites = [m for n, m in sorted(sys.modules.items())
                 if m is not None and (n == "burstkin" or n.startswith("burstkin."))]
        for mod in sites:
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in wrappers:
                    self._set(mod, attr, wrappers[val])

        pot = mods["continuous"].Potential
        value = self._wrap_value(pot.__dict__["value"])
        self._set(pot, "value", value)
        self._set(pot, "__call__", value)
        self._set(pot, "inverse", self._wrap_function(
            "continuous.Potential.inverse", "continuous", pot.__dict__["inverse"]))
        kg = mods["continuous"].KernelGrid
        self._set(kg, "apply", self._wrap_function(
            "continuous.KernelGrid.apply", "continuous", kg.__dict__["apply"]))
        for cls in vars(mods["models"]).values():
            if inspect.isclass(cls) and cls.__module__ == mods["models"].__name__ \
                    and "sample" in cls.__dict__:
                self._set(cls, "sample", self._wrap_function(
                    "models.sample", "models", cls.__dict__["sample"]))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------

    def totals(self):
        """(name -> [calls, total_s, self_s, units], layer -> self_s) over all threads."""
        merged = _ThreadState()
        for st in self._states:
            for name, rec in st.agg.items():
                dst = merged.agg.setdefault(name, [0, 0.0, 0.0, 0])
                for i in range(4):
                    dst[i] += rec[i]
            for layer, s in st.layer_self.items():
                merged.layer_self[layer] = merged.layer_self.get(layer, 0.0) + s
        return merged.agg, merged.layer_self

    def reset(self) -> None:
        """Drop every counter recorded so far; spans are kept."""
        for st in self._states:
            st.agg = {}
            st.layer_self = {}

    def span_count(self) -> int:
        return sum(len(st.spans) for st in self._states)

    def write_spans(self, path) -> None:
        """CSV of every kept span; times in seconds from the tracer's creation."""
        rows = sorted(s for st in self._states for s in st.spans)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("span,name,start_s,end_s,parent,run\n")
            for span, name, t0, t1, parent, run in rows:
                fh.write(f"{span},{name},{t0 - self.origin:.9f},"
                         f"{t1 - self.origin:.9f},{parent},{run}\n")


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

_PDMP_FAMILIES = ("constant", "linear", "hill", "quadratic")

# name -> unit, in report order; times and counts are per traced batch
METRICS = {
    "cli.parse_config.s": "s",
    "cli.run_experiment.self_s": "s",
    "cli.run_sweep.s": "s",
    "cli.run_sweep.busy_s": "s",
    "cli.run_sweep.parallel_eff": "ratio",
    "serialize.write.s": "s",
    "serialize.write.calls": "count",
    "serialize.bytes": "B",
    "discrete.stationary_pmf_general.s": "s",
    "discrete.stationary_pmf_general.calls": "count",
    "discrete.evolve_master.s": "s",
    "discrete.simulate_jump_chain.s": "s",
    "discrete.simulate_jump_chain.us_per_jump": "us",
    "discrete.count_modes_discrete.s": "s",
    "numerics.integrate_adaptive.s": "s",
    "numerics.integrate_adaptive.rhs_evals": "count",
    "numerics.integrate_adaptive.rhs_s": "s",
    "numerics.integrate_adaptive.self_s": "s",
    "numerics.quad_adaptive.s": "s",
    "numerics.quad_adaptive.calls": "count",
    "numerics.quad_adaptive.f_evals": "count",
    "numerics.quad_adaptive.stalled": "count",
    "numerics.find_root_monotone.calls": "count",
    "numerics.find_root_monotone.f_evals": "count",
    "numerics.draw.calls": "count",
    "continuous.Potential.value.scalar_calls": "count",
    "continuous.Potential.value.scalar_s": "s",
    "continuous.Potential.value.vector_calls": "count",
    "continuous.Potential.value.vector_s": "s",
    "continuous.Potential.inverse.calls": "count",
    "continuous.Potential.inverse.s": "s",
    "continuous.Potential.inverse.f_evals_per_call": "ratio",
    **{f"continuous.simulate_pdmp.us_per_jump.{f}": "us" for f in _PDMP_FAMILIES},
    "continuous.kernel_grid.s": "s",
    "continuous.kernel_matrix.s": "s",
    "continuous.kernel_matrix.bytes_computed": "B",
    "continuous.KernelGrid.apply.calls": "count",
    "continuous.KernelGrid.apply.s": "s",
    "continuous.KernelGrid.apply.ms_per_call": "ms",
    "continuous.density_from_fixed_point.s": "s",
    "continuous.stationary_density.s": "s",
    "continuous.phi_from_density_grid.s": "s",
    "continuous.count_modes_continuous.s": "s",
    "continuous.ergodicity_scan.s": "s",
    "models.sample.calls": "count",
    "models.sample.s": "s",
    **{f"layer.{layer}.self_s": "s" for layer in LAYERS},
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, batches: int, parse_s: float) -> dict:
    """Per-layer metrics from everything recorded over ``batches`` traced batches."""
    agg, layer_self = tracer.totals()
    zero = [0, 0.0, 0.0, 0]

    def rec(name):
        return agg.get(name, zero)

    def calls(name):
        return rec(name)[0] / batches

    def secs(name):
        return rec(name)[1] / batches

    def units(name):
        return rec(name)[3] / batches

    sweep = rec("cli.run_sweep")
    busy = rec("cli.run_sweep.busy")
    inverse = rec("continuous.Potential.inverse")
    apply = rec("continuous.KernelGrid.apply")
    chain = rec("discrete.simulate_jump_chain")
    out = {
        "cli.parse_config.s": parse_s,
        "cli.run_experiment.self_s": rec("cli.run_experiment")[2] / batches,
        "cli.run_sweep.s": secs("cli.run_sweep"),
        "cli.run_sweep.busy_s": busy[1] / batches,
        # workers per sweep = threads that ran points, averaged over sweeps
        "cli.run_sweep.parallel_eff": _ratio(busy[1], sweep[1] * _ratio(busy[3], busy[0])),
        "serialize.write.s": secs("serialize.write_csv"),
        "serialize.write.calls": calls("serialize.write_csv"),
        "serialize.bytes": units("serialize.write_csv"),
        "discrete.stationary_pmf_general.s": secs("discrete.stationary_pmf_general"),
        "discrete.stationary_pmf_general.calls": calls("discrete.stationary_pmf_general"),
        "discrete.evolve_master.s": secs("discrete.evolve_master"),
        "discrete.simulate_jump_chain.s": secs("discrete.simulate_jump_chain"),
        "discrete.simulate_jump_chain.us_per_jump": 1e6 * _ratio(chain[1], chain[3]),
        "discrete.count_modes_discrete.s": secs("discrete.count_modes_discrete"),
        "numerics.integrate_adaptive.s": secs("numerics.integrate_adaptive"),
        "numerics.integrate_adaptive.rhs_evals": units("numerics.integrate_adaptive"),
        "numerics.integrate_adaptive.rhs_s": secs("numerics.integrate_adaptive.rhs"),
        "numerics.integrate_adaptive.self_s": rec("numerics.integrate_adaptive")[2] / batches,
        "numerics.quad_adaptive.s": secs("numerics.quad_adaptive"),
        "numerics.quad_adaptive.calls": calls("numerics.quad_adaptive"),
        "numerics.quad_adaptive.f_evals": units("numerics.quad_adaptive"),
        "numerics.quad_adaptive.stalled": calls("numerics.quad_adaptive.stalled"),
        "numerics.find_root_monotone.calls": calls("numerics.find_root_monotone"),
        "numerics.find_root_monotone.f_evals": units("numerics.find_root_monotone"),
        "numerics.draw.calls": calls("numerics.draw"),
        "continuous.Potential.value.scalar_calls": calls("continuous.Potential.value.scalar"),
        "continuous.Potential.value.scalar_s": secs("continuous.Potential.value.scalar"),
        "continuous.Potential.value.vector_calls": calls("continuous.Potential.value.vector"),
        "continuous.Potential.value.vector_s": secs("continuous.Potential.value.vector"),
        "continuous.Potential.inverse.calls": inverse[0] / batches,
        "continuous.Potential.inverse.s": inverse[1] / batches,
        "continuous.Potential.inverse.f_evals_per_call":
            _ratio(rec("continuous.Potential.inverse.f_evals")[0], inverse[0]),
        "continuous.kernel_grid.s": secs("continuous.kernel_grid"),
        "continuous.kernel_matrix.s": secs("continuous.kernel_matrix"),
        "continuous.kernel_matrix.bytes_computed": units("continuous.kernel_matrix"),
        "continuous.KernelGrid.apply.calls": apply[0] / batches,
        "continuous.KernelGrid.apply.s": apply[1] / batches,
        "continuous.KernelGrid.apply.ms_per_call": 1e3 * _ratio(apply[1], apply[0]),
        "continuous.density_from_fixed_point.s": secs("continuous.density_from_fixed_point"),
        "continuous.stationary_density.s": secs("continuous.stationary_density"),
        "continuous.phi_from_density_grid.s": secs("continuous.phi_from_density_grid"),
        "continuous.count_modes_continuous.s": secs("continuous.count_modes_continuous"),
        "continuous.ergodicity_scan.s": secs("continuous.ergodicity_scan"),
        "models.sample.calls": calls("models.sample"),
        "models.sample.s": secs("models.sample"),
    }
    for family in _PDMP_FAMILIES:
        r = rec(f"continuous.simulate_pdmp.{family}")
        out[f"continuous.simulate_pdmp.us_per_jump.{family}"] = 1e6 * _ratio(r[1], r[3])
    for layer in LAYERS:
        out[f"layer.{layer}.self_s"] = layer_self.get(layer, 0.0) / batches
    return {name: (float(out[name]), unit) for name, unit in METRICS.items()}
