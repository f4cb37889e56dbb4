"""Span recorder and FFT counter for traced benchmark runs.

A `Tracer` wraps, from outside the program, every public module-level
function of the nlswkb modules, and the FFT entry points of `numpy.fft` and
`scipy.fft`.  Each call of a wrapped function becomes one span (name, start,
end, parent span, thread id, run id) kept in memory until the run ends.
Each FFT call is counted, timed, costed at 5 n log2 n flops, and attributed
to the innermost open span of its thread.

Spans opened on a thread with no open span of its own (the per-eps worker
threads of the drivers' pool) take as parent the innermost span open on
the thread that installed the tracer, which is the driver waiting on the
pool.  `layer_metrics` turns the span list into the per-layer numbers the
benchmark reports.
"""
from __future__ import annotations

import functools
import inspect
import math
import sys
import threading
import time

FFT_1D = ("fft", "ifft", "rfft", "irfft", "hfft", "ihfft")
FFT_ND = ("fft2", "ifft2", "fftn", "ifftn", "rfft2", "irfft2", "rfftn", "irfftn")
SKIP_MODULES = ("cli", "errors", "__main__")


class Span:
    __slots__ = ("name", "start", "end", "parent", "thread", "run",
                 "fft_start", "fft_in", "fft_self", "extra")

    def __init__(self, name, start, parent, thread, run, fft_start=0):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.thread = thread
        self.run = run
        self.fft_start = fft_start
        self.fft_in = 0        # FFT calls made on this span's thread while open
        self.fft_self = 0      # FFT calls whose innermost open span is this one
        self.extra = None

    @property
    def layer(self) -> str:
        return self.name.partition(".")[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class _ThreadState:
    __slots__ = ("stack", "fft_calls", "fft_busy", "fft_flop", "in_fft")

    def __init__(self):
        self.stack = []
        self.fft_calls = 0
        self.fft_busy = 0.0
        self.fft_flop = 0.0
        self.in_fft = False


def fft_flop(kind: str, a, args, kwargs) -> float:
    """Computed cost 5 n log2 n of one transform call, n the transformed
    length, times the number of transforms in the batch."""
    shape = tuple(getattr(a, "shape", ()))
    size = math.prod(shape)
    if not shape or size == 0:
        return 0.0
    if kind in FFT_1D:
        n = args[0] if len(args) > 0 else kwargs.get("n")
        axis = args[1] if len(args) > 1 else kwargs.get("axis", -1)
        m = n or shape[axis]
        batch = size // shape[axis]
    else:
        s = args[0] if len(args) > 0 else kwargs.get("s")
        axes = args[1] if len(args) > 1 else kwargs.get("axes")
        if axes is None:
            if s is not None:
                axes = range(-len(s), 0)
            elif kind.endswith("2"):
                axes = (-2, -1)
            else:
                axes = range(len(shape))
        axes = tuple(axes)
        lengths = tuple(s) if s is not None else tuple(shape[ax] for ax in axes)
        m = math.prod(lengths)
        batch = size // math.prod(shape[ax] for ax in axes)
    return 5.0 * batch * m * math.log2(m) if m > 1 else 0.0


class Tracer:
    """In-memory span and FFT recorder; see the module docstring."""

    def __init__(self, run_id: str = ""):
        self.run_id = run_id
        self.spans: list[Span] = []
        self._local = threading.local()
        self._threads: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._root = self._state()
        self._restore: list = []     # callables that undo each patch

    # -- recording ---------------------------------------------------------

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "state", None)
        if st is None:
            st = _ThreadState()
            self._local.state = st
            with self._lock:
                self._threads.append(st)
        return st

    def _enter(self, name: str) -> tuple[_ThreadState, Span]:
        st = self._state()
        stack = st.stack if st.stack else self._root.stack
        parent = stack[-1] if stack else None
        span = Span(name, time.perf_counter(), parent, threading.get_ident(),
                    self.run_id, st.fft_calls)
        self.spans.append(span)
        st.stack.append(span)
        return st, span

    def wrap(self, fn, name: str, on_return=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st, span = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                span.fft_in = st.fft_calls - span.fft_start
                st.stack.pop()
            if on_return is not None:
                span.extra = on_return(args, kwargs, result)
            return result
        return traced

    def _count_fft(self, fn, kind: str):
        # called ~10^5 times per run, so it avoids method calls and caches
        # the flop count per argument signature
        local, clock, flops = self._local, time.perf_counter, {}

        @functools.wraps(fn)
        def counted(a, *args, **kwargs):
            try:
                st = local.state
            except AttributeError:
                st = self._state()
            if st.in_fft:       # an entry point calling another one
                return fn(a, *args, **kwargs)
            st.in_fft = True
            t0 = clock()
            try:
                out = fn(a, *args, **kwargs)
            finally:
                st.in_fft = False
            st.fft_busy += clock() - t0
            st.fft_calls += 1
            key = (getattr(a, "shape", None), args, tuple(kwargs.items()))
            try:
                st.fft_flop += flops[key]
            except KeyError:
                flops[key] = fft_flop(kind, a, args, kwargs)
                st.fft_flop += flops[key]
            except TypeError:   # unhashable arguments
                st.fft_flop += fft_flop(kind, a, args, kwargs)
            if st.stack:
                st.stack[-1].fft_self += 1
            return out
        return counted

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._restore.append(functools.partial(setattr, owner, attr,
                                               getattr(owner, attr)))
        setattr(owner, attr, value)

    def install_fft_counter(self) -> None:
        """Count the FFT entry points of numpy.fft and, when importable,
        scipy.fft.  Install before the program is imported so a
        `from ... import fft` binds the counting wrapper."""
        import numpy.fft
        modules = [numpy.fft]
        try:
            import scipy.fft
            modules.append(scipy.fft)
        except ImportError:
            pass
        for mod in modules:
            for kind in FFT_1D + FFT_ND:
                if hasattr(mod, kind):
                    self._patch(mod, kind, self._count_fft(getattr(mod, kind), kind))

    def wrap_package(self, package: str, on_return: dict | None = None) -> None:
        """Wrap every public module-level function of the imported modules
        of `package` (the CLI and errors excepted) and rebind every module
        global and module-level dict value that refers to one, so names
        imported by value and dispatch tables are traced too."""
        on_return = on_return or {}
        mods = [m for n, m in sorted(sys.modules.items())
                if m is not None and n.startswith(package + ".")]
        wrappers = {}
        for mod in mods:
            short = mod.__name__.rpartition(".")[2]
            if short in SKIP_MODULES:
                continue
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    name = f"{short}.{attr}"
                    wrappers[obj] = self.wrap(obj, name, on_return.get(name))
        for mod in mods:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(mod, attr, wrappers[obj])
                elif isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        if inspect.isfunction(val) and val in wrappers:
                            self._restore.append(
                                functools.partial(obj.__setitem__, key, val))
                            obj[key] = wrappers[val]

    def uninstall(self) -> None:
        for undo in reversed(self._restore):
            undo()
        self._restore.clear()

    # -- output ------------------------------------------------------------

    def fft_totals(self) -> dict:
        with self._lock:
            threads = list(self._threads)
        return {"calls": sum(t.fft_calls for t in threads),
                "busy_s": sum(t.fft_busy for t in threads),
                "flop": sum(t.fft_flop for t in threads)}


# ---------------------------------------------------------------------------
# aggregation


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of `intervals` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict:
    """id(span) -> duration minus the part of it covered by its children,
    which may overlap one another when they ran on several threads."""
    children = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(id(s.parent), []).append((s.start, s.end))
    return {id(s): s.duration - union_length(children.get(id(s), ()), s.start, s.end)
            for s in spans}


LAYERS = ("experiments", "nls", "phase_amplitude", "rays", "wkb", "fields")
_SOLVER_STEPS = {"nls": ("nls.solve_nls",),
                 "phase_amplitude": ("phase_amplitude.solve_phase_amplitude",
                                     "phase_amplitude.solve_corrector")}


def layer_metrics(spans, fft: dict) -> dict:
    """Per-layer numbers from one traced run; see NOTES.md for definitions."""
    selfs = self_times(spans)
    by_name = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def calls(name):
        return len(by_name.get(name, ()))

    def busy(name):
        return sum(s.duration for s in by_name.get(name, ()))

    def self_of(pred):
        return sum(selfs[id(s)] for s in spans if pred(s))

    out = {}
    driver_wall = busy("experiments.run_experiment")
    exp_self = self_of(lambda s: s.layer == "experiments")
    child_busy = sum(s.duration for s in spans
                     if s.parent is not None and s.parent.layer == "experiments"
                     and s.layer != "experiments")
    out["experiments.run_experiment.busy_s"] = driver_wall
    out["experiments.self_s"] = exp_self
    out["experiments.concurrency"] = child_busy / driver_wall if driver_wall else 0.0
    out["experiments.child_coverage"] = 1.0 - exp_self / driver_wall if driver_wall else 0.0

    steps = {layer: sum((s.extra or {}).get("steps", 0)
                        for n in names for s in by_name.get(n, ()))
             for layer, names in _SOLVER_STEPS.items()}
    fft_inside = {layer: sum(s.fft_in for n in names for s in by_name.get(n, ()))
                  for layer, names in _SOLVER_STEPS.items()}

    out["nls.solve_nls.calls"] = calls("nls.solve_nls")
    out["nls.solve_nls.busy_s"] = busy("nls.solve_nls")
    out["nls.steps"] = steps["nls"]
    out["nls.us_per_step"] = (1e6 * busy("nls.solve_nls") / steps["nls"]
                              if steps["nls"] else 0.0)
    out["nls.fft_calls_per_step"] = (fft_inside["nls"] / steps["nls"]
                                     if steps["nls"] else 0.0)

    pa = "phase_amplitude."
    out[pa + "solve_phase_amplitude.calls"] = calls(pa + "solve_phase_amplitude")
    out[pa + "solve_phase_amplitude.busy_s"] = busy(pa + "solve_phase_amplitude")
    out[pa + "solve_corrector.busy_s"] = busy(pa + "solve_corrector")
    out[pa + "steps"] = steps["phase_amplitude"]
    out[pa + "fft_calls_per_step"] = (
        fft_inside["phase_amplitude"] / steps["phase_amplitude"]
        if steps["phase_amplitude"] else 0.0)

    out["rays.integrate_flow.busy_s"] = busy("rays.integrate_flow")
    out["rays.invert_flow.calls"] = calls("rays.invert_flow")
    out["rays.invert_flow.busy_s"] = busy("rays.invert_flow")
    out["rays.jacobian_at_labels.calls"] = calls("rays.jacobian_at_labels")
    out["rays.eikonal_phase.calls"] = calls("rays.eikonal_phase")

    out["wkb.build_approximant.calls"] = calls("wkb.build_approximant")
    out["wkb.build_approximant.busy_s"] = busy("wkb.build_approximant")
    out["wkb.build_approximant.self_s"] = self_of(
        lambda s: s.name == "wkb.build_approximant")
    out["wkb.transport_amplitude.busy_s"] = busy("wkb.transport_amplitude")
    out["wkb.self_modulation_phase.busy_s"] = busy("wkb.self_modulation_phase")

    fb = "fields.band_limited_interpolate"
    out[fb + ".calls"] = calls(fb)
    out[fb + ".busy_s"] = busy(fb)
    out["fields.interp_matrix_mb"] = max(
        ((s.extra or {}).get("matrix_mb", 0.0) for s in by_name.get(fb, ())),
        default=0.0)
    out["fields.sobolev_norm.busy_s"] = busy("fields.sobolev_norm")
    out["fields.l2_linf_norm.busy_s"] = busy("fields.l2_linf_norm")

    for layer in LAYERS:
        out[f"{layer}.fft_calls"] = sum(s.fft_self for s in spans if s.layer == layer)
    out["fft.calls"] = fft["calls"]
    out["fft.busy_s"] = fft["busy_s"]
    out["fft.computed_gflop"] = fft["flop"] / 1e9
    out["reporting.write_artifacts.busy_s"] = busy("reporting.write_artifacts")
    return out


# ---------------------------------------------------------------------------
# return-value probes for the nlswkb solvers


def _nls_steps(args, kwargs, sol):
    # the solver's own rule: each output segment is split into
    # max(1, ceil(seg/dt - 1e-12)) equal steps
    times = [float(t) for t in sol.times]
    return {"steps": sum(max(1, math.ceil((b - a) / sol.dt - 1e-12))
                         for a, b in zip(times, times[1:]))}


def _march_steps(args, kwargs, traj):
    # phase-amplitude and corrector marches use a fixed step traj.dt
    times = [float(s.time) for s in traj.states]
    return {"steps": int(round(abs(times[-1] - times[0]) / traj.dt))}


def _interp_matrix(args, kwargs, result):
    f = args[0] if args else kwargs["f"]
    points = args[1] if len(args) > 1 else kwargs["points"]
    m = len(points)
    n = math.prod(f.grid.sizes)
    return {"matrix_mb": m * n * 16 / 2**20}


ON_RETURN = {
    "nls.solve_nls": _nls_steps,
    "phase_amplitude.solve_phase_amplitude": _march_steps,
    "phase_amplitude.solve_corrector": _march_steps,
    "fields.band_limited_interpolate": _interp_matrix,
}
