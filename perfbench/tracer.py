"""Spans and counters for the traced benchmark run.

The tracer records one span (name, start, end, parent) per call into a
public function of a bolab layer, by replacing the function in every
module namespace that holds it.  Spans stay in memory; `layer_metrics`
reduces them after the run.  FFT calls are counted by shims on the
`numpy.fft` and `scipy.fft` transform functions, installed before bolab
is imported so that the module that uses them cannot bind the
unshimmed originals.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time

LAYERS = ("evolution", "modulation", "trajectories", "potential", "grid",
          "experiments", "virial")
FFT_NAMES = ("fft", "ifft", "rfft", "irfft", "hfft", "ihfft",
             "fft2", "ifft2", "rfft2", "irfft2",
             "fftn", "ifftn", "rfftn", "irfftn")
NORMS = ("grid.sobolev_norm", "grid.cell_l2_profile", "grid.l2_norm",
         "grid.local_sup_norm")
CSV_WRITERS = ("modulation.write_track_csv", "trajectories.write_trajectory_csv")


def _evolve_steps(args, kwargs, result):
    t_end = kwargs.get("t_end", args[1] if len(args) > 1 else None)
    dt = kwargs.get("dt", args[2] if len(args) > 2 else None)
    return int(round(t_end / dt))


# Per-span notes taken from a call's arguments or result.
NOTES = {
    "evolution.evolve_pbo": _evolve_steps,
    "evolution.evolve_linearized": _evolve_steps,
    "modulation.decompose": lambda args, kwargs, result: result.newton_iters,
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "fft_start", "fft_end", "note")

    def __init__(self, name, parent, fft_start):
        self.name = name
        self.parent = parent
        self.fft_start = fft_start
        self.fft_end = fft_start
        self.start = self.end = 0.0
        self.note = None

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Owns the spans, the FFT count and the patches that feed them."""

    def __init__(self):
        self.spans: list[Span] = []
        self.fft_calls = 0
        self._stack: list[int] = []
        self._patches: list[tuple] = []   # (object, attribute, original)

    # -- shims --------------------------------------------------------------

    def install_fft_shims(self):
        """Count every call of a numpy.fft / scipy.fft transform."""
        import numpy.fft
        import scipy.fft
        for mod in (numpy.fft, scipy.fft):
            for name in FFT_NAMES:
                fn = getattr(mod, name, None)
                if fn is not None:
                    self._patch(mod, name, self._counting(fn))

    def _counting(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.fft_calls += 1
            return fn(*args, **kwargs)
        return counted

    def _spanning(self, name, fn):
        note = NOTES.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, stack[-1] if stack else -1, self.fft_calls)
            stack.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                span.fft_end = self.fft_calls
                stack.pop()
            if note is not None:
                span.note = note(args, kwargs, result)
            return result
        return traced

    def install_spans(self):
        """Wrap the public functions of every layer, wherever they are bound.

        Functions are found by the module that defines them; each binding
        of the same function object in a bolab module is replaced by the
        one wrapper.  Callers outside bolab must look functions up through
        their module at call time to be traced.
        """
        from bolab.potential import PotentialSpec
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"bolab.{layer}"]
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and callable(obj)
                        and not isinstance(obj, type)
                        and getattr(obj, "__module__", None) == mod.__name__):
                    wrappers[id(obj)] = self._spanning(f"{layer}.{attr}", obj)
        modules = [m for n, m in list(sys.modules.items())
                   if n == "bolab" or n.startswith("bolab.")]
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    self._patch(mod, attr, wrappers[id(obj)])
        method = PotentialSpec.shape_derivatives
        self._patch(PotentialSpec, "shape_derivatives",
                    self._spanning("potential.shape_derivatives", method))

    def _patch(self, target, name, replacement):
        self._patches.append((target, name, getattr(target, name)))
        setattr(target, name, replacement)

    def uninstall(self):
        for target, name, original in reversed(self._patches):
            setattr(target, name, original)
        self._patches.clear()

    # -- reduction ------------------------------------------------------------

    def self_times(self):
        """Self time per span: duration minus the time its children cover."""
        own = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.duration
        return own


def _total(spans, names):
    return sum((s.duration for s in spans if s.name in names), 0.0)


def _mean(values):
    return statistics.fmean(values) if values else 0.0


def layer_metrics(tracer: Tracer, body_s: float, csv_bytes: int) -> dict:
    """Per-layer metrics of one traced body, as {name: (value, unit)}."""
    spans = tracer.spans
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    evolves = by_name.get("evolution.evolve_pbo", []) + by_name.get(
        "evolution.evolve_linearized", [])
    steps = sum(s.note for s in evolves)
    evolve_ffts = sum(s.fft_end - s.fft_start for s in evolves)
    decompose = by_name.get("modulation.decompose", [])
    shape = by_name.get("potential.shape_derivatives", [])
    norm_top = [s for s in spans if s.name in NORMS
                and not (s.parent >= 0 and spans[s.parent].name in NORMS)]

    def per_call_ms(name):
        calls = by_name.get(name, [])
        return 1e3 * _mean([s.duration for s in calls])

    m = {
        "evolution.fft_per_step": (evolve_ffts / steps if steps else 0.0, "1/step"),
        "evolution.evolve_pbo_s": (_total(spans, {"evolution.evolve_pbo"}), "s"),
        "evolution.step_pbo_ms": (per_call_ms("evolution.step_pbo"), "ms"),
        "evolution.evolve_linearized_s": (
            _total(spans, {"evolution.evolve_linearized"}), "s"),
        "evolution.step_linearized_ms": (per_call_ms("evolution.step_linearized"), "ms"),
        "modulation.decompose_calls": (len(decompose), "count"),
        "modulation.decompose_ms": (per_call_ms("modulation.decompose"), "ms"),
        "modulation.newton_iters": (_mean([s.note for s in decompose]), "1/call"),
        "trajectories.integrate_s": (_total(spans, {
            "trajectories.integrate_reference", "trajectories.integrate_exact"}), "s"),
        "trajectories.gronwall_sweep_s": (
            _total(spans, {"trajectories.gronwall_sweep"}), "s"),
        "potential.shape_derivatives_calls": (len(shape), "count"),
        "potential.shape_derivatives_us": (
            1e6 * _mean([s.duration for s in shape]), "us"),
        "grid.fft_calls": (tracer.fft_calls, "count"),
        "grid.norms_s": (sum((s.duration for s in norm_top), 0.0), "s"),
        "experiments.ode_residuals_s": (
            _total(spans, {"experiments.ode_residuals"}), "s"),
        "virial.local_smoothing_s": (_total(spans, {"virial.local_smoothing_lhs"}), "s"),
        "virial.g_remainder_s": (_total(spans, {"virial.g_remainder"}), "s"),
        "io.csv_write_s": (_total(spans, set(CSV_WRITERS)), "s"),
        "io.csv_bytes": (csv_bytes, "B"),
    }
    own = tracer.self_times()
    layer_self = {layer: 0.0 for layer in LAYERS}
    for s, t in zip(spans, own):
        layer_self[s.name.split(".", 1)[0]] += t
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (layer_self[layer], "s")
    m["bench.self_s"] = (body_s - sum(s.duration for s in spans if s.parent < 0), "s")
    m["trace.spans"] = (len(spans), "count")
    return m
