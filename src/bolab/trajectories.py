"""Reference and second-order-corrected parameter trajectories.

Both systems integrate with classic fixed-step RK4 in the slow time
s = h*t.  The reference flow is

    A' = C - W(A),          C' = C W'(A),

and the corrected ("exact") flow adds the curvature terms

    A' = C - W(A) + (h^2/2) W''(A)/C^2,
    C' = C W'(A) + (h^2/2) W'''(A)/C.

Integration of the reference flow stops at the first slow time where C
reaches 1/2 or 2, the scale window [SCALE_STOP_LOW, SCALE_STOP_HIGH]
that the sweep's fits are held to as well.  Within the step that
crosses, ``scipy.optimize.brentq`` finds the partial step length whose
C lands on the bound, to 1e-10 in slow time; "never" is encoded as an
explicit None, not a large float.

`gronwall_sweep` takes sup|A_ref - A_exact| and sup|C_ref - C_exact| per
h over the samples the two flows share: both step on s = k*ds from the
same start, so their times agree bit for bit up to the reference's stop,
and no resampling enters the deviation.

`fit_scaling_exponent` is the one order fit in h, for this module's
Gronwall sweep and for the theorem sweep: the least-squares slope of
log(value) against log(h) with its standard error, or (None, None)
when no order is defined, with fewer than 3 points, two equal h, or an
h or a value that is not finite and positive (two identical flows
deviate by 0).  So `gronwall_sweep` needs at least three distinct h.

Each integration runs once per process: `_integrated`, one bounded
``functools.lru_cache``, owns the results and keys them on
(kind, spec, s_end, ds, y0).  A `PotentialSpec` compares by value, so
the spec is its own key; the reference flow does not involve h and is
keyed on its spec with h fixed at `_REFERENCE_H`.  Its arrays are
read-only and shared; every public call wraps them in a fresh
TrajectoryState.  So `gronwall_sweep` integrates the reference flow once
per distinct shape W, and `bolab trajectories`, which runs its sweep
before it writes its CSVs, takes the two h = --h flows it writes from
the cache instead of integrating them again.

The stepper carries (A, C) as a pair of Python floats and calls
``PotentialSpec.shape_derivatives`` with a scalar, so every right-hand
side takes the potential's scalar path; the arrays of a TrajectoryState
are built once, at the end.  The array path of ``shape_derivatives`` is
the scalar path's reference, and the tests keep an RK4 on 2-element
numpy arrays as the stepper's reference.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import brentq

from .errors import ConfigurationError, UsageError, require_positive
from .potential import PotentialSpec

FRAMES = ("slow_s", "fast_t")
KINDS = ("reference", "exact")
SCALE_STOP_LOW = 0.5
SCALE_STOP_HIGH = 2.0
_REFERENCE_H = 1.0          # the reference flow's cache key does not vary with h


@dataclass
class TrajectoryState:
    frame: str
    kind: str
    times: np.ndarray
    positions: np.ndarray       # A (slow frame) or a (fast frame)
    scales: np.ndarray          # C or c
    stop_time: float | None = None   # event time in the state's frame; None = never

    def __post_init__(self):
        if self.frame not in FRAMES:
            raise ConfigurationError(f"unknown frame {self.frame!r}")
        if self.kind not in KINDS:
            raise ConfigurationError(f"unknown kind {self.kind!r}")
        t = np.asarray(self.times, dtype=float)
        if t.size >= 2 and np.any(np.diff(t) <= 0):
            raise ConfigurationError("times must be strictly increasing")
        if np.any(np.asarray(self.scales) <= 0):
            raise ConfigurationError("scale parameter must stay positive")


def _rk4_step(rhs, y, ds):
    # x + 0.5 * ds * k parses as x + (0.5 * ds) * k: hoisting the step
    # factors leaves every value bit-identical
    a, c = y
    half, sixth = 0.5 * ds, ds / 6.0
    ka1, kc1 = rhs(a, c)
    ka2, kc2 = rhs(a + half * ka1, c + half * kc1)
    ka3, kc3 = rhs(a + half * ka2, c + half * kc2)
    ka4, kc4 = rhs(a + ds * ka3, c + ds * kc3)
    return (a + sixth * (ka1 + 2.0 * ka2 + 2.0 * ka3 + ka4),
            c + sixth * (kc1 + 2.0 * kc2 + 2.0 * kc3 + kc4))


def _reference_rhs(pot: PotentialSpec):
    derivs = pot.shape_derivatives
    def rhs(a, c):
        w, w1, _, _ = derivs(a)
        return c - w, c * w1
    return rhs


def exact_rhs(pot: PotentialSpec):
    """The corrected right-hand side (A, C) -> (A', C') in the slow frame, on
    floats (the stepper) or arrays (`experiments.ode_residuals`)."""
    derivs = pot.shape_derivatives
    half_h2 = 0.5 * pot.h ** 2
    def rhs(a, c):
        w, w1, w2, w3 = derivs(a)
        return (c - w + half_h2 * w2 / c ** 2,
                c * w1 + half_h2 * w3 / c)
    return rhs


def _scale_event(c_prev, c_next):
    for bound in (SCALE_STOP_LOW, SCALE_STOP_HIGH):
        if (c_prev - bound) * (c_next - bound) < 0 or c_next == bound:
            return bound
    return None


def _integrate(rhs, s_end: float, ds: float, detect_stop: bool, y0):
    steps = int(math.ceil(s_end / ds - 1e-12))
    y = (float(y0[0]), float(y0[1]))     # Python floats: the scalar W path
    times = [0.0]
    ys = [y]
    stop = None
    for k in range(steps):
        step_len = min(ds, s_end - k * ds)
        y_next = _rk4_step(rhs, y, step_len)
        bound = _scale_event(y[1], y_next[1]) if detect_stop else None
        if bound is not None:
            # the partial step whose C lands on the bound, to 1e-10 in slow time
            part = brentq(lambda d: _rk4_step(rhs, y, d)[1] - bound, 0.0, step_len,
                          xtol=1e-10)
            stop = k * ds + part
            times.append(stop)
            ys.append(_rk4_step(rhs, y, part))
            break
        y = y_next
        times.append(min((k + 1) * ds, s_end))
        ys.append(y)
    arr = np.array(ys)
    return np.array(times), arr[:, 0], arr[:, 1], stop


@functools.lru_cache(maxsize=16)
def _integrated(kind: str, pot: PotentialSpec, s_end: float, ds: float, y0: tuple):
    """Read-only (times, A, C) and the stop time of one flow."""
    if kind == "reference":
        rhs, detect_stop = _reference_rhs(pot), True
    else:
        rhs, detect_stop = exact_rhs(pot), False
    times, pos, sc, stop = _integrate(rhs, s_end, ds, detect_stop, y0)
    for v in (times, pos, sc):
        v.setflags(write=False)
    return times, pos, sc, stop


def integrate_reference(pot: PotentialSpec, s_end: float, ds: float = 1e-3) -> TrajectoryState:
    """Reference flow from (A, C)(0) = (0, 1); stops early if C hits 1/2 or 2."""
    s_end, ds = require_positive("s_end", s_end), require_positive("ds", ds)
    times, pos, sc, stop = _integrated("reference", replace(pot, h=_REFERENCE_H),
                                       s_end, ds, (0.0, 1.0))
    return TrajectoryState("slow_s", "reference", times, pos, sc, stop_time=stop)


def integrate_exact(pot: PotentialSpec, s_end: float, ds: float = 1e-3,
                    y0=(0.0, 1.0)) -> TrajectoryState:
    """Second-order-corrected flow from (A, C)(0) = y0 (slow frame: A = h a).

    A0 must be finite and C0 must pass `require_positive`; both are checked
    before the first step.
    """
    s_end, ds = require_positive("s_end", s_end), require_positive("ds", ds)
    a0, c0 = float(y0[0]), require_positive("C0", y0[1])
    if not math.isfinite(a0):
        raise ConfigurationError(f"A0 must be finite, got {a0}")
    times, pos, sc, _ = _integrated("exact", pot, s_end, ds, (a0, c0))
    return TrajectoryState("slow_s", "exact", times, pos, sc)


def convert_frame(tr: TrajectoryState, h: float) -> TrajectoryState:
    """Convert slow time s to fast time t = s/h: a = A/h, c = C.

    A trajectory already in the fast frame is a usage error.
    """
    if tr.frame == "fast_t":
        raise UsageError("trajectory is already in frame 'fast_t'")
    require_positive("h", h)
    stop = tr.stop_time / h if tr.stop_time is not None else None
    return TrajectoryState("fast_t", tr.kind, tr.times / h, tr.positions / h,
                           tr.scales.copy(), stop_time=stop)


def fit_scaling_exponent(points):
    """Least-squares slope of log(value) against log(h), with its standard error.

    Returns (order, stderr), or (None, None) when no order is defined:
    fewer than 3 points, two equal h, or an h or a value that is not finite
    and positive.
    """
    pts = [(float(h), float(v)) for h, v in points]
    if (len(pts) < 3 or len({h for h, _ in pts}) < len(pts)
            or not all(math.isfinite(x) and x > 0 for pt in pts for x in pt)):
        return None, None
    x = np.log([h for h, _ in pts])
    y = np.log([v for _, v in pts])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    denom = np.sum((x - x.mean()) ** 2)
    stderr = math.sqrt(float(resid @ resid) / (len(pts) - 2) / denom)
    return float(slope), float(stderr)


@dataclass
class GronwallReport:
    sup_dev_position: float             # max over h of sup|A_ref - A_exact|
    sup_dev_scale: float                # max over h of sup|C_ref - C_exact|
    fitted_order: float | None          # log-log slope of sup|C_dev| in h
    per_h: list                         # (h, sup|A_dev|, sup|C_dev|) per h


def gronwall_sweep(pot_factory, h_values, s_end: float, ds: float = 1e-3) -> GronwallReport:
    """Compare reference vs corrected flow across h and fit the deviation order.

    pot_factory(h) must return the potential at slow scale h.  Each sup
    runs over the samples both flows share: all of them, or those before
    the reference's stop if it stops.  The fitted order is
    `fit_scaling_exponent`'s slope of sup|C_exact - C_reference| against h,
    so the sweep needs at least three distinct h values; it is None when a
    deviation is 0.  The reference flow does not involve h: the integration
    cache (see the module docstring) runs it once per distinct shape W and
    every h with that shape shares its read-only arrays.
    """
    if len(set(h_values)) < len(h_values):
        raise UsageError(f"sweep h values must be distinct, got {list(h_values)}")
    if len(h_values) < 3:
        raise UsageError(f"sweep needs at least three h values, got {list(h_values)}")
    per_h = []
    for h in h_values:
        pot = pot_factory(h)
        ref, ex = integrate_reference(pot, s_end, ds), integrate_exact(pot, s_end, ds)
        # a stopped reference ends at a partial step where the corrected flow
        # has no sample; both flows share every earlier time bit for bit
        n = ref.times.size - (ref.stop_time is not None)
        per_h.append((float(h),
                      float(np.max(np.abs(ref.positions[:n] - ex.positions[:n]))),
                      float(np.max(np.abs(ref.scales[:n] - ex.scales[:n])))))
    order, _ = fit_scaling_exponent((h, dev_c) for h, _, dev_c in per_h)
    return GronwallReport(sup_dev_position=max(p[1] for p in per_h),
                          sup_dev_scale=max(p[2] for p in per_h),
                          fitted_order=order, per_h=per_h)


def write_trajectory_csv(path, tr: TrajectoryState) -> None:
    """Trajectory CSV with frame-dependent headers: s,A,C or t,a,c plus kind, frame.

    Cells are float reprs and lines end in \\r\\n, the bytes ``csv.writer``
    gives these rows (no cell needs quoting); the file is written in one call.
    """
    head = "s,A,C" if tr.frame == "slow_s" else "t,a,c"
    tail = f",{tr.kind},{tr.frame}\r\n"
    cols = (np.asarray(v, dtype=float).tolist()
            for v in (tr.times, tr.positions, tr.scales))
    rows = "".join(f"{t!r},{a!r},{c!r}{tail}" for t, a, c in zip(*cols))
    with open(path, "w", newline="") as fh:
        fh.write(f"{head},kind,frame\r\n{rows}")
