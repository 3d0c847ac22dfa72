"""Local-smoothing diagnostics for the linearized flow.

The central quantity is the time-integrated, spatially localized half-
derivative norm

    integral over [0, T] of || <D>^{1/2} ( sqrt(g') v(t) ) ||_L2^2,

compared against the global-in-space supremum norm plus a forcing
remainder; the claim probed by the sweep is that their ratio is bounded
uniformly in the window length and the localizer center.

The forcing remainder pairs each snapshot v with the forcing f twice:
<g_y0 v, f_y> + <g_0 R L v, R L f_y>, with L = I + |D| - q (self-adjoint)
and R = (1 + gamma d/dy)^{-1} (adjoint R^*).  Moving the second pairing
onto v through the adjoint gives one weight per forcing profile,

    W_f = g_y0 f_y + L R^*(g_0 R L f_y),    term = <v, W_f>,

so a window with one static forcing costs the 10 FFTs of W_f once and a
quadrature per snapshot, rather than 10 FFTs per snapshot.

The sweep keeps per-snapshot series and integrates prefixes of them: per
center it costs one localized transform per snapshot plus one W_f, and
every window, whatever its length, is a prefix of those two series and
of the run's snapshot norms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import UsageError, require_positive
from .evolution import EvolutionState, evolve_linearized
from .grid import (Field, LocalizerSpec, derivative, dgamma_inverse,
                   dgamma_inverse_adjoint, inner, l2_norm, localizer, sobolev_norm)
from .operators import SymmetricOperator
from .soliton import profile, profile_derivative


@dataclass
class VirialReport:
    gamma: float
    y0: float
    T: float
    lhs: float              # localized H^1/2 mass, integrated in time
    rhs_norm: float         # sup-in-time squared L2 norm
    g_remainder: float
    ratio: float


def _time_trapezoid(values, dt: float) -> float:
    v = np.asarray(values, dtype=float)
    if v.size < 2:
        raise UsageError("need at least two snapshots for a time integral")
    return float(dt * (np.sum(v) - 0.5 * (v[0] + v[-1])))


def _localized_masses(snapshots, spec: LocalizerSpec) -> list:
    """||<D>^{1/2}(sqrt(g') v)||^2 of each snapshot v: one transform each."""
    grid = snapshots[0].grid
    _, gp = localizer(spec, grid)
    sq = np.sqrt(gp.values)
    return [sobolev_norm(Field(grid, sq * f.values), 0.5) ** 2 for f in snapshots]


def local_smoothing_lhs(snapshots, dt: float, spec: LocalizerSpec) -> float:
    """Time-trapezoid of the localized half-derivative mass of the snapshots."""
    require_positive("dt", dt)
    if len(snapshots) < 2:
        raise UsageError("need at least two snapshots")
    return _time_trapezoid(_localized_masses(snapshots, spec), dt)


def _forcing_weight(f: Field, g_y0: Field, g_origin: Field, gamma: float) -> Field:
    """W_f = g_y0 f_y + L R^*(g_0 R L f_y): a snapshot's two pairings with f as one field."""
    lin = SymmetricOperator.linearized(f.grid)
    fy = derivative(f)
    dual_fy = dgamma_inverse(lin.apply(fy), gamma)
    back = dgamma_inverse_adjoint(g_origin * dual_fy, gamma)
    return g_y0 * fy + lin.apply(back)


def _forcing_pairings(v_snapshots, f_snapshots, spec: LocalizerSpec, gamma: float) -> list:
    """<v, W_f> of each snapshot pair (v, f); W_f is rebuilt only when the
    forcing is not the same object as the previous snapshot's."""
    grid = v_snapshots[0].grid
    g_y0, _ = localizer(spec, grid)
    g_origin, _ = localizer(LocalizerSpec(spec.gamma, 0.0), grid)
    terms = []
    weight = f_prev = None
    for v, f in zip(v_snapshots, f_snapshots):
        if f is not f_prev:
            weight, f_prev = _forcing_weight(f, g_y0, g_origin, gamma), f
        terms.append(inner(v, weight))
    return terms


def g_remainder(v_snapshots, f_snapshots, dt: float, spec: LocalizerSpec,
                gamma: float) -> float:
    """Forcing remainder of the local-smoothing estimate.

    Two time-integrated couplings: the localizer at the probe center
    against v * d_y f, and the localizer at the origin against the
    regularized dual pairings of v and d_y f,

        <g_y0 v, f_y> + <g_0 R L v, R L f_y> = <v, W_f>,
        W_f = g_y0 f_y + L R^*(g_0 R L f_y).

    W_f costs 10 FFTs and is rebuilt only when a snapshot's forcing is
    not the same object as the previous one's, so a list that repeats
    one static forcing costs 10 FFTs per call; each snapshot term is one
    quadrature.
    """
    require_positive("dt", dt)
    if len(v_snapshots) != len(f_snapshots):
        raise UsageError("v and f snapshot lists must match in length")
    if len(v_snapshots) < 2:
        raise UsageError("need at least two snapshots")
    return _time_trapezoid(_forcing_pairings(v_snapshots, f_snapshots, spec, gamma), dt)


def _check_initial_orthogonality(v0: Field) -> None:
    y = v0.grid.nodes
    q = Field(v0.grid, profile(y))
    qp = Field(v0.grid, profile_derivative(y))
    scale = max(l2_norm(v0), 1e-300)
    for name, g in (("q", q), ("q'", qp)):
        if abs(inner(v0, g)) > 1e-8 * scale * l2_norm(g):
            raise UsageError(
                f"initial data violates the <v, {name}> = 0 orthogonality")


def virial_sweep(initial: Field, forcing: Field | None, t_end: float, dt: float,
                 snapshot_stride: int, gammas, y0s) -> list:
    """VirialReports for every (gamma, y0, window) combination.

    The localizer specs are checked first, then the orthogonality of the
    initial data; the forced linearized evolution from `initial` to
    `t_end` is computed once.  Per run, the L2 norm of each snapshot is
    taken once; per center, the localized mass and the forcing pairing
    of each snapshot are taken once, so the half window and the full
    window are prefixes of the same series.  The headline claim is that
    for fixed gamma the ratios are uniform across centers and window
    lengths.
    """
    specs = [LocalizerSpec(gamma, y0) for gamma in gammas for y0 in y0s]
    if not specs:
        return []
    _check_initial_orthogonality(initial)
    res = evolve_linearized(EvolutionState(0.0, initial), t_end, dt, forcing=forcing,
                            snapshot_stride=snapshot_stride)
    fields = [s.field for s in res.states]
    dt_snap = float(res.times[1] - res.times[0])
    norms = [l2_norm(f) for f in fields]
    f_field = forcing if forcing is not None else Field.zeros(initial.grid)
    reports = []
    for spec in specs:
        masses = _localized_masses(fields, spec)
        pairings = _forcing_pairings(fields, [f_field] * len(fields), spec, spec.gamma)
        for frac in (0.5, 1.0):
            n_keep = max(2, int(round(frac * (len(fields) - 1))) + 1)
            lhs = _time_trapezoid(masses[:n_keep], dt_snap)
            rhs = max(norms[:n_keep]) ** 2
            grem = _time_trapezoid(pairings[:n_keep], dt_snap)
            denom = rhs + abs(grem)
            reports.append(VirialReport(
                gamma=float(spec.gamma), y0=float(spec.y_center),
                T=(n_keep - 1) * dt_snap, lhs=lhs, rhs_norm=rhs, g_remainder=grem,
                ratio=lhs / denom if denom > 0 else math.inf))
    return reports
