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

The sweep reads its linearized run once, as the evolution yields each
snapshot, and keeps no field: per snapshot it appends ||v|| and, per
center, the localized mass and <v, W_f>, with W_f built once per center.
Every window, whatever its length, is a prefix of those series.  Every
time integral is ``np.trapezoid`` of a series on the uniform snapshot
spacing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, UsageError, require_positive
from .evolution import EvolutionState, _linearized_snapshots, _step_count
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


def _localized_mass(spec: LocalizerSpec, grid):
    """The map v -> ||<D>^{1/2}(sqrt(g') v)||^2, one transform per snapshot."""
    _, gp = localizer(spec, grid)
    sq = np.sqrt(gp.values)
    return lambda v: sobolev_norm(Field(grid, sq * v.values), 0.5) ** 2


def local_smoothing_lhs(snapshots, dt: float, spec: LocalizerSpec) -> float:
    """``np.trapezoid`` in time of the localized half-derivative mass of the snapshots."""
    require_positive("dt", dt)
    if len(snapshots) < 2:
        raise UsageError("need at least two snapshots")
    mass = _localized_mass(spec, snapshots[0].grid)
    return float(np.trapezoid([mass(v) for v in snapshots], dx=dt))


def _forcing_weight(f: Field, spec: LocalizerSpec, gamma: float) -> Field:
    """W_f = g_y0 f_y + L R^*(g_0 R L f_y): a snapshot's two pairings with f as one field."""
    g_y0, _ = localizer(spec, f.grid)
    g_origin, _ = localizer(LocalizerSpec(spec.gamma, 0.0), f.grid)
    lin = SymmetricOperator.linearized(f.grid)
    fy = derivative(f)
    dual_fy = dgamma_inverse(lin.apply(fy), gamma)
    back = dgamma_inverse_adjoint(g_origin * dual_fy, gamma)
    return g_y0 * fy + lin.apply(back)


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
    terms = []
    weight = f_prev = None
    for v, f in zip(v_snapshots, f_snapshots):
        if f is not f_prev:
            weight, f_prev = _forcing_weight(f, spec, gamma), f
        terms.append(inner(v, weight))
    return float(np.trapezoid(terms, dx=dt))


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

    An empty gammas or y0s list is a usage error.  The localizer specs are
    checked first, then the orthogonality of the initial data, then the
    run's inputs, with t_end an even number, at least 4, of snapshot
    intervals dt * snapshot_stride, so the half window is T/2 and both
    windows span whole intervals.  The forced linearized
    evolution from `initial` to `t_end` is read once, snapshot by
    snapshot.  Per snapshot, its L2 norm is taken once and, per center,
    its localized mass and its pairing with that center's W_f, so the
    half window and the full window are prefixes of the same series and
    no snapshot is kept.  The headline
    claim is that for fixed gamma the ratios are uniform across centers
    and window lengths.
    """
    for name, values in (("gammas", gammas), ("y0s", y0s)):
        if len(values) == 0:
            raise UsageError(f"{name} must be nonempty")
    specs = [LocalizerSpec(gamma, y0) for gamma in gammas for y0 in y0s]
    _check_initial_orthogonality(initial)
    dt_snap = dt * snapshot_stride
    intervals, rest = divmod(_step_count(t_end, dt, snapshot_stride), snapshot_stride)
    if rest:
        # the run's last state would close a window shorter than dt_snap
        raise ConfigurationError(
            f"t_end must be a multiple of the snapshot interval {dt_snap:g}, got {t_end}")
    if intervals < 4 or intervals % 2:
        # the half window is T/2, at least two intervals long
        raise ConfigurationError(
            f"t_end must be an even number, at least 4, of snapshot intervals "
            f"{dt_snap:g}, got {intervals} in {t_end}")
    snapshots = _linearized_snapshots(EvolutionState(0.0, initial), t_end, dt, forcing,
                                      snapshot_stride)
    f_field = forcing if forcing is not None else Field.zeros(initial.grid)
    # per centre: the localized mass map, W_f, and the two series
    centres = [(_localized_mass(spec, initial.grid), _forcing_weight(f_field, spec, spec.gamma),
                [], []) for spec in specs]
    norms = []
    for state in snapshots:
        v = state.field
        norms.append(l2_norm(v))
        for mass, weight, masses, pairings in centres:
            masses.append(mass(v))
            pairings.append(inner(v, weight))
    reports = []
    for spec, (_, _, masses, pairings) in zip(specs, centres):
        for n_keep in (intervals // 2 + 1, intervals + 1):
            lhs = float(np.trapezoid(masses[:n_keep], dx=dt_snap))
            rhs = max(norms[:n_keep]) ** 2
            grem = float(np.trapezoid(pairings[:n_keep], dx=dt_snap))
            denom = rhs + abs(grem)
            reports.append(VirialReport(
                gamma=float(spec.gamma), y0=float(spec.y_center),
                T=(n_keep - 1) * dt_snap, lhs=lhs, rhs_norm=rhs, g_remainder=grem,
                ratio=lhs / denom if denom > 0 else math.inf))
    return reports
