"""Soliton-parameter extraction: u = q_{a,c} + remainder under two
orthogonality regimes, trajectory tracking, and the Taylor remainder of
the slowly varying potential.

The parameter fit is a 2x2 Newton iteration on the orthogonality
conditions with an analytically assembled Jacobian (derivative fields of
the soliton family are sampled from closed formulas and the leading
Jacobian entries reduce to the exact table constants).  Remainders are
stored recentered, i.e. shifted so that the fitted soliton sits at the
origin.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DecompositionError, UsageError
from .grid import Field, Grid, inner, l2_norm, local_sup_norm, sobolev_norm, translate
from .potential import PotentialSpec
from .soliton import (SolitonParams, profile, profile_derivative,
                      profile_second_derivative, scaled_profile, soliton_field)

REGIMES = ("nonsymplectic", "symplectic")
TUBE_RADIUS_FACTOR = 0.3
MAX_NEWTON_ITERS = 50


@dataclass
class Decomposition:
    params: SolitonParams
    remainder: Field               # recentered: remainder(y) = (u - q_{a,c})(y + a)
    regime: str
    newton_iters: int
    residual: float                # max normalized orthogonality residual


def _constraint_fields(grid: Grid, a: float, c: float, regime: str):
    """Constraint pair (m1, m2) and their (a, c) derivative fields."""
    z = c * (grid.nodes - a)
    q = profile(z)
    qp = profile_derivative(z)
    sp = scaled_profile(z)               # q + z q'
    m1 = c * q                           # q_{a,c}
    d_a_m1 = -c * c * qp
    d_c_m1 = sp
    if regime == "nonsymplectic":
        qpp = profile_second_derivative(z)
        m2 = c * c * qp                  # d/dx q_{a,c}
        d_a_m2 = -c ** 3 * qpp
        d_c_m2 = 2.0 * c * qp + c * z * qpp
    else:
        m2 = z * q                       # (x - a) q_{a,c}
        d_a_m2 = -c * sp
        d_c_m2 = (z / c) * sp
    return (m1, m2), (d_a_m1, d_a_m2), (d_c_m1, d_c_m2)


def decompose(u: Field, regime: str, guess: SolitonParams) -> Decomposition:
    """Fit (a, c) so the remainder is orthogonal to the regime's pair.

    Requires u within the soliton tube around the guess (H^{1/2}
    distance at most 0.3 * guess.c); diverging Newton iterations raise
    DecompositionError.
    """
    if regime not in REGIMES:
        raise ConfigurationError(f"unknown regime {regime!r}")
    grid = u.grid
    dx = grid.spacing
    tube = sobolev_norm(u - soliton_field(grid, guess), 0.5)
    if tube > TUBE_RADIUS_FACTOR * guess.c:
        raise DecompositionError(
            f"data outside the soliton tube: H^1/2 distance {tube:.3g} "
            f"> {TUBE_RADIUS_FACTOR * guess.c:.3g}")
    a, c = guess.a, guess.c
    u_norm = l2_norm(u)
    iters = 0
    for iters in range(1, MAX_NEWTON_ITERS + 1):
        (m1, m2), da, dc = _constraint_fields(grid, a, c, regime)
        zeta = u.values - m1             # m1 = q_{a,c}
        g1 = dx * float(zeta @ m1)
        g2 = dx * float(zeta @ m2)
        m1n = math.sqrt(dx) * np.linalg.norm(m1)
        m2n = math.sqrt(dx) * np.linalg.norm(m2)
        zn = math.sqrt(dx) * np.linalg.norm(zeta)
        tol1 = max(1e-12 * m1n * zn, 1e-15 * m1n * u_norm)
        tol2 = max(1e-12 * m2n * zn, 1e-15 * m2n * u_norm)
        if abs(g1) <= tol1 and abs(g2) <= tol2:
            break
        # dG_i/dp = <zeta, dp m_i> - <dp q_{a,c}, m_i>, and dp q_{a,c} = dp m1
        j = np.empty((2, 2))
        j[0, 0] = dx * (zeta @ da[0] - da[0] @ m1)
        j[0, 1] = dx * (zeta @ dc[0] - dc[0] @ m1)
        j[1, 0] = dx * (zeta @ da[1] - da[0] @ m2)
        j[1, 1] = dx * (zeta @ dc[1] - dc[0] @ m2)
        try:
            step = np.linalg.solve(j, -np.array([g1, g2]))
        except np.linalg.LinAlgError as exc:
            raise DecompositionError(f"singular Newton system: {exc}") from exc
        damp = 1.0
        while c + damp * step[1] <= 0.1 * guess.c and damp > 1e-4:
            damp *= 0.5
        a += damp * step[0]
        c += damp * step[1]
        if not (np.isfinite(a) and np.isfinite(c)):
            raise DecompositionError("Newton iteration diverged to non-finite parameters")
    else:
        raise DecompositionError(
            f"Newton did not converge within {MAX_NEWTON_ITERS} iterations")
    # the loop left through its test: zeta, m1 and m2 belong to the final (a, c)
    params = SolitonParams(a=a, c=c)
    zeta_field = Field(grid, zeta)
    remainder = translate(zeta_field, a)
    rem_norm = max(l2_norm(remainder), 1e-300)
    res = max(
        abs(dx * float(zeta_field.values @ m1))
        / (math.sqrt(dx) * np.linalg.norm(m1) * rem_norm + 1e-300),
        abs(dx * float(zeta_field.values @ m2))
        / (math.sqrt(dx) * np.linalg.norm(m2) * rem_norm + 1e-300),
    )
    return Decomposition(params=params, remainder=remainder, regime=regime,
                         newton_iters=iters, residual=res)


@dataclass
class ParameterTrack:
    times: np.ndarray
    decompositions: list

    @property
    def a(self):
        return np.array([d.params.a for d in self.decompositions])

    @property
    def c(self):
        return np.array([d.params.c for d in self.decompositions])

    def __len__(self):
        return len(self.decompositions)


def track_parameters(snapshots, regime: str, initial_guess: SolitonParams) -> ParameterTrack:
    """Decompose a snapshot sequence, warm-starting each fit from the last.

    The soliton travels at speed c, so each fit starts from the previous
    one moved forward: (a + c*dt, c).  Consecutive fits must be close:
    the translation parameter may move at most 2*c*dt between them
    (continuity guard, against the previous fit).
    """
    decomps = []
    times = []
    prev = prev_time = None
    for k, snap in enumerate(snapshots):
        if prev is None:
            guess = initial_guess
        else:
            dt = snap.time - prev_time
            guess = SolitonParams(prev.a + prev.c * dt, prev.c)
        try:
            d = decompose(snap.field, regime, guess)
        except DecompositionError as exc:
            raise DecompositionError(f"snapshot {k} (t={snap.time:.6g}): {exc}") from exc
        if prev is not None:
            jump = abs(d.params.a - prev.a)
            if jump > 2.0 * max(d.params.c, prev.c) * dt + 1e-9:
                raise DecompositionError(
                    f"snapshot {k}: parameter jump |da| = {jump:.3g} "
                    f"exceeds continuity bound")
        decomps.append(d)
        times.append(snap.time)
        prev, prev_time = d.params, snap.time
    return ParameterTrack(times=np.array(times), decompositions=decomps)


def e2_remainder(grid: Grid, a: float, pot: PotentialSpec) -> Field:
    """Second-order Taylor remainder of the potential shape around the soliton.

    e2(y, a) = W(h(y+a)) - W(h a) - h W'(h a) y, sampled exactly.
    """
    h = pot.h
    w_at = pot.shape_derivatives(h * (grid.nodes + a))[0]
    w0, w1, _, _ = pot.shape_derivatives(h * a)
    return Field(grid, w_at - w0 - h * w1 * grid.nodes)


@dataclass
class ConversionReport:
    decomposition: Decomposition        # direct symplectic decomposition
    predicted_remainder: Field          # first-order prediction, recentered
    prediction_gap: float               # L2 distance direct vs predicted
    hhalf_ratio: float                  # ||symplectic rem|| / ||nonsymplectic rem|| in H^1/2


def convert_decompositions(d: Decomposition, u: Field) -> ConversionReport:
    """Convert a nonsymplectic decomposition to the symplectic regime.

    Computes the symplectic decomposition directly and also the
    first-order predicted remainder
        eta ~ zeta + 2||q||^{-2} q'_{a,c} <zeta, (x-a) q_{a,c}>
                  - 2||q||^{-2} ((x-a) q_{a,c})' <zeta, q_{a,c}>
    evaluated at the nonsymplectic parameters, recording the gap.
    """
    if d.regime != "nonsymplectic":
        raise UsageError("conversion starts from a nonsymplectic decomposition")
    direct = decompose(u, "symplectic", d.params)
    grid = u.grid
    a, c = d.params.a, d.params.c
    z = c * (grid.nodes - a)
    zeta = u - soliton_field(grid, d.params)       # x-frame remainder
    qprime = Field(grid, c * c * profile_derivative(z))
    xq = Field(grid, z * profile(z))               # (x-a) q_{a,c}
    xq_prime = Field(grid, c * scaled_profile(z))  # d/dx[(x-a) q_{a,c}]
    inv = 2.0 / (8.0 * math.pi)
    eta_pred = (zeta + inv * inner(zeta, xq) * qprime
                - inv * inner(zeta, soliton_field(grid, d.params)) * xq_prime)
    eta_pred_centered = translate(eta_pred, a)
    gap = l2_norm(direct.remainder - eta_pred_centered)
    num = sobolev_norm(direct.remainder, 0.5)
    den = max(sobolev_norm(d.remainder, 0.5), 1e-300)
    return ConversionReport(decomposition=direct,
                            predicted_remainder=eta_pred_centered,
                            prediction_gap=gap,
                            hhalf_ratio=num / den)


def write_track_csv(path, track: ParameterTrack) -> None:
    """Time-series CSV: t, a, c, residual, remainder_L2, remainder_Hhalf, remainder_local_sup."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "a", "c", "residual", "remainder_L2",
                    "remainder_Hhalf", "remainder_local_sup"])
        for t, d in zip(track.times, track.decompositions):
            w.writerow([repr(float(v)) for v in (
                t, d.params.a, d.params.c, d.residual, l2_norm(d.remainder),
                sobolev_norm(d.remainder, 0.5), local_sup_norm(d.remainder))])
