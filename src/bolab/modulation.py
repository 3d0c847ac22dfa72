"""Soliton-parameter extraction: u = q_{a,c} + remainder, and trajectory
tracking.

The parameter fit is a 2x2 Newton iteration on the symplectic
orthogonality conditions <u - q_{a,c}, q_{a,c}> = <u - q_{a,c}, (x - a)
q_{a,c}> = 0, with an analytically assembled Jacobian (the derivative
fields of the soliton family are built from `soliton.profile`,
`profile_derivative` and `scaled_profile`; at u = q the leading Jacobian
entries are +-4 pi, the constants INNER_YQ_PRIME_Q and NORM_Q_SQ/2 of
`soliton`).

A fit keeps the field it fitted, not its remainder: `Field` values are
read-only, so the reference is safe, and it keeps that field alive.
`Decomposition.remainder` rebuilds the remainder on each access,
recentered so that the fitted soliton sits at the origin, bit for bit
the one the Newton loop measured; a rebuild is two FFTs, about 0.4 ms at
N = 8192.  A `ParameterTrack` thus holds its snapshots and no other
field.  `track_parameters` collects the fits of one stream, `_fits`, which
yields each fit as its snapshot arrives; `bolab evolve` and a sweep member
read that stream once and keep no track.

Each fit has one record, `_track_record`: its remainder rebuilt once and
profiled once by `grid.cell_l2_profile`, giving the fit's track-CSV line
and its cell norms, whose maximum is the line's local sup.  A sweep
member also adds the squared norms to its cell masses.  `write_track_csv`
writes the records of a collected track.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DecompositionError
from .grid import Field, Grid, cell_l2_profile, l2_norm, sobolev_norm, translate
from .soliton import (SolitonParams, profile, profile_derivative,
                      scaled_profile, soliton_field)

TUBE_RADIUS_FACTOR = 0.3
MAX_NEWTON_ITERS = 50
# Newton stops once an update moves a and c by at most this relative
# amount (4 ulps): at the floor c can alternate by one ulp forever
_STEP_FLOOR = 4.0 * np.finfo(float).eps


@dataclass
class Decomposition:
    """One fit u = q_{a,c} + remainder.

    `field` is the u that was fitted: the fit keeps it alive rather than a
    copy of the remainder.  `remainder` rebuilds the recentered remainder,
    remainder(y) = (u - q_{a,c})(y + a), on each access (two FFTs, about
    0.4 ms at N = 8192); its values equal the remainder of the final Newton
    iterate bit for bit.
    """

    params: SolitonParams
    field: Field
    newton_iters: int
    residual: float                # max normalized orthogonality residual

    @property
    def remainder(self) -> Field:
        # zeta of the Newton loop, whose m1 = c q(z) takes the same operations
        u = self.field
        return translate(u - soliton_field(u.grid, self.params), self.params.a)


def _constraint_fields(grid: Grid, a: float, c: float):
    """Constraint pair (m1, m2) = (q_{a,c}, (x - a) q_{a,c}) and their (a, c)
    derivative fields, from q, q' and (yq)' at z = c (x - a)."""
    z = c * (grid.nodes - a)
    q, qp, sp = profile(z), profile_derivative(z), scaled_profile(z)
    m1 = c * q                           # q_{a,c}
    m2 = z * q                           # (x - a) q_{a,c}
    return (m1, m2), (-c * c * qp, -c * sp), (sp, (z / c) * sp)


def decompose(u: Field, regime: str, guess: SolitonParams) -> Decomposition:
    """Fit (a, c) so the remainder is orthogonal to q_{a,c} and (x - a) q_{a,c}.

    `regime` names the orthogonality conditions; "symplectic" is the only
    one.  Requires u within the soliton tube around the guess (H^{1/2}
    distance at most 0.3 * guess.c); diverging Newton iterations raise
    DecompositionError.  The iteration stops when both residuals meet
    their tolerance, or when the damped update moves a by at most
    4 eps max(1, |a|) and c by at most 4 eps c (the floating-point floor,
    where c may alternate by one ulp); the fit then reports the residual
    it reached.
    """
    if regime != "symplectic":
        raise ConfigurationError(
            f"unknown regime {regime!r}: only 'symplectic' is supported")
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
        (m1, m2), da, dc = _constraint_fields(grid, a, c)
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
        a_next = a + damp * step[0]
        c_next = c + damp * step[1]
        if (abs(a_next - a) <= _STEP_FLOOR * max(1.0, abs(a))
                and abs(c_next - c) <= _STEP_FLOOR * c):
            # the update is within a few ulps of both: this is the floor
            break
        a, c = a_next, c_next
        if not (np.isfinite(a) and np.isfinite(c)):
            raise DecompositionError("Newton iteration diverged to non-finite parameters")
    else:
        raise DecompositionError(
            f"Newton did not converge within {MAX_NEWTON_ITERS} iterations")
    # the loop left through a test: g1, g2, m1n, m2n and zn, the remainder's
    # L2 norm, belong to the final (a, c)
    rem_norm = max(zn, 1e-300)
    res = max(abs(g1) / (m1n * rem_norm + 1e-300), abs(g2) / (m2n * rem_norm + 1e-300))
    return Decomposition(params=SolitonParams(a=a, c=c), field=u,
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


def _fits(snapshots, regime: str, initial_guess: SolitonParams):
    """Yield (time, fit) for each snapshot as it arrives, warm-starting each
    fit from the last.

    The soliton travels at speed c, so each fit starts from the previous
    one moved forward: (a + c*dt, c).  Consecutive fits must be close:
    the translation parameter may move at most 2*c*dt between them
    (continuity guard, against the previous fit).
    """
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
        yield snap.time, d
        prev, prev_time = d.params, snap.time


def track_parameters(snapshots, regime: str, initial_guess: SolitonParams) -> ParameterTrack:
    """Decompose a snapshot sequence, warm-starting each fit from the last.

    The fits are those of `_fits`, collected.  Each fit refers to its
    snapshot's field, so the track keeps the snapshots alive and no other
    field.
    """
    fits = list(_fits(snapshots, regime, initial_guess))
    return ParameterTrack(times=np.array([t for t, _ in fits]),
                          decompositions=[d for _, d in fits])


def _track_record(t: float, d: Decomposition):
    """The record of the fit d at time t: its track-CSV line and its
    remainder's unit-cell norms, from one rebuild and one profile of the
    remainder.  The line's local sup is the largest cell norm."""
    r = d.remainder
    norms = cell_l2_profile(r)[1]
    cells = (t, d.params.a, d.params.c, d.residual, l2_norm(r), sobolev_norm(r, 0.5),
             np.max(norms))
    return ",".join(repr(float(v)) for v in cells) + "\r\n", norms


def _write_track_rows(path, rows) -> None:
    """Write a track CSV, its header and then the `_track_record` lines rows,
    in one call."""
    with open(path, "w", newline="") as fh:
        fh.write("t,a,c,residual,remainder_L2,remainder_Hhalf,remainder_local_sup\r\n"
                 + "".join(rows))


def write_track_csv(path, track: ParameterTrack) -> None:
    """Time-series CSV: t, a, c, residual, remainder_L2, remainder_Hhalf, remainder_local_sup.

    Cells are float reprs and lines end in \\r\\n, the bytes ``csv.writer``
    gives these rows (no cell needs quoting); the file is written in one call.
    """
    _write_track_rows(path, [_track_record(t, d)[0]
                             for t, d in zip(track.times, track.decompositions)])
