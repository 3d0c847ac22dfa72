"""Time integration: the potential-perturbed flow, the free flow, and the
linearized flow with forcing.

The stiff dispersive part is integrated exactly in Fourier space and the
bounded remainder by a fourth-order exponential integrator (ETDRK4 with
contour-integral coefficients; the contour is the full unit circle
around each scaled symbol value, which is required for purely imaginary
symbols).  The pBO flux u (V - u/2) is dealiased as a whole by the 2/3
rule; the linearized equation has no quadratic term and runs undealiased
so that exact stationary states stay stationary to the quadrature floor.

Both flows run through one driver, ``_evolve``, a generator that yields
each snapshot as the step loop reaches it: the initial state, every
stride-th state and the last.  It transforms the initial field once and
keeps the ETDRK4 state as its rfft spectrum from the first step to the
last; a snapshot is one irfft into a ``Field`` (time t0 + k*dt after k
steps).  ``_pbo_snapshots`` and ``_linearized_snapshots`` check their
inputs and build their flow before the stream starts, so a bad input
fails at the call, not at the first snapshot; ``evolve_pbo`` and
``evolve_linearized`` return their stream collected, and the sweeps read
it once without keeping it.  Three guards stop a run with
``EvolutionError``: the finiteness check after every step, and, for
pBO, at each snapshot, the blow-up guard (H^{1/2} norm above
``BLOWUP_FACTOR`` = 10 times its initial value) and the seam guard (the
field maximum within L/4 of the periodic seam).  The first two read the
spectrum.
Each of the four stages of a step makes two FFT calls, so a step makes
eight:

* pBO: one irfft of the stage spectrum, the flux u (V - u/2) written in
  place (u (-u/2) without a potential), one rfft of it, and one multiply
  by the precomputed (2/3-rule mask) * i*xi.  Dealiasing the whole flux,
  not only u^2, is what lets u^2 and V u share one transformed row; V u's
  modes above the cutoff are dropped too.  A resolved soliton's spectrum
  decays like e^{-|xi|}, so on the default grid (cutoff xi ~ 16.8) that
  moves the sweep members' envelope ratios, residual integrals and final
  (a, c) by less than 1e-8 relative.  The -1/2 scaling is exact, so the
  free flow's states are those of -(1/2) d_x P(u^2) bit for bit.
* linearized: one irfft, then one rfft of -w v; the forcing term i*xi*f^
  is transformed once per run.

The step runs in buffers, not in fresh arrays.  ``_evolve`` allocates
the output spectrum and nine stage rows (n0, na, nb, nc, eu, a, b, c
and one temporary) once per run; ``_Etdrk4Tables.step_spectrum`` writes
the step into the output, ``_evolve`` swaps it with the state, and the
finiteness check writes into a preallocated bool buffer.  Each
right-hand side is ``nonlinear(spectrum, out)`` and writes its result
with ``out=``.  All transforms of ``_evolve`` and of the right-hand
sides call ``scipy.fft``.  The arithmetic and its order are those of
the plain allocating formula, so every state is bit-identical to it.
One rule keeps it so: numpy's complex multiply is not bitwise
commutative (it may contract to FMA), so each product keeps the table
on the left, ``np.multiply(table, x, out=x)``, never ``x *= table``.

Each ``evolve_*`` call owns its tables, its buffers and its right-hand
side, so concurrent runs share no state.  The tables' contour means are
built per equal row block of the half axis, so the build's transient
memory is bounded by one block, not by the whole (N/2+1) x 64 contour
array.  The linearized flow reads its symbol and weight from
``operators.SymmetricOperator.linearized`` and its projector from
``operators.projector_parts``, the one definition of the operator
family; every table takes the Nyquist rule of ``grid._real_nyquist``.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass

import numpy as np
import scipy.fft

from .errors import (ConfigurationError, EvolutionError, UsageError, require_count,
                     require_positive)
from .grid import (Field, Grid, _real_nyquist, _spectrum_sobolev_norm, derivative,
                   hilbert, inner, integral, sobolev_norm)
from .potential import PotentialSpec
from .operators import SymmetricOperator, projector_parts

BLOWUP_FACTOR = 10.0


@dataclass
class EvolutionState:
    """A field at a moment in time, with the potential it evolves under."""

    time: float
    field: Field
    potential: PotentialSpec | None = None


@dataclass
class InvariantReport:
    """Mass and energies of a periodic-box field, read as the real-line values.

    The quadratic ``<., |D| .>`` pairings in ``energy0`` and ``energy1``
    carry the endpoint term pi (int f)(int g) / (3 L^2) (see
    ``invariants``), so each energy approximates its line value at
    O(L^-3) for a soliton rather than O(L^-2).
    """

    mass: float
    energy0: float
    energy1: float
    energy_perturbed: float


_N_CONTOUR = 64                 # quadrature points on each contour circle
# Fewest rows of a table-build block.  256 rows x 64 points of complex128
# are 256 KiB, numpy's threshold for reusing an expression's temporaries:
# from that size on, x * (temporary) is computed in the temporary with the
# operands swapped, and complex multiply is not bitwise commutative, so a
# shorter block would round differently from the whole-array formula.
_BLOCK_ROWS = 256


class _Etdrk4Tables:
    """ETDRK4 coefficients for u' = symbol*u + N(u) on one (grid, dt).

    Full-circle contour quadrature evaluates the phi-function
    combinations stably near symbol = 0.  The four contour means are
    built per equal row block of the half axis (at least ``_BLOCK_ROWS``
    rows each), so the build's transient memory is bounded by one block,
    and every value is bit-identical to the whole-array formula.
    """

    def __init__(self, symbol: np.ndarray, dt: float):
        r = np.exp(2j * np.pi * (np.arange(_N_CONTOUR) + 0.5) / _N_CONTOUR)
        self.e_full = np.exp(dt * symbol)
        self.e_half = np.exp(0.5 * dt * symbol)
        self.stage, self.w1, self.w2x2, self.w3 = (
            np.empty(symbol.shape, dtype=complex) for _ in range(4))
        start = 0
        for block in np.array_split(symbol, max(1, symbol.size // _BLOCK_ROWS)):
            rows = slice(start, start + block.size)
            start += block.size
            lr = dt * block[:, None] + r[None, :]
            elr = np.exp(lr)
            self.stage[rows] = dt * ((np.exp(lr / 2) - 1.0) / lr).mean(1)
            self.w1[rows] = dt * ((-4.0 - lr + elr * (4.0 - 3.0 * lr + lr ** 2))
                                  / lr ** 3).mean(1)
            self.w2x2[rows] = 2.0 * (dt * ((2.0 + lr + elr * (-2.0 + lr))
                                           / lr ** 3).mean(1))
            self.w3[rows] = dt * ((-4.0 - 3.0 * lr - lr ** 2 + elr * (4.0 - lr))
                                  / lr ** 3).mean(1)

    def step_spectrum(self, uh, out, nonlinear, stages) -> None:
        """One ETDRK4 step of the spectrum uh into out; four calls of `nonlinear`.

        `stages` holds the run's nine work rows (n0, na, nb, nc, eu, a, b,
        c, temporary); out must not alias uh.  Each product keeps the table
        on the left, as the allocating formula
            out = e_full uh + w1 n0 + 2 w2 (na + nb) + w3 nc
        has it, so every value is bit-identical to that formula.
        """
        n0, na, nb, nc, eu, a, b, c, tmp = stages
        nonlinear(uh, n0)
        np.multiply(self.e_half, uh, out=eu)
        np.multiply(self.stage, n0, out=a)
        np.add(eu, a, out=a)
        nonlinear(a, na)
        np.multiply(self.stage, na, out=b)
        np.add(eu, b, out=b)
        nonlinear(b, nb)
        np.multiply(2.0, nb, out=tmp)
        np.subtract(tmp, n0, out=tmp)
        np.multiply(self.stage, tmp, out=tmp)
        np.multiply(self.e_half, a, out=c)
        np.add(c, tmp, out=c)
        nonlinear(c, nc)
        np.multiply(self.e_full, uh, out=out)
        np.multiply(self.w1, n0, out=tmp)
        np.add(out, tmp, out=out)
        np.add(na, nb, out=tmp)
        np.multiply(self.w2x2, tmp, out=tmp)
        np.add(out, tmp, out=out)
        np.multiply(self.w3, nc, out=tmp)
        np.add(out, tmp, out=out)


def _pbo_flow(grid: Grid, dt: float, pot: PotentialSpec | None):
    """The pBO tables and a right-hand side that owns its work row.

    The flux multiplier (2/3-rule mask) * i*xi folds the dealiasing into
    the derivative of the whole flux u (V - u/2).  Per stage: one irfft,
    the flux (u (-u/2) without a potential) written in place, one rfft
    and one multiply by the flux multiplier.
    """
    xi = grid.rfft_wavenumbers
    tables = _Etdrk4Tables(_real_nyquist(1j * xi * np.abs(xi)), dt)
    dflux = np.where(xi <= (2.0 / 3.0) * xi[-1], 1j * xi, 0.0)
    v = pot.sampled_potential(grid.nodes) if pot is not None else None
    n = grid.n_points
    work = np.empty(n)

    def nonlinear(uh, out):
        u = scipy.fft.irfft(uh, n=n)
        np.multiply(-0.5, u, out=work)
        if v is not None:
            np.add(v, work, out=work)
        np.multiply(u, work, out=u)
        np.multiply(dflux, scipy.fft.rfft(u), out=out)
    return tables, nonlinear


def _linearized_flow(grid: Grid, dt: float, forcing: Field | None):
    """The linearized tables and a right-hand side for one static forcing.

    The linearized operator's triple (c0, k, w) gives the exactly
    integrated symbol i*xi*(c0 + k|xi|) and the weight of -d_y(w v); the
    projector's parts come from `operators.projector_parts`.  The forcing
    term i*xi*f^ is transformed once; per stage there is one irfft and
    one rfft of -w v.
    """
    if forcing is not None and forcing.grid != grid:
        raise UsageError("forcing lives on a different grid")
    op = SymmetricOperator.linearized(grid)
    xi = grid.rfft_wavenumbers
    tables = _Etdrk4Tables(_real_nyquist(1j * xi * (op.c0 + op.k * np.abs(xi))), dt)
    dxi = _real_nyquist(1j * xi)
    lqpp, qp, norm_sq = projector_parts(grid)
    qp_hat = scipy.fft.rfft(qp)
    neg_w = -op.w
    n = grid.n_points
    dx = grid.spacing
    force = dxi * scipy.fft.rfft(forcing.values) if forcing is not None else 0.0

    def nonlinear(vh, out):
        v = scipy.fft.irfft(vh, n=n)
        coef = dx * float(v @ lqpp) / norm_sq
        np.multiply(neg_w, v, out=v)
        spec = scipy.fft.rfft(v)
        np.multiply(dxi, spec, out=out)
        np.add(out, force, out=out)
        np.multiply(coef, qp_hat, out=spec)
        np.add(out, spec, out=out)
    return tables, nonlinear


def _check_finite(uh, finite, t: float) -> None:
    if not np.isfinite(uh, out=finite).all():
        raise EvolutionError(f"non-finite state after step at t = {t}")


def _kink_term(f_int: float, g_int: float, grid: Grid) -> float:
    """Endpoint term of the box sum for <f, |D| g> on the real line.

    The wavenumber sum is a trapezoid rule for (1/2pi) int |xi| f^ g^* dxi
    with spacing 2pi/L; the kink of |xi| at xi = 0 leaves the
    Euler-Maclaurin term pi (int f)(int g) / (3 L^2).
    """
    return np.pi * f_int * g_int / (3.0 * grid.domain_length ** 2)


def invariants(state: EvolutionState) -> InvariantReport:
    """Mass, the first three conserved energies, and the potential-perturbed energy.

    The values approximate the invariants of the flow on the real line.
    Both pairings with H u_x = -|D| u add the |xi|-kink endpoint term of
    ``_kink_term``.  The term depends on the field only through int u and
    int u^2 (and int u is conserved exactly by the periodic flow), so in
    ``energy0`` and ``energy_perturbed`` it is constant in time and the
    energy drift is that of the box sum.
    """
    u = state.field
    ux = derivative(u)
    hux = hilbert(ux)
    u2 = u * u
    m1 = integral(u)
    m2 = integral(u2)
    mass = 0.5 * m2
    e0 = (-0.5 * inner(u, hux) + 0.5 * _kink_term(m1, m1, u.grid)
          - integral(u2 * u) / 6.0)
    e1 = (0.5 * inner(ux, ux)
          + 0.375 * (inner(u2, hux) - _kink_term(m2, m1, u.grid))
          - integral(u2 * u2) / 16.0)
    if state.potential is not None:
        v = state.potential.sampled_potential(u.grid.nodes)
        ep = e0 + 0.5 * inner(Field(u.grid, v), u2)
    else:
        ep = e0
    return InvariantReport(mass=mass, energy0=e0, energy1=e1, energy_perturbed=ep)


@dataclass
class EvolveResult:
    states: list            # snapshot EvolutionStates (including t = 0)
    times: np.ndarray


def _step_count(t_end: float, dt: float, snapshot_stride: int = 1) -> int:
    """Steps of a run to t_end, once t_end and dt are finite and positive,
    t_end a multiple of dt by at least one step and the snapshot stride an
    integer of at least 1."""
    require_positive("dt", dt)
    require_positive("t_end", t_end)
    require_count("snapshot_stride", snapshot_stride)
    n_steps = int(round(t_end / dt))
    if n_steps < 1 or abs(n_steps * dt - t_end) > 1e-9 * max(1.0, t_end):
        raise ConfigurationError(
            f"t_end must be a whole number (at least one) of steps dt = {dt}, got {t_end}")
    return n_steps


def _snapshot_intervals(t_end: float, dt: float, snapshot_stride: int) -> int:
    """Snapshot intervals dt * snapshot_stride in a run to t_end, once
    `_step_count` passes and the steps are a whole number of intervals;
    otherwise the run's last state would close a shorter one."""
    intervals, rest = divmod(_step_count(t_end, dt, snapshot_stride), snapshot_stride)
    if rest:
        raise ConfigurationError(f"t_end must be a multiple of the snapshot interval "
                                 f"{dt * snapshot_stride:g}, got {t_end}")
    return intervals


def _evolve(initial: EvolutionState, n_steps: int, dt: float, snapshot_stride: int,
            flow, guard=None):
    """Take n_steps steps from `initial`, yielding it, every stride-th state
    and the last, each as the step loop reaches it.

    The state stays in Fourier space between snapshots; a snapshot is one
    irfft, timed t0 + k*dt after k steps, then passed to `guard` together
    with its spectrum.  A generator body runs only at the first `next`, so
    callers check their inputs before they build it.
    """
    tables, nonlinear = flow
    grid = initial.field.grid
    t0 = initial.time
    yield initial
    uh = scipy.fft.rfft(initial.field.values)
    out = np.empty_like(uh)
    stages = np.empty((9,) + uh.shape, dtype=uh.dtype)
    finite = np.empty(uh.shape, dtype=bool)
    for k in range(1, n_steps + 1):
        tables.step_spectrum(uh, out, nonlinear, stages)
        uh, out = out, uh
        _check_finite(uh, finite, t0 + (k - 1) * dt)
        if k % snapshot_stride == 0 or k == n_steps:
            state = EvolutionState(t0 + k * dt,
                                   Field(grid, scipy.fft.irfft(uh, n=grid.n_points)),
                                   initial.potential)
            if guard is not None:
                guard(state, uh)
            yield state


def _collect(snapshots) -> EvolveResult:
    states = list(snapshots)
    return EvolveResult(states=states, times=np.array([s.time for s in states]))


def _pbo_snapshots(initial: EvolutionState, t_end: float, dt: float,
                   snapshot_stride: int = 1):
    """The snapshot stream of `evolve_pbo`, its inputs checked and its
    guards built before the first step."""
    n_steps = _step_count(t_end, dt, snapshot_stride)
    grid = initial.field.grid
    guard_norm = BLOWUP_FACTOR * max(sobolev_norm(initial.field, 0.5), 1e-12)
    quarter = grid.domain_length / 4.0

    def guard(state, uh):
        if _spectrum_sobolev_norm(uh, grid, 0.5) > guard_norm:
            raise EvolutionError(f"blow-up guard tripped at t = {state.time:.6g}")
        peak = grid.nodes[int(np.argmax(state.field.values))]
        if abs(peak) > quarter:
            raise EvolutionError(
                f"seam guard tripped at t = {state.time:.6g}: peak at {peak:.3g}")

    return _evolve(initial, n_steps, dt, snapshot_stride,
                   _pbo_flow(grid, dt, initial.potential), guard)


def evolve_pbo(initial: EvolutionState, t_end: float, dt: float,
               snapshot_stride: int = 1) -> EvolveResult:
    """ETDRK4 run of u_t = d_x(-H u_x + V u - u^2/2) to t_end, with
    snapshots every `snapshot_stride` steps.

    Aborts with EvolutionError at a snapshot whose H^{1/2} norm exceeds
    BLOWUP_FACTOR times its initial value (the blow-up guard), or whose
    field maximum lies within L/4 of the periodic seam (the seam guard).
    """
    return _collect(_pbo_snapshots(initial, t_end, dt, snapshot_stride))


def _linearized_snapshots(initial: EvolutionState, t_end: float, dt: float,
                          forcing: Field | None = None, snapshot_stride: int = 1):
    """The snapshot stream of `evolve_linearized`, its inputs checked first."""
    n_steps = _step_count(t_end, dt, snapshot_stride)
    return _evolve(initial, n_steps, dt, snapshot_stride,
                   _linearized_flow(initial.field.grid, dt, forcing))


def evolve_linearized(initial: EvolutionState, t_end: float, dt: float,
                      forcing: Field | None = None,
                      snapshot_stride: int = 1) -> EvolveResult:
    """ETDRK4 run of v_t = P v + d_y((linearized op) v) + d_y f, f static.

    The multiplier part i*xi*(1+|xi|) is integrated exactly; -d_y(q v),
    the rank-one drift projector, and the forcing make up the bounded
    remainder.
    """
    return _collect(_linearized_snapshots(initial, t_end, dt, forcing, snapshot_stride))


# ---------------------------------------------------------------------------
# checkpoint format: magic "BOSL1", version u32, N u64, L f64, t f64,
# then N little-endian f64 samples
# ---------------------------------------------------------------------------

_MAGIC = b"BOSL1"
_HEADER = struct.Struct("<5sIQdd")
CHECKPOINT_VERSION = 1


def write_checkpoint(path, state: EvolutionState) -> None:
    g = state.field.grid
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(_MAGIC, CHECKPOINT_VERSION, g.n_points,
                              g.domain_length, state.time))
        fh.write(state.field.values.astype("<f8").tobytes())


def read_checkpoint(path) -> EvolutionState:
    """The state a checkpoint holds, with ``potential=None``: the format
    stores no potential.

    A header whose magic or version is not this format's, a payload that
    is not exactly the header's N samples (8 N bytes, no more and no
    less), or a time that is not finite is a UsageError; an N or L that
    no grid takes is the ConfigurationError of `Grid`.
    """
    with open(path, "rb") as fh:
        payload = os.fstat(fh.fileno()).st_size - _HEADER.size
        if payload < 0:
            raise UsageError(f"checkpoint {path} truncated")
        magic, version, n, length, t = _HEADER.unpack(fh.read(_HEADER.size))
        if magic != _MAGIC:
            raise UsageError(f"checkpoint {path} has bad magic {magic!r}")
        if version != CHECKPOINT_VERSION:
            raise UsageError(f"unsupported checkpoint version {version}")
        if payload != 8 * n:
            raise UsageError(f"checkpoint {path} has {payload} sample bytes, not 8 N = {8 * n}")
        if not np.isfinite(t):
            raise UsageError(f"checkpoint {path} has non-finite time {t}")
        data = np.frombuffer(fh.read(payload), dtype="<f8")
    grid = Grid(int(n), float(length))
    return EvolutionState(float(t), Field(grid, data.astype(float)))
