"""Time integration: the potential-perturbed flow, the free flow, and the
linearized flow with forcing.

The stiff dispersive part is integrated exactly in Fourier space and the
bounded remainder by a fourth-order exponential integrator (ETDRK4 with
contour-integral coefficients; the contour is the full unit circle
around each scaled symbol value, which is required for purely imaginary
symbols).  The quadratic nonlinearity is dealiased by the 2/3 rule; the
linearized equation has no quadratic term and runs undealiased so that
exact stationary states stay stationary to the quadrature floor.

Both flows run through one driver, ``_evolve``.  It transforms the
initial field once and keeps the ETDRK4 state as its rfft spectrum from
the first step to the last; a snapshot is one irfft into a ``Field``
(time t0 + k*dt after k steps), and the finiteness check after every
step reads the spectrum.  Each of the four stages of a step makes two
FFT calls, so a step makes eight:

* pBO: one irfft of the stage spectrum, then one rfft of u^2 or, with a
  potential, one batched rfft of the 2 x N array [u^2, V u].  The
  factor -1/2, the 2/3-rule mask and i*xi are one precomputed multiplier.
* linearized: one irfft, then one rfft of q v; the forcing term i*xi*f^
  is transformed once per run.

The coefficient tables are read-only and shared: ``functools.lru_cache``
holds them per (grid, dt) and, for pBO, per potential (``PotentialSpec``
compares by its key).  The right-hand side and its work buffer belong to
one ``evolve_*`` or ``step_*`` call, so concurrent runs share no
writable state.  ``step_pbo`` and ``step_linearized`` are one step of
the same stepper, entered and left through the physical field.
"""

from __future__ import annotations

import functools
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, EvolutionError, UsageError
from .grid import Field, Grid, hilbert, derivative, inner, l2_norm, sobolev_norm, integral
from .potential import PotentialSpec
from .soliton import profile, profile_derivative
from .operators import projector_weight_field

_PI4 = 4.0 * np.pi


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


def _read_only(*tables) -> None:
    """Freeze cached tables: every caller of the cache gets the same arrays."""
    for table in tables:
        if table is not None:
            table.setflags(write=False)


class _Etdrk4Tables:
    """Read-only ETDRK4 coefficients for u' = symbol*u + N(u) on one (grid, dt).

    Full-circle contour quadrature evaluates the phi-function
    combinations stably near symbol = 0.
    """

    def __init__(self, symbol: np.ndarray, dt: float, n_contour: int = 64):
        r = np.exp(2j * np.pi * (np.arange(n_contour) + 0.5) / n_contour)
        lr = dt * symbol[:, None] + r[None, :]
        elr = np.exp(lr)
        self.e_full = np.exp(dt * symbol)
        self.e_half = np.exp(0.5 * dt * symbol)
        self.stage = dt * ((np.exp(lr / 2) - 1.0) / lr).mean(1)
        self.w1 = dt * ((-4.0 - lr + elr * (4.0 - 3.0 * lr + lr ** 2)) / lr ** 3).mean(1)
        self.w2 = dt * ((2.0 + lr + elr * (-2.0 + lr)) / lr ** 3).mean(1)
        self.w3 = dt * ((-4.0 - 3.0 * lr - lr ** 2 + elr * (4.0 - lr)) / lr ** 3).mean(1)
        _read_only(self.e_full, self.e_half, self.stage, self.w1, self.w2, self.w3)

    def step_spectrum(self, uh, nonlinear):
        """One ETDRK4 step of the spectrum uh; four calls of `nonlinear`."""
        n0 = nonlinear(uh)
        eu = self.e_half * uh
        a = eu + self.stage * n0
        na = nonlinear(a)
        b = eu + self.stage * na
        nb = nonlinear(b)
        c = self.e_half * a + self.stage * (2.0 * nb - n0)
        nc = nonlinear(c)
        return (self.e_full * uh + self.w1 * n0 + 2.0 * self.w2 * (na + nb)
                + self.w3 * nc)


def _odd_derivative_symbol(grid: Grid) -> np.ndarray:
    """i*xi on the rfft half-axis, zeroed on the Nyquist mode."""
    dxi = 1j * grid.rfft_wavenumbers
    dxi[-1] = 0.0
    return dxi


@functools.lru_cache(maxsize=16)
def _pbo_tables(grid: Grid, dt: float, pot: PotentialSpec | None):
    """(tables, quadratic multiplier, i*xi, V samples or None) of the pBO flow.

    The quadratic multiplier -(1/2) * (2/3-rule mask) * i*xi folds the
    dealiasing into the derivative.
    """
    xi = grid.rfft_wavenumbers
    symbol = 1j * xi * np.abs(xi)
    symbol[-1] = 0.0
    dxi = _odd_derivative_symbol(grid)
    quad = np.where(xi <= (2.0 / 3.0) * xi[-1], -0.5 * dxi, 0.0)
    v = pot.sampled_potential(grid.nodes) if pot is not None else None
    _read_only(dxi, quad, v)
    return _Etdrk4Tables(symbol, dt), quad, dxi, v


def _pbo_flow(grid: Grid, dt: float, pot: PotentialSpec | None):
    """The pBO tables and a right-hand side that owns its work buffer.

    Per stage: one irfft, then one rfft of u^2, or one batched rfft of
    the 2 x N array [u^2, V u] when there is a potential.
    """
    tables, quad, dxi, v = _pbo_tables(grid, dt, pot)
    n = grid.n_points
    if v is None:
        def nonlinear(uh):
            u = np.fft.irfft(uh, n=n)
            return quad * np.fft.rfft(u * u)
        return tables, nonlinear
    work = np.empty((2, n))

    def nonlinear(uh):
        u = np.fft.irfft(uh, n=n)
        np.multiply(u, u, out=work[0])
        np.multiply(v, u, out=work[1])
        spec = np.fft.rfft(work)
        return quad * spec[0] + dxi * spec[1]
    return tables, nonlinear


@functools.lru_cache(maxsize=16)
def _linearized_tables(grid: Grid, dt: float):
    """(tables, i*xi, q, rfft(q'), linearized-op q'') of the linearized flow."""
    xi = grid.rfft_wavenumbers
    symbol = 1j * xi * (1.0 + np.abs(xi))
    symbol[-1] = 0.0
    dxi = _odd_derivative_symbol(grid)
    q = profile(grid.nodes)
    qp_hat = np.fft.rfft(profile_derivative(grid.nodes))
    lqpp = projector_weight_field(grid).values
    _read_only(dxi, q, qp_hat)
    return _Etdrk4Tables(symbol, dt), dxi, q, qp_hat, lqpp


def _linearized_flow(grid: Grid, dt: float, forcing: Field | None):
    """The linearized tables and a right-hand side for one static forcing.

    The forcing term i*xi*f^ is transformed once; per stage there is one
    irfft and one rfft of q v.
    """
    if forcing is not None and forcing.grid != grid:
        raise UsageError("forcing lives on a different grid")
    tables, dxi, q, qp_hat, lqpp = _linearized_tables(grid, dt)
    n = grid.n_points
    dx = grid.spacing
    force = dxi * np.fft.rfft(forcing.values) if forcing is not None else 0.0

    def nonlinear(vh):
        v = np.fft.irfft(vh, n=n)
        coef = dx * float(v @ lqpp) / _PI4
        return dxi * np.fft.rfft(-q * v) + force + coef * qp_hat
    return tables, nonlinear


def _check_dt(dt: float) -> None:
    if not (dt > 0):
        raise ConfigurationError(f"dt must be positive, got {dt}")


def _check_finite(uh, t: float) -> None:
    if not np.isfinite(uh).all():
        raise EvolutionError(f"non-finite state after step at t = {t}")


def _one_step(state: EvolutionState, dt: float, flow) -> EvolutionState:
    tables, nonlinear = flow
    grid = state.field.grid
    uh = tables.step_spectrum(np.fft.rfft(state.field.values), nonlinear)
    _check_finite(uh, state.time)
    return EvolutionState(state.time + dt, Field(grid, np.fft.irfft(uh, n=grid.n_points)),
                          state.potential)


def step_pbo(state: EvolutionState, dt: float) -> EvolutionState:
    """Advance u_t = d_x(-H u_x + V u - u^2/2) by one ETDRK4 step."""
    _check_dt(dt)
    return _one_step(state, dt, _pbo_flow(state.field.grid, dt, state.potential))


def step_linearized(state: EvolutionState, dt: float,
                    forcing: Field | None = None) -> EvolutionState:
    """Advance v_t = P v + d_y((linearized op) v) + d_y f by one step.

    The multiplier part i*xi*(1+|xi|) is integrated exactly; -d_y(q v),
    the rank-one drift projector, and the forcing make up the bounded
    remainder.  The forcing is held fixed across the step's stages.
    """
    _check_dt(dt)
    return _one_step(state, dt, _linearized_flow(state.field.grid, dt, forcing))


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
    aborted: bool = False
    abort_reason: str = ""


def _step_count(t_end: float, dt: float) -> int:
    _check_dt(dt)
    n_steps = int(round(t_end / dt))
    if abs(n_steps * dt - t_end) > 1e-9 * max(1.0, t_end):
        raise ConfigurationError("t_end must be an integer multiple of dt")
    return n_steps


def _evolve(initial: EvolutionState, n_steps: int, dt: float, snapshot_stride: int,
            flow, guard=None) -> EvolveResult:
    """Take n_steps steps from `initial`, keeping every stride-th state and the last.

    The state stays in Fourier space between snapshots; a snapshot is one
    irfft, timed t0 + k*dt after k steps, then passed to `guard`.
    """
    tables, nonlinear = flow
    grid = initial.field.grid
    t0 = initial.time
    states = [initial]
    uh = np.fft.rfft(initial.field.values)
    for k in range(1, n_steps + 1):
        uh = tables.step_spectrum(uh, nonlinear)
        _check_finite(uh, t0 + (k - 1) * dt)
        if k % snapshot_stride == 0 or k == n_steps:
            state = EvolutionState(t0 + k * dt,
                                   Field(grid, np.fft.irfft(uh, n=grid.n_points)),
                                   initial.potential)
            if guard is not None:
                guard(state)
            states.append(state)
    return EvolveResult(states=states, times=np.array([s.time for s in states]))


def evolve_pbo(initial: EvolutionState, t_end: float, dt: float,
               snapshot_stride: int = 1, blowup_factor: float = 10.0,
               seam_guard: bool = True) -> EvolveResult:
    """ETDRK4 run of the pBO flow to t_end, with snapshots every `snapshot_stride` steps.

    Aborts with EvolutionError if the H^{1/2} norm exceeds blowup_factor
    times its initial value, or (seam_guard) if the field maximum drifts
    within L/4 of the periodic seam.
    """
    n_steps = _step_count(t_end, dt)
    grid = initial.field.grid
    guard_norm = blowup_factor * max(sobolev_norm(initial.field, 0.5), 1e-12)
    quarter = grid.domain_length / 4.0

    def guard(state):
        if sobolev_norm(state.field, 0.5) > guard_norm:
            raise EvolutionError(f"blow-up guard tripped at t = {state.time:.6g}")
        if seam_guard:
            peak = grid.nodes[int(np.argmax(state.field.values))]
            if abs(peak) > quarter:
                raise EvolutionError(
                    f"seam guard tripped at t = {state.time:.6g}: peak at {peak:.3g}")

    return _evolve(initial, n_steps, dt, snapshot_stride,
                   _pbo_flow(grid, dt, initial.potential), guard)


def evolve_linearized(initial: EvolutionState, t_end: float, dt: float,
                      forcing: Field | None = None,
                      snapshot_stride: int = 1) -> EvolveResult:
    """ETDRK4 run of the linearized flow with a static forcing profile."""
    n_steps = _step_count(t_end, dt)
    return _evolve(initial, n_steps, dt, snapshot_stride,
                   _linearized_flow(initial.field.grid, dt, forcing))


def reflect(f: Field) -> Field:
    """Sampled f(-x); the node at -L/2 is its own mirror image."""
    n = f.grid.n_points
    idx = (n - np.arange(n)) % n
    return Field(f.grid, f.values[idx])


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
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        if len(head) != _HEADER.size:
            raise UsageError(f"checkpoint {path} truncated")
        magic, version, n, length, t = _HEADER.unpack(head)
        if magic != _MAGIC:
            raise UsageError(f"checkpoint {path} has bad magic {magic!r}")
        if version != CHECKPOINT_VERSION:
            raise UsageError(f"unsupported checkpoint version {version}")
        data = np.frombuffer(fh.read(8 * n), dtype="<f8")
        if data.size != n:
            raise UsageError(f"checkpoint {path} truncated")
    grid = Grid(int(n), float(length))
    return EvolutionState(float(t), Field(grid, data.astype(float)))
