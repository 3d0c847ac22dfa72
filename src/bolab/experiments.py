"""Experiment orchestration: the main-theorem sweep, parameter-ODE
residual tables, and reproducible reporting.

A sweep member evolves the potential-perturbed flow from a soliton plus
a Gaussian perturbation of H^{1/2} size delta_scale h^{3/2}, extracts
the symplectic parameter track, compares it against the corrected
parameter ODE, and reports envelope-normalized remainder norms.  Orders
in h come from `trajectories.fit_scaling_exponent`, the fit the Gronwall
sweep uses too: least-squares slopes in log-log coordinates with their
standard errors, or None where no order is defined.  Residual integrals
are ``np.trapezoid`` in time.  Raw CSVs accompany every summary record.

Config files are flat ``key = value`` text (UTF-8, ``#`` comments,
comma-separated lists).
"""

from __future__ import annotations

import json
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np
from scipy.interpolate import CubicSpline

from .errors import (ConfigurationError, ExperimentError, UsageError, require_count,
                     require_positive)
from .evolution import EvolutionState, _pbo_snapshots
from .grid import Field, Grid, sobolev_norm
from .modulation import ParameterTrack, _fits, _track_record, _write_track_rows
from .potential import PotentialSpec
from .soliton import SolitonParams, soliton_field
from .trajectories import (SCALE_STOP_HIGH, SCALE_STOP_LOW, convert_frame, exact_rhs,
                           fit_scaling_exponent, integrate_exact, integrate_reference,
                           write_trajectory_csv)

SCHEMA_VERSION = 1


@dataclass
class ExperimentConfig:
    n_points: int = 8192
    domain_length: float = 1024.0
    dt: float = 0.01
    snapshot_stride: int = 10
    mu0: float = 1.0                  # envelope rate used for normalization
    h_list: tuple = (0.1, 0.05, 0.025)
    bump_amplitude: float = 0.2
    bump_width: float = 1.0
    delta_scale: float = 1.0          # delta = delta_scale * h^{3/2}
    out_dir: str = "runs"
    threads: int = 1

    def __post_init__(self):
        Grid.require_size(self.n_points)
        if not self.h_list:
            raise ConfigurationError("h_list must be nonempty")
        for h in self.h_list:
            if not (0 < h < 1):
                raise ConfigurationError(
                    f"h_list values must lie in (0, 1), got {h}: the horizon "
                    f"ln(1/h)/(4 mu0 h) is zero at h = 1")
        tags = [_member_tag(h) for h in self.h_list]
        if len(set(tags)) < len(tags):
            # two members with one tag would write the same CSV files
            raise ConfigurationError(
                f"h values must be distinct to 6 significant digits, got {self.h_list}")
        for name in ("dt", "domain_length", "bump_width", "mu0", "delta_scale"):
            require_positive(name, getattr(self, name))
        if not math.isfinite(self.bump_amplitude):
            raise ConfigurationError(
                f"bump_amplitude must be finite, got {self.bump_amplitude}")
        require_count("snapshot_stride", self.snapshot_stride)
        require_count("threads", self.threads)


# each key's parser is its default's type; h_list is a comma-separated list
_CONFIG_TYPES = {f.name: type(f.default) for f in fields(ExperimentConfig)
                 if f.name != "h_list"}


def parse_config(text: str) -> ExperimentConfig:
    """Parse flat key = value config text into an ExperimentConfig.

    Each key may be set once; a second line for it is an error.
    """
    kwargs, first_line = {}, {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(f"config line {lineno}: expected key = value")
        key, val = (part.strip() for part in line.split("=", 1))
        if key in first_line:
            raise ConfigurationError(f"config line {lineno}: key {key!r} is already "
                                     f"set on line {first_line[key]}")
        first_line[key] = lineno
        try:
            if key == "h_list":
                kwargs[key] = tuple(float(v) for v in val.split(",") if v.strip())
            elif key in _CONFIG_TYPES:
                kwargs[key] = _CONFIG_TYPES[key](val)
            else:
                raise ConfigurationError(f"config line {lineno}: unknown key {key!r}")
        except ValueError:
            raise ConfigurationError(
                f"config line {lineno}: cannot read {key} = {val!r}") from None
    return ExperimentConfig(**kwargs)


def load_config(path) -> ExperimentConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigurationError(f"config {path} is not UTF-8 text: {exc.reason} "
                                 f"at byte {exc.start}") from None
    return parse_config(text)


# ---------------------------------------------------------------------------
# parameter-ODE residuals
# ---------------------------------------------------------------------------

@dataclass
class ResidualTable:
    times: np.ndarray
    residual_a: np.ndarray
    residual_c: np.ndarray
    integral_a: float           # time integral of |residual_a|
    integral_c: float


def _central_derivative_4(values: np.ndarray, dt: float) -> np.ndarray:
    v = values
    return (-v[4:] + 8.0 * v[3:-1] - 8.0 * v[1:-3] + v[:-4]) / (12.0 * dt)


def ode_residuals(track: ParameterTrack, pot: PotentialSpec) -> ResidualTable:
    """Residuals of the corrected parameter ODEs along a measured track.

    Fourth-order central differences supply (da/dt, dc/dt); the residuals
    subtract the corrected right-hand side (F_A, F_C) of
    `trajectories.exact_rhs`, taken to the fast frame a = A/h, t = s/h:

        a' = F_A(ha, c) = c - W(ha) + (h^2/2) W''(ha)/c^2
        c' = h F_C(ha, c) = h c W'(ha) + (h^3/2) W'''(ha)/c.

    `_window` keeps the samples up to a slow time s = h t.
    """
    return _residuals(track.times, track.a, track.c, pot)


def _residuals(t, a, c, pot: PotentialSpec) -> ResidualTable:
    """The full `ode_residuals` table of the samples (t, a, c)."""
    if len(t) < 5:
        raise UsageError("need at least 5 track samples for 4th-order differences")
    dts = np.diff(t)
    if np.max(np.abs(dts - dts[0])) > 1e-9 * max(dts[0], 1e-300):
        raise UsageError("track samples must be uniformly spaced in time")
    dt = float(dts[0])
    adot = _central_derivative_4(a, dt)
    cdot = _central_derivative_4(c, dt)
    h = pot.h
    rhs_a, rhs_c = exact_rhs(pot)(h * a[2:-2], c[2:-2])
    return _table(t[2:-2], adot - rhs_a, cdot - h * rhs_c)


def _table(times, res_a, res_c) -> ResidualTable:
    def integral(res):
        return float(np.trapezoid(np.abs(res), times))
    return ResidualTable(times=times, residual_a=res_a, residual_c=res_c,
                         integral_a=integral(res_a), integral_c=integral(res_c))


def _window(table: ResidualTable, h: float, s_max: float) -> ResidualTable:
    """The samples of `table` at slow time s = h t <= s_max, integrated anew."""
    keep = h * table.times <= s_max
    return _table(table.times[keep], table.residual_a[keep], table.residual_c[keep])


# ---------------------------------------------------------------------------
# theorem sweep
# ---------------------------------------------------------------------------

def build_perturbation(grid: Grid, delta: float) -> Field:
    """The Gaussian exp(-(x/4)^2) scaled to H^{1/2} norm exactly delta."""
    raw = Field(grid, np.exp(-(grid.nodes / 4.0) ** 2))
    return (delta / sobolev_norm(raw, 0.5)) * raw


@dataclass
class SweepMember:
    h: float
    t_end: float
    sup_envelope_ratio: float       # sup_t ||u - q_{a_hat, c_hat}||_{H^1/2} / e^{mu0 h t}
    sup_envelope_time: float        # the first snapshot time where that sup is reached
    envelope_ratio_t0: float        # the ratio at t = 0, where the seed sits
    sup_local_time_norm: float      # sup_n of the time-L2 unit-cell norm of the remainder
    residual_a_integral: float      # over the sweep's window s = h t <= residual_s_max
    residual_c_integral: float
    residual_c_integral_full: float     # over the member's own horizon; not gated
    scale_range: tuple
    wall_seconds: float
    csv_track: str
    csv_trajectory: str


@dataclass
class RunSummary:
    schema_version: int
    config: dict
    members: list
    failures: list
    residual_s_max: float           # common window of the residual integrals
    fitted_remainder_order: float | None
    fitted_remainder_stderr: float | None
    fitted_residual_c_order: float | None
    fitted_residual_c_stderr: float | None
    wall_seconds: float

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)


def _horizon(cfg: ExperimentConfig, pot: PotentialSpec, h: float) -> float:
    """T0 = min(ln(1/h)/(4 mu0 h), S0/h), rounded down to a snapshot multiple."""
    t0 = math.log(1.0 / h) / (4.0 * cfg.mu0 * h)
    # A stop event after h*T0 cannot lower min(T0, stop/h): integrate to h*T0 only.
    ref = integrate_reference(pot, s_end=h * t0 * (1.0 + 1e-12), ds=1e-3)
    if ref.stop_time is not None:
        t0 = min(t0, ref.stop_time / h)
    dt_snap = cfg.dt * cfg.snapshot_stride
    return max(dt_snap, math.floor(t0 / dt_snap) * dt_snap)


def _member_tag(h: float) -> str:
    """The h tag of a member's CSV names: h0p05 for h = 0.05."""
    return f"h{h:g}".replace(".", "p")


def _run_member(cfg: ExperimentConfig, h: float, t_end: float, out_dir: Path):
    """One sweep member run to its horizon `t_end`, read in one pass.

    Each snapshot is fitted as the evolution yields it, compared with the
    corrected trajectory (seeded from the first fit), and reduced to
    scalars: its envelope ratio, its track-CSV row and its remainder's
    cell masses.  The row and the cell norms are the fit's one
    `modulation._track_record`; the masses are the squared norms.  The
    first fault in time order stops the member.  Returns the member,
    whose residual integrals cover its whole horizon, and its residual
    table.
    """
    start = time.perf_counter()
    grid = Grid(cfg.n_points, cfg.domain_length)
    pot = PotentialSpec.bump(h, cfg.bump_amplitude, cfg.bump_width)
    delta = cfg.delta_scale * h ** 1.5
    q0 = soliton_field(grid, SolitonParams(0.0, 1.0))
    u0 = q0 + build_perturbation(grid, delta)
    snapshots = _pbo_snapshots(EvolutionState(0.0, u0, pot), t_end, cfg.dt,
                               cfg.snapshot_stride)
    mu0h = cfg.mu0 * h
    times, a, c, ratios, rows = [], [], [], [], []
    for k, (t, d) in enumerate(_fits(snapshots, "symplectic", SolitonParams(0.0, 1.0))):
        times.append(t)
        a.append(d.params.a)
        c.append(d.params.c)
        if not SCALE_STOP_LOW <= d.params.c <= SCALE_STOP_HIGH:
            raise ExperimentError(f"scale parameter left the window [{SCALE_STOP_LOW:g}, "
                                  f"{SCALE_STOP_HIGH:g}]: range ({min(c):.3g}, {max(c):.3g})")
        row, norms = _track_record(t, d)
        rows.append(row)
        # the cell masses' time trapezoid, end weights 1/2, added in time order
        sq = norms ** 2
        if k == 0:
            cell_mass = 0.5 * sq
            # the corrected parameter trajectory from the first fit
            ex = convert_frame(integrate_exact(pot, s_end=h * t_end * (1.0 + 1e-12),
                                               ds=1e-3, y0=(h * a[0], c[0])), h)
            a_hat = CubicSpline(ex.times, ex.positions)
            c_hat = CubicSpline(ex.times, ex.scales)
        elif k > 1:
            cell_mass += last_sq
        last_sq = sq
        qhat = soliton_field(grid, SolitonParams(float(a_hat(t)), float(c_hat(t))))
        ratios.append(sobolev_norm(d.field - qhat, 0.5) / math.exp(mu0h * t))
    sup_local = float(np.sqrt(np.max((cell_mass + 0.5 * last_sq) * (times[1] - times[0]))))

    table = _residuals(np.array(times), np.array(a), np.array(c), pot)
    tag = _member_tag(h)
    csv_track = str(out_dir / f"track_{tag}.csv")
    csv_traj = str(out_dir / f"trajectory_{tag}.csv")
    _write_track_rows(csv_track, rows)
    write_trajectory_csv(csv_traj, ex)
    k_sup = int(np.argmax(ratios))
    return SweepMember(
        h=h, t_end=t_end, sup_envelope_ratio=ratios[k_sup],
        sup_envelope_time=times[k_sup], envelope_ratio_t0=ratios[0],
        sup_local_time_norm=sup_local,
        residual_a_integral=table.integral_a,
        residual_c_integral=table.integral_c,
        residual_c_integral_full=table.integral_c,
        scale_range=(min(c), max(c)),
        wall_seconds=time.perf_counter() - start,
        csv_track=csv_track, csv_trajectory=csv_traj), table


def run_theorem_sweep(cfg: ExperimentConfig) -> RunSummary:
    """Sweep the h list, fit the remainder and residual orders, write reports.

    Each member's horizon T_h is computed once, before any member runs.
    Once the members finish, the residual integrals of every successful
    member are taken from its one residual table over one window of slow
    time, s = h t <= s_max, with s_max the least reach h t of the last
    residual sample (T_h - 2 dt_snap) over the members that succeeded, so
    the order fit compares the same stretch of W at each h and a failed
    member sets nothing.  Individual member failures are recorded and the
    sweep continues; an empty successful set raises ExperimentError.
    """
    start = time.perf_counter()
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    horizons = [_horizon(cfg, PotentialSpec.bump(h, cfg.bump_amplitude, cfg.bump_width), h)
                for h in cfg.h_list]
    runs = []
    failures = []
    with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
        futures = [(h, pool.submit(_run_member, cfg, h, t_end, out_dir))
                   for h, t_end in zip(cfg.h_list, horizons)]
        for h, future in futures:
            try:
                runs.append(future.result())
            except Exception as exc:       # member failures are data
                failures.append({"h": h, "error": f"{type(exc).__name__}: {exc}"})
    if not runs:
        raise ExperimentError(f"all sweep members failed: {failures}")
    s_max = min(m.h * float(table.times[-1]) for m, table in runs)
    for m, table in runs:
        window = _window(table, m.h, s_max)
        m.residual_a_integral, m.residual_c_integral = window.integral_a, window.integral_c
    members = [m for m, _ in runs]
    rem_order, rem_err = fit_scaling_exponent((m.h, m.sup_envelope_ratio) for m in members)
    res_order, res_err = fit_scaling_exponent((m.h, m.residual_c_integral) for m in members)
    summary = RunSummary(
        schema_version=SCHEMA_VERSION,
        config={**asdict(cfg), "h_list": list(cfg.h_list)},
        members=members,
        failures=failures,
        residual_s_max=s_max,
        fitted_remainder_order=rem_order,
        fitted_remainder_stderr=rem_err,
        fitted_residual_c_order=res_order,
        fitted_residual_c_stderr=res_err,
        wall_seconds=time.perf_counter() - start,
    )
    (out_dir / "summary.json").write_text(summary.to_json(), encoding="utf-8")
    return summary
