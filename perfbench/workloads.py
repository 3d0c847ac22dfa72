"""The three benchmark workloads: inputs, timed body and checks.

Each workload is a class with `setup` (build the inputs; timed as
set-up), `body` (the timed computation, chaining public bolab calls)
and `checks` (run after the body).  Every parameter is written out here
rather than read from bolab's defaults, so that a change of defaults
does not change what is measured.  `SMOKE` shrinks each workload for
the benchmark's own smoke test (`run.py --smoke`); otherwise `FULL` runs.

A seed shifts the centres of the generated input profiles by less than
one unit; the program receives only the generated fields.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np
from scipy.interpolate import CubicSpline

from bolab import (errors, evolution, experiments, grid as bgrid, modulation,
                   potential, soliton, trajectories, virial)

FULL = {
    "member-h0.05": dict(n_points=8192, domain_length=1024.0, dt=0.01,
                         snapshot_stride=10, h=0.05, bump_amplitude=0.2,
                         bump_width=1.0, mu0=1.0, delta_scale=1.0,
                         gaussian_width=4.0, ds=1e-3, horizon_s_min=4.0,
                         t_cap=None),
    "trajectories": dict(h=0.1, s_end=2.0, h_sweep=(0.2, 0.1, 0.05), ds=1e-3,
                         bump_amplitude=0.2, bump_width=1.0),
    "virial": dict(n_points=8192, domain_length=1024.0, dt=0.01,
                   snapshot_stride=10, t_end=20.0, gammas=(0.05,),
                   y0s=(-50.0, 0.0, 50.0)),
}
SMOKE = {
    "member-h0.05": {**FULL["member-h0.05"], "n_points": 2048,
                     "domain_length": 256.0, "t_cap": 1.0},
    "trajectories": {**FULL["trajectories"], "s_end": 0.2},
    "virial": {**FULL["virial"], "n_points": 2048, "domain_length": 256.0,
               "t_end": 1.0},
}

ENERGY_DRIFT_BOUND = 1e-6
ORTHOGONALITY_BOUND = 1e-6
ORDER_TARGET, ORDER_TOLERANCE = 2.0, 0.2

# Checks that fail on the program as it stands; they count as failed
# operations in every run but do not mark the run's outputs incorrect.
KNOWN_DEFECTS = {
    # track_parameters fits each snapshot from the previous (a, c) without
    # moving the guess; its tube guard trips at snapshot 1.
    "member.track_parameters",
    # write_track_csv writes repr() of numpy scalars: np.float64(...) tokens.
    "member.track_csv_floats",
}


class Check:
    """One correctness check: a name, the measured value, its bound, the outcome."""

    def __init__(self, name, passed, value=None, bound=None, detail=""):
        self.name = name
        self.passed = bool(passed)
        self.value = value
        self.bound = bound
        self.detail = detail

    def as_dict(self):
        return {"name": self.name, "pass": self.passed, "value": self.value,
                "bound": self.bound, "detail": self.detail,
                "known_defect": self.name in KNOWN_DEFECTS}


def seed_shifts(seed: int, count: int):
    """Centre shifts in (-1, 1) drawn from the workload seed."""
    return [float(s) for s in np.random.default_rng(seed).uniform(-1.0, 1.0, count)]


def csv_floats_check(name, path, text_columns=()):
    """Every cell of a CSV, outside its text columns, parses as a float."""
    bad = None
    rows = 0
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        skip = {header.index(c) for c in text_columns}
        for rows, row in enumerate(reader, 1):
            for j, cell in enumerate(row):
                if j in skip:
                    continue
                try:
                    float(cell)
                except ValueError:
                    bad = bad or f"row {rows}, column {header[j]!r}: {cell!r}"
    return Check(name, bad is None and rows > 0, rows, None,
                 bad or f"{rows} rows parse")


def csv_bytes(out_dir: Path) -> int:
    return sum(p.stat().st_size for p in out_dir.iterdir())


# ---------------------------------------------------------------------------
# member-h0.05: one theorem-sweep member, through public calls
# ---------------------------------------------------------------------------

class Member:
    """Mirrors experiments._run_member with the guess moved by c*dt per snapshot."""

    name = "member-h0.05"

    def __init__(self, p, seed):
        self.p = p
        (self.shift,) = seed_shifts(seed, 1)
        self.inputs = {"gaussian_centre": self.shift}

    def setup(self):
        p = self.p
        self.grid = bgrid.Grid(p["n_points"], p["domain_length"])
        self.pot = potential.PotentialSpec.bump(p["h"], p["bump_amplitude"],
                                                p["bump_width"])
        x = self.grid.nodes
        delta = p["delta_scale"] * p["h"] ** 1.5
        raw = bgrid.Field(self.grid,
                          np.exp(-((x - self.shift) / p["gaussian_width"]) ** 2))
        pert = (delta / bgrid.sobolev_norm(raw, 0.5)) * raw
        q0 = soliton.soliton_field(self.grid, soliton.SolitonParams(0.0, 1.0))
        self.u0 = q0 + pert

    def _horizon(self):
        p = self.p
        h = p["h"]
        t0 = math.log(1.0 / h) / (4.0 * p["mu0"] * h)
        ref = trajectories.integrate_reference(
            self.pot, s_end=max(p["horizon_s_min"], 2.0 * h * t0), ds=p["ds"])
        if ref.stop_time is not None:
            t0 = min(t0, ref.stop_time / h)
        if p["t_cap"] is not None:
            t0 = min(t0, p["t_cap"])
        dt_snap = p["dt"] * p["snapshot_stride"]
        return max(dt_snap, math.floor(t0 / dt_snap) * dt_snap)

    def body(self, out_dir: Path):
        p, grid, pot, h = self.p, self.grid, self.pot, self.p["h"]
        t_end = self._horizon()
        res = evolution.evolve_pbo(evolution.EvolutionState(0.0, self.u0, pot),
                                   t_end, p["dt"], snapshot_stride=p["snapshot_stride"])
        self.res = res

        decomps, self.decompose_error = [], None
        a, c, t_prev = 0.0, 1.0, 0.0
        for k, state in enumerate(res.states):
            guess = soliton.SolitonParams(a + c * (state.time - t_prev), c)
            try:
                d = modulation.decompose(state.field, "symplectic", guess)
            except errors.DecompositionError as exc:
                self.decompose_error = f"snapshot {k}: {exc}"
                break
            decomps.append(d)
            a, c, t_prev = d.params.a, d.params.c, state.time
        self.decomps = decomps
        self.science = {"t_end": t_end, "snapshots": len(res.states)}
        if self.decompose_error is not None:
            return

        ex_slow = trajectories.integrate_exact(pot, s_end=h * t_end * (1.0 + 1e-12),
                                               ds=p["ds"])
        ex = trajectories.convert_frame(ex_slow, h)
        a_hat = CubicSpline(ex.times, ex.positions)(res.times)
        c_hat = CubicSpline(ex.times, ex.scales)(res.times)

        mu0h = p["mu0"] * h
        sup_ratio, cell_mass = 0.0, None
        last = len(res.states) - 1
        for k, state in enumerate(res.states):
            qhat = soliton.soliton_field(
                grid, soliton.SolitonParams(float(a_hat[k]), float(c_hat[k])))
            dev = bgrid.sobolev_norm(state.field - qhat, 0.5)
            sup_ratio = max(sup_ratio, dev / math.exp(mu0h * state.time))
            _, cells = bgrid.cell_l2_profile(decomps[k].remainder)
            mass = (1.0 if 0 < k < last else 0.5) * cells ** 2
            cell_mass = mass if cell_mass is None else cell_mass + mass
        dt_snap = float(res.times[1] - res.times[0])

        track = modulation.ParameterTrack(times=res.times, decompositions=decomps)
        resid = experiments.ode_residuals(track, pot)
        modulation.write_track_csv(out_dir / "track.csv", track)
        trajectories.write_trajectory_csv(out_dir / "trajectory.csv", ex)
        self.science.update(
            sup_envelope_ratio=sup_ratio,
            sup_local_time_norm=float(np.sqrt(np.max(cell_mass * dt_snap))),
            residual_a_integral=resid.integral_a,
            residual_c_integral=resid.integral_c,
            final_a=decomps[-1].params.a, final_c=decomps[-1].params.c)

    def checks(self, out_dir: Path):
        states = self.res.states
        inv0 = evolution.invariants(states[0])
        inv1 = evolution.invariants(states[-1])
        drift = (abs(inv1.energy_perturbed - inv0.energy_perturbed)
                 / max(abs(inv0.energy_perturbed), 1e-300))
        # Mass is not conserved under V; it is recorded, not checked.
        self.science["mass_drift"] = abs(inv1.mass - inv0.mass) / abs(inv0.mass)
        self.science["energy_drift"] = drift
        out = [Check("member.energy_drift", drift <= ENERGY_DRIFT_BOUND, drift,
                     ENERGY_DRIFT_BOUND)]

        cs = [d.params.c for d in self.decomps]
        all_fit = self.decompose_error is None
        in_window = all_fit and 0.5 <= min(cs) and max(cs) <= 2.0
        out.append(Check("member.decompose_all", in_window,
                         [min(cs), max(cs)] if cs else None, [0.5, 2.0],
                         self.decompose_error or f"{len(cs)} fits"))

        try:
            modulation.track_parameters(states, "symplectic",
                                        soliton.SolitonParams(0.0, 1.0))
            out.append(Check("member.track_parameters", True))
        except errors.BolabError as exc:
            out.append(Check("member.track_parameters", False,
                             detail=f"{type(exc).__name__}: {exc}"))

        for name, fname in (("member.track_csv_floats", "track.csv"),
                            ("member.trajectory_csv_floats", "trajectory.csv")):
            path = out_dir / fname
            if path.exists():
                text = ("kind", "frame") if fname == "trajectory.csv" else ()
                out.append(csv_floats_check(name, path, text))
            else:
                out.append(Check(name, False, detail="not written"))
        return out


# ---------------------------------------------------------------------------
# trajectories: the `bolab trajectories` computation
# ---------------------------------------------------------------------------

class Trajectories:
    name = "trajectories"

    def __init__(self, p, seed):
        self.p = p
        self.inputs = {}            # the scalar ODEs take no seeded input

    def setup(self):
        p = self.p
        self.pot = potential.PotentialSpec.bump(p["h"], p["bump_amplitude"],
                                                p["bump_width"])

    def _factory(self, h):
        return potential.PotentialSpec.bump(h, self.p["bump_amplitude"],
                                            self.p["bump_width"])

    def body(self, out_dir: Path):
        p = self.p
        ref = trajectories.integrate_reference(self.pot, p["s_end"], p["ds"])
        ex = trajectories.integrate_exact(self.pot, p["s_end"], p["ds"])
        trajectories.write_trajectory_csv(out_dir / "reference_slow.csv", ref)
        trajectories.write_trajectory_csv(out_dir / "exact_slow.csv", ex)
        trajectories.write_trajectory_csv(out_dir / "exact_fast.csv",
                                          trajectories.convert_frame(ex, p["h"]))
        self.sweep = trajectories.gronwall_sweep(self._factory, list(p["h_sweep"]),
                                                 p["s_end"], p["ds"])
        self.science = {
            "fitted_order": self.sweep.fitted_order,
            "sup_dev_position": self.sweep.sup_dev_position,
            "sup_dev_scale": self.sweep.sup_dev_scale,
            "per_h": self.sweep.per_h,
        }

    def checks(self, out_dir: Path):
        order = self.sweep.fitted_order
        ok = order is not None and abs(order - ORDER_TARGET) <= ORDER_TOLERANCE
        out = [Check("trajectories.deviation_order", ok, order,
                     [ORDER_TARGET - ORDER_TOLERANCE, ORDER_TARGET + ORDER_TOLERANCE])]
        for fname in ("reference_slow.csv", "exact_slow.csv", "exact_fast.csv"):
            out.append(csv_floats_check(f"trajectories.{fname}_floats",
                                        out_dir / fname, ("kind", "frame")))
        return out


# ---------------------------------------------------------------------------
# virial: the `bolab virial` computation
# ---------------------------------------------------------------------------

class Virial:
    """Mirrors cli.cmd_virial and virial.virial_sweep through public calls."""

    name = "virial"

    def __init__(self, p, seed):
        self.p = p
        self.v0_shift, self.forcing_shift = seed_shifts(seed, 2)
        self.inputs = {"v0_centre": 3.0 + self.v0_shift,
                       "forcing_centre": -5.0 + self.forcing_shift}

    def setup(self):
        p = self.p
        grid = self.grid = bgrid.Grid(p["n_points"], p["domain_length"])
        y = grid.nodes
        inner = bgrid.inner
        self.q = bgrid.Field(grid, soliton.profile(y))
        self.qp = bgrid.Field(grid, soliton.profile_derivative(y))
        qpp = bgrid.Field(grid, soliton.profile_second_derivative(y))
        v0 = bgrid.Field(grid, np.exp(-((y - self.inputs["v0_centre"]) / 5.0) ** 2)
                         * np.sin(0.8 * y))
        for g in (self.q, self.qp):
            v0 = v0 - (inner(v0, g) / inner(g, g)) * g
        self.v0 = (0.5 / bgrid.l2_norm(v0)) * v0
        forcing = bgrid.Field(grid, np.exp(-((y - self.inputs["forcing_centre"])
                                             / 6.0) ** 2))
        for g in (self.qp, qpp):
            forcing = forcing - (inner(forcing, g) / inner(g, g)) * g
        self.forcing = (0.1 / bgrid.l2_norm(forcing)) * forcing

    def body(self, out_dir: Path):
        p = self.p
        res = evolution.evolve_linearized(evolution.EvolutionState(0.0, self.v0),
                                          p["t_end"], p["dt"], forcing=self.forcing,
                                          snapshot_stride=p["snapshot_stride"])
        fields = self.fields = [s.field for s in res.states]
        dt_snap = float(res.times[1] - res.times[0])
        reports = []
        for gamma in p["gammas"]:
            for y0 in p["y0s"]:
                spec = bgrid.LocalizerSpec(gamma, y0)
                for frac in (0.5, 1.0):
                    n_keep = max(2, int(round(frac * (len(fields) - 1))) + 1)
                    window = fields[:n_keep]
                    lhs = virial.local_smoothing_lhs(window, dt_snap, spec)
                    rhs = max(bgrid.l2_norm(f) for f in window) ** 2
                    grem = virial.g_remainder(window, [self.forcing] * n_keep,
                                              dt_snap, spec, gamma)
                    denom = rhs + abs(grem)
                    reports.append({"gamma": gamma, "y0": y0,
                                    "T": (n_keep - 1) * dt_snap, "lhs": lhs,
                                    "rhs_norm": rhs, "g_remainder": grem,
                                    "ratio": lhs / denom if denom > 0 else math.inf})
        ratios = [r["ratio"] for r in reports]
        self.ratios = ratios
        self.science = {
            "ratios": ratios,
            "ratio_band": max(ratios) / min(ratios) if min(ratios) > 0 else math.inf,
            "reports": reports,
        }

    def checks(self, out_dir: Path):
        ratios = self.ratios
        finite = all(math.isfinite(r) and r > 0 for r in ratios)
        out = [Check("virial.ratios_finite_positive", finite, len(ratios), None,
                     f"{len(ratios)} ratios")]
        for name, g in (("q", self.q), ("qp", self.qp)):
            worst = max(abs(bgrid.inner(f, g)) for f in self.fields)
            self.science[f"max_abs_inner_v_{name}"] = worst
            out.append(Check(f"virial.orthogonal_{name}", worst <= ORTHOGONALITY_BOUND,
                             worst, ORTHOGONALITY_BOUND))
        return out


WORKLOADS = {cls.name: cls for cls in (Member, Trajectories, Virial)}


def make(name: str, seed: int, smoke: bool = False):
    params = (SMOKE if smoke else FULL)[name]
    return WORKLOADS[name](params, seed)
