"""Command-line entry points.

Subcommands:
    identities     soliton identity and integral-table checks
    spectrum       eigen-report of the linearized operator, matrix-free (JSON)
    evolve         potential-perturbed evolution with invariant monitoring
    trajectories   reference/corrected parameter ODEs + comparison (CSV)
    theorem-sweep  h-sweep with remainder/residual order fits (JSON + CSV)
    virial         local-smoothing ratio sweep (JSON)

Global flags: --config PATH, --out DIR, --threads K.  Files are written
under the config's ``out_dir`` (default ``runs``), which --out
overrides; --out and --threads override whenever given, so a rejected
value (``--threads 0``) is an error, not a silent fallback.

Each ``cmd_*`` returns its gates as ``(name, value, bound)`` tuples and
prints no verdict.  ``main`` alone prints one ``PASS``/``FAIL`` line per
gate, in order, after everything the subcommand printed; a gate passes
iff ``value <= bound``, and a ``None`` value (nothing to measure, e.g. no
fitted order) fails and prints as ``inf``.  Exit codes: 0 when every
gate passes, 1 when any fails, 2 on an argparse usage error and on a
``BolabError`` or an ``OSError``, which is reported as one ``error:``
line on stderr.  A config file that is missing or a directory, or an
output directory that cannot be made, is an ``OSError``; a config file
that is not UTF-8 is a ``ConfigurationError``.  A subcommand that raises
prints no gate lines.

``evolve`` reads its run once, as the theorem-sweep members do: each
snapshot is fitted and reduced to its track-CSV line as the evolution
yields it, and only the initial state and the last snapshot are kept.
It writes nothing until the run's last snapshot is fitted, so a run that
fails leaves no ``final.bosl`` or ``track.csv``.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import __version__
from .errors import BolabError
from .evolution import (EvolutionState, _pbo_snapshots, _step_count, invariants,
                        write_checkpoint)
from .experiments import ExperimentConfig, load_config, run_theorem_sweep
from .grid import Field, Grid, hilbert, inner, l2_norm
from .modulation import _fits, _track_record, _write_track_rows
from .operators import SymmetricOperator
from .potential import PotentialSpec
from .soliton import (COS2_BETA, INNER_YQ_PRIME_Q, LAMBDA_MINUS, LAMBDA_PLUS,
                      NORM_E_MINUS_SQ, NORM_Q_SQ, NORM_YQ_PRIME_SQ, SolitonParams,
                      eigenfunction_field, periodic_profile_hilbert, profile,
                      profile_derivative, profile_second_derivative,
                      scaled_profile, soliton_field, soliton_residual)
from .spectral import spectrum_below_continuum
from .trajectories import (convert_frame, gronwall_sweep, integrate_exact,
                           integrate_reference, write_trajectory_csv)
from .virial import virial_sweep


def _out_dir(cfg) -> Path:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True), encoding="utf-8")
    print(f"wrote {path}")


def _project_off(f: Field, *directions: Field) -> Field:
    """f with its L2 component along each direction removed in turn."""
    for g in directions:
        f = f - (inner(f, g) / inner(g, g)) * g
    return f


def cmd_identities(args, cfg) -> list:
    grid = Grid(args.n, args.length)
    q = soliton_field(grid, SolitonParams(0.0, 1.0))
    y = grid.nodes
    # on the periodic box, hilbert(q) is compared with the transform of the
    # periodised profile; the real-line -y q is O(L^-1/2) away from both
    hq = hilbert(q) - Field(grid, periodic_profile_hilbert(y, grid.domain_length))
    alg = Field(grid, y * profile_derivative(y) - (0.5 * profile(y) ** 2 - 2 * profile(y)))
    yqp = Field(grid, scaled_profile(y))
    em, _ = eigenfunction_field(grid, "-")
    table = [
        ("||q||^2", inner(q, q), NORM_Q_SQ),
        ("||(yq)'||^2", inner(yqp, yqp), NORM_YQ_PRIME_SQ),
        ("<(yq)', q>", inner(yqp, q), INNER_YQ_PRIME_Q),
        ("||q + lam (yq)'||^2", inner(em, em), NORM_E_MINUS_SQ),
        ("cos^2(beta)", inner(yqp, em) ** 2 / (inner(yqp, yqp) * inner(em, em)),
         COS2_BETA),
    ]
    return [("profile equation residual",
             soliton_residual(SolitonParams(0.0, 1.0), grid), 1e-3),
            ("H(q) - H(q_per) closed form", l2_norm(hq), 1e-3),
            ("y q' - (q^2/2 - 2q)", l2_norm(alg), 1e-3),
            *((f"{name} vs exact", abs(got - exact) / abs(exact), 1e-6)
              for name, got, exact in table)]


def cmd_spectrum(args, cfg) -> list:
    grid = Grid(args.n, args.length)
    report = spectrum_below_continuum(SymmetricOperator.linearized(grid),
                                      threshold=1.0, margin=args.margin)
    _write_json(_out_dir(cfg) / "spectrum.json", {
        "schema_version": 1,
        "operator": "linearized",
        "grid": {"n_points": grid.n_points, "domain_length": grid.domain_length},
        "continuum_edge": report.continuum_edge,
        "discrete_eigenvalues": report.discrete_eigenvalues,
        "edge_ambiguous": report.edge_ambiguous[:8],
        "warnings": report.warnings,
    })
    got = report.discrete_eigenvalues
    return [("|isolated eigenvalue count - 3|", abs(len(got) - 3), 0),
            *((f"isolated eigenvalue {g:.6f} vs {e:.6f}", abs(g - e), 5e-3)
              for g, e in zip(got, [LAMBDA_MINUS, 0.0, LAMBDA_PLUS]))]


def cmd_evolve(args, cfg) -> list:
    grid = Grid(cfg.n_points, cfg.domain_length)
    # only h = 0 is the free flow; any other h must pass PotentialSpec's check
    pot = (None if args.h == 0
           else PotentialSpec.bump(args.h, cfg.bump_amplitude, cfg.bump_width))
    state = EvolutionState(0.0, soliton_field(grid, SolitonParams(0.0, 1.0)), pot)
    _step_count(args.t_end, cfg.dt)     # a bad --t-end exits 2 before the stride uses it
    snapshots = _pbo_snapshots(state, args.t_end, cfg.dt,
                               max(1, int(round(args.t_end / cfg.dt / 64))))
    rows = []
    for t, d in _fits(snapshots, "symplectic", SolitonParams(0.0, 1.0)):
        rows.append(_track_record(t, d)[0])
    final = EvolutionState(t, d.field, pot)     # the last fit is of the last snapshot
    out = _out_dir(cfg)
    inv0 = invariants(state)
    invT = invariants(final)
    mass_drift = abs(invT.mass - inv0.mass) / abs(inv0.mass)
    energy_drift = (abs(invT.energy_perturbed - inv0.energy_perturbed)
                    / max(abs(inv0.energy_perturbed), 1e-300))
    write_checkpoint(out / "final.bosl", final)
    _write_track_rows(out / "track.csv", rows)
    print(f"wrote {out/'final.bosl'} and {out/'track.csv'}")
    energy = ("relative energy drift", energy_drift, 1e-6)
    if pot is None:
        return [("relative mass drift", mass_drift, 1e-8), energy]
    # under V the mass moves by d/dt M = (1/2) int V' u^2: recorded, not gated
    print(f"INFO  relative mass drift under V: {mass_drift:.3e}")
    return [energy]


def cmd_trajectories(args, cfg) -> list:
    out = _out_dir(cfg)
    # the sweep first: a bad --h-sweep exits 2 before any CSV is written
    sweep = gronwall_sweep(
        lambda h: PotentialSpec.bump(h, cfg.bump_amplitude, cfg.bump_width),
        args.h_sweep, args.s_end)
    pot = PotentialSpec.bump(args.h, cfg.bump_amplitude, cfg.bump_width)
    write_trajectory_csv(out / "reference_slow.csv", integrate_reference(pot, args.s_end))
    ex = integrate_exact(pot, args.s_end)
    write_trajectory_csv(out / "exact_slow.csv", ex)
    write_trajectory_csv(out / "exact_fast.csv", convert_frame(ex, args.h))
    print(f"wrote trajectory CSVs to {out}")
    print(f"sup|A_dev| = {sweep.sup_dev_position:.3e}, "
          f"sup|C_dev| = {sweep.sup_dev_scale:.3e}, "
          f"fitted order = {sweep.fitted_order}")
    order = sweep.fitted_order
    return [("deviation order |p - 2|", None if order is None else abs(order - 2.0), 0.2)]


def cmd_theorem_sweep(args, cfg) -> list:
    summary = run_theorem_sweep(cfg)
    print(json.dumps({
        "fitted_remainder_order": summary.fitted_remainder_order,
        "fitted_residual_c_order": summary.fitted_residual_c_order,
        "residual_s_max": summary.residual_s_max,
        "failures": summary.failures,
    }, indent=2))
    rem = summary.fitted_remainder_order
    res_c = summary.fitted_residual_c_order
    return [("member failures", len(summary.failures), 0),
            ("remainder order |p - 1.5|", None if rem is None else abs(rem - 1.5), 0.3),
            # p >= 2.7 as a shortfall 2.7 - p <= 0
            ("residual-c order shortfall 2.7 - p", None if res_c is None else 2.7 - res_c,
             0.0)]


def cmd_virial(args, cfg) -> list:
    grid = Grid(cfg.n_points, cfg.domain_length)
    y = grid.nodes
    fqp = Field(grid, profile_derivative(y))
    v0 = _project_off(Field(grid, np.exp(-((y - 3.0) / 5.0) ** 2) * np.sin(0.8 * y)),
                      Field(grid, profile(y)), fqp)
    forcing = _project_off(Field(grid, np.exp(-((y + 5.0) / 6.0) ** 2)),
                           fqp, Field(grid, profile_second_derivative(y)))
    reports = virial_sweep((0.5 / l2_norm(v0)) * v0, (0.1 / l2_norm(forcing)) * forcing,
                           args.t_end, cfg.dt, cfg.snapshot_stride, args.gammas, args.y0s)
    _write_json(_out_dir(cfg) / "virial.json", [asdict(r) for r in reports])
    ratios = [r.ratio for r in reports]
    band = max(ratios) / min(ratios) if min(ratios) > 0 else None
    return [("ratio band max/min", band, 3.0)]


def _float_list(text):
    values = [float(v) for v in text.split(",") if v.strip()]
    if not values:
        raise argparse.ArgumentTypeError("expected a comma-separated list of numbers")
    return values


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="bolab",
                                description="Soliton-dynamics numerical laboratory")
    p.add_argument("--version", action="version", version=f"bolab {__version__}")
    p.add_argument("--config", type=str, default=None, help="flat key=value config file")
    p.add_argument("--out", type=str, default=None, help="output directory")
    p.add_argument("--threads", type=int, default=None, help="concurrent sweep members")
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("identities", help="soliton identity / integral-table checks")
    s.add_argument("--n", type=int, default=8192)
    s.add_argument("--length", type=float, default=1024.0)
    s.set_defaults(fn=cmd_identities)

    s = sub.add_parser("spectrum", help="matrix-free eigen-report of the linearized operator")
    s.add_argument("--n", type=int, default=2048)
    s.add_argument("--length", type=float, default=512.0)
    s.add_argument("--margin", type=float, default=0.1)
    s.set_defaults(fn=cmd_spectrum)

    s = sub.add_parser("evolve", help="perturbed-flow run with invariant monitoring")
    s.add_argument("--h", type=float, default=0.05)
    s.add_argument("--t-end", type=float, default=50.0)
    s.set_defaults(fn=cmd_evolve)

    s = sub.add_parser("trajectories", help="parameter-ODE integration and comparison")
    s.add_argument("--h", type=float, default=0.1)
    s.add_argument("--s-end", type=float, default=2.0)
    s.add_argument("--h-sweep", type=_float_list, default=[0.2, 0.1, 0.05])
    s.set_defaults(fn=cmd_trajectories)

    s = sub.add_parser("theorem-sweep", help="main-theorem h-sweep")
    s.set_defaults(fn=cmd_theorem_sweep)

    s = sub.add_parser("virial", help="local-smoothing ratio sweep")
    s.add_argument("--t-end", type=float, default=20.0)
    s.add_argument("--gammas", type=_float_list, default=[0.05])
    s.add_argument("--y0s", type=_float_list, default=[-50.0, 0.0, 50.0])
    s.set_defaults(fn=cmd_virial)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config) if args.config else ExperimentConfig()
        given = {"out_dir": args.out, "threads": args.threads}
        cfg = replace(cfg, **{k: v for k, v in given.items() if v is not None})
        gates = args.fn(args, cfg)
    except (BolabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    failed = False
    for name, value, bound in gates:
        value = math.inf if value is None else value
        ok = value <= bound
        failed |= not ok
        print(f"{'PASS' if ok else 'FAIL'}  {name}: {value:.3e} (tolerance {bound:.1e})")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
