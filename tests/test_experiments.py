"""Config parsing and the theorem-sweep member loop."""

import json
import math
import time
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest

from bolab import (ConfigurationError, Decomposition, EvolutionState, ExperimentConfig,
                   ExperimentError, Field, Grid, ParameterTrack, PotentialSpec, SolitonParams,
                   cell_l2_profile, convert_frame, evolve_pbo, fit_scaling_exponent,
                   integrate_exact, ode_residuals, run_theorem_sweep, sobolev_norm,
                   soliton_field, track_parameters)
from bolab import experiments, grid, modulation, trajectories
from bolab.experiments import (ResidualTable, SweepMember, _horizon, _run_member,
                               _window, build_perturbation, parse_config)
from bolab.modulation import write_track_csv

from conftest import traced_peak


class TestParseConfig:
    def test_every_key_round_trips(self):
        cfg = ExperimentConfig(
            n_points=4096, domain_length=512.0, dt=0.02, snapshot_stride=5,
            mu0=0.5, h_list=(0.2, 0.1), bump_amplitude=0.3, bump_width=2.0,
            delta_scale=0.5, out_dir="elsewhere",
            threads=3)
        lines = []
        for f in fields(ExperimentConfig):
            value = getattr(cfg, f.name)
            if f.name == "h_list":
                value = ", ".join(map(str, value))
            lines.append(f"{f.name} = {value}")
        parsed = parse_config("\n".join(lines))
        assert parsed == cfg
        for f in fields(ExperimentConfig):
            assert getattr(parsed, f.name) != getattr(ExperimentConfig(), f.name)

    @pytest.mark.parametrize("line", ["seed = 1", "regime = symplectic",
                                      "perturbation = gaussian"])
    def test_removed_keys_rejected(self, line):
        with pytest.raises(ConfigurationError, match="unknown key"):
            parse_config(line)

    @pytest.mark.parametrize("line", ["threads = nan", "n_points = 1e3", "dt = fast",
                                      "h_list = 0.1, x"])
    def test_unreadable_value_rejected(self, line):
        key, val = (part.strip() for part in line.split("="))
        with pytest.raises(ConfigurationError,
                           match=f"^config line 1: cannot read {key} = '{val}'$"):
            parse_config(line)

    def test_threads_at_least_one(self):
        with pytest.raises(ConfigurationError):
            parse_config("threads = 0")

    @pytest.mark.parametrize("line", ["snapshot_stride = 0", "snapshot_stride = -5"])
    def test_snapshot_stride_at_least_one(self, line):
        with pytest.raises(ConfigurationError, match="snapshot_stride must be at least 1"):
            parse_config(line)

    @pytest.mark.parametrize("line", ["h_list = 1.0, 0.5, 0.25", "h_list = 0.1, 1",
                                      "h_list = 0.1, 0", "h_list = nan"])
    def test_h_values_lie_below_one(self, line):
        # T0 = ln(1/h)/(4 mu0 h) is zero at h = 1
        with pytest.raises(ConfigurationError,
                           match=r"^h_list values must lie in \(0, 1\), got .*zero at h = 1$"):
            parse_config(line)

    def test_key_set_twice_rejected(self):
        with pytest.raises(ConfigurationError,
                           match=r"^config line 3: key 'dt' is already set on line 1$"):
            parse_config("dt = 0.01\n# a comment\ndt = 0.02")

    @pytest.mark.parametrize("value", ["1000", "4", "0", "-8"])
    def test_n_points_follows_the_grid_rule(self, value):
        with pytest.raises(ConfigurationError,
                           match=f"^n_points must be a power of two >= 8, got {value}$"):
            parse_config(f"n_points = {value}")

    @pytest.mark.parametrize("line", ["h_list = 0.1, 0.1, 0.05",
                                      "h_list = 0.1, 0.1000001"])
    def test_h_values_name_distinct_files(self, line):
        # both h = 0.1 members would write track_h0p1.csv and trajectory_h0p1.csv
        with pytest.raises(ConfigurationError, match="h values must be distinct"):
            parse_config(line)

    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
    @pytest.mark.parametrize("key", ["dt", "domain_length", "bump_width", "mu0",
                                     "delta_scale"])
    def test_positive_keys_must_be_finite_and_positive(self, key, value):
        with pytest.raises(ConfigurationError,
                           match=f"^{key} must be finite and positive, got {value}"):
            parse_config(f"{key} = {value}")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_bump_amplitude_must_be_finite(self, value):
        with pytest.raises(ConfigurationError, match="^bump_amplitude must be finite"):
            parse_config(f"bump_amplitude = {value}")
        # a flat W and a well are in the domain
        for legal in (0.0, -1.0):
            assert parse_config(f"bump_amplitude = {legal}").bump_amplitude == legal


class TestSweepLoop:
    H_LIST = (0.1, 0.08, 0.05, 0.025)

    @staticmethod
    def _fake_member(cfg, h, t_end, out_dir):
        if h == 0.05:
            raise ValueError("stub failure")
        if h == TestSweepLoop.H_LIST[0]:
            time.sleep(0.05)            # finishes after the members queued behind it
        # residuals h^2 and h^3 on s = h t in [0, 1]: integrals h and h^2
        times = np.array([0.0, 1.0 / h])
        table = ResidualTable(times=times, residual_a=np.full(2, h ** 2),
                              residual_c=np.full(2, h ** 3), integral_a=h,
                              integral_c=h ** 2)
        return SweepMember(h=h, t_end=1.0, sup_envelope_ratio=h ** 1.5,
                           sup_envelope_time=0.0, envelope_ratio_t0=h ** 1.5,
                           sup_local_time_norm=h, residual_a_integral=h,
                           residual_c_integral=h ** 2, residual_c_integral_full=h ** 2,
                           scale_range=(1.0, 1.0),
                           wall_seconds=0.0, csv_track="", csv_trajectory=""), table

    def test_threads_give_same_members_and_failures(self, monkeypatch, tmp_path):
        monkeypatch.setattr(experiments, "_run_member", self._fake_member)
        summaries = [
            run_theorem_sweep(ExperimentConfig(h_list=self.H_LIST, threads=k,
                                               out_dir=str(tmp_path / f"t{k}")))
            for k in (1, 2)]
        for k, s in zip((1, 2), summaries):
            assert [m.h for m in s.members] == [0.1, 0.08, 0.025]
            assert s.failures == [{"h": 0.05, "error": "ValueError: stub failure"}]
            # every table reaches s = 1, so the window keeps each one whole
            assert s.residual_s_max == 1.0
            assert [m.residual_c_integral for m in s.members] == pytest.approx(
                [0.1 ** 2, 0.08 ** 2, 0.025 ** 2], rel=1e-12)
            # reference: the summary payload spelled out field by field
            payload = {
                "schema_version": s.schema_version,
                "config": s.config,
                "members": [asdict(m) for m in s.members],
                "failures": s.failures,
                "residual_s_max": s.residual_s_max,
                "fitted_remainder_order": s.fitted_remainder_order,
                "fitted_remainder_stderr": s.fitted_remainder_stderr,
                "fitted_residual_c_order": s.fitted_residual_c_order,
                "fitted_residual_c_stderr": s.fitted_residual_c_stderr,
                "wall_seconds": s.wall_seconds,
            }
            written = (tmp_path / f"t{k}" / "summary.json").read_text(encoding="utf-8")
            assert written == json.dumps(payload, indent=2, sort_keys=True)
        assert summaries[0].members == summaries[1].members
        assert summaries[0].fitted_remainder_order == pytest.approx(1.5, rel=1e-12)

    def test_a_failed_member_sets_no_window(self, tmp_path):
        # delta = h^{3/2} puts the h = 0.5 member outside the soliton tube at
        # snapshot 0; the window is the least reach of the members that ran
        cfg = ExperimentConfig(n_points=1024, domain_length=128.0,
                               h_list=(0.5, 0.25, 0.125), out_dir=str(tmp_path))
        s = run_theorem_sweep(cfg)
        assert [f["h"] for f in s.failures] == [0.5]
        assert "outside the soliton tube" in s.failures[0]["error"]
        assert s.residual_s_max == pytest.approx(0.25 * 1.1)
        m = s.members[0]
        assert m.h == 0.25
        assert m.residual_c_integral == m.residual_c_integral_full > 0.0

    def test_each_flow_is_integrated_once(self, tmp_path):
        # one reference flow per horizon and one corrected flow per member:
        # each member's horizon is computed once, before the members run
        cfg = ExperimentConfig(n_points=1024, domain_length=128.0,
                               h_list=(0.2, 0.1, 0.05), out_dir=str(tmp_path))
        trajectories._integrated.cache_clear()
        s = run_theorem_sweep(cfg)
        info = trajectories._integrated.cache_info()
        assert s.failures == []
        assert (info.hits, info.misses) == (0, 6)

    def test_a_coarse_grid_fails_every_member(self, tmp_path):
        # spacing 1/2: the unit-cell spacing rule of cell_l2_profile stops
        # each member at its first snapshot
        cfg = ExperimentConfig(n_points=512, domain_length=256.0, out_dir=str(tmp_path))
        with pytest.raises(ExperimentError, match="all sweep members failed") as info:
            run_theorem_sweep(cfg)
        assert (str(info.value).count("too coarse for unit-cell norms")
                == len(cfg.h_list) == 3)


class TestRunMember:
    def test_corrected_ode_starts_from_the_first_fit(self, tmp_path):
        h = 0.2
        cfg = ExperimentConfig(n_points=1024, domain_length=256.0, h_list=(h,))
        pot = PotentialSpec.bump(h, cfg.bump_amplitude, cfg.bump_width)
        m, _ = _run_member(cfg, h, _horizon(cfg, pot, h), tmp_path)
        first_fit = np.loadtxt(m.csv_track, delimiter=",", skiprows=1, max_rows=1)
        start = np.loadtxt(m.csv_trajectory, delimiter=",", skiprows=1, max_rows=1,
                           usecols=(0, 1, 2))
        a0, c0 = first_fit[1], first_fit[2]
        assert c0 != 1.0                   # the perturbation moves the first fit
        # the fast-frame trajectory starts at (t, a, c) = (0, h a0 / h, c0)
        assert start[0] == 0.0
        assert start[1] == pytest.approx(a0, rel=1e-15, abs=1e-300)
        assert start[2] == c0

    def test_each_snapshot_is_profiled_once(self, monkeypatch, tmp_path):
        # the track row's local sup is the maximum of the cell norms whose
        # squares go into the cell masses: one profile per snapshot
        h = 0.2
        cfg = ExperimentConfig(n_points=1024, domain_length=256.0, h_list=(h,))
        pot = PotentialSpec.bump(h, cfg.bump_amplitude, cfg.bump_width)
        calls = []

        def counted(f):
            calls.append(f)
            return cell_l2_profile(f)
        monkeypatch.setattr(modulation, "cell_l2_profile", counted)
        monkeypatch.setattr(grid, "cell_l2_profile", counted)
        m, _ = _run_member(cfg, h, _horizon(cfg, pot, h), tmp_path)
        snapshots = len(Path(m.csv_track).read_text(encoding="utf-8").splitlines()) - 1
        assert snapshots > 1
        assert len(calls) == snapshots

    @pytest.mark.parametrize("delta_scale", [1.0, 1e-4])
    def test_one_pass_matches_the_list_path(self, tmp_path, delta_scale):
        # the list path keeps every snapshot and fit, then walks them again;
        # at delta_scale = 1e-4 the ratio's sup sits at the horizon, not at
        # the seed, so the == reads the corrected flow away from its start
        h = 0.2
        cfg = ExperimentConfig(n_points=1024, domain_length=256.0, h_list=(h,),
                               delta_scale=delta_scale)
        pot = PotentialSpec.bump(h, cfg.bump_amplitude, cfg.bump_width)
        t_end = _horizon(cfg, pot, h)
        m, table = _run_member(cfg, h, t_end, tmp_path)
        assert m.sup_envelope_time == (0.0 if delta_scale == 1.0 else t_end)

        grid = Grid(cfg.n_points, cfg.domain_length)
        u0 = (soliton_field(grid, SolitonParams(0.0, 1.0))
              + build_perturbation(grid, delta_scale * h ** 1.5))
        res = evolve_pbo(EvolutionState(0.0, u0, pot), t_end, cfg.dt,
                         snapshot_stride=cfg.snapshot_stride)
        track = track_parameters(res.states, "symplectic", SolitonParams(0.0, 1.0))
        write_track_csv(tmp_path / "list.csv", track)
        assert (tmp_path / "list.csv").read_bytes() == Path(m.csv_track).read_bytes()

        # h dt_snap = 0.02 is 20 RK4 steps: every 20th sample is a snapshot's
        steps = 20
        ds = h * (cfg.dt * cfg.snapshot_stride) / steps
        ex = convert_frame(integrate_exact(pot, s_end=h * t_end, ds=ds,
                                           y0=(h * track.a[0], track.c[0])), h)
        a_hat, c_hat = ex.positions[::steps], ex.scales[::steps]
        assert np.allclose(ex.times[::steps], res.times, rtol=1e-14, atol=0)
        ratios = [sobolev_norm(s.field - soliton_field(grid, SolitonParams(a, c)), 0.5)
                  / math.exp(cfg.mu0 * h * s.time)
                  for s, a, c in zip(res.states, a_hat, c_hat)]
        weights = [0.5] + [1.0] * (len(track) - 2) + [0.5]
        cell_mass = sum(w * cell_l2_profile(d.remainder)[1] ** 2
                        for w, d in zip(weights, track.decompositions))
        dt_snap = float(res.times[1] - res.times[0])
        assert m.sup_envelope_ratio == max(ratios)
        assert m.sup_local_time_norm == float(np.sqrt(np.max(cell_mass * dt_snap)))
        full = ode_residuals(track, pot)
        assert np.array_equal(table.residual_c, full.residual_c)
        assert m.residual_c_integral_full == m.residual_c_integral == full.integral_c

    def test_corrected_flow_steps_onto_every_snapshot(self, tmp_path):
        # h dt_snap = 12.5e-3 is m = 13 RK4 steps per snapshot interval, so
        # the J = 41 intervals to t_end = 4.1 write J m + 1 samples, the
        # last at t_end, with no near-duplicate tail sample after it
        h = 0.125
        cfg = ExperimentConfig(n_points=1024, domain_length=256.0, h_list=(h,))
        pot = PotentialSpec.bump(h, cfg.bump_amplitude, cfg.bump_width)
        t_end = _horizon(cfg, pot, h)
        assert t_end == pytest.approx(4.1, rel=1e-15)
        m, _ = _run_member(cfg, h, t_end, tmp_path)
        t = np.loadtxt(m.csv_trajectory, delimiter=",", skiprows=1, usecols=0)
        snap_t = np.loadtxt(m.csv_track, delimiter=",", skiprows=1, usecols=0)
        assert t.size == 41 * 13 + 1 == 534
        assert t[-1] == pytest.approx(t_end, rel=1e-14)
        assert np.min(np.diff(t)) > 1e-9
        assert np.allclose(t[::13], snap_t, rtol=1e-14, atol=0)

    def test_rejects_a_horizon_off_the_snapshot_grid(self, monkeypatch, tmp_path):
        # t_end = 1.05 is 105 steps of dt = 0.01 at stride 10: the last state
        # would close a half interval that the corrected flow has no sample
        # for, so the member refuses it before its first step
        h = 0.2
        cfg = ExperimentConfig(n_points=1024, domain_length=256.0)
        monkeypatch.setattr(experiments, "_fits",
                            lambda *args: pytest.fail("the member started its run"))
        with pytest.raises(ConfigurationError,
                           match=r"^t_end must be a multiple of the snapshot interval 0.1, "
                                 r"got 1.05$"):
            _run_member(cfg, h, 1.05, tmp_path)
        assert list(tmp_path.iterdir()) == []

    def test_fits_are_held_to_the_trajectory_window(self, monkeypatch, tmp_path):
        # the member reads the scale window of the reference flow's stop
        # rule: a lower edge above every fit stops it at the first snapshot
        h = 0.2
        cfg = ExperimentConfig(n_points=1024, domain_length=256.0, h_list=(h,))
        monkeypatch.setattr(experiments, "SCALE_STOP_LOW", 1.5)
        with pytest.raises(ExperimentError, match=r"left the window \[1.5, 2\]: range"):
            _run_member(cfg, h, 1.0, tmp_path)

    def test_memory_stays_flat_in_the_horizon(self, tmp_path):
        # a member keeps scalars per snapshot, not fields: at 4 x the horizon
        # (101 -> 401 snapshots) its traced peak moves by less than a few
        # fields, where keeping the snapshots adds one field per snapshot
        h = 0.05
        cfg = ExperimentConfig(n_points=1024, domain_length=128.0, h_list=(h,),
                               snapshot_stride=1)

        def peak(t_end):
            return traced_peak(lambda: _run_member(cfg, h, t_end, tmp_path))
        peak(1.0)                       # warm the module caches
        one, four = peak(1.0), peak(4.0)
        assert four <= one + 4 * 8 * cfg.n_points


class TestOdeResiduals:
    def test_residuals_subtract_the_written_out_corrected_ode(self):
        # a synthetic h = 0.05 track; the residuals come from
        # trajectories.exact_rhs and must match the corrected ODE
        #   a' = c - W(ha) + (h^2/2) W''(ha)/c^2
        #   c' = h c W'(ha) + (h^3/2) W'''(ha)/c
        h = 0.05
        pot = PotentialSpec.bump(h)
        t = 0.1 * np.arange(200)
        a = 0.9 * t + 0.5 * np.sin(0.3 * t)
        c = 1.0 + 0.1 * np.sin(0.05 * t)
        rest = Field.zeros(Grid(8, 1.0))
        track = ParameterTrack(times=t, decompositions=[
            Decomposition(SolitonParams(ak, ck), rest, 0, 0.0)
            for ak, ck in zip(a, c)])
        got = ode_residuals(track, pot)

        ai, ci = a[2:-2], c[2:-2]
        w, w1, w2, w3 = pot.shape_derivatives(h * ai)
        adot = experiments._central_derivative_4(a, 0.1)
        cdot = experiments._central_derivative_4(c, 0.1)
        res_a = adot - ci + w - 0.5 * h * h * w2 / ci ** 2
        res_c = cdot - h * ci * w1 - 0.5 * h ** 3 * w3 / ci
        assert np.allclose(got.residual_a, res_a, rtol=0, atol=1e-14)
        assert np.allclose(got.residual_c, res_c, rtol=0, atol=1e-15)
        for value, res in ((got.integral_a, res_a), (got.integral_c, res_c)):
            assert value == pytest.approx(np.trapezoid(np.abs(res), t[2:-2]), rel=1e-10)

    def test_window_keeps_the_samples_up_to_s_max(self):
        h = 0.05
        pot = PotentialSpec.bump(h)
        t = 0.1 * np.arange(200)
        rest = Field.zeros(Grid(8, 1.0))
        track = ParameterTrack(times=t, decompositions=[
            Decomposition(SolitonParams(0.9 * tk, 1.0 + 0.01 * tk), rest, 0, 0.0)
            for tk in t])
        full = ode_residuals(track, pot)
        got = _window(ode_residuals(track, pot), h, 0.5)
        keep = h * full.times <= 0.5
        assert got.times[-1] == pytest.approx(10.0) and keep.sum() < keep.size
        for name in ("times", "residual_a", "residual_c"):
            assert np.array_equal(getattr(got, name), getattr(full, name)[keep])
        assert got.integral_c == np.trapezoid(np.abs(got.residual_c), got.times)
        assert got.integral_c < full.integral_c


@pytest.fixture(scope="module")
def reduced_sweep(tmp_path_factory):
    """The default h list on a 4 x smaller grid, and its output directory."""
    out = tmp_path_factory.mktemp("reduced_sweep")
    cfg = ExperimentConfig(n_points=2048, domain_length=256.0, out_dir=str(out))
    return cfg, run_theorem_sweep(cfg), out


class TestResidualWindow:
    def test_reduced_sweep_fits_the_common_window(self, reduced_sweep):
        # Over each member's own horizon (s = h t up to 0.57, 0.745, 0.92)
        # the residual-c integrals fit an order of 0.95; over the common
        # window s <= 0.55, the h = 0.1 member's last residual sample, 2.94.
        _, s, out = reduced_sweep
        assert s.failures == []
        assert s.residual_s_max == pytest.approx(0.1 * 5.5)
        assert s.fitted_residual_c_order >= 2.7
        full, _ = fit_scaling_exponent([(m.h, m.residual_c_integral_full)
                                        for m in s.members])
        assert full < 1.5
        # the member that sets the window integrates its whole horizon
        assert s.members[0].residual_c_integral == s.members[0].residual_c_integral_full
        written = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        assert (written["members"][2]["residual_c_integral_full"]
                == s.members[2].residual_c_integral_full)
        # the seeded ratio's sup sits at t = 0 in every member
        for m, w in zip(s.members, written["members"]):
            assert (w["sup_envelope_time"], w["envelope_ratio_t0"]) == (
                0.0, m.sup_envelope_ratio)

    def test_every_member_reaches_the_window_end(self, reduced_sweep):
        # the last residual sample of every member lies within one snapshot
        # of s_max, so no member stops short of the common window
        cfg, s, _ = reduced_sweep
        rest = Field.zeros(Grid(8, 1.0))
        for m in s.members:
            t, a, c = np.loadtxt(m.csv_track, delimiter=",", skiprows=1,
                                 usecols=(0, 1, 2), unpack=True)
            track = ParameterTrack(times=t, decompositions=[
                Decomposition(SolitonParams(ak, ck), rest, 0, 0.0)
                for ak, ck in zip(a, c)])
            pot = PotentialSpec.bump(m.h, cfg.bump_amplitude, cfg.bump_width)
            last = m.h * _window(ode_residuals(track, pot), m.h, s.residual_s_max).times[-1]
            assert s.residual_s_max - m.h * cfg.dt * cfg.snapshot_stride < last
            assert last <= s.residual_s_max
