"""Time integration of the perturbed, free, and linearized flows."""

import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from bolab import (ConfigurationError, EvolutionError, EvolutionState, Field,
                   Grid, PotentialSpec, SolitonParams, evolve_linearized,
                   evolve_pbo, inner, invariants, l2_norm, read_checkpoint,
                   soliton_field, step_linearized, step_pbo, write_checkpoint)
from bolab.evolution import _pbo_tables, reflect
from bolab.experiments import fit_scaling_exponent
from bolab.soliton import profile, profile_derivative


class TestStepPbo:
    def test_zero_fixed_point(self, grid_default):
        pot = PotentialSpec.bump(0.1)
        state = EvolutionState(0.0, Field.zeros(grid_default), pot)
        out = step_pbo(state, 0.01)
        assert l2_norm(out.field) == 0.0
        assert out.time == pytest.approx(0.01)

    def test_free_soliton_translation(self, grid_default):
        u0 = soliton_field(grid_default, SolitonParams(0.0, 1.0))
        res = evolve_pbo(EvolutionState(0.0, u0, None), 10.0, 0.01,
                         snapshot_stride=1000)
        final = res.states[-1].field
        target = soliton_field(grid_default, SolitonParams(10.0, 1.0))
        assert l2_norm(final - target) <= 1e-4

    def test_single_mode_linear_phase(self):
        # with the nonlinearity negligible, one Fourier mode advances with
        # the dispersive phase e^{i xi |xi| t}: linear waves run leftward
        g = Grid(256, 64.0)
        k = 2 * np.pi * 6 / g.domain_length
        amp = 1e-10
        u0 = Field(g, amp * np.cos(k * g.nodes))
        state = EvolutionState(0.0, u0, None)
        dt = 0.01
        for _ in range(100):
            state = step_pbo(state, dt)
        t = state.time
        expect = amp * np.cos(k * g.nodes + k * abs(k) * t)
        assert np.max(np.abs(state.field.values - expect)) <= 1e-8 * amp

    def test_dt_must_be_positive(self, grid_small):
        with pytest.raises(ConfigurationError):
            step_pbo(EvolutionState(0.0, Field.zeros(grid_small), None), -0.1)

    def test_fourth_order_in_time(self, grid_default):
        u0 = soliton_field(grid_default, SolitonParams(0.0, 1.0))
        pot = PotentialSpec.bump(0.1)
        errs = []
        # compare against a fine-step reference at T = 1
        ref = evolve_pbo(EvolutionState(0.0, u0, pot), 1.0, 0.00125,
                         snapshot_stride=800).states[-1].field
        for dt in (0.02, 0.01):
            out = evolve_pbo(EvolutionState(0.0, u0, pot), 1.0, dt,
                             snapshot_stride=int(round(1.0 / dt))).states[-1].field
            errs.append(l2_norm(out - ref))
        assert errs[0] / errs[1] == pytest.approx(16.0, rel=0.35)

    def test_blowup_guard(self, grid_small):
        # an unresolved huge state trips the H^1/2 guard
        vals = 50.0 * np.sin(grid_small.nodes)
        state = EvolutionState(0.0, Field(grid_small, vals), None)
        with pytest.raises(EvolutionError):
            evolve_pbo(state, 2.0, 0.002, snapshot_stride=10)


class TestConservation:
    def test_energy_conserved_and_mass_drift_law_under_potential(self, grid_default):
        # the potential-perturbed flow conserves the perturbed energy but not
        # the quadratic mass; its drift obeys d/dt M0 = (1/2) int V' u^2
        pot = PotentialSpec.bump(0.05)
        u0 = soliton_field(grid_default, SolitonParams(0.0, 1.0))
        res = evolve_pbo(EvolutionState(0.0, u0, pot), 20.0, 0.0025,
                         snapshot_stride=200)
        inv0 = invariants(res.states[0])
        invT = invariants(res.states[-1])
        drift = abs(invT.energy_perturbed - inv0.energy_perturbed)
        assert drift / abs(inv0.energy_perturbed) <= 1e-6
        vprime = pot.h * pot.w1(pot.h * grid_default.nodes)
        rates = [0.5 * grid_default.spacing * np.sum(vprime * s.field.values ** 2)
                 for s in res.states]
        predicted = np.trapezoid(rates, res.times)
        measured = invT.mass - inv0.mass
        assert abs(measured) > 1e-3 * inv0.mass     # genuinely non-conserved
        assert measured == pytest.approx(predicted, rel=5e-3)

    def test_free_flow_conserves_mass_and_energy(self, grid_default):
        u0 = soliton_field(grid_default, SolitonParams(0.0, 1.0))
        res = evolve_pbo(EvolutionState(0.0, u0, None), 40.0, 0.0025,
                         snapshot_stride=16000)
        inv0 = invariants(res.states[0])
        invT = invariants(res.states[-1])
        assert abs(invT.mass - inv0.mass) / inv0.mass <= 1e-8
        assert abs(invT.energy0 - inv0.energy0) / abs(inv0.energy0) <= 1e-6

    def test_time_reversal_by_parity(self, grid_default):
        # reflecting the state and evolving forward again inverts the free
        # flow; recovers the initial data
        u0 = soliton_field(grid_default, SolitonParams(0.0, 1.0)) \
            + 0.05 * soliton_field(grid_default, SolitonParams(30.0, 1.3))
        forward = evolve_pbo(EvolutionState(0.0, u0, None), 5.0, 0.005,
                             snapshot_stride=1000).states[-1]
        back = evolve_pbo(EvolutionState(0.0, reflect(forward.field), None),
                          5.0, 0.005, snapshot_stride=1000).states[-1]
        recovered = reflect(back.field)
        assert l2_norm(recovered - u0) <= 1e-6


class TestInvariants:
    def test_soliton_values(self, grid_default):
        u = soliton_field(grid_default, SolitonParams(0.0, 1.0))
        rep = invariants(EvolutionState(0.0, u, None))
        assert rep.mass == pytest.approx(4 * np.pi, rel=1e-6)
        assert rep.energy0 == pytest.approx(-2 * np.pi, rel=1e-5)

    def test_soliton_energy1(self, grid_default):
        # -9 pi = (1/2) 4 pi + (3/8) (-16 pi) - 80 pi / 16: |Q'|^2, <Q^2, H Q'>
        # and the quartic moment of Q = 4 / (1 + y^2) on the line
        u = soliton_field(grid_default, SolitonParams(0.0, 1.0))
        rep = invariants(EvolutionState(0.0, u, None))
        assert rep.energy1 == pytest.approx(-9 * np.pi, rel=1e-8)

    def test_soliton_energy_error_law(self):
        # the box sum for <u, |D| u> misses a pi (int u)^2 / (3 L^2) term
        # from the kink of |xi| at 0; with it the energy0 error falls as
        # L^-3 (the 4 / y^2 tail), without it only as L^-2
        errors = []
        for length in (256.0, 512.0, 1024.0):
            g = Grid(int(8 * length), length)
            u = soliton_field(g, SolitonParams(0.0, 1.0))
            e0 = invariants(EvolutionState(0.0, u, None)).energy0
            errors.append((1.0 / length, abs(e0 / (-2 * np.pi) - 1.0)))
        order, _ = fit_scaling_exponent(errors)
        assert order >= 2.7

    def test_cubic_moment_oracle(self, grid_default):
        # -2 pi = (1/2) <Q, |D| Q> - (1/6) int Q^3 = 2 pi - 4 pi; check the
        # cubic piece against quadrature directly
        y = grid_default.nodes
        cubic = grid_default.spacing * np.sum(profile(y) ** 3)
        assert cubic == pytest.approx(24 * np.pi, rel=1e-8)

    def test_zero_state(self, grid_small):
        rep = invariants(EvolutionState(0.0, Field.zeros(grid_small), None))
        assert rep.mass == rep.energy0 == rep.energy1 == rep.energy_perturbed == 0.0

    def test_potential_contribution(self, grid_default):
        pot = PotentialSpec.bump(0.05)
        u = soliton_field(grid_default, SolitonParams(0.0, 1.0))
        rep = invariants(EvolutionState(0.0, u, pot))
        v = pot.sampled_potential(grid_default.nodes)
        extra = 0.5 * grid_default.spacing * np.sum(v * u.values ** 2)
        assert rep.energy_perturbed == pytest.approx(rep.energy0 + extra, rel=1e-12)


class TestStepLinearized:
    def test_zero_fixed_point(self, grid_small):
        state = EvolutionState(0.0, Field.zeros(grid_small))
        out = step_linearized(state, 0.01)
        assert l2_norm(out.field) == 0.0

    def test_translation_mode_stationary(self, grid_default):
        qp = Field(grid_default, profile_derivative(grid_default.nodes))
        res = evolve_linearized(EvolutionState(0.0, qp), 10.0, 0.01,
                                snapshot_stride=1000)
        drift = l2_norm(res.states[-1].field - qp)
        assert drift <= 1e-6

    def test_orthogonality_conserved(self, grid_default):
        y = grid_default.nodes
        q = Field(grid_default, profile(y))
        qp = Field(grid_default, profile_derivative(y))
        v0 = Field(grid_default, np.exp(-((y - 5.0) / 6.0) ** 2) * np.sin(0.7 * y))
        for g in (q, qp):
            v0 = v0 - (inner(v0, g) / inner(g, g)) * g
        v0 = (1.0 / l2_norm(v0)) * v0
        res = evolve_linearized(EvolutionState(0.0, v0), 10.0, 0.005,
                                snapshot_stride=100)
        worst = max(max(abs(inner(s.field, q)), abs(inner(s.field, qp)))
                    for s in res.states)
        assert worst <= 1e-6

    def test_forcing_changes_state(self, grid_small):
        v0 = Field.zeros(grid_small)
        force = Field(grid_small, np.exp(-grid_small.nodes ** 2))
        out = step_linearized(EvolutionState(0.0, v0), 0.01, force)
        assert l2_norm(out.field) > 0


def _perturbed_soliton(grid, centre=3.0):
    y = grid.nodes
    return soliton_field(grid, SolitonParams(0.0, 1.0)) \
        + Field(grid, 0.01 * np.exp(-((y - centre) / 4.0) ** 2))


def _linearized_forcing(grid):
    return Field(grid, 0.1 * np.exp(-((grid.nodes + 5.0) / 6.0) ** 2))


def _rel_l2(f, g):
    return l2_norm(f - g) / l2_norm(g)


class TestDriver:
    @pytest.mark.parametrize("flow", ["pbo-free", "pbo-potential", "linearized"])
    def test_eight_fft_calls_per_step(self, flow, monkeypatch):
        # the state stays spectral: one irfft and one (batched) rfft per
        # stage; snapshots are taken off by differencing two run lengths
        g = Grid(256, 64.0)
        if flow == "linearized":
            initial = EvolutionState(0.0, Field(g, 0.1 * np.exp(-g.nodes ** 2)))
            force = _linearized_forcing(g)

            def run(n):
                return evolve_linearized(initial, n * 0.01, 0.01, forcing=force,
                                         snapshot_stride=100)
        else:
            pot = PotentialSpec.bump(0.1) if flow == "pbo-potential" else None
            initial = EvolutionState(0.0, _perturbed_soliton(g), pot)

            def run(n):
                return evolve_pbo(initial, n * 0.01, 0.01, snapshot_stride=100)

        run(2)                       # builds the cached tables
        calls = []
        for name in ("rfft", "irfft"):
            original = getattr(np.fft, name)

            def counted(*args, _original=original, **kwargs):
                calls.append(1)
                return _original(*args, **kwargs)
            monkeypatch.setattr(np.fft, name, counted)
        counts = []
        for n in (3, 8):
            calls.clear()
            run(n)
            counts.append(len(calls))
        assert (counts[1] - counts[0]) / 5 == 8

    def test_evolve_pbo_matches_repeated_steps(self, grid_small):
        state = EvolutionState(0.0, _perturbed_soliton(grid_small),
                               PotentialSpec.bump(0.1))
        res = evolve_pbo(state, 0.2, 0.01, snapshot_stride=5)
        for k in range(20):
            state = step_pbo(state, 0.01)
            if (k + 1) % 5 == 0:
                snap = res.states[(k + 1) // 5]
                assert _rel_l2(snap.field, state.field) <= 1e-12

    def test_evolve_linearized_matches_repeated_steps(self, grid_small):
        v0 = Field(grid_small, np.exp(-((grid_small.nodes - 5.0) / 6.0) ** 2)
                   * np.sin(0.7 * grid_small.nodes))
        force = _linearized_forcing(grid_small)
        state = EvolutionState(0.0, v0)
        res = evolve_linearized(state, 0.2, 0.01, forcing=force, snapshot_stride=20)
        for _ in range(20):
            state = step_linearized(state, 0.01, force)
        assert _rel_l2(res.states[-1].field, state.field) <= 1e-12

    def test_snapshot_times_are_step_multiples(self, grid_small):
        # t0 + k*dt after k steps, not a running sum of dt
        t0, dt, stride, n_steps = 0.3, 0.01, 10, 25
        state = EvolutionState(t0, soliton_field(grid_small, SolitonParams(0.0, 1.0)))
        res = evolve_pbo(state, n_steps * dt, dt, snapshot_stride=stride)
        expect = t0 + dt * np.array([0, 10, 20, 25])
        assert np.array_equal(res.times, expect)
        assert res.times[-1] == t0 + n_steps * dt
        assert [s.time for s in res.states] == list(res.times)

    def test_threaded_runs_match_serial_bit_for_bit(self):
        # sweep members run in threads, more of them than cores, with
        # frequent thread switches; each run owns its work buffer
        g = Grid(2048, 256.0)
        pots = (PotentialSpec.bump(0.1), PotentialSpec.bump(0.05)) * 2

        def member(pot):
            res = evolve_pbo(EvolutionState(0.0, _perturbed_soliton(g), pot),
                             1.0, 0.01, snapshot_stride=10)
            return np.array([s.field.values for s in res.states])

        serial = [member(p) for p in pots]
        _pbo_tables.cache_clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(member, p) for p in pots]
                threaded = [f.result(timeout=120) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        for a, b in zip(serial, threaded):
            assert np.array_equal(a, b)

    def test_tables_are_shared_per_grid_dt_and_potential(self, grid_small):
        first = _pbo_tables(grid_small, 0.01, PotentialSpec.bump(0.1))
        assert _pbo_tables(Grid(1024, 256.0), 0.01, PotentialSpec.bump(0.1)) is first
        assert _pbo_tables(grid_small, 0.01, PotentialSpec.bump(0.05)) is not first
        assert _pbo_tables(grid_small, 0.02, PotentialSpec.bump(0.1)) is not first

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    def test_overflow_raises(self, grid_small):
        u0 = 1e200 * soliton_field(grid_small, SolitonParams(0.0, 1.0))
        with pytest.raises(EvolutionError, match="non-finite state after step at t = 0.0"):
            evolve_pbo(EvolutionState(0.0, u0, None), 1.0, 0.01, snapshot_stride=1000)

    def test_evolve_dt_must_be_positive(self, grid_small):
        state = EvolutionState(0.0, Field.zeros(grid_small))
        with pytest.raises(ConfigurationError):
            evolve_pbo(state, 1.0, 0.0)
        with pytest.raises(ConfigurationError):
            evolve_linearized(state, 1.0, -0.01)


class TestCheckpoint:
    def test_round_trip(self, tmp_path, grid_small):
        state = EvolutionState(
            3.25, soliton_field(grid_small, SolitonParams(1.0, 1.1)))
        path = tmp_path / "snap.bosl"
        write_checkpoint(path, state)
        back = read_checkpoint(path)
        assert back.time == state.time
        assert back.field.grid == grid_small
        assert np.array_equal(back.field.values, state.field.values)

    def test_header_layout(self, tmp_path, grid_small):
        state = EvolutionState(0.5, Field.zeros(grid_small))
        path = tmp_path / "snap.bosl"
        write_checkpoint(path, state)
        raw = path.read_bytes()
        assert raw[:5] == b"BOSL1"
        assert len(raw) == 5 + 4 + 8 + 8 + 8 + 8 * grid_small.n_points

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bosl"
        path.write_bytes(b"NOPE!" + bytes(64))
        from bolab import UsageError
        with pytest.raises(UsageError):
            read_checkpoint(path)
