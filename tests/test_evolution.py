"""Time integration of the perturbed, free, and linearized flows."""

import math
import struct
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.fft

from bolab import (ConfigurationError, EvolutionError, EvolutionState, Field,
                   Grid, PotentialSpec, SolitonParams, UsageError,
                   evolve_linearized, evolve_pbo, inner, invariants, l2_norm,
                   read_checkpoint, soliton_field, write_checkpoint)
from bolab.evolution import _Etdrk4Tables, _evolve, _pbo_flow, _pbo_snapshots, _step_count
from bolab.experiments import fit_scaling_exponent
from bolab.soliton import profile, profile_derivative


def step_pbo(state, dt):
    # the driver without evolve_pbo's guards: the seam guard trips on a zero
    # field, whose argmax is the node at -L/2
    n_steps = _step_count(dt, dt)
    flow = _pbo_flow(state.field.grid, dt, state.potential)
    *_, last = _evolve(state, n_steps, dt, 1, flow)
    return last


def step_linearized(state, dt, forcing=None):
    return evolve_linearized(state, dt, dt, forcing).states[-1]


def reflect(f):
    """Sampled f(-x); the node at -L/2 is its own mirror image."""
    n = f.grid.n_points
    return Field(f.grid, f.values[(n - np.arange(n)) % n])


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
        # a large, localized wave train grows its H^1/2 norm tenfold in one
        # step; its peak stays near the origin, away from the seam
        y = grid_small.nodes
        state = EvolutionState(0.0, Field(grid_small,
                                          50.0 * np.sin(y) * np.exp(-(y / 20.0) ** 2)))
        with pytest.raises(EvolutionError, match="blow-up guard tripped at t = 0.05"):
            evolve_pbo(state, 1.0, 0.05)

    def test_seam_guard(self, grid_small):
        # a soliton within L/4 of the seam stops the run at its first snapshot
        a = 0.3 * grid_small.domain_length
        state = EvolutionState(0.0, soliton_field(grid_small, SolitonParams(a, 1.0)), None)
        with pytest.raises(EvolutionError, match="seam guard"):
            evolve_pbo(state, 0.01, 0.01)


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
        vprime = pot.h * pot.shape_derivatives(pot.h * grid_default.nodes)[1]
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


class TestScaleCovariance:
    def test_free_flow_is_covariant_under_doubling(self):
        # u(x, t) -> 2 u(2x, 4t) maps BO onto itself: with the box halved and
        # dt quartered every factor is a power of two, so the c = 2 run is
        # twice the c = 1 run at every snapshot, bit for bit
        runs = []
        for length, c, dt, t_end in ((256.0, 1.0, 0.01, 4.0), (128.0, 2.0, 0.0025, 1.0)):
            u0 = soliton_field(Grid(2048, length), SolitonParams(0.0, c))
            runs.append(list(_pbo_snapshots(EvolutionState(0.0, u0, None), t_end, dt, 100)))
        one, two = runs
        assert len(one) == len(two) == 5
        for s1, s2 in zip(one, two):
            assert s2.time == s1.time / 4
            assert np.max(np.abs(2.0 * s1.field.values - s2.field.values)) == 0.0


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


def _allocating_step(tables, uh, nonlinear):
    """The plain ETDRK4 step: a fresh array for every operation."""
    n0 = nonlinear(uh)
    eu = tables.e_half * uh
    a = eu + tables.stage * n0
    na = nonlinear(a)
    b = eu + tables.stage * na
    nb = nonlinear(b)
    c = tables.e_half * a + tables.stage * (2.0 * nb - n0)
    nc = nonlinear(c)
    return tables.e_full * uh + tables.w1 * n0 + tables.w2x2 * (na + nb) + tables.w3 * nc


def _contour_tables(symbol, dt):
    """ETDRK4 coefficients (Kassam & Trefethen 2005): each phi-function
    combination is the mean over 64 points of the unit circle around dt*symbol."""
    r = np.exp(2j * np.pi * (np.arange(64) + 0.5) / 64)
    lr = dt * symbol[:, None] + r[None, :]
    elr = np.exp(lr)
    return SimpleNamespace(
        e_full=np.exp(dt * symbol),
        e_half=np.exp(0.5 * dt * symbol),
        stage=dt * ((np.exp(lr / 2) - 1.0) / lr).mean(1),
        w1=dt * ((-4.0 - lr + elr * (4.0 - 3.0 * lr + lr ** 2)) / lr ** 3).mean(1),
        w2x2=2.0 * (dt * ((2.0 + lr + elr * (-2.0 + lr)) / lr ** 3).mean(1)),
        w3=dt * ((-4.0 - 3.0 * lr - lr ** 2 + elr * (4.0 - lr)) / lr ** 3).mean(1))


def _odd_symbol(symbol):
    """An odd symbol is zero on the Nyquist mode of a real transform."""
    symbol[-1] = 0.0
    return symbol


def _allocating_pbo_rhs(grid, dt, pot):
    """The pBO right-hand side as one dealiased flux, d_x P(u (V - u/2)).

    The free flow keeps the arithmetic of -(1/2) d_x P(u^2): scaling by
    -1/2 is exact, so both forms give the same bits.
    """
    xi = grid.rfft_wavenumbers
    tables = _contour_tables(_odd_symbol(1j * xi * np.abs(xi)), dt)
    dflux = np.where(xi <= (2.0 / 3.0) * xi[-1], 1j * xi, 0.0)
    v = pot.sampled_potential(grid.nodes) if pot is not None else None
    n = grid.n_points

    def nonlinear(uh):
        u = scipy.fft.irfft(uh, n=n)
        if v is None:
            return (-0.5 * dflux) * scipy.fft.rfft(u * u)
        return dflux * scipy.fft.rfft(u * (v - 0.5 * u))
    return tables, nonlinear


def _allocating_linearized_rhs(grid, dt, forcing):
    """-d_y(q v) + P v + d_y f around q = 4/(1 + y^2): the exact symbol is
    i*xi*(1 + |xi|) and P v = <v, (q')^2>/(4 pi) q'."""
    xi = grid.rfft_wavenumbers
    tables = _contour_tables(_odd_symbol(1j * xi * (1.0 + np.abs(xi))), dt)
    dxi = _odd_symbol(1j * xi)
    qp = profile_derivative(grid.nodes)
    qp_hat = scipy.fft.rfft(qp)
    neg_w = -profile(grid.nodes)
    n = grid.n_points
    force = dxi * scipy.fft.rfft(forcing.values)

    def nonlinear(vh):
        v = scipy.fft.irfft(vh, n=n)
        coef = grid.spacing * float(v @ (qp * qp)) / (4.0 * np.pi)
        return dxi * scipy.fft.rfft(neg_w * v) + force + coef * qp_hat
    return tables, nonlinear


class TestBufferedStep:
    """The in-place step of ``_evolve`` against the plain allocating formula."""

    N_STEPS, DT = 5, 0.01

    def _reference(self, initial, rhs):
        tables, nonlinear = rhs
        n = initial.field.grid.n_points
        uh = scipy.fft.rfft(initial.field.values)
        states = []
        for _ in range(self.N_STEPS):
            uh = _allocating_step(tables, uh, nonlinear)
            states.append(scipy.fft.irfft(uh, n=n))
        return np.array(states)

    @pytest.mark.parametrize("pot", [None, PotentialSpec.bump(0.1)],
                             ids=["free", "bump"])
    def test_pbo_bit_identical(self, pot):
        g = Grid(1024, 256.0)
        initial = EvolutionState(0.0, _perturbed_soliton(g), pot)
        res = evolve_pbo(initial, self.N_STEPS * self.DT, self.DT)
        got = np.array([s.field.values for s in res.states[1:]])
        want = self._reference(initial, _allocating_pbo_rhs(g, self.DT, pot))
        assert np.array_equal(got, want)

    def test_linearized_bit_identical(self):
        g = Grid(1024, 256.0)
        force = _linearized_forcing(g)
        initial = EvolutionState(0.0, Field(g, np.exp(-((g.nodes - 5.0) / 6.0) ** 2)
                                            * np.sin(0.7 * g.nodes)))
        res = evolve_linearized(initial, self.N_STEPS * self.DT, self.DT, forcing=force)
        got = np.array([s.field.values for s in res.states[1:]])
        want = self._reference(initial, _allocating_linearized_rhs(g, self.DT, force))
        assert np.array_equal(got, want)

    def test_concurrent_runs_own_their_buffers(self):
        # two runs of one grid, dt and potential from different data: work
        # buffers shared between them would mix them
        g = Grid(1024, 256.0)
        pot = PotentialSpec.bump(0.1)

        def member(centre):
            res = evolve_pbo(EvolutionState(0.0, _perturbed_soliton(g, centre), pot),
                             0.5, self.DT, snapshot_stride=10)
            return np.array([s.field.values for s in res.states])

        centres = (3.0, -3.0)
        serial = [member(c) for c in centres]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=2) as pool:
                futures = [pool.submit(member, c) for c in centres]
                threaded = [f.result(timeout=120) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        for a, b in zip(serial, threaded):
            assert np.array_equal(a, b)


class TestTableBuild:
    """The row-block build of the contour tables against the whole-array formula."""

    @staticmethod
    def _symbols(grid):
        xi = grid.rfft_wavenumbers
        return {"pbo": _odd_symbol(1j * xi * np.abs(xi)),
                "linearized": _odd_symbol(1j * xi * (1.0 + np.abs(xi)))}

    @pytest.mark.parametrize("n, length", [(1024, 256.0), (8192, 1024.0)])
    @pytest.mark.parametrize("dt", [0.01, 0.02, 0.05])
    def test_tables_bit_identical(self, n, length, dt):
        for symbol in self._symbols(Grid(n, length)).values():
            got = _Etdrk4Tables(symbol, dt)
            want = _contour_tables(symbol, dt)
            for name in ("e_full", "e_half", "stage", "w1", "w2x2", "w3"):
                assert np.array_equal(getattr(got, name), getattr(want, name)), name

    def test_build_memory_bounded_by_one_block(self):
        # the whole 4097 x 64 contour array is 4.2 MB per complex temporary,
        # and a whole-array build peaks at about 20 MB
        symbol = self._symbols(Grid(8192, 1024.0))["pbo"]
        tracemalloc.start()
        try:
            _Etdrk4Tables(symbol, 0.01)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4e6


class TestPboFlux:
    """Under a potential the whole flux u (V - u/2) is dealiased."""

    def test_one_dealiased_flux(self):
        g = Grid(1024, 256.0)
        pot = PotentialSpec.bump(0.1)
        _, nonlinear = _pbo_flow(g, 0.01, pot)
        uh = scipy.fft.rfft(_perturbed_soliton(g).values)
        got = np.empty_like(uh)
        nonlinear(uh, got)

        # the two-row formula: 2/3 rule on u^2 only, V u undealiased
        xi = g.rfft_wavenumbers
        kept = xi <= (2.0 / 3.0) * xi[-1]
        dxi = 1j * xi
        dxi[-1] = 0.0
        u = scipy.fft.irfft(uh, n=g.n_points)
        v = pot.sampled_potential(g.nodes)
        two_rows = (np.where(kept, -0.5 * dxi, 0.0) * scipy.fft.rfft(u * u)
                    + dxi * scipy.fft.rfft(v * u))

        assert np.all(got[~kept] == 0.0)
        assert np.any(two_rows[~kept] != 0.0)     # V u reaches above the cutoff
        err = np.max(np.abs(got[kept] - two_rows[kept]))
        assert err <= 1e-12 * np.max(np.abs(two_rows[kept]))


class TestDriver:
    @pytest.mark.parametrize("flow", ["pbo-free", "pbo-potential", "linearized"])
    def test_eight_fft_calls_per_step(self, flow, monkeypatch):
        # the state stays spectral: one irfft and one (batched) rfft per
        # stage, all on scipy.fft; snapshots are taken off by differencing
        # two run lengths
        g = Grid(256, 64.0)
        if flow == "linearized":
            initial = EvolutionState(0.0, Field(g, 0.1 * np.exp(-g.nodes ** 2)))
            force = _linearized_forcing(g)

            def run(n, stride):
                return evolve_linearized(initial, n * 0.01, 0.01, forcing=force,
                                         snapshot_stride=stride)
        else:
            pot = PotentialSpec.bump(0.1) if flow == "pbo-potential" else None
            initial = EvolutionState(0.0, _perturbed_soliton(g), pot)

            def run(n, stride):
                return evolve_pbo(initial, n * 0.01, 0.01, snapshot_stride=stride)

        run(2, 100)                  # builds the cached tables
        calls = []
        for name in ("rfft", "irfft"):
            original = getattr(scipy.fft, name)

            def counted(*args, _original=original, **kwargs):
                calls.append(1)
                return _original(*args, **kwargs)
            monkeypatch.setattr(scipy.fft, name, counted)

        def per_step(stride):
            counts = []
            for n in (3, 8):
                calls.clear()
                run(n, stride)
                counts.append(len(calls))
            return (counts[1] - counts[0]) / 5

        assert per_step(100) == 8
        # a snapshot adds its one irfft: the pBO blow-up guard reads the spectrum
        assert per_step(1) == 9

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

    @pytest.mark.parametrize("t_end", [0.0, -1.0, float("nan"), float("inf")])
    def test_evolve_t_end_must_be_finite_and_positive(self, grid_small, t_end):
        # a run of no step has nothing to gate
        state = EvolutionState(0.0, Field.zeros(grid_small))
        for evolve in (evolve_pbo, evolve_linearized):
            with pytest.raises(ConfigurationError, match="t_end must be finite and positive"):
                evolve(state, t_end, 0.01)

    @pytest.mark.parametrize("t_end", [1e-12, 0.004])
    def test_evolve_takes_at_least_one_step(self, grid_small, t_end):
        # 1e-12 is within the multiple-of-dt tolerance of zero steps
        state = EvolutionState(0.0, Field.zeros(grid_small))
        for evolve in (evolve_pbo, evolve_linearized):
            with pytest.raises(ConfigurationError, match=r"whole number \(at least one\)"):
                evolve(state, t_end, 0.01)

    @pytest.mark.parametrize("stride", [0, -5])
    def test_evolve_snapshot_stride_at_least_one(self, grid_small, stride):
        state = EvolutionState(0.0, Field.zeros(grid_small))
        for evolve in (evolve_pbo, evolve_linearized):
            with pytest.raises(ConfigurationError, match="snapshot_stride must be at least 1"):
                evolve(state, 0.1, 0.01, snapshot_stride=stride)


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
        with pytest.raises(UsageError):
            read_checkpoint(path)

    def test_potential_is_not_stored(self, tmp_path, grid_small):
        pot = PotentialSpec.bump(0.1, 0.2, 1.0)
        path = tmp_path / "snap.bosl"
        write_checkpoint(path, EvolutionState(0.5, Field.zeros(grid_small), pot))
        assert read_checkpoint(path).potential is None

    @staticmethod
    def _edited(tmp_path, grid, edit):
        """A checkpoint of a zero field at t = 0.5 whose bytes `edit` rewrote."""
        path = tmp_path / "snap.bosl"
        write_checkpoint(path, EvolutionState(0.5, Field.zeros(grid)))
        path.write_bytes(edit(path.read_bytes()))
        return path

    @pytest.mark.parametrize("n", [2 ** 61, 2 ** 63], ids=["2^61", "2^63"])
    def test_huge_sample_count_rejected(self, tmp_path, grid_small, n):
        # 8 N bytes overflow a 64-bit count: the payload check, not numpy, says no
        path = self._edited(tmp_path, grid_small,
                            lambda raw: raw[:9] + struct.pack("<Q", n) + raw[17:])
        with pytest.raises(UsageError, match="sample bytes"):
            read_checkpoint(path)

    @pytest.mark.parametrize("edit", [lambda raw: raw + bytes(1),
                                      lambda raw: raw + bytes(8),
                                      lambda raw: raw[:-1]],
                             ids=["one-trailing-byte", "one-trailing-sample",
                                  "one-byte-short"])
    def test_payload_must_be_exactly_n_samples(self, tmp_path, grid_small, edit):
        with pytest.raises(UsageError, match="sample bytes"):
            read_checkpoint(self._edited(tmp_path, grid_small, edit))

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_non_finite_time_rejected(self, tmp_path, grid_small, t):
        path = self._edited(tmp_path, grid_small,
                            lambda raw: raw[:25] + struct.pack("<d", t) + raw[33:])
        with pytest.raises(UsageError, match="non-finite time"):
            read_checkpoint(path)
