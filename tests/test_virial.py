"""Local-smoothing diagnostics: the forcing remainder, the smoothing
integral and the sweep that combines them."""

import numpy as np
import pytest
import scipy.fft

from bolab import (ConfigurationError, EvolutionState, Field, Grid,
                   LocalizerSpec, SymmetricOperator, UsageError, derivative,
                   evolve_linearized, g_remainder, inner, l2_norm,
                   local_smoothing_lhs, localizer, sobolev_norm, virial_sweep)
from bolab.grid import dgamma_inverse, dgamma_inverse_adjoint
from bolab.soliton import profile, profile_derivative

from conftest import random_band_limited, traced_peak

GAMMA = 0.3
SPEC = LocalizerSpec(0.2, 4.0)
DT = 0.05


@pytest.fixture(scope="module")
def grid():
    return Grid(1024, 128.0)


def _bump(grid, centre, width=4.0):
    return Field(grid, np.exp(-((grid.nodes - centre) / width) ** 2))


def _snapshots(grid, n=7):
    rng = np.random.default_rng(3)
    return [random_band_limited(grid, rng, max_mode_frac=0.1,
                                envelope=lambda y: np.exp(-(y / 20.0) ** 2))
            for _ in range(n)]


def _direct_g_remainder(vs, fs, dt, spec, gamma):
    """The two pairings of every snapshot, each transformed on its own."""
    grid = vs[0].grid
    g_y0, _ = localizer(spec, grid)
    g_0, _ = localizer(LocalizerSpec(spec.gamma, 0.0), grid)
    lin = SymmetricOperator.linearized(grid)

    def dual(f):
        return dgamma_inverse(lin.apply(f), gamma)

    terms = []
    for v, f in zip(vs, fs):
        fy = derivative(f)
        terms.append(inner(g_y0 * v, fy) + inner(g_0 * dual(v), dual(fy)))
    return dt * (sum(terms) - 0.5 * (terms[0] + terms[-1]))


def _forcings(grid, kind, n):
    if kind == "static":
        return [_bump(grid, -3.0)] * n
    if kind == "distinct":
        return [_bump(grid, -3.0 + 0.5 * k) for k in range(n)]
    return [_bump(grid, -3.0) for _ in range(n)]      # equal values, new objects


class TestGRemainder:
    @pytest.mark.parametrize("kind", ["static", "distinct", "equal-copies"])
    def test_matches_the_two_pairings(self, grid, kind):
        vs = _snapshots(grid)
        fs = _forcings(grid, kind, len(vs))
        got = g_remainder(vs, fs, DT, SPEC, GAMMA)
        want = _direct_g_remainder(vs, fs, DT, SPEC, GAMMA)
        assert got == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("kind, per_call, per_snapshot",
                             [("static", 10, 0), ("equal-copies", 0, 10)])
    def test_fft_calls(self, grid, kind, per_call, per_snapshot, monkeypatch):
        # one weight per distinct forcing object: 10 FFTs to build it,
        # then one quadrature per snapshot
        calls = []
        for name in ("rfft", "irfft"):
            original = getattr(scipy.fft, name)

            def counted(*args, _original=original, **kwargs):
                calls.append(1)
                return _original(*args, **kwargs)
            monkeypatch.setattr(scipy.fft, name, counted)
        for n in (3, 7):
            vs = _snapshots(grid, n)
            calls.clear()
            g_remainder(vs, _forcings(grid, kind, n), DT, SPEC, GAMMA)
            assert len(calls) == per_call + per_snapshot * n

    def test_adjoint_identity(self, grid):
        # <R L a, b> = <a, L R^* b>, the step that folds the dual pairing onto v
        rng = np.random.default_rng(11)
        lin = SymmetricOperator.linearized(grid)
        for _ in range(3):
            a = random_band_limited(grid, rng)
            b = random_band_limited(grid, rng)
            dual_a = dgamma_inverse(lin.apply(a), GAMMA)
            lhs = inner(dual_a, b)
            rhs = inner(a, lin.apply(dgamma_inverse_adjoint(b, GAMMA)))
            scale = l2_norm(dual_a) * l2_norm(b)
            assert abs(lhs - rhs) <= 1e-13 * scale

    def test_rejects_bad_input(self, grid):
        vs = _snapshots(grid, 3)
        fs = _forcings(grid, "static", 3)
        with pytest.raises(UsageError, match="match in length"):
            g_remainder(vs, fs[:2], DT, SPEC, GAMMA)
        with pytest.raises(UsageError, match="at least two"):
            g_remainder(vs[:1], fs[:1], DT, SPEC, GAMMA)
        for dt in (0.0, -DT):
            with pytest.raises(ConfigurationError, match="dt must be finite and positive"):
                g_remainder(vs, fs, dt, SPEC, GAMMA)


class TestLocalSmoothing:
    def test_matches_a_hand_trapezoid(self, grid):
        vs = _snapshots(grid)
        _, gp = localizer(SPEC, grid)
        vals = [sobolev_norm(Field(grid, np.sqrt(gp.values) * v.values), 0.5) ** 2
                for v in vs]
        want = DT * (0.5 * vals[0] + sum(vals[1:-1]) + 0.5 * vals[-1])
        assert local_smoothing_lhs(vs, DT, SPEC) == pytest.approx(want, rel=1e-14)

    def test_rejects_bad_input(self, grid):
        vs = _snapshots(grid, 3)
        with pytest.raises(UsageError, match="at least two"):
            local_smoothing_lhs(vs[:1], DT, SPEC)
        for dt in (0.0, -DT):
            with pytest.raises(ConfigurationError, match="dt must be finite and positive"):
                local_smoothing_lhs(vs, dt, SPEC)


def _run(grid):
    y = grid.nodes
    v0 = _bump(grid, 3.0, 5.0) * Field(grid, np.sin(0.8 * y))
    for g in (Field(grid, profile(y)), Field(grid, profile_derivative(y))):
        v0 = v0 - (inner(v0, g) / inner(g, g)) * g
    # initial, forcing, t_end, dt, snapshot_stride
    return v0, 0.1 * _bump(grid, -5.0, 6.0), 0.5, 0.01, 5


def test_sweep_matches_per_window_calls(grid):
    initial, forcing, t_end, dt, stride = run = _run(grid)
    gammas, y0s = (0.05, 0.2), (-10.0, 0.0)
    reports = virial_sweep(*run, gammas, y0s)
    res = evolve_linearized(EvolutionState(0.0, initial), t_end, dt,
                            forcing=forcing, snapshot_stride=stride)
    fields = [s.field for s in res.states]
    dt_snap = float(res.times[1] - res.times[0])
    assert len(reports) == 2 * len(gammas) * len(y0s)
    it = iter(reports)
    for gamma in gammas:
        for y0 in y0s:
            spec = LocalizerSpec(gamma, y0)
            for n_keep in (6, 11):
                window = fields[:n_keep]
                r = next(it)
                assert (r.gamma, r.y0, r.T) == (gamma, y0, (n_keep - 1) * dt_snap)
                assert r.lhs == local_smoothing_lhs(window, dt_snap, spec)
                assert r.rhs_norm == max(l2_norm(f) for f in window) ** 2
                assert r.g_remainder == g_remainder(
                    window, [forcing] * n_keep, dt_snap, spec, gamma)
                assert r.ratio == r.lhs / (r.rhs_norm + abs(r.g_remainder))


def test_sweep_windows_span_whole_snapshot_intervals(grid):
    # 52 steps at stride 5 would end on a state 2 steps after the last
    # snapshot; the full window of a whole run ends at t_end
    initial, forcing, t_end, dt, stride = _run(grid)
    with pytest.raises(ConfigurationError, match="multiple of the snapshot interval 0.05"):
        virial_sweep(initial, forcing, 0.52, dt, stride, (0.05,), (0.0,))
    half, full = virial_sweep(initial, forcing, t_end, dt, stride, (0.05,), (0.0,))
    assert (half.T, full.T) == pytest.approx((0.25, t_end), rel=1e-12)


def test_sweep_transforms_each_snapshot_once_per_centre(grid, monkeypatch):
    # beyond the evolution, each centre costs one localized transform per
    # snapshot and one forcing weight (10 FFTs), whatever the windows
    calls = []
    for name in ("rfft", "irfft"):
        original = getattr(scipy.fft, name)

        def counted(*args, _original=original, **kwargs):
            calls.append(1)
            return _original(*args, **kwargs)
        monkeypatch.setattr(scipy.fft, name, counted)
    initial, forcing, t_end, dt, stride = run = _run(grid)
    res = evolve_linearized(EvolutionState(0.0, initial), t_end, dt,
                            forcing=forcing, snapshot_stride=stride)
    evolution_calls = len(calls)
    calls.clear()
    gammas, y0s = (0.05, 0.2), (-10.0, 0.0)
    reports = virial_sweep(*run, gammas, y0s)
    assert len(res.states) == 11 and len(reports) == 8
    assert len(calls) - evolution_calls == len(gammas) * len(y0s) * (11 + 10)


def test_sweep_memory_stays_flat_in_the_horizon(grid):
    # the sweep keeps per-snapshot scalars, not fields: at 4 x the horizon
    # (101 -> 401 snapshots) its traced peak moves by less than a few
    # fields, where keeping the snapshots adds one field per snapshot
    initial, forcing, _, dt, _ = _run(grid)

    def peak(t_end):
        return traced_peak(lambda: virial_sweep(initial, forcing, t_end, dt, 1,
                                                (0.05,), (-10.0, 0.0)))
    peak(1.0)                       # warm the module caches
    one, four = peak(1.0), peak(4.0)
    assert four <= one + 4 * 8 * grid.n_points
