"""Potential shapes on the scalar path and the parameter-ODE integrators."""

import math

import numpy as np
import pytest

from bolab import (ExperimentConfig, PotentialSpec, gronwall_compare,
                   gronwall_sweep, integrate_exact, integrate_reference,
                   trajectories)
from bolab.experiments import _horizon


# ---------------------------------------------------------------------------
# reference stepper: (a, c) as a 2-element array, W from the array path
# ---------------------------------------------------------------------------

def _array_derivatives(pot, a):
    return tuple(float(v[0]) for v in pot.shape_derivatives(np.array([a])))


def _array_rk4_step(rhs, y, ds):
    k1 = rhs(y)
    k2 = rhs(y + 0.5 * ds * k1)
    k3 = rhs(y + 0.5 * ds * k2)
    k4 = rhs(y + ds * k3)
    return y + ds / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _array_reference_rhs(pot):
    def rhs(y):
        a, c = y
        w, w1, _, _ = _array_derivatives(pot, a)
        return np.array([c - w, c * w1])
    return rhs


def _array_exact_rhs(pot):
    h2 = pot.h ** 2
    def rhs(y):
        a, c = y
        w, w1, w2, w3 = _array_derivatives(pot, a)
        return np.array([c - w + 0.5 * h2 * w2 / c ** 2,
                         c * w1 + 0.5 * h2 * w3 / c])
    return rhs


def _array_integrate(rhs, s_end, ds, y0=(0.0, 1.0)):
    """Fixed-step RK4 from y0 without stop events."""
    steps = int(math.ceil(s_end / ds - 1e-12))
    y = np.array(y0)
    times, ys = [0.0], [y.copy()]
    for k in range(steps):
        y = _array_rk4_step(rhs, y, min(ds, s_end - k * ds))
        times.append(min((k + 1) * ds, s_end))
        ys.append(y.copy())
    arr = np.array(ys)
    return np.array(times), arr[:, 0], arr[:, 1]


# ---------------------------------------------------------------------------
# shape derivatives: scalar path against the array path
# ---------------------------------------------------------------------------

class TestShapeDerivatives:
    WIDTH = 1.3
    EDGE = 1.0 - 1e-12

    def _points(self):
        w = self.WIDTH
        inner_t = np.linspace(-0.999, 0.999, 41)
        near = [self.EDGE * (1 - 1e-15), -self.EDGE * (1 - 1e-15), 0.99999]
        edge = [1.0, -1.0, self.EDGE, 1.0 + 1e-9, 1.2, -3.0]
        return [0.0] + [w * t for t in inner_t] + [w * t for t in near + edge]

    @pytest.mark.parametrize("kind", [float, np.float64, int, np.array])
    def test_scalar_matches_array(self, kind):
        # ints and 0-d arrays (np.array(s)) are rank 0 without being floats
        pot = PotentialSpec.bump(0.1, amplitude=0.7, width=self.WIDTH)
        pts = [kind(s) for s in self._points()]
        arrays = pot.shape_derivatives(np.array(pts, dtype=float))
        for j, s in enumerate(pts):
            got = pot.shape_derivatives(s)
            assert type(got) is tuple and len(got) == 4
            assert all(type(v) is float for v in got)
            want = [float(v[j]) for v in arrays]
            np.testing.assert_allclose(got, want, rtol=1e-11, atol=0.0)

    def test_zero_outside_support(self):
        pot = PotentialSpec.bump(0.1, width=self.WIDTH)
        for s in (self.WIDTH, -self.WIDTH, self.WIDTH * self.EDGE, 5.0):
            assert pot.shape_derivatives(s) == (0.0, 0.0, 0.0, 0.0)
        assert pot.shape_derivatives(0.0)[0] == pytest.approx(0.2 * math.exp(-1.0))

    def test_specs_compare_by_key(self):
        # the evolution layer caches its tables per potential
        assert PotentialSpec.bump(0.1) == PotentialSpec.bump(0.1)
        assert hash(PotentialSpec.bump(0.1)) == hash(PotentialSpec.bump(0.1))
        assert PotentialSpec.bump(0.1) != PotentialSpec.bump(0.1, amplitude=0.3)
        assert PotentialSpec.bump(0.1) != PotentialSpec.bump(0.1, width=2.0)
        assert PotentialSpec.bump(0.1) != "bump"

    def test_shape_key_is_key_without_h(self):
        assert PotentialSpec.bump(0.1, 0.3, 1.5).key() == ("bump", 0.1, 0.3, 1.5)
        assert PotentialSpec.bump(0.1, 0.3, 1.5).shape_key() == ("bump", 0.3, 1.5)
        assert PotentialSpec.bump(0.1).shape_key() == PotentialSpec.bump(0.05).shape_key()
        assert (PotentialSpec.bump(0.1).shape_key()
                != PotentialSpec.bump(0.1, amplitude=0.3).shape_key())


# ---------------------------------------------------------------------------
# integrators
# ---------------------------------------------------------------------------

class TestIntegrators:
    def test_reference_matches_array_stepper(self):
        pot = PotentialSpec.bump(0.1)
        tr = integrate_reference(pot, 2.0)
        times, pos, sc = _array_integrate(_array_reference_rhs(pot), 2.0, 1e-3)
        assert tr.stop_time is None
        for got, want in ((tr.times, times), (tr.positions, pos), (tr.scales, sc)):
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-14)

    def test_exact_matches_array_stepper(self):
        pot = PotentialSpec.bump(0.1)
        tr = integrate_exact(pot, 2.0)
        times, pos, sc = _array_integrate(_array_exact_rhs(pot), 2.0, 1e-3)
        for got, want in ((tr.times, times), (tr.positions, pos), (tr.scales, sc)):
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-14)

    def test_exact_starts_from_y0(self):
        pot = PotentialSpec.bump(0.1)
        y0 = (0.05, 1.0107)
        tr = integrate_exact(pot, 2.0, y0=y0)
        assert (tr.positions[0], tr.scales[0]) == y0
        times, pos, sc = _array_integrate(_array_exact_rhs(pot), 2.0, 1e-3, y0)
        for got, want in ((tr.times, times), (tr.positions, pos), (tr.scales, sc)):
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-14)
        # the default start is (0, 1), bit for bit
        default = integrate_exact(pot, 2.0)
        explicit = integrate_exact(pot, 2.0, y0=(0.0, 1.0))
        assert np.array_equal(default.positions, explicit.positions)
        assert np.array_equal(default.scales, explicit.scales)

    def test_scale_event_stops_reference_flow(self):
        tr = integrate_reference(PotentialSpec.bump(0.1, amplitude=1.2), 4.0)
        assert tr.stop_time == pytest.approx(1.5252365775, abs=1e-9)
        assert tr.times[-1] == tr.stop_time
        assert abs(tr.scales[-1] - 0.5) <= 1e-9

    def test_zero_potential_is_free_translation(self):
        tr = integrate_exact(PotentialSpec.bump(0.1, amplitude=0.0), 1.0)
        np.testing.assert_allclose(tr.positions, tr.times, rtol=0.0, atol=1e-12)
        assert np.all(tr.scales == 1.0)

    def test_deviation_order_is_two(self):
        rep = gronwall_sweep(lambda h: PotentialSpec.bump(h), (0.2, 0.1, 0.05), 2.0)
        assert rep.fitted_order == pytest.approx(2.0, abs=0.2)
        assert rep.sup_dev_scale == max(p[2] for p in rep.per_h)

    def test_sweep_matches_both_flows_per_h(self):
        hs = (0.2, 0.1, 0.05)
        want = []
        for h in hs:
            pot = PotentialSpec.bump(h)
            rep = gronwall_compare(integrate_reference(pot, 2.0),
                                   integrate_exact(pot, 2.0))
            want.append((h, rep.sup_dev_position, rep.sup_dev_scale))
        assert gronwall_sweep(lambda h: PotentialSpec.bump(h), hs, 2.0).per_h == want

    @pytest.mark.parametrize("factory, expected", [
        (lambda h: PotentialSpec.bump(h), [0.2]),
        (lambda h: PotentialSpec.bump(h, amplitude=h), [0.2, 0.1, 0.05]),
    ])
    def test_sweep_integrates_reference_once_per_shape(self, monkeypatch,
                                                       factory, expected):
        calls = []
        real = trajectories.integrate_reference
        def counting(pot, s_end, ds=1e-3):
            calls.append(pot.h)
            return real(pot, s_end, ds)
        monkeypatch.setattr(trajectories, "integrate_reference", counting)
        gronwall_sweep(factory, (0.2, 0.1, 0.05), 0.5)
        assert calls == expected

    def test_csv_cells_are_float_reprs(self, tmp_path):
        tr = integrate_exact(PotentialSpec.bump(0.1), 0.05)
        trajectories.write_trajectory_csv(tmp_path / "t.csv", tr)
        lines = (tmp_path / "t.csv").read_text().splitlines()
        assert lines[0] == "s,A,C,kind,frame"
        assert lines[1:] == [
            f"{float(t)!r},{float(a)!r},{float(c)!r},exact,slow_s"
            for t, a, c in zip(tr.times, tr.positions, tr.scales)]


# ---------------------------------------------------------------------------
# the sweep horizon needs the reference flow only up to h*T0
# ---------------------------------------------------------------------------

def _horizon_to_s4(cfg, pot, h):
    """The horizon computed from the reference flow run to max(4, 2 h T0)."""
    t0 = math.log(1.0 / h) / (4.0 * cfg.mu0 * h)
    ref = integrate_reference(pot, s_end=max(4.0, 2.0 * h * t0), ds=1e-3)
    if ref.stop_time is not None:
        t0 = min(t0, ref.stop_time / h)
    dt_snap = cfg.dt * cfg.snapshot_stride
    return max(dt_snap, math.floor(t0 / dt_snap) * dt_snap)


class TestHorizon:
    @pytest.mark.parametrize("h", [0.1, 0.05, 0.025])
    def test_default_members(self, h):
        cfg = ExperimentConfig()
        pot = PotentialSpec.bump(h, cfg.bump_amplitude, cfg.bump_width)
        assert _horizon(cfg, pot, h) == _horizon_to_s4(cfg, pot, h)

    def test_scale_event_sets_horizon(self):
        cfg = ExperimentConfig()
        h = 0.001
        pot = PotentialSpec.bump(h, amplitude=1.2)
        t0 = math.log(1.0 / h) / (4.0 * cfg.mu0 * h)
        got = _horizon(cfg, pot, h)
        assert got == _horizon_to_s4(cfg, pot, h)
        assert got < t0 - 100.0                  # the event at s ~ 1.525 < h*T0
        assert got == pytest.approx(1525.2, abs=1e-9)
