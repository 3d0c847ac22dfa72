"""Potential shapes on the scalar path and the parameter-ODE integrators."""

import csv
import math
import os
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from scipy.optimize import brentq

from bolab import (ExperimentConfig, PotentialSpec, fit_scaling_exponent,
                   gronwall_sweep, integrate_exact, integrate_reference,
                   potential, trajectories)
from bolab.cli import build_parser
from bolab.errors import ConfigurationError, UsageError
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


def _plain_integrate(rhs, s_end, ds, detect_stop, y0):
    """Every step through `trajectories._rk4_step`, with no free tail: the
    loop `_integrate` runs inside the support, kept as its bit-for-bit oracle."""
    steps = int(math.ceil(s_end / ds - 1e-12))
    y = (float(y0[0]), float(y0[1]))
    times, ys, stop = [0.0], [y], None
    for k in range(steps):
        step_len = min(ds, s_end - k * ds)
        y_next = trajectories._rk4_step(rhs, y, step_len)
        bound = trajectories._scale_event(y[1], y_next[1]) if detect_stop else None
        if bound is not None:
            part = brentq(lambda d: trajectories._rk4_step(rhs, y, d)[1] - bound,
                          0.0, step_len, xtol=1e-10)
            stop = k * ds + part
            times.append(stop)
            ys.append(trajectories._rk4_step(rhs, y, part))
            break
        y = y_next
        times.append(min((k + 1) * ds, s_end))
        ys.append(y)
    arr = np.array(ys)
    return np.array(times), arr[:, 0], arr[:, 1], stop


def _csv_writer_csv(path, tr):
    """The trajectory CSV through ``csv.writer``: the one-write writer's reference."""
    head = ["s", "A", "C"] if tr.frame == "slow_s" else ["t", "a", "c"]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(head + ["kind", "frame"])
        cols = (np.asarray(v, dtype=float).tolist()
                for v in (tr.times, tr.positions, tr.scales))
        for t, a, c in zip(*cols):
            w.writerow([repr(t), repr(a), repr(c), tr.kind, tr.frame])


# ---------------------------------------------------------------------------
# shape derivatives: scalar path against the array path
# ---------------------------------------------------------------------------

def _pow_chain(beta, w, s):
    """(W, W', W'', W''') of the bump by the ``**`` formula, on Python floats."""
    t = s / w
    if not abs(t) < 1.0 - 1e-12:
        return (0.0, 0.0, 0.0, 0.0)
    r = 1.0 - t * t
    phi = math.exp(-1.0 / r)
    g1 = -2.0 * t / r ** 2
    g2 = -2.0 / r ** 2 - 8.0 * t ** 2 / r ** 3
    g3 = -24.0 * t / r ** 3 - 48.0 * t ** 3 / r ** 4
    return (beta * phi,
            beta * phi * g1 / w,
            beta * phi * (g2 + g1 ** 2) / w ** 2,
            beta * phi * (g3 + 3.0 * g1 * g2 + g1 ** 3) / w ** 3)


class TestShapeDerivatives:
    WIDTH = 1.3
    EDGE = 1.0 - 1e-12

    def _points(self, w=WIDTH):
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
            # one chain on both paths: they differ by the ulps of exp only
            np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("width", [1.0, WIDTH])
    def test_chain_matches_power_formula(self, width):
        # rtol fixed before measuring: the product chain rounds each of its
        # ~12 operations differently from the ** chain, and the sums in W''
        # and W''' cancel near their zeros on the 41-point inner grid
        pot = PotentialSpec.bump(0.1, amplitude=0.7, width=width)
        pts = self._points(width)
        want = np.array([_pow_chain(0.7, width, s) for s in pts])
        scalar = np.array([pot.shape_derivatives(s) for s in pts])
        array = np.array(pot.shape_derivatives(np.array(pts))).T
        np.testing.assert_allclose(scalar, want, rtol=1e-10, atol=0.0)
        np.testing.assert_allclose(array, want, rtol=1e-10, atol=0.0)

    def test_zero_outside_support(self):
        pot = PotentialSpec.bump(0.1, width=self.WIDTH)
        for s in (self.WIDTH, -self.WIDTH, self.WIDTH * self.EDGE, 5.0):
            assert pot.shape_derivatives(s) == (0.0, 0.0, 0.0, 0.0)
        assert pot.shape_derivatives(0.0)[0] == pytest.approx(0.2 * math.exp(-1.0))

    @pytest.mark.parametrize("width", [0.5, 1.0, 3.0])
    def test_vanishes_where_the_scalar_path_is_zero(self, width):
        # the predicate and the scalar path's outside rule are one test: at
        # the edge, its three float neighbours either side and ten points
        # beyond, a "vanishes" is a scalar path that returns exact zeros
        pot = PotentialSpec.bump(0.1, amplitude=0.7, width=width)
        pts = []
        for sign in (1.0, -1.0):
            edge = sign * width * potential._BUMP_EDGE
            pts.append(edge)
            for direction in (math.inf, -math.inf):
                s = edge
                for _ in range(3):
                    s = float(np.nextafter(s, direction))
                    pts.append(s)
            pts += [edge + sign * width * d for d in np.geomspace(1e-12, 10.0, 10)]
        outside = [s for s in pts if pot.vanishes_at(s)]
        assert len(outside) >= 2 * 10
        for s in outside:
            assert pot.shape_derivatives(s) == (0.0, 0.0, 0.0, 0.0)
        assert not any(pot.vanishes_at(width * t) for t in (0.0, 0.5, -0.5, 0.999))

    def test_specs_compare_and_hash_by_value(self):
        a, b = PotentialSpec.bump(0.1, 0.3, 1.5), PotentialSpec(0.1, 0.3, 1.5)
        assert a is not b and a == b and hash(a) == hash(b)
        for other in (PotentialSpec.bump(0.05, 0.3, 1.5), PotentialSpec.bump(0.1, 0.2, 1.5),
                      PotentialSpec.bump(0.1, 0.3, 1.0)):
            assert other != a
        assert replace(a, h=0.05) == PotentialSpec.bump(0.05, 0.3, 1.5)
        with pytest.raises(FrozenInstanceError):
            a.h = 0.05


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

    @pytest.mark.parametrize("h", [0.1, 0.05])
    def test_exact_flow_is_covariant_under_doubling(self, h):
        # (C, amplitude, h, s) -> (2C, 2 amplitude, 2h, s/2) maps the corrected
        # ODE onto itself; every factor is a power of two, so the RK4 at ds/2
        # maps onto the RK4 at ds bit for bit
        ds = trajectories.ODE_STEP
        one = integrate_exact(PotentialSpec.bump(h, 0.2), 2.0, ds, y0=(0.0, 1.0))
        two = integrate_exact(PotentialSpec.bump(2 * h, 0.4), 1.0, ds / 2, y0=(0.0, 2.0))
        assert one.times.size == 2001
        assert np.array_equal(two.times, one.times / 2)
        assert np.array_equal(two.positions, one.positions)
        assert np.array_equal(two.scales, 2 * one.scales)

    def test_scale_event_stops_reference_flow(self):
        tr = integrate_reference(PotentialSpec.bump(0.1, amplitude=1.2), 4.0)
        assert tr.stop_time == pytest.approx(1.5252365775, abs=1e-9)
        assert tr.times[-1] == tr.stop_time
        assert abs(tr.scales[-1] - 0.5) <= 1e-9

    @pytest.mark.parametrize("amplitude, bisection_stop", [(1.2, 1.5252365775406362),
                                                           (2.0, 2.4693173962533472)])
    def test_scale_event_root(self, amplitude, bisection_stop):
        # the root of C(partial step) = 1/2 lies within 1e-10 of the stop
        # time an 80-step bisection gave; the steps before it are the plain
        # stepper's, bit for bit
        pot = PotentialSpec.bump(0.1, amplitude=amplitude)
        tr = integrate_reference(pot, 4.0)
        assert abs(tr.stop_time - bisection_stop) <= 1e-10
        assert abs(tr.scales[-1] - 0.5) <= 1e-10
        times, pos, sc, stop = trajectories._integrate(
            trajectories._reference_rhs(pot), pot, 4.0, 1e-3, False, (0.0, 1.0))
        assert stop is None and times[-1] == 4.0
        n = tr.times.size - 1                   # the samples before the event
        assert _same_bits([v[:n] for v in _arrays(tr)], (times[:n], pos[:n], sc[:n]))
        assert times[n - 1] < tr.stop_time < times[n]

    def test_zero_potential_is_free_translation(self):
        tr = integrate_exact(PotentialSpec.bump(0.1, amplitude=0.0), 1.0)
        np.testing.assert_allclose(tr.positions, tr.times, rtol=0.0, atol=1e-12)
        assert np.all(tr.scales == 1.0)

    def test_deviation_order_is_two(self):
        rep = gronwall_sweep(lambda h: PotentialSpec.bump(h), (0.2, 0.1, 0.05), 2.0)
        assert rep.fitted_order == pytest.approx(2.0, abs=0.2)
        assert rep.sup_dev_scale == max(p[2] for p in rep.per_h)

    def test_sweep_matches_both_flows_per_h(self):
        # a shape that varies with h: one reference flow per h
        hs = (0.2, 0.1, 0.05, 0.025)
        want = []
        for h in hs:
            pot = PotentialSpec.bump(h, amplitude=h)
            ref, ex = integrate_reference(pot, 1.5), integrate_exact(pot, 1.5)
            assert ref.stop_time is None
            want.append((h, float(np.max(np.abs(ref.positions - ex.positions))),
                         float(np.max(np.abs(ref.scales - ex.scales)))))
        per_h = gronwall_sweep(lambda h: PotentialSpec.bump(h, amplitude=h), hs, 1.5).per_h
        assert per_h == want
        assert all(type(v) is float for row in per_h for v in row)

    def test_default_sweep_is_the_sup_over_every_shared_sample(self):
        # the `bolab trajectories` defaults; the samples are matched by their
        # times, and every sample of both flows is shared
        args, cfg = build_parser().parse_args(["trajectories"]), ExperimentConfig()
        def factory(h):
            return PotentialSpec.bump(h, cfg.bump_amplitude, cfg.bump_width)
        rep = gronwall_sweep(factory, args.h_sweep, args.s_end)
        for h, dev_a, dev_c in rep.per_h:
            ref = integrate_reference(factory(h), args.s_end)
            ex = integrate_exact(factory(h), args.s_end)
            assert np.array_equal(ref.times, ex.times)
            assert dev_a == np.max(np.abs(ref.positions - ex.positions))
            assert dev_c == np.max(np.abs(ref.scales - ex.scales))

    def test_stopped_reference_sup_leaves_out_only_the_stop_sample(self):
        # the reference stops at s = 2.469 inside a step; the corrected flow
        # runs to s_end on the same grid
        def factory(h):
            return PotentialSpec.bump(h, amplitude=2.0)
        rep = gronwall_sweep(factory, (0.2, 0.1, 0.05), 4.0)
        for h, dev_a, dev_c in rep.per_h:
            ref, ex = integrate_reference(factory(h), 4.0), integrate_exact(factory(h), 4.0)
            n = ref.times.size - 1
            assert ref.times[-1] == ref.stop_time and ex.times[-1] == 4.0
            assert np.array_equal(ref.times[:n], ex.times[:n])
            assert ex.times[n - 1] < ref.stop_time < ex.times[n]
            assert dev_a == np.max(np.abs(ref.positions[:n] - ex.positions[:n]))
            assert dev_c == np.max(np.abs(ref.scales[:n] - ex.scales[:n]))

    @pytest.mark.parametrize("factory, expected", [
        (lambda h: PotentialSpec.bump(h), [0.2]),
        (lambda h: PotentialSpec.bump(h, amplitude=h), [0.2, 0.1, 0.05]),
    ])
    def test_sweep_integrates_reference_once_per_shape(self, monkeypatch,
                                                       factory, expected):
        # records the amplitude of each reference integration that runs,
        # not of the public calls
        calls = []
        real = trajectories._reference_rhs
        def counting(pot):
            calls.append(pot.amplitude)
            return real(pot)
        monkeypatch.setattr(trajectories, "_reference_rhs", counting)
        trajectories._integrated.cache_clear()
        gronwall_sweep(factory, (0.2, 0.1, 0.05), 0.5)
        assert calls == expected

    @pytest.mark.parametrize("hs", [(0.1, 0.1), (0.2, 0.1, 0.2)])
    def test_sweep_rejects_repeated_h(self, hs):
        # two equal h give a degenerate log-log fit
        trajectories._integrated.cache_clear()
        with pytest.raises(UsageError, match="must be distinct"):
            gronwall_sweep(lambda h: PotentialSpec.bump(h), hs, 0.5)
        assert _cache_info().misses == 0

    def test_sweep_needs_three_h_values(self):
        # two h give a slope with no error estimate
        trajectories._integrated.cache_clear()
        with pytest.raises(UsageError, match="at least three h values, got"):
            gronwall_sweep(lambda h: PotentialSpec.bump(h), (0.2, 0.1), 0.5)
        assert _cache_info().misses == 0

    def test_identical_flows_have_no_order(self):
        # with W = 0 both flows are A = s, C = 1: every deviation is 0
        rep = gronwall_sweep(lambda h: PotentialSpec.bump(h, amplitude=0.0),
                             (0.2, 0.1, 0.05), 0.5)
        assert [p[1:] for p in rep.per_h] == [(0.0, 0.0)] * 3
        assert rep.fitted_order is None

    def test_csv_cells_are_float_reprs(self, tmp_path):
        tr = integrate_exact(PotentialSpec.bump(0.1), 0.05)
        trajectories.write_trajectory_csv(tmp_path / "t.csv", tr)
        lines = (tmp_path / "t.csv").read_text().splitlines()
        assert lines[0] == "s,A,C,kind,frame"
        assert lines[1:] == [
            f"{float(t)!r},{float(a)!r},{float(c)!r},exact,slow_s"
            for t, a, c in zip(tr.times, tr.positions, tr.scales)]

    def test_csv_bytes_match_csv_writer(self, tmp_path):
        ex = integrate_exact(PotentialSpec.bump(0.1), 0.05)
        stopped = integrate_reference(PotentialSpec.bump(0.1, amplitude=1.2), 4.0)
        assert stopped.stop_time is not None
        for k, tr in enumerate((ex, trajectories.convert_frame(ex, 0.1), stopped)):
            got, want = tmp_path / f"got{k}.csv", tmp_path / f"want{k}.csv"
            trajectories.write_trajectory_csv(got, tr)
            _csv_writer_csv(want, tr)
            assert got.read_bytes() == want.read_bytes()


class TestFreeTail:
    """Right of the bump `_integrate` writes the rest of the flow in closed
    form; every TrajectoryState must be the plain loop's, bit for bit."""

    CASES = [   # (h, amplitude, width, s_end, ds, y0)
        (0.1, 0.2, 1.0, 2.0, 1e-3, (0.0, 1.0)),       # the tail from s ~ 1.08
        (0.1, 0.2, 1.0, 2.0005, 1e-3, (0.0, 1.0)),    # a partial last step
        (0.1, 0.2, 1.0, 3.3, 7e-4, (0.0, 1.0)),       # ds does not divide s_end
        (0.1, 0.2, 1.0, 2.0, 1e-3, (1.5, 1.0)),       # the tail from step 0
        (0.1, 3.0, 1.0, 4.0, 1e-3, (0.0, 1.0)),       # reflected: no tail
        (0.1, -3.0, 1.0, 4.0, 1e-3, (0.0, 1.0)),      # C ~ 1.79 on the tail
        (0.1, 1.5, 1.0, 4.0, 1e-3, (0.0, 1.0)),       # the reference stops on C = 1/2
        (0.1, 0.9, 1.0, 4.0, 1e-3, (0.0, 1.0)),       # C ~ 0.58 on the tail
        (0.1, 0.2, 0.5, 2.0, 1e-3, (0.0, 1.0)),
        (0.1, 0.2, 3.0, 4.0, 1e-3, (0.0, 1.0)),
        (0.2, 0.2, 1.0, 2.0, 1e-3, (0.0, 1.0)),
        (0.025, 0.2, 1.0, 2.0, 1e-3, (0.0, 1.0)),
    ]

    @pytest.fixture(autouse=True)
    def _cold_cache(self):
        trajectories._integrated.cache_clear()

    @pytest.mark.parametrize("h, amplitude, width, s_end, ds, y0", CASES)
    def test_flows_equal_the_plain_loop(self, h, amplitude, width, s_end, ds, y0):
        pot = PotentialSpec.bump(h, amplitude, width)
        flows = [(integrate_exact(pot, s_end, ds, y0=y0),
                  (trajectories.exact_rhs(pot), s_end, ds, False, y0))]
        if y0 == (0.0, 1.0):
            flows.append((integrate_reference(pot, s_end, ds),
                          (trajectories._reference_rhs(pot), s_end, ds, True, y0)))
        for tr, args in flows:
            times, pos, sc, stop = _plain_integrate(*args)
            assert np.array_equal(tr.times, times)
            assert np.array_equal(tr.positions, pos)
            assert np.array_equal(tr.scales, sc)
            assert tr.stop_time == stop

    def test_tail_starts_where_the_flow_leaves_the_support(self, monkeypatch):
        # four W evaluations per loop step and none on the tail: the default
        # flows leave the support after 1082 (reference) and 1081 (corrected)
        # of their 2000 steps, and a start right of it takes no step at all
        calls = []
        evaluate = PotentialSpec.shape_derivatives
        monkeypatch.setattr(PotentialSpec, "shape_derivatives",
                            lambda self, s: calls.append(s) or evaluate(self, s))
        pot = PotentialSpec.bump(0.1)
        for flow, steps in ((lambda: integrate_reference(pot, 2.0), 1082),
                            (lambda: integrate_exact(pot, 2.0), 1081),
                            (lambda: integrate_exact(pot, 2.0, y0=(1.5, 1.0)), 0)):
            calls.clear()
            tr = flow()
            assert len(calls) == 4 * steps
            assert tr.times.size == 2001 and tr.times[-1] == 2.0
            assert pot.vanishes_at(tr.positions[steps])
            assert np.all(tr.scales[steps:] == tr.scales[steps])


class TestScalingFit:
    @pytest.mark.parametrize("points", [
        [(0.2, 1.0), (0.1, 0.5)],                           # two points
        [(0.2, 1.0), (0.1, 0.0), (0.05, 0.1)],              # a zero value
        [(0.2, 1.0), (0.1, math.nan), (0.05, 0.1)],         # a value that is not a number
        [(0.2, 1.0), (-0.1, 0.5), (0.05, 0.1)],             # a negative h
        [(0.2, 1.0), (0.1, math.inf), (0.05, 0.1)],         # an infinite value
        [(math.inf, 1.0), (0.1, 0.5), (0.05, 0.1)],         # an infinite h
        [(0.1, 1.0), (0.1, 2.0), (0.1, 3.0)],               # one h three times
        [(0.2, 1.0), (0.1, 0.5), (0.1, 0.4)],               # two equal h
    ])
    def test_no_order(self, points):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert fit_scaling_exponent(points) == (None, None)

    @pytest.mark.parametrize("hs", [(0.2, 0.1, 0.05), (0.2, 0.1, 0.05, 0.025)])
    def test_order_is_the_polyfit_slope(self, hs):
        values = [3.0 * h ** 2 * (1.0 + h) for h in hs]
        order, stderr = fit_scaling_exponent(zip(hs, values))
        assert order == float(np.polyfit(np.log(hs), np.log(values), 1)[0])
        assert 0.0 < stderr < 0.1


# ---------------------------------------------------------------------------
# integration arguments and the integration cache
# ---------------------------------------------------------------------------

def _cache_info():
    return trajectories._integrated.cache_info()


def _arrays(tr):
    return tr.times, tr.positions, tr.scales


def _same_bits(got, want):
    return all(g.tobytes() == w.tobytes() for g, w in zip(got, want))


class TestArguments:
    @pytest.mark.parametrize("integrate", [integrate_reference, integrate_exact])
    @pytest.mark.parametrize("s_end, ds", [
        (-1.0, 1e-3), (0.0, 1e-3), (math.nan, 1e-3), (math.inf, 1e-3),
        (-math.inf, 1e-3), (1.0, math.inf), (1.0, math.nan), (1.0, 0.0),
        (1.0, -1e-3)])
    def test_rejects_invalid_span(self, integrate, s_end, ds):
        trajectories._integrated.cache_clear()
        with pytest.raises(ConfigurationError):
            integrate(PotentialSpec.bump(0.1), s_end, ds)
        # rejected before the cache lookup
        assert _cache_info().hits == _cache_info().misses == 0


class TestIntegrationCache:
    @pytest.fixture(autouse=True)
    def _cold_cache(self):
        trajectories._integrated.cache_clear()

    def test_cached_run_equals_uncached_run(self):
        stops = PotentialSpec.bump(0.1, amplitude=1.2)    # C hits 1/2 at s ~ 1.525
        pot = PotentialSpec.bump(0.1)
        y0 = (0.05, 1.0107)
        cases = [
            (lambda: integrate_reference(stops, 4.0),
             (trajectories._reference_rhs(stops), stops, 4.0, 1e-3, True, (0.0, 1.0))),
            (lambda: integrate_exact(pot, 2.0, y0=y0),
             (trajectories.exact_rhs(pot), pot, 2.0, 1e-3, False, y0)),
        ]
        for call, args in cases:
            *want, stop = trajectories._integrate(*args)
            for tr in (call(), call()):       # a miss, then a hit
                assert _same_bits(_arrays(tr), want)
                assert tr.stop_time == stop
        assert _cache_info().hits == len(cases)

    def test_callers_get_their_own_stop_time(self):
        a = integrate_reference(PotentialSpec.bump(0.1, amplitude=1.2), 4.0)
        b = integrate_reference(PotentialSpec.bump(0.05, amplitude=1.2), 4.0)
        assert _cache_info().misses == 1          # h is not an input of this flow
        assert a is not b and a.times is b.times
        stop = a.stop_time
        a.stop_time = None
        c = integrate_reference(PotentialSpec.bump(0.1, amplitude=1.2), 4.0)
        assert (b.stop_time, c.stop_time) == (stop, stop)

    def test_requests_that_differ_get_their_own_entries(self):
        pot = PotentialSpec.bump(0.1)
        requests = [
            lambda: integrate_reference(pot, 0.5),
            lambda: integrate_reference(PotentialSpec.bump(0.1, amplitude=0.3), 0.5),
            lambda: integrate_reference(PotentialSpec.bump(0.1, width=2.0), 0.5),
            lambda: integrate_reference(pot, 0.6),
            lambda: integrate_reference(pot, 0.5, 2e-3),
            lambda: integrate_exact(pot, 0.5),
            lambda: integrate_exact(PotentialSpec.bump(0.05), 0.5),
            lambda: integrate_exact(pot, 0.6),
            lambda: integrate_exact(pot, 0.5, 2e-3),
            lambda: integrate_exact(pot, 0.5, y0=(0.0, 1.01)),
        ]
        first = [_arrays(call()) for call in requests]
        assert _cache_info().currsize == len(requests)
        assert _cache_info().hits == 0
        for call, want in zip(requests, first):
            assert all(g is w for g, w in zip(_arrays(call()), want))
        assert _cache_info().hits == len(requests)

    def test_returned_arrays_are_read_only(self):
        pot = PotentialSpec.bump(0.1)
        for tr in (integrate_reference(pot, 0.5), integrate_exact(pot, 0.5)):
            for v in _arrays(tr):
                with pytest.raises(ValueError):
                    v[0] = 1.0

    def test_threads_get_the_serial_results(self):
        # more threads than cores, with frequent thread switches, all asking
        # for the same few flows at once
        requests = [(integrate, PotentialSpec.bump(h, amplitude=amp))
                    for integrate in (integrate_reference, integrate_exact)
                    for h in (0.2, 0.1) for amp in (0.2, 0.4)]

        def run(request):
            integrate, pot = request
            tr = integrate(pot, 1.0)
            return (*_arrays(tr), tr.stop_time)

        serial = [run(r) for r in requests]
        trajectories._integrated.cache_clear()
        workers = (os.cpu_count() or 1) + 2
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                futures = [pool.submit(run, r) for r in requests * workers]
                threaded = [f.result(timeout=120) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        for got, want in zip(threaded, serial * workers):
            assert _same_bits(got[:3], want[:3]) and got[3:] == want[3:]
        # two reference shapes, four corrected (shape, h) pairs
        assert _cache_info().currsize == 6


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
