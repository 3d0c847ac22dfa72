"""Soliton-parameter extraction, tracking and the CSV report."""

import csv
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from bolab import (ConfigurationError, DecompositionError, EvolutionState,
                   Field, Grid, ParameterTrack, SolitonParams, decompose,
                   evolve_pbo, read_checkpoint, soliton_field, track_parameters,
                   translate)
from bolab.grid import cell_l2_profile, l2_norm, sobolev_norm
from bolab.modulation import _constraint_fields, write_track_csv
from bolab.soliton import profile, profile_derivative, scaled_profile

DATA = Path(__file__).parent / "data"


def test_track_csv_cells_are_plain_floats(tmp_path):
    grid = Grid(1024, 128.0)
    fits = [decompose(soliton_field(grid, SolitonParams(a, c)), "symplectic",
                      SolitonParams(0.0, 1.0))
            for a, c in ((0.02, 1.01), (0.05, 0.99))]
    path = tmp_path / "track.csv"
    write_track_csv(path, ParameterTrack(times=[0.0, 0.1], decompositions=fits))
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "a", "c", "residual", "remainder_L2",
                       "remainder_Hhalf", "remainder_local_sup"]
    assert len(rows) == 3
    for row in rows[1:]:
        assert len(row) == 7
        for cell in row:
            float(cell)
    assert float(rows[2][1]) == fits[1].params.a


def test_track_csv_bytes_match_csv_writer(tmp_path):
    # the one-write writer against the csv.writer rows it replaces
    grid = Grid(1024, 128.0)
    fits = [decompose(soliton_field(grid, SolitonParams(a, c)), "symplectic",
                      SolitonParams(0.0, 1.0))
            for a, c in ((0.02, 1.01), (0.05, 0.99), (-0.03, 1.0))]
    track = ParameterTrack(times=np.array([0.0, 0.1, 0.2]), decompositions=fits)
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    write_track_csv(got, track)
    with open(want, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "a", "c", "residual", "remainder_L2",
                    "remainder_Hhalf", "remainder_local_sup"])
        for t, d in zip(track.times, track.decompositions):
            w.writerow([repr(float(v)) for v in (
                t, d.params.a, d.params.c, d.residual, l2_norm(d.remainder),
                sobolev_norm(d.remainder, 0.5),
                np.max(cell_l2_profile(d.remainder)[1]))])
    assert got.read_bytes() == want.read_bytes()


def test_track_moves_the_guess_with_the_soliton():
    # the soliton travels c*dt = 0.1 between snapshots, an H^1/2 distance
    # of 0.48 > 0.3 from an unmoved guess: fits must start from a + c*dt
    grid = Grid(2048, 256.0)
    u0 = soliton_field(grid, SolitonParams(0.0, 1.0))
    res = evolve_pbo(EvolutionState(0.0, u0, None), 1.0, 0.01, snapshot_stride=10)
    track = track_parameters(res.states, "symplectic", SolitonParams(0.0, 1.0))
    assert len(track) == 11
    assert np.allclose(track.a, res.times, atol=1e-4)
    assert np.allclose(track.c, 1.0, atol=1e-6)


def test_track_continuity_guard_reads_the_previous_fit():
    # the last snapshot moved 2.5 c dt: within 2 c dt of the moved guess
    # a + c dt, but not of the previous fit a
    grid = Grid(2048, 256.0)
    snaps = [EvolutionState(t, soliton_field(grid, SolitonParams(a, 1.0)))
             for t, a in ((0.0, 0.0), (0.01, 0.01), (0.02, 0.035))]
    with pytest.raises(DecompositionError, match="snapshot 2: parameter jump"):
        track_parameters(snaps, "symplectic", SolitonParams(0.0, 1.0))


def _perturbed_soliton(grid):
    y = grid.nodes
    return soliton_field(grid, SolitonParams(0.03, 1.02)) \
        + Field(grid, 1e-3 * np.exp(-(y - 2.0) ** 2))


def test_decompose_recovers_parameters():
    d = decompose(_perturbed_soliton(Grid(2048, 256.0)), "symplectic",
                  SolitonParams(0.0, 1.0))
    assert d.params.a == pytest.approx(0.03, abs=2e-3)
    assert d.params.c == pytest.approx(1.02, abs=2e-3)
    assert d.residual <= 1e-10


def test_symplectic_is_the_only_regime():
    u = soliton_field(Grid(1024, 128.0), SolitonParams(0.0, 1.0))
    with pytest.raises(ConfigurationError, match="unknown regime 'nonsymplectic'"):
        decompose(u, "nonsymplectic", SolitonParams(0.0, 1.0))
    with pytest.raises(ConfigurationError, match="unknown regime"):
        track_parameters([EvolutionState(0.0, u)], "other", SolitonParams(0.0, 1.0))


def test_remainder_is_rebuilt_bit_for_bit():
    # the recentered remainder of the Newton loop's last iterate:
    # translate(zeta, a) with zeta = u - m1 and m1 = q_{a,c}
    grid = Grid(2048, 256.0)
    u = _perturbed_soliton(grid)
    d = decompose(u, "symplectic", SolitonParams(0.0, 1.0))
    a, c = d.params.a, d.params.c
    (m1, _), _, _ = _constraint_fields(grid, a, c)
    want = translate(Field(grid, u.values - m1), a).values
    assert d.field is u
    for _ in range(2):
        got = d.remainder
        assert got is not d.remainder
        assert np.array_equal(got.values, want)


def test_constraint_fields_are_the_soliton_formulas():
    # the shared-power forms equal soliton's one-home formulas bit for bit
    grid = Grid(4096, 512.0)
    for a, c in ((0.0, 1.0), (33.95401939632045, 0.92973734326061), (-7.3, 1.7)):
        z = c * (grid.nodes - a)
        q, qp, sp = profile(z), profile_derivative(z), scaled_profile(z)
        (m1, m2), (da1, da2), (dc1, dc2) = _constraint_fields(grid, a, c)
        for got, want in ((m1, c * q), (m2, z * q), (da1, -c * c * qp),
                          (da2, -c * sp), (dc1, sp), (dc2, (z / c) * sp)):
            assert np.array_equal(got, want)


def test_track_retains_no_field_beyond_its_snapshots():
    # 21 snapshots at N = 8192: the fits refer to the snapshot fields, so
    # the track adds well under one field (64 KB) of live memory
    grid = Grid(8192, 1024.0)
    snaps = [EvolutionState(0.1 * k, soliton_field(grid, SolitonParams(0.1 * k, 1.0))
                            + Field(grid, 1e-4 * np.exp(-(grid.nodes - 0.1 * k) ** 2)))
             for k in range(21)]
    track_parameters(snaps[:1], "symplectic", SolitonParams(0.0, 1.0))   # warm caches
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        track = track_parameters(snaps, "symplectic", SolitonParams(0.0, 1.0))
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(track) == 21
    assert all(d.field is s.field for d, s in zip(track.decompositions, snaps))
    assert retained < 8 * grid.n_points


def test_decompose_stops_at_the_floating_point_floor():
    # the h = 0.025 sweep member at t = 34.9: from its moved guess, Newton
    # reaches (a, c) to the last bit while the second residual stalls at
    # 3.90e-14 against a tolerance of 3.43e-14; the fit must still return
    state = read_checkpoint(DATA / "newton_floor_h0.025_t34.9.bosl")
    d = decompose(state.field, "symplectic",
                  SolitonParams(32.338114918888415, 0.9366148032960593))
    assert d.params.a == pytest.approx(32.33697924577128, rel=1e-13)
    assert d.params.c == pytest.approx(0.936269801865343, rel=1e-13)
    assert d.newton_iters <= 5
    assert d.residual <= 1e-11


def test_decompose_stops_when_c_alternates_at_the_floor():
    # the h = 0.025 member with delta_scale = 1e-4 at snapshot 367 (t = 36.7):
    # Newton reaches (a, c) to the last bit, then c alternates by one ulp
    # while g2 stalls just above its tolerance; an exact-repeat test never
    # stops there and the fit ran out of iterations
    state = read_checkpoint(DATA / "newton_floor_h0.025_t36.7.bosl")
    assert state.time == pytest.approx(36.7)
    d = decompose(state.field, "symplectic",
                  SolitonParams(33.95401939632045, 0.92973734326061))
    assert d.params.a == pytest.approx(33.953458073765255, rel=1e-13)
    assert d.params.c == pytest.approx(0.9294613514891337, rel=1e-13)
    assert d.newton_iters <= 5
    assert d.residual <= 1e-11
