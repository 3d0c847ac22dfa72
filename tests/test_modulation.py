"""Soliton-parameter extraction, tracking and the CSV report."""

import csv
from pathlib import Path

import numpy as np
import pytest

from bolab import (DecompositionError, EvolutionState, Field, Grid,
                   ParameterTrack, SolitonParams, decompose, evolve_pbo,
                   read_checkpoint, soliton_field, track_parameters)
from bolab.grid import l2_norm, local_sup_norm, sobolev_norm
from bolab.modulation import write_track_csv

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
                sobolev_norm(d.remainder, 0.5), local_sup_norm(d.remainder))])
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


@pytest.mark.parametrize("regime", ["nonsymplectic", "symplectic"])
def test_decompose_recovers_parameters(regime):
    grid = Grid(2048, 256.0)
    y = grid.nodes
    u = soliton_field(grid, SolitonParams(0.03, 1.02)) \
        + Field(grid, 1e-3 * np.exp(-(y - 2.0) ** 2))
    d = decompose(u, regime, SolitonParams(0.0, 1.0))
    assert d.params.a == pytest.approx(0.03, abs=2e-3)
    assert d.params.c == pytest.approx(1.02, abs=2e-3)
    assert d.residual <= 1e-10


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
