"""Soliton-parameter extraction and its CSV report."""

import csv

from bolab import (Grid, ParameterTrack, SolitonParams, decompose,
                   soliton_field)
from bolab.modulation import write_track_csv


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
