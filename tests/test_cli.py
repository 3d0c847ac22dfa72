"""Command-line subcommands on their default settings."""

import csv
import json

import pytest

from bolab.cli import main


def test_trajectories_defaults_pass(tmp_path, capsys):
    assert main(["--out", str(tmp_path), "trajectories"]) == 0
    assert "PASS  deviation order" in capsys.readouterr().out
    for name in ("reference_slow.csv", "exact_slow.csv", "exact_fast.csv"):
        with open(tmp_path / name, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][3:] == ["kind", "frame"]
        assert len(rows) > 2
        for row in rows[1:]:
            for cell in row[:3]:
                float(cell)


def test_config_out_dir_is_honoured(tmp_path, monkeypatch):
    # without --out, files go to the config's out_dir, not the working directory
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"out_dir = {tmp_path / 'from-config'}\n", encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert main(["--config", str(cfg), "trajectories"]) == 0
    for name in ("reference_slow.csv", "exact_slow.csv", "exact_fast.csv"):
        assert (tmp_path / "from-config" / name).exists()
        assert not (tmp_path / name).exists()


def test_evolve_under_a_potential_passes(tmp_path, capsys):
    # the mass is not conserved under V (d/dt M = 1/2 int V' u^2): it is
    # reported, and only the energy drift is gated
    assert main(["--out", str(tmp_path), "evolve", "--t-end", "5"]) == 0
    out = capsys.readouterr().out
    assert "INFO  relative mass drift under V" in out
    assert "PASS  relative energy drift" in out
    assert "FAIL" not in out
    assert (tmp_path / "final.bosl").exists() and (tmp_path / "track.csv").exists()


def test_identities_defaults_pass(tmp_path, capsys):
    assert main(["--out", str(tmp_path), "identities"]) == 0
    out = capsys.readouterr().out
    assert "PASS  H(q) - H(q_per) closed form" in out
    assert "FAIL" not in out


def test_spectrum_defaults_pass(tmp_path, capsys):
    assert main(["--out", str(tmp_path), "spectrum"]) == 0
    report = json.loads((tmp_path / "spectrum.json").read_text(encoding="utf-8"))
    assert report["schema_version"] == 1
    assert len(report["discrete_eigenvalues"]) == 3
    assert "FAIL" not in capsys.readouterr().out


@pytest.mark.parametrize("s_end", ["nan", "-1", "0", "inf"])
def test_trajectories_invalid_s_end_exits_2(tmp_path, capsys, s_end):
    assert main(["--out", str(tmp_path), "trajectories", "--s-end", s_end]) == 2
    assert "error: s_end must be finite and positive" in capsys.readouterr().err


def test_invalid_config_exits_2(tmp_path, capsys):
    # a rejected setting is reported as an error, not as a traceback
    bad = tmp_path / "bad.cfg"
    bad.write_text("dt = -1\n", encoding="utf-8")
    assert main(["--config", str(bad), "theorem-sweep"]) == 2
    assert main(["--out", str(tmp_path), "--threads", "-1", "theorem-sweep"]) == 2
    assert "error: threads must be at least 1" in capsys.readouterr().err
