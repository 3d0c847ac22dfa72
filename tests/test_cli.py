"""Command-line subcommands on their default settings."""

import csv
import json

import numpy as np
import pytest

from bolab import (EvolutionState, Grid, PotentialSpec, SolitonParams, cli,
                   evolve_pbo, experiments, read_checkpoint, soliton_field,
                   track_parameters)
from bolab.cli import main
from bolab.errors import ConfigurationError
from bolab.modulation import write_track_csv


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
    # a given --threads overrides the config even when it is falsy
    assert main(["--out", str(tmp_path), "--threads", "0", "theorem-sweep"]) == 2
    assert "error: threads must be at least 1, got 0" in capsys.readouterr().err


@pytest.mark.parametrize("command, flag", [("virial", "--gammas"), ("virial", "--y0s"),
                                           ("trajectories", "--h-sweep")])
def test_empty_float_list_is_a_usage_error(tmp_path, capsys, command, flag):
    with pytest.raises(SystemExit) as exc:
        main(["--out", str(tmp_path), command, flag, ""])
    assert exc.value.code == 2
    assert "expected a comma-separated list of numbers" in capsys.readouterr().err


@pytest.mark.parametrize("h", ["-0.05", "nan"])
def test_evolve_rejects_h_outside_the_unit_interval(tmp_path, capsys, h):
    # only h = 0 selects the free flow; any other h goes to PotentialSpec's check
    assert main(["--out", str(tmp_path), "evolve", "--h", h, "--t-end", "1"]) == 2
    assert "error: h must lie in (0, 1]" in capsys.readouterr().err
    assert not (tmp_path / "final.bosl").exists()


def test_main_alone_prints_the_verdicts(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "cmd_identities",
                        lambda args, cfg: [("a", 0.5, 1.0), ("b", None, 1e-3)])
    assert main(["--out", str(tmp_path), "identities"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "PASS  a: 5.000e-01 (tolerance 1.0e+00)",
        "FAIL  b: inf (tolerance 1.0e-03)",
    ]
    monkeypatch.setattr(cli, "cmd_identities",
                        lambda args, cfg: [("a", 0.5, 1.0), ("c", 0, 0)])
    assert main(["--out", str(tmp_path), "identities"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "PASS  a: 5.000e-01 (tolerance 1.0e+00)",
        "PASS  c: 0.000e+00 (tolerance 0.0e+00)",
    ]


def test_raising_subcommand_prints_no_gates(tmp_path, capsys, monkeypatch):
    def fails(args, cfg):
        print("partial output")
        raise ConfigurationError("bad setting")

    monkeypatch.setattr(cli, "cmd_identities", fails)
    assert main(["--out", str(tmp_path), "identities"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "partial output\n"
    assert captured.err == "error: bad setting\n"


def test_reduced_virial_run_reports_every_centre_and_window(tmp_path, capsys):
    cfg = tmp_path / "small.cfg"
    cfg.write_text("n_points = 1024\ndomain_length = 128\n", encoding="utf-8")
    gammas, y0s = [0.05], [-50.0, 0.0, 50.0]
    code = main(["--config", str(cfg), "--out", str(tmp_path), "virial", "--t-end", "1",
                 f"--gammas={','.join(map(str, gammas))}", f"--y0s={','.join(map(str, y0s))}"])
    text = (tmp_path / "virial.json").read_text(encoding="utf-8")
    reports = json.loads(text)
    assert len(reports) == 2 * len(gammas) * len(y0s)
    assert text == json.dumps(reports, indent=2, sort_keys=True)
    assert {(r["gamma"], r["y0"]) for r in reports} == {(g, y) for g in gammas for y in y0s}
    gate_lines = [line for line in capsys.readouterr().out.splitlines()
                  if line.startswith(("PASS", "FAIL"))]
    assert len(gate_lines) == 1 and gate_lines[0].split()[1:3] == ["ratio", "band"]
    assert code == (1 if gate_lines[0].startswith("FAIL") else 0)


def _small_config(tmp_path, extra=""):
    cfg = tmp_path / "small.cfg"
    cfg.write_text(f"n_points = 1024\ndomain_length = 128\n{extra}", encoding="utf-8")
    return str(cfg)


@pytest.mark.parametrize("command", ["evolve", "virial"])
@pytest.mark.parametrize("t_end", ["0", "-1", "nan", "inf"])
def test_t_end_must_be_finite_and_positive(tmp_path, capsys, command, t_end):
    # an error before any evolution: no gate line, no file
    code = main(["--config", _small_config(tmp_path), "--out", str(tmp_path),
                 command, f"--t-end={t_end}"])
    captured = capsys.readouterr()
    assert code == 2
    assert "error: t_end must be finite and positive" in captured.err
    assert "PASS" not in captured.out and "FAIL" not in captured.out
    assert sorted(p.name for p in tmp_path.iterdir()) == ["small.cfg"]


def test_config_key_set_twice_exits_2(tmp_path, capsys):
    # a repeated key is an error, not a silent overwrite, and nothing is written
    code = main(["--config", _small_config(tmp_path, "dt = 0.01\ndt = 0.02\n"),
                 "--out", str(tmp_path), "trajectories"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: config line 4: key 'dt' is already set on line 3\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["small.cfg"]


@pytest.mark.parametrize("stride", ["0", "-5"])
@pytest.mark.parametrize("command", ["virial", "theorem-sweep"])
def test_snapshot_stride_below_one_exits_2(tmp_path, capsys, command, stride):
    code = main(["--config", _small_config(tmp_path, f"snapshot_stride = {stride}\n"),
                 "--out", str(tmp_path), command])
    assert code == 2
    assert "error: snapshot_stride must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("command, line, key", [
    ("trajectories", "bump_amplitude = nan", "bump_amplitude must be finite"),
    ("theorem-sweep", "mu0 = inf", "mu0 must be finite and positive"),
])
def test_non_finite_config_value_exits_2(tmp_path, capsys, command, line, key):
    # rejected where the config is read, before any integration or output
    code = main(["--config", _small_config(tmp_path, f"{line}\n"), "--out", str(tmp_path),
                 command])
    captured = capsys.readouterr()
    assert code == 2
    assert f"error: {key}" in captured.err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["small.cfg"]


def test_theorem_sweep_rejects_h_one(tmp_path, capsys):
    # h = 1 has a zero horizon; the config names h_list, not a later s_end
    code = main(["--config", _small_config(tmp_path, "h_list = 1.0, 0.5, 0.25\n"),
                 "--out", str(tmp_path), "theorem-sweep"])
    err = capsys.readouterr().err
    assert code == 2
    assert "error: h_list values must lie in (0, 1), got 1.0" in err
    assert "zero at h = 1" in err and "s_end" not in err


def test_theorem_sweep_checks_n_points_before_any_horizon(tmp_path, capsys, monkeypatch):
    horizons = []
    monkeypatch.setattr(experiments, "_horizon", lambda *args: horizons.append(args))
    cfg = tmp_path / "small.cfg"
    cfg.write_text("n_points = 1000\ndomain_length = 128\n", encoding="utf-8")
    code = main(["--config", str(cfg), "--out", str(tmp_path), "theorem-sweep"])
    err = capsys.readouterr().err
    assert code == 2 and horizons == []
    assert err == "error: n_points must be a power of two >= 8, got 1000\n"


def test_trajectories_needs_three_h_values(tmp_path, capsys):
    # two h values fit a slope with no error estimate; no CSV is written
    code = main(["--out", str(tmp_path), "trajectories", "--h-sweep", "0.2,0.1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "error: sweep needs at least three h values, got [0.2, 0.1]\n"
    assert captured.out == "" and list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("t_end, intervals", [("0.1", 1), ("0.2", 2), ("0.3", 3)])
def test_virial_half_window_needs_an_even_count_of_intervals(tmp_path, capsys, t_end,
                                                             intervals):
    # snapshot interval dt * stride = 0.1: the half window must be T/2 and
    # at least two intervals long, so 0.1 and 0.3 have no half window
    code = main(["--config", _small_config(tmp_path), "--out", str(tmp_path),
                 "virial", "--t-end", t_end, "--y0s", "0"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == ("error: t_end must be an even number, at least 4, of snapshot "
                            f"intervals 0.1, got {intervals} in {t_end}\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["small.cfg"]


def test_virial_windows_are_half_and_whole_run(tmp_path):
    main(["--config", _small_config(tmp_path), "--out", str(tmp_path),
          "virial", "--t-end", "0.4", "--y0s", "0"])
    reports = json.loads((tmp_path / "virial.json").read_text(encoding="utf-8"))
    assert [r["T"] for r in reports] == [0.2, 0.4]


def test_virial_rejects_a_non_finite_centre(tmp_path, capsys):
    # the localizer specs are checked before the evolution
    code = main(["--config", _small_config(tmp_path), "--out", str(tmp_path),
                 "virial", "--y0s=0,nan"])
    assert code == 2
    assert "error: localizer y_center must be finite, got nan" in capsys.readouterr().err
    assert not (tmp_path / "virial.json").exists()


@pytest.mark.parametrize("margin", ["nan", "-1"])
def test_spectrum_margin_must_be_finite_and_positive(tmp_path, capsys, margin):
    code = main(["--out", str(tmp_path), "spectrum", "--n", "256", "--length", "64",
                 f"--margin={margin}"])
    assert code == 2
    assert "error: margin must be finite and positive" in capsys.readouterr().err
    assert not (tmp_path / "spectrum.json").exists()


@pytest.mark.parametrize("command", ["evolve", "virial"])
def test_a_run_shorter_than_one_step_exits_2(tmp_path, capsys, command):
    # 1e-12 rounds to zero steps of dt = 0.01: nothing would be measured
    code = main(["--config", _small_config(tmp_path), "--out", str(tmp_path),
                 command, "--t-end", "1e-12"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == ("error: t_end must be a whole number (at least one) of steps "
                            "dt = 0.01, got 1e-12\n")
    assert "PASS" not in captured.out and "FAIL" not in captured.out
    assert sorted(p.name for p in tmp_path.iterdir()) == ["small.cfg"]


@pytest.mark.parametrize("make, message", [
    (lambda path: None, "No such file or directory"),
    (lambda path: path.mkdir(), "Is a directory"),
    (lambda path: path.write_bytes("out_dir = caf\xe9\n".encode("latin-1")),
     "is not UTF-8 text: invalid continuation byte at byte 13"),
], ids=["missing", "directory", "latin-1"])
def test_unreadable_config_exits_2(tmp_path, capsys, make, message):
    path = tmp_path / "run.cfg"
    make(path)
    code = main(["--config", str(path), "--out", str(tmp_path / "out"), "trajectories"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert str(path) in captured.err and message in captured.err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["trajectories", "theorem-sweep"])
def test_out_below_a_file_exits_2(tmp_path, capsys, command):
    out = tmp_path / "file" / "x"
    out.parent.write_text("", encoding="utf-8")
    assert main(["--out", str(out), command]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "Not a directory" in captured.err and str(out) in captured.err


def test_reduced_theorem_sweep_prints_its_gates(tmp_path, capsys):
    cfg = tmp_path / "reduced.cfg"
    cfg.write_text("n_points = 4096\ndomain_length = 512\ndt = 0.02\nsnapshot_stride = 5\n",
                   encoding="utf-8")
    code = main(["--config", str(cfg), "--out", str(tmp_path), "theorem-sweep"])
    out = capsys.readouterr().out
    gate_lines = [line for line in out.splitlines() if line.startswith(("PASS", "FAIL"))]
    assert [line.split(":")[0].split("  ", 1)[1] for line in gate_lines] == [
        "member failures", "remainder order |p - 1.5|", "residual-c order shortfall 2.7 - p"]
    assert code == (1 if any(line.startswith("FAIL") for line in gate_lines) else 0)
    summary = json.loads((tmp_path / "summary.json").read_text(encoding="utf-8"))
    assert [m["h"] for m in summary["members"]] == [0.1, 0.05, 0.025]
    assert summary["failures"] == []
    printed = json.loads(out[out.index("{"):out.rindex("}") + 1])
    assert printed == {key: summary[key] for key in printed}


def test_free_flow_gates_mass_and_energy(tmp_path, capsys):
    # h = 0 is the free flow: the mass is conserved and gated with the energy
    assert main(["--out", str(tmp_path), "evolve", "--h", "0", "--t-end", "1"]) == 0
    out = capsys.readouterr().out
    assert [line.split(":")[0] for line in out.splitlines()
            if line.startswith(("PASS", "FAIL", "INFO"))] == [
        "PASS  relative mass drift", "PASS  relative energy drift"]


def test_evolve_writes_what_the_list_forms_write(tmp_path, capsys):
    # the one-pass command against the collected run and track it replaced
    out = tmp_path / "out"
    assert main(["--config", _small_config(tmp_path), "--out", str(out),
                 "evolve", "--t-end", "1"]) == 0
    cfg = experiments.ExperimentConfig(n_points=1024, domain_length=128.0)
    pot = PotentialSpec.bump(0.05, cfg.bump_amplitude, cfg.bump_width)
    u0 = soliton_field(Grid(cfg.n_points, cfg.domain_length), SolitonParams(0.0, 1.0))
    # the stride is t_end / dt / 64 = 1.5625 rounded
    res = evolve_pbo(EvolutionState(0.0, u0, pot), 1.0, cfg.dt, snapshot_stride=2)
    write_track_csv(tmp_path / "list.csv",
                    track_parameters(res.states, "symplectic", SolitonParams(0.0, 1.0)))
    assert (out / "track.csv").read_bytes() == (tmp_path / "list.csv").read_bytes()
    final, last = read_checkpoint(out / "final.bosl"), res.states[-1]
    assert final.time == last.time == 1.0
    assert np.array_equal(final.field.values, last.field.values)


def test_evolve_that_fails_writes_nothing(tmp_path, capsys):
    # spacing 1/2 is too coarse for the unit-cell norms of the first
    # snapshot's record: the run stops there, before any file is written
    cfg = tmp_path / "coarse.cfg"
    cfg.write_text("n_points = 512\ndomain_length = 256\n", encoding="utf-8")
    out = tmp_path / "out"
    code = main(["--config", str(cfg), "--out", str(out), "evolve", "--t-end", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert "too coarse for unit-cell norms" in captured.err
    assert "PASS" not in captured.out and "FAIL" not in captured.out
    assert not (out / "final.bosl").exists() and not (out / "track.csv").exists()
