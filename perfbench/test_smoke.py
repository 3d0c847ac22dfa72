"""Smoke test of the benchmark itself, at reduced problem sizes.

    python3 -m pytest perfbench/test_smoke.py

Each workload runs end to end (untraced and traced) and must emit every
metric that BENCHMARK.json names and evaluate every check; the FFT
shims must count direct numpy.fft and scipy.fft calls exactly.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.fft

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from tracer import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
CHECKS = {
    "member-h0.05": ["member.energy_drift", "member.decompose_all",
                     "member.track_parameters", "member.track_csv_floats",
                     "member.trajectory_csv_floats"],
    "trajectories": ["trajectories.deviation_order",
                     "trajectories.reference_slow.csv_floats",
                     "trajectories.exact_slow.csv_floats",
                     "trajectories.exact_fast.csv_floats"],
    "virial": ["virial.ratios_finite_positive", "virial.orthogonal_q",
               "virial.orthogonal_qp"],
}


def _run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def test_workload_names_match_spec():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(CHECKS)


@pytest.mark.parametrize("workload", sorted(CHECKS))
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_emits_every_metric_and_check(workload, trace):
    report, result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    names = [m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]]
    assert sorted(result["metrics"]) == sorted(names)
    units = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    for name, m in result["metrics"].items():
        assert m["unit"] == units[name]
        assert isinstance(m["value"], (int, float))
    expected = CHECKS[workload] + (["trace.counts_repeat"] if trace else [])
    assert [c["name"] for c in report["checks"]] == expected
    assert result["attempted"] >= len(expected)
    assert result["correct"], report["checks"]
    assert report["seed"] == 7 and "environment" in report


def test_fft_shims_count_direct_calls():
    tracer = Tracer()
    tracer.install_fft_shims()
    try:
        x = np.arange(16.0)
        tracer.fft_calls = 0
        np.fft.rfft(x)
        assert tracer.fft_calls == 1
        scipy.fft.rfft(x)
        assert tracer.fft_calls == 2
    finally:
        tracer.uninstall()
    np.fft.rfft(x)
    assert tracer.fft_calls == 2


def test_spans_nest_and_record_newton_iterations():
    import bolab
    from bolab.grid import Grid
    from bolab.soliton import SolitonParams, soliton_field

    grid = Grid(1024, 256.0)
    u = soliton_field(grid, SolitonParams(0.05, 1.01))
    tracer = Tracer()
    tracer.install_spans()
    try:
        d = bolab.modulation.decompose(u, "symplectic", SolitonParams(0.0, 1.0))
    finally:
        tracer.uninstall()
    top = [s for s in tracer.spans if s.parent < 0]
    assert [s.name for s in top] == ["modulation.decompose"]
    assert top[0].note == d.newton_iters > 0
    children = {s.name for s in tracer.spans if s.parent == 0}
    assert "grid.sobolev_norm" in children
    assert all(t >= -1e-9 for t in tracer.self_times())
    assert bolab.modulation.decompose.__name__ == "decompose"
    assert not hasattr(bolab.modulation.decompose, "__wrapped__")
