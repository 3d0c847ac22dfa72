"""Benchmark of bolab: end-to-end timings per workload, or per-layer spans.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a bolab checkout.  Workloads (see workloads.py):
`member-h0.05`, `trajectories`, `virial`.  Repetitions run one after
another, each in a fresh process (worker.py), until the next one would
overrun --seconds; at least one always runs.  Each repetition sets up,
runs the timed body and runs the checks.

With --trace 0 the result carries the end-to-end metrics, medians over
the repetitions:
    run_s        wall time of the timed body
    setup_s      importing bolab and building the inputs
    peak_rss_mb  peak resident memory at the end of the timed body
With --trace 1 repetitions alternate traced and untraced, and the
result carries the per-layer metrics of the traced ones (see
tracer.layer_metrics), the process CPU time, and the tracing overhead:
traced minus untraced run_s.

Every check of every repetition is one attempted operation; a failed
check is a failed operation.  `correct` is false when a check outside
workloads.KNOWN_DEFECTS fails.  The last line of output is the result
as one JSON object; the line before it is a JSON report with the
environment, inputs, every check and the science outputs.
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TIME_LIMIT_S = 170.0               # the whole run, repetitions included
END_TO_END_UNITS = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# Per-layer counts: identical in every traced repetition, reported as counted.
COUNTS = ("evolution.fft_per_step", "modulation.decompose_calls",
          "modulation.newton_iters", "potential.shape_derivatives_calls",
          "grid.fft_calls", "io.csv_bytes", "trace.spans")


def _repetition(workload, seed, trace, smoke, deadline, out_dir):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(trace)), "--out", str(out_dir)]
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"repetition failed (exit {proc.returncode}):\n"
                           f"{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _median(reps, key):
    return statistics.median(r[key] for r in reps)


def run(workload, seed, seconds, trace, smoke=False):
    start = time.monotonic()
    deadline = start + TIME_LIMIT_S
    reps, walls = [], []
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench_tmp") as tmp:
        while True:
            traced = trace and len(reps) % 2 == 0
            t0 = time.monotonic()
            rep = _repetition(workload, seed, traced, smoke, deadline,
                              Path(tmp) / f"rep{len(reps)}")
            rep["traced"] = traced
            reps.append(rep)
            walls.append(time.monotonic() - t0)
            elapsed = time.monotonic() - start
            enough = len(reps) >= (2 if trace else 1)
            if enough and elapsed + statistics.median(walls) > seconds:
                break

    extra = []
    if trace:
        traced = [r for r in reps if r["traced"]]
        plain = [r for r in reps if not r["traced"]]
        metrics = {}
        for name, (value, unit) in traced[0]["layers"].items():
            if name not in COUNTS:
                value = statistics.median(r["layers"][name][0] for r in traced)
            metrics[name] = (value, unit)
        repeat = all(r["layers"][n][0] == traced[0]["layers"][n][0]
                     for r in traced for n in COUNTS)
        extra.append({"name": "trace.counts_repeat", "pass": repeat,
                      "value": len(traced), "bound": None, "known_defect": False,
                      "detail": "count metrics identical across traced repetitions"})
        traced_s, plain_s = _median(traced, "run_s"), _median(plain, "run_s")
        metrics["process.cpu_s"] = (_median(plain, "cpu_s"), "s")
        metrics["trace.run_s"] = (traced_s, "s")
        metrics["trace.untraced_run_s"] = (plain_s, "s")
        metrics["trace.overhead_s"] = (traced_s - plain_s, "s")
    else:
        metrics = {name: (_median(reps, name), unit)
                   for name, unit in END_TO_END_UNITS.items()}
    checks = [c for r in reps for c in r["checks"]] + extra
    failed = sum(not c["pass"] for c in checks)
    correct = all(c["pass"] or c["known_defect"] for c in checks)

    report = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "repetitions": len(reps), "environment": reps[0]["environment"],
        "params": reps[0]["params"], "inputs": reps[0]["inputs"],
        "science": reps[0]["science"], "checks": reps[0]["checks"] + extra,
        "per_repetition": [{k: r[k] for k in ("traced", "setup_s", "run_s", "cpu_s",
                                              "peak_rss_mb")} for r in reps],
    }
    result = {"correct": correct, "attempted": len(checks), "failed": failed,
              "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()}}
    return report, result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="reduced problem sizes, for the benchmark's own test")
    args = ap.parse_args(argv)
    # On SIGTERM, unwind through subprocess.run, which kills and reaps the
    # running repetition before re-raising.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "bolab" / "__init__.py").is_file():
        print(f"error: no bolab source under {ROOT / 'src'}; run from a bolab checkout",
              file=sys.stderr)
        return 2
    try:
        report, result = run(args.workload, args.seed, args.seconds,
                             bool(args.trace), args.smoke)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for c in report["checks"]:
        tag = "PASS" if c["pass"] else ("FAIL (known defect)" if c["known_defect"]
                                        else "FAIL")
        print(f"{tag:20s} {c['name']}: {c['value']} (bound {c['bound']}) {c['detail']}")
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(report, default=float))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
