"""One repetition of one workload, in a fresh process.

    python3 perfbench/worker.py --workload NAME --seed N --trace 0|1 --out DIR [--smoke]

Times set-up (importing bolab and building the inputs) and the body
separately, samples peak resident memory at the end of the body, runs
the checks, and prints one JSON object.  Output files go to DIR, which
must be empty or absent.  A fresh process per repetition gives every
body a cold program cache, as a CLI invocation has.  With --trace 1 the
FFT shims are installed before bolab is imported and every layer's
public functions are wrapped in spans.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _import_bolab():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import bolab
    if Path(bolab.__file__).resolve().parent != src / "bolab":
        raise ImportError(f"bolab imported from {bolab.__file__}, not from {src}")


THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def environment() -> dict:
    """What the timings depend on besides the code: machine and libraries."""
    import numpy
    import scipy
    deps = numpy.show_config(mode="dicts").get("Build Dependencies", {})
    return {
        "nproc": os.cpu_count(), "cpu_model": _cpu_model(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": {k: {f: v.get(f) for f in ("name", "version")}
                       for k, v in deps.items()},
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "git_commit": _git_commit(),
    }


def run(workload: str, seed: int, trace: bool, smoke: bool, out_dir: Path) -> dict:
    start = time.perf_counter()
    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install_fft_shims()
    _import_bolab()
    import workloads
    wl = workloads.make(workload, seed, smoke)
    wl.setup()
    setup_s = time.perf_counter() - start
    if tracer is not None:
        tracer.install_spans()

    out_dir.mkdir(parents=True, exist_ok=True)
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    wl.body(out_dir)
    run_s = time.perf_counter() - t0
    cpu_s = time.process_time() - cpu0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()
    csv_bytes = workloads.csv_bytes(out_dir)
    checks = wl.checks(out_dir)

    result = {
        "setup_s": setup_s, "run_s": run_s, "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb, "csv_bytes": csv_bytes,
        "checks": [c.as_dict() for c in checks],
        "inputs": wl.inputs, "params": wl.p, "science": wl.science,
        "environment": environment(),
    }
    if tracer is not None:
        from tracer import layer_metrics
        result["layers"] = layer_metrics(tracer, run_s, csv_bytes)
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    result = run(args.workload, args.seed, bool(args.trace), args.smoke, args.out)
    print(json.dumps(result, default=float))
    return 0


if __name__ == "__main__":
    sys.exit(main())
