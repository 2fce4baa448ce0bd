"""One workload process: set up, report READY, then measure on GO.

Started by run.py in a fresh interpreter with ``src`` on PYTHONPATH.  The
set-up (``import packetlab``, input generation, warm-up) ends when this
process prints READY; run.py times it from process start.  On ``GO`` it
measures and prints one JSON record; on anything else it exits.

``--threads-diagnostic`` instead times a small circle M=128 scan serially
and on a two-thread pool and prints that record (run.py starts it with one
BLAS thread).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import run
import spans as tracing
from workloads import WORKLOADS, Scan, pl

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")


def measure(wl, seconds: float, tracer=None) -> dict:
    """Run whole cycles of items until ``seconds`` have passed."""
    span_name = getattr(wl, "span_name", lambda item: "bench.item")
    latencies, kinds, errors = [], [], []
    start = time.perf_counter()
    deadline = start + seconds
    k = 0
    while True:
        for item in wl.cycle(k):
            if tracer is not None:
                tracer.item = len(latencies)
                span = tracer.open(span_name(item))
            t0 = time.perf_counter()
            try:
                wl.run(item)
            except Exception as exc:  # any failure counts against the item
                errors.append(f"{type(exc).__name__}: {exc}")
            latencies.append(time.perf_counter() - t0)
            kinds.append(wl.kind(item))
            if tracer is not None:
                tracer.close(span)
                if hasattr(wl, "probe"):
                    tracer.item = None
                    probe = tracer.open("bench.probe")
                    wl.probe(item)
                    tracer.close(probe)
        k += 1
        if time.perf_counter() >= deadline:
            break
    return {"latencies": latencies, "kinds": kinds, "errors": errors,
            "elapsed": time.perf_counter() - start}


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def environment(wl) -> dict:
    blas = {
        lib.__name__: lib.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version")
        for lib in (np, scipy)
    }
    return {
        "workload_params": wl.params,
        "nproc": len(os.sched_getaffinity(0)),
        "PACKETLAB_THREADS": os.environ.get("PACKETLAB_THREADS"),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": blas,
        "machine": platform.machine(),
    }


def traced_split(untraced: dict, traced: dict, tracer) -> dict:
    """Tracing overhead, and for scan the per-point split into public calls."""
    lat_u, lat_t = untraced["latencies"], traced["latencies"]
    n = min(len(lat_u), len(lat_t))
    u, t = sum(lat_u[:n]), sum(lat_t[:n])
    out = {
        "trace.overhead_frac": (1.0 - u / t, "frac"),
        "bench.item_untraced_ms": (1e3 * u / n, "ms"),
        "bench.item_traced_ms": (1e3 * t / n, "ms"),
    }
    spans = [s for s in tracer.spans if s.item is not None and s.item < n]
    calls = {"build": 0.0, "floor": 0.0, "solve": 0.0}
    names = {
        "pencil.circle_problem": "build", "pencil.oscillator_problem": "build",
        "pencil.uncertainty_floor": "floor", "pencil.solve_pencil": "solve",
    }
    scans = {id(s) for s in spans if s.name == "pencil.quantization_scan"}
    for s in spans:
        if s.parent is not None and id(tracer.spans[s.parent]) in scans and s.name in names:
            calls[names[s.name]] += s.duration
    points = max(len(scans), 1)
    calls_ms = {k: 1e3 * v / points for k, v in calls.items()}
    out["scan.build_ms"] = (calls_ms["build"], "ms")
    out["scan.calls_sum_ms"] = (sum(calls_ms.values()), "ms")
    out["scan.unaccounted_ms"] = (
        (1e3 * u / n - sum(calls_ms.values())) if scans else 0.0, "ms")
    return out


def run_workload(args) -> int:
    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        wl = WORKLOADS[args.workload](args.seed, workdir)
        wl.warmup()
        print("READY", flush=True)
        if sys.stdin.readline().strip() != "GO":
            return 0
        record = {"env": environment(wl)}
        if not args.trace:
            record["run"] = measure(wl, args.seconds)
        else:
            untraced = measure(wl, args.seconds / 2)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced = measure(wl, args.seconds / 2, tracer)
            finally:
                tracer.uninstall()
            layers = tracing.per_layer_metrics(tracer.spans, len(traced["latencies"]))
            layers.update(traced_split(untraced, traced, tracer))
            record["layers"] = layers
            record["run"] = {k: untraced[k] + traced[k] for k in untraced}
            spans_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
            tracer.dump(spans_path)
            record["spans_file"] = str(spans_path.relative_to(ROOT))
        record["outcomes"] = wl.outcomes()
        record["peak_rss_mb"] = peak_rss_mb(children=args.workload == "cli")
        print(json.dumps(record), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def threads_diagnostic(args) -> int:
    alphas = Scan(args.seed, ROOT).alphas["circle128"][:4]
    pl.quantization_scan("circle", [0.5], M=64)
    out = {}
    flags = {}
    for label, workers in (("serial", None), ("pool2", 2)):
        t0 = time.perf_counter()
        scan = pl.quantization_scan("circle", alphas, M=128, max_workers=workers)
        out[label + "_point_ms"] = 1e3 * (time.perf_counter() - t0) / len(alphas)
        flags[label] = [float(a) for a in scan.flagged_alphas()]
    out["alphas"] = alphas
    out["flags_agree"] = flags["serial"] == flags["pool2"]
    out["thread_env"] = {k: os.environ.get(k) for k in THREAD_ENV}
    print(json.dumps(out), flush=True)
    return 0


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--threads-diagnostic", action="store_true")
    args = p.parse_args()
    run.exit_on_sigterm()
    if args.threads_diagnostic:
        return threads_diagnostic(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
