"""packetlab benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the library is imported from
``src``.  Workloads (see workloads.py for why each was chosen): ``scan``,
``ftable``, ``states``, ``cli``.  Each runs in a fresh interpreter at the
library defaults: scans serial, ``PACKETLAB_THREADS`` unset, BLAS at its
default thread count.

With ``--trace 0`` the workload is set up SETUP_REPEATS times in fresh
interpreters (``setup_s`` is the median, from process start to the first
timed item) and the last one measures for ``--seconds``.  The end-to-end
metrics are:

    setup_s       median set-up time (import, input generation, warm-up)
    items_per_s   items completed per second of the timed part
    item_p50_ms   median item latency
    item_tail_ms  latency at the highest percentile with 10 samples beyond
                  it (the maximum when there are fewer than 11 items)
    correct_frac  items whose check passed / items attempted
    peak_rss_mb   peak resident memory of the workload process (for cli,
                  of its largest child)

With ``--trace 1`` the workload runs half the time untraced and half with a
span around every public library call, and reports the per-layer metrics
(spans.py), the tracing overhead, the ``python -X importtime`` profile of
``import packetlab`` and, for ``scan``, a diagnostic scan on a two-thread
pool with one BLAS thread.  Spans are written to ``.perfbench/``.

The line before the result holds the run record: environment, sample
counts, the tail percentile used, check outcomes and failures.  The exit
code is 0 only when a result was printed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("scan", "ftable", "states", "cli")
SETUP_REPEATS = 3
IMPORT_REPEATS = 3
DEADLINE_S = 170.0
TAIL_BEYOND = 10

# Recorded with every import profile; later changes to the import path
# test it.
IMPORT_PREDICTION = (
    "moving uncertainty_floor_bruteforce out of packetlab.pencil alone leaves setup_s "
    "unchanged: packetlab.variational imports scipy.optimize.minimize at module load"
)


class BenchError(Exception):
    pass


def worker_env(extra: dict | None = None) -> dict:
    env = dict(os.environ)
    env.pop("PACKETLAB_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env.update(extra or {})
    return env


def remaining(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError("benchmark deadline passed")
    return left


def read_line(proc: subprocess.Popen, deadline: float) -> str:
    ready, _, _ = select.select([proc.stdout], [], [], remaining(deadline))
    if not ready:
        raise BenchError("worker did not report READY in time")
    return proc.stdout.readline().strip()


def exit_on_sigterm() -> None:
    """Turn SIGTERM into SystemExit, so `finally` blocks stop the children."""
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))


def stop(proc: subprocess.Popen) -> None:
    """Ask a worker to stop (it then stops its own children), else kill it."""
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def run_worker(args, deadline: float) -> tuple[list[float], dict]:
    """Set up SETUP_REPEATS workers (one when tracing); the last one measures."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    repeats = 1 if args.trace else SETUP_REPEATS
    setups = []
    for i in range(repeats):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(), text=True,
                                stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        try:
            line = read_line(proc, deadline)
            setups.append(time.perf_counter() - t0)
            if line != "READY":
                raise BenchError(f"worker set-up failed (exit {proc.wait(remaining(deadline))})")
            last = i == repeats - 1
            out, _ = proc.communicate("GO\n" if last else "EXIT\n", timeout=remaining(deadline))
            if proc.returncode != 0:
                raise BenchError(f"worker exited with {proc.returncode}")
        finally:
            stop(proc)
    return setups, json.loads(out.strip().splitlines()[-1])


def run_child(argv: list[str], deadline: float, env_extra: dict | None = None) -> subprocess.CompletedProcess:
    proc = subprocess.run(argv, cwd=ROOT, env=worker_env(env_extra), text=True,
                          capture_output=True, timeout=remaining(deadline))
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(argv[1:3])} exited with {proc.returncode}: {proc.stderr[-500:]}")
    return proc


def import_profile(deadline: float) -> tuple[dict, dict]:
    """Median of IMPORT_REPEATS ``-X importtime`` profiles of ``import packetlab``."""
    import spans

    profiles = [
        spans.parse_importtime(
            run_child([sys.executable, "-X", "importtime", "-c", "import packetlab"], deadline).stderr)
        for _ in range(IMPORT_REPEATS)
    ]

    def median_ms(module):
        return 1e-3 * statistics.median(p["cumulative_us"].get(module, 0) for p in profiles)

    metrics = {
        "cli.import_ms": (median_ms("packetlab"), "ms"),
        "cli.import_scipy_optimize_ms": (median_ms("scipy.optimize"), "ms"),
        "cli.import_scipy_linalg_ms": (median_ms("scipy.linalg"), "ms"),
    }
    detail = {
        "scipy_optimize_first_imported_by": spans.first_packetlab_importer(profiles[0], "scipy.optimize"),
        "scipy_linalg_first_imported_by": spans.first_packetlab_importer(profiles[0], "scipy.linalg"),
        "prediction": IMPORT_PREDICTION,
    }
    return metrics, detail


def threads_diagnostic(seed: int, deadline: float) -> dict:
    proc = run_child(
        [sys.executable, str(HERE / "worker.py"), "--threads-diagnostic", "--seed", str(seed)],
        deadline, {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"})
    return json.loads(proc.stdout.strip().splitlines()[-1])


def source_id() -> dict:
    """The git commit when the checkout is a repository, and a digest of the sources."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "packetlab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, timeout=10)
            commit = proc.stdout.strip() if proc.returncode == 0 else None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def tail(latencies: list[float]) -> tuple[float, float]:
    """(latency, percentile) with TAIL_BEYOND samples beyond it, else the maximum."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def by_kind(latencies: list[float], kinds: list[str]) -> dict:
    groups: dict[str, list[float]] = {}
    for t, k in zip(latencies, kinds):
        groups.setdefault(k, []).append(t)
    return {k: {"n": len(v), "p50_ms": 1e3 * statistics.median(v), "mean_ms": 1e3 * statistics.fmean(v)}
            for k, v in groups.items()}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not (ROOT / "src" / "packetlab" / "__init__.py").is_file():
        print(f"error: no packetlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    exit_on_sigterm()

    try:
        setups, rec = run_worker(args, deadline)
        run = rec["run"]
        lat = run["latencies"]
        attempted, failed = len(lat), len(run["errors"])
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            **source_id(),
            "env": rec["env"],
            "setup_s_samples": setups,
            "items": attempted,
            "errors": run["errors"][:20],
            "by_kind": by_kind(lat, run["kinds"]),
            "outcomes": rec["outcomes"],
        }
        if not args.trace:
            tail_s, tail_pct = tail(lat)
            record["tail_percentile"] = tail_pct
            metrics = {
                "setup_s": (statistics.median(setups), "s"),
                "items_per_s": (attempted / run["elapsed"], "1/s"),
                "item_p50_ms": (1e3 * statistics.median(lat), "ms"),
                "item_tail_ms": (1e3 * tail_s, "ms"),
                "correct_frac": ((attempted - failed) / attempted, "frac"),
                "peak_rss_mb": (rec["peak_rss_mb"], "MB"),
            }
        else:
            metrics = {k: tuple(v) for k, v in rec["layers"].items()}
            import_metrics, record["import_profile"] = import_profile(deadline)
            metrics.update(import_metrics)
            diag = threads_diagnostic(args.seed, deadline) if args.workload == "scan" else {}
            record["threads_diagnostic"] = diag
            metrics["scan.pool2_blas1_point_ms"] = (diag.get("pool2_point_ms", 0.0), "ms")
            metrics["scan.serial_blas1_point_ms"] = (diag.get("serial_point_ms", 0.0), "ms")
            record["spans_file"] = rec["spans_file"]
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    print(json.dumps(record))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
