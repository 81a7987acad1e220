"""One workload in one fresh process: set up, time passes, check, report.

Started by run.py as ``python -m perfbench.worker``; prints one JSON record
as its only standard-output line. The import of sensilab (with numpy and
scipy) is timed in short-lived child processes before this process imports
it, so that ``setup_s`` includes the import cost a user pays on every run.

An untraced run makes the workload's fixed number of passes, or one pass
with ``--seconds 0``. Each item's time is its median over the passes, and
``wall_s`` is the sum of those medians. A traced run makes one untraced pass
and then one traced pass in the same process; ``trace.overhead_s`` is the
difference, and ``trace.overhead_est_s`` the spans recorded times the cost
of one span.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import sensilab.cli, sensilab.verify; "
    "print(time.perf_counter() - t)"
)
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# set-up repetitions whose median is setup_s
SETUP_REPS = 3
# an item's tail latency has at least this many samples beyond it
TAIL_BEYOND = 10


def time_import() -> float:
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], capture_output=True, text=True,
        check=True, timeout=120,
    )
    return float(out.stdout.strip().splitlines()[-1])


def item_latency(seconds: list[float]) -> dict:
    """Median and the highest percentile with TAIL_BEYOND samples beyond it.

    With fewer than TAIL_BEYOND + 1 samples the tail is the maximum.
    """
    ordered = sorted(seconds)
    n = len(ordered)
    if n > TAIL_BEYOND:
        tail, pct = ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n
    else:
        tail, pct = ordered[-1], 100.0
    return {
        "item_p50_ms": 1000.0 * statistics.median(ordered),
        "item_tail_ms": 1000.0 * tail,
        "item_tail_pct": pct,
        "item_samples": n,
    }


def machine_record() -> dict:
    import numpy as np
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu
            )
    except OSError:
        pass
    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = {
            lib: {k: deps[lib].get(k) for k in ("name", "version", "openblas configuration")}
            for lib in ("blas", "lapack") if lib in deps
        }
    except (TypeError, KeyError):
        pass
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                timeout=30,
            ).stdout.strip() or "unknown"
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_env": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
        "commit": commit,
    }


def run(workload_name: str, seed: int, seconds: float, traced: bool) -> dict:
    import_samples = [time_import() for _ in range(1 if traced else SETUP_REPS)]
    from perfbench import spans, workloads

    workload = workloads.WORKLOADS[workload_name]
    tracer = spans.Tracer() if traced else None
    # a traced run makes one untraced pass, to pair with its traced pass
    npasses = 1 if traced or seconds <= 0 else workload.passes

    outdir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(outdir, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=outdir) as workdir:
        setup_samples = []
        for imp in import_samples:
            if tracer is not None:
                tracer.install()
            t0 = time.perf_counter()
            state = workload.setup(seed, workdir)
            setup_samples.append(imp + time.perf_counter() - t0)
            if tracer is not None:
                tracer.uninstall()

        passes, walls = [], []
        for _ in range(npasses):
            t0 = time.perf_counter()
            passes.append(workload.run_pass(state, None))
            walls.append(time.perf_counter() - t0)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            tracer.install()
            t0 = time.perf_counter()
            traced_items = workload.run_pass(state, tracer)
            traced_wall = time.perf_counter() - t0
            tracer.uninstall()

        # each item's median over the passes; wall_s is their sum
        item_s = [statistics.median(same) for same in zip(*(
            [it.seconds for it in items] for items in passes))]
        gate = workloads.Gate()
        calls = exact = 0
        for items in passes + ([traced_items] if tracer is not None else []):
            try:
                c, e = workload.check(state, items, gate)
            except Exception:  # malformed output: a failed check, not a crash
                gate.check(False, traceback.format_exc(limit=3))
                c = e = 0
            calls += c
            exact += e

    record = {
        "workload": workload_name,
        "seed": seed,
        "traced": traced,
        "pid": os.getpid(),
        "wall_s": sum(item_s),
        "pass_walls_s": walls,
        "setup_s": statistics.median(setup_samples),
        "setup_samples_s": setup_samples,
        "peak_rss_mb": peak_rss_mb,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "fail_ratio": gate.failed / max(gate.attempted, 1),
        "failures": gate.messages,
        "calls": calls,
        "exact_calls": exact,
        "exact_ratio": exact / max(calls, 1),
        **item_latency(item_s),
        "machine": machine_record(),
    }
    if tracer is not None:
        totals = spans.layer_totals(tracer.spans)
        record["traced_wall_s"] = traced_wall
        record["layers"] = totals
        record["per_layer"] = spans.per_layer_metrics(totals)
        record["per_layer"]["trace.overhead_s"] = traced_wall - walls[0]
        record["per_layer"]["trace.overhead_est_s"] = len(tracer.spans) * spans.span_cost_s()
        path = os.path.join(outdir, f"spans-{workload_name}-seed{seed}.jsonl")
        tracer.dump(path)
        record["spans_file"] = os.path.relpath(path, ROOT)
    return record


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="0 makes a single pass; otherwise the workload's pass count")
    p.add_argument("--traced", type=int, choices=(0, 1), required=True)
    a = p.parse_args(argv)
    record = run(a.workload, a.seed, a.seconds, bool(a.traced))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
