"""sensilab benchmark: run workloads in fresh processes and report metrics.

    python3 perfbench/run.py --workload certificates --seed 1 --seconds 8 --trace 0
    python3 perfbench/run.py --workload all --trace 1 --out perfbench/results/x.json

Each workload runs in its own worker process (perfbench/worker.py), started
from this process, which imports nothing but the standard library so the
worker's peak RSS is its own. BLAS threads are set to the number of usable
CPUs for every worker.

Each workload makes a fixed number of timed passes (workloads.py says how
many); wall_s is the sum over its items of each item's median time over the
passes. --seconds 0 makes a single pass instead.

With --trace 0 the last output line is one JSON object whose metrics are the
end-to-end metrics of BENCHMARK.json. With --trace 1 the worker makes one
untraced and one traced pass, and the metrics are the per-layer metrics plus
trace.overhead_s, the traced pass's wall time minus the untraced one's, and
trace.overhead_est_s, the spans recorded times the cost of one span.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# a worker is stopped after this long; a command that runs one workload
# must end within 180 s
DEADLINE_S = 170.0
# workloads whose generators are re-run on a second seed in --workload all
SECOND_SEED_WORKLOADS = ("random-chain", "certificates")
# record fields printed besides the BENCHMARK.json metrics; RATIONALE.md says
# why these are not gated there
EXTRA_UNITS = {"fail_ratio": "ratio", "item_p50_ms": "ms", "item_tail_ms": "ms",
               "item_tail_pct": "%", "item_samples": "count"}
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(Exception):
    pass


def load_spec() -> dict:
    if not os.path.isfile(os.path.join(ROOT, "src", "sensilab", "__init__.py")):
        raise BenchError(f"no sensilab sources under {os.path.join(ROOT, 'src')}")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def worker_env() -> dict:
    env = dict(os.environ)
    paths = [os.path.join(ROOT, "src"), ROOT]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    nproc = str(len(os.sched_getaffinity(0)))
    for var in THREAD_VARS:
        env[var] = nproc
    return env


def run_worker(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    """Run one workload in a fresh process and return its record."""
    cmd = [sys.executable, "-m", "perfbench.worker", "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds), "--traced", str(int(traced))]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=DEADLINE_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{workload}: worker ran past the deadline") from None
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"{workload}: worker exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def metrics_of(result: dict, spec: dict, trace: bool) -> dict:
    if trace:
        values, wanted = result["traced"]["per_layer"], spec["per_layer"]
    else:
        values, wanted = result["untraced"], spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise BenchError(f"metrics not produced: {', '.join(missing)}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}


def summary(result: dict) -> dict:
    records = list(result.values())
    failed = sum(r["failed"] for r in records)
    return {
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in records),
        "failed": failed,
    }


def print_table(workload: str, result: dict, spec: dict) -> None:
    for kind, rec in result.items():
        print(f"== {workload} {kind} seed={rec['seed']} pid={rec['pid']} passes="
              f"{len(rec['pass_walls_s'])}")
        rows = [(m["name"], rec[m["name"]], m["unit"]) for m in spec["end_to_end"]]
        rows += [(k, rec[k], unit) for k, unit in EXTRA_UNITS.items()]
        if kind == "traced":
            rows += [(name, v["value"], v["unit"])
                     for name, v in metrics_of(result, spec, True).items()]
        for name, value, unit in rows:
            print(f"  {name:40s} {value:>16.6g} {unit}")
        for msg in rec["failures"]:
            print(f"  FAIL {msg}")


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, help="a workload name, or all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None,
                   help="0 makes a single pass (default: BENCHMARK.json's run_seconds)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="also write every record to this JSON file")
    a = p.parse_args(argv)
    try:
        spec = load_spec()
        names = [w["name"] for w in spec["workloads"]]
        seconds = spec["run_seconds"] if a.seconds is None else a.seconds
        if a.workload != "all" and a.workload not in names:
            raise BenchError(f"unknown workload {a.workload!r}; one of {', '.join(names)}")
        trace = bool(a.trace)
        if a.workload != "all":
            kind = "traced" if trace else "untraced"
            result = {kind: run_worker(a.workload, a.seed, seconds, trace)}
            records = {a.workload: result}
            line = {**summary(result), "metrics": metrics_of(result, spec, trace)}
        else:
            records = {}
            for name in names:
                records[name] = {"untraced": run_worker(name, a.seed, seconds, False)}
                if trace:
                    records[name]["traced"] = run_worker(name, a.seed, seconds, True)
            for name in SECOND_SEED_WORKLOADS:
                records[f"{name}@seed{a.seed + 1}"] = {
                    "untraced": run_worker(name, a.seed + 1, 0.0, False)
                }
            line = {"correct": True, "attempted": 0, "failed": 0}
            for result in records.values():
                s = summary(result)
                line = {"correct": line["correct"] and s["correct"],
                        "attempted": line["attempted"] + s["attempted"],
                        "failed": line["failed"] + s["failed"]}
        for name, result in records.items():
            print_table(name, result, spec)
        first = next(iter(records.values()))
        print("machine: " + json.dumps(next(iter(first.values()))["machine"]))
        if a.out:
            with open(a.out, "w") as fh:
                json.dump({"seed": a.seed, "seconds": seconds, "trace": trace,
                           "records": records}, fh, indent=1)
                fh.write("\n")
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
