"""Self-tests for the benchmark: span arithmetic, the correctness gate, and
where peak RSS comes from."""

import json
import math
import os
import resource
import shutil
import subprocess
import sys

import numpy as np

from perfbench import spans, worker, workloads
from sensilab import constructions, core, measures

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
RUN = os.path.join(ROOT, "perfbench", "run.py")


def test_self_time_subtracts_direct_children_only():
    s = [
        spans.Span("verify", 0.0, 10.0, None, "i", cpu=9.0),
        spans.Span("measures.graph", 1.0, 4.0, 0, "i", cpu=3.0, rss_growth_mb=5.0),
        spans.Span("measures.graph", 2.0, 3.0, 1, "i", cpu=1.0, rss_growth_mb=4.0),
        spans.Span("measures.scan", 5.0, 6.5, 0, "i", cpu=1.0),
    ]
    wall, cpu = spans.self_times(s)
    assert wall == [10.0 - 3.0 - 1.5, 3.0 - 1.0, 1.0, 1.5]
    assert cpu == [9.0 - 3.0 - 1.0, 2.0, 1.0, 1.0]
    totals = spans.layer_totals(s)
    assert totals["measures.graph"]["calls"] == 2
    assert totals["measures.graph"]["busy_s"] == 3.0
    # a nested span of the same layer does not add its RSS growth twice
    assert totals["measures.graph"]["rss_growth_mb"] == 5.0
    assert sum(t["busy_s"] for t in totals.values()) == 10.0


def test_tracer_wraps_callers_and_restores():
    table = core.TruthTable(2, np.array([0, 1, 1, 1], dtype=np.uint8))
    original = measures.s0
    tracer = spans.Tracer()
    tracer.install()
    try:
        bench = tracer.wrap(measures.compute_measures, "bench")
        bench(core.BooleanFunction.from_table(table), ["s0", "lambda"])
    finally:
        tracer.uninstall()
    assert measures.s0 is original
    names = [sp.name for sp in tracer.spans]
    assert names[0] == "bench"
    assert "measures.scan" in names and "measures.lambda.dense" in names
    parents = {sp.name: tracer.spans[sp.parent].name for sp in tracer.spans[1:]}
    assert parents["measures.scan"] == "bench"
    assert parents["measures.lambda.dense"] == "bench"
    assert parents["measures.graph"] in ("measures.lambda.dense", "measures.graph")
    dense = spans.layer_totals(tracer.spans)["measures.lambda.dense"]
    assert dense["matrix_bytes"] == 8 * 4**2
    assert 0 < spans.span_cost_s(1000) < 1e-3


def test_tail_is_highest_percentile_with_ten_beyond():
    lat = worker.item_latency([float(i) for i in range(1, 31)])
    assert lat["item_tail_ms"] == 20000.0
    assert math.isclose(lat["item_tail_pct"], 100 * 20 / 30)
    assert worker.item_latency([1.0, 2.0])["item_tail_ms"] == 2000.0


def test_gate_flags_wrong_pinned_value():
    wl = workloads.Certificates()
    state = [("haf(2)", constructions.haf(2))]
    items = wl.run_pass(state, None)
    good = workloads.Gate()
    wl.check(state, items, good)
    assert good.attempted > 0 and good.failed == 0
    bad = workloads.Gate()
    wl.check(state, items, bad, pinned={"haf(2)": {"c0": 2, "c1": 5, "uc1": 4}})
    assert bad.failed == 1 and "c1=4, want 5" in bad.messages[0]


def test_gate_flags_wrong_closed_form(tmp_path):
    wl = workloads.Haf3Cli()
    path = tmp_path / "haf3.json"
    path.write_text(json.dumps({"family": "haf", "params": {"r": 3}}))
    entries = [{"name": k, "value": v, "exact": k != "lambda", "skipped": None}
               for k, v in workloads.HAF3_EXPECTED.items()]
    item = workloads.ItemResult("haf(3)", 1.0, (0, json.dumps({"entries": entries})), None)
    state = {"path": str(path), "construct_rc": 0}
    good = workloads.Gate()
    assert wl.check(state, [item], good) == (4, 3)
    assert good.failed == 0
    bad = workloads.Gate()
    wl.check(state, [item], bad, expected={**workloads.HAF3_EXPECTED, "s1": 9})
    assert bad.failed == 1


def _run(args, cwd=ROOT):
    return subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True,
                          text=True, timeout=170)


def test_peak_rss_comes_from_a_fresh_process_per_workload(tmp_path):
    ballast = np.ones(40_000_000)  # ~320 MB held by this process
    own_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    records = {}
    for seed in (1, 2):
        out = tmp_path / f"seed{seed}.json"
        proc = _run([RUN, "--workload", "random-chain", "--seed", str(seed),
                     "--seconds", "0", "--out", str(out)])
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.splitlines()[-1])["correct"]
        records[seed] = json.loads(out.read_text())["records"]["random-chain"]["untraced"]
    pids = {r["pid"] for r in records.values()}
    assert len(pids) == 2 and os.getpid() not in pids
    for r in records.values():
        assert 0 < r["peak_rss_mb"] < own_mb - 200
    assert ballast[-1] == 1.0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _run(["perfbench/run.py", "--workload", "certificates", "--seed", "1",
                 "--seconds", "1", "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
