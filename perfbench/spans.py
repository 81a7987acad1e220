"""Spans around sensilab's public functions, recorded from outside the library.

A Tracer replaces each traced function where its callers look it up (module
globals of the sensilab modules, or the class attribute for methods) with a
wrapper that records one span per call. Spans stay in memory; the worker
writes them out when the run ends. Nothing inside ``src/`` is edited.

Self time of a span is its duration minus the durations of its direct
children. A layer's ``busy_s`` is the sum of self times of its spans, so the
layers of one pass add up to the traced part of its wall time.
"""

from __future__ import annotations

import importlib
import json
import resource
import time
from dataclasses import dataclass, field

# modules whose globals are searched when a traced function is rebound
_MODULES = (
    "sensilab",
    "sensilab.core",
    "sensilab.constructions",
    "sensilab.measures",
    "sensilab.verify",
    "sensilab.cli",
)

_LAMBDA_LABELS = {
    "dense": "dense",
    "matrix-free": "matfree",
    "component-wise": "components",
    "analytic": "analytic",
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    item: str | None
    cpu: float = 0.0
    rss_growth_mb: float = 0.0
    counters: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: list[Span]) -> tuple[list[float], list[float]]:
    """Per-span (wall, cpu) self time: own value minus direct children's."""
    wall = [sp.duration for sp in spans]
    cpu = [sp.cpu for sp in spans]
    for sp in spans:
        if sp.parent is not None:
            wall[sp.parent] -= sp.duration
            cpu[sp.parent] -= sp.cpu
    return wall, cpu


def layer_totals(spans: list[Span]) -> dict[str, dict]:
    """Aggregate spans by name: calls, self wall and cpu, counter sums, and
    RSS growth of the outermost span of each nesting run of that name."""
    wall, cpu = self_times(spans)
    out: dict[str, dict] = {}
    for i, sp in enumerate(spans):
        agg = out.setdefault(
            sp.name, {"calls": 0, "busy_s": 0.0, "cpu_s": 0.0, "rss_growth_mb": 0.0}
        )
        agg["calls"] += 1
        agg["busy_s"] += wall[i]
        agg["cpu_s"] += cpu[i]
        if sp.parent is None or spans[sp.parent].name != sp.name:
            agg["rss_growth_mb"] += sp.rss_growth_mb
        for key, value in sp.counters.items():
            agg[key] = agg.get(key, 0) + value
    return out


def span_cost_s(calls: int = 20000) -> float:
    """Wall time one traced call adds, measured on a no-op function.

    The wrapper records RSS growth, as the λ spans do, so for the other spans
    this is an upper bound.
    """

    def noop():
        return None

    wrapped = Tracer().wrap(noop, "noop", rss=True)
    t0 = time.perf_counter()
    for _ in range(calls):
        noop()
    bare = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(calls):
        wrapped()
    return (time.perf_counter() - t0 - bare) / calls


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """Records spans for the traced functions while installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.item: str | None = None
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def call(self, name, fn, args, kwargs, before=None, after=None, rss=False):
        counters = before(*args, **kwargs) if before is not None else {}
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        sp = Span(name, 0.0, 0.0, parent, self.item, counters=counters)
        self.spans.append(sp)
        self._stack.append(idx)
        rss0 = _maxrss_mb() if rss else 0.0
        cpu0 = time.process_time()
        sp.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            sp.end = time.perf_counter()
            sp.cpu = time.process_time() - cpu0
            if rss:
                sp.rss_growth_mb = _maxrss_mb() - rss0
            self._stack.pop()
        if after is not None:
            sp.name, extra = after(name, result, args)
            for key, value in extra.items():
                sp.counters[key] = sp.counters.get(key, 0) + value
        return result

    # -- installing ------------------------------------------------------

    def wrap(self, fn, name, before=None, after=None, rss=False):
        tracer = self

        def wrapper(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs, before, after, rss)

        return wrapper

    def _replace(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def rebind(self, fn, wrapper) -> None:
        """Point every sensilab module global bound to fn at wrapper."""
        for modname in _MODULES:
            mod = importlib.import_module(modname)
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._replace(mod, attr, wrapper)

    def install(self) -> None:
        """Wrap the public functions of every layer the benchmark measures."""
        from sensilab import cli, constructions, core, measures, verify

        def table_entries(fn_self, cap=None):
            return {"entries": 0 if fn_self._table is not None else 1 << fn_self.arity}

        self._replace(
            core.BooleanFunction,
            "table",
            self.wrap(core.BooleanFunction.table, "core.table", before=table_entries),
        )
        for meth in ("edges", "components", "adjacency"):
            orig = getattr(measures.SensitivityGraph, meth)
            self._replace(measures.SensitivityGraph, meth, self.wrap(orig, "measures.graph"))

        def lambda_after(name, result, args):
            label = _LAMBDA_LABELS.get(result.method, result.method)
            extra = {"iterations": result.iterations}
            if label == "dense":
                extra["matrix_bytes"] = 8 * 4 ** args[0].arity
            return f"measures.lambda.{label}", extra

        def uc1_after(name, result, args):
            return name, {"nodes": result.nodes, "exact": int(result.status == "exact")}

        plan = [
            (measures.s0, "measures.scan", {}),
            (measures.s1, "measures.scan", {}),
            (measures.s, "measures.scan", {}),
            (measures.degree, "measures.degree", {}),
            (measures.classify_component, "measures.census", {}),
            (measures.spectral_sensitivity, "measures.lambda",
             {"after": lambda_after, "rss": True}),
            (measures.c0, "measures.cert", {}),
            (measures.c1, "measures.cert", {}),
            (measures.uc1, "measures.uc1", {"after": uc1_after}),
            (cli.main, "cli", {}),
        ]
        for fname in ("haf", "chaf", "tradeoff", "maf", "address_fn", "desensitize",
                      "from_descriptor"):
            plan.append((getattr(constructions, fname), "constructions.build", {}))
        for fname in dir(verify):
            if fname.startswith("verify_"):
                plan.append((getattr(verify, fname), "verify", {}))
        for fn, name, opts in plan:
            self.rebind(fn, self.wrap(fn, name, **opts))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    def dump(self, path) -> None:
        """Write every span as one JSON line."""
        with open(path, "w") as fh:
            for i, sp in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": sp.name, "start": sp.start, "end": sp.end,
                    "parent": sp.parent, "item": sp.item, "cpu": sp.cpu,
                    "rss_growth_mb": sp.rss_growth_mb, "counters": sp.counters,
                }) + "\n")


# per-layer metric name -> (span name, aggregate key); units live in BENCHMARK.json
PER_LAYER = {
    "core.table.busy_s": ("core.table", "busy_s"),
    "core.table.entries": ("core.table", "entries"),
    "cli.self_s": ("cli", "busy_s"),
    "verify.self_s": ("verify", "busy_s"),
    "constructions.build.busy_s": ("constructions.build", "busy_s"),
    "measures.scan.busy_s": ("measures.scan", "busy_s"),
    "measures.scan.calls": ("measures.scan", "calls"),
    "measures.degree.busy_s": ("measures.degree", "busy_s"),
    "measures.graph.busy_s": ("measures.graph", "busy_s"),
    "measures.census.busy_s": ("measures.census", "busy_s"),
    "measures.lambda.dense.busy_s": ("measures.lambda.dense", "busy_s"),
    "measures.lambda.dense.cpu_s": ("measures.lambda.dense", "cpu_s"),
    "measures.lambda.dense.calls": ("measures.lambda.dense", "calls"),
    "measures.lambda.dense.matrix_bytes": ("measures.lambda.dense", "matrix_bytes"),
    "measures.lambda.dense.rss_growth_mb": ("measures.lambda.dense", "rss_growth_mb"),
    "measures.lambda.matfree.busy_s": ("measures.lambda.matfree", "busy_s"),
    "measures.lambda.matfree.iterations": ("measures.lambda.matfree", "iterations"),
    "measures.lambda.matfree.rss_growth_mb": ("measures.lambda.matfree", "rss_growth_mb"),
    "measures.cert.busy_s": ("measures.cert", "busy_s"),
    "measures.cert.calls": ("measures.cert", "calls"),
    "measures.uc1.busy_s": ("measures.uc1", "busy_s"),
    "measures.uc1.nodes": ("measures.uc1", "nodes"),
}


def per_layer_metrics(totals: dict[str, dict]) -> dict[str, float]:
    """The named per-layer metrics from layer_totals; absent layers read 0."""
    out = {
        metric: totals.get(layer, {}).get(key, 0)
        for metric, (layer, key) in PER_LAYER.items()
    }
    uc1 = totals.get("measures.uc1", {})
    out["measures.uc1.exact_ratio"] = (
        uc1["exact"] / uc1["calls"] if uc1.get("calls") else 0.0
    )
    return out
