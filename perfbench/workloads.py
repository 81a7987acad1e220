"""The benchmark's four workloads: seeded inputs, one timed pass, and a gate.

Each workload has three parts and a pass count:

- ``passes``: how many timed passes a run makes. It is fixed, not fitted to
  a time budget, so every commit is scored by per-item medians over the
  same number of passes.
- ``setup(seed, workdir)`` builds the inputs from the seed and returns
  them. Its time is reported as ``setup_s``.
- ``run_pass(state, tracer)`` makes the timed calls, one ``ItemResult`` per
  Boolean function processed.
- ``check(state, items, gate)`` checks every output and returns
  ``(calls, exact_calls)`` for ``exact_ratio``.

Only public functions of ``sensilab`` are called, always through their module
(``measures.c0``, not a local alias), so a traced run sees every call.
RATIONALE.md says why each workload exists.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import time
import traceback
from dataclasses import dataclass

import numpy as np

from sensilab import cli, constructions, core, measures, verify

# spectral methods whose value is an estimate rather than an exact eigensolve
INEXACT_METHODS = ("matrix-free",)


@dataclass
class ItemResult:
    label: str
    seconds: float
    output: object
    error: str | None


class Gate:
    """Counts checks attempted and failed; keeps the first failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(what)
        return ok


def timed(label: str, tracer, thunk) -> ItemResult:
    """Run one item, timing it; an exception is kept as a failed output."""
    if tracer is not None:
        tracer.item = label
    t0 = time.perf_counter()
    try:
        out, err = thunk(), None
    except Exception:  # the pass must go on; the gate counts the failure
        out, err = None, traceback.format_exc(limit=3)
    return ItemResult(label, time.perf_counter() - t0, out, err)


def _quiet_cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


# -- haf3-cli ---------------------------------------------------------------

HAF3_EXPECTED = {"s0": 1, "s1": 8, "deg": 8, "lambda": math.sqrt(8)}
HAF3_LAMBDA_TOL = 1e-6


class Haf3Cli:
    name = "haf3-cli"
    # one pass is a single call of about 16 s, nearly all in numpy, which
    # machine noise hardly moves
    passes = 1

    def setup(self, seed: int, workdir: str) -> dict:
        path = os.path.join(workdir, "haf3.json")
        rc, _ = _quiet_cli(["construct", "haf", "--r", "3", "--out", path])
        return {"path": path, "construct_rc": rc}

    def run_pass(self, state: dict, tracer) -> list[ItemResult]:
        argv = ["measure", "--fn", state["path"], "--measures", "s0,s1,deg,lambda",
                "--method", "matfree"]
        return [timed("haf(3)", tracer, lambda: _quiet_cli(argv))]

    def check(self, state, items, gate, expected=HAF3_EXPECTED) -> tuple[int, int]:
        gate.check(state["construct_rc"] == 0, "construct haf --r 3 exit code")
        with open(state["path"]) as fh:
            desc = json.load(fh)
        gate.check(desc == {"family": "haf", "params": {"r": 3}}, f"descriptor {desc}")
        calls = exact = 0
        for item in items:
            calls += len(expected)
            if not gate.check(item.error is None, f"{item.label}: {item.error}"):
                continue
            rc, text = item.output
            if not gate.check(rc == 0, f"{item.label}: measure exit code {rc}"):
                continue
            entries = {e["name"]: e for e in json.loads(text)["entries"]}
            for name, want in expected.items():
                e = entries.get(name)
                if not gate.check(e is not None and e["skipped"] is None,
                                  f"{item.label}: {name} missing or skipped"):
                    continue
                if name == "lambda":
                    ok = abs(e["value"] - want) <= HAF3_LAMBDA_TOL
                else:
                    ok = e["value"] == want
                gate.check(ok, f"{item.label}: {name}={e['value']}, want {want}")
                exact += bool(e["exact"])
        return calls, exact


# -- random-chain -----------------------------------------------------------

# tables per arity in one pass: many tiny ones, a few at n=9, 10
CHAIN_COUNTS = {4: 200, 5: 200, 6: 200, 7: 200, 8: 200, 9: 20, 10: 12}
# measure calls the suite makes per table: s0, s1, dense lambda, degree
CHAIN_CALLS = 4


class RandomChain:
    name = "random-chain"
    # a pass is about 3 s; the first pass of a process is often the slowest
    passes = 5

    def setup(self, seed: int, workdir: str) -> list[tuple[int, int]]:
        items = []
        for n, count in CHAIN_COUNTS.items():
            states = np.random.SeedSequence([seed, n]).generate_state(count)
            items.extend((n, int(s)) for s in states)
        return items

    def run_pass(self, state, tracer) -> list[ItemResult]:
        return [
            timed(f"n{n}.{table_seed:#x}", tracer,
                  lambda n=n, s=table_seed: verify.verify_lemma_chain_random(
                      arities=[n], count=1, seed=s))
            for n, table_seed in state
        ]

    def check(self, state, items, gate) -> tuple[int, int]:
        calls = exact = 0
        for (n, _), item in zip(state, items):
            calls += CHAIN_CALLS
            if not gate.check(item.error is None, f"{item.label}: {item.error}"):
                continue
            (claim,) = item.output
            gate.check(
                claim.claim == f"chain.random.n{n}" and claim.status == "pass"
                and claim.computed == 0,
                f"{item.label}: {claim.claim} {claim.status} computed={claim.computed}",
            )
            exact += CHAIN_CALLS
        return calls, exact


# -- tradeoff-suite ---------------------------------------------------------

# the paper's closed forms for tradeoff(2;2), and its component census
TRADEOFF_EXPECTED = {"thm3.arity": 13, "thm3.s0": 4, "thm3.s1": 4,
                     "thm3.lambda": math.sqrt(7), "thm3.census": 0}
TRADEOFF_CENSUS = {("star", 3): 768, ("two-layer-star", 4, 4): 256}
TRADEOFF_LAMBDA_TOL = 1e-6


def _claim_exact(claim) -> bool:
    return claim.status == "pass" and not any(
        f"method={m}" in claim.note for m in INEXACT_METHODS
    )


class TradeoffSuite:
    name = "tradeoff-suite"
    # one pass is a single eigensolve of about 40 s
    passes = 1

    def setup(self, seed: int, workdir: str) -> dict:
        return {"fn": constructions.tradeoff([2], [2])}

    def run_pass(self, state, tracer) -> list[ItemResult]:
        return [timed("tradeoff(2;2)", tracer,
                      lambda: verify.verify_tradeoff([2], [2]))]

    def check(self, state, items, gate) -> tuple[int, int]:
        calls = exact = 0
        for item in items:
            calls += len(TRADEOFF_EXPECTED) + 1
            if not gate.check(item.error is None, f"{item.label}: {item.error}"):
                continue
            claims = {c.claim: c for c in item.output}
            for c in item.output:
                gate.check(c.status == "pass", f"{c.claim} {c.status}")
            for name, want in TRADEOFF_EXPECTED.items():
                c = claims.get(name)
                if not gate.check(c is not None, f"claim {name} missing"):
                    continue
                if name == "thm3.lambda":
                    ok = abs(c.computed - want) <= TRADEOFF_LAMBDA_TOL
                else:
                    ok = c.computed == want
                gate.check(ok, f"{name} computed {c.computed}, want {want}")
                exact += _claim_exact(c)
            fig1 = claims.get("thm3.fig1")
            gate.check(fig1 is not None and fig1.computed >= 1, "thm3.fig1")
            exact += fig1 is not None and _claim_exact(fig1)
        # recount the census once per run, outside the timed pass
        shapes: dict = {}
        for comp in measures.SensitivityGraph(state["fn"]).components():
            kind, params = measures.classify_component(comp)
            shapes[(kind,) + params] = shapes.get((kind,) + params, 0) + 1
        gate.check(shapes == TRADEOFF_CENSUS, f"census {shapes}, want {TRADEOFF_CENSUS}")
        return calls, exact


# -- certificates -----------------------------------------------------------

CONSTRUCTED = (
    ("haf(2)", "haf", (2,)),
    ("maf(3)", "maf", (3,)),
    ("address(2)", "address_fn", (2,)),
    ("chaf(2,2)", "chaf", ([2, 2],)),
    ("maf(4)", "maf", (4,)),
    ("address(3)", "address_fn", (3,)),
    ("tradeoff(2;2)", "tradeoff", ([2], [2])),
)
# values pinned at the seed commit; tradeoff(2;2) gets structural checks only
CERT_PINNED = {
    "haf(2)": {"c0": 2, "c1": 4, "uc1": 4},
    "maf(3)": {"c0": 3, "c1": 2, "uc1": 4},
    "address(2)": {"c0": 3, "c1": 3, "uc1": 3},
    "chaf(2,2)": {"c0": 3, "c1": 7},
    "maf(4)": {"c0": 3, "c1": 3},
    "address(3)": {"c0": 4, "c1": 4},
}
# Random tables for uc1, per arity, from a fixed stream. A random table at
# n=6..8 either finishes uc1 in milliseconds or spends the whole node budget
# (~1 s), so drawing them from the run seed made wall_s jump by seconds
# between seeds. In this panel the tables at n=7 and 8 exhaust the budget.
UC1_PANEL_SEED = 0
UC1_PANEL = {5: 1, 6: 1, 7: 1, 8: 1}
# random tables from the run seed, above the uc1 cap: c0/c1 only
CERT_BULK = {9: 4}


def _subcube(n: int, mask: int, value: int) -> np.ndarray:
    xs = np.arange(1 << n, dtype=np.int64)
    return (xs & mask) == value


class Certificates:
    name = "certificates"
    # one pass is about 7 s of pure-Python search, which machine noise slows
    # most; the median of five steadies it
    passes = 5

    def setup(self, seed: int, workdir: str) -> list:
        fns = []
        for label, factory, params in CONSTRUCTED:
            fn = getattr(constructions, factory)(*params)
            fn.table()
            fns.append((label, fn))
        for tag, stream, counts in (("panel", UC1_PANEL_SEED, UC1_PANEL),
                                    ("random", seed, CERT_BULK)):
            for n, count in counts.items():
                rng = np.random.default_rng([stream, n])
                for k in range(count):
                    table = core.TruthTable(n, rng.integers(0, 2, 1 << n, dtype=np.uint8))
                    fns.append((f"{tag}{n}.{k}", core.BooleanFunction.from_table(table)))
        return fns

    def run_pass(self, state, tracer) -> list[ItemResult]:
        def measure_all(fn):
            out = {"c0": measures.c0(fn), "c1": measures.c1(fn)}
            if fn.arity <= measures.UC_EXACT_CAP:
                out["uc1"] = measures.uc1(fn)
            return out

        return [timed(label, tracer, lambda fn=fn: measure_all(fn)) for label, fn in state]

    def check(self, state, items, gate, pinned=CERT_PINNED) -> tuple[int, int]:
        calls = exact = 0
        fns = dict(state)
        for item in items:
            fn = fns[item.label]
            calls += 2 + (fn.arity <= measures.UC_EXACT_CAP)
            if not gate.check(item.error is None, f"{item.label}: {item.error}"):
                continue
            out = item.output
            vals = fn.table().values
            n = fn.arity
            for side, sens in (("c0", measures.s0), ("c1", measures.s1)):
                res = out[side]
                exact += 1
                gate.check(res.value >= sens(fn).value, f"{item.label}: {side} < s")
                if res.witness is None:
                    gate.check(res.value == 0 and not (vals == int(side[1])).any(),
                               f"{item.label}: {side} has no witness")
                    continue
                c, cert = measures.certificate_complexity_at(fn, res.witness)
                cube = _subcube(n, cert.mask, cert.value)
                gate.check(
                    c == res.value and cube[res.witness]
                    and (vals[cube] == vals[res.witness]).all(),
                    f"{item.label}: {side} witness not a monochromatic certificate",
                )
            if "uc1" in out:
                res = out["uc1"]
                if res.status == "exact":
                    exact += 1
                    counts = np.zeros(1 << n, dtype=np.int64)
                    for member in res.witness.certificates:
                        counts += _subcube(n, member.mask, member.value)
                    gate.check(
                        (counts == vals).all() and res.witness.max_codim() == res.value
                        and res.value >= out["c1"].value,
                        f"{item.label}: uc1 witness is not an unambiguous partition",
                    )
                else:
                    gate.check(res.status == "exhausted"
                               and res.lower_bound >= out["c1"].value,
                               f"{item.label}: uc1 {res.status} bound {res.lower_bound}")
            for key, want in pinned.get(item.label, {}).items():
                got = out[key].value if key in out else None
                gate.check(got == want, f"{item.label}: {key}={got}, want {want}")
        return calls, exact


WORKLOADS = {w.name: w for w in (Haf3Cli(), RandomChain(), TradeoffSuite(), Certificates())}
