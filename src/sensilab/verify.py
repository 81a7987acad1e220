"""Verification suites: each construction's claims checked at desk scale.

Every suite returns a list of ClaimResult rows pairing a predicted value
with an independently computed one. Suites are deterministic for a fixed
seed, and a report passes iff every claim passes.
"""

from __future__ import annotations

import csv
import io
import json
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import BooleanFunction, CertificateCollection, PartialAssignment, TruthTable
from .constructions import desensitize, haf, maf, tradeoff, tradeoff_profile
from .measures import (
    DEFAULT_SEED,
    DEFAULT_TOL,
    SensitivityGraph,
    classify_component,
    degree,
    s,
    s0,
    s1,
    spectral_sensitivity,
    uc1,
)

# reference value for the k=2 monotone address function, from a dense solve
MAF2_LAMBDA = 1.8477590650225735


@dataclass
class ClaimResult:
    claim: str
    predicted: object
    computed: object
    mode: str
    status: str
    runtime: float
    tolerance: float | None = None
    note: str = ""

    def to_dict(self) -> dict:
        return {
            "claim": self.claim,
            "predicted": self.predicted,
            "computed": self.computed,
            "mode": self.mode,
            "status": self.status,
            "runtime": self.runtime,
            "tolerance": self.tolerance,
            "note": self.note,
        }


def _passes(predicted, computed, mode: str, tol: float | None) -> bool:
    t = tol or 0.0
    if mode == "exact":
        return computed == predicted
    if mode == "le":
        return computed <= predicted + t
    if mode == "ge":
        return computed >= predicted - t
    if mode == "within-tol":
        return abs(computed - predicted) <= (tol if tol is not None else 0.0)
    raise ValueError(f"unknown comparison mode {mode!r}")


class _Claims:
    """The claim rows of one suite run. A row's runtime is the time since
    the previous row, or since the recorder was made for the first, so a
    suite's runtimes add up to its wall time."""

    def __init__(self) -> None:
        self.rows: list[ClaimResult] = []
        self._mark = 0.0
        self._lap()

    def _lap(self) -> float:
        """Seconds since the previous lap, which this call ends."""
        now = time.perf_counter()
        elapsed, self._mark = now - self._mark, now
        return elapsed

    def add(
        self,
        claim: str,
        predicted,
        computed,
        mode: str,
        tol: float | None = None,
        note: str = "",
    ) -> None:
        runtime = round(self._lap(), 6)
        ok = _passes(predicted, computed, mode, tol)
        self.rows.append(
            ClaimResult(
                claim=claim,
                predicted=predicted,
                computed=computed,
                mode=mode,
                status="pass" if ok else "fail",
                runtime=runtime,
                tolerance=tol,
                note=note,
            )
        )


def all_pass(claims: Sequence[ClaimResult]) -> bool:
    return all(c.status == "pass" for c in claims)


def claims_to_json(claims: Sequence[ClaimResult]) -> str:
    return json.dumps([c.to_dict() for c in claims], indent=2)


def claims_to_csv(claims: Sequence[ClaimResult]) -> str:
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["claim", "predicted", "computed", "mode", "status", "runtime"])
    for c in claims:
        w.writerow([c.claim, c.predicted, c.computed, c.mode, c.status, c.runtime])
    return buf.getvalue()


def verify_theorem1(
    r: int,
    lambda_method: str = "auto",
    tol: float = 1e-6,
    seed: int = DEFAULT_SEED,
) -> list[ClaimResult]:
    """Profile of the single-code address function: s0 = 1, s1 = 2^r hit
    exactly, arity formula, non-degeneracy, and lambda = sqrt(s1)."""
    if r not in (2, 3):
        raise ValueError(f"suite runs at r in {{2, 3}}, got {r}")
    claims = _Claims()
    fn = haf(r)
    mlen = (1 << r) - r - 1
    claims.add("thm1.arity", (1 << r) - 1 + (1 << mlen), fn.arity, "exact")
    claims.add(
        "thm1.arity_bound",
        1 << mlen,
        fn.arity,
        "ge",
        note="arity grows at least as fast as the data section",
    )
    claims.add("thm1.s0", 1, s0(fn).value, "exact")
    claims.add(
        "thm1.s1",
        1 << r,
        s1(fn).value,
        "exact",
        note="claimed as an upper bound; equality observed and asserted",
    )
    claims.add("thm1.nondegenerate", True, fn.is_nondegenerate(), "exact")
    spec = spectral_sensitivity(fn, method=lambda_method, seed=seed)
    lam_tol = 1e-9 if spec.method == "dense" else tol
    claims.add(
        "thm1.lambda",
        math.sqrt(1 << r),
        spec.value,
        "within-tol",
        tol=lam_tol,
        note=f"method={spec.method}, residual={spec.residual:.3e}",
    )
    return claims.rows


def _simon_masks(n: int) -> list[tuple[int, int, int]]:
    """Per-direction table-bit masks: positions with input bit i clear,
    positions with it set, and the shift between them."""
    size = 1 << n
    out = []
    for i in range(n):
        m0 = m1 = 0
        for x in range(size):
            if (x >> i) & 1:
                m1 |= 1 << x
            else:
                m0 |= 1 << x
        out.append((m0, m1, 1 << i))
    return out


def _simon_chunk(n: int, lo: int, hi: int, bound: float):
    """Scan table integers [lo, hi): per-table sensitivity profile computed
    bit-parallel across the whole chunk."""
    size = 1 << n
    tables = np.arange(lo, hi, dtype=np.uint64)
    masks = _simon_masks(n)
    diffs = []
    nondeg = np.ones(len(tables), dtype=bool)
    for m0, m1, shift in masks:
        perm = ((tables & np.uint64(m0)) << np.uint64(shift)) | (
            (tables & np.uint64(m1)) >> np.uint64(shift)
        )
        d = tables ^ perm
        diffs.append(d)
        nondeg &= d != 0
    counts = np.zeros((size, len(tables)), dtype=np.int8)
    for d in diffs:
        for x in range(size):
            counts[x] += ((d >> np.uint64(x)) & np.uint64(1)).astype(np.int8)
    tbits = np.zeros((size, len(tables)), dtype=bool)
    for x in range(size):
        tbits[x] = ((tables >> np.uint64(x)) & np.uint64(1)).astype(bool)
    s1_all = np.where(tbits, counts, -1).max(axis=0)
    s0_all = np.where(~tbits, counts, -1).max(axis=0)
    s_all = counts.max(axis=0)
    sums = s0_all.astype(np.int64) + s1_all.astype(np.int64)

    relevant = nondeg
    if not relevant.any():
        return None
    rsums = sums[relevant]
    rtables = tables[relevant]
    j = int(rsums.argmin())
    min_sum = int(rsums[j])
    min_table = int(rtables[rsums == min_sum].min())
    violations = int((rsums < bound - 1e-9).sum())
    high_s = relevant & (s_all > math.log2(n))
    branch_violations = int((sums[high_s] < bound - 1e-9).sum())
    checked = int(relevant.sum())
    return min_sum, min_table, violations, branch_violations, checked


def verify_simon(n: int, threads: int = 1) -> list[ClaimResult]:
    """Exhaustive check of the sensitivity sum bound
    s0 + s1 >= log n - log log n + 2 over every non-degenerate function on
    exactly n variables. n = 1 is excluded: log log 1 is undefined."""
    if n not in (2, 3, 4):
        raise ValueError(f"exhaustive enumeration runs at n in {{2, 3, 4}}, got {n}")
    claims = _Claims()
    bound = math.log2(n) - math.log2(math.log2(n)) + 2
    total = 1 << (1 << n)
    workers = max(1, int(threads))
    nchunks = max(1, min(workers * 4, total))
    step = -(-total // nchunks)
    ranges = [(lo, min(lo + step, total)) for lo in range(0, total, step)]
    results = []
    if workers == 1:
        for lo, hi in ranges:
            results.append(_simon_chunk(n, lo, hi, bound))
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futs = [pool.submit(_simon_chunk, n, lo, hi, bound) for lo, hi in ranges]
            results = [f.result() for f in futs]
    # order-independent reduction: min of (sum, table), totals added
    min_sum = None
    min_table = None
    violations = 0
    branch_violations = 0
    checked = 0
    for res in results:
        if res is None:
            continue
        ms, mt, v, bv, ck = res
        if min_sum is None or (ms, mt) < (min_sum, min_table):
            min_sum, min_table = ms, mt
        violations += v
        branch_violations += bv
        checked += ck
    claims.add(
        f"thm2.n{n}",
        round(bound, 12),
        min_sum,
        "ge",
        note=(
            f"{checked} non-degenerate tables of {total}; zero below the bound "
            f"({violations} violations); minimum attained by table "
            f"0x{min_table:x}; n=1 excluded (log log 1 undefined)"
        ),
    )
    claims.add(
        f"thm2.n{n}.branch",
        0,
        branch_violations,
        "exact",
        note="tables with s > log n all satisfy the bound outright",
    )
    if n == 2:
        claims.add(
            "thm2.n2.min",
            3,
            min_sum,
            "exact",
            note=f"minimum 3 attained, e.g. by AND (table 0x{min_table:x})",
        )
    return claims.rows


def _subgraph_exhaustive(n: int) -> tuple[int, int]:
    """Check |V| >= 2^md over every non-empty induced subgraph of the n-cube.
    Subsets are bitmask integers scanned with the same bit-parallel trick as
    the table enumeration."""
    size = 1 << n
    total = 1 << size
    violations = 0
    checked = 0
    step = 1 << 16
    for lo in range(1, total, step):
        hi = min(lo + step, total)
        sets = np.arange(lo, hi, dtype=np.uint64)
        deg = np.zeros((size, len(sets)), dtype=np.int8)
        inset = np.zeros((size, len(sets)), dtype=bool)
        for x in range(size):
            inset[x] = ((sets >> np.uint64(x)) & np.uint64(1)).astype(bool)
        for x in range(size):
            for i in range(n):
                deg[x] += inset[x ^ (1 << i)].astype(np.int8)
        deg_in = np.where(inset, deg, np.int8(127))
        md = deg_in.min(axis=0)
        nverts = np.bitwise_count(sets).astype(np.int64)
        violations += int((nverts < (np.int64(1) << md.astype(np.int64))).sum())
        checked += len(sets)
    return violations, checked


def _subgraph_sampled(n: int, samples: int, seed: int) -> tuple[int, int]:
    """Random induced subgraphs: each sample draws an inclusion probability
    uniformly, then includes vertices independently, so dense subsets (the
    ones with interesting minimum degree) actually occur."""
    size = 1 << n
    rng = np.random.default_rng(seed)
    nbr_idx = [np.arange(size) ^ (1 << i) for i in range(n)]
    violations = 0
    checked = 0
    rows = max(1, min(samples, max(1, 10_000_000 // size)))
    done = 0
    while done < samples:
        batch = min(rows, samples - done)
        done += batch
        p = rng.uniform(0.0, 1.0, size=(batch, 1))
        incl = rng.uniform(0.0, 1.0, size=(batch, size)) < p
        nonempty = incl.any(axis=1)
        if not nonempty.any():
            continue
        incl = incl[nonempty]
        deg = np.zeros(incl.shape, dtype=np.int16)
        for idx in nbr_idx:
            deg += incl[:, idx]
        deg_in = np.where(incl, deg, np.int16(32767))
        md = deg_in.min(axis=1).astype(np.int64)
        nverts = incl.sum(axis=1).astype(np.int64)
        violations += int((nverts < (np.int64(1) << md)).sum())
        checked += int(nonempty.sum())
    return violations, checked


def verify_subgraph_lemma(
    n: int, samples: int | None = None, seed: int = DEFAULT_SEED
) -> list[ClaimResult]:
    """Induced-subgraph bound |V| >= 2^md: exhaustive for n <= 4, sampled
    above (or when a sample count is requested)."""
    if n < 1:
        raise ValueError("cube dimension must be positive")
    if samples is not None and samples < 1:
        raise ValueError(f"need at least one sample, got {samples}")
    claims = _Claims()
    if samples is None and n <= 4:
        violations, checked = _subgraph_exhaustive(n)
        note = f"all {checked} non-empty induced subgraphs of the {n}-cube"
    else:
        if samples is None:
            samples = 100_000
        if n > 20:
            raise ValueError(f"cube dimension {n} too large to sample")
        violations, checked = _subgraph_sampled(n, samples, seed)
        note = f"{checked} random non-empty subsets of the {n}-cube, seed {seed:#x}"
    claims.add(f"sub.n{n}", 0, violations, "exact", note=note)
    return claims.rows


def verify_edge_bound(fn: BooleanFunction, name: str | None = None) -> list[ClaimResult]:
    """|E(G_f)| <= s(f) * 2^(n-1)."""
    claims = _Claims()
    label = name or getattr(fn, "name", "f")
    edges = SensitivityGraph(fn).edge_count()
    smax = s(fn).value
    limit = smax * (1 << (fn.arity - 1))
    claims.add(f"edge.{label}", limit, edges, "le", note=f"s={smax}, n={fn.arity}")
    return claims.rows


def verify_lemma_chain(
    fn, tol: float = 1e-6, name: str | None = None, method: str = "auto"
) -> list[ClaimResult]:
    """sqrt(s) <= lambda <= sqrt(s0*s1) and deg <= lambda^2."""
    claims = _Claims()
    label = name or getattr(fn, "name", "f")
    v0 = s0(fn).value
    v1 = s1(fn).value
    smax = max(v0, v1)
    lam = spectral_sensitivity(fn, method=method, tol=DEFAULT_TOL).value
    deg = degree(fn)
    claims.add(f"chain.{label}.sqrt_s_le_lambda", math.sqrt(smax), lam, "ge", tol=tol)
    claims.add(
        f"chain.{label}.lambda_le_sqrt_s0s1", math.sqrt(v0 * v1), lam, "le", tol=tol
    )
    claims.add(f"chain.{label}.deg_le_lambda_sq", lam * lam, deg, "le", tol=tol)
    return claims.rows


def verify_lemma_chain_random(
    arities: Sequence[int] = tuple(range(4, 11)),
    count: int = 1000,
    seed: int = DEFAULT_SEED,
    tol: float = 1e-6,
) -> list[ClaimResult]:
    """Random-function sweep of the lemma chain; one claim per arity counting
    violations beyond tol."""
    if count < 1:
        raise ValueError(f"need at least one random table per arity, got {count}")
    if not arities:
        raise ValueError("need at least one arity")
    claims = _Claims()
    rng = np.random.default_rng(seed)
    for n in arities:
        violations = 0
        worst = -math.inf
        tables = rng.integers(0, 2, size=(count, 1 << n), dtype=np.uint8)
        for row in tables:
            table = TruthTable(n, row)
            v0 = s0(table).value
            v1 = s1(table).value
            smax = max(v0, v1)
            lam = spectral_sensitivity(table, method="dense").value
            deg = degree(table)
            slack = max(
                math.sqrt(smax) - lam,
                lam - math.sqrt(v0 * v1),
                deg - lam * lam,
            )
            worst = max(worst, slack)
            if slack > tol:
                violations += 1
        claims.add(
            f"chain.random.n{n}",
            0,
            violations,
            "exact",
            tol=tol,
            note=f"{count} random tables, seed {seed:#x}, worst slack {worst:.3e}",
        )
    return claims.rows


def verify_desensitization(
    fn: BooleanFunction,
    certs: CertificateCollection,
    name: str | None = None,
    tol: float = 1e-6,
) -> list[ClaimResult]:
    """Triplication profile: s0 = 1, s1 = 3 * max codim of the collection,
    lambda = sqrt(s1), and the unambiguous certificate size at most triples."""
    if 3 * fn.arity > 20:
        raise ValueError(f"suite scans 2^(3n) inputs; 3*{fn.arity} > 20")
    claims = _Claims()
    label = name or getattr(fn, "name", "f")
    prime = desensitize(fn, certs)
    claims.add(f"desens.{label}.s0", 1, s0(prime).value, "exact")
    target = 3 * certs.max_codim()
    claims.add(f"desens.{label}.s1", target, s1(prime).value, "exact")
    spec = spectral_sensitivity(prime)
    claims.add(
        f"desens.{label}.lambda",
        math.sqrt(target),
        spec.value,
        "within-tol",
        tol=tol,
        note=f"sqrt(s1) since s0=1; method={spec.method}",
    )
    if prime.arity <= 8:
        base = uc1(fn)
        lifted = uc1(prime)
        if base.status == "exact" and lifted.status == "exact":
            claims.add(
                f"desens.{label}.uc1",
                3 * base.value,
                lifted.value,
                "le",
                note=f"UC1 of the base is {base.value}",
            )
    return claims.rows


def verify_tradeoff(
    as_: Sequence[int],
    bs_: Sequence[int],
    tol: float = 1e-6,
    lambda_method: str = "auto",
    seed: int = DEFAULT_SEED,
) -> list[ClaimResult]:
    """Closed-form profile of the composed family plus a census of its
    sensitivity-graph components: only stars and the center-degree-s0,
    middle-degree-s1 two-layer stars may appear."""
    claims = _Claims()
    fn = tradeoff(as_, bs_)
    profile = tradeoff_profile(as_, bs_)
    if fn.arity > 26:
        raise ValueError(f"arity {fn.arity} beyond the iterative cap 26")
    claims.add("thm3.arity", profile["arity"], fn.arity, "exact")
    claims.add("thm3.s0", profile["s0"], s0(fn).value, "exact")
    claims.add("thm3.s1", profile["s1"], s1(fn).value, "exact")
    spec = spectral_sensitivity(fn, method=lambda_method, seed=seed)
    claims.add(
        "thm3.lambda",
        math.sqrt(profile["lambda_sq"]),
        spec.value,
        "within-tol",
        tol=tol,
        note=f"method={spec.method}, residual={spec.residual:.3e}",
    )
    if fn.arity <= 16:
        comps = SensitivityGraph(fn).components()
        shape_counts: dict = {}
        bad = 0
        for comp in comps:
            kind, params = classify_component(comp)
            key = (kind,) + params
            shape_counts[key] = shape_counts.get(key, 0) + 1
            if kind == "other":
                bad += 1
        census = ", ".join(
            f"{v} x {k}" for k, v in sorted(shape_counts.items(), key=lambda kv: kv[0])
        )
        claims.add("thm3.census", 0, bad, "exact", note=f"component shapes: {census}")
        if bs_:
            want = ("two-layer-star", profile["s0"], profile["s1"])
            claims.add(
                "thm3.fig1",
                1,
                shape_counts.get(want, 0),
                "ge",
                note=(
                    f"two-layer stars with center degree {profile['s0']} and "
                    f"middle degree {profile['s1']}"
                ),
            )
    return claims.rows


def verify_maf_proposition(k: int, tol: float = 1e-6) -> list[ClaimResult]:
    """Monotone address function: degree at least k (exact integer Mobius,
    with the weight-threshold restriction hitting k exactly) and total
    sensitivity ceil(k/2) + 1."""
    if not 2 <= k <= 4:
        raise ValueError(f"suite runs at k in {{2, 3, 4}}, got {k}")
    claims = _Claims()
    fn = maf(k)
    deg = degree(fn)
    claims.add(f"maf.k{k}.deg", k, deg, "ge", note=f"exact degree {deg}")
    m = fn.arity - k
    # pin the data section to zero: what remains is the strict weight
    # threshold on the k address bits, whose degree is exactly k
    data_mask = ((1 << m) - 1) << k
    thr = fn.restrict(PartialAssignment(fn.arity, data_mask, 0))
    claims.add(f"maf.k{k}.threshold_deg", k, degree(thr), "exact")
    claims.add(f"maf.k{k}.s", (k + 1) // 2 + 1, s(fn).value, "exact")
    if k == 2:
        claims.add("maf.k2.s0", 2, s0(fn).value, "exact")
        claims.add("maf.k2.s1", 2, s1(fn).value, "exact")
        lam = spectral_sensitivity(fn, method="dense").value
        claims.add(
            "maf.k2.lambda",
            MAF2_LAMBDA,
            lam,
            "within-tol",
            tol=tol,
            note="reference value from a dense eigensolve",
        )
    return claims.rows
