"""Exact and spectral complexity measures of Boolean functions.

Everything here works on a BooleanFunction or a TruthTable. Exact measures
(sensitivity, certificates, degree) come from full scans of the table;
spectral sensitivity is the operator norm of the sensitivity graph's
adjacency matrix, built once as a sparse matrix: an exact dense solve per
connected component, a matrix-free power iteration, or the closed form a
construction claims for itself.
"""

from __future__ import annotations

import itertools
import json
import math
import time
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components as _cc

from .core import (
    BooleanFunction,
    CapExceeded,
    CertificateCollection,
    DEFAULT_TABLE_CAP,
    PartialAssignment,
    TruthTable,
)

# bytes any one array of the spectral solvers may take: the sparse
# adjacency, or one batch of dense component blocks
MEMORY_BUDGET = 512 << 20
CERT_SEARCH_CAP = 16
UC_EXACT_CAP = 8

DEFAULT_TOL = 1e-9
DEFAULT_SEED = 0x5EED
DEFAULT_MAX_ITER = 10000


class ConvergenceError(RuntimeError):
    """Power iteration hit its iteration budget before reaching tolerance."""

    def __init__(self, message: str, best: float):
        super().__init__(message)
        self.best = best


def _table_of(fn, cap: int = DEFAULT_TABLE_CAP) -> TruthTable:
    if isinstance(fn, TruthTable):
        return fn
    if isinstance(fn, BooleanFunction):
        return fn.table(cap)
    raise TypeError(f"expected BooleanFunction or TruthTable, got {type(fn).__name__}")


def _swap_axis(values: np.ndarray, i: int) -> np.ndarray:
    """values[x ^ (1 << i)] for all x at once."""
    return values.reshape(-1, 2, 1 << i)[:, ::-1, :].reshape(values.shape)


def _sens_counts(values: np.ndarray, arity: int) -> np.ndarray:
    counts = np.zeros(values.shape, dtype=np.int64)
    for i in range(arity):
        counts += values != _swap_axis(values, i)
    return counts


class SensSummary(NamedTuple):
    value: int
    witness: int | None


def sensitivity_at(fn: BooleanFunction, x: int) -> int:
    """Number of coordinates whose flip changes fn at x."""
    fx = fn(x)
    if fn._batch is not None and fn.arity <= 63:
        xs = x ^ (np.int64(1) << np.arange(fn.arity, dtype=np.int64))
        return int((fn.values(xs) != fx).sum())
    return sum(fn(x ^ (1 << i)) != fx for i in range(fn.arity))


def _side_max(per_input: np.ndarray, table: TruthTable, b: int | None) -> SensSummary:
    """Max of per_input over the inputs where f is b (all for None), least x."""
    mask = np.ones(len(per_input), dtype=bool) if b is None else table.values == b
    if not mask.any():
        return SensSummary(0, None)
    masked = np.where(mask, per_input, -1)
    x = int(masked.argmax())
    return SensSummary(int(masked[x]), x)


def _sens_side(table: TruthTable, b: int | None) -> SensSummary:
    return _side_max(_sens_counts(table.values, table.arity), table, b)


def s0(fn, cap: int = DEFAULT_TABLE_CAP) -> SensSummary:
    """Max sensitivity over 0-inputs, with a witness attaining it."""
    return _sens_side(_table_of(fn, cap), 0)


def s1(fn, cap: int = DEFAULT_TABLE_CAP) -> SensSummary:
    """Max sensitivity over 1-inputs, with a witness attaining it."""
    return _sens_side(_table_of(fn, cap), 1)


def s(fn, cap: int = DEFAULT_TABLE_CAP) -> SensSummary:
    """Max sensitivity over all inputs, with a witness attaining it."""
    return _sens_side(_table_of(fn, cap), None)


def certificate_complexity_at(
    fn, x: int, cap: int = CERT_SEARCH_CAP
) -> tuple[int, PartialAssignment]:
    """Smallest codimension of a monochromatic subcube through x.

    Ties break toward lexicographically smaller fixed-position sets. Every
    coordinate sensitive at x must be fixed, which prunes the search.
    """
    if fn.arity > cap:
        raise CapExceeded(f"certificate search capped at arity {cap}, got {fn.arity}")
    table = _table_of(fn, cap)
    n = table.arity
    vals = table.values
    fx = vals[x]
    mandatory = tuple(
        i for i in range(n) if vals[x ^ (1 << i)] != fx
    )
    others = tuple(i for i in range(n) if i not in mandatory)

    base_mask = 0
    for i in mandatory:
        base_mask |= 1 << i
    for c in range(len(mandatory), n + 1):
        for extra in itertools.combinations(others, c - len(mandatory)):
            mask = base_mask
            for i in extra:
                mask |= 1 << i
            cert = PartialAssignment(n, mask, x & mask)
            if (vals[cert.points()] == fx).all():
                return c, cert
    raise AssertionError("full assignment is always a certificate")


def _subcube_colours(table: TruthTable) -> np.ndarray:
    """f's value on every subcube where f is constant, 2 where it is not.

    Shape (3,)*n: axis k is variable n-k, index 2 leaves it free (*). Built
    in place one variable at a time, like mobius_coefficients; an entry with
    a * on a later variable is rewritten at that variable's step.
    """
    n = table.arity
    col = np.zeros((3,) * n, dtype=np.int8)
    col[(slice(2),) * n] = table.values.reshape((2,) * n)
    for i in range(n):
        lo, hi, star = col.reshape(-1, 3, 3**i).transpose(1, 0, 2)
        np.copyto(star, lo)
        star[lo != hi] = 2
    return col


def _cert_side(table: TruthTable, b: int, cap: int) -> SensSummary:
    n = table.arity
    if n > cap:
        raise CapExceeded(f"certificate search capped at arity {cap}, got {n}")
    # 0 on monochromatic subcubes, 64 (above any codimension) on mixed ones;
    # pushing min(fixed + 1, free) down each variable leaves C(f, x) at x
    col = _subcube_colours(table)
    col >>= 1
    col *= 64
    for i in range(n):
        v = col.reshape(-1, 3, 3**i)
        fixed = v[:, :2]
        fixed += 1
        np.minimum(fixed, v[:, 2:], out=fixed)
    return _side_max(col[(slice(2),) * n].reshape(-1), table, b)


def c0(fn, cap: int = CERT_SEARCH_CAP) -> SensSummary:
    """Max certificate complexity over 0-inputs."""
    return _cert_side(_table_of(fn, cap), 0, cap)


def c1(fn, cap: int = CERT_SEARCH_CAP) -> SensSummary:
    """Max certificate complexity over 1-inputs."""
    return _cert_side(_table_of(fn, cap), 1, cap)


@dataclass(frozen=True)
class Uc1Result:
    """Outcome of the unambiguous 1-certificate search.

    status "exact" means value is the true optimum; "exhausted" means the
    node budget ran out and only lower_bound is proven.
    """

    status: str
    value: int | None
    lower_bound: int
    witness: CertificateCollection | None
    nodes: int


class _Budget(Exception):
    pass


def uc1(fn, node_budget: int = 1_000_000, cap: int = UC_EXACT_CAP) -> Uc1Result:
    """Minimum over unambiguous 1-certificate covers of the max codimension.

    Candidates are all monochromatic 1-subcubes of codimension at most c; a
    depth-first exact cover over the 1-inputs decides each c in turn.
    Restricting to maximal subcubes would be wrong: a partition may need a
    strictly smaller subcube where two maximal ones overlap.
    """
    if fn.arity > cap:
        raise CapExceeded(f"exact cover search capped at arity {cap}, got {fn.arity}")
    table = _table_of(fn, cap)
    n = table.arity
    ones = np.flatnonzero(table.values == 1)
    if len(ones) == 0:
        return Uc1Result("exact", 0, 0, CertificateCollection(1, (), True), 0)
    full = (1 << len(ones)) - 1

    # candidates: the colour-1 subcubes as (codim, mask, value, bitset of 1-inputs)
    cubes = np.flatnonzero(_subcube_colours(table) == 1)
    digits = cubes[:, None] // 3 ** np.arange(n) % 3
    weights = 1 << np.arange(n)
    masks, values = (digits != 2) @ weights, (digits == 1) @ weights
    codims = np.bitwise_count(masks)
    order = np.lexsort((values, masks, codims))
    codims, masks, values = codims[order], masks[order], values[order]
    covers = (ones & masks[:, None]) == values[:, None]
    bitsets = [int.from_bytes(row.tobytes(), "little")
               for row in np.packbits(covers, axis=1, bitorder="little")]
    candidates = list(zip(codims.tolist(), masks.tolist(), values.tolist(), bitsets))
    per_one = [np.flatnonzero(hits).tolist() for hits in covers.T]

    # any unambiguous cover needs codim >= the plain certificate complexity
    # of the hardest 1-input, which the candidate lists give directly
    start = int(codims[covers.argmax(axis=0)].max())

    nodes = 0

    def solve(c: int) -> list[int] | None:
        allowed = [
            [i for i in lst if candidates[i][0] <= c] for lst in per_one
        ]
        chosen: list[int] = []

        def dfs(covered: int) -> bool:
            nonlocal nodes
            nodes += 1
            if nodes > node_budget:
                raise _Budget()
            if covered == full:
                return True
            j = ((~covered) & -(~covered)).bit_length() - 1
            for i in allowed[j]:
                bits = candidates[i][3]
                if bits & covered:
                    continue
                chosen.append(i)
                if dfs(covered | bits):
                    return True
                chosen.pop()
            return False

        return chosen if dfs(0) else None

    for c in range(start, n + 1):
        try:
            picked = solve(c)
        except _Budget:
            return Uc1Result("exhausted", None, c, None, nodes)
        if picked is not None:
            members = tuple(
                PartialAssignment(n, candidates[i][1], candidates[i][2])
                for i in picked
            )
            witness = CertificateCollection(1, members, unambiguous=True)
            return Uc1Result("exact", c, c, witness, nodes)
    raise AssertionError("covering by full assignments always succeeds")


def mobius_coefficients(fn, cap: int = DEFAULT_TABLE_CAP) -> np.ndarray:
    """Integer coefficients of the unique multilinear polynomial over Z.

    Entry S (as a bitmask) is the coefficient of the monomial prod of the
    variables in S.
    """
    table = _table_of(fn, cap)
    coeffs = table.values.astype(np.int64)
    for i in range(table.arity):
        v = coeffs.reshape(-1, 2, 1 << i)
        v[:, 1, :] -= v[:, 0, :]
    return coeffs


def degree(fn, cap: int = DEFAULT_TABLE_CAP) -> int:
    """Degree of the multilinear polynomial; 0 for constants."""
    coeffs = mobius_coefficients(fn, cap)
    nz = np.flatnonzero(coeffs)
    if len(nz) == 0:
        return 0
    return int(np.bitwise_count(nz.astype(np.uint64)).max())


@dataclass(frozen=True)
class Component:
    """One connected component of the sensitivity graph (isolated vertices
    are not components)."""

    vertices: np.ndarray
    edges: np.ndarray

    def __len__(self) -> int:
        return len(self.vertices)


class SensitivityGraph:
    """Graph on inputs with an edge where one flipped coordinate changes f.

    The vertex degree of x equals the sensitivity of f at x addressed by the
    same integer encoding as the table. The adjacency is built once, as a
    sparse matrix, and every edge, component and eigenvalue query reads it.
    """

    def __init__(self, fn, cap: int = DEFAULT_TABLE_CAP):
        self.table = _table_of(fn, cap)
        self.arity = self.table.arity
        self._adj: sp.csr_matrix | None = None

    def degree_counts(self) -> np.ndarray:
        return _sens_counts(self.table.values, self.arity)

    def edge_count(self) -> int:
        return int(self.degree_counts().sum()) // 2

    def has_edge(self, x: int, y: int) -> bool:
        d = x ^ y
        if d == 0 or d & (d - 1):
            return False
        return self.table[x] != self.table[y]

    def adjacency(self) -> sp.csr_matrix:
        """Symmetric 0/1 adjacency as CSR with int32 indices, sorted per row.

        Raises CapExceeded when the matrix would take more than MEMORY_BUDGET
        bytes.
        """
        if self._adj is not None:
            return self._adj
        vals = self.table.values
        size = 1 << self.arity
        # lows[i]: inputs with bit i clear whose flip along i changes f
        lows = []
        n_edges = 0
        for i in range(self.arity):
            half = vals.reshape(-1, 2, 1 << i)
            diff = half[:, 0, :] != half[:, 1, :]
            j = np.flatnonzero(diff).astype(np.int32)
            # put bit i (clear) back into the half-table index
            lows.append(((j >> i) << (i + 1)) | (j & ((1 << i) - 1)))
            n_edges += len(j)
            nbytes = 4 * (size + 1) + 24 * n_edges
            if nbytes > MEMORY_BUDGET:
                raise CapExceeded(
                    f"sparse adjacency needs over {nbytes} bytes, "
                    f"budget {MEMORY_BUDGET}"
                )
        highs = [low | (1 << i) for i, low in enumerate(lows)]
        rows = np.concatenate(lows + highs)
        cols = np.concatenate(highs + lows)
        # the conversion sorts each row's indices
        self._adj = sp.csr_matrix(
            (np.ones(len(rows)), (rows, cols)), shape=(size, size)
        )
        return self._adj

    def edges(self) -> np.ndarray:
        """All edges as an (E, 2) int64 array with x < y, sorted."""
        a = self.adjacency()
        rows = np.repeat(np.arange(a.shape[0], dtype=np.int64), np.diff(a.indptr))
        upper = a.indices > rows
        return np.stack([rows[upper], a.indices[upper].astype(np.int64)], axis=1)

    def components(self) -> list[Component]:
        """Connected components ordered by smallest vertex."""
        e = self.edges()
        if len(e) == 0:
            return []
        _, labels = _cc(self.adjacency(), directed=False)
        active = np.flatnonzero(np.diff(self.adjacency().indptr))

        def by_label(items: np.ndarray, labs: np.ndarray) -> list[np.ndarray]:
            order = np.argsort(labs, kind="stable")
            return np.split(items[order], np.flatnonzero(np.diff(labs[order])) + 1)

        comps = [
            Component(v, eg)
            for v, eg in zip(by_label(active, labels[active]), by_label(e, labels[e[:, 0]]))
        ]
        comps.sort(key=lambda comp: int(comp.vertices[0]))
        return comps


def classify_component(comp: Component) -> tuple[str, tuple[int, ...]]:
    """Classify a component as ("star", (d,)), ("two-layer-star", (a, b)),
    or ("other", ()).

    A star is one hub joined to d leaves. A two-layer star is a center of
    degree a whose a neighbors each have degree b >= 2, all remaining
    vertices being leaves hanging off those neighbors. A star is never
    reported as a two-layer star.
    """
    verts = [int(v) for v in comp.vertices]
    deg: dict[int, int] = {v: 0 for v in verts}
    nbrs: dict[int, list[int]] = {v: [] for v in verts}
    for x, y in comp.edges:
        x, y = int(x), int(y)
        deg[x] += 1
        deg[y] += 1
        nbrs[x].append(y)
        nbrs[y].append(x)
    nverts = len(verts)
    degs = sorted(deg.values())
    if nverts >= 2 and degs[-1] == nverts - 1 and all(d == 1 for d in degs[:-1]):
        return "star", (nverts - 1,)
    for center in verts:
        a = deg[center]
        layer = nbrs[center]
        if a < 1 or len(layer) != a:
            continue
        bset = {deg[u] for u in layer}
        if len(bset) != 1:
            continue
        b = bset.pop()
        if b < 2:
            continue
        layer_set = set(layer)
        rest = [v for v in verts if v != center and v not in layer_set]
        if len(rest) != a * (b - 1):
            continue
        ok = all(
            deg[v] == 1 and nbrs[v][0] in layer_set for v in rest
        )
        if ok:
            return "two-layer-star", (a, b)
    return "other", ()


def _bin_label(x: int, arity: int) -> str:
    return format(x, f"0{arity}b")


def graph_edges_text(graph: SensitivityGraph, component: int | None = None) -> str:
    """Edge list, one "x y" pair per line, vertices as most-significant-bit
    first binary strings, x < y, sorted."""
    if component is None:
        e = graph.edges()
    else:
        comps = graph.components()
        if not 0 <= component < len(comps):
            raise ValueError(f"component index {component} out of range ({len(comps)})")
        e = comps[component].edges
    n = graph.arity
    lines = [f"{_bin_label(int(x), n)} {_bin_label(int(y), n)}" for x, y in e]
    return "\n".join(lines) + ("\n" if lines else "")


def graph_dot_text(graph: SensitivityGraph, component: int | None = None) -> str:
    body = graph_edges_text(graph, component)
    out = ["graph sensitivity {"]
    for ln in body.splitlines():
        x, y = ln.split()
        out.append(f'  "{x}" -- "{y}";')
    out.append("}")
    return "\n".join(out) + "\n"


@dataclass(frozen=True)
class SpectralResult:
    value: float
    method: str
    residual: float
    iterations: int


def _lambda_exact(graph: SensitivityGraph) -> float:
    """Largest adjacency eigenvalue from a dense eigensolve of each
    connected component's block; the adjacency is block-diagonal by
    component, so this is its whole spectrum. Components of equal size are
    solved in batches."""
    a = graph.adjacency()
    _, labels = _cc(a, directed=False)
    sizes = np.bincount(labels)
    # each vertex's position inside its component, in vertex order
    order = np.argsort(labels, kind="stable")
    local = np.empty_like(labels)
    local[order] = np.arange(len(labels)) - (np.cumsum(sizes) - sizes)[labels[order]]
    coo = a.tocoo()
    rows, cols = coo.row, coo.col
    edge_size = sizes[labels[rows]]
    best = 0.0
    for k in np.unique(sizes[sizes > 1]):
        k = int(k)
        per_batch = MEMORY_BUDGET // (8 * k * k)
        if per_batch == 0:
            raise CapExceeded(
                f"component with {k} vertices exceeds the dense solve budget "
                f"of {MEMORY_BUDGET} bytes"
            )
        comps = np.flatnonzero(sizes == k)
        slot = np.empty(len(sizes), dtype=np.int64)
        slot[comps] = np.arange(len(comps))
        sel = edge_size == k
        e_slot = slot[labels[rows[sel]]]
        e_row, e_col = local[rows[sel]], local[cols[sel]]
        for lo in range(0, len(comps), per_batch):
            hi = min(lo + per_batch, len(comps))
            blocks = np.zeros((hi - lo, k, k))
            inside = (e_slot >= lo) & (e_slot < hi)
            blocks[e_slot[inside] - lo, e_row[inside], e_col[inside]] = 1.0
            best = max(best, float(np.linalg.eigvalsh(blocks)[:, -1].max()))
    return best


def _lambda_matfree(
    graph: SensitivityGraph, tol: float, seed: int, max_iter: int
) -> tuple[float, float, int]:
    vals, n = graph.table.values, graph.arity
    size = 1 << n
    try:
        a = graph.adjacency()
    except CapExceeded:
        # too large to hold as a sparse matrix, which also means it has
        # edges: compute each product from the table instead
        def matvec(v: np.ndarray) -> np.ndarray:
            out = np.zeros_like(v)
            for i in range(n):
                out += np.where(vals != _swap_axis(vals, i), _swap_axis(v, i), 0.0)
            return out
    else:
        if a.nnz == 0:
            return 0.0, 0.0, 0
        matvec = a.dot

    rng = np.random.default_rng(seed)
    v = rng.standard_normal(size)
    v /= np.linalg.norm(v)
    prev = 0.0
    lam_sq = 0.0
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        w = matvec(matvec(v))
        lam_sq = float(v @ w)
        norm = np.linalg.norm(w)
        if norm == 0.0:
            # v happened to be orthogonal to every nonzero eigenspace; restart
            v = rng.standard_normal(size)
            v /= np.linalg.norm(v)
            prev = 0.0
            continue
        v = w / norm
        if abs(lam_sq - prev) <= tol * max(abs(lam_sq), 1.0):
            converged = True
            break
        prev = lam_sq
    lam = math.sqrt(max(lam_sq, 0.0))
    # recover an eigenvector of the adjacency itself to report a residual
    av = matvec(v)
    u = av + lam * v
    un = np.linalg.norm(u)
    if un < 1e-12 * max(lam, 1.0):
        u = lam * v - av
        un = np.linalg.norm(u)
    if un == 0.0:
        residual = 0.0
    else:
        u /= un
        au = matvec(u)
        residual = float(
            min(np.linalg.norm(au - lam * u), np.linalg.norm(au + lam * u))
        )
    if not converged:
        raise ConvergenceError(
            f"power iteration did not reach tol {tol} in {max_iter} iterations "
            f"(best estimate {lam})",
            best=lam,
        )
    return lam, residual, iterations


def spectral_sensitivity(
    fn,
    method: str = "auto",
    tol: float = DEFAULT_TOL,
    seed: int = DEFAULT_SEED,
    max_iter: int = DEFAULT_MAX_ITER,
) -> SpectralResult:
    """Operator norm of the sensitivity graph's adjacency matrix.

    method: "dense" or "component-wise" (the same exact eigensolve, one
    dense block per connected component), "matrix-free" (power iteration on
    the squared adjacency), "analytic" (closed form recorded by the
    construction), or "auto" to pick the exact solve when a full dense
    adjacency would fit in MEMORY_BUDGET and matrix-free otherwise.
    """
    if method == "analytic":
        meta = getattr(fn, "meta", None)
        if meta is None or meta.predicted_lambda_sq is None:
            raise ValueError("analytic method needs construction metadata")
        return SpectralResult(math.sqrt(meta.predicted_lambda_sq), "analytic", 0.0, 0)
    if method == "auto":
        method = "dense" if 8 * 4 ** fn.arity <= MEMORY_BUDGET else "matrix-free"
    if method not in ("dense", "component-wise", "matrix-free"):
        raise ValueError(f"unknown spectral method {method!r}")
    graph = SensitivityGraph(fn)
    if method == "matrix-free":
        value, residual, iters = _lambda_matfree(graph, tol, seed, max_iter)
        return SpectralResult(value, method, residual, iters)
    return SpectralResult(_lambda_exact(graph), method, 0.0, 0)


def two_layer_star_lambda(s0_val: int, s1_val: int) -> float:
    """Largest adjacency eigenvalue of the two-layer star with center degree
    s0_val and middle-layer degree s1_val: sqrt(s0 + s1 - 1)."""
    if not (isinstance(s0_val, int) and isinstance(s1_val, int)):
        raise TypeError("star parameters must be integers")
    if s0_val < 1 or s1_val < 1:
        raise ValueError("star parameters must be at least 1")
    return math.sqrt(s0_val + s1_val - 1)


def two_layer_star_adjacency(s0_val: int, s1_val: int) -> np.ndarray:
    """Explicit adjacency matrix of that two-layer star: a center joined to
    s0 middle vertices, each middle vertex joined to s1 - 1 leaves."""
    if s0_val < 1 or s1_val < 1:
        raise ValueError("star parameters must be at least 1")
    size = 1 + s0_val + s0_val * (s1_val - 1)
    a = np.zeros((size, size), dtype=np.float64)
    leaf = 1 + s0_val
    for m in range(1, s0_val + 1):
        a[0, m] = a[m, 0] = 1.0
        for _ in range(s1_val - 1):
            a[m, leaf] = a[leaf, m] = 1.0
            leaf += 1
    return a


_MEASURE_NAMES = ("s0", "s1", "s", "deg", "lambda", "c0", "c1", "uc1")


@dataclass
class MeasureEntry:
    name: str
    value: int | float | None
    exact: bool | None
    witness: int | None = None
    witness_bits: str | None = None
    method: str | None = None
    skipped: str | None = None

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "value": self.value,
            "exact": self.exact,
            "witness": self.witness,
            "witness_bits": self.witness_bits,
            "method": self.method,
            "skipped": self.skipped,
        }


@dataclass
class MeasureReport:
    source: str
    arity: int
    tolerance: float
    seed: int
    runtime: float
    entries: list[MeasureEntry]

    def to_dict(self) -> dict:
        return {
            "source": self.source,
            "arity": self.arity,
            "tolerance": self.tolerance,
            "seed": self.seed,
            "runtime": self.runtime,
            "entries": [e.to_dict() for e in self.entries],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def compute_measures(
    fn: BooleanFunction,
    names: Sequence[str],
    method: str = "auto",
    tol: float = DEFAULT_TOL,
    seed: int = DEFAULT_SEED,
    materialize_cap: int = DEFAULT_TABLE_CAP,
    source: str = "",
) -> MeasureReport:
    """Evaluate the requested measures, recording a skip reason instead of
    failing when a measure's cap rules the function out."""
    t_start = time.perf_counter()
    entries: list[MeasureEntry] = []
    for name in names:
        if name not in _MEASURE_NAMES:
            raise ValueError(
                f"unknown measure {name!r}; valid: {', '.join(_MEASURE_NAMES)}"
            )
        try:
            entries.append(_one_measure(fn, name, method, tol, seed, materialize_cap))
        except CapExceeded as exc:
            entries.append(
                MeasureEntry(name, None, None, skipped=f"cap: {exc}")
            )
    runtime = time.perf_counter() - t_start
    return MeasureReport(
        source=source,
        arity=fn.arity,
        tolerance=tol,
        seed=seed,
        runtime=round(runtime, 6),
        entries=entries,
    )


def _one_measure(fn, name, method, tol, seed, materialize_cap) -> MeasureEntry:
    n = fn.arity
    if name in ("s0", "s1", "s"):
        res = {"s0": s0, "s1": s1, "s": s}[name](fn, cap=materialize_cap)
        bits = _bin_label(res.witness, n) if res.witness is not None else None
        return MeasureEntry(name, res.value, True, res.witness, bits, "scan")
    if name == "deg":
        return MeasureEntry(name, degree(fn, cap=materialize_cap), True, method="mobius")
    if name in ("c0", "c1"):
        res = {"c0": c0, "c1": c1}[name](fn, cap=min(materialize_cap, CERT_SEARCH_CAP))
        bits = _bin_label(res.witness, n) if res.witness is not None else None
        return MeasureEntry(name, res.value, True, res.witness, bits, "search")
    if name == "uc1":
        res = uc1(fn, cap=min(materialize_cap, UC_EXACT_CAP))
        if res.status == "exact":
            return MeasureEntry(name, res.value, True, method="exact-cover")
        return MeasureEntry(
            name,
            None,
            False,
            method="exact-cover",
            skipped=f"exhausted after {res.nodes} nodes (lower bound {res.lower_bound})",
        )
    if name == "lambda":
        # analytic reads the construction's closed form, so only it runs past the cap
        target = fn if method == "analytic" else _table_of(fn, materialize_cap)
        try:
            spec = spectral_sensitivity(target, method=method, tol=tol, seed=seed)
        except ConvergenceError as exc:
            return MeasureEntry(
                name,
                None,
                False,
                method="matrix-free",
                skipped=f"no convergence in {DEFAULT_MAX_ITER} iterations "
                f"(best estimate {exc.best:.4f})",
            )
        exact = spec.method in ("dense", "component-wise", "analytic")
        return MeasureEntry(name, spec.value, exact, method=spec.method)
    raise AssertionError(name)
