"""Exact and spectral complexity measures of Boolean functions.

Everything here works on a BooleanFunction or a TruthTable. Exact measures
(sensitivity, certificates, degree) come from full scans of the table;
spectral sensitivity is the operator norm of the sensitivity graph's
adjacency matrix. Every edge joins a 0-input to a 1-input, so the graph is
the rows B of its smaller side, read straight from the table by the path
that needs them. Lambda is found by one exact dense eigensolve of Gram
blocks on their smaller sides, the inputs grouped into the two parity
classes up to arity 10 and into connected components past it, each block
built from its group's two vertex lists by the graph's adjacency(rows,
cols), and a large block eigensolved only when Collatz-Wielandt bounds
cannot rule it out; by
matrix-free power iteration on the Gram operator B B^T of the whole
smaller side from the all-ones vector, B built once when it fits the memory
budget and rebuilt on each step in runs that fit it otherwise, stopped by
the exact solve's Collatz-Wielandt step (_cw_step); or from a
construction's closed form.
When no input off the smaller side has two neighbours, every component is a
star centred on that side: B B^T is then the diagonal of its degrees, so
matrix-free applies that diagonal and the exact solve past arity 10 reads
lambda^2 as the largest degree, neither building B. When every component is
a star or a two-layer star, as in the paper's constructions, degrees within
two hops, read from the table, recognise them: the census and the exact
solve past arity 10 read that, with no B or component labels.
scipy is imported on first use, by the paths that need it: B's CSR and the
adjacency, component labels and classify_component.
"""

from __future__ import annotations

import itertools
import json
import math
import time
from collections import Counter
from dataclasses import asdict, dataclass
from functools import cache, cached_property
from typing import TYPE_CHECKING, Iterator, NamedTuple, Sequence

import numpy as np

from .core import (
    BooleanFunction,
    CapExceeded,
    CertificateCollection,
    DEFAULT_TABLE_CAP,
    PartialAssignment,
    TruthTable,
    axis_blocks,
    axis_view,
    block_exponent,
    by_groups,
    group_lookup,
    side_maxima,
)

if TYPE_CHECKING:
    import scipy.sparse as sp

# bytes a pass over the sensitivity graph may allocate at once, counted first: a
# CSR of its rows, an edge list, or one chunk of the temporaries of components
# (or parity classes), summed per one
MEMORY_BUDGET = 512 << 20
# bytes per input with an edge that the component index and its readers'
# bookkeeping add, counted before the labels (the index: 41 on a perfect matching)
INDEX_BYTES_PER_INPUT = 56
# bytes per input the census from the table holds at once: four uint8 arrays
# and two of scratch, which axis_blocks makes one block past 1 MiB. Its tally
# holds two of the arrays and a chunk's masks and codes, at most 5 bytes per
# entry of a chunk, and _TALLY_CODES codes widened to int64 by bincount
CENSUS_BYTES_PER_INPUT = 6
# entries _census_tally reads at least per chunk, so a table of up to this
# many is one chunk, and codes it counts per bincount, which widens them to
# 8-byte integers
_TALLY_CHUNK = 1 << 13
_TALLY_CODES = 1 << 11
# up to this arity the exact solve groups the inputs by parity class, labelled
# from the table, not by component: a class's smaller side has at most
# 2^(n-1) = 512 inputs, and the adjacency and labels would outweigh the solve
_CLASS_SOLVE_ARITY = 10
# the exact solve bounds blocks of at least this many rows by Collatz-Wielandt
# steps before it eigensolves any (_bounded_top); smaller ones go to one
# eigvalsh batch per shape as before. On random tables, bounding the blocks of
# about 64 rows at n = 8 ran 4% slower a table (0.365 against 0.350 ms), and
# those of about 128 at n = 9 25% faster (0.83 against 1.10 ms)
_BOUND_ROWS = 96
# steps before the first eigensolve: with the first solve after one step, a
# random n=10 table took 1.12 eigensolves on average, after three 1.02
_LEAD_STEPS = 3
# steps a bounded block takes at most, or one per 64 rows of the largest block
# when that is more: a step costs about 4 m M flops against several m^3 for an
# eigensolve, and the components of random n=13 tables took up to 32 steps
_BOUND_STEPS = 16
# a bounded block is dropped when its upper bound is below the best exact value
# by more than this share of it. Each entry of the computed C (C^T x) sums at
# most m + M nonnegative terms, so the bound is within about (m + M) 2^-53 of
# its exact value, relatively; eigvalsh is backward stable, its top eigenvalue
# within a modest multiple of m 2^-53 of the exact one. Both stay near 1e-12
# for any block the budget admits, so no dropped block's eigvalsh exceeds best
_BOUND_MARGIN = 1e-9
# certificate_complexity_at's search tries fixed-position sets one at a time,
# bounded by time, not bytes: on haf(3) (n = 23) it took 13 s at an input
# with C(f, x) = 5 and 34 s at one with C(f, x) = 4 on a 2-vCPU Xeon
CERT_SEARCH_CAP = 16
# export-graph writes no graph past this arity, whatever --materialize-cap says
GRAPH_EXPORT_CAP = 16
# uc1's exact cover is bounded by search nodes, not bytes
UC_EXACT_CAP = 8
# nodes uc1's exact cover below codimension n-1 may visit before it reports
# the search exhausted, read at call time
UC_NODE_BUDGET = 1_000_000

DEFAULT_TOL = 1e-9
# Gram steps matrix-free power iteration may take, read at call time
DEFAULT_MAX_ITER = 10000
# entries of a Moebius block whose nonzero positions degree lists at once:
# at most 256 KiB of int64 positions beside the block
_DEGREE_CHUNK = 1 << 15
# codes _cert_counts looks up per take, which widens them to 8-byte indices
_TAKE_CHUNK = 1 << 17


class ConvergenceError(RuntimeError):
    """Matrix-free's bracket [lo, hi] on lambda^2 did not close to tol within
    DEFAULT_MAX_ITER steps; best is sqrt(lo), a lower bound on lambda."""

    def __init__(self, message: str, best: float):
        super().__init__(message)
        self.best = best


def _table_of(fn, cap: int = DEFAULT_TABLE_CAP, what: str | None = None) -> TruthTable:
    """fn's truth table, fn itself for a TruthTable. The one cap check of
    every measure: CapExceeded when fn.arity is over cap, for a function and
    a table alike, before any table is built or any pass runs. what names a
    search capped below the materialization cap, for the message."""
    if not isinstance(fn, (TruthTable, BooleanFunction)):
        raise TypeError(f"expected BooleanFunction or TruthTable, got {type(fn).__name__}")
    if fn.arity > cap:
        raise CapExceeded(f"{what} capped at arity {cap}, got {fn.arity}" if what
                          else f"arity {fn.arity} exceeds materialization cap {cap}")
    return fn if isinstance(fn, TruthTable) else fn.table(cap)


class SensSummary(NamedTuple):
    value: int
    witness: int | None


def sensitivity_at(fn: BooleanFunction, x: int) -> int:
    """Number of coordinates whose flip changes fn at x."""
    fx = fn(x)
    return sum(fn(x ^ (1 << i)) != fx for i in range(fn.arity))


def _sens_side(table: TruthTable, b: int | None) -> SensSummary:
    """s_b from the table's cached side pass; for None, s: the larger side,
    and on a tie the smaller of the witnesses (an empty side has none)."""
    sides = table.side_sensitivities
    if b is not None:
        return SensSummary(*sides[b])
    (v0, x0), (v1, x1) = sides
    if v0 != v1:
        return SensSummary(*sides[v1 > v0])
    return SensSummary(v0, min(x for x in (x0, x1) if x is not None))


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
    coordinate sensitive at x must be fixed, which prunes the search. An x
    outside 0..2^n - 1 raises ArityError, as TruthTable[x] does.
    """
    table = _table_of(fn, cap, "certificate search")
    n = table.arity
    vals = table.values
    fx = table[x]
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


# a subcube's value set is _HAS_0 times 1 for {0}, 2 for {1} and 3 for {0, 1}.
# The mixed set, 96, exceeds either one-value set plus any codimension up to
# n <= 31, and no set + codimension pushed down passes 96 + 31 = 127, an int8
_HAS_0 = 32


@cache
def _corner_lookup() -> np.ndarray:
    """A 65 536-word lookup table for _cert_counts, built on first use. A
    code's low byte marks the corners of an 8-entry group over x1..x3 that
    hold a 0 and its high byte those that hold a 1; byte j of its word is the
    least set + codimension over the 27 subcubes on x1..x3 through corner j.
    Only the 3^8 codes that mark each corner at least once are reachable,
    and only their words are filled: digit j of k < 3^8 in base 3 gives
    corner j the set {0}, {1} or {0, 1}, as digit 0, 1 or 2."""
    digits = np.arange(3**8)[:, None] // 3 ** np.arange(8) % 3
    codes = ((digits != 1) << np.arange(8) | (digits != 0) << np.arange(8, 16)).sum(axis=1)
    sets = _HAS_0 * (digits + 1)
    best = np.full((3**8, 8), 127, dtype=np.int8)
    for free in range(8):
        for base in (b for b in range(8) if not b & free):
            corners = [base | s for s in range(8) if s & free == s]
            val = np.bitwise_or.reduce(sets[:, corners], axis=1) + 3 - free.bit_count()
            best[:, corners] = np.minimum(best[:, corners], val[:, None])
    words = np.zeros(1 << 16, dtype=np.uint64)
    words[codes] = best.view(np.uint64).reshape(-1)
    return words


def _cert_counts(table: TruthTable) -> np.ndarray:
    """C(f, x) for every input x, in table order.

    Each aligned 8-entry group becomes a 16-bit code, g << 8 | (g ^ 0xFF)
    for its packed byte g, of the corners that hold a 0 and a 1. A table
    under 8 entries is tiled first; its first 2^n counts are f's, as a
    least certificate never fixes a variable f ignores. In a (3,)*(n-3)
    array of codes, axis k is variable n-k and index 2 leaves it free (*):
    axis_blocks' OR pass over x4..xn writes each * entry, last at its
    outermost free variable's step, as the union of halves complete by
    then. One take from _corner_lookup then gives, at each corner of each
    subcube on x4..xn, the least set plus codimension over the subcubes on
    x1..x3.
    Pushing min(fixed + 1, free) down each outer variable leaves, at x, the
    least over every subcube through x: the monochromatic ones' set, f(x)'s,
    plus C(f, x), as a mixed set is larger than that whatever its
    codimension; the low five bits are C(f, x). The variables go from the
    outermost in, each step on the entries with every variable done so far
    fixed, as no later step reads a done variable's * entries: about
    2 3^(n-3) rows of 8 in all.
    """
    n = table.arity
    m = max(n - 3, 0)
    values = table.values if n >= 3 else np.tile(table.values, 8 >> n)
    g = np.packbits(values, bitorder="little").astype(np.uint16)
    codes = np.empty((3,) * m, dtype=np.uint16)
    codes[(slice(2),) * m] = (g << 8 | g ^ 0xFF).reshape((2,) * m)
    flat = codes.reshape(-1)
    for i, (c,) in axis_blocks(3, m, flat):
        v = axis_view(c, 3, i)
        np.bitwise_or(v[:, 0], v[:, 1], out=v[:, 2], order="A")
    col = np.empty(codes.shape + (8,), dtype=np.int8)
    words, lookup = col.reshape(-1).view(np.uint64), _corner_lookup()
    for lo in range(0, len(flat), _TAKE_CHUNK):
        lookup.take(flat[lo:lo + _TAKE_CHUNK], out=words[lo:lo + _TAKE_CHUNK], mode="clip")
    for k in range(m):
        done = (slice(2),) * k
        fixed, free = col[done + (slice(2),)], col[done + (slice(2, 3),)]
        np.add(fixed, 1, out=fixed)
        np.minimum(fixed, free, out=fixed)
    counts = col[(slice(2),) * m].reshape(-1)[:1 << n]
    counts &= _HAS_0 - 1
    return counts


def _cert_bytes(n: int) -> int:
    """Bytes c0 and c1 hold beside an arity-n table: 3^(n-3) uint16 codes
    and rows of 8 int8 counts; two 2^n-byte arrays at once, of the packed
    groups' temporaries, the counts and side_maxima's key; one take's int64
    indices; and the corner lookup with its build's temporaries (1.5 MB)."""
    return 10 * 3 ** max(n - 3, 0) + (2 << n) + 8 * _TAKE_CHUNK + (2 << 20)


def _cert_side(fn, cap: int, b: int) -> SensSummary:
    # _table_of refuses other types, and arities past cap, by name
    if isinstance(fn, (TruthTable, BooleanFunction)) and fn.arity <= cap:
        _check_budget(_cert_bytes(fn.arity), "certificate counts")
    table = _table_of(fn, cap)
    return SensSummary(*side_maxima(_cert_counts(table), table.values)[b])


def c0(fn, cap: int = DEFAULT_TABLE_CAP) -> SensSummary:
    """Max certificate complexity over 0-inputs, with the least witness.
    CapExceeded past cap, or when _cert_bytes is over MEMORY_BUDGET."""
    return _cert_side(fn, cap, 0)


def c1(fn, cap: int = DEFAULT_TABLE_CAP) -> SensSummary:
    """Max certificate complexity over 1-inputs, with the least witness.
    CapExceeded past cap, or when _cert_bytes is over MEMORY_BUDGET."""
    return _cert_side(fn, cap, 1)


@dataclass(frozen=True)
class Uc1Result:
    """Outcome of the unambiguous 1-certificate search.

    status "exact" means value is the true optimum; "exhausted" means the
    search below codimension n-1 spent its nodes; only lower_bound is proven.
    """

    status: str
    value: int | None
    lower_bound: int
    witness: CertificateCollection | None
    nodes: int


class _Budget(Exception):
    pass


def _cube_edge_matching(
    values: np.ndarray, n: int, ones: np.ndarray
) -> list[tuple[int, int]] | None:
    """A perfect matching of the 1-inputs along cube edges, as sorted
    (least input, x ^ y) pairs, or None when there is none.

    Every cube edge joins an even-weight input to an odd-weight one. A greedy
    pass matches what it can; each even input it leaves starts a depth-first
    search for an augmenting path (Hopcroft & Karp, 1973), kept on an explicit
    stack, that looks for a free neighbour of each input it reaches before
    going deeper. An input with no augmenting path stays unmatched in every
    maximum matching, so the first such input ends the search with None.
    """
    is_odd = np.bitwise_count(ones) & 1 == 1
    even, odd = ones[~is_odd], ones[is_odd]
    # uc1 tries c = n-1 only when deg <= n-1, so the top Mobius coefficient,
    # +-(|even| - |odd|), is 0 and the sides are equal; kept for direct calls
    if len(even) != len(odd):
        return None
    nbr = even[:, None] ^ (1 << np.arange(n))
    hit = values[nbr] == 1
    flat = nbr[hit].tolist()
    ends = np.cumsum(hit.sum(axis=1)).tolist()
    adj = [flat[a:b] for a, b in zip([0] + ends[:-1], ends)]
    owner: dict[int, int] = {}  # odd input -> index of its even mate
    free = []
    for u, ys in enumerate(adj):
        y = next((y for y in ys if y not in owner), None)
        if y is None:
            free.append(u)
        else:
            owner[y] = u
    for u in free:
        # path[k] is an even input on the search path, todo[k] its neighbours
        # not yet tried, and via[k] the odd input, matched to path[k + 1],
        # that leads from path[k] to it. No input on the path has a free
        # neighbour: u's were all taken by the greedy pass, and each input
        # is checked before it is pushed, so every neighbour tried is matched
        path, via, todo, seen = [u], [], [iter(adj[u])], set()
        while todo:
            y = next((y for y in todo[-1] if y not in seen), None)
            if y is None:
                path.pop()
                todo.pop()
                if via:
                    via.pop()
                continue
            seen.add(y)
            e = owner[y]
            z = next((z for z in adj[e] if z not in owner), None)
            if z is not None:
                # z is free: each even input on the path takes the odd input after it
                owner.update(zip(via + [y, z], path + [e]))
                break
            path.append(e)
            todo.append(iter(adj[e]))
            via.append(y)
        else:
            return None
    evens = even.tolist()
    return sorted((min(evens[e], y), evens[e] ^ y) for y, e in owner.items())


def uc1(fn, cap: int = UC_EXACT_CAP) -> Uc1Result:
    """Minimum over unambiguous 1-certificate covers of the max codimension.

    A colour-1 subcube of codimension below c splits into ones of codimension
    c, so each c from max(c1, deg) up asks whether colour-1 subcubes of
    codimension exactly c partition the 1-inputs: by depth-first exact cover
    within UC_NODE_BUDGET nodes below n-1, by a perfect matching along cube
    edges at n-1, found by augmenting paths, and trivially at n. Such a
    partition writes f as a sum of products of c literals, so no c below
    deg(f) has one. Witness members have codimension c, by least input.
    """
    table = _table_of(fn, cap, "exact cover search")
    n = table.arity
    ones = np.flatnonzero(table.values == 1)
    if len(ones) == 0:
        return Uc1Result("exact", 0, 0, CertificateCollection(1, (), True), 0)
    full = (1 << n) - 1
    # bitsets over all inputs: the 0-inputs, and span[d], input 0's subcube free on d
    zeros = int.from_bytes(np.packbits(table.values ^ 1, bitorder="little").tobytes(), "little")
    span = [1]
    for d in range(1, full + 1):
        span.append(span[d & d - 1] | span[d & d - 1] << (d & -d))
    nodes = 0

    def exact_cover(c: int) -> list[tuple[int, int]] | None:
        # the cube covering the least uncovered input j has j as its least input
        dirs = [d for d in range(full, -1, -1) if d.bit_count() == n - c]
        fits = {j: [(d, span[d] << j) for d in dirs if not (d & j or span[d] << j & zeros)]
                for j in ones.tolist()}

        def dfs(covered: int) -> list[tuple[int, int]] | None:
            nonlocal nodes
            nodes += 1
            if nodes > UC_NODE_BUDGET:
                raise _Budget()
            j = (~covered & covered + 1).bit_length() - 1
            if j == full + 1:
                return []
            for d, cube in fits[j]:
                if not cube & covered and (rest := dfs(covered | cube)) is not None:
                    return [(j, d)] + rest
            return None

        return dfs(zeros)

    # no cover beats the plain certificate complexity of the hardest 1-input,
    # nor the degree: a cover of codimension c sums products of c literals
    start = max(int(_cert_counts(table)[ones].max()), degree(table))
    for c in range(start, n + 1):
        if c == n:
            picked = [(j, 0) for j in ones.tolist()]
        elif c == n - 1:
            picked = _cube_edge_matching(table.values, n, ones)
        else:
            try:
                picked = exact_cover(c)
            except _Budget:
                return Uc1Result("exhausted", None, c, None, nodes)
        if picked is not None:
            members = tuple(PartialAssignment(n, full ^ d, j) for j, d in picked)
            witness = CertificateCollection(1, members, unambiguous=True)
            return Uc1Result("exact", c, c, witness, nodes)


def _mobius_groups() -> np.ndarray:
    """Each group's coefficients along directions 0, 1 and 2, the lookup
    table of _mobius_blocks: the sum, over its entries t that are 1, of the
    coefficients of entry t alone, (-1)^|s - t| at each s that contains t.
    Groups 2^t .. 2^(t+1) - 1 are groups 0 .. 2^t - 1 with entry t added."""
    coeffs = [0] * 8
    for t in range(8):
        unit = [(-1) ** (s ^ t).bit_count() if s & t == t else 0 for s in range(8)]
        coeffs += [c + u for c, u in zip(coeffs, unit * (len(coeffs) // 8))]
    return group_lookup(coeffs)


_MOBIUS_GROUPS = _mobius_groups()


def _mobius_pass(coeffs: np.ndarray, i: int) -> None:
    """One in-place pass along direction i: the entries with bit i set less
    their partners without it."""
    v = axis_view(coeffs, 2, i)
    hi = v[:, 1]
    np.subtract(hi, v[:, 0], out=hi, order="A")


def _mobius_blocks(table: TruthTable,
                   out: np.ndarray | None = None) -> Iterator[tuple[int, np.ndarray]]:
    """(lo, block) for consecutive blocks of 2^m entries that cover the
    table: block holds the coefficients of the monomials lo + j, j < 2^m,
    with the bits of j permuted, which keeps each one's weight |lo| + |j|.
    It is a slice of the narrow table when every pass fits int16, else one
    wide buffer reused for every block. With out, each block is also copied
    into out[lo:lo + 2^m] in index order.

    Directions 0, 1 and 2 come for each 8-entry group from a 256-word int8
    lookup table (by_groups). After k passes an entry is at most 2^(k-1) in
    magnitude, so the first 7 passes fit int8 and the first 15 int16. The
    directions from m up run over the whole table, the highest first, on
    int8 and then int16. Each block takes the rest, 3 .. m-1, in two phases
    that both walk long runs: the highest of them that int16 still holds run
    in place, and the copy into the wide dtype (int32 up to arity 31, int64
    above) moves the others above those, where they run. m is the largest
    block of the wide dtype within _BLOCK_BYTES, or the arity when the whole
    table fits, but never under arity - 12, so that the whole-table passes
    fit int16.
    """
    n = table.arity
    wide = np.dtype(np.int32 if n <= 31 else np.int64)
    m = max(block_exponent(2, n, wide.itemsize) or n, n - 12)
    top = range(n - 1, max(m, 3) - 1, -1)
    held = min(12 - len(top), max(m - 3, 0))  # the block's passes on int16
    moved = max(m - 3, 0) - held
    coeffs = by_groups(table.values, _MOBIUS_GROUPS).view(np.int8)[:len(table)]
    for i in top[:4]:
        _mobius_pass(coeffs, i)
    if len(top) + held > 4:
        # with out, the int16 passes run in the last 2 bytes per entry of its
        # own, which a block copied into out reaches only once they are read
        wider = np.empty(len(table), np.int16) if out is None else out.view(np.int16)[-len(table):]
        np.copyto(wider, coeffs)
        coeffs = wider
    for i in top[4:]:
        _mobius_pass(coeffs, i)
    wide_block = np.empty(1 << m, dtype=wide) if moved else None
    for lo in range(0, len(table), 1 << m):
        block = coeffs[lo:lo + (1 << m)]
        for i in range(m - held, m):
            _mobius_pass(block, i)
        if moved:
            # bits 3 .. m-1 of j: the moved ones above the held ones in the
            # wide block's memory, below them in the table's
            np.copyto(wide_block.reshape(1 << moved, 1 << held, -1),
                      block.reshape(1 << held, 1 << moved, -1).transpose(1, 0, 2))
            block = wide_block
            for i in range(3 + held, m):
                _mobius_pass(block, i)
        if out is not None:
            np.copyto(out[lo:lo + len(block)].reshape(1 << held, 1 << moved, -1),
                      block.reshape(1 << moved, 1 << held, -1).transpose(1, 0, 2))
        yield lo, block


def mobius_coefficients(fn, cap: int = DEFAULT_TABLE_CAP) -> np.ndarray:
    """Integer coefficients of the unique multilinear polynomial over Z.

    Entry S (as a bitmask) is the coefficient of the monomial prod of the
    variables in S. The array is int32 up to arity 31, int64 above: every
    entry is an alternating sum of 2^n table values, 2^(n-1) of each sign,
    so its magnitude is at most 2^(n-1). _mobius_blocks copies its blocks
    into it in index order.
    """
    table = _table_of(fn, cap)
    coeffs = np.empty(len(table), dtype=np.int32 if table.arity <= 31 else np.int64)
    for _ in _mobius_blocks(table, out=coeffs):
        pass
    return coeffs


def degree(fn, cap: int = DEFAULT_TABLE_CAP) -> int:
    """Degree of the multilinear polynomial; 0 for constants.

    Each block of _mobius_blocks is reduced as it is made, so the 2^n
    coefficients are never held at once. A block from lo (a multiple of its
    length) holds the monomial lo + j, of weight |lo| + |j|, at a position p
    that permutes the bits of j, so |p| = |j|. Its nonzero positions are
    listed _DEGREE_CHUNK at a time, and a chunk from start adds |start|.
    """
    deg = 0
    for lo, block in _mobius_blocks(_table_of(fn, cap)):
        for start in range(0, len(block), _DEGREE_CHUNK):
            nonzero = np.flatnonzero(block[start:start + _DEGREE_CHUNK])
            if len(nonzero):
                deg = max(deg, (lo + start).bit_count() + int(np.bitwise_count(nonzero).max()))
    return deg


_GATHER = 1 << 22  # neighbour slots _side_neighbours gathers at once
_EDGE_CHUNK = 1 << 16  # neighbour slots, and keys, that edges() handles at once
# bytes numpy may hold beside a pass's arrays: its iterator buffers and the
# int64 copies it indexes by, made np.getbufsize() = 8192 items at a time,
# and the small objects of the pass
_NUMPY_BYTES = 64 << 10


def _check_budget(nbytes: int, what: str) -> None:
    """Raise CapExceeded when what would take more than MEMORY_BUDGET bytes."""
    if nbytes > MEMORY_BUDGET:
        raise CapExceeded(f"{what} needs over {nbytes} bytes, budget {MEMORY_BUDGET}")


def _csr_bytes(nnz: int, n_rows: int) -> int:
    """Bytes of a 0/1 CSR with nnz stored entries and n_rows rows: float64
    data and int32 indices per entry, an int32 pointer per row plus one."""
    return 12 * nnz + 4 * (n_rows + 1)


def _check_csr_budget(nnz: int, n_rows: int) -> None:
    """Raise CapExceeded when _csr_bytes is over MEMORY_BUDGET."""
    _check_budget(_csr_bytes(nnz, n_rows), "sparse adjacency")


def _side_neighbours(table: TruthTable, side: np.ndarray, out: np.ndarray | None = None,
                     slots: int = _GATHER) -> tuple[np.ndarray, np.ndarray]:
    """(indptr, indices): each input of side's neighbours across an edge,
    side[i]'s in direction order at indices[indptr[i]:indptr[i + 1]], as
    int32 lists read from the table with no scipy, the indices written into
    out when given. The inputs all have one value. Lengths are the cached
    sensitivities, so callers can check the size against MEMORY_BUDGET
    first; beside the lists, the gather holds a chunk of at most slots
    neighbour slots at 10 bytes each (the int32 neighbours, their values,
    the mask and those kept), and numpy's buffers (_NUMPY_BYTES)."""
    vals, n = table.values, table.arity
    indptr = np.zeros(len(side) + 1, dtype=np.int32)
    np.cumsum(table.sensitivity_counts[side], out=indptr[1:])
    indices = np.empty(int(indptr[-1]), dtype=np.int32) if out is None else out
    flips = np.int32(1) << np.arange(n, dtype=np.int32)
    step = max(1, slots // n)
    for lo in range(0, len(side), step):
        hi = min(lo + step, len(side))
        nbr = side[lo:hi, None].astype(np.int32) ^ flips
        indices[indptr[lo]:indptr[hi]] = nbr[vals[nbr] != vals[side[lo]]]
    return indptr, indices


def _smaller_side_rows(table: TruthTable, side: np.ndarray) -> sp.csr_matrix:
    """Rows of the sensitivity graph's adjacency on the inputs side, which
    all have one value, as a len(side) x 2^n CSR over _side_neighbours."""
    import scipy.sparse as sp

    indptr, indices = _side_neighbours(table, side)
    return sp.csr_matrix((np.ones(len(indices)), indices, indptr),
                         shape=(len(side), len(table.values)))


def _cc(graph: sp.csr_matrix, directed: bool) -> tuple[int, np.ndarray]:
    """scipy's connected_components, imported on first use."""
    from scipy.sparse.csgraph import connected_components

    return connected_components(graph, directed=directed)


def _census_from_table(table: TruthTable) -> dict[tuple, int] | None:
    """The component census read from the table, as census() keys it, or None
    when some component is neither a star nor a two-layer star, or when its
    CENSUS_BYTES_PER_INPUT bytes per input do not fit MEMORY_BUDGET.

    A round of passes from axis_blocks through axis_view gives every vertex
    the largest, second largest and smallest degree of its neighbours; a
    second round, whether a neighbour has two internal (degree >= 2)
    neighbours. Each of these vertices heads a component that it closes:
    - a star's hub, all of whose d neighbours are leaves (a single edge has
      two such ends);
    - a two-layer star's center, of degree a >= 2, whose neighbours all have
      one degree b >= 2 and one internal neighbour: each joins it and b - 1
      leaves.
    No vertex is in two of them, so they are every component exactly when
    their sizes add up to the vertices with edges. A forest has fewer edges
    than vertices, so a graph with as many is refused at once, and the
    second round is skipped when the first round's centers cannot cover
    the rest.
    """
    vals, d, n = table.values, table.sensitivity_counts, table.arity
    if CENSUS_BYTES_PER_INPUT * len(vals) > MEMORY_BUDGET:
        return None
    vertices = np.count_nonzero(d)
    if int(d.sum()) >= 2 * vertices > 0:
        return None
    # x reads its neighbour y's entry of per_input, under 128 plus 128 f(y),
    # xor 128 f(x): an edge's far end outranks every non-edge, and ^ 128
    # reverses that for a minimum. top and second end as 128 plus the two
    # largest degrees at x's edges' far ends, low as the smallest
    per_input = np.left_shift(vals, 7)
    per_input += d
    top, second = np.zeros_like(per_input), np.zeros_like(per_input)
    low = np.full_like(per_input, 255)

    def gather(i: int, ins: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> None:
        np.bitwise_and(ins, 128, out=tmp)
        np.bitwise_xor(axis_view(ins, 2, i)[:, ::-1], axis_view(tmp, 2, i),
                       out=axis_view(out, 2, i), order="A")

    for i, (p, tp, sc, lw, nb, tm) in axis_blocks(2, n, per_input, top, second, low, scratch=2):
        gather(i, p, nb, tm)
        np.minimum(tp, nb, out=tm)
        np.maximum(sc, tm, out=sc)
        np.maximum(tp, nb, out=tp)
        np.bitwise_xor(nb, 128, out=nb)
        np.minimum(lw, nb, out=lw)
    # key: the one degree of all of x's neighbours, 0 if they have two
    key = np.bitwise_xor(top, 128, out=top)
    np.multiply(key, np.equal(low, key, out=low.view(bool)), out=key)
    # per_input: 128 f(x), plus 1 where x has two internal neighbours
    np.bitwise_and(per_input, 128, out=per_input)
    per_input += np.greater_equal(second, 130, out=second.view(bool))
    del p, tp, sc, lw, nb, tm, low, second  # the loop's last step holds them too

    shapes, covered, centers = _census_tally(d, key, n)
    if centers and covered >= vertices:
        # bad reaches 129 where the far end of one of x's edges has two
        # internal neighbours
        bad = np.zeros_like(per_input)
        for i, (p, bd, nb, tm) in axis_blocks(2, n, per_input, bad, scratch=2):
            gather(i, p, nb, tm)
            np.maximum(bd, nb, out=bd)
        del p, bd, nb, tm, per_input
        np.multiply(key, np.less(bad, 129, out=bad.view(bool)), out=key)
        del bad
        shapes, covered, _ = _census_tally(d, key, n)
    return dict(sorted(shapes.items())) if covered == vertices else None


def _census_tally(d: np.ndarray, key: np.ndarray, n: int) -> tuple[dict, int, int]:
    """(shapes, vertices covered, two-layer centers) from the degrees and the
    key of _census_from_table. Only hubs (key 1) and centers (degree and key
    >= 2) are read, as degree * (n + 1) + key in the narrowest code that
    holds (n + 1)^2, in chunks of a sixteenth of the table or _TALLY_CHUNK
    entries, whichever is more, and their codes counted _TALLY_CODES at a
    time."""
    width = n + 1
    code_type = np.uint8 if width * width <= 256 else np.uint16
    counts = np.zeros(width * width, dtype=np.int64)
    step = max(len(d) >> 4, _TALLY_CHUNK)
    for lo in range(0, len(d), step):
        dc, kc = d[lo:lo + step], key[lo:lo + step]
        # min(d, key) is at least 2 at a center, and key is 1 at a hub
        low = np.minimum(dc, kc)
        pick = np.greater_equal(low, 2)
        pick |= np.equal(kc, 1, out=low.view(bool))
        code = np.multiply(dc[pick], width, dtype=code_type)
        code += kc[pick]
        for at in range(0, len(code), _TALLY_CODES):
            counts += np.bincount(code[at:at + _TALLY_CODES], minlength=len(counts))
    shapes, covered, centers = {}, 0, 0
    for code in np.flatnonzero(counts).tolist():
        a, b = divmod(code, width)
        count = int(counts[code])
        if b == 1:
            # both ends of a single edge are hubs
            shapes[("star", a)] = count // 2 if a == 1 else count
            covered += count if a == 1 else count * (a + 1)
        else:
            shapes[("two-layer-star", a, b)] = count
            covered += count * (1 + a * b)
            centers += count
    return shapes, covered, centers


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
    same integer encoding as the table. Every edge joins S, the smaller side
    (the 0-side on a tie; listed on first use), to the other side. The graph
    holds no rows B of S: matrix-free and adjacency() build their own, and
    adjacency(rows, cols) builds a dense block from two input lists alone,
    for the exact solve. When
    no input off S has two neighbours, B B^T is diag(d_S) (_star_degrees);
    when every component is a star or a two-layer star, the census is read
    from the table by degrees within two hops (_table_census, built once).
    Either gives lambda^2 from the components' shapes (_shape_lambda_sq),
    read by auto and by the exact solve past arity _CLASS_SOLVE_ARITY.
    Otherwise adjacency() gives component labels that sort into one
    component index, which the census, that exact solve and every component
    query read. Up to that arity the exact solve reads the two parity
    classes' sides from the table, with no index. edges(xs) gathers edges
    from the table at inputs of S, for components() and export.
    meta is fn's construction metadata, which the analytic spectral method
    reads (None for a table).
    """

    def __init__(self, fn, cap: int = DEFAULT_TABLE_CAP):
        self.table = _table_of(fn, cap)
        self.arity = self.table.arity
        self.meta = getattr(fn, "meta", None)
        self._side_value = int(2 * self.table.ones_count() < len(self.table))
        self._adj: sp.csr_matrix | None = None
        self._labels: np.ndarray | None = None

    @cached_property
    def _side(self) -> np.ndarray:
        """S's inputs, listed on first use: the census from the table, the
        star test on a non-star graph and the parity-class solve skip it."""
        return np.flatnonzero(self.table.values == self._side_value)

    def degree_counts(self) -> np.ndarray:
        """Degree of every vertex: the table's cached sensitivity counts."""
        return self.table.sensitivity_counts

    def edge_count(self) -> int:
        return int(self.degree_counts().sum()) // 2

    def _star_degrees(self) -> np.ndarray | None:
        """S's degrees d_S when no input off S has two neighbours, else None.
        For y, y' in S, entry (y, y') of B B^T counts their common neighbours,
        so B B^T is diag(d_S) exactly then: every component is a star K_1,d
        centred in S. The test reads s over the inputs off S from the table's
        cached side pass (TruthTable.side_sensitivities), which s0 and s1
        share."""
        if self.table.side_sensitivities[1 - self._side_value][0] > 1:
            return None
        return self.degree_counts()[self._side]

    def adjacency(self, rows: np.ndarray | None = None,
                  cols: np.ndarray | None = None) -> sp.csr_matrix | np.ndarray:
        """With no arguments, the 2^n x 2^n 0/1 CSR, built once over the data
        and int32 indices of S's rows, storing each edge once: row x lists x's
        neighbours if x is in S and is empty otherwise. scipy.sparse.csgraph
        reads it as undirected; A + A^T is symmetric. CapExceeded over
        MEMORY_BUDGET: 12 E + 4 (2^n + 1) bytes.

        With input lists rows and cols, the dense float64 0/1 block
        A[rows][:, cols], read from the inputs alone with no CSR; 2-D lists
        give one block per pair of rows, (k, m, M) for (k, m) and (k, M).
        Inputs are adjacent when they differ in one bit and f differs there,
        so an entry is bitwise_count(x ^ y) == 1 once each input carries two
        tag bits above bit n, set on a row of value 1 and a column of value
        0: a pair of equal values then differs in both. The block holds the
        uint8 counts beside it, 9 bytes a cell; the xor of the tagged inputs
        is freed before the block is allocated.
        """
        if rows is not None or cols is not None:
            if rows is None or cols is None:
                raise ValueError("adjacency takes both rows and cols, or neither")
            vals, tag = self.table.values, np.uint64(3 << self.arity)
            x = rows.astype(np.uint64) | vals[rows] * tag
            y = cols.astype(np.uint64) | (vals[cols] ^ 1) * tag
            count = np.bitwise_count(x[..., :, None] ^ y[..., None, :])
            return np.equal(count, 1, out=np.empty(count.shape))
        if self._adj is None:
            import scipy.sparse as sp

            size = 1 << self.arity
            _check_csr_budget(self.edge_count(), size)
            rows = _smaller_side_rows(self.table, self._side)
            indptr = np.zeros(size + 1, dtype=np.int32)
            indptr[self._side + 1] = np.diff(rows.indptr)
            np.cumsum(indptr, out=indptr)
            self._adj = sp.csr_matrix((rows.data, rows.indices, indptr), shape=(size, size))
        return self._adj

    def edges(self, xs: np.ndarray | None = None) -> np.ndarray:
        """The edges as an (E, 2) int64 array with x < y, sorted, from
        _side_neighbours at S's inputs, without B: all of them, or those whose
        end in S is one of the inputs xs. The result's own 16 bytes per edge
        hold every phase: its second half takes the ends y in S's order, its
        first half the ends x, and the sort keys are made in the second half
        and sorted there. The rows are then written from the front a chunk at
        a time, each chunk's keys copied out first, so a row never overwrites
        a key not yet read. A chunk is a quarter of the edges, kept between
        1024 and _EDGE_CHUNK slots. CapExceeded over MEMORY_BUDGET, as
        counted: S's inputs and their degrees, 9 bytes each, the result, S's
        row pointers, the gather's chunk at 10 bytes a slot (which bounds the
        chunks of x and of the keys too) and numpy's _NUMPY_BYTES."""
        vals, n = self.table.values, self.arity
        side = self._side if xs is None else xs[vals[xs] == self._side_value]
        degrees = self.degree_counts()[side]
        edges = int(degrees.sum())
        chunk = min(_EDGE_CHUNK, max(1 << 10, edges // 4))
        held = 16 * edges + 4 * (len(side) + 1) + 10 * min(chunk, n * len(side))
        _check_budget(9 * len(side) + held + _NUMPY_BYTES, "edge list")
        e = np.empty((edges, 2), dtype=np.int64)
        x, key = e.reshape(2, edges)  # views of the two halves of e's memory
        ptr = _side_neighbours(self.table, side, out=key, slots=chunk)[0]
        step = max(1, chunk // n)
        for lo in range(0, len(side), step):
            hi = min(lo + step, len(side))
            x[ptr[lo]:ptr[hi]] = np.repeat(side[lo:hi], degrees[lo:hi])
        # an edge's sort key is its smaller end x & y above its larger end
        # x | y, 2n bits (arity <= 31), made in place over the ends y in key:
        # the ends differ in one bit, x ^ y, so y | (x ^ y) is x | y, and that
        # less the bit is x & y
        x ^= key
        key |= x
        x ^= key
        x <<= n
        key |= x
        key.sort()
        buf = np.empty(min(chunk, edges), dtype=np.int64)
        for lo in range(0, edges, chunk):
            k = buf[:min(chunk, edges - lo)]
            k[:] = key[lo:lo + chunk]
            np.right_shift(k, n, out=e[lo:lo + chunk, 0])
            np.bitwise_and(k, (1 << n) - 1, out=e[lo:lo + chunk, 1])
        return e

    def _component_labels(self) -> np.ndarray:
        """Connected-component label of every vertex, isolated ones included,
        numbered from 0; computed once from the adjacency, after CapExceeded
        if the int32 labels, _NUMPY_BYTES and the larger of scipy's transposed
        copy of the adjacency and the index do not fit MEMORY_BUDGET."""
        if self._labels is None:
            size, active = len(self.table.values), np.count_nonzero(self.degree_counts())
            held = max(_csr_bytes(self.edge_count(), size), INDEX_BYTES_PER_INPUT * active)
            _check_budget(4 * size + held + _NUMPY_BYTES, "component labels")
            self._labels = _cc(self.adjacency(), directed=False)[1]
        return self._labels

    @cached_property
    def _component_index(self) -> tuple[np.ndarray, np.ndarray]:
        """(verts, ptr), built once: the int32 vertices with edges sorted by
        (component, value, id), the components numbered by smallest vertex as
        scipy labels them. Component g's 0-inputs are verts[ptr[2g]:ptr[2g+1]],
        its 1-inputs the next run; every edge joins the two."""
        x = self.degree_counts().nonzero()[0]
        key = (self._component_labels()[x].astype(np.int64) << 1 | self.table.values[x]) << 32 | x
        key.sort()
        group = key >> 32
        starts = np.ones(len(key) + 1, dtype=bool)
        np.not_equal(group[1:], group[:-1], out=starts[1:-1])
        return key.astype(np.int32), starts.nonzero()[0].astype(np.int32)

    @cached_property
    def _table_census(self) -> dict[tuple, int] | None:
        """The census read from the table by _census_from_table, built once;
        None when some component is other or it does not fit."""
        return _census_from_table(self.table)

    @cached_property
    def _shape_lambda_sq(self) -> int | None:
        """lambda^2 from the components' shapes, with no B, built once: max d_S
        for stars centred in S (_star_degrees, tested first, so they never run
        the census), else the largest d of a star or a + b - 1 of a two-layer
        star (two_layer_star_lambda) in the census from the table, else None."""
        d = self._star_degrees()
        if d is not None:
            return int(d.max(initial=0))
        shapes = self._table_census
        if shapes is None:
            return None
        return max((k[1] if k[0] == "star" else k[1] + k[2] - 1 for k in shapes), default=0)

    def census(self) -> dict[tuple, int]:
        """Count of each component shape, keyed ("star", d), ("two-layer-star",
        a, b) or ("other",), in key order. It is read from the table when
        every component is a star or a two-layer star and that fits; else
        from the component index, in chunks at 64 bytes per vertex, with
        CapExceeded when the adjacency or one component does not fit."""
        shapes = self._table_census
        return shapes if shapes is not None else self._census_by_labels()

    def _census_by_labels(self) -> dict[tuple, int]:
        """census() from the component index, whatever the shapes."""
        verts, ptr = self._component_index
        shapes: Counter = Counter()
        for _, _, v, p in _chunks(64 * np.diff(ptr[::2]).astype(np.int64), verts, ptr, "census"):
            shapes.update(_shape_census(self.degree_counts()[v], p))
        return dict(sorted(shapes.items()))

    def _component(self, k: int) -> Component:
        """Component k of the index, with its edges."""
        verts, ptr = self._component_index
        run = np.sort(verts[ptr[2 * k]:ptr[2 * k + 2]]).astype(np.int64)
        return Component(run, self.edges(run))

    def components(self) -> list[Component]:
        """Connected components ordered by smallest vertex."""
        return [self._component(k) for k in range(len(self._component_index[1]) // 2)]


def _chunks(cost: np.ndarray, verts: np.ndarray, ptr: np.ndarray, what: str):
    """Runs lo..hi of the index's components whose temporaries, cost bytes each,
    fit MEMORY_BUDGET, with their vertices and run pointers; CapExceeded if not."""
    ends, lo = cost.cumsum(), 0
    while lo < len(ends):
        hi = int(ends.searchsorted(ends[lo] - cost[lo] + MEMORY_BUDGET, side="right"))
        if hi == lo:
            raise _over_budget(ptr[2 * lo + 2] - ptr[2 * lo], what)
        yield lo, hi, verts[ptr[2 * lo]:ptr[2 * hi]], ptr[2 * lo:2 * hi + 1] - ptr[2 * lo]
        lo = hi


def _shape_census(d: np.ndarray, ptr: np.ndarray) -> dict[tuple, int]:
    """Count of each component shape, keyed as classify_component's results,
    from the degrees d of bipartite components whose sides, both nonempty,
    are d[ptr[2c]:ptr[2c+1]] and d[ptr[2c+1]:ptr[2c+2]]. A component of k
    vertices is a tree when a side's degrees add up to k - 1, and a tree is
    a star when a side has one vertex, or a two-layer star (a, b) when one
    side has one internal (degree >= 2) vertex, the center, and the a
    vertices of the other side all have degree b >= 2: each has only the
    center and leaves to join, so each joins the center.
    """
    starts, size = ptr[:-1], ptr[1:] - ptr[:-1]
    internal = np.add.reduceat(d >= 2, starts)
    top, low = np.maximum.reduceat(d, starts), np.minimum.reduceat(d, starts)
    k = size[::2] + size[1::2]
    tree = np.add.reduceat(d, starts, dtype=np.int64)[::2] == k - 1
    star = tree & (np.minimum(size[::2], size[1::2]) == 1)
    # the sides whose vertices are all internal, of one degree
    even = (internal == size) & (top == low)
    center0 = (internal[::2] == 1) & even[1::2]
    two = tree & ~star & (center0 | (internal[1::2] == 1) & even[::2])
    a, b = np.where(center0, size[1::2], size[::2]), np.where(center0, top[1::2], top[::2])
    # one integer per component: its kind (0, 1, 2 sort as names do), parameters
    dims = (3,) + (int(k.max(initial=0)) + 1,) * 2
    shape = np.ravel_multi_index((star + 2 * two, np.where(star, k - 1, a * two), b * two), dims)
    keys, counts = np.unique(shape, return_counts=True)
    kinds, xs, ys = (v.tolist() for v in np.unravel_index(keys, dims))
    names = ("other",), ("star",), ("two-layer-star",)
    return {names[c] + (x, y)[:c]: n for c, x, y, n in zip(kinds, xs, ys, counts.tolist())}


def classify_component(comp: Component) -> tuple[str, tuple[int, ...]]:
    """Classify a component as ("star", (d,)), ("two-layer-star", (a, b)),
    or ("other", ()).

    A star is one hub joined to d leaves. A two-layer star is a center of
    degree a whose a neighbors each have degree b >= 2, all remaining
    vertices being leaves hanging off those neighbors. A star is never
    reported as a two-layer star. Only a tree has a shape, by the census's
    rule on its sides: the parities of the distances from one vertex.
    """
    import scipy.sparse as sp
    from scipy.sparse.csgraph import shortest_path

    k = len(comp.vertices)
    order = np.argsort(comp.vertices)
    e = order[np.searchsorted(comp.vertices, comp.edges, sorter=order)].reshape(-1, 2)
    adj = sp.csr_matrix((np.ones(len(e)), (e[:, 0], e[:, 1])), shape=(k, k))
    depth = shortest_path(adj, directed=False, unweighted=True, indices=0)
    if k < 2 or len(e) != k - 1 or np.isinf(depth).any():
        return "other", ()
    d = np.bincount(e.ravel(), minlength=k)[np.argsort(depth % 2, kind="stable")]
    (kind, *params), = _shape_census(d, np.array([0, k - int((depth % 2).sum()), k]))
    return kind, tuple(params)


def _bin_label(x: int, arity: int) -> str:
    return format(x, f"0{arity}b")


def _labelled_edges(graph: SensitivityGraph, component: int | None) -> list[tuple[str, str]]:
    """Edges of the graph, or of its component-th component, as (x, y) pairs
    of most-significant-bit first binary strings, x < y, sorted."""
    if component is None:
        e = graph.edges()
    else:
        count = len(graph._component_index[1]) // 2
        if not 0 <= component < count:
            raise ValueError(f"component index {component} out of range ({count})")
        e = graph._component(component).edges
    n = graph.arity
    return [(_bin_label(int(x), n), _bin_label(int(y), n)) for x, y in e]


def graph_edges_text(graph: SensitivityGraph, component: int | None = None) -> str:
    """Edge list, one "x y" pair per line."""
    return "".join(f"{x} {y}\n" for x, y in _labelled_edges(graph, component))


def graph_dot_text(graph: SensitivityGraph, component: int | None = None) -> str:
    body = "".join(f'  "{x}" -- "{y}";\n' for x, y in _labelled_edges(graph, component))
    return "graph sensitivity {\n" + body + "}\n"


@dataclass(frozen=True)
class SpectralResult:
    value: float
    method: str
    residual: float
    iterations: int

    @property
    def exact(self) -> bool:
        return self.method in ("dense", "component-wise", "analytic")


def _lambda_exact(graph: SensitivityGraph) -> float:
    """Largest adjacency eigenvalue, exactly. Every edge joins a 0-input to a
    1-input, so a union of components has adjacency [[0, C], [C^T, 0]] and
    its lambda^2 is the top eigenvalue of C C^T, C's rows on its smaller side
    (the 0-side on a tie), in input order. Flipping a coordinate also flips
    |x| mod 2, so f(x) ^ (|x| mod 2) is the same at both ends of every edge:
    it splits the inputs into two parity classes, each a union of
    components. The solve groups the inputs by class up to arity
    _CLASS_SOLVE_ARITY (_class_batches) and by component past it
    (_component_batches), unless lambda^2 can be read from the components'
    shapes (_shape_lambda_sq): then there are no labels, index or blocks.
    Each block C is built from its group's two vertex lists by
    graph.adjacency(rows, cols), a batch of groups of one shape at once.
    Chunks of groups are solved within MEMORY_BUDGET, a group with sides
    m <= M counting _block_bytes(m, M): C and C C^T, and adjacency's
    uint8 count per cell.

    Only the largest top eigenvalue is reported, and best, the largest
    found so far, is carried across chunks. In a chunk, the batches with
    fewer than _BOUND_ROWS rows are each one eigvalsh batch, solved first.
    The larger blocks go to _bounded_top, which bounds each one by
    Collatz-Wielandt steps on C and eigensolves only those whose upper
    bound is not below best by more than _BOUND_MARGIN of it. A block is
    solved by the same Gram product and eigvalsh as in a batch, and a
    dropped one's eigvalsh could not have exceeded best, so lambda is bit
    for bit what solving every block gives.
    """
    if graph.arity <= _CLASS_SOLVE_ARITY:
        chunks = _class_batches(graph)
    elif (lam_sq := graph._shape_lambda_sq) is not None:
        return math.sqrt(lam_sq)
    else:
        chunks = _component_batches(graph)
    best = 0.0
    for chunk in chunks:
        bounded = []
        for rows, cols in chunk:
            c = graph.adjacency(rows, cols)
            if rows.shape[1] < _BOUND_ROWS:
                best = max(best, _gram_top(c))
            else:
                bounded.append(c)
        if bounded:
            best = _bounded_top(bounded, best)
        c = bounded = None  # freed before the next chunk's
    return math.sqrt(best)


def _block_bytes(m, big):
    """Bytes the exact solve counts for a group with sides m <= big: C and
    C C^T in float64, and adjacency(rows, cols)'s uint8 count per cell."""
    return 8 * m * (m + big) + m * big


def _over_budget(size: int, what: str) -> CapExceeded:
    return CapExceeded(f"component with {size} vertices exceeds "
                       f"the {what} budget of {MEMORY_BUDGET} bytes")


def _class_batches(graph: SensitivityGraph) -> list[list[tuple[np.ndarray, np.ndarray]]]:
    """The parity classes as chunks of (rows, cols) batches, read from the
    table with no sort: a class's sides are its inputs with an edge of value
    0 and of value 1, in input order, and its rows the smaller side (the
    0-side on a tie). The classes are taken in shape order, and two of one
    shape are one batch, when both fit MEMORY_BUDGET together; otherwise
    each is a chunk of its own. CapExceeded when a class alone does not fit.
    """
    vals = graph.table.values
    x = graph.degree_counts().nonzero()[0]
    parity = np.bitwise_count(np.arange(len(vals), dtype=np.uint32)) & 1
    key = ((parity ^ vals) << 1 | vals)[x]
    groups = []
    for zero, one in ((x[key == 0], x[key == 1]), (x[key == 2], x[key == 3])):
        if len(zero):  # a class with edges has both sides
            groups.append((zero, one) if len(zero) <= len(one) else (one, zero))
    groups.sort(key=lambda g: (len(g[0]), len(g[1])))
    shapes = [(len(rows), len(cols)) for rows, cols in groups]
    cost = [_block_bytes(m, big) for m, big in shapes]
    for (m, big), c in zip(shapes, cost):
        if c > MEMORY_BUDGET:
            raise _over_budget(m + big, "dense solve")
    if sum(cost) > MEMORY_BUDGET:
        return [[(rows[None], cols[None])] for rows, cols in groups]
    if len(shapes) == 2 and shapes[0] == shapes[1]:
        return [[tuple(np.stack(side) for side in zip(*groups))]]
    return [[(rows[None], cols[None]) for rows, cols in groups]]


def _component_batches(graph: SensitivityGraph):
    """The connected components as chunks of (rows, cols) batches, read
    from the component index: each chunk's components fit MEMORY_BUDGET
    (_chunks), and those of one shape, in shape order, are one batch whose
    lists are gathered from their runs."""
    verts, ptr = graph._component_index
    runs = (ptr[1:] - ptr[:-1]).reshape(-1, 2)
    small, large = runs.min(axis=1).astype(np.int64), runs.max(axis=1)
    # the 1-inputs are the rows where they are the smaller side
    ones = runs[:, 0] > runs[:, 1]
    row_at = ptr[:-1:2] + np.where(ones, runs[:, 0], 0)
    col_at = ptr[:-1:2] + np.where(ones, 0, runs[:, 0])
    shape = small * len(verts) + large
    for lo, hi, _, _ in _chunks(_block_bytes(small, large), verts, ptr, "dense solve"):
        order = lo + shape[lo:hi].argsort(kind="stable")
        keys = shape[order]
        cuts = [0, *((keys[1:] != keys[:-1]).nonzero()[0] + 1).tolist(), hi - lo]
        yield [(verts[row_at[g, None] + np.arange(small[g[0]])],
                verts[col_at[g, None] + np.arange(large[g[0]])])
               for g in (order[i:j] for i, j in zip(cuts, cuts[1:]))]


def _gram_top(c: np.ndarray) -> float:
    """The largest top eigenvalue of the Gram blocks c c^T of a batch c."""
    return float(np.linalg.eigvalsh(c @ c.transpose(0, 2, 1))[:, -1].max())


def _cw_step(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(lo, hi, next x) of a Collatz-Wielandt step from y = G x, along the
    last axis, for symmetric nonnegative G and x >= 0: the Rayleigh quotient
    x.y / x.x, at most G's top eigenvalue; the largest y_i / x_i over
    x_i > 0, at least the top eigenvalue of any component of G that x is
    positive on (Collatz 1942, Wielandt 1950); and y / max y. Sums run in
    numpy's loop, not BLAS, so no bit depends on the BLAS thread count."""
    ratio = np.divide(y, x, out=np.zeros_like(y), where=x > 0)
    lo = np.einsum("...i,...i->...", x, y) / np.einsum("...i,...i->...", x, x)
    return lo, ratio.max(axis=-1), y / y.max(axis=-1, keepdims=True)


def _bounded_top(batches: list[np.ndarray], best: float) -> float:
    """max(best, _gram_top of each batch), eigensolving only the blocks that
    Collatz-Wielandt bounds cannot rule out.

    Each block C is stepped x <- C (C^T x) from the all-ones x, all blocks
    of a batch at once while any of them is live, so no copy is made and a
    block's Gram C C^T is formed only to be eigensolved. Every row of C has
    an edge, so x stays positive and _cw_step's [lo, hi] holds the block's
    top eigenvalue. After every step, a block whose hi is below best by
    more than _BOUND_MARGIN of it is dropped. After _LEAD_STEPS steps the
    live block with the largest lo is eigensolved, which sets best. The rest
    step on, up to _BOUND_STEPS steps in all or one per 64 rows of the
    largest block, and what is left is eigensolved one block at a time,
    largest lo first, dropping as best grows.
    """
    live = [np.ones(len(c), dtype=bool) for c in batches]
    xs = [np.ones(c.shape[:2]) for c in batches]
    lo, hi = [None] * len(batches), [None] * len(batches)

    def step() -> None:
        for k, c in enumerate(batches):
            if live[k].any():
                y = (c @ (xs[k][:, None] @ c).transpose(0, 2, 1))[:, :, 0]
                lo[k], hi[k], xs[k] = _cw_step(xs[k], y)

    def prune() -> bool:
        for k in range(len(batches)):
            live[k] &= hi[k] >= best - _BOUND_MARGIN * best
        return any(b.any() for b in live)

    def solve_top() -> None:
        nonlocal best
        top = [np.where(b, v, -math.inf) for b, v in zip(live, lo)]
        k = max(range(len(batches)), key=lambda k: top[k].max())
        i = int(top[k].argmax())
        best = max(best, _gram_top(batches[k][i:i + 1]))
        live[k][i] = False

    left = True
    for t in range(1, max(_BOUND_STEPS, max(c.shape[1] for c in batches) // 64) + 1):
        step()
        left = prune()
        if left and t == _LEAD_STEPS:
            solve_top()
            left = prune()
        if not left:
            break
    while left:
        solve_top()
        left = prune()
    return best


def _gram_in_runs(table: TruthTable, side: np.ndarray):
    """x -> B B^T x for the rows B of side. B is built once and held when its
    CSR fits MEMORY_BUDGET (_csr_bytes). Otherwise every call rebuilds it in
    consecutive runs of side that fit at 12 bytes per entry and 4 + 6 n per
    row (pointer, gather), one row at the least, adding 24 bytes per input
    at most: a forward pass sums B_k^T x_k, and a backward pass, starting
    from the run still held, takes the B_k y, so 2K - 1 builds for K runs."""
    n, counts = table.arity, table.sensitivity_counts[side]
    if _csr_bytes(int(counts.sum()), len(side)) <= MEMORY_BUDGET:
        rows = _smaller_side_rows(table, side)
        return lambda x: rows @ (rows.T @ x)
    ends = np.r_[0, (12 * counts.astype(np.int64) + 4 + 6 * n).cumsum()]
    cuts = [0]
    while (lo := cuts[-1]) < len(side):
        cuts.append(max(int(ends.searchsorted(ends[lo] + MEMORY_BUDGET, "right")) - 1, lo + 1))
    del ends  # not held through the steps
    runs = list(zip(cuts, cuts[1:]))

    def gram(x: np.ndarray) -> np.ndarray:
        y = np.zeros(len(table.values))
        for lo, hi in runs[:-1]:
            y += _smaller_side_rows(table, side[lo:hi]).T @ x[lo:hi]
        lo, hi = runs[-1]
        held = _smaller_side_rows(table, side[lo:hi])
        y += held.T @ x[lo:hi]
        # back from the run still held; each B_k y is independent of the order
        out = [held @ y]
        del held
        out += [_smaller_side_rows(table, side[lo:hi]) @ y for lo, hi in runs[-2::-1]]
        return np.concatenate(out[::-1])

    return gram


def _lambda_matfree(graph: SensitivityGraph, tol: float) -> tuple[float, float, int]:
    """Power iteration on the Gram operator B B^T of the smaller side, from
    the all-ones vector, for at most DEFAULT_MAX_ITER steps.

    Every edge joins a 0-input to a 1-input, so with S the smaller of the two
    sides (the 0-side on a tie) the adjacency is [[0, B], [B^T, 0]] and
    lambda^2 is the top eigenvalue of B B^T, iterated on vectors of length
    |S|. When no input off S has two neighbours, B B^T is diag(d_S), S's
    degrees, and a step is d_S x with no B. Otherwise _gram_in_runs owns B:
    whole when it fits MEMORY_BUDGET, in runs rebuilt on each step when not.
    The all-ones start overlaps every component's Perron vector. A step is
    _cw_step's bracket [lo, hi] on lambda^2: the top component's entries,
    the largest 1, never underflow (a smaller one's may), so hi bounds it.
    It stops once hi - lo <= tol * hi and returns sqrt(lo). The residual
    comes free from the last product w = B B^T x: for the unit vector
    u = [x; B^T x / lambda] / (sqrt(2) ||x||), ||A u - lambda u|| is
    ||w - lambda^2 x|| / (lambda sqrt(2) ||x||).
    """
    side = graph._side
    if len(side) == 0:
        # a constant function: no edges
        return 0.0, 0.0, 0
    d = graph._star_degrees()
    gram = (lambda x: d * x) if d is not None else _gram_in_runs(graph.table, side)

    x = np.ones(len(side))
    for iterations in range(1, DEFAULT_MAX_ITER + 1):
        w = gram(x)
        lo, hi, nxt = _cw_step(x, w)
        if hi - lo <= tol * hi:
            lam, r = math.sqrt(lo), w - lo * x
            residual = math.sqrt(np.einsum("i,i->", r, r) / (2 * np.einsum("i,i->", x, x))) / lam
            return lam, residual, iterations
        x = nxt
    lam = math.sqrt(lo)
    raise ConvergenceError(
        f"power iteration did not reach tol {tol} in {DEFAULT_MAX_ITER} iterations "
        f"(best estimate {lam})",
        best=lam,
    )


def spectral_sensitivity(
    fn,
    method: str = "auto",
    tol: float = DEFAULT_TOL,
) -> SpectralResult:
    """Operator norm of the sensitivity graph's adjacency matrix.

    fn is a function, a table, or a SensitivityGraph, whose cached census,
    lambda^2 from shapes, adjacency and component labels every solver then
    reuses. Matrix-free builds its own B on each call.

    method: "dense" or "component-wise" (the same exact eigensolve of Gram
    blocks C C^T, where C joins a group's smaller side to its larger one:
    the groups are the two parity classes f(x) ^ (|x| mod 2), each a union
    of components, up to arity _CLASS_SOLVE_ARITY, with no B, labels or
    component index, and the connected components past it; each block is
    built from its group's two vertex lists by adjacency(rows, cols);
    blocks of _BOUND_ROWS rows or more are first bounded by
    Collatz-Wielandt steps, and only those that may hold the maximum are
    eigensolved, which leaves lambda bit for bit the same), "matrix-free"
    (power iteration on the Gram operator B B^T of the whole graph's
    smaller side from the all-ones vector, returning sqrt(lo) once
    _cw_step's bracket [lo, hi] on lambda^2 has hi - lo <= tol * hi; its
    residual is ||A u - lambda u|| at the eigenvector estimate u it implies),
    "analytic" (closed form recorded by the construction), or
    "auto" to pick the exact solve at arity at most 13 (the test
    8 * 4 ** arity <= MEMORY_BUDGET, the size of a dense adjacency the solve
    never forms) or when lambda^2 can be read from the components' shapes
    (_shape_lambda_sq), and matrix-free otherwise. For matrix-free,
    iterations counts Gram steps, at most DEFAULT_MAX_ITER before
    ConvergenceError. Without B: when no input off the smaller side has two
    neighbours, as for haf(r), matrix-free iterates on the diagonal B B^T of
    the stars' degrees; past arity _CLASS_SOLVE_ARITY the exact solve reads
    lambda^2 as their largest degree, or, from a census from the table of
    stars and two-layer stars only, as for the tradeoff family, as the
    largest d of a star and a + b - 1 of a two-layer star. The method
    labels are the same.
    """
    if method == "analytic":
        meta = getattr(fn, "meta", None)
        if meta is None or meta.predicted_lambda_sq is None:
            raise ValueError("analytic method needs construction metadata")
        return SpectralResult(math.sqrt(meta.predicted_lambda_sq), "analytic", 0.0, 0)
    if method not in ("auto", "dense", "component-wise", "matrix-free"):
        raise ValueError(f"unknown spectral method {method!r}")
    graph = fn if isinstance(fn, SensitivityGraph) else SensitivityGraph(fn)
    if method == "auto":
        exact = 8 * 4 ** graph.arity <= MEMORY_BUDGET or graph._shape_lambda_sq is not None
        method = "dense" if exact else "matrix-free"
    if method == "matrix-free":
        value, residual, iters = _lambda_matfree(graph, tol)
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
        return asdict(self)


@dataclass
class MeasureReport:
    source: str
    arity: int
    tolerance: float
    runtime: float
    entries: list[MeasureEntry]

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, allow_nan=False)


def compute_measures(
    fn: BooleanFunction,
    names: Sequence[str],
    method: str = "auto",
    tol: float = DEFAULT_TOL,
    materialize_cap: int = DEFAULT_TABLE_CAP,
    source: str = "",
) -> MeasureReport:
    """Evaluate the requested measures, recording a skip reason instead of
    failing when a measure's cap rules the function out. Every name is
    checked before any measure runs."""
    if not names:
        raise ValueError(f"no measure named; valid: {', '.join(_MEASURE_NAMES)}")
    for name in names:
        if name not in _MEASURE_NAMES:
            raise ValueError(
                f"unknown measure {name!r}; valid: {', '.join(_MEASURE_NAMES)}"
            )
    t_start = time.perf_counter()
    entries: list[MeasureEntry] = []
    for name in names:
        try:
            entries.append(_one_measure(fn, name, method, tol, materialize_cap))
        except CapExceeded as exc:
            entries.append(
                MeasureEntry(name, None, None, skipped=f"cap: {exc}")
            )
    runtime = time.perf_counter() - t_start
    return MeasureReport(
        source=source,
        arity=fn.arity,
        tolerance=tol,
        runtime=round(runtime, 6),
        entries=entries,
    )


def _one_measure(fn, name, method, tol, materialize_cap) -> MeasureEntry:
    n = fn.arity
    if name in ("s0", "s1", "s", "c0", "c1"):
        res = {"s0": s0, "s1": s1, "s": s, "c0": c0, "c1": c1}[name](fn, cap=materialize_cap)
        bits = _bin_label(res.witness, n) if res.witness is not None else None
        return MeasureEntry(name, res.value, True, res.witness, bits,
                            "search" if name[0] == "c" else "scan")
    if name == "deg":
        return MeasureEntry(name, degree(fn, cap=materialize_cap), True, method="mobius")
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
        target = fn if method == "analytic" else SensitivityGraph(fn, materialize_cap)
        try:
            spec = spectral_sensitivity(target, method=method, tol=tol)
        except ConvergenceError as exc:
            return MeasureEntry(
                name,
                None,
                False,
                method="matrix-free",
                skipped=f"no convergence in {DEFAULT_MAX_ITER} iterations "
                f"(best estimate {exc.best:.4f})",
            )
        return MeasureEntry(name, spec.value, spec.exact, method=spec.method)
    raise AssertionError(name)
