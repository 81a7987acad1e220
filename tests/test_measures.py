import hashlib
import itertools
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from functools import cached_property

import numpy as np
import pytest
import scipy.sparse as sp
from conftest import make_parity
from hypothesis import assume, given, settings, strategies as st

from sensilab import core, measures
from sensilab import (
    ArityError,
    BooleanFunction,
    CapExceeded,
    ConvergenceError,
    MeasureEntry,
    MeasureReport,
    PartialAssignment,
    SensitivityGraph,
    TruthTable,
    address_fn,
    c0,
    c1,
    certificate_complexity_at,
    chaf,
    classify_component,
    compute_measures,
    degree,
    desensitize,
    graph_dot_text,
    graph_edges_text,
    haf,
    maf,
    mobius_coefficients,
    s,
    s0,
    s1,
    sensitivity_at,
    spectral_sensitivity,
    tradeoff,
    two_layer_star_adjacency,
    two_layer_star_lambda,
    uc1,
)
from sensilab.measures import Component


def table_fn(bits):
    n = len(bits).bit_length() - 1
    return BooleanFunction.from_table(
        TruthTable(n, np.array(bits, dtype=np.uint8))
    )


class TestSensitivity:
    def test_and2(self, and2):
        assert sensitivity_at(and2, 0b11) == 2
        assert sensitivity_at(and2, 0b00) == 0
        assert sensitivity_at(and2, 0b01) == 1
        assert s0(and2).value == 1
        assert s1(and2).value == 2
        assert s(and2).value == 2

    def test_witness_is_smallest(self, and2):
        assert s1(and2).witness == 0b11
        assert s0(and2).witness == 0b01

    def test_parity_is_fully_sensitive(self, parity3):
        assert s0(parity3).value == 3
        assert s1(parity3).value == 3
        assert all(sensitivity_at(parity3, x) == 3 for x in range(8))

    def test_constant_side_is_zero(self):
        f = table_fn([1, 1, 1, 1])
        assert s1(f).value == 0
        empty_side = s0(f)  # no zero-inputs: vacuous maximum
        assert empty_side.value == 0
        assert empty_side.witness is None

    def test_haf2_profile(self):
        f = haf(2)
        assert s0(f).value == 1
        assert s1(f).value == 4

    def test_point_out_of_range(self, and2):
        with pytest.raises(ValueError):
            sensitivity_at(and2, 4)


def side_reference(table: TruthTable, b: int | None) -> tuple[int, int | None]:
    """Max of sensitivity_at over the inputs where f is b (all for None) and
    the least input attaining it, one input at a time."""
    fn = BooleanFunction.from_table(table)
    best, witness = 0, None
    for x in range(len(table)):
        if b is None or table[x] == b:
            sx = sensitivity_at(fn, x)
            if witness is None or sx > best:
                best, witness = sx, x
    return best, witness


class TestSensitivityScan:
    """s0, s1, s and the graph's degrees all read one cached uint8 scan."""

    @pytest.mark.parametrize("n", range(1, 11))
    def test_matches_sensitivity_at(self, n):
        rng = np.random.default_rng([7, n])
        tables = [TruthTable(n, (rng.random(1 << n) < p).astype(np.uint8))
                  for p in (0.1, 0.5, 0.9)]
        # no 0-inputs, then no 1-inputs: that side's witness is None
        tables += [TruthTable(n, np.full(1 << n, b, dtype=np.uint8)) for b in (1, 0)]
        for table in tables:
            for measure, b in ((s0, 0), (s1, 1), (s, None)):
                assert tuple(measure(table)) == side_reference(table, b)

    def test_counts_are_cached_read_only_uint8(self):
        table = haf(2).table()
        counts = table.sensitivity_counts
        assert counts.dtype == np.uint8
        assert not counts.flags.writeable
        assert table.sensitivity_counts is counts
        assert SensitivityGraph(table).degree_counts() is counts

    def test_one_scan_per_table(self, monkeypatch):
        calls = []
        scan = core._sensitivity_scan

        def spy(values, arity):
            calls.append(arity)
            return scan(values, arity)

        monkeypatch.setattr(core, "_sensitivity_scan", spy)
        f = haf(2)
        report = compute_measures(f, ["s0", "s1", "s"])
        assert [e.value for e in report.entries] == [1, 4, 4]
        edges = SensitivityGraph(f).edge_count()
        assert edges == sum(sensitivity_at(f, x) for x in range(32)) // 2
        assert calls == [5]

    def test_one_side_pass_per_table(self, monkeypatch):
        # s0, s1, s and the star test all read TruthTable.side_sensitivities
        calls = []
        real = core.TruthTable.side_sensitivities.func

        def spy(table):
            calls.append(table.arity)
            return real(table)

        prop = cached_property(spy)
        prop.__set_name__(core.TruthTable, "side_sensitivities")
        monkeypatch.setattr(core.TruthTable, "side_sensitivities", prop)
        table = haf(2).table()
        assert [tuple(m(table)) for m in (s0, s1, s)] == [(1, 0), (4, 8), (4, 8)]
        assert SensitivityGraph(table)._star_degrees() is not None
        assert calls == [5]


class TestCertificates:
    def test_or2(self, or2):
        codim, cert = certificate_complexity_at(or2, 0b01)
        assert codim == 1
        assert cert.to_string() == "1*"
        assert c1(or2).value == 1
        assert c0(or2).value == 2

    def test_and2(self, and2):
        assert c1(and2).value == 2
        assert c0(and2).value == 1

    def test_certificate_actually_certifies(self, or2):
        for x in range(4):
            codim, cert = certificate_complexity_at(or2, x)
            assert cert.contains(x)
            assert all(or2(y) == or2(x) for y in cert.points())

    def test_at_least_sensitivity(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            f = table_fn(rng.integers(0, 2, size=16).tolist())
            for x in range(16):
                codim, _ = certificate_complexity_at(f, x)
                assert codim >= sensitivity_at(f, x)

    def test_arity_cap_message(self):
        f = haf(3)
        with pytest.raises(CapExceeded, match="certificate search"):
            certificate_complexity_at(f, 0)

    @pytest.mark.parametrize("x", [-1, 8, 1 << 70])
    def test_input_out_of_range(self, x):
        # as TruthTable[x]: no wrap to input 7 at -1, no numpy IndexError at 8
        f = table_fn([0, 1, 1, 0, 1, 0, 0, 1])
        for fn in (f, f.table()):
            with pytest.raises(ArityError, match=f"input {x} out of range for arity 3"):
                certificate_complexity_at(fn, x)

    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("bit", [0, 1])
    def test_constant_side(self, n, bit):
        t = TruthTable(n, np.full(1 << n, bit, dtype=np.uint8))
        # like s0/s1: no witness only on the side with no inputs
        for b, (cert_side, sens_side) in enumerate([(c0, s0), (c1, s1)]):
            want = (0, 0) if b == bit else (0, None)
            assert cert_side(t) == want == sens_side(t)

    @pytest.mark.parametrize("n", [1, 2])
    def test_counts_below_one_lookup_group(self, n):
        # every table on fewer than the lookup's 8-entry groups, which it
        # tiles into one
        for code in range(1 << (1 << n)):
            table = TruthTable(n, np.array(core.point_bits(code, 1 << n), np.uint8))
            want = [certificate_complexity_at(table, x)[0] for x in range(1 << n)]
            assert measures._cert_counts(table).tolist() == want

    def test_lookup_words_match_the_27_subcubes(self):
        # each reachable code: every corner holds a 0, a 1 or both; byte j of
        # its word, the least set + codimension over the subcubes on x1..x3
        # through corner j, a mixed set counting 96
        words = measures._corner_lookup()
        assert (words.dtype, words.shape) == (np.uint64, (1 << 16,))
        cubes = [(free, base) for free in range(8) for base in range(8) if not base & free]
        seen = 0
        for states in itertools.product(((1, 0), (0, 1), (1, 1)), repeat=8):
            code = sum(z << j | o << (8 + j) for j, (z, o) in enumerate(states))
            best = [127] * 8
            for free, base in cubes:
                corners = [base | s for s in range(8) if s & free == s]
                zero = any(states[c][0] for c in corners)
                one = any(states[c][1] for c in corners)
                value = 32 * zero + 64 * one + 3 - free.bit_count()
                for c in corners:
                    best[c] = min(best[c], value)
            assert int(words[code]).to_bytes(8, "little") == bytes(best)
            seen += 1
        assert seen == 3**8

    @pytest.mark.parametrize("n", range(9, 13))
    def test_counts_match_pointwise_search_at_sampled_inputs(self, n):
        # past the every-input cases below: random, constant and haf(2)'s
        # table on the lowest five variables or on the highest five, the
        # other variables irrelevant
        rng = np.random.default_rng([47, n])
        haf2 = haf(2).table().values
        tables = [rng.integers(0, 2, 1 << n, dtype=np.uint8), np.zeros(1 << n, np.uint8),
                  np.ones(1 << n, np.uint8), np.tile(haf2, 1 << (n - 5)),
                  np.repeat(haf2, 1 << (n - 5))]
        for values in tables:
            table = TruthTable(n, values)
            counts = measures._cert_counts(table)
            assert (counts.dtype, counts.shape) == (np.int8, (1 << n,))
            for x in rng.integers(0, 1 << n, 16).tolist() + [0, (1 << n) - 1]:
                assert counts[x] == certificate_complexity_at(table, x)[0]

    def test_importing_the_cli_builds_no_lookup(self):
        # the lookup is built by the first certificate count, not at import
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        probe = ("import sensilab.cli, sensilab.verify; from sensilab import measures; "
                 "print(measures._corner_lookup.cache_info().currsize)")
        out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": src}, timeout=300)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "0"

    @pytest.mark.parametrize("case", [
        *(f"random{n}" for n in range(1, 9)), "haf2", "address2", "maf3"])
    def test_counts_match_pointwise_search_at_every_input(self, case):
        # every input, not only the side maxima c0 and c1 report
        if case.startswith("random"):
            n = int(case[6:])
            rng = np.random.default_rng([43, n])
            tables = [TruthTable(n, (rng.random(1 << n) < p).astype(np.uint8))
                      for p in (0.0, 0.2, 0.5, 0.8, 1.0)]
        else:
            tables = [{"haf2": lambda: haf(2), "address2": lambda: address_fn(2),
                       "maf3": lambda: maf(3)}[case]().table()]
        for table in tables:
            counts = measures._cert_counts(table)
            assert (counts.dtype, counts.shape) == (np.int8, (len(table),))
            want = [certificate_complexity_at(table, x)[0] for x in range(len(table))]
            assert counts.tolist() == want

    @pytest.mark.parametrize("side", [c0, c1])
    def test_cap_applies_before_any_work(self, monkeypatch, side):
        # one byte under what the counts hold at n = 10 refuses before the
        # table is built or any pass runs; exactly that much runs
        t = TruthTable(10, np.random.default_rng(10).integers(0, 2, 1 << 10, dtype=np.uint8))
        fn, want = BooleanFunction.from_table(t), side(t)
        built, passes = [], []
        monkeypatch.setattr(BooleanFunction, "table",
                            lambda self, *a, real=BooleanFunction.table: built.append(a) or real(self, *a))
        monkeypatch.setattr(measures, "axis_blocks",
                            lambda *a, real=measures.axis_blocks: passes.append(a) or real(*a))
        need = measures._cert_bytes(10)
        monkeypatch.setattr(measures, "MEMORY_BUDGET", need - 1)
        with pytest.raises(CapExceeded, match=f"certificate counts needs over {need} bytes"):
            side(fn)
        assert built == [] and passes == []
        monkeypatch.setattr(measures, "MEMORY_BUDGET", need)
        assert side(fn) == want

    @pytest.mark.parametrize("n", range(4, 15))
    def test_peak_within_the_count(self, n):
        # the lookup's first build included
        t = TruthTable(n, np.random.default_rng([17, n]).integers(0, 2, 1 << n, dtype=np.uint8))
        measures._corner_lookup.cache_clear()
        tracemalloc.start()
        try:
            c0(t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= measures._cert_bytes(n)

    @pytest.mark.parametrize("n", [15, 16])
    def test_peak_within_the_terms_that_grow(self, n):
        # where the codes, rows and 2^n arrays dominate: with the lookup
        # built beforehand, the peak fits the count less the lookup's 2 MiB
        t = TruthTable(n, np.random.default_rng([17, n]).integers(0, 2, 1 << n, dtype=np.uint8))
        measures._corner_lookup()
        tracemalloc.start()
        try:
            c0(t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= measures._cert_bytes(n) - (2 << 20)

    def test_pinned_at_arity_17(self):
        t = TruthTable(17, np.random.default_rng(17).integers(0, 2, 1 << 17, dtype=np.uint8))
        assert (tuple(c0(t)), tuple(c1(t))) == ((16, 3508), (16, 5246))

    @pytest.mark.parametrize("side", [c0, c1])
    def test_refused_past_the_budget_by_its_bytes(self, side):
        # n = 20 counts 10 3^17 bytes and more, past the 512 MiB budget
        t = TruthTable(20, np.zeros(1 << 20, dtype=np.uint8))
        with pytest.raises(CapExceeded, match="certificate counts needs over 1296644510 bytes"):
            side(t)

    @pytest.mark.parametrize("n", range(1, 10))
    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_sides_match_pointwise_search(self, n, data):
        # constant tables included: p_one 0 or 1
        p_one = data.draw(st.sampled_from([0.0, 0.05, 0.3, 0.5, 0.95, 1.0]))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        table = TruthTable(n, (rng.random(1 << n) < p_one).astype(np.uint8))
        for b, side in ((0, c0), (1, c1)):
            xs = np.flatnonzero(table.values == b)
            at = [certificate_complexity_at(table, int(x))[0] for x in xs]
            want = max(at, default=0)
            got = side(table)
            assert got.value == want
            if len(xs):
                assert certificate_complexity_at(table, got.witness)[0] == want
            else:
                assert got.witness is None


def _colour_1_subcubes(table: TruthTable) -> tuple[np.ndarray, np.ndarray]:
    """(masks, values) of every subcube on which the table is all 1: for each
    mask of fixed variables, the AND over the free ones."""
    n = table.arity
    cube = table.values.reshape((2,) * n).astype(bool)  # axis k is variable n - k
    xs = np.arange(1 << n)
    masks, values = [], []
    for mask in range(1 << n):
        free = tuple(n - 1 - i for i in range(n) if not mask >> i & 1)
        ones = np.broadcast_to(cube.all(axis=free, keepdims=True), cube.shape).reshape(-1)
        hits = xs[ones & (xs & ~mask == 0)].tolist()
        masks += [mask] * len(hits)
        values += hits
    return np.array(masks, dtype=np.int64), np.array(values, dtype=np.int64)


def _uc1_by_candidates(fn, node_budget: int = 1_000_000) -> measures.Uc1Result:
    """Reference uc1: the depth-first exact cover over every colour-1 subcube
    of codimension at most c that the one-codimension decision replaced."""
    table = fn if isinstance(fn, TruthTable) else fn.table()
    n = table.arity
    ones = np.flatnonzero(table.values == 1)
    if len(ones) == 0:
        return measures.Uc1Result("exact", 0, 0, core.CertificateCollection(1, (), True), 0)
    full = (1 << len(ones)) - 1
    masks, values = _colour_1_subcubes(table)
    codims = np.bitwise_count(masks)
    order = np.lexsort((values, masks, codims))
    codims, masks, values = codims[order], masks[order], values[order]
    covers = (ones & masks[:, None]) == values[:, None]
    bitsets = [int.from_bytes(row.tobytes(), "little")
               for row in np.packbits(covers, axis=1, bitorder="little")]
    candidates = list(zip(codims.tolist(), masks.tolist(), values.tolist(), bitsets))
    per_one = [np.flatnonzero(hits).tolist() for hits in covers.T]
    start = int(codims[covers.argmax(axis=0)].max())
    nodes = 0

    def solve(c: int) -> list[int] | None:
        allowed = [[i for i in lst if candidates[i][0] <= c] for lst in per_one]
        chosen: list[int] = []

        def dfs(covered: int) -> bool:
            nonlocal nodes
            nodes += 1
            if nodes > node_budget:
                raise measures._Budget()
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
        except measures._Budget:
            return measures.Uc1Result("exhausted", None, c, None, nodes)
        if picked is not None:
            members = tuple(
                PartialAssignment(n, candidates[i][1], candidates[i][2]) for i in picked
            )
            witness = core.CertificateCollection(1, members, unambiguous=True)
            return measures.Uc1Result("exact", c, c, witness, nodes)
    raise AssertionError("covering by full assignments always succeeds")


def _check_uc1(table: TruthTable, node_budget: int) -> None:
    """uc1 agrees with the reference wherever the reference finishes, is exact
    wherever it is, and every exact witness is a partition at the value."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(measures, "UC_NODE_BUDGET", node_budget)
        got = uc1(table)
    want = _uc1_by_candidates(table, node_budget=node_budget)
    if want.status == "exact":
        assert got.status == "exact"
        assert got.value == want.value
    if got.status == "exact":
        assert got.witness.validation_error(BooleanFunction.from_table(table)) is None
        assert got.witness.max_codim() == got.value
        assert all(m.codim == got.value for m in got.witness.certificates)
    else:
        assert got.value is None and got.witness is None


class TestUc1:
    def test_or2_needs_two(self, or2):
        res = uc1(or2)
        assert res.status == "exact"
        assert res.value == 2
        assert res.witness.validation_error(or2) is None
        assert res.witness.unambiguous

    def test_and2_single_point(self, and2):
        res = uc1(and2)
        assert res.value == 2
        assert len(res.witness.certificates) == 1

    def test_constant_one(self):
        res = uc1(table_fn([1, 1, 1, 1]))
        assert res.value == 0
        assert len(res.witness.certificates) == 1

    def test_constant_zero_has_no_ones(self):
        res = uc1(table_fn([0, 0, 0, 0]))
        assert res.status == "exact"
        assert res.value == 0
        assert len(res.witness.certificates) == 0

    def test_budget_exhaustion(self, monkeypatch):
        # maf(3) needs 12 nodes below codimension n-1, starting at its degree 4
        f = maf(3)
        for budget in (1, 11):
            monkeypatch.setattr(measures, "UC_NODE_BUDGET", budget)
            res = uc1(f)
            assert res.status == "exhausted"
            assert res.value is None
            assert res.lower_bound == 4
            assert res.nodes == budget + 1
        monkeypatch.setattr(measures, "UC_NODE_BUDGET", 12)
        assert uc1(f).status == "exact"

    def test_haf2(self):
        res = uc1(haf(2))
        assert res.status == "exact"
        assert res.value == 4

    def test_never_below_c1(self):
        rng = np.random.default_rng(11)
        for _ in range(15):
            f = table_fn(rng.integers(0, 2, size=16).tolist())
            if f.table().ones_count() == 0:
                continue
            res = uc1(f)
            assert res.status == "exact"
            assert res.value >= c1(f).value

    def test_arity_cap(self):
        with pytest.raises(CapExceeded, match="exact cover"):
            uc1(haf(3))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_never_below_the_degree(self, data):
        # a partition into colour-1 subcubes of codimension c writes f as a
        # sum of products of c literals, so uc1 >= deg; the search starts there
        table = data.draw(random_tables(data.draw(st.integers(1, 8))))
        res = uc1(table)
        assert res.status == "exact"
        assert res.value >= degree(table)

    # status, value, lower bound, nodes and witness (mask, value) pairs, or
    # "ones" for each 1-input as a full assignment; equal node counts mean the
    # search tries each input's cubes in ascending mask order
    PINNED = {
        "haf(2)": ("exact", 4, 4, 0, [(15, 8), (23, 23)]),
        "maf(3)": ("exact", 4, 4, 12,
                   [(15, 3), (15, 5), (15, 6), (15, 7), (15, 9), (15, 11), (15, 13),
                    (15, 14), (15, 15), (23, 18), (39, 36)]),
        "address(2)": ("exact", 3, 3, 5, [(7, 4), (11, 9), (19, 18), (35, 35)]),
        # backtracks: 4's first cube, {4, 6, 12, 14}, leaves 5 none of
        # codimension 2, so the search takes {4, 5, 6, 7}, then {8, 10, 12, 14}
        "55f0": ("exact", 2, 2, 4, [(12, 4), (9, 8)]),
        5: ("exact", 5, 5, 0, "ones"),
        6: ("exact", 6, 6, 0, "ones"),
        7: ("exact", 7, 7, 0, "ones"),
        8: ("exact", 8, 8, 0, "ones"),
    }

    @pytest.mark.parametrize("key", list(PINNED))
    def test_pinned_search(self, key):
        if isinstance(key, int):
            rng = np.random.default_rng([0, key])
            fn = TruthTable(key, rng.integers(0, 2, 1 << key, dtype=np.uint8))
        else:
            fn = {"haf(2)": haf(2), "maf(3)": maf(3), "address(2)": address_fn(2),
                  "55f0": TruthTable.from_hex(4, "55f0")}[key]
        res = uc1(fn)
        table = fn if isinstance(fn, TruthTable) else fn.table()
        members = [(m.mask, m.value) for m in res.witness.certificates]
        if members == [((1 << fn.arity) - 1, x) for x in np.flatnonzero(table.values).tolist()]:
            members = "ones"
        got = (res.status, res.value, res.lower_bound, res.nodes, members)
        assert got == self.PINNED[key]

    @pytest.mark.parametrize("fn", [
        haf(2), maf(3), address_fn(2), BooleanFunction.from_table(TruthTable.from_hex(4, "55f0")),
    ], ids=["haf2", "maf3", "address2", "55f0"])
    def test_named_functions_match_the_reference(self, fn):
        _check_uc1(fn.table(), 1_000_000)

    def test_every_table_at_n3_matches_the_reference(self):
        for bits in range(256):
            values = (bits >> np.arange(8) & 1).astype(np.uint8)
            _check_uc1(TruthTable(3, values), 1_000_000)

    @pytest.mark.parametrize("n", range(1, 7))
    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_random_tables_match_the_reference(self, n, data):
        p_one = data.draw(st.sampled_from([0.3, 0.5, 0.7, 0.85, 1.0]))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        _check_uc1(TruthTable(n, (rng.random(1 << n) < p_one).astype(np.uint8)), 20_000)

    # each n=1 table as (table, value, members); a constant 1 is one codim-0 cube
    N1 = [([0, 0], 0, []), ([1, 1], 0, [(0, 0)]), ([0, 1], 1, [(1, 1)]), ([1, 0], 1, [(1, 0)])]

    @pytest.mark.parametrize("bits,value,members", N1)
    def test_one_variable(self, bits, value, members):
        res = uc1(table_fn(bits))
        assert (res.status, res.value, res.nodes) == ("exact", value, 0)
        assert [(m.mask, m.value) for m in res.witness.certificates] == members

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("bit", [0, 1])
    def test_constants(self, n, bit):
        res = uc1(TruthTable(n, np.full(1 << n, bit, dtype=np.uint8)))
        assert (res.status, res.value, res.lower_bound) == ("exact", 0, 0)
        assert [(m.mask, m.value) for m in res.witness.certificates] == [(0, 0)] * bit


def _balanced_values(n: int, p_one: float, seed) -> np.ndarray:
    """A random table's values with its surplus of even- or odd-weight
    1-inputs set to 0, so both sides of the cube-edge matching are equal."""
    rng = np.random.default_rng(seed)
    values = (rng.random(1 << n) < p_one).astype(np.uint8)
    is_odd = np.bitwise_count(np.arange(1 << n)) & 1 == 1
    even = np.flatnonzero((values == 1) & ~is_odd)
    odd = np.flatnonzero((values == 1) & is_odd)
    surplus = len(even) - len(odd)
    values[rng.choice(even if surplus > 0 else odd, abs(surplus), replace=False)] = 0
    return values


def _scipy_has_perfect_matching(values: np.ndarray, n: int) -> bool:
    """scipy's maximum_bipartite_matching on the cube edges between the even-
    and odd-weight 1-inputs covers them all: the reference verdict."""
    from scipy.sparse.csgraph import maximum_bipartite_matching

    ones = np.flatnonzero(values)
    is_odd = np.bitwise_count(ones) & 1 == 1
    even, odd = ones[~is_odd], ones[is_odd]
    nbr = even[:, None] ^ (1 << np.arange(n))
    r, i = np.nonzero(values[nbr])
    edges = sp.csr_array((np.ones(len(r)), (r, np.searchsorted(odd, nbr[r, i]))),
                         shape=(len(even), len(odd)))
    return bool((maximum_bipartite_matching(edges, perm_type="column") >= 0).all())


def _check_cube_edge_pairs(values: np.ndarray, n: int, pairs: list[tuple[int, int]]) -> None:
    """pairs is sorted, each (least input, one-bit direction), and its edges
    cover every 1-input exactly once and no 0-input."""
    assert pairs == sorted(pairs)
    x, d = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    assert (np.bitwise_count(d) == 1).all()
    assert not (x & d).any()
    assert (np.bincount(np.concatenate([x, x | d]), minlength=1 << n) == values).all()


class TestCubeEdgeMatching:
    """uc1's perfect matching at codimension n-1, against scipy's matching."""

    @pytest.mark.parametrize("n", range(2, 15))
    def test_agrees_with_scipy(self, n):
        for p_one in (0.3, 0.5, 0.7, 0.9):
            for k in range(4 if n <= 10 else 1):
                values = _balanced_values(n, p_one, [32, n, int(100 * p_one), k])
                pairs = measures._cube_edge_matching(values, n, np.flatnonzero(values))
                assert (pairs is not None) == _scipy_has_perfect_matching(values, n)
                if pairs is not None:
                    _check_cube_edge_pairs(values, n, pairs)

    def test_arity_15_runs_without_recursion(self):
        # its augmenting paths run thousands of inputs deep, past Python's
        # default recursion limit of 1000
        values = _balanced_values(15, 0.9, [32, 15])
        pairs = measures._cube_edge_matching(values, 15, np.flatnonzero(values))
        assert pairs is not None
        _check_cube_edge_pairs(values, 15, pairs)

    @pytest.mark.parametrize("n,ones", [(3, [0b000, 0b111]), (2, [0b11]), (3, [0b001, 0b010])],
                             ids=["no-edge", "one-side", "two-odd"])
    def test_no_perfect_matching(self, n, ones):
        values = np.zeros(1 << n, dtype=np.uint8)
        values[ones] = 1
        assert measures._cube_edge_matching(values, n, np.flatnonzero(values)) is None

    def test_greedy_miss_is_augmented(self):
        # the greedy pass gives 000 its first neighbour 001 and leaves 101,
        # whose only neighbour is 001, so the search must move 000 to 010
        values = np.zeros(8, dtype=np.uint8)
        values[[0b000, 0b001, 0b010, 0b101]] = 1
        pairs = measures._cube_edge_matching(values, 3, np.flatnonzero(values))
        assert pairs == [(0b000, 0b010), (0b001, 0b100)]


class TestDegree:
    def test_parity_is_full_degree(self, parity3):
        assert degree(parity3) == 3

    def test_and_or_full_degree(self, and2, or2):
        assert degree(and2) == 2
        assert degree(or2) == 2

    def test_constant_zero_degree(self):
        assert degree(table_fn([1, 1, 1, 1])) == 0
        assert degree(table_fn([0, 0, 0, 0])) == 0

    def test_dictator(self):
        assert degree(table_fn([0, 1, 0, 1])) == 1

    def test_mobius_reconstructs_table(self):
        rng = np.random.default_rng(3)
        bits = rng.integers(0, 2, size=32).tolist()
        f = table_fn(bits)
        coeffs = mobius_coefficients(f)
        for x in range(32):
            total = sum(
                int(coeffs[m]) for m in range(32) if (m & x) == m
            )
            # exact integer reconstruction, not just mod-2 agreement
            assert total == bits[x]

    @pytest.mark.parametrize("n", range(1, 13))
    def test_mobius_int32_matches_int64_reference(self, n):
        rng = np.random.default_rng(100 + n)
        table = TruthTable(n, rng.integers(0, 2, size=1 << n).astype(np.uint8))
        # one axis at a time: the coefficient block with a variable is the
        # difference of the table with it set and with it clear
        ref = table.values.astype(np.int64).reshape((2,) * n)
        for axis in range(n):
            lo, hi = np.split(ref, 2, axis=axis)
            ref = np.concatenate([lo, hi - lo], axis=axis)
        coeffs = mobius_coefficients(table)
        assert coeffs.dtype == np.int32
        assert np.array_equal(coeffs, ref.reshape(-1))

    def test_haf3_degree(self):
        assert degree(haf(3)) == 8

    def test_maf_degree_at_least_k(self):
        for k in (2, 3, 4):
            assert degree(maf(k)) >= k


def test_table_kernels_are_pinned():
    # the per-axis passes' outputs bit for bit, whichever way axis_view
    # orients each pass: dtype, read-only flag and sha256 of the bytes
    def digest(a):
        return hashlib.sha256(a.tobytes()).hexdigest()

    table = haf(3).table()
    counts = table.sensitivity_counts
    assert counts.dtype == np.uint8 and not counts.flags.writeable
    assert digest(counts) == (
        "74e6f44ee36a9d4d33d07999b81be78b15fd9db2be0848fe72d74bea2e6cdbeb")
    coeffs = mobius_coefficients(table)
    assert coeffs.dtype == np.int32
    assert digest(coeffs) == (
        "e369f05ee741e6f699663c71d49187b535b060e88ffed44dfb6ab418de73d803")
    cert = measures._cert_counts(tradeoff([2], [2]).table())
    assert cert.dtype == np.int8
    assert digest(cert) == (
        "ba0aa487128ca24946e6aeb340b1cd6108f5663da67c8bd849e7f356d179d6c8")


def reference_scan(values: np.ndarray, n: int) -> np.ndarray:
    """Per-input sensitivity, one direction at a time on int64 entries."""
    v = values.astype(np.int64)
    counts = np.zeros_like(v)
    for i in range(n):
        pair, cnt = v.reshape(-1, 2, 1 << i), counts.reshape(-1, 2, 1 << i)
        diff = pair[:, 0] ^ pair[:, 1]
        cnt[:, 0] += diff
        cnt[:, 1] += diff
    return counts


def reference_mobius(values: np.ndarray, n: int) -> np.ndarray:
    """Moebius coefficients, one direction at a time on int64 entries."""
    coeffs = values.astype(np.int64)
    for i in range(n):
        pair = coeffs.reshape(-1, 2, 1 << i)
        pair[:, 1] -= pair[:, 0]
    return coeffs


def check_table_kernels(table: TruthTable) -> None:
    """The scan, mobius_coefficients (dtype included) and degree of table
    equal the plain int64 references, which use no lookup table, no words
    and no blocks."""
    n = table.arity
    counts = core._sensitivity_scan(table.values, n)
    assert counts.dtype == np.uint8 and not counts.flags.writeable
    assert np.array_equal(counts, reference_scan(table.values, n))
    del counts
    want = reference_mobius(table.values, n)
    got = mobius_coefficients(table)
    assert got.dtype == (np.int32 if n <= 31 else np.int64)
    assert np.array_equal(got, want)
    del got
    nz = np.flatnonzero(want)
    assert degree(table) == (int(np.bitwise_count(nz).max()) if len(nz) else 0)


def parity_and_constants(n: int) -> dict[str, TruthTable]:
    """Parity, whose coefficient of S is +-2^(|S|-1) and so reaches the int8
    and int16 bounds after 7 and 15 passes, its complement and both
    constants."""
    parity = make_parity(n).table().values
    return {"parity": TruthTable(n, parity), "complement": TruthTable(n, 1 - parity),
            "zero": TruthTable(n, np.zeros(1 << n, np.uint8)),
            "one": TruthTable(n, np.ones(1 << n, np.uint8))}


class TestKernelsAgainstReference:
    """The lookup-table scan, Moebius in narrow integers and the streamed
    degree against one int64 pass per direction."""

    @pytest.mark.parametrize("n", range(1, 17))
    def test_random_tables(self, n):
        rng = np.random.default_rng([35, n])
        for p in (0.1, 0.5, 0.9):
            check_table_kernels(TruthTable(n, (rng.random(1 << n) < p).astype(np.uint8)))

    @pytest.mark.parametrize("n", range(1, 23))
    def test_parity_and_constants(self, n):
        for table in parity_and_constants(n).values():
            check_table_kernels(table)

    @pytest.mark.parametrize("n", [4, 11, 16])
    def test_values_at_an_odd_address(self, n):
        # the scan reads the table through a uint64 view, unaligned here
        buf = np.empty((1 << n) + 1, dtype=np.uint8)
        values = buf[1:]
        values[:] = np.random.default_rng([35, n, 1]).integers(0, 2, 1 << n)
        table = TruthTable(n, values)
        assert table.values.ctypes.data % 2 == 1
        check_table_kernels(table)

    @pytest.mark.parametrize("n, m", [(16, 5), (17, 5), (18, 5), (20, 10)])
    def test_wide_passes_in_small_blocks(self, monkeypatch, n, m):
        # blocks of 2^m int32 entries (2^(n-12) at n = 18): the whole-table
        # passes take directions from m up, and each block runs the rest,
        # 3 .. m-1, its highest on int16 in place and the others (all of
        # them at n = 17 and 18) moved up and run on int32; at n = 20 each
        # phase takes several
        monkeypatch.setattr(core, "_BLOCK_BYTES", 4 << m)
        check_table_kernels(parity_and_constants(n)["parity"])
        rng = np.random.default_rng([35, n, 2])
        check_table_kernels(TruthTable(n, rng.integers(0, 2, 1 << n, dtype=np.uint8)))

    def test_degree_holds_no_coefficient_array(self):
        # a block of int32 coefficients at a time, beside the int16 table:
        # the 2^20 int32 coefficients alone would take 4 bytes per entry
        table = TruthTable(20, np.random.default_rng(35).integers(0, 2, 1 << 20, dtype=np.uint8))
        deg, peak = TestMemoryBudget.traced(lambda: degree(table))
        assert deg == 20
        assert peak < 4 * len(table)


def slab_spy(monkeypatch) -> list[bool]:
    """Whether each step axis_blocks yields, from core and measures, hands
    over slabs, recorded as the steps are taken."""
    seen = []
    for mod in (core, measures):
        def spy(*args, real=mod.axis_blocks, **kwargs):
            for step in real(*args, **kwargs):
                seen.append(step[1][0].ndim == 3)
                yield step
        monkeypatch.setattr(mod, "axis_blocks", spy)
    return seen


# every per-axis kernel on axis_blocks: its radix, the bytes per entry of the
# arrays it hands the driver (the census's first round, the larger), and a
# run. The scan hands it uint64 words, 8 table entries each, of three arrays;
# Moebius's blocks are of int32 entries, the certificate OR pass's of uint16
# codes, one per 8-entry group.
BLOCKED_KERNELS = {
    "scan": (2, 24, lambda t: core._sensitivity_scan(t.values, t.arity)),
    "mobius": (2, 4, mobius_coefficients),
    "nondegenerate": (2, 1, lambda t: BooleanFunction.from_table(t).is_nondegenerate()),
    "census": (2, 7, measures._census_from_table),
    "cert_counts": (3, 2, measures._cert_counts),
}


def blocked_and_whole(kernel: str, table: TruthTable, b: int):
    """kernel's result with blocks of radix**b entries, and in one block."""
    radix, per_entry, run = BLOCKED_KERNELS[kernel]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "_BLOCK_BYTES", per_entry * radix**b)
        blocked = run(table)
        mp.setattr(core, "_BLOCK_BYTES", 1 << 62)
        whole = run(table)
    return blocked, whole


def assert_identical(got, want) -> None:
    if isinstance(want, np.ndarray):
        assert (got.dtype, got.shape, got.flags.writeable) == (
            want.dtype, want.shape, want.flags.writeable)
        assert np.array_equal(got, want)
    else:
        assert got == want


class TestBlockedPasses:
    """Each kernel gives the same result whether axis_blocks runs its low
    directions block by block or every direction over the whole table."""

    @pytest.mark.parametrize("b", [1, 2, 3])
    def test_steps_cover_each_direction_once_per_block(self, monkeypatch, b):
        a = np.zeros(3**6, dtype=np.int8)
        monkeypatch.setattr(core, "_BLOCK_BYTES", 2 * 3**b)
        steps = list(core.axis_blocks(3, 6, a, a))
        assert len(steps) == 3 ** (6 - b) * 6
        for k in range(3 ** (6 - b)):
            for i in range(b):
                j, (x, y) = steps[k * b + i]
                assert j == i and len(x) == len(y) == 3**b
                assert np.shares_memory(x, a[k * 3**b:(k + 1) * 3**b])
        # each direction from b on: the (outer, 3, run) layout in slabs of
        # 3^(b-1) entries per digit value, outer by outer, in run order
        slabs = iter(steps[3 ** (6 - b) * b:])
        for j in range(b, 6):
            view = a.reshape(-1, 3, 3**j)
            for outer in range(3 ** (5 - j)):
                for lo in range(0, 3**j, 3 ** (b - 1)):
                    want = view[outer:outer + 1, :, lo:lo + 3 ** (b - 1)]
                    i, (x, y) = next(slabs)
                    assert i == j
                    for got in (x, y):
                        assert (got.shape, got.strides) == (want.shape, want.strides)
                        assert got.ctypes.data == want.ctypes.data
                        assert core.axis_view(got, 3, i) is got

    @pytest.mark.parametrize("block", [3**6, 3**3])
    def test_scratch_is_one_buffer_shaped_as_each_piece(self, monkeypatch, block):
        # scratch is made once: the whole arrays' length when they fit, one
        # block past it, viewed in each slab's shape
        a = np.zeros(3**6, dtype=np.int8)
        monkeypatch.setattr(core, "_BLOCK_BYTES", 2 * block)
        steps = list(core.axis_blocks(3, 6, a, scratch=1))
        base = steps[0][1][1]
        assert len(base) == block
        for _, (x, s) in steps:
            assert s.shape == x.shape and s.flags.c_contiguous
            assert np.shares_memory(s, base)

    def test_one_block_is_the_arrays_as_given(self):
        a, b = np.zeros(1 << 10, dtype=np.int32), np.zeros(1 << 10, dtype=np.int32)
        steps = list(core.axis_blocks(2, 10, a, b))
        assert [i for i, _ in steps] == list(range(10))
        assert all(x is a and y is b for _, (x, y) in steps)

    @pytest.mark.parametrize("kernel", ["scan", "mobius", "nondegenerate", "census"])
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_radix_2_kernels(self, kernel, data):
        n = data.draw(st.sampled_from(range(1, 15)))
        if kernel == "census" and data.draw(st.booleans()):
            table = data.draw(star_tables())
        else:
            table = data.draw(random_tables(n))
        assert_identical(*blocked_and_whole(kernel, table, data.draw(st.integers(1, 3))))

    @pytest.mark.parametrize("kernel, make, b", [
        ("scan", lambda: TruthTable(12, np.random.default_rng(40).integers(0, 2, 1 << 12)), 3),
        ("census", lambda: planted_forest(11, 6, 3, 0x2F5), 5),
        ("census", lambda: planted_forest(12, 2, 5, 0x2F5), 6),
        ("cert_counts", lambda: TruthTable(8, np.random.default_rng(40).integers(0, 2, 1 << 8)), 4),
    ], ids=["scan", "census11", "census12", "cert_counts"])
    def test_slabs_match_one_block(self, monkeypatch, kernel, make, b):
        # with blocks of radix^b entries, the directions from b on run in
        # slabs, and the results equal one block's
        table = make()
        table.sensitivity_counts  # so that only the kernel's own steps are seen
        seen = slab_spy(monkeypatch)
        blocked, whole = blocked_and_whole(kernel, table, b)
        assert any(seen)
        assert_identical(blocked, whole)
        if kernel == "census":
            assert blocked is not None

    # a table of arity 13 gives the certificate OR pass 3^10 = 59 049 codes,
    # more entries than the radix-2 kernels get at 14; past it, blocks of 3
    # entries come by the million and an example takes seconds
    @pytest.mark.parametrize("kernel", ["cert_counts"])
    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_radix_3_kernels(self, kernel, data):
        table = data.draw(random_tables(data.draw(st.sampled_from(range(1, 14)))))
        assert_identical(*blocked_and_whole(kernel, table, data.draw(st.integers(1, 3))))

    @pytest.mark.parametrize("b", [1, 2, 3])
    def test_census_rounds_on_a_construction(self, b):
        # tradeoff(2;2)'s two-layer stars take the census through both rounds
        blocked, whole = blocked_and_whole("census", tradeoff([2], [2]).table(), b)
        assert blocked == whole == {("star", 3): 768, ("two-layer-star", 4, 4): 256}


class TestSensitivityGraph:
    @pytest.mark.parametrize("n", range(1, 11))
    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_adjacency_blocks_from_vertex_lists(self, n, data):
        table = data.draw(random_tables(n))
        ref, graph = dense_reference_adjacency(table), SensitivityGraph(table)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        # any inputs, repeats and both values included, in one list
        k, m, big = (data.draw(st.integers(lo, hi)) for lo, hi in ((1, 4), (0, 12), (0, 12)))
        rows, cols = rng.integers(0, 1 << n, (k, m)), rng.integers(0, 1 << n, (k, big))
        block = graph.adjacency(rows[0], cols[0])
        assert block.dtype == np.float64
        assert np.array_equal(block, ref[np.ix_(rows[0], cols[0])])
        batch = graph.adjacency(rows, cols)
        assert batch.shape == (k, m, big)
        for i in range(k):
            assert np.array_equal(batch[i], ref[np.ix_(rows[i], cols[i])])
        # every input against every other, in a shuffled order
        xs = rng.permutation(1 << n)
        assert np.array_equal(graph.adjacency(xs, xs), ref[np.ix_(xs, xs)])
        # the exact solve's blocks: a side of each value, in input order
        zeros, ones = (np.flatnonzero(table.values == v) for v in (0, 1))
        assert np.array_equal(graph.adjacency(zeros, ones), ref[np.ix_(zeros, ones)])

    def test_adjacency_takes_both_lists_or_neither(self, and2):
        graph = SensitivityGraph(and2)
        with pytest.raises(ValueError, match="both rows and cols"):
            graph.adjacency(np.arange(4))
        assert graph.adjacency().shape == (4, 4)

    def test_and2_edges(self, and2):
        g = SensitivityGraph(and2)
        assert g.edge_count() == 2
        assert g.edges().tolist() == [[0b01, 0b11], [0b10, 0b11]]

    def test_degrees_match_sensitivities(self, parity3):
        g = SensitivityGraph(parity3)
        counts = g.degree_counts()
        assert all(
            counts[x] == sensitivity_at(parity3, x) for x in range(8)
        )

    @pytest.mark.parametrize("n", [12, 16])
    def test_edges_peak_at_24_bytes_per_edge(self, n):
        # the sorted key and the result take 24 bytes per edge; the last
        # chunk's mask adds a byte per neighbour of its inputs, and every
        # neighbour of a parity input is an edge
        graph = SensitivityGraph(make_parity(n))
        graph.table.sensitivity_counts
        graph._side
        e, peak = TestMemoryBudget.traced(graph.edges)
        assert len(e) == graph.edge_count() == n << (n - 1)
        assert peak <= 25 * len(e) + 4096

    @pytest.mark.parametrize("n, p", [(16, 0.5), (12, 0.05)])
    def test_edges_peak_within_the_bytes_checked(self, monkeypatch, n, p):
        table = TruthTable(n, (np.random.default_rng(n).random(1 << n) < p).astype(np.uint8))
        graph = SensitivityGraph(table)
        table.sensitivity_counts
        checked, check = [], measures._check_budget
        monkeypatch.setattr(measures, "_check_budget",
                            lambda nbytes, what: checked.append(nbytes) or check(nbytes, what))
        e, peak = TestMemoryBudget.traced(graph.edges)
        assert len(e) == graph.edge_count() and len(checked) == 1
        assert peak <= checked[0]
        # and it refuses one byte short of what it counts
        monkeypatch.setattr(measures, "MEMORY_BUDGET", checked[0] - 1)
        with pytest.raises(CapExceeded, match="edge list needs over"):
            graph.edges()
        monkeypatch.setattr(measures, "MEMORY_BUDGET", checked[0])
        assert np.array_equal(graph.edges(), e)

    @pytest.mark.parametrize("name", ["parity", "random"])
    def test_edges_count_their_largest_phase(self, monkeypatch, name):
        # the gather (4 bytes per edge, its chunk, S's row pointers) and the
        # sorted keys with the result (24 per edge) never coexist: under a
        # budget of the larger, beside S's inputs and degrees and numpy's
        # buffers, the edges come out within it, where the sum of the phases
        # is over it
        n = 16
        table = (make_parity(n).table() if name == "parity" else
                 TruthTable(n, (np.random.default_rng(n).random(1 << n) < 0.5).astype(np.uint8)))
        graph = SensitivityGraph(table)
        want = graph.edges()
        edges, side = len(want), len(graph._side)
        gather = 4 * edges + 10 * min(measures._GATHER, n * side) + 4 * (side + 1)
        budget = 9 * side + max(24 * edges, gather) + measures._NUMPY_BYTES
        assert budget < 20 * edges + gather
        monkeypatch.setattr(measures, "MEMORY_BUDGET", budget)
        got, peak = TestMemoryBudget.traced(graph.edges)
        assert np.array_equal(got, want)
        assert peak <= budget

    @pytest.mark.parametrize("name", ["parity", "random"])
    def test_edges_hold_the_result_and_a_chunk(self, monkeypatch, name):
        # the keys are made and sorted in the result's own memory and the rows
        # written from them a chunk at a time, so beside the result's 16 bytes
        # per edge only a chunk, S's row pointers and their degrees are held:
        # a budget of 21 bytes per edge passes, where holding the sorted keys
        # whole beside the result took 24 and its check counted as much
        n = 16
        table = (make_parity(n).table() if name == "parity" else
                 TruthTable(n, (np.random.default_rng(n).random(1 << n) < 0.5).astype(np.uint8)))
        graph = SensitivityGraph(table)
        want = graph.edges()
        edges, side = len(want), len(graph._side)
        budget = 21 * edges
        assert 9 * side + 24 * edges > budget
        monkeypatch.setattr(measures, "MEMORY_BUDGET", budget)
        got, peak = TestMemoryBudget.traced(graph.edges)
        assert np.array_equal(got, want)
        assert peak <= 16 * edges + 10 * measures._EDGE_CHUNK + 9 * side + measures._NUMPY_BYTES
        assert peak < 20 * edges

    @pytest.mark.parametrize("n", range(1, 11))
    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_edges_at_inputs(self, n, data):
        table = data.draw(random_tables(n))
        graph = SensitivityGraph(table)
        every = graph.edges()
        assert np.array_equal(graph.edges(np.arange(1 << n)), every)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        xs = rng.permutation(1 << n)[:data.draw(st.integers(0, 1 << n))]
        dtype = data.draw(st.sampled_from([np.int32, np.int64]))
        # each edge's end in S, the smaller side (the 0-side on a tie)
        in_s = table.values[every] == int(2 * table.ones_count() < len(table))
        want = every[np.isin(every[in_s], xs)]
        assert np.array_equal(graph.edges(xs.astype(dtype)), want)

    def test_edge_count_formula(self):
        f = haf(2)
        g = SensitivityGraph(f)
        total = sum(sensitivity_at(f, x) for x in range(32))
        assert g.edge_count() == total // 2

    def test_components_or2(self, or2):
        g = SensitivityGraph(or2)
        comps = g.components()
        assert len(comps) == 1
        assert comps[0].vertices.tolist() == [0b00, 0b01, 0b10]

    def test_components_parity(self, parity3):
        comps = SensitivityGraph(parity3).components()
        assert len(comps) == 1
        assert len(comps[0].vertices) == 8
        assert len(comps[0].edges) == 12

    def test_isolated_vertices_excluded(self, and2):
        comps = SensitivityGraph(and2).components()
        assert len(comps) == 1
        assert 0b00 not in comps[0].vertices

    @pytest.mark.parametrize("n", range(1, 11))
    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_components_match_a_breadth_first_labelling(self, n, data):
        # the component index sorts by scipy's labels; this pins that the
        # components come out ordered by smallest vertex, whatever scipy does
        table = data.draw(random_tables(n))
        edges = np.argwhere(np.triu(dense_reference_adjacency(table)))
        got = [
            (c.vertices.tolist(), c.edges.tolist())
            for c in SensitivityGraph(table).components()
        ]
        assert got == bfs_components(len(table), edges)


def bfs_components(size: int, edges: np.ndarray) -> list[tuple[list, list]]:
    """Reference components of the graph on range(size) with these edges: a
    breadth-first labelling of every vertex, started from each unlabelled
    vertex in increasing order, so numbered by smallest vertex. Each is its
    sorted vertices and its sorted [x, y] edges with x < y; isolated
    vertices are left out."""
    nbrs: list[list[int]] = [[] for _ in range(size)]
    for x, y in edges.tolist():
        nbrs[x].append(y)
        nbrs[y].append(x)
    label = [-1] * size
    comps: list[list[int]] = []
    for start in range(size):
        if label[start] >= 0 or not nbrs[start]:
            continue
        label[start] = len(comps)
        queue = [start]
        for v in queue:
            for u in nbrs[v]:
                if label[u] < 0:
                    label[u] = len(comps)
                    queue.append(u)
        comps.append(sorted(queue))
    comp_edges: list[list[list[int]]] = [[] for _ in comps]
    for x, y in sorted((min(x, y), max(x, y)) for x, y in edges.tolist()):
        comp_edges[label[x]].append([x, y])
    return list(zip(comps, comp_edges))


def _component_of(adj: np.ndarray) -> Component:
    return Component(np.arange(adj.shape[0]), np.argwhere(np.triu(adj)))


def _classify_by_walk(comp: Component) -> tuple[str, tuple[int, ...]]:
    """Reference classifier: the per-vertex walk the vectorized rule
    replaced. It tries every vertex as the center of a two-layer star."""
    verts = [int(v) for v in comp.vertices]
    nbrs: dict[int, list[int]] = {v: [] for v in verts}
    for x, y in comp.edges.tolist():
        nbrs[x].append(y)
        nbrs[y].append(x)
    deg = {v: len(nb) for v, nb in nbrs.items()}
    degs = sorted(deg.values())
    if len(verts) >= 2 and degs[-1] == len(verts) - 1 and all(d == 1 for d in degs[:-1]):
        return "star", (len(verts) - 1,)
    for center in verts:
        layer = set(nbrs[center])
        bset = {deg[u] for u in layer}
        if not layer or len(bset) != 1 or min(bset) < 2:
            continue
        b = min(bset)
        rest = [v for v in verts if v != center and v not in layer]
        if len(rest) == len(layer) * (b - 1) and all(
            deg[v] == 1 and nbrs[v][0] in layer for v in rest
        ):
            return "two-layer-star", (len(layer), b)
    return "other", ()


def _tally(comps, classify=classify_component) -> dict:
    shapes: dict = {}
    for comp in comps:
        kind, params = classify(comp)
        shapes[(kind,) + params] = shapes.get((kind,) + params, 0) + 1
    return shapes


class TestClassify:
    def test_star(self, or2):
        comp = SensitivityGraph(or2).components()[0]
        assert classify_component(comp) == ("star", (2,))

    def test_two_layer_star(self):
        comp = _component_of(two_layer_star_adjacency(3, 4))
        assert classify_component(comp) == ("two-layer-star", (3, 4))

    @pytest.mark.parametrize("a", range(1, 7))
    @pytest.mark.parametrize("b", range(1, 7))
    def test_two_layer_star_adjacency(self, a, b):
        comp = _component_of(two_layer_star_adjacency(a, b))
        if b == 1:
            want = ("star", (a,))
        elif a == 1:
            want = ("star", (b,))
        else:
            want = ("two-layer-star", (a, b))
        assert classify_component(comp) == _classify_by_walk(comp) == want

    def test_two_layer_degrees_are_not_enough(self):
        # c=0, m1=1, m2=2: a leaf on c, one on m1, two on m2, so the degree
        # sequence of the (2, 3) two-layer star
        comp = Component(
            np.arange(7), np.array([(0, 1), (1, 2), (0, 3), (1, 4), (2, 5), (2, 6)])
        )
        assert sorted(np.bincount(comp.edges.ravel())) == sorted(
            two_layer_star_adjacency(2, 3).sum(axis=0).astype(int)
        )
        assert classify_component(comp) == _classify_by_walk(comp) == ("other", ())

    @pytest.mark.parametrize("a, b", [(2, 2), (2, 3), (3, 2), (4, 3)])
    @pytest.mark.parametrize("at", ["center", "middle", "leaf"])
    def test_extra_leaf_breaks_a_two_layer_star(self, a, b, at):
        adj = two_layer_star_adjacency(a, b)
        k = adj.shape[0]
        host = {"center": 0, "middle": 1, "leaf": k - 1}[at]
        comp = Component(np.arange(k + 1), np.vstack([np.argwhere(np.triu(adj)), [(host, k)]]))
        assert classify_component(comp) == _classify_by_walk(comp) == ("other", ())

    def test_internal_vertex_off_the_middle_layer_is_other(self):
        # center 0 with middles 1, 2, 3 of degree 3; vertex 4, of degree 2,
        # hangs off middle 1: the middle degrees 3, 3, 3, 2 average to 3
        # over the center's 3 neighbors
        edges = [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5), (4, 6)]
        edges += [(2, 7), (2, 8), (3, 9), (3, 10)]
        comp = Component(np.arange(11), np.array(edges))
        assert classify_component(comp) == _classify_by_walk(comp) == ("other", ())

    @pytest.mark.parametrize(
        "edges",
        [[(0, 1), (1, 2), (0, 2)], [(0, 1), (1, 2), (0, 2), (3, 4)], [(0, 1), (2, 3)]],
        ids=["triangle", "k-1-edges-with-a-cycle", "two-edges"],
    )
    def test_cycles_and_disconnected_graphs_are_other(self, edges):
        k = max(map(max, edges)) + 1
        comp = Component(np.arange(k), np.array(edges))
        assert classify_component(comp) == _classify_by_walk(comp) == ("other", ())

    def test_lone_vertex_is_other(self):
        comp = Component(np.arange(1), np.empty((0, 2), dtype=np.int64))
        assert classify_component(comp) == ("other", ())

    def test_vertices_need_not_be_sorted_or_dense(self):
        comp = Component(np.array([40, 7, 12]), np.array([(7, 40), (12, 40)]))
        assert classify_component(comp) == ("star", (2,))

    def test_cycle_is_other(self):
        comp = Component(
            np.arange(4), np.array([(0, 1), (1, 2), (2, 3), (0, 3)])
        )
        assert classify_component(comp) == ("other", ())

    def test_single_edge_is_star(self):
        comp = Component(np.arange(2), np.array([(0, 1)]))
        assert classify_component(comp) == ("star", (1,))


class TestCensus:
    def test_tradeoff_2_2(self):
        census = SensitivityGraph(tradeoff([2], [2])).census()
        assert census == {("star", 3): 768, ("two-layer-star", 4, 4): 256}
        assert all(type(v) is int for key in census for v in key[1:])

    def test_counts_other_components(self, parity3):
        assert SensitivityGraph(parity3).census() == {("other",): 1}

    def test_constant_has_no_components(self):
        assert SensitivityGraph(TruthTable(3, np.zeros(8, dtype=np.uint8))).census() == {}

    def test_over_budget_raises(self, monkeypatch):
        monkeypatch.setattr(measures, "MEMORY_BUDGET", 100)
        with pytest.raises(CapExceeded):
            SensitivityGraph(haf(2)).census()

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 10).flatmap(
        lambda n: st.tuples(st.just(n), st.floats(0.02, 0.98), st.integers(0, 2**32 - 1))
    ))
    def test_matches_classify_component(self, case):
        n, p, seed = case
        rng = np.random.default_rng(seed)
        graph = SensitivityGraph(TruthTable(n, (rng.random(1 << n) < p).astype(np.uint8)))
        comps = graph.components()
        assert graph.census() == _tally(comps) == _tally(comps, _classify_by_walk)


def lambda_by(table: TruthTable, census: bool) -> float:
    """The exact solve's lambda past the class-solve arity, with no star
    shortcut: read from the census from the table, or by the Gram solve of
    each component that the labels give."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(measures, "_CLASS_SOLVE_ARITY", 0)
        mp.setattr(SensitivityGraph, "_star_degrees", lambda graph: None)
        if not census:
            mp.setattr(measures, "_census_from_table", lambda table: None)
        return measures._lambda_exact(SensitivityGraph(table))


class TestCensusFromTable:
    """The census read from the table's degrees within two hops is the labels'
    census whenever no component is other, and None exactly when one is."""

    @staticmethod
    def check(table: TruthTable) -> dict | None:
        got = measures._census_from_table(table)
        want = SensitivityGraph(table)._census_by_labels()
        assert (got is None) == (("other",) in want)
        if got is not None:
            assert got == want
            assert list(got) == sorted(got)
            assert all(type(v) is int for key in got for v in key[1:])
            assert lambda_by(table, census=True) == pytest.approx(
                lambda_by(table, census=False), abs=1e-9)
        return got

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.integers(1, 12).flatmap(lambda n: st.tuples(
        st.just(n), st.sampled_from([0.005, 0.02, 0.05, 0.1, 0.3, 0.5, 0.9, 0.98]),
        st.integers(0, 2**32 - 1))))
    def test_random_tables(self, case):
        n, p, seed = case
        rng = np.random.default_rng(seed)
        self.check(TruthTable(n, (rng.random(1 << n) < p).astype(np.uint8)))

    @pytest.mark.parametrize("name", ["and", "or", "parity", "constant"])
    @pytest.mark.parametrize("n", [1, 2, 3, 9])
    def test_named_tables(self, name, n):
        self.check(named_tables(n)[name])

    @pytest.mark.parametrize("digits", ["62", "c2", "9d", "38"])
    def test_second_round_finds_the_other_component(self, monkeypatch, digits):
        # a forest whose first-round centers and hubs cover every vertex; one
        # center's neighbour has a second internal neighbour
        table = TruthTable.from_hex(3, digits)
        rounds = []
        real = measures._census_tally
        monkeypatch.setattr(measures, "_census_tally",
                            lambda *args: rounds.append(real(*args)) or rounds[-1])
        assert self.check(table) is None
        (_, first, _), (_, second, _) = rounds
        assert first == np.count_nonzero(table.sensitivity_counts) > second

    FAMILIES = {
        "haf2": lambda: haf(2),
        "haf3": lambda: haf(3),
        "chaf22": lambda: chaf([2, 2]),
        "tradeoff2;2": lambda: tradeoff([2], [2]),
        "tradeoff2,2;": lambda: tradeoff([2, 2], []),
        "tradeoff2;2,2": lambda: tradeoff([2], [2, 2]),
    }

    @pytest.mark.parametrize("name", list(FAMILIES))
    def test_families(self, name):
        f = self.FAMILIES[name]()
        table = f.table()
        got = measures._census_from_table(table)
        assert got == SensitivityGraph(table)._census_by_labels()
        assert ("other",) not in got
        # the closed form, and past arity 13 in place of the Gram solve
        lam = lambda_by(table, census=True)
        assert lam == pytest.approx(math.sqrt(f.meta.predicted_lambda_sq), abs=1e-12)
        if f.arity <= 13:
            assert lam == pytest.approx(lambda_by(table, census=False), abs=1e-9)


class TestGraphExport:
    def test_edges_text(self, and2):
        assert graph_edges_text(SensitivityGraph(and2)) == "01 11\n10 11\n"

    def test_dot_text(self, and2):
        text = graph_dot_text(SensitivityGraph(and2))
        assert text.startswith("graph sensitivity {\n")
        assert '  "01" -- "11";\n' in text
        assert text.endswith("}\n")

    @pytest.mark.parametrize("name", ["haf2", "chaf22", "tradeoff22", "random10"])
    def test_every_component_matches_a_reference(self, name):
        fn = {
            "haf2": lambda: haf(2),
            "chaf22": lambda: chaf([2, 2]),
            "tradeoff22": lambda: tradeoff([2], [2]),
            "random10": lambda: TruthTable(
                10, (np.random.default_rng(10).random(1024) < 0.5).astype(np.uint8)
            ),
        }[name]()
        graph = SensitivityGraph(fn)
        n = graph.arity
        comps = bfs_components(1 << n, graph.edges())
        everything = [(None, [e for _, edges in comps for e in edges])]
        for k, edges in everything + list(enumerate(e for _, e in comps)):
            pairs = sorted(edges) if k is None else edges
            lines = [(format(x, f"0{n}b"), format(y, f"0{n}b")) for x, y in pairs]
            assert graph_edges_text(graph, k) == "".join(f"{x} {y}\n" for x, y in lines)
            body = "".join(f'  "{x}" -- "{y}";\n' for x, y in lines)
            assert graph_dot_text(graph, k) == "graph sensitivity {\n" + body + "}\n"
        for k in (-1, len(comps)):
            with pytest.raises(ValueError, match="out of range"):
                graph_edges_text(graph, k)

    def test_component_selection(self, and2):
        g = SensitivityGraph(and2)
        assert graph_edges_text(g, component=0) == "01 11\n10 11\n"
        with pytest.raises(ValueError):
            graph_edges_text(g, component=5)

    def test_labels_are_msb_first(self):
        # x = 1 (only x1 set) must print as 001 for arity 3
        f = table_fn([0, 1, 0, 0, 0, 0, 0, 0])
        text = graph_edges_text(SensitivityGraph(f))
        assert "000 001" in text

    HAF2_EDGES = (
        "00000 01000", "00111 10111", "01000 01001", "01000 01010",
        "01000 01100", "01111 11111", "10000 11000", "10011 10111",
        "10101 10111", "10110 10111", "11000 11001", "11000 11010",
        "11000 11100", "11011 11111", "11101 11111", "11110 11111",
    )
    HAF2_COMPONENT1 = ("00111 10111", "10011 10111", "10101 10111", "10110 10111")

    @staticmethod
    def _dot(pairs):
        body = "".join('  "{}" -- "{}";\n'.format(*p.split()) for p in pairs)
        return "graph sensitivity {\n" + body + "}\n"

    def test_haf2_full_text(self):
        g = SensitivityGraph(haf(2))
        assert graph_edges_text(g) == "\n".join(self.HAF2_EDGES) + "\n"
        assert graph_dot_text(g) == self._dot(self.HAF2_EDGES)
        assert graph_dot_text(g) == (
            'graph sensitivity {\n  "00000" -- "01000";\n  "00111" -- "10111";\n'
            '  "01000" -- "01001";\n  "01000" -- "01010";\n  "01000" -- "01100";\n'
            '  "01111" -- "11111";\n  "10000" -- "11000";\n  "10011" -- "10111";\n'
            '  "10101" -- "10111";\n  "10110" -- "10111";\n  "11000" -- "11001";\n'
            '  "11000" -- "11010";\n  "11000" -- "11100";\n  "11011" -- "11111";\n'
            '  "11101" -- "11111";\n  "11110" -- "11111";\n}\n'
        )

    def test_haf2_one_component_text(self):
        g = SensitivityGraph(haf(2))
        assert graph_edges_text(g, component=1) == "\n".join(self.HAF2_COMPONENT1) + "\n"
        assert graph_dot_text(g, component=1) == self._dot(self.HAF2_COMPONENT1)

    def test_empty_graph_text(self):
        g = SensitivityGraph(TruthTable(3, np.zeros(8, dtype=np.uint8)))
        assert graph_edges_text(g) == ""
        assert graph_dot_text(g) == "graph sensitivity {\n}\n"


class TestSpectral:
    def test_parity3_lambda_is_three(self, parity3):
        res = spectral_sensitivity(parity3, method="dense")
        assert res.value == pytest.approx(3.0, abs=1e-9)

    def test_and2(self, and2):
        res = spectral_sensitivity(and2, method="dense")
        assert res.value == pytest.approx(math.sqrt(2), abs=1e-9)

    def test_methods_agree(self):
        f = chaf([2, 2])
        dense = spectral_sensitivity(f, method="dense")
        comp = spectral_sensitivity(f, method="component-wise")
        free = spectral_sensitivity(f, method="matrix-free", tol=1e-9)
        assert comp.value == pytest.approx(dense.value, abs=1e-9)
        assert free.value == pytest.approx(dense.value, abs=1e-6)
        assert dense.method == "dense"
        assert comp.method == "component-wise"
        assert free.method == "matrix-free"
        assert free.residual is not None and free.residual < 1e-5

    def test_chaf22_pinned_value(self):
        res = spectral_sensitivity(chaf([2, 2]), method="component-wise")
        assert res.value == pytest.approx(math.sqrt(7), abs=1e-9)

    def test_analytic_uses_meta(self):
        f = tradeoff([2], [2])
        res = spectral_sensitivity(f, method="analytic")
        assert res.value == pytest.approx(math.sqrt(7))
        assert res.method == "analytic"

    def test_analytic_requires_prediction(self, and2):
        with pytest.raises(ValueError):
            spectral_sensitivity(and2, method="analytic")

    def test_convergence_error_carries_best(self, monkeypatch):
        # tradeoff(2;2)'s bracket takes 13 steps to close; chaf(2,2)'s closes
        # in one
        f = tradeoff([2], [2])
        monkeypatch.setattr(measures, "DEFAULT_MAX_ITER", 1)
        with pytest.raises(ConvergenceError) as exc:
            spectral_sensitivity(f, method="matrix-free")
        assert exc.value.best is not None

    def test_auto_prefers_dense_when_small(self, and2):
        assert spectral_sensitivity(and2).method == "dense"

    def test_auto_switches_above_arity_13(self):
        assert spectral_sensitivity(make_parity(13)).method == "dense"
        res = spectral_sensitivity(make_parity(14))
        assert res.method == "matrix-free" and not res.exact
        assert res.value == pytest.approx(14.0, abs=1e-6)

    def test_auto_solves_star_graphs_exactly_above_arity_13(self):
        # no input off the smaller side has two neighbours: lambda is sqrt(max d)
        const = TruthTable(14, np.zeros(1 << 14, dtype=np.uint8))
        for fn, lam in ((const, 0.0), (haf(3), math.sqrt(8))):
            res = spectral_sensitivity(fn)
            assert (res.method, res.exact, res.value) == ("dense", True, lam)

    def test_matrix_free_without_sparse_matrix(self, monkeypatch):
        f = chaf([2, 2])
        exact = spectral_sensitivity(f, method="dense").value
        monkeypatch.setattr(measures, "MEMORY_BUDGET", 1000)
        with pytest.raises(CapExceeded, match="sparse adjacency"):
            SensitivityGraph(f).adjacency()
        free = spectral_sensitivity(f, method="matrix-free", tol=1e-9)
        assert free.value == pytest.approx(exact, abs=1e-6)

    def test_exact_solve_refuses_oversized_component(self, monkeypatch):
        # parity on 9 inputs is one component of 512 vertices, solved from the
        # index; its sparse matrix (under 40 kB) fits, its 256 x 256 blocks do not
        monkeypatch.setattr(measures, "MEMORY_BUDGET", 100_000)
        with pytest.raises(CapExceeded, match="component with 512 vertices"):
            spectral_sensitivity(make_parity(9), method="component-wise")

    def test_empty_graph(self):
        res = spectral_sensitivity(table_fn([0, 0, 0, 0]), method="dense")
        assert res.value == 0.0

    def test_bad_method(self, and2):
        with pytest.raises(ValueError):
            spectral_sensitivity(and2, method="nope")

    @pytest.mark.parametrize(
        "method", ["auto", "dense", "component-wise", "matrix-free", "analytic"]
    )
    def test_graph_gives_the_functions_result(self, method):
        f = tradeoff([2], [2])
        assert spectral_sensitivity(SensitivityGraph(f), method=method) == (
            spectral_sensitivity(f, method=method)
        )

    def test_graph_reuses_its_adjacency_and_labels(self, monkeypatch):
        graph = SensitivityGraph(chaf([2, 2]))
        adj, labels = graph.adjacency(), graph._component_labels()
        # a second build of either would now fail
        monkeypatch.setattr(measures, "_cc", None)
        monkeypatch.setattr(measures, "_check_csr_budget", None)
        for method in ("dense", "component-wise"):
            assert spectral_sensitivity(graph, method=method).value == pytest.approx(
                math.sqrt(7), abs=1e-9
            )
        assert graph.adjacency() is adj and graph._component_labels() is labels

    @pytest.mark.parametrize("table", [
        tradeoff([2], [2]).table(),
        TruthTable(9, np.random.default_rng(9).integers(0, 2, 1 << 9, dtype=np.uint8)),
    ], ids=["tradeoff22", "random9"])
    def test_matrix_free_builds_b_once_when_it_fits(self, monkeypatch, table):
        # neither graph is a union of stars, so every Gram step applies B
        assert SensitivityGraph(table)._star_degrees() is None
        calls = spy_calls(monkeypatch, ["_smaller_side_rows"])
        res = spectral_sensitivity(SensitivityGraph(table), method="matrix-free")
        assert res.iterations > 1
        assert calls["_smaller_side_rows"] == 1

    def test_adjacency_builds_its_own_rows(self, monkeypatch):
        graph = SensitivityGraph(tradeoff([2], [2]))
        spectral_sensitivity(graph, method="matrix-free")
        calls = spy_calls(monkeypatch, ["_smaller_side_rows"])
        adj = graph.adjacency()
        assert graph.adjacency() is adj
        assert calls["_smaller_side_rows"] == 1
        # each edge stored once, in the row of its end in S
        coo = adj.tocoo()
        pairs = np.sort(np.c_[coo.row, coo.col], axis=1)
        assert np.array_equal(pairs[np.lexsort(pairs.T[::-1])], graph.edges())

    def test_graph_keeps_construction_meta(self):
        f = tradeoff([2], [2])
        assert SensitivityGraph(f).meta is f.meta
        assert SensitivityGraph(f.table()).meta is None
        with pytest.raises(ValueError, match="metadata"):
            spectral_sensitivity(SensitivityGraph(f.table()), method="analytic")


def dense_reference_adjacency(table: TruthTable) -> np.ndarray:
    """The full n x n adjacency, built independently of SensitivityGraph."""
    xs = np.arange(1 << table.arity)
    a = np.zeros((len(xs), len(xs)))
    for i in range(table.arity):
        ys = xs ^ (1 << i)
        a[xs, ys] = table.values != table.values[ys]
    return a


def dense_reference_lambda(table: TruthTable) -> float:
    """Largest eigenvalue of the dense reference adjacency."""
    return float(np.linalg.eigvalsh(dense_reference_adjacency(table))[-1])


@st.composite
def random_tables(draw, n):
    p_one = draw(st.sampled_from([0.05, 0.3, 0.5, 0.95]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return TruthTable(n, (rng.random(1 << n) < p_one).astype(np.uint8))


class TestSolversAgainstDenseReference:
    def test_every_equal_size_component_is_solved(self):
        # two 7-vertex components; the one with the larger vertices has the
        # larger eigenvalue
        table = TruthTable.from_hex(4, "3053")
        ref = dense_reference_lambda(table)
        assert ref == pytest.approx(2.334, abs=1e-3)
        assert spectral_sensitivity(table, method="dense").value == pytest.approx(
            ref, abs=1e-9
        )

    @pytest.mark.parametrize("n", range(1, 11))
    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_exact_solve(self, n, data):
        table = data.draw(random_tables(n))
        ref = dense_reference_lambda(table)
        for method in ("dense", "component-wise"):
            res = spectral_sensitivity(table, method=method)
            assert res.value == pytest.approx(ref, abs=1e-9)

    @pytest.mark.parametrize("n", range(2, 11))
    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_matrix_free(self, n, data):
        table = data.draw(random_tables(n))
        ref = dense_reference_lambda(table)
        try:
            res = spectral_sensitivity(table, method="matrix-free")
        except ConvergenceError as exc:
            # a Rayleigh quotient of A^2 never exceeds lambda^2
            assert exc.best <= ref + 1e-9
        else:
            assert res.value == pytest.approx(ref, abs=1e-6)


def gram_batches(monkeypatch, solve):
    """Run solve() and return its result with the shape of every batch of
    blocks it hands to eigvalsh."""
    shapes = []
    eigvalsh = np.linalg.eigvalsh

    def spy(a):
        shapes.append(a.shape)
        return eigvalsh(a)

    with monkeypatch.context() as mp:
        mp.setattr(np.linalg, "eigvalsh", spy)
        value = solve()
    return value, shapes


class TestGramSolve:
    """The exact solve works on each component's Gram block B B^T, with the
    rows of B on the component's smaller side."""

    def solve(self, monkeypatch, table):
        ref = dense_reference_lambda(table)
        value, shapes = gram_batches(
            monkeypatch, lambda: spectral_sensitivity(table, method="dense").value
        )
        assert value == pytest.approx(ref, abs=1e-9)
        return shapes

    @pytest.mark.parametrize("n", [2, 3, 6])
    def test_and_takes_the_one_side(self, monkeypatch, n):
        # one 1-input against its n neighbours
        table = TruthTable(n, (np.arange(1 << n) == (1 << n) - 1).astype(np.uint8))
        assert self.solve(monkeypatch, table) == [(1, 1, 1)]

    @pytest.mark.parametrize("n", [2, 3, 6])
    def test_or_takes_the_zero_side(self, monkeypatch, n):
        table = TruthTable(n, (np.arange(1 << n) != 0).astype(np.uint8))
        assert self.solve(monkeypatch, table) == [(1, 1, 1)]

    @pytest.mark.parametrize("n", [1, 3, 6])
    def test_parity_sides_are_equal(self, monkeypatch, n):
        half = 1 << (n - 1)
        assert self.solve(monkeypatch, make_parity(n).table()) == [(1, half, half)]

    @pytest.mark.parametrize(
        "digits, batches",
        [("dd05", [(2, 3, 3)]), ("84ad", [(1, 1, 1), (1, 5, 5)])],
    )
    def test_components_of_both_orientations(self, monkeypatch, digits, batches):
        table = TruthTable.from_hex(4, digits)
        comps = SensitivityGraph(table).components()
        # one component has fewer 1-inputs than 0-inputs, the other more
        more_ones = [2 * int(table.values[c.vertices].sum()) > len(c) for c in comps]
        assert sorted(more_ones) == [False, True]
        assert sorted(self.solve(monkeypatch, table)) == batches

    def test_batches_split_under_a_small_budget(self, monkeypatch):
        graph = SensitivityGraph(tradeoff([2], [2]))
        # the sparse matrix (110 kB) and the labels are built under the full budget
        graph._component_labels()
        monkeypatch.setattr(measures, "MEMORY_BUDGET", 10_000)
        value, shapes = gram_batches(monkeypatch, lambda: measures._lambda_exact(graph))
        # 768 stars with one 1-input and three 0-inputs, 256 two-layer stars
        # with four 1-inputs and thirteen 0-inputs
        stars = [b for b, m, _ in shapes if m == 1]
        two_layer = [b for b, m, _ in shapes if m == 4]
        assert (sum(stars), sum(two_layer)) == (768, 256)
        assert len(stars) > 1 and len(two_layer) > 1
        assert value == pytest.approx(math.sqrt(7), abs=1e-9)

    def test_budget_counts_the_gram_solve(self, monkeypatch):
        # parity on 9 inputs is one parity class of 512 inputs, sides 256 and
        # 256: C and C C^T take 8 * 256 * (256 + 256) = 1 048 576 bytes and
        # adjacency(rows, cols)'s uint8 count per cell 256 * 256 = 65 536, so
        # the class counts 1 114 112; a 512 x 512 adjacency block would take
        # 2 097 152
        monkeypatch.setattr(measures, "MEMORY_BUDGET", 1_114_111)
        with pytest.raises(CapExceeded, match="component with 512 vertices"):
            spectral_sensitivity(make_parity(9), method="component-wise")
        monkeypatch.setattr(measures, "MEMORY_BUDGET", 1_114_112)
        res = spectral_sensitivity(make_parity(9), method="component-wise")
        assert res.value == pytest.approx(9.0, abs=1e-9)
        assert res.method == "component-wise"

    def test_classes_that_fit_only_alone_are_solved_in_turn(self, monkeypatch):
        table = TruthTable(10, np.random.default_rng(10).integers(0, 2, 1024, dtype=np.uint8))
        calls, real = [], measures._bounded_top
        monkeypatch.setattr(measures, "_bounded_top",
                            lambda batches, best: calls.append(len(batches)) or real(batches, best))
        want = spectral_sensitivity(table, method="dense").value
        assert calls == [2]
        # its classes have sides 238, 261 and 251, 274, counting 1 012 214
        # and 1 122 974 bytes: at the larger count each is a chunk of its own
        monkeypatch.setattr(measures, "MEMORY_BUDGET", 1_122_974)
        assert spectral_sensitivity(table, method="dense").value == want
        assert calls == [2, 1, 1]
        monkeypatch.setattr(measures, "MEMORY_BUDGET", 1_122_973)
        with pytest.raises(CapExceeded, match="component with 525 vertices"):
            spectral_sensitivity(table, method="dense")

    @pytest.mark.parametrize("name", ["parity9", "parity10", "random10"])
    def test_class_solve_peaks_within_its_count(self, name):
        table = {
            "parity9": lambda: make_parity(9).table(),
            "parity10": lambda: make_parity(10).table(),
            "random10": lambda: TruthTable(
                10, np.random.default_rng(10).integers(0, 2, 1024, dtype=np.uint8)),
        }[name]()
        table.sensitivity_counts  # scanned first, so the trace holds only the solve
        # each class with edges, sides m <= M, counts 8 m (m + M) + m M, and
        # both are held at once when they fit the budget together
        count, cls = 0, parity_class(table)
        for c in (0, 1):
            xs = (cls == c) & (table.sensitivity_counts > 0)
            ones = int(table.values[xs].sum())
            m, big = sorted((int(xs.sum()) - ones, ones))
            count += 8 * m * (m + big) + m * big
        graph = SensitivityGraph(table)
        got, peak = TestMemoryBudget.traced(lambda: measures._lambda_exact(graph))
        assert got == pytest.approx(dense_reference_lambda(table), abs=1e-9)
        assert peak <= count


def parity_class(table: TruthTable) -> np.ndarray:
    """f(x) ^ (|x| mod 2) for every input x."""
    xs = np.arange(1 << table.arity, dtype=np.uint64)
    return (np.bitwise_count(xs).astype(np.uint8) & 1) ^ table.values


def named_tables(n: int) -> dict[str, TruthTable]:
    xs = np.arange(1 << n)
    return {
        "and": TruthTable(n, (xs == (1 << n) - 1).astype(np.uint8)),
        "or": TruthTable(n, (xs != 0).astype(np.uint8)),
        "parity": make_parity(n).table(),
        "constant": TruthTable(n, np.zeros(1 << n, dtype=np.uint8)),
    }


class TestParityClassSolve:
    """The exact solve groups the inputs by parity class up to arity 10 and by
    component past it; both groupings must give the same value, and up to
    arity 10 it builds nothing of the component index."""

    @staticmethod
    def both_paths(table):
        by = {}
        # a class-solve arity of 64 groups every table by class, of 0 by component
        for grouping, arity in (("class", 64), ("component", 0)):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(measures, "_CLASS_SOLVE_ARITY", arity)
                by[grouping] = spectral_sensitivity(table, method="dense").value
        ref = dense_reference_lambda(table)
        assert by["class"] == pytest.approx(by["component"], abs=1e-12)
        assert by["class"] == pytest.approx(ref, abs=1e-9)
        assert by["component"] == pytest.approx(ref, abs=1e-9)

    @pytest.mark.parametrize("n", range(1, 11))
    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_paths_agree_on_random_tables(self, n, data):
        self.both_paths(data.draw(random_tables(n)))

    @pytest.mark.parametrize("n", range(1, 11))
    @pytest.mark.parametrize("name", ["and", "or", "parity", "constant"])
    def test_paths_agree_on_named_tables(self, n, name):
        self.both_paths(named_tables(n)[name])

    @pytest.mark.parametrize("digits", ["dd05", "84ad", "3053"])
    def test_paths_agree_on_pinned_tables(self, digits):
        self.both_paths(TruthTable.from_hex(4, digits))

    @pytest.mark.parametrize("n", range(1, 11))
    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_every_component_lies_in_one_class(self, n, data):
        table = data.draw(random_tables(n))
        cls = parity_class(table)
        for comp in SensitivityGraph(table).components():
            assert len(np.unique(cls[comp.vertices])) == 1

    @staticmethod
    def index_builds(monkeypatch, table, method):
        calls = {"_smaller_side_rows": 0, "_cc": 0}
        for name in calls:
            def spy(*args, name=name, real=getattr(measures, name), **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(measures, name, spy)
        spectral_sensitivity(table, method=method)
        return calls["_smaller_side_rows"], calls["_cc"]

    @pytest.mark.parametrize("method", ["dense", "component-wise"])
    @pytest.mark.parametrize("n", [4, 8, 10])
    def test_small_tables_build_no_index(self, monkeypatch, method, n):
        table = TruthTable(n, np.random.default_rng(n).integers(0, 2, 1 << n, dtype=np.uint8))
        assert self.index_builds(monkeypatch, table, method) == (0, 0)

    @pytest.mark.parametrize("method", ["dense", "component-wise"])
    def test_arity_eleven_builds_the_index_once(self, monkeypatch, method):
        table = TruthTable(11, np.random.default_rng(11).integers(0, 2, 2048, dtype=np.uint8))
        assert self.index_builds(monkeypatch, table, method) == (1, 1)


class TestBoundedSolve:
    """Blocks of at least _BOUND_ROWS rows are bounded by Collatz-Wielandt
    steps before any is eigensolved, and only those the bounds cannot rule
    out reach eigvalsh; lambda is bit for bit what solving every block gives."""

    @staticmethod
    def assert_bit_identical(table):
        # 2^20 rows bounds no block; 0 bounds every block, with the default
        # steps and with as few as the step rule allows, which leaves more
        # blocks to eigensolve in order of their lower bounds
        by = []
        for rows, steps in ((1 << 20, None), (0, None), (0, 1)):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(measures, "_BOUND_ROWS", rows)
                if steps:
                    mp.setattr(measures, "_BOUND_STEPS", steps)
                    mp.setattr(measures, "_LEAD_STEPS", steps)
                by.append(spectral_sensitivity(table, method="dense").value)
        assert by[1] == by[0] and by[2] == by[0]

    @pytest.mark.parametrize("n", range(1, 13))
    @settings(max_examples=5, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_bit_identical_on_random_tables(self, n, data):
        self.assert_bit_identical(data.draw(random_tables(n)))

    @pytest.mark.parametrize("n", range(1, 11))
    @pytest.mark.parametrize("name", ["and", "or", "parity", "constant"])
    def test_bit_identical_on_named_tables(self, n, name):
        self.assert_bit_identical(named_tables(n)[name])

    @pytest.mark.parametrize("kind", ["random", "parity"])
    def test_isomorphic_classes_both_reach_eigvalsh(self, monkeypatch, kind):
        # f ignores x0, so x -> x ^ 1 maps one parity class onto the other,
        # and their bounds never fall below the first solve's value; on
        # parity of x1..x9 both classes are 9-cubes, whose bound is 81 at once
        half = (np.random.default_rng(9).integers(0, 2, 512, dtype=np.uint8)
                if kind == "random" else make_parity(9).table().values)
        table = TruthTable(10, np.repeat(half, 2))
        value, shapes = gram_batches(
            monkeypatch, lambda: spectral_sensitivity(table, method="dense").value)
        assert len(shapes) == 2 and shapes[0] == shapes[1]
        assert shapes[0][0] == 1 and shapes[0][1] >= measures._BOUND_ROWS
        assert value == pytest.approx(dense_reference_lambda(table), abs=1e-9)

    def test_the_lower_class_is_pruned(self, monkeypatch):
        table = TruthTable(10, np.random.default_rng(10).integers(0, 2, 1024, dtype=np.uint8))
        # each class's smaller side and its lambda^2, from the dense reference
        adj, cls = dense_reference_adjacency(table), parity_class(table)
        classes = []
        for c in (0, 1):
            xs = np.flatnonzero((cls == c) & (table.sensitivity_counts > 0))
            ones = int(table.values[xs].sum())
            top = float(np.linalg.eigvalsh(adj[np.ix_(xs, xs)])[-1]) ** 2
            classes.append((top, min(ones, len(xs) - ones)))
        (low, _), (high, rows) = sorted(classes)
        assert rows >= measures._BOUND_ROWS and low < 0.97 * high
        grams = []
        real = measures._gram_top
        # the one place a Gram block is formed
        monkeypatch.setattr(measures, "_gram_top", lambda c: grams.append(c.shape) or real(c))
        value, shapes = gram_batches(
            monkeypatch, lambda: spectral_sensitivity(table, method="dense").value)
        assert shapes == [(1, rows, rows)]
        assert len(grams) == 1 and grams[0][:2] == (1, rows)
        assert value * value == pytest.approx(high, rel=1e-12)


INDEX_PASSES = {
    "dense": lambda graph: spectral_sensitivity(graph, method="dense").value,
    "component-wise": lambda graph: spectral_sensitivity(graph, method="component-wise").value,
    "census": lambda graph: graph.census(),
}


class TestMemoryBudget:
    """The exact solve and the census read the component index in chunks
    counted against MEMORY_BUDGET: on top of the graph and its labels, each
    call either refuses with CapExceeded or peaks within the budget plus
    INDEX_BYTES_PER_INPUT bytes per input, and a chunked result is the
    unchunked one. The census from the table, which would otherwise answer
    for the index on stars and two-layer stars, is off for those; it counts
    CENSUS_BYTES_PER_INPUT bytes per input against the budget itself."""

    BUDGETS = [1 << 12, 1 << 15, 1 << 18, 1 << 21, 1 << 24]
    # x -> x0 is 2048 single edges, the most components 2^12 inputs can hold
    TABLES = {
        "tradeoff22": lambda: tradeoff([2], [2]).table(),
        "matching12": lambda: TruthTable(12, (np.arange(1 << 12) & 1).astype(np.uint8)),
    }

    @staticmethod
    def traced(call):
        """call()'s result, None on CapExceeded, and its traced peak."""
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            try:
                got = call()
            except CapExceeded:
                got = None
            return got, tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    def run(self, table: TruthTable, name: str, budget: int):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(measures, "_census_from_table", lambda table: None)
            want = INDEX_PASSES[name](SensitivityGraph(table))
            graph = SensitivityGraph(table)
            graph._component_labels()
            mp.setattr(measures, "MEMORY_BUDGET", budget)
            got, peak = self.traced(lambda: INDEX_PASSES[name](graph))
        assert peak <= budget + measures.INDEX_BYTES_PER_INPUT * len(table)
        assert got is None or got == want
        return got

    @pytest.mark.parametrize("budget", BUDGETS)
    @pytest.mark.parametrize("name", list(INDEX_PASSES))
    @pytest.mark.parametrize("table", list(TABLES))
    def test_named_tables(self, table, name, budget):
        # tradeoff(2;2)'s largest component, a two-layer star, counts 1584
        # bytes in the exact solve and 1088 in the census, so every budget
        # here takes it
        assert self.run(self.TABLES[table](), name, budget) is not None

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_random_tables(self, data):
        table = data.draw(random_tables(data.draw(st.integers(10, 12))))
        self.run(table, data.draw(st.sampled_from(list(INDEX_PASSES))),
                 data.draw(st.sampled_from(self.BUDGETS)))

    @pytest.mark.parametrize("budget", BUDGETS)
    @pytest.mark.parametrize("table", list(TABLES))
    def test_census_chunks_count_their_temporaries(self, monkeypatch, table, budget):
        # the whole census fits in the index's allowance, so with the index
        # built the bound is tighter: beside its chunks the census keeps a
        # cost and a running sum per component, under 16 bytes per input
        graph = SensitivityGraph(self.TABLES[table]())
        graph._component_index
        monkeypatch.setattr(measures, "MEMORY_BUDGET", budget)
        got, peak = self.traced(graph._census_by_labels)
        assert got is not None
        assert peak <= budget + 16 * len(graph.table)

    # numpy's iterator buffers for the census's strided passes, and small
    # Python objects: a few times np.getbufsize() bytes whatever the arity
    CENSUS_ALLOWANCE = 32 << 10

    @pytest.mark.parametrize("table", list(TABLES) + ["chaf22", "desens-haf2"])
    def test_census_from_the_table_counts_what_it_holds(self, monkeypatch, table):
        tt = (self.TABLES.get(table) or STAR_TABLES[table])()
        tt.sensitivity_counts  # scanned first, so the trace holds only the census
        count = measures.CENSUS_BYTES_PER_INPUT * len(tt)
        graph = SensitivityGraph(tt)
        want = graph._census_by_labels()
        monkeypatch.setattr(measures, "MEMORY_BUDGET", count)
        got, peak = self.traced(lambda: measures._census_from_table(tt))
        assert got == want
        assert peak <= count + self.CENSUS_ALLOWANCE
        # below its own count it refuses, and census() reads the index instead
        monkeypatch.setattr(measures, "MEMORY_BUDGET", count - 1)
        assert graph._table_census is None
        assert graph.census() == want

    def test_census_refuses_a_component_over_budget(self, monkeypatch):
        graph = SensitivityGraph(make_parity(6))
        graph._component_labels()
        # the one component has 64 vertices, at 64 bytes each
        monkeypatch.setattr(measures, "MEMORY_BUDGET", 64 * 64 - 1)
        with pytest.raises(CapExceeded, match="component with 64 vertices exceeds the census"):
            graph.census()
        monkeypatch.setattr(measures, "MEMORY_BUDGET", 64 * 64)
        assert graph.census() == {("other",): 1}

    # past arity 10, with no census from the table or star operator, every
    # reader of the component index
    LABEL_READERS = {
        "component-wise": lambda graph: spectral_sensitivity(graph, method="component-wise"),
        "census": lambda graph: graph.census(),
        "components": lambda graph: graph.components(),
        "export": lambda graph: graph_edges_text(graph, component=0),
    }

    @pytest.mark.parametrize("reader", list(LABEL_READERS))
    @pytest.mark.parametrize("table", list(TABLES))
    def test_labels_count_their_bytes_first(self, monkeypatch, table, reader):
        # the labels step's count: the int32 labels and numpy's allowance,
        # beside scipy's transposed CSR and then the index, the larger
        tt = self.TABLES[table]()
        monkeypatch.setattr(measures, "_census_from_table", lambda table: None)
        monkeypatch.setattr(SensitivityGraph, "_star_degrees", lambda graph: None)
        graph = SensitivityGraph(tt)
        index = measures.INDEX_BYTES_PER_INPUT * np.count_nonzero(tt.sensitivity_counts)
        csr = measures._csr_bytes(graph.edge_count(), len(tt))
        count = 4 * len(tt) + max(csr, index) + measures._NUMPY_BYTES
        calls = spy_calls(monkeypatch, ["_cc"])
        monkeypatch.setattr(measures, "MEMORY_BUDGET", count - 1)
        with pytest.raises(CapExceeded, match=f"component labels needs over {count} bytes"):
            self.LABEL_READERS[reader](graph)
        assert calls["_cc"] == 0
        monkeypatch.setattr(measures, "MEMORY_BUDGET", count)
        graph.adjacency()  # counted on its own, before the labels
        import scipy.sparse.csgraph  # noqa: F401 (imported outside the trace)
        _, peak = self.traced(lambda: graph._component_index)
        assert calls["_cc"] == 1 and peak <= count
        self.LABEL_READERS[reader](graph)


# matrix-free lambda on haf(3) in a fresh interpreter: value, residual and
# steps, as reprs
MATFREE_PROBE = (
    "from sensilab import haf, spectral_sensitivity; "
    "r = spectral_sensitivity(haf(3), method='matrix-free'); "
    "print(repr(r.value), repr(r.residual), r.iterations)"
)


def replayed_residual(table: TruthTable, side: int, tol: float) -> float:
    """||A u - lambda u|| for the unit vector u = [x; B^T x / lambda] /
    (sqrt(2) ||x||) at which matrix-free stops, replayed on dense matrices
    built independently: x is the last iterate of power iteration on B B^T
    from the all-ones vector, rescaled to a largest entry of 1, at the first
    step whose largest ratio (B B^T x)_i / x_i over x_i > 0 is within tol of
    it of the Rayleigh quotient, lambda^2."""
    a = dense_reference_adjacency(table)
    xs = np.arange(len(table))
    rows, cols = xs[table.values == side], xs[table.values != side]
    b = a[np.ix_(rows, cols)]
    x = np.ones(len(rows))
    while True:
        w = b @ (b.T @ x)
        lam_sq = float(x @ w) / float(x @ x)
        hi = max(w[i] / x[i] for i in np.flatnonzero(x > 0))
        if hi - lam_sq <= tol * hi:
            break
        x = w / w.max()
    lam = math.sqrt(lam_sq)
    u = np.zeros(len(xs))
    u[rows], u[cols] = x, b.T @ x / lam
    u /= math.sqrt(2) * np.linalg.norm(x)
    return float(np.linalg.norm(a @ u - lam * u))


class TestMatrixFreeGram:
    """Matrix-free iterates B B^T on vectors over the smaller side (the 0-side
    on a tie), with the CSR rows or with products from the table."""

    def test_blas_threads_do_not_move_a_bit(self):
        # haf(3)'s 2^19-entry iterates: BLAS's threaded ddot/dnrm2 read a
        # residual of 0.0 with one thread and 4.36e-16 with two
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        path = os.pathsep.join([src] + [p for p in os.environ.get("PYTHONPATH", "").split(
            os.pathsep) if p])
        outs = []
        for threads in ("1", "2"):
            env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads,
                   "OMP_NUM_THREADS": threads, "MKL_NUM_THREADS": threads}
            run = subprocess.run([sys.executable, "-c", MATFREE_PROBE], env=env,
                                 capture_output=True, text=True, check=True, timeout=120)
            outs.append(run.stdout)
        assert outs[0] == outs[1]
        # the all-ones start is the stars' Perron vector: one step closes the
        # bracket at lambda^2 = 8
        assert outs[0].split() == ["2.8284271247461903", "0.0", "1"]

    CASES = {
        "and6": (TruthTable(6, (np.arange(64) == 63).astype(np.uint8)), 1),
        "or6": (TruthTable(6, (np.arange(64) != 0).astype(np.uint8)), 0),
        "parity3": (make_parity(3).table(), 0),
        "chaf22": (chaf([2, 2]).table(), 1),
        # the cases above close in one step, from the all-ones start; maf(2)
        # takes 12
        "maf2": (maf(2).table(), 0),
    }

    @pytest.mark.parametrize("sparse", [True, False], ids=["csr", "table"])
    @pytest.mark.parametrize("case", list(CASES))
    def test_against_dense_reference(self, monkeypatch, case, sparse):
        table, side = self.CASES[case]
        assert np.array_equal(smaller_side(table), np.flatnonzero(table.values == side))
        if not sparse:
            monkeypatch.setattr(measures, "MEMORY_BUDGET", 0)
            with pytest.raises(CapExceeded, match="sparse adjacency"):
                SensitivityGraph(table).adjacency()
        res = spectral_sensitivity(table, method="matrix-free", tol=1e-9)
        monkeypatch.undo()
        assert res.value == pytest.approx(dense_reference_lambda(table), abs=1e-6)
        assert res.residual < 1e-5
        assert res.residual == pytest.approx(
            replayed_residual(table, side, 1e-9),
            rel=1e-6, abs=1e-12,
        )


@st.composite
def matrix_free_tables(draw):
    """Tables at n = 1..12: constants, random tables, and random tables with
    one input and all its neighbours set to the smaller side's value, so
    that the smaller side has an input with no edge."""
    n = draw(st.integers(1, 12))
    kind = draw(st.sampled_from(["constant", "random", "isolated"]))
    if kind == "constant":
        return TruthTable(n, np.full(1 << n, draw(st.integers(0, 1)), dtype=np.uint8))
    table = draw(random_tables(n))
    if kind == "random":
        return table
    vals = table.values.copy()
    x = draw(st.integers(0, (1 << n) - 1))
    vals[x ^ np.r_[0, 1 << np.arange(n)]] = int(2 * table.ones_count() < len(table))
    return TruthTable(n, vals)


def bracketed_matrix_free(table: TruthTable, tol: float = measures.DEFAULT_TOL):
    """_lambda_matfree on table's graph: its result (None when it raised
    ConvergenceError), and its last step's bracket and vector: (lo, hi, x)."""
    last = []
    step = measures._cw_step

    def spy(x, y):
        out = step(x, y)
        last[:] = [(float(out[0]), float(out[1]), x)]
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(measures, "_cw_step", spy)
        try:
            res = measures._lambda_matfree(SensitivityGraph(table), tol)
        except ConvergenceError:
            res = None
    return res, (last[0] if last else None)


class TestMatrixFreeBracket:
    """Each matrix-free step brackets lambda^2 in [lo, hi], the Rayleigh
    quotient and the largest Collatz-Wielandt ratio, and matrix-free returns
    only once hi - lo <= tol * hi."""

    # the dense solve's own rounding, relatively
    ROUNDING = 1e-12

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(table=matrix_free_tables())
    def test_bracket_holds_the_dense_lambda(self, table):
        dense = spectral_sensitivity(table, method="dense").value ** 2
        res, bracket = bracketed_matrix_free(table)
        if bracket is None:
            assert res == (0.0, 0.0, 0) and dense == 0.0
            return
        lo, hi, _ = bracket
        assert lo <= dense * (1 + self.ROUNDING) and dense <= hi * (1 + self.ROUNDING)
        if res is not None:
            assert hi - lo <= measures.DEFAULT_TOL * hi
            assert res[0] == math.sqrt(lo)
            # ||B B^T x - lo x||^2 <= lo (lambda^2 - lo) ||x||^2 for the PSD B B^T
            assert res[1] <= math.sqrt(hi * measures.DEFAULT_TOL / 2) * (1 + self.ROUNDING)

    def test_underflow_keeps_the_bracket(self, monkeypatch):
        # two components, with lambda^2 9.084 and 4.618: the smaller one's
        # entries shrink about twofold a step and underflow to 0 within the
        # first 1100 or so, while the larger one's bracket stays an ulp wide,
        # so at tol 0 every step runs
        table = TruthTable.from_hex(5, "200b0201")
        dense = spectral_sensitivity(table, method="dense").value ** 2
        monkeypatch.setattr(measures, "DEFAULT_MAX_ITER", 3000)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            res, (lo, hi, x) = bracketed_matrix_free(table, tol=0.0)
        assert res is None and (x == 0).any()
        assert lo <= dense * (1 + self.ROUNDING) and dense <= hi * (1 + self.ROUNDING)


def smaller_side(table: TruthTable) -> np.ndarray:
    """The inputs matrix-free iterates on: the side with fewer inputs, the
    0-side on a tie."""
    return np.flatnonzero(table.values == int(2 * table.ones_count() < len(table)))


def is_star_graph(table: TruthTable) -> bool:
    """Whether no input off the smaller side has two or more neighbours, with
    degrees counted direction by direction: then every component is a star
    centred on the smaller side."""
    xs = np.arange(len(table))
    deg = sum(table.values != table.values[xs ^ (1 << i)] for i in range(table.arity))
    off = np.ones(len(table), dtype=bool)
    off[smaller_side(table)] = False
    return bool(np.max(deg, where=off, initial=0) <= 1)


class TestSmallerSideRows:
    """Matrix-free builds the rows of B on the smaller side S from the table,
    never the full adjacency."""

    TABLES = {
        "and6": TruthTable(6, (np.arange(64) == 63).astype(np.uint8)),
        "or6": TruthTable(6, (np.arange(64) != 0).astype(np.uint8)),
        "parity5": make_parity(5).table(),
        "chaf22": chaf([2, 2]).table(),
    }

    @staticmethod
    def assert_rows_match_adjacency(table: TruthTable):
        adj = dense_reference_adjacency(table)
        for side in (smaller_side(table), np.flatnonzero(table.values == 1)):
            rows = measures._smaller_side_rows(table, side)
            expected = sp.csr_matrix(adj[side])
            assert rows.shape == expected.shape
            assert np.array_equal(rows.indptr, expected.indptr)
            # same column set per row; the fill leaves each row in direction order
            rows.sort_indices()
            assert np.array_equal(rows.indices, expected.indices)
            assert np.all(rows.data == 1.0)

    @pytest.mark.parametrize("case", list(TABLES))
    def test_named_tables(self, case):
        self.assert_rows_match_adjacency(self.TABLES[case])

    @pytest.mark.parametrize("n", range(1, 11))
    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_random_tables(self, n, data):
        table = data.draw(random_tables(n))
        self.assert_rows_match_adjacency(table)
        # adjacency() stores each edge once, in the rows of S
        graph = SensitivityGraph(table)
        adj = graph.adjacency()
        assert adj.nnz == graph.edge_count()
        assert np.isin(np.flatnonzero(np.diff(adj.indptr)), smaller_side(table)).all()
        assert np.array_equal((adj + adj.T).toarray(), dense_reference_adjacency(table))

    @pytest.mark.parametrize("case", list(TABLES))
    def test_matrix_free_never_builds_the_adjacency(self, monkeypatch, case):
        calls = []
        adjacency = SensitivityGraph.adjacency

        def spy(graph):
            calls.append(graph)
            return adjacency(graph)

        monkeypatch.setattr(SensitivityGraph, "adjacency", spy)
        table = self.TABLES[case]
        res = spectral_sensitivity(table, method="matrix-free", tol=1e-9)
        assert calls == []
        assert res.value == pytest.approx(dense_reference_lambda(table), abs=1e-6)

    @pytest.mark.parametrize("slack, path", [(-1, "slices"), (0, "csr")])
    def test_budget_boundary(self, slack, path):
        # tradeoff(2;2) has two-layer stars, so its Gram operator is not diagonal
        table = tradeoff([2], [2]).table()
        side = smaller_side(table)
        nnz = int(table.sensitivity_counts[side].sum())
        budget = 12 * nnz + 4 * (len(side) + 1) + slack
        lam, _, builds = matrix_free_run(table, budget, measures.DEFAULT_MAX_ITER)
        assert (len(builds) > 1) == (path == "slices")
        assert lam == pytest.approx(math.sqrt(7), abs=1e-6)


def matrix_free_run(table: TruthTable, budget: int | None, max_iter: int):
    """_lambda_matfree on a new graph of table, under budget (None keeps
    MEMORY_BUDGET): lambda and its Gram steps, or the best estimate and
    max_iter + 1 when it does not converge; and the length of every run of S
    that _smaller_side_rows was called with."""
    builds = []
    rows = measures._smaller_side_rows

    def rows_spy(table, side):
        builds.append(len(side))
        return rows(table, side)

    with pytest.MonkeyPatch.context() as mp:
        if budget is not None:
            mp.setattr(measures, "MEMORY_BUDGET", budget)
        mp.setattr(measures, "_smaller_side_rows", rows_spy)
        mp.setattr(measures, "DEFAULT_MAX_ITER", max_iter)
        graph = SensitivityGraph(table)
        try:
            lam, _, steps = measures._lambda_matfree(graph, measures.DEFAULT_TOL)
        except ConvergenceError as exc:
            lam, steps = exc.best, max_iter + 1
    return lam, steps, builds


class TestMatrixFreeSlices:
    """Over MEMORY_BUDGET, each Gram step rebuilds B in consecutive runs of S
    that fit the budget, one row at the least, and iterates as the whole B
    does."""

    # a bound on the steps keeps the slowest tables short; a run that does
    # not converge is compared by its estimate after STEPS steps
    STEPS = 200

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_slices_iterate_as_the_whole_rows(self, data):
        n = data.draw(st.integers(2, 12))
        table = data.draw(random_tables(n))
        side = smaller_side(table)
        assume(len(side) > 0)
        whole = 12 * int(table.sensitivity_counts[side].sum()) + 4 * (len(side) + 1)
        # budget 0 builds one row per run, 2 |S| - 1 builds a step: kept to n <= 8
        budgets = [whole - 1, whole // 2, whole // 4] + [0] * (n <= 8)
        budget = data.draw(st.sampled_from(budgets))
        # with no input off S of degree 2 or more, B B^T is diagonal: no B
        diagonal = is_star_graph(table)
        lam, steps, builds = matrix_free_run(table, None, self.STEPS)
        assert builds == ([] if diagonal else [len(side)])
        got, got_steps, got_builds = matrix_free_run(table, budget, self.STEPS)
        assert got == pytest.approx(lam, rel=1e-12, abs=0)
        assert abs(got_steps - steps) <= 1
        if diagonal:
            assert got_builds == []
            return
        # each Gram step builds the runs of S forward, then back from the one
        # still held; they split S in two or more, and in runs of one row at
        # budget 0
        grams = min(got_steps, self.STEPS)
        runs = got_builds[:(len(got_builds) // grams + 1) // 2]
        assert sum(runs) == len(side) and len(runs) >= min(2, len(side))
        assert got_builds == (runs + runs[-2::-1]) * grams
        assert budget > 0 or set(runs) == {1}

    @pytest.mark.parametrize("budget", [1 << 20, 4 << 20])
    @pytest.mark.parametrize("n, p", [(16, 0.5), (18, 0.3)])
    def test_peak_within_budget_and_24_bytes_per_input(self, monkeypatch, n, p, budget):
        # B takes 3.3 MB at n = 16 (within 4 MiB) and 12.3 MB at n = 18; every
        # step allocates the same, so three show the peak
        table = TruthTable(n, (np.random.default_rng(n).random(1 << n) < p).astype(np.uint8))
        graph = SensitivityGraph(table)
        table.sensitivity_counts
        monkeypatch.setattr(measures, "MEMORY_BUDGET", budget)
        monkeypatch.setattr(measures, "DEFAULT_MAX_ITER", 3)

        def steps():
            with pytest.raises(ConvergenceError):
                measures._lambda_matfree(graph, 0.0)

        _, peak = TestMemoryBudget.traced(steps)
        assert peak <= budget + 24 * len(table)


def spy_calls(monkeypatch, names: list[str]) -> dict[str, int]:
    """Count, from now on, the calls of measures' functions and
    SensitivityGraph's methods named in names."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        owner = SensitivityGraph if hasattr(SensitivityGraph, name) else measures
        real = vars(owner)[name]
        if name == "_component_index":
            real = real.func

        def spy(*args, name=name, real=real, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, property(spy) if name == "_component_index" else spy)
    return calls


# every component a star centred on the smaller side
STAR_TABLES = {
    **{f"{name}{n}": lambda n=n, name=name: named_tables(n)[name]
       for name in ("and", "or") for n in range(1, 17)},
    "haf2": lambda: haf(2).table(),
    "chaf22": lambda: chaf([2, 2]).table(),
    "desens-address1": lambda: desensitize(address_fn(1), uc1(address_fn(1)).witness).table(),
    "desens-haf2": lambda: desensitize(haf(2), uc1(haf(2)).witness).table(),
}


@st.composite
def star_tables(draw):
    """A union of stars centred on the smaller side: a named table, or a
    random code of minimum distance 3 (its complement half the time), whose
    every non-member has at most one member as a neighbour."""
    if draw(st.booleans()):
        return STAR_TABLES[draw(st.sampled_from(sorted(STAR_TABLES)))]()
    n = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    near = np.array([0] + [1 << i | 1 << j for i in range(n) for j in range(i + 1)])
    vals = np.zeros(1 << n, dtype=np.uint8)
    free = np.ones(1 << n, dtype=bool)
    for x in rng.permutation(1 << n)[:draw(st.integers(1, 1 << n))]:
        if free[x]:
            vals[x] = 1
            free[x ^ near] = False
    return TruthTable(n, vals ^ np.uint8(draw(st.integers(0, 1))))


# the dense reference's 2^n x 2^n adjacency is built up to this many inputs
DENSE_REFERENCE_INPUTS = 1 << 10


class TestStarOperator:
    """When no input off the smaller side S has two neighbours, B B^T is
    diag(d_S): matrix-free iterates on it with no B, and the exact solve past
    arity 10 reads lambda as sqrt(max d_S) with no labels or index."""

    @staticmethod
    def reference(table: TruthTable) -> float:
        # past the dense reference's size, a union of stars K_1,d (as
        # is_star_graph checks) has lambda the square root of its top degree
        if len(table) <= DENSE_REFERENCE_INPUTS:
            return dense_reference_lambda(table)
        return math.sqrt(int(table.sensitivity_counts.max()))

    @pytest.mark.parametrize("name", list(STAR_TABLES))
    def test_tables_are_star_graphs(self, name):
        table = STAR_TABLES[name]()
        assert is_star_graph(table)
        d = SensitivityGraph(table)._star_degrees()
        assert np.array_equal(d, table.sensitivity_counts[smaller_side(table)])

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(table=star_tables())
    def test_diagonal_iterates_as_b(self, table):
        assert is_star_graph(table)
        diag = measures._lambda_matfree(SensitivityGraph(table), measures.DEFAULT_TOL)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(SensitivityGraph, "_star_degrees", lambda graph: None)
            calls = spy_calls(mp, ["_smaller_side_rows"])
            with_b = measures._lambda_matfree(SensitivityGraph(table), measures.DEFAULT_TOL)
        assert calls["_smaller_side_rows"] == 1
        assert diag[0] == pytest.approx(with_b[0], rel=1e-12, abs=0)
        assert abs(diag[2] - with_b[2]) <= 1
        assert diag[0] == pytest.approx(self.reference(table), abs=1e-9)

    @pytest.mark.parametrize("n", [3, 6, 9, 11])
    def test_one_larger_side_vertex_of_degree_two_builds_b(self, monkeypatch, n):
        # S is the 1-inputs 1, 2, 3; input 0 is their one common neighbour off S
        table = TruthTable(n, (np.isin(np.arange(1 << n), [1, 2, 3])).astype(np.uint8))
        degrees = table.sensitivity_counts
        assert np.array_equal(smaller_side(table), [1, 2, 3])
        assert degrees[0] == 2 and np.sort(degrees[table.values == 0])[-2] == 1
        assert SensitivityGraph(table)._star_degrees() is None
        lam, _, builds = matrix_free_run(table, None, measures.DEFAULT_MAX_ITER)
        assert builds == [3]
        ref = dense_reference_lambda(table)
        assert lam == pytest.approx(ref, abs=1e-6)
        # the components are a two-layer star (2, n - 1) centred on input 0 and
        # a star on input 3, so past arity 10 the exact solve reads the census
        # from the table, and up to it solves by parity class: neither builds
        # B nor labels
        assert SensitivityGraph(table).census() == {
            ("star", n - 2): 1, ("two-layer-star", 2, n - 1): 1}
        calls = spy_calls(monkeypatch, ["_smaller_side_rows", "_cc"])
        assert spectral_sensitivity(table, method="dense").value == pytest.approx(ref, abs=1e-9)
        assert calls == {"_smaller_side_rows": 0, "_cc": 0}

    @pytest.mark.parametrize("method", ["matrix-free", "dense", "component-wise"])
    @pytest.mark.parametrize("name", [f"{name}{n}" for name in ("and", "or") for n in range(9, 13)]
                             + ["chaf22", "desens-address1", "desens-haf2"])
    def test_star_tables_build_nothing(self, monkeypatch, method, name):
        table = STAR_TABLES[name]()
        assert table.arity >= 9
        calls = spy_calls(monkeypatch, ["_smaller_side_rows", "_cc", "_component_index"])
        res = spectral_sensitivity(table, method=method)
        assert calls == dict.fromkeys(calls, 0)
        assert res.method == method
        assert res.value == pytest.approx(self.reference(table), abs=1e-9)


def planted_forest(n: int, j_and: int, j_or: int, shift: int) -> TruthTable:
    """Stars and two-layer stars planted in two blocks 000 and 111 of three
    high bits, at distance 3, all else 0, XOR-shifted by shift. Every 1-input
    gains a leaf in each high direction. Block 000 holds AND of the first
    j_and low bits: stars K_1,(j_and + 3). Block 111 holds OR of the first
    j_or low bits: each of its 0-inputs centres a two-layer star
    (j_or, 4), and each 1-input with two of those bits set a star K_1,3."""
    low = np.arange(1 << (n - 3)) & ((1 << max(j_and, j_or)) - 1)
    vals = np.zeros((8, 1 << (n - 3)), dtype=np.uint8)
    vals[0b000] = (low & ((1 << j_and) - 1)) == (1 << j_and) - 1
    vals[0b111] = (low & ((1 << j_or) - 1)) != 0
    return TruthTable(n, vals.reshape(-1)[np.arange(1 << n) ^ shift])


class TestCensusFromTheTable:
    """The census read from the table equals the census by labels where the
    tally's code needs more than a byte and where the passes take slabs."""

    def test_code_past_a_byte(self):
        # two-layer stars (14, 4) at n = 18: 14 * 19 + 4 = 270 would wrap
        graph = SensitivityGraph(planted_forest(18, 2, 14, 0x2F5))
        census = measures._census_from_table(graph.table)
        assert census[("two-layer-star", 14, 4)] > 0 and 14 * 19 + 4 > 255
        assert census == graph._census_by_labels()

    def test_forest_past_one_block(self, monkeypatch):
        graph = SensitivityGraph(planted_forest(20, 6, 3, 0x2F5))
        graph.table.sensitivity_counts  # the scan takes slabs too
        seen = slab_spy(monkeypatch)
        census = measures._census_from_table(graph.table)
        assert any(seen)
        assert census == graph._census_by_labels()
        assert {k[0] for k in census} == {"star", "two-layer-star"}


# tables whose lambda^2 is read from the shapes: STAR_TABLES past the
# class-solve arity (desens-haf2 has arity 15), chaf(2,2) at arity 10,
# tradeoff(2;2) at 13, and planted forests at 11..14
SHAPE_TABLES = {
    **{name: STAR_TABLES[name] for name in [
        *(f"{name}{n}" for name in ("and", "or") for n in range(11, 17)), "desens-haf2"]},
    "chaf22": STAR_TABLES["chaf22"],
    "tradeoff22": lambda: tradeoff([2], [2]).table(),
    **{f"planted{n}-{ja}-{jo}": lambda n=n, ja=ja, jo=jo: planted_forest(n, ja, jo, 0x2F5)
       for n in range(11, 15) for ja, jo in [(2, 5), (6, 3)]},
}


class TestShapeLambda:
    """SensitivityGraph._shape_lambda_sq, the one rule for lambda without B,
    equals the exact solve by components, and auto solves exactly when it
    applies or the arity is at most 13."""

    @pytest.mark.parametrize("name", list(SHAPE_TABLES))
    def test_equals_the_component_solve(self, monkeypatch, name):
        table = SHAPE_TABLES[name]()
        lam_sq = SensitivityGraph(table)._shape_lambda_sq
        assert lam_sq is not None
        # chaf(2,2) is under the class-solve arity: grouped by component too
        monkeypatch.setattr(measures, "_CLASS_SOLVE_ARITY", 0)
        monkeypatch.setattr(SensitivityGraph, "_shape_lambda_sq", property(lambda graph: None))
        calls = spy_calls(monkeypatch, ["_cc"])
        by_components = measures._lambda_exact(SensitivityGraph(table))
        assert calls["_cc"] == 1
        assert math.sqrt(lam_sq) == pytest.approx(by_components, abs=1e-12, rel=0)

    @pytest.mark.parametrize("n, j_and, j_or, want", [(11, 2, 5, 8), (14, 6, 3, 9)])
    def test_planted_forest_reads_the_census(self, n, j_and, j_or, want):
        graph = SensitivityGraph(planted_forest(n, j_and, j_or, 0x2F5))
        assert graph._star_degrees() is None
        assert {k[0] for k in graph._table_census} == {"star", "two-layer-star"}
        assert graph._shape_lambda_sq == want

    def test_stars_never_run_the_census(self, monkeypatch):
        calls = spy_calls(monkeypatch, ["_census_from_table"])
        assert SensitivityGraph(STAR_TABLES["and16"]())._shape_lambda_sq == 16
        assert calls["_census_from_table"] == 0

    @pytest.mark.parametrize("name", [*SHAPE_TABLES, "random13", "random14"])
    def test_auto_is_exact_when_small_or_read_from_shapes(self, monkeypatch, name):
        if name.startswith("random"):
            n = int(name[6:])
            table = TruthTable(n, np.random.default_rng(n).integers(0, 2, 1 << n, dtype=np.uint8))
        else:
            table = SHAPE_TABLES[name]()
        graph = SensitivityGraph(table)
        exact = table.arity <= 13 or graph._shape_lambda_sq is not None
        # the solvers themselves are not run: only the choice is checked
        monkeypatch.setattr(measures, "_lambda_exact", lambda graph: 0.0)
        monkeypatch.setattr(measures, "_lambda_matfree", lambda graph, tol: (0.0, 0.0, 0))
        method = spectral_sensitivity(graph).method
        assert method == ("dense" if exact else "matrix-free")
        assert exact == (name != "random14")


class TestTwoLayerStar:
    def test_closed_form_matches_dense(self):
        for a in range(1, 7):
            for b in range(1, 7):
                adj = two_layer_star_adjacency(a, b)
                lam = float(np.linalg.eigvalsh(adj)[-1])
                assert two_layer_star_lambda(a, b) == pytest.approx(
                    lam, abs=1e-9
                )

    def test_validation(self):
        with pytest.raises(ValueError):
            two_layer_star_lambda(0, 3)
        with pytest.raises(TypeError):
            two_layer_star_lambda(2.5, 3)


class TestReports:
    def test_report_key_order(self, and2):
        report = compute_measures(and2, ["s0", "s1"], source="and2")
        d = report.to_dict()
        assert list(d.keys()) == [
            "source",
            "arity",
            "tolerance",
            "runtime",
            "entries",
        ]
        assert list(d["entries"][0].keys()) == [
            "name",
            "value",
            "exact",
            "witness",
            "witness_bits",
            "method",
            "skipped",
        ]

    def test_all_measures_on_and2(self, and2):
        report = compute_measures(
            and2, ["s0", "s1", "s", "c0", "c1", "uc1", "deg", "lambda"]
        )
        by_name = {e.name: e for e in report.entries}
        assert by_name["s0"].value == 1
        assert by_name["s1"].value == 2
        assert by_name["s"].value == 2
        assert by_name["c0"].value == 1
        assert by_name["c1"].value == 2
        assert by_name["uc1"].value == 2
        assert by_name["deg"].value == 2
        assert by_name["lambda"].value == pytest.approx(math.sqrt(2))
        assert by_name["lambda"].exact
        assert by_name["s1"].witness_bits == "11"

    def test_c0_c1_report_matches_separate_calls(self):
        rng = np.random.default_rng(0)
        fns = [chaf([2, 2]), maf(3), address_fn(2)] + [
            TruthTable(n, (rng.random(1 << n) < p).astype(np.uint8))
            for n in (1, 4, 7, 9)
            for p in (0.0, 0.5, 1.0)
        ]
        for fn in fns:
            expected = [c0(fn), c1(fn)]
            report = compute_measures(fn, ["c0", "c1"])
            got = [(e.value, e.witness) for e in report.entries]
            assert got == [(r.value, r.witness) for r in expected]

    def test_uc1_exhausted_is_a_skip(self, monkeypatch):
        # maf(3) needs 12 nodes below codimension n-1; at budget 1 the second stops it
        monkeypatch.setattr(measures, "UC_NODE_BUDGET", 1)
        (entry,) = compute_measures(maf(3), ["uc1"]).entries
        assert (entry.value, entry.exact, entry.method) == (None, False, "exact-cover")
        assert entry.skipped == "exhausted after 2 nodes (lower bound 4)"

    def test_cap_produces_skip_not_crash(self):
        f = haf(3)
        report = compute_measures(f, ["s0", "uc1"])
        by_name = {e.name: e for e in report.entries}
        assert by_name["s0"].value == 1
        assert by_name["uc1"].skipped is not None
        assert by_name["uc1"].value is None

    def test_unknown_measure(self, and2):
        with pytest.raises(ValueError):
            compute_measures(and2, ["zz"])

    def test_no_measure_named(self, and2):
        # an empty list printed a report with no entries
        with pytest.raises(ValueError, match="no measure named; valid: s0, s1, s, deg, lambda"):
            compute_measures(and2, [])

    def test_unknown_measure_rejected_before_any_is_computed(self, and2, monkeypatch):
        calls = []
        real = measures.s0
        monkeypatch.setattr(measures, "s0", lambda *a, **k: calls.append(a) or real(*a, **k))
        with pytest.raises(ValueError, match="zz"):
            compute_measures(and2, ["s0", "zz"])
        assert calls == []

    def test_json_text_is_pinned(self, and2):
        report = compute_measures(
            and2, ["s0", "deg", "uc1", "lambda"], method="dense", source="and2"
        )
        report.runtime = 0.125
        report.entries.append(MeasureEntry("c1", None, None, skipped="cap: test"))
        entry = (
            '    {{\n      "name": "{}",\n      "value": {},\n      "exact": {},\n'
            '      "witness": {},\n      "witness_bits": {},\n      "method": {},\n'
            '      "skipped": {}\n    }}'
        )
        entries = [
            entry.format("s0", 1, "true", 1, '"01"', '"scan"', "null"),
            entry.format("deg", 2, "true", "null", "null", '"mobius"', "null"),
            entry.format("uc1", 2, "true", "null", "null", '"exact-cover"', "null"),
            entry.format(
                "lambda", "1.4142135623730951", "true", "null", "null", '"dense"', "null"
            ),
            entry.format("c1", "null", "null", "null", "null", "null", '"cap: test"'),
        ]
        assert report.to_json() == (
            '{\n  "source": "and2",\n  "arity": 2,\n  "tolerance": 1e-09,\n'
            '  "runtime": 0.125,\n  "entries": [\n'
            + ",\n".join(entries)
            + "\n  ]\n}"
        )

    def test_json_round_trip(self, and2):
        import json

        report = compute_measures(and2, ["s1", "lambda"])
        text = report.to_json()
        parsed = json.loads(text)
        assert parsed["arity"] == 2
        assert parsed["entries"][0]["name"] == "s1"


# every measure that takes a cap, called on table t with cap c
CAPPED_MEASURES = {
    "s0": lambda t, c: s0(t, cap=c),
    "s1": lambda t, c: s1(t, cap=c),
    "s": lambda t, c: s(t, cap=c),
    "degree": lambda t, c: degree(t, cap=c),
    "mobius_coefficients": lambda t, c: mobius_coefficients(t, cap=c),
    "SensitivityGraph": lambda t, c: SensitivityGraph(t, cap=c),
    "c0": lambda t, c: c0(t, cap=c),
    "c1": lambda t, c: c1(t, cap=c),
    "certificate_complexity_at": lambda t, c: certificate_complexity_at(t, 0, cap=c),
    "uc1": lambda t, c: uc1(t, cap=c),
}


class TestOneCapRule:
    """Every measure refuses an input one past the cap it is passed, a table
    and the function wrapping it alike, with one message and before any
    per-axis pass runs."""

    CAP = 4
    MESSAGES = {
        "certificate_complexity_at": "certificate search capped at arity 4, got 5",
        "uc1": "exact cover search capped at arity 4, got 5",
    }

    @pytest.mark.parametrize("name", list(CAPPED_MEASURES))
    def test_table_and_function_refused_alike(self, monkeypatch, name):
        passes = []
        for mod in (core, measures):
            real = mod.axis_blocks
            monkeypatch.setattr(mod, "axis_blocks",
                                lambda *a, real=real: passes.append(a) or real(*a))
        rng = np.random.default_rng(self.CAP)
        table = TruthTable(self.CAP + 1, rng.integers(0, 2, 1 << self.CAP + 1, dtype=np.uint8))
        messages = []
        for fn in (table, BooleanFunction.from_table(table)):
            with pytest.raises(CapExceeded) as exc:
                CAPPED_MEASURES[name](fn, self.CAP)
            messages.append(str(exc.value))
        want = self.MESSAGES.get(name, "arity 5 exceeds materialization cap 4")
        assert messages == [want, want]
        assert passes == []
