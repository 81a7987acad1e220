import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sensilab import measures
from sensilab import (
    BooleanFunction,
    CapExceeded,
    ConvergenceError,
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

    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("bit", [0, 1])
    def test_constant_side(self, n, bit):
        t = TruthTable(n, np.full(1 << n, bit, dtype=np.uint8))
        # like s0/s1: no witness only on the side with no inputs
        for b, (cert_side, sens_side) in enumerate([(c0, s0), (c1, s1)]):
            want = (0, 0) if b == bit else (0, None)
            assert cert_side(t) == want == sens_side(t)

    @pytest.mark.parametrize("side", [c0, c1])
    def test_cap_applies_before_any_work(self, side):
        # neither side builds the 3^17 subcube array, whichever is empty
        t = TruthTable(17, np.ones(1 << 17, dtype=np.uint8))
        with pytest.raises(CapExceeded, match="certificate search capped at arity 16"):
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

    def test_budget_exhaustion(self):
        f = haf(2)
        res = uc1(f, node_budget=1)
        assert res.status == "exhausted"
        assert res.value is None
        assert res.lower_bound >= 1

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

    # status, value, lower bound, nodes and witness (mask, value) pairs; equal
    # node counts mean the search tries candidates in (codim, mask, value) order
    PINNED = {
        "haf(2)": ("exact", 4, 4, 3, [(15, 8), (23, 23)]),
        "maf(3)": ("exact", 4, 4, 40,
                   [(3, 3), (7, 5), (7, 6), (15, 9), (23, 18), (39, 36)]),
        "address(2)": ("exact", 3, 3, 5, [(7, 4), (11, 9), (19, 18), (35, 35)]),
        5: ("exact", 5, 5, 24, [(26, 0), (23, 3), (31, 6), (31, 9), (15, 10),
                                (31, 15), (23, 20), (31, 24)]),
        6: ("exact", 6, 6, 405311,
            [(35, 1), (31, 11), (61, 12), (29, 16), (27, 19), (31, 22), (63, 24),
             (59, 27), (63, 30), (59, 32), (59, 35), (47, 37), (63, 42), (63, 47),
             (63, 49), (55, 52)]),
        7: ("exhausted", None, 6, 1000001, None),
        8: ("exhausted", None, 7, 1000001, None),
    }

    @pytest.mark.parametrize("key", list(PINNED))
    def test_pinned_search(self, key):
        if isinstance(key, int):
            rng = np.random.default_rng([0, key])
            fn = TruthTable(key, rng.integers(0, 2, 1 << key, dtype=np.uint8))
        else:
            fn = {"haf(2)": haf(2), "maf(3)": maf(3), "address(2)": address_fn(2)}[key]
        res = uc1(fn)
        members = None if res.witness is None else [
            (m.mask, m.value) for m in res.witness.certificates
        ]
        got = (res.status, res.value, res.lower_bound, res.nodes, members)
        assert got == self.PINNED[key]


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

    def test_maf_degree_at_least_k(self):
        for k in (2, 3, 4):
            assert degree(maf(k)) >= k


class TestSensitivityGraph:
    def test_and2_edges(self, and2):
        g = SensitivityGraph(and2)
        assert g.edge_count() == 2
        assert g.edges().tolist() == [[0b01, 0b11], [0b10, 0b11]]
        assert g.has_edge(0b01, 0b11)
        assert not g.has_edge(0b00, 0b01)

    def test_degrees_match_sensitivities(self, parity3):
        g = SensitivityGraph(parity3)
        counts = g.degree_counts()
        assert all(
            counts[x] == sensitivity_at(parity3, x) for x in range(8)
        )

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


class TestClassify:
    def test_star(self, or2):
        comp = SensitivityGraph(or2).components()[0]
        assert classify_component(comp) == ("star", (2,))

    def test_two_layer_star(self):
        adj = two_layer_star_adjacency(3, 4)
        n_vertices = adj.shape[0]
        edges = np.array(
            [
                (i, j)
                for i in range(n_vertices)
                for j in range(i + 1, n_vertices)
                if adj[i, j]
            ]
        )
        from sensilab.measures import Component

        comp = Component(np.arange(n_vertices), edges)
        assert classify_component(comp) == ("two-layer-star", (3, 4))

    def test_cycle_is_other(self):
        from sensilab.measures import Component

        comp = Component(
            np.arange(4), np.array([(0, 1), (1, 2), (2, 3), (0, 3)])
        )
        assert classify_component(comp) == ("other", ())

    def test_single_edge_is_star(self):
        from sensilab.measures import Component

        comp = Component(np.arange(2), np.array([(0, 1)]))
        assert classify_component(comp) == ("star", (1,))


class TestGraphExport:
    def test_edges_text(self, and2):
        assert graph_edges_text(SensitivityGraph(and2)) == "01 11\n10 11\n"

    def test_dot_text(self, and2):
        text = graph_dot_text(SensitivityGraph(and2))
        assert text.startswith("graph sensitivity {\n")
        assert '  "01" -- "11";\n' in text
        assert text.endswith("}\n")

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

    def test_convergence_error_carries_best(self):
        f = chaf([2, 2])
        with pytest.raises(ConvergenceError) as exc:
            spectral_sensitivity(f, method="matrix-free", max_iter=1)
        assert exc.value.best is not None

    def test_auto_prefers_dense_when_small(self, and2):
        assert spectral_sensitivity(and2).method == "dense"

    def test_auto_switches_above_arity_13(self):
        for n, method in ((13, "dense"), (14, "matrix-free")):
            const = TruthTable(n, np.zeros(1 << n, dtype=np.uint8))
            res = spectral_sensitivity(const)
            assert (res.method, res.value) == (method, 0.0)

    def test_matrix_free_without_sparse_matrix(self, monkeypatch):
        f = chaf([2, 2])
        exact = spectral_sensitivity(f, method="dense").value
        monkeypatch.setattr(measures, "MEMORY_BUDGET", 1000)
        with pytest.raises(CapExceeded, match="sparse adjacency"):
            SensitivityGraph(f).adjacency()
        free = spectral_sensitivity(f, method="matrix-free", tol=1e-9)
        assert free.value == pytest.approx(exact, abs=1e-6)

    def test_exact_solve_refuses_oversized_component(self, monkeypatch):
        xs = np.arange(64, dtype=np.uint64)
        parity6 = TruthTable(6, np.bitwise_count(xs).astype(np.uint8) & 1)
        # the sparse matrix (under 5 kB) fits, the 64 x 64 block does not
        monkeypatch.setattr(measures, "MEMORY_BUDGET", 10_000)
        with pytest.raises(CapExceeded, match="component with 64 vertices"):
            spectral_sensitivity(parity6, method="component-wise")

    def test_empty_graph(self):
        res = spectral_sensitivity(table_fn([0, 0, 0, 0]), method="dense")
        assert res.value == 0.0

    def test_bad_method(self, and2):
        with pytest.raises(ValueError):
            spectral_sensitivity(and2, method="nope")


def dense_reference_lambda(table: TruthTable) -> float:
    """Largest eigenvalue of the full n x n adjacency, built independently of
    SensitivityGraph."""
    xs = np.arange(1 << table.arity)
    a = np.zeros((len(xs), len(xs)))
    for i in range(table.arity):
        ys = xs ^ (1 << i)
        a[xs, ys] = table.values != table.values[ys]
    return float(np.linalg.eigvalsh(a)[-1])


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

    @pytest.mark.parametrize("n", range(2, 11))
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
            "seed",
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

    def test_json_round_trip(self, and2):
        import json

        report = compute_measures(and2, ["s1", "lambda"])
        text = report.to_json()
        parsed = json.loads(text)
        assert parsed["arity"] == 2
        assert parsed["entries"][0]["name"] == "s1"
