import dataclasses
import json
import math
import re
import time

import numpy as np
import pytest

from sensilab import measures
from sensilab import verify as verify_mod
from sensilab import (
    BooleanFunction,
    CapExceeded,
    TruthTable,
    address_fn,
    all_pass,
    chaf,
    claims_to_csv,
    claims_to_json,
    desensitize,
    haf,
    maf,
    s0,
    s1,
    tradeoff,
    verify_desensitization,
    verify_edge_bound,
    verify_lemma_chain,
    verify_lemma_chain_random,
    verify_maf_proposition,
    verify_simon,
    verify_subgraph_lemma,
    verify_theorem1,
    verify_tradeoff,
)
from sensilab.constructions import FAMILIES
from sensilab.verify import ClaimResult, _passes


class TestPasses:
    def test_exact(self):
        assert _passes(3, 3, "exact", 0)
        assert not _passes(3, 4, "exact", 0)

    def test_le_ge(self):
        assert _passes(5, 4, "le", 0)
        assert not _passes(5, 6, "le", 0)
        assert _passes(2.9, 3.0, "ge", 0)
        assert not _passes(2.9, 2.8, "ge", 0)

    def test_within_tol(self):
        assert _passes(2.0, 2.0 + 1e-10, "within-tol", 1e-9)
        assert not _passes(2.0, 2.1, "within-tol", 1e-9)


class TestClaimTolerance:
    """The suites hold claims to the module's two tolerances and take none."""

    def test_tolerances(self, and2):
        assert (verify_mod.CLAIM_TOL, verify_mod.EXACT_TOL) == (1e-6, 1e-9)
        rows = verify_lemma_chain(and2, name="and2")
        rows += verify_lemma_chain_random(arities=[4], count=2)
        assert {c.tolerance for c in rows} == {verify_mod.CLAIM_TOL}

    @pytest.mark.parametrize("suite, args", [
        (verify_theorem1, (2,)),
        (verify_lemma_chain, (None,)),
        (verify_lemma_chain_random, ()),
        (verify_desensitization, (None, None)),
        (verify_tradeoff, ([2], [2])),
        (verify_maf_proposition, (2,)),
    ])
    def test_suites_take_no_tol(self, suite, args):
        with pytest.raises(TypeError, match="tol"):
            suite(*args, tol=1e-3)


class TestTheorem1:
    def test_r2_passes_with_expected_claims(self):
        claims = verify_theorem1(2)
        assert all_pass(claims)
        ids = [c.claim for c in claims]
        assert ids == [
            "thm1.arity",
            "thm1.arity_bound",
            "thm1.s0",
            "thm1.s1",
            "thm1.nondegenerate",
            "thm1.lambda",
        ]
        by_id = {c.claim: c for c in claims}
        assert by_id["thm1.arity"].computed == 5
        assert by_id["thm1.s0"].computed == 1
        assert by_id["thm1.s1"].computed == 4
        assert by_id["thm1.lambda"].computed == pytest.approx(2.0, abs=1e-9)

    def test_r2_uses_dense_solver(self):
        claims = verify_theorem1(2)
        lam = next(c for c in claims if c.claim == "thm1.lambda")
        assert "dense" in lam.note

    @pytest.mark.parametrize(
        "method, tol",
        [("dense", 1e-9), ("component-wise", 1e-9), ("analytic", 1e-9), ("matrix-free", 1e-6)],
    )
    def test_exact_methods_get_the_tight_tolerance(self, monkeypatch, method, tol, or2, or2_certs):
        claims = verify_theorem1(2, lambda_method=method)
        claims += verify_tradeoff([2], [2], lambda_method=method)
        # the desens and maf suites pick their own solver: relabel its result
        solve = verify_mod.spectral_sensitivity
        monkeypatch.setattr(
            verify_mod,
            "spectral_sensitivity",
            lambda *a, **k: dataclasses.replace(solve(*a, **k), method=method),
        )
        claims += verify_desensitization(or2, or2_certs, name="or2")
        claims += verify_maf_proposition(2)
        lams = [c for c in claims if c.claim.endswith(".lambda")]
        assert [c.claim for c in lams] == [
            "thm1.lambda", "thm3.lambda", "desens.or2.lambda", "maf.k2.lambda"
        ]
        for c in lams:
            assert (c.tolerance, c.status) == (tol, "pass")
            assert c.note.rpartition("; ")[2].startswith(f"method={method}, residual=")

    def test_rejects_large_r(self):
        # haf(4) and haf(5) are built; their first computed row is over the table cap
        for r in (4, 5):
            with pytest.raises(CapExceeded, match="cap 26"):
                verify_theorem1(r)


class TestSimon:
    def test_n2_min_is_three(self):
        claims = verify_simon(2)
        by_id = {c.claim: c for c in claims}
        assert by_id["thm2.n2"].status == "pass"
        assert by_id["thm2.n2"].computed == 3
        assert by_id["thm2.n2.branch"].computed == 0
        assert by_id["thm2.n2.min"].predicted == 3

    def test_n3(self):
        claims = verify_simon(3)
        by_id = {c.claim: c for c in claims}
        assert by_id["thm2.n3"].computed == 4
        assert by_id["thm2.n3"].predicted == pytest.approx(
            math.log2(3) - math.log2(math.log2(3)) + 2
        )
        assert by_id["thm2.n3.branch"].computed == 0

    def test_n4(self):
        claims = verify_simon(4)
        by_id = {c.claim: c for c in claims}
        assert by_id["thm2.n4"].computed == 4
        assert by_id["thm2.n4"].predicted == 3.0
        assert all_pass(claims)

    # every field of every row but runtime
    PINNED = {
        2: [
            ("thm2.n2", 3.0, 3, "ge", "pass",
             "10 non-degenerate tables of 16; zero below the bound (0 violations); "
             "minimum attained by table 0x1; n=1 excluded (log log 1 undefined)"),
            ("thm2.n2.branch", 0, 0, "exact", "pass",
             "tables with s > log n all satisfy the bound outright"),
            ("thm2.n2.min", 3, 3, "exact", "pass",
             "minimum 3 attained, e.g. by NOR (table 0x1)"),
        ],
        3: [
            ("thm2.n3", 2.920513793267, 4, "ge", "pass",
             "218 non-degenerate tables of 256; zero below the bound (0 violations); "
             "minimum attained by table 0x1; n=1 excluded (log log 1 undefined)"),
            ("thm2.n3.branch", 0, 0, "exact", "pass",
             "tables with s > log n all satisfy the bound outright"),
        ],
        4: [
            ("thm2.n4", 3.0, 4, "ge", "pass",
             "64594 non-degenerate tables of 65536; zero below the bound (0 violations); "
             "minimum attained by table 0x357; n=1 excluded (log log 1 undefined)"),
            ("thm2.n4.branch", 0, 0, "exact", "pass",
             "tables with s > log n all satisfy the bound outright"),
        ],
    }

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_pinned_rows(self, n):
        rows = [(c.claim, c.predicted, c.computed, c.mode, c.status, c.note)
                for c in verify_simon(n)]
        assert rows == self.PINNED[n]

    def test_n2_min_note_names_its_table(self):
        (row,) = [c for c in verify_simon(2) if c.claim == "thm2.n2.min"]
        hex_digits = re.search(r"table 0x([0-9a-f]+)", row.note).group(1)
        table = TruthTable(2, np.array([(int(hex_digits, 16) >> x) & 1 for x in range(4)],
                                       dtype=np.uint8))
        fn = BooleanFunction.from_table(table)
        assert fn.is_nondegenerate()
        assert s0(fn).value + s1(fn).value == 3
        # table 0x1 is 1 only at input 00
        assert "NOR" in row.note and table.values.tolist() == [1, 0, 0, 0]

    def test_threads_keyword_is_gone(self):
        with pytest.raises(TypeError):
            verify_simon(2, threads=2)

    def test_notes_record_census(self):
        claims = verify_simon(2)
        main = next(c for c in claims if c.claim == "thm2.n2")
        assert "non-degenerate" in main.note
        assert "violations" in main.note

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            verify_simon(1)
        with pytest.raises(ValueError):
            verify_simon(5)


class TestSubgraph:
    def test_exhaustive_small(self):
        for n in (2, 3, 4):
            claims = verify_subgraph_lemma(n)
            assert len(claims) == 1
            assert claims[0].claim == f"sub.n{n}"
            assert claims[0].computed == 0
            assert claims[0].status == "pass"
            assert claims[0].note == (
                f"all {(1 << (1 << n)) - 1} non-empty induced subgraphs of the {n}-cube")

    def test_sampled_is_deterministic(self):
        a = verify_subgraph_lemma(6, samples=2000, seed=42)
        b = verify_subgraph_lemma(6, samples=2000, seed=42)
        assert a[0].computed == b[0].computed == 0
        assert a[0].note == b[0].note

    def test_rejects_oversize(self):
        with pytest.raises(ValueError):
            verify_subgraph_lemma(21)

    def test_draws_are_refused_over_budget_before_any_draw(self, monkeypatch):
        def no_draws(*args):
            raise AssertionError("sampled past the draw budget")

        monkeypatch.setattr(verify_mod, "_subgraph_sampled", no_draws)
        with pytest.raises(ValueError, match="--samples 100000 at --n 20"):
            verify_subgraph_lemma(20)
        with pytest.raises(ValueError, match="--samples 65537 at --n 13"):
            verify_subgraph_lemma(13, samples=(verify_mod.SUBGRAPH_DRAW_BUDGET >> 13) + 1)
        # criterion 4's largest run, and the CLI contract's, stay inside it
        assert 100_000 << 8 <= verify_mod.SUBGRAPH_DRAW_BUDGET
        assert 1_000 << 10 <= verify_mod.SUBGRAPH_DRAW_BUDGET


class TestEdgeBound:
    def test_parity_is_tight(self, parity3):
        claims = verify_edge_bound(parity3, name="parity3")
        assert claims[0].claim == "edge.parity3"
        assert claims[0].computed == 12
        assert claims[0].predicted == 12  # s * 2^(n-1)
        assert claims[0].status == "pass"

    def test_and2(self, and2):
        claims = verify_edge_bound(and2, name="and2")
        assert claims[0].computed == 2
        assert claims[0].predicted == 4
        assert claims[0].status == "pass"


class TestLemmaChain:
    def test_and2_chain(self, and2):
        claims = verify_lemma_chain(and2, name="and2")
        assert all_pass(claims)
        ids = {c.claim for c in claims}
        assert ids == {
            "chain.and2.sqrt_s_le_lambda",
            "chain.and2.lambda_le_sqrt_s0s1",
            "chain.and2.deg_le_lambda_sq",
        }

    def test_random_batch_has_no_violations(self):
        claims = verify_lemma_chain_random(
            arities=range(4, 6), count=50, seed=9
        )
        assert all_pass(claims)
        assert [c.claim for c in claims] == [
            "chain.random.n4",
            "chain.random.n5",
        ]
        assert all(c.computed == 0 for c in claims)
        assert all("slack" in c.note for c in claims)

    def test_random_notes_are_pinned(self):
        # the worst slack of 50 tables per arity, to the digit: a cheap guard
        # that the exact solve keeps lambda bit for bit (n = 4 reads a
        # rounding of lambda's last bits)
        claims = verify_lemma_chain_random(arities=range(4, 11), count=50)
        assert [c.note.rpartition(" ")[2] for c in claims] == [
            "4.441e-16", "-4.322e-01", "-6.403e-01", "-1.022e+00",
            "-1.652e+00", "-2.057e+00", "-2.463e+00",
        ]
        assert all(c.note.startswith("50 random tables, seed 0x5eed,") for c in claims)

    def test_random_counts_violations(self, monkeypatch):
        # lambda + 1 breaks lambda <= sqrt(s0 s1) on each of these tables
        real = verify_mod.spectral_sensitivity
        monkeypatch.setattr(verify_mod, "spectral_sensitivity", lambda table, **kw: (
            dataclasses.replace(real(table, **kw), value=real(table, **kw).value + 1)))
        (claim,) = verify_lemma_chain_random(arities=[4], count=20)
        assert (claim.status, claim.predicted, claim.computed) == ("fail", 0, 20)
        assert float(claim.note.rpartition(" ")[2]) > 0

    def test_random_is_seeded(self):
        a = verify_lemma_chain_random(arities=[4], count=20, seed=5)
        b = verify_lemma_chain_random(arities=[4], count=20, seed=5)
        assert a[0].note == b[0].note

    def test_rejects_empty_arities(self):
        # no arity means no claim, and an empty claim list would pass
        with pytest.raises(ValueError, match="at least one arity"):
            verify_lemma_chain_random(arities=(), count=5)


class TestDesensitization:
    def test_or2(self, or2, or2_certs):
        claims = verify_desensitization(or2, or2_certs, name="or2")
        assert all_pass(claims)
        by_id = {c.claim: c for c in claims}
        assert by_id["desens.or2.s0"].computed == 1
        assert by_id["desens.or2.s1"].computed == 6
        assert by_id["desens.or2.lambda"].computed == pytest.approx(
            math.sqrt(6), abs=1e-6
        )
        assert by_id["desens.or2.uc1"].computed == 6
        assert by_id["desens.or2.uc1"].predicted == 6  # 3 * UC1 of the base
        assert by_id["desens.or2.uc1"].mode == "le"

    def test_dictator(self):
        from sensilab import BooleanFunction, CertificateCollection, PartialAssignment

        d = BooleanFunction(1, lambda x: x & 1, name="x1")
        certs = CertificateCollection(
            1, (PartialAssignment.from_string("1"),), unambiguous=True
        )
        claims = verify_desensitization(d, certs, name="x1")
        assert all_pass(claims)
        by_id = {c.claim: c for c in claims}
        assert by_id["desens.x1.s1"].computed == 3

    def test_uc1_past_the_exact_cap_is_skipped(self):
        from sensilab import BooleanFunction, CertificateCollection, PartialAssignment

        and3 = BooleanFunction(3, lambda x: int(x == 7), name="and3")
        certs = CertificateCollection(
            1, (PartialAssignment.from_string("111"),), unambiguous=True
        )
        claims = verify_desensitization(and3, certs, name="and3")
        assert all_pass(claims)
        uc = claims[-1]
        assert uc.claim == "desens.and3.uc1" and uc.status == "skipped"
        assert uc.computed is None
        assert uc.note == "uc1 refused: exact cover search capped at arity 8, got 9"

    def test_or7_decision_list(self):
        # OR_7's 1-inputs split by their lowest set bit: max codim 7, s1 21
        from sensilab import CertificateCollection, PartialAssignment

        or7 = BooleanFunction.from_table(
            TruthTable(7, (np.arange(1 << 7) != 0).astype(np.uint8)), name="or7")
        certs = CertificateCollection(1, tuple(
            PartialAssignment.from_string("0" * i + "1" + "*" * (6 - i)) for i in range(7)),
            unambiguous=True)
        claims = verify_desensitization(or7, certs)
        assert all_pass(claims)
        by_id = {c.claim: c for c in claims}
        assert by_id["desens.or7.s1"].computed == 21
        lam = by_id["desens.or7.lambda"]
        assert lam.status == "pass" and lam.tolerance == 1e-9
        assert lam.computed == pytest.approx(math.sqrt(21), abs=1e-9)
        uc = by_id["desens.or7.uc1"]
        assert uc.status == "skipped"
        assert uc.note == "uc1 refused: exact cover search capped at arity 8, got 21"

    def test_rejects_oversize(self):
        f = chaf([2, 2])  # arity 10, tripled 30, past the table cap
        claims_needed = f.meta.certificates
        with pytest.raises(CapExceeded, match="arity 30 exceeds materialization cap 26"):
            verify_desensitization(f, claims_needed, name="big")


class TestTradeoffSuite:
    def test_chaf_only_profile(self):
        claims = verify_tradeoff([2], [])
        assert all_pass(claims)
        by_id = {c.claim: c for c in claims}
        assert by_id["thm3.arity"].computed == 5
        assert by_id["thm3.s0"].computed == 1
        assert by_id["thm3.s1"].computed == 4
        assert by_id["thm3.lambda"].computed == pytest.approx(2.0, abs=1e-6)
        assert by_id["thm3.census"].computed == 0
        assert "thm3.fig1" not in by_id  # needs an inner stage

    def test_two_codes_profile(self):
        claims = verify_tradeoff([2, 2], [])
        assert all_pass(claims)
        by_id = {c.claim: c for c in claims}
        assert by_id["thm3.arity"].computed == 10
        assert by_id["thm3.s1"].computed == 7
        assert by_id["thm3.lambda"].computed == pytest.approx(
            math.sqrt(7), abs=1e-6
        )

    def test_census_notes_shapes(self):
        claims = verify_tradeoff([2], [])
        census = next(c for c in claims if c.claim == "thm3.census")
        assert "star" in census.note

    def test_census_runs_above_arity_16(self):
        claims = verify_tradeoff([2, 2, 2], [])
        by_id = {c.claim: c for c in claims}
        assert by_id["thm3.arity"].computed == 17
        assert by_id["thm3.census"].computed == 0
        assert by_id["thm3.census"].note == "component shapes: 1024 x ('star', 10)"
        assert all_pass(claims)

    def test_census_left_out_when_the_graph_is_over_budget(self, monkeypatch):
        # tradeoff(2;2)'s census from the table counts 8 bytes for each of its
        # 8192 inputs, and its adjacency takes 110 kB. The exact solve reads
        # the same census or index, and matrix-free's B counts 430 kB, so
        # only the closed form gives lambda under this budget
        monkeypatch.setattr(measures, "MEMORY_BUDGET", measures.CENSUS_BYTES_PER_INPUT * 8192 - 1)
        with pytest.raises(CapExceeded, match="^matrix-free B needs over"):
            verify_tradeoff([2], [2])
        claims = verify_tradeoff([2], [2], lambda_method="analytic")
        by_id = {c.claim: c for c in claims}
        assert list(by_id) == [
            "thm3.arity", "thm3.s0", "thm3.s1", "thm3.lambda", "thm3.census", "thm3.fig1"
        ]
        for name in ("thm3.census", "thm3.fig1"):
            assert by_id[name].status == "skipped" and by_id[name].computed is None
            assert by_id[name].note.startswith("census refused: ")
        assert all_pass(claims)

    @pytest.mark.parametrize(
        "method", ["auto", "dense", "component-wise", "matrix-free", "analytic"]
    )
    def test_lambda_and_census_share_one_graph(self, monkeypatch, method):
        # every component is a star or a two-layer star, so the census is read
        # from the table once, and no component labels are built
        calls = {"_census_from_table": 0, "_cc": 0}
        for name in calls:
            def spy(*args, name=name, real=getattr(measures, name), **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(measures, name, spy)
        claims = verify_tradeoff([2], [2], lambda_method=method)
        assert calls == {"_census_from_table": 1, "_cc": 0}
        assert [c.claim for c in claims] == [
            "thm3.arity", "thm3.s0", "thm3.s1", "thm3.lambda", "thm3.census", "thm3.fig1"
        ]
        assert all_pass(claims)


class TestMafProposition:
    def test_k2_full(self):
        claims = verify_maf_proposition(2)
        assert all_pass(claims)
        by_id = {c.claim: c for c in claims}
        assert by_id["maf.k2.deg"].computed >= 2
        assert by_id["maf.k2.threshold_deg"].computed == 2
        assert by_id["maf.k2.s"].computed == 2
        assert by_id["maf.k2.s0"].computed == 2
        assert by_id["maf.k2.s1"].computed == 2
        assert by_id["maf.k2.lambda"].computed == pytest.approx(
            1.8477590650225735, abs=1e-9
        )

    def test_k3_k4(self):
        for k, s_expected in ((3, 3), (4, 3)):
            claims = verify_maf_proposition(k)
            assert all_pass(claims)
            by_id = {c.claim: c for c in claims}
            assert by_id[f"maf.k{k}.s"].computed == s_expected
            assert f"maf.k{k}.lambda" not in by_id

    def test_k5(self):
        claims = verify_maf_proposition(5)
        assert all_pass(claims)
        by_id = {c.claim: c.computed for c in claims}
        assert by_id == {"maf.k5.deg": 6, "maf.k5.threshold_deg": 5, "maf.k5.s": 4}

    def test_rejects_large_k(self):
        # maf(7) has arity 42, past the table cap
        with pytest.raises(CapExceeded, match="arity 42 exceeds materialization cap 26"):
            verify_maf_proposition(7)

    @pytest.mark.parametrize("k", [1, 0, -1])
    def test_rejects_k_below_2(self, k):
        with pytest.raises(ValueError, match="suite runs at k >= 2"):
            verify_maf_proposition(k)


# every field of each suite's rows but runtime: (claim, predicted, computed,
# mode, status, tolerance, note)
PINNED_ROWS = {
    "theorem1(2)": (lambda fx: verify_theorem1(2), [
        ("thm1.arity", 5, 5, "exact", "pass", None, ""),
        ("thm1.arity_bound", 2, 5, "ge", "pass", None,
         "arity grows at least as fast as the data section"),
        ("thm1.s0", 1, 1, "exact", "pass", None, ""),
        ("thm1.s1", 4, 4, "exact", "pass", None,
         "claimed as an upper bound; equality observed and asserted"),
        ("thm1.nondegenerate", True, True, "exact", "pass", None, ""),
        ("thm1.lambda", 2.0, 2.0, "within-tol", "pass", 1e-9, "method=dense, residual=0.000e+00"),
    ]),
    "theorem1(3)": (lambda fx: verify_theorem1(3), [
        ("thm1.arity", 23, 23, "exact", "pass", None, ""),
        ("thm1.arity_bound", 16, 23, "ge", "pass", None,
         "arity grows at least as fast as the data section"),
        ("thm1.s0", 1, 1, "exact", "pass", None, ""),
        ("thm1.s1", 8, 8, "exact", "pass", None,
         "claimed as an upper bound; equality observed and asserted"),
        ("thm1.nondegenerate", True, True, "exact", "pass", None, ""),
        ("thm1.lambda", math.sqrt(8), math.sqrt(8), "within-tol", "pass", 1e-9,
         "method=dense, residual=0.000e+00"),
    ]),
    "tradeoff(2;2)": (lambda fx: verify_tradeoff([2], [2]), [
        ("thm3.arity", 13, 13, "exact", "pass", None, ""),
        ("thm3.s0", 4, 4, "exact", "pass", None, ""),
        ("thm3.s1", 4, 4, "exact", "pass", None, ""),
        ("thm3.lambda", math.sqrt(7), math.sqrt(7), "within-tol", "pass", 1e-9,
         "method=dense, residual=0.000e+00"),
        ("thm3.census", 0, 0, "exact", "pass", None,
         "component shapes: 768 x ('star', 3), 256 x ('two-layer-star', 4, 4)"),
        ("thm3.fig1", 1, 256, "ge", "pass", None,
         "two-layer stars with center degree 4 and middle degree 4"),
    ]),
    "tradeoff(2;2,2)": (lambda fx: verify_tradeoff([2], [2, 2]), [
        ("thm3.arity", 23, 23, "exact", "pass", None, ""),
        ("thm3.s0", 7, 7, "exact", "pass", None, ""),
        ("thm3.s1", 4, 4, "exact", "pass", None, ""),
        ("thm3.lambda", math.sqrt(10), math.sqrt(10), "within-tol", "pass", 1e-9,
         "method=dense, residual=0.000e+00"),
        ("thm3.census", 0, 0, "exact", "pass", None,
         "component shapes: 1572864 x ('star', 3), 65536 x ('two-layer-star', 7, 4)"),
        ("thm3.fig1", 1, 65536, "ge", "pass", None,
         "two-layer stars with center degree 7 and middle degree 4"),
    ]),
    "tradeoff(2,2;)": (lambda fx: verify_tradeoff([2, 2], []), [
        ("thm3.arity", 10, 10, "exact", "pass", None, ""),
        ("thm3.s0", 1, 1, "exact", "pass", None, ""),
        ("thm3.s1", 7, 7, "exact", "pass", None, ""),
        ("thm3.lambda", math.sqrt(7), math.sqrt(7), "within-tol", "pass", 1e-9,
         "method=dense, residual=0.000e+00"),
        ("thm3.census", 0, 0, "exact", "pass", None, "component shapes: 32 x ('star', 7)"),
    ]),
    "desens(or2)": (lambda fx: verify_desensitization(fx["or2"], fx["or2_certs"], name="or2"), [
        ("desens.or2.s0", 1, 1, "exact", "pass", None, ""),
        ("desens.or2.s1", 6, 6, "exact", "pass", None, ""),
        ("desens.or2.lambda", math.sqrt(6), math.sqrt(6), "within-tol", "pass", 1e-9,
         "sqrt(s1) since s0=1; method=dense, residual=0.000e+00"),
        ("desens.or2.uc1", 6, 6, "le", "pass", None, "UC1 of the base is 2"),
    ]),
    "desens(haf2)": (lambda fx: verify_desensitization(haf(2), haf(2).meta.certificates,
                                                       name="haf2"), [
        ("desens.haf2.s0", 1, 1, "exact", "pass", None, ""),
        ("desens.haf2.s1", 12, 12, "exact", "pass", None, ""),
        ("desens.haf2.lambda", math.sqrt(12), math.sqrt(12), "within-tol", "pass", 1e-9,
         "sqrt(s1) since s0=1; method=dense, residual=0.000e+00"),
        ("desens.haf2.uc1", None, None, "le", "skipped", None,
         "uc1 refused: exact cover search capped at arity 8, got 15"),
    ]),
}


class TestProfileClaims:
    """The closed-form rows every profiled construction writes from its meta."""

    def test_every_profiled_family_instance_passes(self, or2, or2_certs):
        fns = [haf(2), chaf([2, 2]), tradeoff([2], []), tradeoff([2], [2]), tradeoff([2, 2], []),
               desensitize(or2, or2_certs), desensitize(haf(2), haf(2).meta.certificates)]
        # the families left out make no prediction
        rest = [maf(2), address_fn(1)]
        assert {f.meta.family for f in fns} | {f.meta.family for f in rest} == set(FAMILIES)
        assert all(f.meta.predicted_s0 is None for f in rest)
        for f in fns:
            assert f.arity <= 20
            claims = verify_mod._Claims()
            verify_mod._profile_claims(claims, "p", f)
            rows = ["p.s0", "p.s1", "p.lambda"]
            if f.meta.family != "desensitized":
                assert f.meta.predicted_arity == f.arity
                rows.insert(0, "p.arity")
            assert [c.claim for c in claims.rows] == rows
            assert all(c.status == "pass" for c in claims.rows), f.name

    @pytest.mark.parametrize("run", list(PINNED_ROWS))
    def test_pinned_rows(self, run, or2, or2_certs):
        suite, want = PINNED_ROWS[run]
        rows = suite({"or2": or2, "or2_certs": or2_certs})
        got = [(c.claim, c.predicted, c.computed, c.mode, c.status, c.tolerance, c.note)
               for c in rows]
        assert got == want


class TestClaimRuntimes:
    @pytest.mark.parametrize(
        "suite",
        [
            lambda: verify_theorem1(2),
            lambda: verify_tradeoff([2], [2]),
            lambda: verify_maf_proposition(2),
            lambda: verify_lemma_chain_random(arities=(4, 5), count=5),
        ],
    )
    def test_runtimes_add_up_to_at_most_the_wall_time(self, suite):
        t0 = time.perf_counter()
        claims = suite()
        wall = time.perf_counter() - t0
        runtimes = [c.runtime for c in claims]
        assert all(r >= 0 for r in runtimes)
        # each runtime is rounded to the microsecond
        assert sum(runtimes) <= wall + 0.5e-6 * len(runtimes)


class TestClaimSerialization:
    def _sample(self):
        return [
            ClaimResult(
                claim="x.a",
                predicted=1,
                computed=1,
                mode="exact",
                status="pass",
                runtime=0.25,
                tolerance=0.0,
                note="n",
            ),
            ClaimResult(
                claim="x.b",
                predicted=2.0,
                computed=2.5,
                mode="within-tol",
                status="fail",
                runtime=0.5,
                tolerance=1e-9,
                note="",
            ),
        ]

    def test_json_shape(self):
        parsed = json.loads(claims_to_json(self._sample()))
        assert [c["claim"] for c in parsed] == ["x.a", "x.b"]
        assert list(parsed[0].keys()) == [
            "claim",
            "predicted",
            "computed",
            "mode",
            "status",
            "runtime",
            "tolerance",
            "note",
        ]

    def test_csv_shape(self):
        lines = claims_to_csv(self._sample()).splitlines()
        assert lines[0] == "claim,predicted,computed,mode,status,runtime"
        assert lines[1].startswith("x.a,1,1,exact,pass,")
        assert len(lines) == 3

    def test_json_text_is_pinned(self):
        row = (
            '  {{\n    "claim": "{}",\n    "predicted": {},\n    "computed": {},\n'
            '    "mode": "{}",\n    "status": "{}",\n    "runtime": {},\n'
            '    "tolerance": {},\n    "note": "{}"\n  }}'
        )
        assert claims_to_json(self._sample()) == (
            "[\n"
            + row.format("x.a", 1, 1, "exact", "pass", 0.25, 0.0, "n")
            + ",\n"
            + row.format("x.b", 2.0, 2.5, "within-tol", "fail", 0.5, "1e-09", "")
            + "\n]"
        )

    def test_csv_text_is_pinned(self):
        assert claims_to_csv(self._sample()) == (
            "claim,predicted,computed,mode,status,runtime\r\n"
            "x.a,1,1,exact,pass,0.25\r\n"
            "x.b,2.0,2.5,within-tol,fail,0.5\r\n"
        )

    def test_all_pass(self):
        sample = self._sample()
        assert not all_pass(sample)
        assert all_pass([sample[0]])
