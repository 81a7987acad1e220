import json
import math
import time

import pytest

from sensilab import (
    all_pass,
    chaf,
    claims_to_csv,
    claims_to_json,
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

    def test_rejects_large_r(self):
        with pytest.raises(ValueError):
            verify_theorem1(4)


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

    def test_thread_invariance(self):
        one = verify_simon(3, threads=1)
        four = verify_simon(3, threads=4)
        assert [(c.claim, c.computed) for c in one] == [
            (c.claim, c.computed) for c in four
        ]

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
        for n in (2, 3):
            claims = verify_subgraph_lemma(n)
            assert len(claims) == 1
            assert claims[0].claim == f"sub.n{n}"
            assert claims[0].computed == 0
            assert claims[0].status == "pass"

    def test_sampled_is_deterministic(self):
        a = verify_subgraph_lemma(6, samples=2000, seed=42)
        b = verify_subgraph_lemma(6, samples=2000, seed=42)
        assert a[0].computed == b[0].computed == 0
        assert a[0].note == b[0].note

    def test_rejects_oversize(self):
        with pytest.raises(ValueError):
            verify_subgraph_lemma(21)


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

    def test_rejects_oversize(self):
        f = chaf([2, 2])  # arity 10, tripled 30 > 20
        claims_needed = f.meta.certificates
        with pytest.raises(ValueError):
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

    def test_rejects_large_k(self):
        with pytest.raises(ValueError):
            verify_maf_proposition(5)


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

    def test_all_pass(self):
        sample = self._sample()
        assert not all_pass(sample)
        assert all_pass([sample[0]])
