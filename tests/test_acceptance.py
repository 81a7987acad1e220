"""Acceptance gate: one test per published criterion, each printing a single
ACCEPTANCE <id> PASS/FAIL line at the stated tolerance and runtime budget."""

import math
import time

import numpy as np
import pytest

from sensilab import (
    BooleanFunction,
    CertificateCollection,
    PartialAssignment,
    TruthTable,
    chaf,
    degree,
    desensitize,
    haf,
    maf,
    s,
    s0,
    s1,
    spectral_sensitivity,
    tradeoff,
    two_layer_star_adjacency,
    two_layer_star_lambda,
    uc1,
    verify_lemma_chain_random,
    verify_simon,
    verify_subgraph_lemma,
    verify_tradeoff,
)
from sensilab.cli import main


def _report(capsys, label, body):
    try:
        result = body()
    except BaseException:
        with capsys.disabled():
            print(f"\nACCEPTANCE {label} FAIL", flush=True)
        raise
    with capsys.disabled():
        print(f"\nACCEPTANCE {label} PASS", flush=True)
    return result


def test_criterion_01_haf2_exact_profile(capsys):
    def body():
        t0 = time.perf_counter()
        f = haf(2)
        assert f.arity == 5
        assert s0(f).value == 1
        assert s1(f).value == 4
        assert f.is_nondegenerate()
        lam = spectral_sensitivity(f, method="dense").value
        assert abs(lam - 2.0) <= 1e-9
        assert time.perf_counter() - t0 < 1.0

    _report(capsys, 1, body)


def test_criterion_02_haf3_exhaustive_scan(capsys):
    def body():
        t0 = time.perf_counter()
        f = haf(3)
        assert f.arity == 23
        assert s0(f).value == 1  # full scan of all 2^23 inputs
        assert s1(f).value == 8
        lam = spectral_sensitivity(f, method="matrix-free", tol=1e-9).value
        assert abs(lam - math.sqrt(8)) <= 1e-6
        assert time.perf_counter() - t0 <= 600.0

    _report(capsys, 2, body)


def test_criterion_03_sensitivity_floor_exhaustive(capsys):
    def body():
        for n in (2, 3):
            assert all(c.status == "pass" for c in verify_simon(n))
        by_id = {c.claim: c for c in verify_simon(2)}
        assert by_id["thm2.n2.min"].computed == 3  # attained by NOR2, table 0x1
        t0 = time.perf_counter()
        assert all(c.status == "pass" for c in verify_simon(4))
        assert time.perf_counter() - t0 <= 60.0

    _report(capsys, 3, body)


def test_criterion_04_subcube_dimension_bound(capsys):
    def body():
        for n in (1, 2, 3):
            claims = verify_subgraph_lemma(n)  # exhaustive
            assert claims[0].computed == 0
        for n in range(4, 9):
            claims = verify_subgraph_lemma(n, samples=100_000, seed=0x5EED)
            assert claims[0].computed == 0

    _report(capsys, 4, body)


def test_criterion_05_tradeoff_2_2_instance(capsys):
    def body():
        t0 = time.perf_counter()
        claims = verify_tradeoff([2], [2], lambda_method="dense")
        by_id = {c.claim: c for c in claims}
        assert by_id["thm3.s0"].computed == 4  # exhaustive over 2^13
        assert by_id["thm3.s1"].computed == 4
        assert abs(by_id["thm3.lambda"].computed - math.sqrt(7)) <= 1e-6
        assert by_id["thm3.census"].computed == 0  # no "other" shapes
        assert by_id["thm3.fig1"].status == "pass"
        assert all(c.status == "pass" for c in claims)
        assert time.perf_counter() - t0 <= 120.0

    _report(capsys, 5, body)


def test_criterion_06_chaf_2_2_profile(capsys):
    def body():
        f = chaf([2, 2])
        assert f.arity == 10  # exhaustive checks over 2^10 inputs
        assert s0(f).value == 1
        assert s1(f).value == 7
        lam = spectral_sensitivity(f, method="component-wise").value
        assert abs(lam - math.sqrt(7)) <= 1e-6

    _report(capsys, 6, body)


def test_criterion_07_or2_desensitization(capsys):
    def body():
        or2 = BooleanFunction.from_table(
            TruthTable(2, np.array([0, 1, 1, 1], dtype=np.uint8)), name="or2"
        )
        certs = CertificateCollection(
            1,
            (
                PartialAssignment.from_string("1*"),
                PartialAssignment.from_string("01"),
            ),
            unambiguous=True,
        )
        fp = desensitize(or2, certs)
        assert fp.arity == 6  # 64 inputs
        assert s0(fp).value == 1
        base_uc1 = uc1(or2)
        assert base_uc1.status == "exact" and base_uc1.value == 2
        assert s1(fp).value == 6 == 3 * base_uc1.value
        lam = spectral_sensitivity(fp, method="dense").value
        assert abs(lam - math.sqrt(6)) <= 1e-6

    _report(capsys, 7, body)


def test_criterion_08_random_function_inequality_suite(capsys):
    def body():
        claims = verify_lemma_chain_random(arities=range(4, 11), count=1000, seed=0x5EED)
        assert [c.claim for c in claims] == [
            f"chain.random.n{n}" for n in range(4, 11)
        ]
        # zero violations beyond the suites' claim tolerance, 1e-6
        assert all(c.computed == 0 and c.tolerance == 1e-6 for c in claims)

    _report(capsys, 8, body)


def test_criterion_09_maf_degree_and_sensitivity(capsys):
    def body():
        for k in (2, 3, 4):
            assert degree(maf(k)) >= k  # exact integer coefficients
        assert s(maf(4)).value == 3

    _report(capsys, 9, body)


def test_criterion_10_two_layer_star_closed_form(capsys):
    def body():
        for a in range(1, 9):
            for b in range(1, 9):
                dense = float(
                    np.linalg.eigvalsh(two_layer_star_adjacency(a, b))[-1]
                )
                assert abs(two_layer_star_lambda(a, b) - dense) <= 1e-9

    _report(capsys, 10, body)


def test_criterion_sweep_balanced_ratio(capsys):
    def body():
        code = main(["sweep", "tradeoff", "--g-range", "0..1", "--ratio", "1:1"])
        out = capsys.readouterr().out
        assert code == 0
        rows = out.splitlines()
        assert rows[0] == "n,s0,s1,lambda_sq,c_hat"
        for row in rows[1:]:
            assert row.split(",")[4] == "0.5"  # exact, from closed forms

    _report(capsys, "sweep", body)
