import json
import os
import re
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest

from sensilab import BooleanFunction, TruthTable, cli, constructions, haf, measures, verify
from sensilab.core import ArityError, CertificateCollection, PartialAssignment
from sensilab.cli import main
from sensilab.measures import compute_measures
from sensilab.constructions import FAMILIES


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_fast(capsys, *argv):
    """run, asserting the command returns within a second."""
    t0 = time.perf_counter()
    result = run(capsys, *argv)
    assert time.perf_counter() - t0 < 1.0
    return result


# construct flags for each family built from flags alone, and the s0 the
# result must measure
CONSTRUCT_CASES = [
    ("haf", ["--r", "2"], 1),
    ("chaf", ["--rs", "2,2"], 1),
    ("maf", ["--k", "3"], 3),
    ("address", ["--k", "2"], 3),
    ("tradeoff", ["--as", "2", "--bs", "2"], 4),
    ("tradeoff", ["--as", "2"], 1),
]


def write_and2(tmp_path):
    path = tmp_path / "and2.tt"
    TruthTable(2, np.array([0, 0, 0, 1], dtype=np.uint8)).save(str(path))
    return str(path)


class TestConstruct:
    def test_haf_to_table_file(self, tmp_path, capsys):
        out = tmp_path / "haf2.tt"
        code, stdout, _ = run(
            capsys, "construct", "haf", "--r", "2", "--out", str(out)
        )
        assert code == 0
        assert "arity 5" in stdout
        assert TruthTable.load(str(out)).to_hex() == "81800100"

    def test_descriptor_output_round_trips(self, tmp_path, capsys):
        out = tmp_path / "m.json"
        code, _, _ = run(capsys, "construct", "maf", "--k", "3", "--out", str(out))
        assert code == 0
        obj = json.loads(out.read_text())
        assert obj == {"family": "maf", "params": {"k": 3}}

    def test_tradeoff_descriptor(self, tmp_path, capsys):
        out = tmp_path / "t.json"
        code, _, _ = run(
            capsys,
            "construct",
            "tradeoff",
            "--as",
            "2",
            "--bs",
            "2",
            "--out",
            str(out),
        )
        assert code == 0
        obj = json.loads(out.read_text())
        assert obj["family"] == "tradeoff"
        assert obj["params"] == {"as": [2], "bs": [2]}

    def test_desensitized_from_table_and_certs(self, tmp_path, capsys):
        base = tmp_path / "or2.tt"
        TruthTable(2, np.array([0, 1, 1, 1], dtype=np.uint8)).save(str(base))
        certs = tmp_path / "certs.json"
        certs.write_text('["1*", "01"]\n')
        out = tmp_path / "d.tt"
        code, stdout, _ = run(
            capsys,
            "construct",
            "desensitized",
            "--base",
            str(base),
            "--certs",
            str(certs),
            "--out",
            str(out),
        )
        assert code == 0
        assert "arity 6" in stdout
        table = TruthTable.load(str(out))
        assert table[0b110101] == 1
        assert table[0b011001] == 0

    def test_missing_parameter_is_exit_2(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "construct", "haf", "--out", str(tmp_path / "x.tt")
        )
        assert code == 2
        assert "error:" in err

    def test_bad_extension_is_exit_2(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "construct", "haf", "--r", "2", "--out", str(tmp_path / "x.bin")
        )
        assert code == 2
        assert ".tt or .json" in err

    def test_cases_cover_every_flag_family(self):
        families = {family for family, _, _ in CONSTRUCT_CASES}
        assert families | {"desensitized"} == set(FAMILIES)

    @pytest.mark.parametrize("family,flags,want_s0", CONSTRUCT_CASES)
    def test_descriptor_reads_back(self, tmp_path, capsys, family, flags, want_s0):
        out = tmp_path / "x.json"
        code, _, _ = run(capsys, "construct", family, *flags, "--out", str(out))
        assert code == 0
        code, stdout, _ = run(capsys, "measure", "--fn", str(out), "--measures", "s0")
        assert code == 0
        (entry,) = json.loads(stdout)["entries"]
        assert entry["value"] == want_s0

    def test_missing_parameter_reads_like_the_descriptor(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "construct", "tradeoff", "--out", str(tmp_path / "x.json")
        )
        assert code == 2
        assert "tradeoff descriptor needs integer list 'as'" in err

    def test_oversized_order_is_refused_at_once(self, tmp_path, capsys):
        code, _, err = run_fast(
            capsys, "construct", "haf", "--r", "40", "--out", str(tmp_path / "h.json")
        )
        assert code == 2
        assert "code order 40" in err

    def test_materialize_cap_is_enforced(self, tmp_path, capsys):
        code, _, err = run(
            capsys,
            "construct",
            "haf",
            "--r",
            "3",
            "--materialize-cap",
            "10",
            "--out",
            str(tmp_path / "h3.tt"),
        )
        assert code == 2
        assert "cap" in err

    @pytest.mark.parametrize("where", ["before", "after"])
    def test_descriptor_output_refuses_the_cap(self, tmp_path, capsys, where):
        # a descriptor holds no table, so construct reads no cap for it;
        # haf(3) at cap 0 exited 0 with h3.json written
        out = tmp_path / "h3.json"
        cap = ["--materialize-cap", "0"]
        argv = ["construct", "haf", "--r", "3", "--out", str(out)]
        code, stdout, err = run(capsys, *(cap + argv if where == "before" else argv + cap))
        assert (code, stdout, err) == (2, "", "error: construct haf does not read "
                                              "--materialize-cap; only --out .tt do\n")
        assert not out.exists()


class TestMeasure:
    def test_basic_report(self, tmp_path, capsys):
        path = write_and2(tmp_path)
        code, stdout, _ = run(
            capsys, "measure", "--fn", path, "--measures", "s0,s1,lambda"
        )
        assert code == 0
        report = json.loads(stdout)
        assert report["arity"] == 2
        names = [e["name"] for e in report["entries"]]
        assert names == ["s0", "s1", "lambda"]
        by_name = {e["name"]: e for e in report["entries"]}
        assert by_name["s0"]["value"] == 1
        assert by_name["s1"]["value"] == 2
        assert by_name["s1"]["witness_bits"] == "11"
        assert by_name["lambda"]["value"] == pytest.approx(2 ** 0.5)

    def test_descriptor_input(self, tmp_path, capsys):
        desc = tmp_path / "h.json"
        desc.write_text('{"family": "haf", "params": {"r": 2}}\n')
        code, stdout, _ = run(
            capsys, "measure", "--fn", str(desc), "--measures", "s0,s1"
        )
        assert code == 0
        report = json.loads(stdout)
        by_name = {e["name"]: e for e in report["entries"]}
        assert by_name["s0"]["value"] == 1
        assert by_name["s1"]["value"] == 4

    def test_skip_is_reported_not_fatal(self, tmp_path, capsys):
        desc = tmp_path / "h3.json"
        desc.write_text('{"family": "haf", "params": {"r": 3}}\n')
        code, stdout, _ = run(
            capsys, "measure", "--fn", str(desc), "--measures", "s0,uc1"
        )
        assert code == 0
        report = json.loads(stdout)
        by_name = {e["name"]: e for e in report["entries"]}
        assert by_name["s0"]["value"] == 1
        assert by_name["uc1"]["value"] is None
        assert by_name["uc1"]["skipped"]

    def test_no_convergence_is_a_skip_not_a_failure(self, tmp_path, capsys):
        # row 298 of default_rng(1).integers(0, 2, (2000, 64)): power
        # iteration stalls on this table within the default budget
        path = tmp_path / "stall.tt"
        TruthTable.from_hex(6, "228a39929e744819").save(str(path))
        code, stdout, _ = run(
            capsys, "measure", "--fn", str(path), "--measures", "s0,lambda",
            "--method", "matfree",
        )
        assert code == 0
        lam = {e["name"]: e for e in json.loads(stdout)["entries"]}["lambda"]
        assert lam["value"] is None
        assert lam["exact"] is False
        assert lam["method"] == "matrix-free"
        assert lam["skipped"] == (
            "no convergence in 10000 iterations (best estimate 3.9293)"
        )

    def test_materialize_cap_applies_to_certificates(self, tmp_path, capsys):
        path = tmp_path / "r5.tt"
        rng = np.random.default_rng(5)
        TruthTable(5, rng.integers(0, 2, 32, dtype=np.uint8)).save(str(path))
        code, stdout, _ = run(
            capsys, "measure", "--fn", str(path), "--measures", "s0,c0,c1,uc1",
            "--materialize-cap", "3",
        )
        assert code == 0
        for entry in json.loads(stdout)["entries"]:
            assert entry["value"] is None
            assert entry["skipped"].startswith("cap:")

    def test_certificates_past_the_budget_are_skipped(self, tmp_path, capsys):
        # n = 20: the counts need 10 3^17 bytes and more, over MEMORY_BUDGET
        path = tmp_path / "r20.tt"
        TruthTable(20, np.random.default_rng(20).integers(0, 2, 1 << 20, dtype=np.uint8)).save(str(path))
        code, stdout, _ = run_fast(capsys, "measure", "--fn", str(path), "--measures", "c0,c1")
        assert code == 0
        want = "cap: certificate counts needs over 1296644510 bytes, budget 536870912"
        assert [(e["name"], e["value"], e["skipped"]) for e in json.loads(stdout)["entries"]] == [
            ("c0", None, want), ("c1", None, want)]

    def test_materialize_cap_applies_to_lambda(self, tmp_path, capsys):
        path = tmp_path / "r5.tt"
        rng = np.random.default_rng(5)
        TruthTable(5, rng.integers(0, 2, 32, dtype=np.uint8)).save(str(path))
        code, stdout, _ = run(
            capsys, "measure", "--fn", str(path), "--measures", "s0,lambda",
            "--materialize-cap", "3",
        )
        assert code == 0
        for entry in json.loads(stdout)["entries"]:
            assert entry["value"] is None
            assert entry["skipped"].startswith("cap:")

    def test_analytic_lambda_runs_past_the_cap(self, tmp_path, capsys):
        desc = tmp_path / "h5.json"
        desc.write_text('{"family": "haf", "params": {"r": 5}}\n')
        code, stdout, _ = run(
            capsys, "measure", "--fn", str(desc), "--measures", "lambda",
            "--method", "analytic",
        )
        assert code == 0
        (entry,) = json.loads(stdout)["entries"]
        assert entry["value"] == pytest.approx(32 ** 0.5)
        assert entry["method"] == "analytic"

    def test_missing_file_is_exit_2(self, capsys):
        code, _, err = run(
            capsys, "measure", "--fn", "/nonexistent.tt", "--measures", "s0"
        )
        assert code == 2
        assert "error:" in err

    def test_bad_hex_is_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.tt"
        bad.write_text("n=2\nZZ\n")
        code, _, err = run(capsys, "measure", "--fn", str(bad), "--measures", "s0")
        assert code == 2

    def test_unknown_measure_is_exit_2(self, tmp_path, capsys):
        path = write_and2(tmp_path)
        code, _, err = run(capsys, "measure", "--fn", path, "--measures", "zz")
        assert code == 2

    @pytest.mark.parametrize("names", ["", ","])
    def test_no_measure_named_is_exit_2(self, tmp_path, capsys, names):
        # this printed a report with no entries and exited 0
        code, stdout, err = run(capsys, "measure", "--fn", write_and2(tmp_path),
                                "--measures", names)
        assert (code, stdout) == (2, "")
        assert err == "error: no measure named; valid: s0, s1, s, deg, lambda, c0, c1, uc1\n"


class TestVerify:
    def test_theorem1_passes(self, capsys):
        code, stdout, _ = run(capsys, "verify", "theorem1", "--r", "2")
        assert code == 0
        claims = json.loads(stdout)
        assert all(c["status"] == "pass" for c in claims)
        assert claims[0]["claim"] == "thm1.arity"

    def test_simon_single_n(self, capsys):
        code, stdout, _ = run(capsys, "verify", "simon", "--n", "2")
        assert code == 0
        claims = json.loads(stdout)
        ids = [c["claim"] for c in claims]
        assert "thm2.n2" in ids and "thm2.n2.min" in ids

    def test_subgraph_default(self, capsys):
        code, stdout, _ = run(capsys, "verify", "subgraph")
        assert code == 0
        assert json.loads(stdout)[0]["claim"] == "sub.n3"

    def test_lemmas_on_function_file(self, tmp_path, capsys):
        path = write_and2(tmp_path)
        code, stdout, _ = run(capsys, "verify", "lemmas", "--fn", path)
        assert code == 0
        ids = [c["claim"] for c in json.loads(stdout)]
        assert any(i.startswith("chain.and2.tt.") for i in ids)
        assert any(i.startswith("edge.and2.tt") for i in ids)

    def test_stalled_power_iteration_is_exit_2(self, tmp_path, capsys):
        # the table that stalls in TestMeasure, padded to n=14 with
        # f(x) = t(x & 63) so that the lemma chain's lambda runs matrix-free
        t = TruthTable.from_hex(6, "228a39929e744819")
        path = tmp_path / "stall14.tt"
        TruthTable(14, t.values[np.arange(1 << 14) & 63]).save(str(path))
        code, stdout, err = run(capsys, "verify", "lemmas", "--fn", str(path))
        assert code == 2
        assert stdout == ""
        assert err.startswith("error: power iteration did not reach tol")
        assert "Traceback" not in err

    def test_lemmas_random_short(self, capsys):
        code, stdout, _ = run(
            capsys, "verify", "lemmas", "--arities", "4", "--count", "20"
        )
        assert code == 0
        claims = json.loads(stdout)
        assert claims[0]["claim"] == "chain.random.n4"

    def test_desens_default_instance(self, capsys):
        code, stdout, _ = run(capsys, "verify", "desens")
        assert code == 0
        ids = [c["claim"] for c in json.loads(stdout)]
        assert "desens.or2.s1" in ids

    @pytest.mark.parametrize("call, note", [
        (0, "uc1 search on the base exhausted"),
        (1, "uc1 search on the desensitized function exhausted"),
    ])
    def test_desens_uc1_exhausted_is_a_skip(self, capsys, monkeypatch, call, note):
        # call 0 is the base's search (arity 2), 1 the desensitized function's (arity 6)
        calls, real = [], verify.uc1

        def uc1(fn):
            calls.append(fn)
            if fn.arity == (2, 6)[call]:
                return measures.Uc1Result("exhausted", None, 2, None, 2)
            return real(fn)

        monkeypatch.setattr(verify, "uc1", uc1)
        code, stdout, _ = run(capsys, "verify", "desens")
        assert code == 0
        row = {c["claim"]: c for c in json.loads(stdout)}["desens.or2.uc1"]
        assert row["status"] == "skipped" and row["computed"] is None
        assert row["note"] == note
        assert len(calls) == 2

    def test_maf_past_the_table_cap_is_exit_2(self, capsys):
        code, stdout, err = run_fast(capsys, "verify", "maf", "--k", "7")
        assert (code, stdout) == (2, "")
        assert err == "error: arity 42 exceeds materialization cap 26\n"

    def test_maf_single_k(self, capsys):
        code, stdout, _ = run(capsys, "verify", "maf", "--k", "2")
        assert code == 0
        claims = json.loads(stdout)
        assert all(c["status"] == "pass" for c in claims)

    def test_csv_summary(self, tmp_path, capsys):
        csv_path = tmp_path / "claims.csv"
        code, _, _ = run(
            capsys, "verify", "maf", "--k", "2", "--csv", str(csv_path)
        )
        assert code == 0
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "claim,predicted,computed,mode,status,runtime"
        assert len(lines) > 1

    def test_tradeoff_chaf_only(self, capsys):
        code, stdout, _ = run(
            capsys, "verify", "tradeoff", "--as", "2", "--bs", ""
        )
        assert code == 0
        ids = [c["claim"] for c in json.loads(stdout)]
        assert "thm3.lambda" in ids

    @pytest.mark.parametrize(
        "flags, passed",
        [
            ([], {}),
            (["--count", "7"], {"count": 7}),
            (["--arities", "4,5"], {"arities": [4, 5]}),
            (["--arities", "4", "--count", "2"], {"arities": [4], "count": 2}),
        ],
    )
    def test_lemmas_pass_only_the_flags_given(self, capsys, monkeypatch, flags, passed):
        calls = []
        monkeypatch.setattr(
            verify, "verify_lemma_chain_random", lambda **kw: calls.append(kw) or []
        )
        code, _, _ = run(capsys, "verify", "lemmas", "--seed", "3", *flags)
        assert code == 0
        assert calls == [{"seed": 3, **passed}]

    @pytest.mark.parametrize(
        "flags, method", [([], "auto"), (["--method", "matfree"], "matrix-free")]
    )
    def test_lemmas_on_a_function_pass_the_method(self, tmp_path, capsys, monkeypatch,
                                                  flags, method):
        calls = []
        monkeypatch.setattr(
            verify, "verify_lemma_chain", lambda fn, **kw: calls.append(kw["method"]) or []
        )
        code, _, _ = run(capsys, "verify", "lemmas", "--fn", write_and2(tmp_path), *flags)
        assert code == 0
        assert calls == [method]

    @pytest.mark.parametrize(
        "suite, flags",
        [
            ("simon", ["--n", "2"]),
            ("subgraph", []),
            ("desens", []),
            ("maf", ["--k", "2"]),
            ("lemmas", ["--count", "1"]),
        ],
    )
    def test_suites_that_ignore_the_method_refuse_it(self, capsys, suite, flags):
        code, stdout, err = run_fast(capsys, "verify", suite, *flags, "--method", "dense")
        assert code == 2
        assert stdout == ""
        assert err == (f"error: verify {suite} does not read --method; "
                       "only theorem1, tradeoff and lemmas --fn do\n")

    @pytest.mark.parametrize("where", ["before", "after"])
    @pytest.mark.parametrize("flag, value, suite", [
        ("--tol", "1e-3", ["theorem1", "--method", "matfree"]),
        ("--materialize-cap", "5", ["tradeoff"]),
        ("--materialize-cap", "26", ["maf", "--k", "2"]),
    ])
    def test_no_suite_reads_tol_or_the_cap(self, capsys, monkeypatch, where, flag, value, suite):
        # refused before any suite runs, given before the subcommand or after it
        monkeypatch.setattr(verify, "verify_theorem1", None)
        monkeypatch.setattr(verify, "verify_tradeoff", None)
        argv = ([flag, value, "verify", *suite] if where == "before"
                else ["verify", *suite, flag, value])
        code, stdout, err = run_fast(capsys, *argv)
        assert (code, stdout, err) == (2, "", f"error: verify does not read {flag}\n")

    def test_verify_still_reads_the_seed(self, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(verify, "verify_subgraph_lemma",
                            lambda n, **kw: calls.append(kw["seed"]) or [])
        code, _, _ = run(capsys, "--seed", "5", "verify", "subgraph")
        assert code == 0 and calls == [5]
        # the default, which the parser leaves unset, is filled in by the suite
        code, _, _ = run(capsys, "verify", "subgraph")
        assert code == 0 and calls == [5, verify.DEFAULT_SEED]

    def test_lemmas_reject_zero_count(self, capsys):
        code, stdout, err = run(
            capsys, "verify", "lemmas", "--arities", "4", "--count", "0"
        )
        assert code == 2
        assert stdout == ""
        assert "at least one" in err

    @pytest.mark.parametrize("arities, count", [("40", "1"), ("20", "1000")])
    def test_lemmas_refuse_tables_over_budget(self, capsys, arities, count):
        tracemalloc.start()
        try:
            code, stdout, err = run_fast(
                capsys, "verify", "lemmas", "--arities", arities, "--count", count
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert stdout == ""
        assert "budget" in err
        assert peak < 1 << 20

    def test_subgraph_work_is_refused_at_once(self, capsys, monkeypatch):
        # the default 100 000 samples at n = 20 would draw about 10^11 uniforms
        monkeypatch.setattr(verify, "_subgraph_sampled", None)
        code, stdout, err = run_fast(capsys, "verify", "subgraph", "--n", "20")
        assert code == 2
        assert stdout == ""
        assert "--samples" in err and "--n" in err

    def test_tradeoff_census_refused_is_skipped_not_failed(self, capsys, monkeypatch):
        monkeypatch.setattr(measures, "MEMORY_BUDGET", measures.CENSUS_BYTES_PER_INPUT * 8192 - 1)
        code, stdout, _ = run(capsys, "verify", "tradeoff", "--as", "2", "--bs", "2")
        assert code == 0
        status = {c["claim"]: c["status"] for c in json.loads(stdout)}
        assert status["thm3.census"] == status["thm3.fig1"] == "skipped"

    def test_subgraph_rejects_zero_samples(self, capsys):
        code, stdout, err = run(
            capsys, "verify", "subgraph", "--n", "5", "--samples", "0"
        )
        assert code == 2
        assert stdout == ""
        assert "at least one" in err

    def test_tradeoff_oversized_order_is_refused_at_once(self, capsys):
        code, _, err = run_fast(capsys, "verify", "tradeoff", "--as", "2", "--bs", "40")
        assert code == 2
        assert "code order 40" in err

    def test_bad_suite_parameter_is_exit_2(self, capsys):
        code, _, err = run(capsys, "verify", "theorem1", "--r", "9")
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize("r, reason", [
        ("4", "materialization cap 26"),
        ("5", "materialization cap 26"),
        ("1", "code order must be an integer >= 2, got 1"),
        ("9", "code order 9 gives a data section of 2^502 bits"),
    ])
    def test_theorem1_refusals_name_their_limit(self, capsys, r, reason):
        # haf(4) and haf(5) are built, then refused at the table cap; orders 1
        # and 9 are refused by the construction
        code, stdout, err = run_fast(capsys, "verify", "theorem1", "--r", r)
        assert (code, stdout) == (2, "")
        assert reason in err


class TestExportGraph:
    def test_edges_stdout(self, tmp_path, capsys):
        path = write_and2(tmp_path)
        code, stdout, _ = run(
            capsys, "export-graph", "--fn", path, "--format", "edges"
        )
        assert code == 0
        assert stdout == "01 11\n10 11\n"

    def test_dot_to_file(self, tmp_path, capsys):
        path = write_and2(tmp_path)
        out = tmp_path / "g.dot"
        code, stdout, _ = run(
            capsys,
            "export-graph",
            "--fn",
            path,
            "--format",
            "dot",
            "--out",
            str(out),
        )
        assert code == 0
        assert stdout == ""
        text = out.read_text()
        assert text.startswith("graph sensitivity {")
        assert '"01" -- "11";' in text

    def test_component_filter(self, tmp_path, capsys):
        path = write_and2(tmp_path)
        code, stdout, _ = run(
            capsys,
            "export-graph",
            "--fn",
            path,
            "--format",
            "edges",
            "--component",
            "0",
        )
        assert code == 0
        assert stdout == "01 11\n10 11\n"

    def test_arity_limit(self, tmp_path, capsys):
        desc = tmp_path / "big.json"
        desc.write_text('{"family": "haf", "params": {"r": 3}}\n')
        code, _, err = run(
            capsys, "export-graph", "--fn", str(desc), "--format", "edges"
        )
        assert code == 2
        assert "capped" in err

    @pytest.mark.parametrize("flag", [[], ["--materialize-cap", "20"]])
    def test_17_input_table_is_refused_at_16(self, tmp_path, capsys, flag):
        path = tmp_path / "r17.tt"
        values = np.random.default_rng(17).integers(0, 2, 1 << 17, dtype=np.uint8)
        TruthTable(17, values).save(str(path))
        code, stdout, err = run(capsys, "export-graph", "--fn", str(path), "--format", "edges",
                                *flag)
        assert code == 2 and stdout == ""
        assert "graph export capped at arity 16, got 17" in err

    def test_lower_materialize_cap_is_read(self, tmp_path, capsys):
        code, _, err = run(capsys, "export-graph", "--fn", write_and2(tmp_path),
                           "--format", "edges", "--materialize-cap", "1")
        assert code == 2
        assert "graph export capped at arity 1, got 2" in err

    def test_26_input_descriptor_is_refused_before_any_table(self, tmp_path, capsys,
                                                             monkeypatch):
        desc = tmp_path / "t.json"
        desc.write_text('{"family": "tradeoff", "params": {"as": [2, 2], "bs": [2]}}\n')
        calls = []
        table = BooleanFunction.table

        def spy(self, *args, **kwargs):
            calls.append(self.arity)
            return table(self, *args, **kwargs)

        monkeypatch.setattr(BooleanFunction, "table", spy)
        code, _, err = run(capsys, "export-graph", "--fn", str(desc), "--format", "dot")
        assert code == 2
        assert "graph export capped at arity 16, got 26" in err
        assert calls == []


# runs sensilab's CLI on its arguments in this interpreter, then prints the
# scipy modules it imported
SCIPY_PROBE = (
    "import json, sys; from sensilab import cli; rc = cli.main(sys.argv[1:]); "
    "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))); "
    "sys.exit(rc)"
)
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def fresh_cli(*argv: str) -> tuple[int, str, list[str]]:
    """Exit code, output and the scipy modules loaded, for one CLI command
    in a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])}
    out = subprocess.run([sys.executable, "-c", SCIPY_PROBE, *argv],
                         capture_output=True, text=True, env=env, timeout=300)
    *lines, modules = out.stdout.splitlines()
    return out.returncode, "\n".join(lines), json.loads(modules)


class TestScipyOnDemand:
    """scipy is imported only by the paths that need it: B's CSR and the
    adjacency, component labels and classify_component. The edge list is
    gathered from the table with no CSR. The random lemma chain's tables are
    at most arity 10, where lambda is solved by parity class, and uc1 finds
    its codimension n-1 cover by augmenting paths."""

    @pytest.fixture
    def haf2_path(self, tmp_path):
        path = tmp_path / "haf2.tt"
        haf(2).table().save(str(path))
        return str(path)

    @pytest.mark.parametrize("argv", [
        ["verify", "theorem1", "--r", "3"],
        ["measure", "--fn", "HAF2", "--measures", "s0,s1,deg,c0,c1"],
        ["verify", "tradeoff", "--as", "2", "--bs", "2"],
        ["verify", "lemmas", "--arities", "4,5,6,7,8,9,10", "--count", "20"],
        ["measure", "--fn", "HAF2", "--measures", "c0,c1,uc1"],
        ["export-graph", "--fn", "HAF2", "--format", "edges"],
    ], ids=["theorem1", "measure", "tradeoff", "lemmas", "uc1", "edges"])
    def test_runs_without_scipy(self, haf2_path, argv):
        code, _, modules = fresh_cli(*(haf2_path if a == "HAF2" else a for a in argv))
        assert code == 0
        assert modules == []

    def test_component_export_imports_it(self, haf2_path):
        code, out, modules = fresh_cli("export-graph", "--fn", haf2_path, "--format", "edges",
                                       "--component", "0")
        assert code == 0
        # haf(2)'s first component: 00000 is a leaf of 01000's star of degree 4
        assert out.splitlines()[0] == "00000 01000"
        assert len(out.splitlines()) == 4
        assert "scipy.sparse.csgraph" in modules

    def test_uc1_matching_needs_no_scipy(self, haf2_path):
        # haf(2), n = 5, has degree 4, so its cover is the matching at n - 1
        code, out, modules = fresh_cli("measure", "--fn", haf2_path, "--measures", "uc1")
        assert code == 0
        (entry,) = json.loads(out)["entries"]
        assert (entry["value"], entry["exact"]) == (4, True)
        assert modules == []


def test_importing_the_cli_loads_no_thread_pool():
    # concurrent.futures pulls in logging, which no command needs
    env = {**os.environ, "PYTHONPATH": SRC}
    probe = "import sys, sensilab.cli, sensilab.verify; print(sorted(m for m in sys.modules if m.startswith('concurrent')))"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env=env, timeout=300)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


class TestSweep:
    def test_pinned_rows(self, capsys):
        code, stdout, _ = run(
            capsys, "sweep", "tradeoff", "--g-range", "0..1", "--ratio", "1:1"
        )
        assert code == 0
        lines = stdout.splitlines()
        assert lines[0] == "n,s0,s1,lambda_sq,c_hat"
        assert lines[1] == "13,4,4,7,0.5"
        assert lines[2] == "375,8,8,15,0.5"

    def test_asymmetric_ratio(self, capsys):
        code, stdout, _ = run(
            capsys, "sweep", "tradeoff", "--g-range", "0..0", "--ratio", "2:1"
        )
        assert code == 0
        assert stdout.splitlines()[1] == "26,4,7,10,0.36363636363636365"

    @pytest.mark.parametrize("text", ["1..0", "3..2"])
    def test_reversed_range_is_exit_2(self, capsys, text):
        # an empty sweep would print the header alone and exit 0
        code, stdout, err = run(
            capsys, "sweep", "tradeoff", "--g-range", text, "--ratio", "1:1"
        )
        assert (code, stdout) == (2, "")
        assert err == f"error: range must look like a..b with a <= b, got {text!r}\n"

    def test_to_file(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code, stdout, _ = run(
            capsys,
            "sweep",
            "tradeoff",
            "--g-range",
            "0..0",
            "--ratio",
            "1:0",
            "--out",
            str(out),
        )
        assert code == 0
        assert out.read_text() == "n,s0,s1,lambda_sq,c_hat\n5,1,4,4,0.2\n"

    @pytest.mark.parametrize("where", ["before", "after"])
    @pytest.mark.parametrize("flag, value", [
        ("--tol", "1e-3"), ("--materialize-cap", "0"), ("--seed", "5"),
    ])
    def test_global_options_are_refused(self, tmp_path, capsys, where, flag, value):
        # the sweep is closed-form: it reads none of them, and writes nothing
        out = tmp_path / "sweep.csv"
        sweep = ["sweep", "tradeoff", "--g-range", "0..0", "--ratio", "1:1", "--out", str(out)]
        argv = [flag, value, *sweep] if where == "before" else [*sweep, flag, value]
        code, stdout, err = run_fast(capsys, *argv)
        assert (code, stdout, err) == (2, "", f"error: sweep does not read {flag}\n")
        assert not out.exists()

    def test_bad_range_is_exit_2(self, capsys):
        code, _, err = run(
            capsys, "sweep", "tradeoff", "--g-range", "1-3", "--ratio", "1:1"
        )
        assert code == 2
        assert "a..b" in err

    def test_oversized_order_is_refused_at_once(self, capsys):
        code, stdout, err = run_fast(
            capsys, "sweep", "tradeoff", "--g-range", "60..60", "--ratio", "1:1"
        )
        assert code == 2
        assert stdout == ""
        assert err.startswith("error: g=60: ")

    @pytest.mark.parametrize("argv", [["--g-range", "-1..0"], ["--g-range=-1..0"]],
                             ids=["separate", "joined"])
    def test_negative_g_reaches_the_range_check(self, capsys, argv):
        # argparse alone takes a separate "-1..0" for an option
        code, stdout, err = run(capsys, "sweep", "tradeoff", *argv, "--ratio", "1:1")
        assert code == 2
        assert stdout == ""
        assert err == "error: g must be non-negative (code orders start at 2)\n"

    def test_missing_range_value_is_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "tradeoff", "--ratio", "1:1", "--g-range"])
        assert exc.value.code == 2
        assert "--g-range: expected one argument" in capsys.readouterr().err

    def test_bad_ratio_is_exit_2(self, capsys):
        code, _, err = run(
            capsys, "sweep", "tradeoff", "--g-range", "0..1", "--ratio", "0:1"
        )
        assert code == 2


class TestRefusals:
    """Refusals no other test reaches: the CLI exits 2 with its message on
    stderr and nothing on stdout, and the library raises with it."""

    @pytest.mark.parametrize("argv, message", [
        (["construct", "tradeoff", "--as", "2,x", "--bs", "2", "--out", "OUT"],
         "argument --as: expected comma-separated integers, got '2,x'"),
        (["measure", "--fn", "f.txt", "--measures", "s0"],
         "error: unrecognized function file 'f.txt' (expected .tt or .json)"),
        (["construct", "desensitized", "--base", "HAF2", "--certs", "DICT", "--out", "OUT"],
         "error: certificate file must be a JSON list of 0/1/* strings"),
        (["construct", "desensitized", "--base", "HAF2", "--certs", "ARITY3", "--out", "OUT"],
         "error: certificate '**1' has arity 3, function has 5"),
        (["construct", "desensitized", "--certs", "ARITY3", "--out", "OUT"],
         "error: desensitized needs --base"),
        (["sweep", "tradeoff", "--g-range", "0..1", "--ratio", "2"],
         "error: ratio must look like l:m, got '2'"),
        (["sweep", "tradeoff", "--g-range=-1..0", "--ratio", "1:1"],
         "error: g must be non-negative (code orders start at 2)"),
    ], ids=["as", "fn-suffix", "certs-dict", "certs-arity", "no-base", "ratio", "g-range"])
    def test_cli(self, tmp_path, capsys, argv, message):
        files = {"OUT": tmp_path / "out.json", "HAF2": tmp_path / "haf2.json",
                 "DICT": tmp_path / "dict.json", "ARITY3": tmp_path / "arity3.json"}
        files["HAF2"].write_text(json.dumps({"family": "haf", "params": {"r": 2}}))
        files["DICT"].write_text(json.dumps({"certificates": ["**1"]}))
        files["ARITY3"].write_text(json.dumps(["**1"]))
        try:
            code = main([str(files[a]) if a in files else a for a in argv])
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert message in captured.err
        assert not files["OUT"].exists()

    @pytest.mark.parametrize("call, error, message", [
        (lambda: constructions.tradeoff([]), ValueError, "need at least one outer code order"),
        (lambda: constructions.from_descriptor([]), ValueError,
         "descriptor must be a JSON object"),
        (lambda: constructions.desensitize(haf(2), CertificateCollection(1, (), True)),
         ValueError, "certificate collection is empty"),
        (lambda: constructions.desensitize(haf(2), CertificateCollection(
            1, (PartialAssignment.from_string("**1"),), True)),
         ArityError, "certificate arity 3 != function arity 5"),
        (lambda: haf(2).restrict(PartialAssignment.from_string("**1")), ArityError,
         "assignment arity 3 != function arity 5"),
        (lambda: verify.verify_subgraph_lemma(0), ValueError, "cube dimension must be positive"),
        (lambda: measures.two_layer_star_adjacency(0, 1), ValueError,
         "star parameters must be at least 1"),
        (lambda: measures.s0("x"), TypeError,
         "expected BooleanFunction or TruthTable, got str"),
        (lambda: measures.c0("x"), TypeError,
         "expected BooleanFunction or TruthTable, got str"),
    ], ids=["tradeoff", "descriptor", "desensitize-empty", "desensitize-arity", "restrict",
            "subgraph", "star", "s0", "c0"])
    def test_library(self, call, error, message):
        with pytest.raises(error, match=re.escape(message)):
            call()


class TestUnreadFlags:
    """A flag given where the command, verify suite or construct family does
    not read it exits 2 before anything runs; each of these exited 0."""

    @pytest.mark.parametrize("where", ["before", "after"])
    @pytest.mark.parametrize("argv", [
        ["construct", "haf", "--r", "2", "--out", "OUT"],
        ["export-graph", "--fn", "FN", "--format", "edges"],
    ], ids=["construct", "export-graph"])
    def test_tol_and_seed(self, tmp_path, capsys, monkeypatch, where, argv):
        given = ["--tol", "1e-3", "--seed", "5"]
        self.refused(tmp_path, capsys, monkeypatch,
                     given + argv if where == "before" else argv + given,
                     f"{argv[0]} does not read --tol")

    @pytest.mark.parametrize("argv, message", [
        (["verify", "desens", "--certs", "CERTS"],
         "verify desens does not read --certs; only desens --fn do"),
        (["verify", "lemmas", "--fn", "FN", "--count", "5"],
         "verify lemmas --fn does not read --count; only lemmas do"),
        (["verify", "simon", "--n", "2", "--seed", "5"],
         "verify simon does not read --seed; only subgraph and lemmas do"),
        (["construct", "haf", "--r", "2", "--k", "7", "--out", "OUT"],
         "construct haf does not read --k; only maf and address do"),
        (["construct", "desensitized", "--base", "FN", "--r", "2", "--out", "OUT"],
         "construct desensitized does not read --r; only haf do"),
        # matrix-free starts from the all-ones vector: nothing of lambda is seeded
        (["measure", "--fn", "FN", "--measures", "lambda", "--seed", "5"],
         "measure does not read --seed"),
        (["verify", "theorem1", "--seed", "5"],
         "verify theorem1 does not read --seed; only subgraph and lemmas do"),
        (["verify", "tradeoff", "--seed", "5"],
         "verify tradeoff does not read --seed; only subgraph and lemmas do"),
    ], ids=["desens-certs", "lemmas-fn-count", "simon-seed", "haf-k", "desensitized-r",
            "measure-seed", "theorem1-seed", "tradeoff-seed"])
    def test_suite_or_family(self, tmp_path, capsys, monkeypatch, argv, message):
        self.refused(tmp_path, capsys, monkeypatch, argv, message)

    def refused(self, tmp_path, capsys, monkeypatch, argv, message):
        # no command runs: dispatching would call None
        monkeypatch.setattr(cli, "_COMMANDS", dict.fromkeys(cli._COMMANDS))
        files = {"FN": write_and2(tmp_path), "CERTS": str(tmp_path / "c.json"),
                 "OUT": str(tmp_path / "out.tt")}
        code, stdout, err = run(capsys, *[files.get(a, a) for a in argv])
        assert (code, stdout, err) == (2, "", f"error: {message}\n")
        assert not os.path.exists(files["OUT"])

    def test_read_flags_still_run(self, tmp_path, capsys):
        code, _, _ = run(capsys, "--seed", "5", "verify", "subgraph")
        assert code == 0
        base = tmp_path / "or2.tt"
        TruthTable(2, np.array([0, 1, 1, 1], dtype=np.uint8)).save(str(base))
        certs = tmp_path / "c.json"
        certs.write_text('["1*", "01"]')
        out = tmp_path / "d.tt"
        code, stdout, _ = run(capsys, "construct", "desensitized", "--base", str(base),
                              "--certs", str(certs), "--out", str(out))
        assert code == 0 and out.exists()


class TestGlobalOptions:
    """--seed, --tol and --materialize-cap count before the subcommand as
    after it, and the value after it wins."""

    def test_seed_and_tol_before_the_subcommand(self, tmp_path, capsys, monkeypatch):
        path = write_and2(tmp_path)
        code, stdout, _ = run(
            capsys, "--tol", "1e-3", "measure", "--fn", path, "--measures", "s0"
        )
        assert code == 0
        assert json.loads(stdout)["tolerance"] == 1e-3
        code, stdout, _ = run(
            capsys, "--tol", "1e-3", "measure", "--tol", "1e-4", "--fn", path, "--measures", "s0"
        )
        assert code == 0
        assert json.loads(stdout)["tolerance"] == 1e-4
        # the lemma chain's random tables read the seed
        seeds = []
        monkeypatch.setattr(verify, "verify_lemma_chain_random",
                            lambda **kw: seeds.append(kw["seed"]) or [])
        for argv in (["--seed", "7", "verify", "lemmas"],
                     ["--seed", "7", "verify", "lemmas", "--seed", "9"],
                     ["verify", "lemmas"]):
            assert run(capsys, *argv)[0] == 0
        assert seeds == [7, 9, verify.DEFAULT_SEED]

    def test_materialize_cap_before_the_subcommand(self, tmp_path, capsys):
        desc = tmp_path / "haf2.json"
        desc.write_text('{"family": "haf", "params": {"r": 2}}\n')
        code, stdout, _ = run(
            capsys, "--materialize-cap", "3", "measure", "--fn", str(desc), "--measures", "s0"
        )
        assert code == 0
        (entry,) = json.loads(stdout)["entries"]
        assert entry["value"] is None
        assert entry["skipped"].startswith("cap:")

    @pytest.mark.parametrize("argv", [
        ["--threads", "2", "verify", "simon", "--n", "2"],
        ["verify", "simon", "--n", "2", "--threads", "2"],
    ])
    def test_threads_is_refused(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    # argparse took the value after an unknown option before the subcommand
    # for the subcommand: "argument command: invalid choice: '2'"
    @pytest.mark.parametrize("argv, option", [
        (["--threads", "2", "verify", "simon", "--n", "2"], "--threads"),
        (["--threads=2", "verify", "simon", "--n", "2"], "--threads=2"),
        (["-j", "2", "verify", "simon", "--n", "2"], "-j"),
        (["--seed", "3", "--bogus", "x", "measure", "--fn", "FN", "--measures", "s0"],
         "--bogus"),
        (["--bogus", "measure", "--fn", "FN", "--measures", "s0"], "--bogus"),
    ])
    def test_unknown_option_before_the_subcommand_is_named(self, tmp_path, capsys, argv,
                                                           option):
        path = write_and2(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main([path if a == "FN" else a for a in argv])
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        assert f"unrecognized arguments: {option}" in captured.err
        assert "invalid choice" not in captured.err

    def test_negative_seed_before_the_subcommand(self, capsys):
        # refused where it is parsed, with the option named, before or after
        # the subcommand; numpy's own refusal named none
        lemmas = ["verify", "lemmas", "--arities", "4", "--count", "2"]
        for argv in (["--seed", "-1", *lemmas], [*lemmas, "--seed", "-1"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            captured = capsys.readouterr()
            assert (exc.value.code, captured.out) == (2, "")
            assert captured.err.endswith(
                "error: argument --seed: expected a non-negative integer, got '-1'\n")

    def test_threads_env_is_ignored(self, capsys, monkeypatch):
        monkeypatch.delenv("SENSILAB_THREADS", raising=False)
        code, plain, _ = run(capsys, "verify", "simon", "--n", "2")
        monkeypatch.setenv("SENSILAB_THREADS", "x")
        code_env, with_env, _ = run(capsys, "verify", "simon", "--n", "2")
        assert code == code_env == 0

        def fields(out):
            return [{k: v for k, v in r.items() if k != "runtime"} for r in json.loads(out)]

        assert fields(with_env) == fields(plain)

    # each of these was accepted: --tol nan wrote "tolerance": NaN into the
    # report after power iteration ran to its limit, --tol -1 ran it to its
    # limit too, --materialize-cap -1 skipped every measure, and --arities -1
    # ended in Python's "negative shift count"
    @pytest.mark.parametrize("argv, option", [
        (["--tol", "nan", "measure", "--fn", "FN", "--measures", "lambda",
          "--method", "matfree"], "--tol"),
        (["measure", "--tol", "-1", "--fn", "FN", "--measures", "lambda",
          "--method", "matfree"], "--tol"),
        (["--materialize-cap", "-1", "measure", "--fn", "FN", "--measures", "s0"],
         "--materialize-cap"),
        (["verify", "lemmas", "--arities", "-1"], "--arities"),
    ])
    def test_edge_values_are_refused_where_parsed(self, tmp_path, capsys, argv, option):
        path = write_and2(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main([path if a == "FN" else a for a in argv])
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        assert f"argument {option}: " in captured.err

    @pytest.mark.parametrize("value", ["0", "inf", "x"])
    def test_tol_must_be_positive_and_finite(self, tmp_path, capsys, value):
        with pytest.raises(SystemExit) as exc:
            main(["--tol", value, "measure", "--fn", write_and2(tmp_path), "--measures", "s0"])
        assert exc.value.code == 2
        assert "argument --tol: expected a positive finite number" in capsys.readouterr().err

    def test_reports_refuse_non_finite_numbers(self, tmp_path):
        fn = TruthTable.load(write_and2(tmp_path))
        report = compute_measures(BooleanFunction.from_table(fn), ["s0"], tol=float("nan"))
        with pytest.raises(ValueError):
            report.to_json()
        claim = verify.ClaimResult("c", 1.0, float("inf"), "eq", "fail", 0.0)
        with pytest.raises(ValueError):
            verify.claims_to_json([claim])
