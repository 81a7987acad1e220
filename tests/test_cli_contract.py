"""The CLI's contract, held by a property test.

Hypothesis draws argv for the five commands from a grammar: the global
options at edge values (0, -1, nan, inf, huge), every family's flags at and
past their bounds, measure lists, every suite with and without --method, and
small .tt and .json files, some of them malformed. Each argv runs through
cli.main in this process with its output captured. The exit code must be 0, 1
or 2 (argparse's SystemExit(2) counts as 2) and no other exception may
escape. A flag the drawn command, suite or family does not read, by the
grammar's own lists, must exit 2 with a message that names it (or argparse's
usage, when it refuses some other part first), and no other flag may be
refused as unread. Stdout must be what was asked for: strict JSON, CSV, DOT
or edge text. Exit 1 may come only when some claim's status is "fail". Every
example must end within the deadline.

The grammar bounds the work, not the parsing: function files have arity at
most 10, --samples is at most 10^4, --count at most 50 and r is 2 or 3. Every
other value it draws is one the CLI must refuse.
"""

import contextlib
import io
import json
import os
import tempfile
from datetime import timedelta

import numpy as np
from hypothesis import HealthCheck, example, given, settings, strategies as st

from sensilab import cli
from sensilab.constructions import FAMILIES, from_descriptor
from sensilab.core import TruthTable

METHODS = sorted(cli._METHODS)

# each global option's values: (accepted, refused)
GLOBAL_VALUES = {
    "--seed": (["0", "7", "0x5eed", str(1 << 70)], ["-1", "nan", "inf", "", "x"]),
    "--tol": (["1e-9", "1e-6", "0.5", "1e300"], ["0", "-1", "nan", "inf", "-inf", "1e-400", "x"]),
    "--materialize-cap": (["0", "5", "26", "100000"], ["-1", "nan", "1.5"]),
}

# JSON nested past the decoder's recursion limit
DEEP = b"[" * 5000 + b"]" * 5000
OR2 = {"family": "table", "params": {"n": 2, "hex": "e"}}
# (arity, descriptor): the valid ones a function file may hold
DESCRIPTORS = [
    (5, {"family": "haf", "params": {"r": 2}}),
    (5, {"family": "chaf", "params": {"rs": [2]}}),
    (4, {"family": "maf", "params": {"k": 2}}),
    (6, {"family": "maf", "params": {"k": 3}}),
    (10, {"family": "maf", "params": {"k": 4}}),
    (3, {"family": "address", "params": {"k": 1}}),
    (6, {"family": "address", "params": {"k": 2}}),
    (5, {"family": "tradeoff", "params": {"as": [2]}}),
    (10, {"family": "tradeoff", "params": {"as": [2, 2], "bs": []}}),
    (6, {"family": "desensitized", "params": {"base": OR2, "certificates": ["1*", "01"]}}),
]
BAD_DESCRIPTORS = [
    [], "haf", {"family": "haf"}, {"family": "haf", "params": {"r": "2"}},
    {"family": "haf", "params": {"r": True}}, {"family": "haf", "params": {"r": 1}},
    {"family": "haf", "params": {"r": 1 << 70}}, {"family": "nope", "params": {}},
    {"family": "maf", "params": {"k": 1 << 40}}, {"family": "address", "params": {"k": 0}},
    {"family": "chaf", "params": {"rs": []}}, {"family": "tradeoff", "params": {"as": [2], "bs": [1]}},
    {"family": "table", "params": {"n": 1 << 40, "hex": "0"}},
    {"family": "table", "params": {"n": 2, "hex": "E"}},
    {"family": "desensitized", "params": {"base": 3, "certificates": []}},
    {"family": "desensitized", "params": {"base": OR2, "certificates": ["1*"]}},
    {"family": "desensitized", "params": {"base": OR2, "certificates": ["1*", "*1"]}},
    {"family": "desensitized", "params": {"base": OR2, "certificates": ["1"]}},
]
BAD_FILES = [
    ("f.tt", b""), ("f.tt", b"n=3\n"), ("f.tt", b"n=3\nzz\n"), ("f.tt", b"n=-1\n0\n"),
    ("f.tt", b"n=3\n0\n"), ("f.tt", b"n=64\n0\n"), ("f.tt", b"n=%d\n0\n" % (1 << 40)),
    ("f.tt", b"n=x\n00\n"), ("f.tt", b"\xff\xfe"), ("f.json", b"{"), ("f.json", b"\xff"),
    ("f.json", DEEP), ("f.json", b'{"family": "haf", "params": {"r": NaN}}'),
    ("f.txt", b"n=1\n2\n"),
]


def refused(draw) -> bool:
    """True about one time in eight: draw a value the CLI must refuse."""
    return draw(st.sampled_from([False] * 7 + [True]))


def pick(draw, accepted, refusals=()):
    """An accepted value, or now and then one of the refusals."""
    return draw(st.sampled_from(refusals if refusals and refused(draw) else accepted))


def optional(draw, flag, accepted, refusals=()):
    """[flag, value] half the time, else nothing."""
    return [flag, pick(draw, accepted, refusals)] if draw(st.booleans()) else []


def part_file(name, content):
    return ("file", name, content)


@st.composite
def tables(draw, max_n):
    n = draw(st.integers(1, max_n))
    kind = draw(st.sampled_from(["random", "random", "zeros", "ones"]))
    rng = np.random.default_rng(draw(st.integers(0, 1 << 16)))
    values = {"random": lambda: rng.integers(0, 2, 1 << n), "zeros": lambda: np.zeros(1 << n),
              "ones": lambda: np.ones(1 << n)}[kind]()
    return TruthTable(n, values.astype(np.uint8))


@st.composite
def function_files(draw, max_n=10):
    """(argv part, table values or None) for a function file: a table or a
    descriptor, or else a malformed file, a missing path or a directory."""
    kind = pick(draw, ["tt", "tt", "json"], ["bad", "bad-json", "missing", "dir"])
    if kind == "tt":
        table = draw(tables(max_n))
        return part_file("f.tt", table.dumps().encode()), table.values
    if kind == "json":
        arity, desc = draw(st.sampled_from([d for d in DESCRIPTORS if d[0] <= max_n]))
        return part_file("f.json", json.dumps(desc).encode()), from_descriptor(desc).table().values
    if kind == "bad":
        return part_file(*draw(st.sampled_from(BAD_FILES))), None
    if kind == "bad-json":
        return part_file("f.json", json.dumps(draw(st.sampled_from(BAD_DESCRIPTORS))).encode()), None
    if kind == "missing":
        return ("path", "absent.tt"), None
    return ("dir", "d.json"), None


@st.composite
def cert_files(draw, values):
    """A --certs file: the minterms of values' ones (an unambiguous cover),
    or one that is incomplete, overlapping, of the wrong arity or malformed."""
    n = 1 if values is None else len(values).bit_length() - 1
    ones = [] if values is None else [
        "".join(str((x >> j) & 1) for j in range(n)) for x in np.flatnonzero(values).tolist()]
    kind = pick(draw, ["cover"], ["short", "overlap", "arity", "char", "object", "deep"])
    content = {
        "cover": ones, "short": ones[1:], "overlap": ones + ["*" * n], "arity": ["1" * (n + 1)],
        "char": ["2" * n], "object": {"certs": ones},
    }.get(kind)
    raw = DEEP if kind == "deep" else json.dumps(content).encode()
    return part_file("c.json", raw)


def out_part(draw, suffixes):
    return ("out", pick(draw, suffixes, ["missing/o.json"]))


# construct's flags for each family: accepted values keep the table at
# arity 11 or less, and (--as, --bs) never gives tradeoff(2,2;2), of arity 26
CONSTRUCT_FLAGS = {
    "haf": [("--r", ["2"], ["1", "0", "-1", "6", str(1 << 70), "x"])],
    "chaf": [("--rs", ["2", "2,2"], ["", "1", "2,1", "40", "x"])],
    "maf": [("--k", ["2", "3", "4"], ["1", "0", "-1", str(1 << 40), "x"])],
    "address": [("--k", ["1", "2", "3"], ["0", "-1", str(1 << 40), "x"])],
}
# the flags each command reads wherever it runs, and those each verify suite
# ("<suite> --fn": given a function file) and construct family reads besides
COMMAND_READS = {
    "construct": ["--out"],
    "measure": ["--tol", "--materialize-cap", "--fn", "--measures", "--method"],
    "verify": ["--csv"],
    "export-graph": ["--materialize-cap", "--fn", "--format", "--component", "--out"],
    "sweep": ["--g-range", "--ratio", "--out"],
}
SUITE_READS = {
    "theorem1": ["--r", "--method"], "simon": ["--n"],
    "subgraph": ["--n", "--samples", "--seed"], "lemmas": ["--arities", "--count", "--seed"],
    "desens": [], "tradeoff": ["--as", "--bs", "--method"], "maf": ["--k"],
    "lemmas --fn": ["--fn", "--method"], "desens --fn": ["--fn", "--certs"],
}
FAMILY_READS = {family: [flag for flag, *_ in flags] for family, flags in CONSTRUCT_FLAGS.items()}
FAMILY_READS |= {"tradeoff": ["--as", "--bs"], "desensitized": ["--base", "--certs"]}
# a value argparse takes for each flag some suite or family reads
FLAG_VALUES = {
    "--seed": "0", "--tol": "1e-6", "--materialize-cap": "5", "--r": "2", "--rs": "2",
    "--n": "2", "--k": "2", "--as": "2", "--bs": "2", "--samples": "1", "--count": "1",
    "--arities": "4", "--method": "auto", "--fn": "f.tt", "--certs": "c.json", "--base": "b.tt",
}

TRADEOFF_PARAMS = (
    [["--as", "2"], ["--as", "2", "--bs", ""], ["--as", "2,2", "--bs", ""], ["--as", "2", "--bs", "2"]],
    [[], ["--as", ""], ["--as", "1"], ["--as", "2", "--bs", "1"], ["--as", "40", "--bs", ""],
     ["--as", "2,x"], ["--bs", "2"]],
)


@st.composite
def construct_argv(draw):
    family = pick(draw, list(FAMILIES), ["bogus"])
    argv = ["construct", family]
    for flag, accepted, refusals in CONSTRUCT_FLAGS.get(family, []):
        # a missing parameter is refused too
        argv += [flag, pick(draw, accepted, refusals)] if not refused(draw) else []
    if family == "tradeoff":
        argv += pick(draw, *TRADEOFF_PARAMS)
    if family == "desensitized" and not refused(draw):
        # a base of arity at most 6, so the result's is at most 18
        base, values = draw(function_files(max_n=6))
        argv += ["--base", base]
        if draw(st.booleans()):
            argv += ["--certs", draw(cert_files(values))]
    reads = COMMAND_READS["construct"] + FAMILY_READS.get(family, [])
    if not refused(draw):
        out = out_part(draw, ["o.tt", "o.json"])
        argv += ["--out", out]
        # only a table file reads the cap
        reads += ["--materialize-cap"] * out[1].endswith(".tt")
    return argv, "construct", reads


@st.composite
def measure_argv(draw):
    names = draw(st.lists(st.sampled_from(["s0", "s1", "s", "deg", "lambda", "c0", "c1", "uc1", ""]),
                          max_size=4))
    if refused(draw):
        names.append("bogus")
    # a uc1 search on a random table of arity 6..8 may spend its whole node budget
    fn, _ = draw(function_files(max_n=5 if "uc1" in names else 10))
    argv = ["measure", "--fn", fn, "--measures", ",".join(names)]
    return argv + optional(draw, "--method", METHODS, ["bogus"]), "json", COMMAND_READS["measure"]


@st.composite
def verify_argv(draw):
    suite = pick(draw, [key for key in SUITE_READS if " " not in key], ["bogus"])
    argv = ["verify", suite]
    # --fn picks the suite's "<suite> --fn" reads where it has them
    key = suite
    if suite == "theorem1":
        # r = 3 builds haf(3), a table of arity 23, in about a quarter of a second
        argv += optional(draw, "--r", ["2", "2", "2", "3"], ["1", "4", "-1", "x"])
    elif suite == "simon":
        argv += optional(draw, "--n", ["2", "3", "4"], ["1", "5", "0", "x"])
    elif suite == "subgraph":
        # exhaustive up to n = 4; a sampled run costs samples * 2^n
        if draw(st.booleans()):
            argv += optional(draw, "--n", ["1", "2", "3", "4"], ["0", "-1", "21", "x"])
        else:
            argv += ["--n", pick(draw, [str(n) for n in range(1, 11)], ["0", "21"]),
                     "--samples", pick(draw, ["1", "100", "1000"], ["0", "-1", "x"])]
    elif suite in ("lemmas", "desens") and draw(st.booleans()):
        fn, values = draw(function_files(max_n=10 if suite == "lemmas" else 6))
        argv += ["--fn", fn]
        key = f"{suite} --fn"
        if suite == "desens" and (values is None or draw(st.booleans())):
            argv += ["--certs", draw(cert_files(values))]
    elif suite == "lemmas":
        # the suite's default count is 1000 tables per arity: always given;
        # without --arities it runs n = 4..10
        arities = pick(draw, [None, "4", "1,2,3", "10", "6,7"], ["", "0", "-1", "40", "x"])
        count = pick(draw, ["1", "5"] + ["50"] * (arities in ("4", "1,2,3")),
                     ["0", "-1", str(1 << 40), "x"])
        argv += ["--count", count] + (["--arities", arities] if arities is not None else [])
    elif suite == "tradeoff":
        # --bs defaults to 2, so --as 2,2 comes with --bs given
        argv += pick(draw, [[], ["--as", "2", "--bs", ""], ["--as", "2,2", "--bs", ""], ["--as", "2"]],
                     [["--as", ""], ["--as", "1"], ["--as", "2", "--bs", "1"],
                      ["--as", "40", "--bs", ""], ["--as", "2,x"], ["--as", "3", "--bs", "2"]])
    elif suite == "maf":
        argv += optional(draw, "--k", ["2", "3", "4", "5"], ["1", "7", "x"])
    reads = COMMAND_READS["verify"] + SUITE_READS.get(key, [])
    if "--method" in reads:
        argv += optional(draw, "--method", METHODS, ["bogus"])
    if draw(st.integers(0, 4)) == 0:
        argv += ["--csv", out_part(draw, ["c.csv"])]
    return argv, "claims", reads + ["--fn"] * (f"{suite} --fn" in SUITE_READS)


@st.composite
def export_argv(draw):
    fn, _ = draw(function_files())
    argv = ["export-graph", "--fn", fn]
    if not refused(draw):
        argv += ["--format", pick(draw, ["dot", "edges"], ["bogus"])]
    argv += optional(draw, "--component", ["0", "1"], ["-1", "99", "x"])
    if draw(st.integers(0, 3)) == 0:
        argv += ["--out", out_part(draw, ["g.txt"])]
    return argv, "graph", COMMAND_READS["export-graph"]


@st.composite
def sweep_argv(draw):
    argv = ["sweep", pick(draw, ["tradeoff"], ["bogus"])]
    if not refused(draw):
        argv += ["--g-range", pick(draw, ["0..2", "0..0", "1..3"],
                                   ["-1..1", "a..b", "0..100", "1", "0..1..2", "2..0"])]
    if not refused(draw):
        argv += ["--ratio", pick(draw, ["1:0", "1:1", "2:1"],
                                 ["0:1", "1:-1", "a:b", "1", str(1 << 20) + ":0"])]
    if draw(st.integers(0, 3)) == 0:
        argv += ["--out", out_part(draw, ["s.csv"])]
    return argv, "csv", COMMAND_READS["sweep"]


@st.composite
def argvs(draw):
    argv, kind, reads = draw(st.one_of(verify_argv(), measure_argv(), construct_argv(),
                                       export_argv(), sweep_argv()))
    # each global option is given a quarter of the time, before the
    # subcommand or after it
    for flag, (accepted, refusals) in GLOBAL_VALUES.items():
        where = draw(st.sampled_from(["none", "none", "none", "none", "none", "none", "before", "after"]))
        if where != "none":
            given = [flag, pick(draw, accepted, refusals)]
            argv = given + argv if where == "before" else argv + given
    # about one time in eight, a flag that some other suite or family reads
    per_key = {"verify": SUITE_READS, "construct": FAMILY_READS}.get(argv[0], {})
    others = [flag for flag in dict.fromkeys([*GLOBAL_VALUES, *sum(per_key.values(), [])])
              if flag not in reads]
    if others and refused(draw):
        flag = draw(st.sampled_from(others))
        argv = argv + [flag, FLAG_VALUES[flag]]
    given = [part for part in argv if isinstance(part, str) and part.startswith("--")]
    return argv, kind, [flag for flag in given if flag not in reads]


def materialize(argv, root):
    """argv with each file part written under root and replaced by its path."""
    out = []
    for part in argv:
        if isinstance(part, tuple):
            kind, name = part[:2]
            path = os.path.join(root, name)
            if kind == "file":
                with open(path, "wb") as fh:
                    fh.write(part[2])
            elif kind == "dir":
                os.makedirs(path, exist_ok=True)
            part = path
        out.append(part)
    return out


def strict_json(text):
    def refuse(constant):
        raise ValueError(f"non-finite number {constant} in JSON output")

    return json.loads(text, parse_constant=refuse)


def check_stdout(kind, argv, code, out):
    if kind == "claims":
        claims = strict_json(out)
        failed = [c["claim"] for c in claims if c["status"] == "fail"]
        assert all(c["status"] in ("pass", "fail", "skipped") for c in claims)
        if code != 2:
            assert (code == 1) == bool(failed), (code, failed)
    elif kind == "json":
        assert code == 0
        assert isinstance(strict_json(out)["entries"], list)
    elif kind == "csv":
        header, *rows = out.splitlines()
        assert header == "n,s0,s1,lambda_sq,c_hat"
        assert all(len(row.split(",")) == 5 and float(row.split(",")[-1]) >= 0 for row in rows)
    elif kind == "graph":
        dot = out.startswith("graph sensitivity {\n")
        lines = out.splitlines()[1:-1] if dot else out.splitlines()
        for line in lines:
            x, y = line.replace('"', "").strip(" ;").split(" -- " if dot else " ")
            assert len(x) == len(y) and sum(a != b for a, b in zip(x, y)) == 1, line
        assert "--format" in argv and argv[argv.index("--format") + 1] == ("dot" if dot else "edges")
    else:
        assert out.startswith("wrote ") and out.count("\n") == 1


@settings(max_examples=500, deadline=timedelta(seconds=5), derandomize=True,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(case=argvs())
# found by this test: JSON nested past the recursion limit ended in a
# RecursionError traceback, and a table header of n = 2^40 asked for a
# 128 GiB integer before its hex digits were counted
@example(case=(["measure", "--fn", ("file", "f.json", DEEP), "--measures", "s0"], "json", []))
@example(case=(["verify", "desens", "--fn", ("file", "f.tt", b"n=2\ne\n"),
                "--certs", ("file", "c.json", DEEP)], "claims", []))
@example(case=(["measure", "--fn", ("file", "f.tt", b"n=%d\n0\n" % (1 << 40)), "--measures", "s0"],
               "json", []))
def test_cli_contract(case):
    argv, kind, unread = case
    with tempfile.TemporaryDirectory() as root:
        args = materialize(argv, root)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = cli.main(args)
            except SystemExit as exc:
                code = exc.code
    out, err = stdout.getvalue(), stderr.getvalue()
    assert code in (0, 1, 2), (code, err)
    if code == 1:
        assert kind == "claims"
    if code == 2:
        assert err.strip(), "a refusal says why"
    if unread:
        assert code == 2
        assert err.startswith("usage:") or any(f"does not read {f}" in err for f in unread), err
    else:
        assert "does not read" not in err, err
    if out:
        check_stdout(kind, args, code, out)
    elif code == 0:
        # the output went to the --out file, or a graph has no edges
        assert "--out" in args or kind == "graph"
