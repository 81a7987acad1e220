"""Command-line surface: construct, measure, verify, export-graph, sweep.

Exit codes: 0 success (and all claims passing), 1 verification failure,
2 input error. A flag given to a command that reads it nowhere, or to a
verify suite or construct family that does not read it, is an input error:
_READS is the one table of which flags each of them reads.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys

import numpy as np

from . import verify as verify_mod
from .constructions import (
    FAMILIES,
    desensitize,
    from_descriptor,
    to_descriptor,
    tradeoff_profile,
)
from .core import (
    BooleanFunction,
    CertificateCollection,
    DEFAULT_TABLE_CAP,
    PartialAssignment,
    TruthTable,
)
from .measures import (
    DEFAULT_TOL,
    GRAPH_EXPORT_CAP,
    ConvergenceError,
    SensitivityGraph,
    _table_of,
    compute_measures,
    graph_dot_text,
    graph_edges_text,
)

_METHODS = {
    "auto": "auto",
    "dense": "dense",
    "matfree": "matrix-free",
    "components": "component-wise",
    "analytic": "analytic",
}


# The global options each command reads (under ""), and the flags each verify
# suite ("<suite> --fn" when given a function file) and construct family reads,
# and those construct reads when it writes a table ("--out .tt"). A flag under
# none of a command's keys, such as --csv or --out, is read by all.
_READS = {
    "construct": {"": (), "--out .tt": ("--materialize-cap",)} | {
        name: tuple("--certs" if key == "certificates" else f"--{key}" for key, _ in family.params)
        for name, family in FAMILIES.items()
    },
    "measure": {"": ("--tol", "--materialize-cap")},
    "verify": {
        "": (),
        "theorem1": ("--r", "--method"),
        "simon": ("--n",),
        "subgraph": ("--n", "--samples", "--seed"),
        "lemmas": ("--arities", "--count", "--seed"),
        "desens": (),
        "tradeoff": ("--as", "--bs", "--method"),
        "maf": ("--k",),
        "lemmas --fn": ("--fn", "--method"),
        "desens --fn": ("--fn", "--certs"),
    },
    "export-graph": {"": ("--materialize-cap",)},
    "sweep": {"": ()},
}


def _int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _checked(parse, ok, what: str):
    """An argparse type: the text parsed, refused unless ok accepts it."""
    def check(text: str):
        try:
            if ok(value := parse(text)):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")
    return check


def load_function(path: str) -> BooleanFunction:
    """Read a .tt truth-table file or a .json construction descriptor."""
    if path.endswith(".tt"):
        table = TruthTable.load(path)
        return BooleanFunction.from_table(table, name=os.path.basename(path))
    if path.endswith(".json"):
        with open(path) as fh:
            obj = json.load(fh)
        return from_descriptor(obj)
    raise ValueError(f"unrecognized function file {path!r} (expected .tt or .json)")


def _certificates(fn: BooleanFunction, path: str | None, label: str) -> CertificateCollection:
    """The 1-certificates in the --certs file at path (a JSON list of 0/1/*
    strings), else the collection fn's construction carries."""
    if path is None:
        if fn.meta is None or fn.meta.certificates is None:
            raise ValueError(
                f"{label} needs --certs unless the function carries its own collection"
            )
        return fn.meta.certificates
    with open(path) as fh:
        obj = json.load(fh)
    if not isinstance(obj, list) or not all(isinstance(e, str) for e in obj):
        raise ValueError("certificate file must be a JSON list of 0/1/* strings")
    members = tuple(PartialAssignment.from_string(e) for e in obj)
    for memb in members:
        if memb.arity != fn.arity:
            raise ValueError(
                f"certificate {memb.to_string()!r} has arity {memb.arity}, "
                f"function has {fn.arity}"
            )
    return CertificateCollection(1, members, unambiguous=True)


def _global_options(default) -> argparse.ArgumentParser:
    """--seed, --tol and --materialize-cap, each defaulting to default."""
    common = argparse.ArgumentParser(add_help=False)
    seed = _checked(lambda v: int(v, 0), lambda v: v >= 0, "a non-negative integer")
    common.add_argument("--seed", type=seed, default=default)
    positive = _checked(float, lambda v: 0 < v < math.inf, "a positive finite number")
    common.add_argument("--tol", type=positive, default=default)
    cap = _checked(int, lambda v: v >= 0, "a non-negative integer")
    common.add_argument("--materialize-cap", type=cap, default=default, dest="materialize_cap")
    return common


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sensilab",
        description="constructions, measures, and verification for Boolean function sensitivity",
        parents=[_global_options(None)],
    )
    # the global options stay None unless given, so that a command which does
    # not read one can refuse it; the commands that read them fill in the
    # defaults. They are accepted after the subcommand too; there they set
    # nothing unless given, so a value given before the subcommand survives,
    # and one given after it wins
    common = _global_options(argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", parents=[common], help="build a function and write it out")
    p.add_argument("family", choices=list(FAMILIES))
    # each flag's dest is the descriptor key it fills
    p.add_argument("--r", type=int)
    p.add_argument("--rs", type=_int_list)
    p.add_argument("--k", type=int)
    p.add_argument("--as", type=_int_list)
    p.add_argument("--bs", type=_int_list)
    p.add_argument("--base", help="function file the desensitized family wraps")
    p.add_argument("--certs", help="JSON list of 0/1/* strings for desensitized")
    p.add_argument("--out", required=True)

    p = sub.add_parser("measure", parents=[common], help="measure a function file")
    p.add_argument("--fn", required=True)
    p.add_argument("--measures", required=True, help="comma list: s0,s1,s,deg,lambda,c0,c1,uc1")
    p.add_argument("--method", choices=sorted(_METHODS), default="auto")

    p = sub.add_parser("verify", parents=[common], help="run a verification suite")
    p.add_argument("suite", choices=[key for key in _READS["verify"] if key and " " not in key])
    p.add_argument("--r", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--as", type=_int_list)
    p.add_argument("--bs", type=_int_list)
    p.add_argument("--samples", type=int)
    p.add_argument("--count", type=int)
    p.add_argument("--arities", type=_checked(_int_list, lambda v: min(v, default=1) >= 1,
                                              "arities of at least 1"))
    p.add_argument("--fn")
    p.add_argument("--certs")
    # None (auto) unless given, so that a suite which does not read it can refuse it
    p.add_argument("--method", choices=sorted(_METHODS), default=None)
    p.add_argument("--csv", help="also write a CSV summary here")

    p = sub.add_parser("export-graph", parents=[common], help="emit the sensitivity graph")
    p.add_argument("--fn", required=True)
    p.add_argument("--format", required=True, choices=["dot", "edges"])
    p.add_argument("--component", type=int, default=None)
    p.add_argument("--out", default=None)

    p = sub.add_parser("sweep", parents=[common], help="closed-form parameter sweep")
    p.add_argument("family", choices=["tradeoff"])
    p.add_argument("--g-range", dest="g_range", required=True, help="inclusive range a..b")
    p.add_argument("--ratio", required=True, help="l:m outer:inner code counts")
    p.add_argument("--out", default=None)

    return parser


def _cmd_construct(args) -> int:
    family = FAMILIES[args.family]
    if any(kind == "descriptor" for _, kind in family.params):
        # a family that wraps another function reads it from the --base file
        if args.base is None:
            raise ValueError(f"{args.family} needs --base")
        base = load_function(args.base)
        fn = desensitize(base, _certificates(base, args.certs, args.family))
    else:
        flags = vars(args)
        params = {key: flags[key] for key, _ in family.params if flags[key] is not None}
        fn = from_descriptor({"family": args.family, "params": params})

    out = args.out
    if out.endswith(".tt"):
        fn.table(_materialize_cap(args)).save(out)
    elif out.endswith(".json"):
        with open(out, "w") as fh:
            json.dump(to_descriptor(fn), fh, indent=2, allow_nan=False)
            fh.write("\n")
    else:
        raise ValueError(f"output {out!r} must end in .tt or .json")
    print(f"wrote {out} ({fn.name}, arity {fn.arity})")
    return 0


def _materialize_cap(args) -> int:
    return DEFAULT_TABLE_CAP if args.materialize_cap is None else args.materialize_cap


def _cmd_measure(args) -> int:
    fn = load_function(args.fn)
    names = [part for part in args.measures.split(",") if part]
    report = compute_measures(
        fn,
        names,
        method=_METHODS[args.method],
        tol=DEFAULT_TOL if args.tol is None else args.tol,
        materialize_cap=_materialize_cap(args),
        source=args.fn,
    )
    print(report.to_json())
    return 0


def _cmd_verify(args) -> int:
    suite = args.suite
    seed = verify_mod.DEFAULT_SEED if args.seed is None else args.seed
    method = _METHODS[args.method or "auto"]
    if suite == "theorem1":
        claims = verify_mod.verify_theorem1(args.r if args.r is not None else 2,
                                            lambda_method=method)
    elif suite == "simon":
        ns = [args.n] if args.n is not None else [2, 3, 4]
        claims = []
        for n in ns:
            claims.extend(verify_mod.verify_simon(n))
    elif suite == "subgraph":
        claims = verify_mod.verify_subgraph_lemma(
            args.n if args.n is not None else 3,
            samples=args.samples,
            seed=seed,
        )
    elif suite == "lemmas":
        if args.fn is not None:
            fn = load_function(args.fn)
            claims = verify_mod.verify_lemma_chain(
                fn, name=os.path.basename(args.fn), method=method
            )
            claims.extend(verify_mod.verify_edge_bound(fn, name=os.path.basename(args.fn)))
        else:
            # the suite's own defaults stand for flags not given
            given = {"arities": args.arities, "count": args.count}
            claims = verify_mod.verify_lemma_chain_random(
                seed=seed, **{k: v for k, v in given.items() if v is not None}
            )
    elif suite == "desens":
        if args.fn is not None:
            fn = load_function(args.fn)
            certs = _certificates(fn, args.certs, suite)
            claims = verify_mod.verify_desensitization(fn, certs, name=os.path.basename(args.fn))
        else:
            # default instance: OR on two bits with its standard partition
            table = TruthTable(2, np.array([0, 1, 1, 1], dtype=np.uint8))
            fn = BooleanFunction.from_table(table, name="or2")
            certs = CertificateCollection(
                1,
                (
                    PartialAssignment.from_string("1*"),
                    PartialAssignment.from_string("01"),
                ),
                unambiguous=True,
            )
            claims = verify_mod.verify_desensitization(fn, certs, name="or2")
    elif suite == "tradeoff":
        as_ = vars(args)["as"] if vars(args)["as"] is not None else [2]
        bs_ = args.bs if args.bs is not None else [2]
        claims = verify_mod.verify_tradeoff(as_, bs_, lambda_method=method)
    else:
        ks = [args.k] if args.k is not None else [2, 3, 4]
        claims = []
        for k in ks:
            claims.extend(verify_mod.verify_maf_proposition(k))
    print(verify_mod.claims_to_json(claims))
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write(verify_mod.claims_to_csv(claims))
    return 0 if verify_mod.all_pass(claims) else 1


def _cmd_export_graph(args) -> int:
    fn = load_function(args.fn)
    cap = min(_materialize_cap(args), GRAPH_EXPORT_CAP)
    graph = SensitivityGraph(_table_of(fn, cap, "graph export"))
    if args.format == "dot":
        text = graph_dot_text(graph, component=args.component)
    else:
        text = graph_edges_text(graph, component=args.component)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _parse_range(text: str) -> range:
    parts = text.split("..")
    if len(parts) != 2:
        raise ValueError(f"range must look like a..b, got {text!r}")
    try:
        lo, hi = int(parts[0]), int(parts[1])
    except ValueError:
        raise ValueError(f"range must look like a..b with integers, got {text!r}") from None
    if lo > hi:
        raise ValueError(f"range must look like a..b with a <= b, got {text!r}")
    return range(lo, hi + 1)


def _parse_ratio(text: str) -> tuple[int, int]:
    parts = text.split(":")
    if len(parts) != 2:
        raise ValueError(f"ratio must look like l:m, got {text!r}")
    try:
        l, m = int(parts[0]), int(parts[1])
    except ValueError:
        raise ValueError(f"ratio must look like l:m with integers, got {text!r}") from None
    if l < 1 or m < 0:
        raise ValueError("ratio needs at least one outer code and a non-negative inner count")
    return l, m


def _cmd_sweep(args) -> int:
    gs = _parse_range(args.g_range)
    l, m = _parse_ratio(args.ratio)
    lines = ["n,s0,s1,lambda_sq,c_hat"]
    for g in gs:
        if g < 0:
            raise ValueError("g must be non-negative (code orders start at 2)")
        as_ = [2 + g] * l
        bs_ = [2 + g] * m
        try:
            prof = tradeoff_profile(as_, bs_)
        except ValueError as exc:
            raise ValueError(f"g={g}: {exc}") from None
        c_hat = prof["s0"] / (prof["s0"] + prof["s1"])
        lines.append(
            f"{prof['arity']},{prof['s0']},{prof['s1']},{prof['lambda_sq']},{c_hat!r}"
        )
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


_COMMANDS = {"construct": _cmd_construct, "measure": _cmd_measure, "verify": _cmd_verify,
             "export-graph": _cmd_export_graph, "sweep": _cmd_sweep}


def _refuse_unknown_leading(parser: argparse.ArgumentParser, argv: list[str]) -> None:
    """Exit 2 naming any unknown option before the subcommand, whose value argparse
    would take for the subcommand; the full parse reports a malformed known one."""
    scan = argparse.ArgumentParser(parents=[_global_options(None)], add_help=False,
                                   exit_on_error=False)
    scan.add_argument("-h", "--help", action="store_true")
    try:
        extras = scan.parse_known_args(itertools.takewhile(lambda a: a not in _COMMANDS, argv))[1]
    except argparse.ArgumentError:
        return
    if unknown := [arg for arg in extras if arg.startswith("-")]:
        parser.error(f"unrecognized arguments: {' '.join(unknown)}")


def _joined_ranges(argv: list[str]) -> list[str]:
    """argv with each "--g-range VALUE" as "--g-range=VALUE": argparse takes a
    separate value that starts with "-", such as -1..0, for an option, and
    stops there before the range check can refuse it."""
    out, args = [], iter(argv)
    for arg in args:
        value = next(args, None) if arg == "--g-range" else None
        out.append(arg if value is None else f"{arg}={value}")
    return out


def _refuse_unread(args) -> None:
    """ValueError naming the first flag in _READS that was given and that
    neither the command nor its verify suite or construct family reads."""
    reads = _READS[args.command]
    key = vars(args).get("suite") or vars(args).get("family", "")
    if f"{key} --fn" in reads and args.fn is not None:
        key += " --fn"
    read = reads[""] + reads.get(key, ())
    if (vars(args).get("out") or "").endswith(".tt"):
        read += reads.get("--out .tt", ())
    for flag in dict.fromkeys(("--tol", "--materialize-cap", "--seed") + sum(reads.values(), ())):
        if flag in read or getattr(args, flag[2:].replace("-", "_")) is None:
            continue
        if not (readers := [k for k, flags in reads.items() if flag in flags]):
            raise ValueError(f"{args.command} does not read {flag}")
        only = ", ".join(readers[:-1]) + " and " * (len(readers) > 1) + readers[-1]
        raise ValueError(f"{args.command} {key} does not read {flag}; only {only} do")


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else argv
    _refuse_unknown_leading(parser, argv)
    args = parser.parse_args(_joined_ranges(argv))
    try:
        _refuse_unread(args)
        return _COMMANDS[args.command](args)
    # a RecursionError comes from a JSON file nested past the decoder's limit
    except (ValueError, OSError, ConvergenceError, RecursionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
