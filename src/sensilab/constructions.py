"""Function families with extreme sensitivity profiles.

Every factory returns a BooleanFunction whose meta records the construction
family, its parameters, the predicted measure values where the family makes
a claim, and (when small enough to materialize) the generating collection of
1-certificates.

The address-style families (chaf and so haf, address, maf) are address
functions f(c, d) = d[m(c)]: the low positions hold the address c (for chaf,
one or more codeword sections), the high positions the data section d. Each
describes m once, as a read map from an address to the data bit it reads or
to a constant; the point evaluator, the table builder (rows the data
sections, columns the addresses) and the 1-certificates, a member per
address that does not force 0, all derive from it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Callable, Iterator, Sequence

import numpy as np

from .core import (
    ArityError,
    BooleanFunction,
    CertificateCollection,
    DEFAULT_TABLE_CAP,
    PartialAssignment,
    TruthTable,
)
from .codes import HammingCode

# Evaluators stay fast and exact well past table range, but refuse absurd
# arities outright.
MAX_CONSTRUCTION_ARITY = 1 << 27

# Certificate collections are materialized only when they stay small.
MAX_EAGER_CERTIFICATES = 4096

# desensitize checks its certificate collection exhaustively up to here.
DESENS_VALIDATION_CAP = 20

# Closed-form profiles are refused once their arity leaves int64.
MAX_PROFILE_ARITY = 1 << 62


@dataclass(frozen=True)
class ConstructionMeta:
    """What a construction claims about itself.

    predicted_* values are the family's closed forms for the concrete
    parameters; they are claims to verify, not measurements. codeword_len
    and data_len describe the section split for families that have one.
    """

    family: str | None = None
    params: dict | None = None
    predicted_arity: int | None = None
    predicted_s0: int | None = None
    predicted_s1: int | None = None
    predicted_lambda_sq: int | None = None
    certificates: CertificateCollection | None = None
    codeword_len: int | None = None
    data_len: int | None = None
    certificates_validated: bool = True

    def negated(self) -> "ConstructionMeta":
        certs = self.certificates
        if certs is not None:
            certs = replace(certs, target_value=1 - certs.target_value)
        return replace(
            self,
            family=None,
            params=None,
            predicted_s0=self.predicted_s1,
            predicted_s1=self.predicted_s0,
            certificates=certs,
        )


def _check_budget(arity: int, budget: int = MAX_CONSTRUCTION_ARITY) -> int:
    if arity > budget:
        raise ValueError(f"parameters give arity {arity}, over the budget {budget}")
    return arity


def _check_exponent(e: int, budget: int) -> None:
    """Refuse a data section of 2^e bits over budget without forming 2^e."""
    if e >= budget.bit_length():
        raise ValueError(
            f"parameters give a data section of 2^{e} bits, over the arity budget {budget}"
        )


def _code_sections(orders: Sequence[int], budget: int) -> tuple[int, int]:
    """(K, e) for distance-3 codes of the given orders: K codeword bits in
    all and a data section of 2^e bits, e = sum(2^r - r - 1).

    The exponent is checked against budget before any code or 2^e is
    formed; at order 40 that number alone would take 128 GiB.
    """
    for r in orders:
        if r < 2:
            raise ValueError(f"code order must be an integer >= 2, got {r!r}")
        if r >= budget.bit_length() or (1 << r) - r - 1 >= budget.bit_length():
            size = f"(2^{r} - {r} - 1)" if r >= budget.bit_length() else (1 << r) - r - 1
            raise ValueError(
                f"code order {r} gives a data section of 2^{size} bits, "
                f"over the arity budget {budget}"
            )
    e = sum((1 << r) - r - 1 for r in orders)
    _check_exponent(e, budget)
    return sum((1 << r) - 1 for r in orders), e


def _address_function(
    name: str,
    K: int,
    t: int,
    read: Callable[[int], int],
    picks: Callable[[], Iterator[tuple[int, int]]] | None = None,
    **claims,
) -> BooleanFunction:
    """The address function f(c, d) = d[m(c)] on K address bits c (the low
    positions) and t data bits d, with m given by read.

    read(a) is the data bit that address a reads, -1 where a forces 0 or -2
    where it forces 1; the point evaluator is read at x's address. picks()
    lists the (address, read) pairs whose read is not -1: by default the
    scan of read over the 2^K addresses in address order, or a family's own
    listing of t pairs, one per data bit, where 2^K is out of reach. The
    table builder and the 1-certificates, one member per pair in picks()
    order, read that one list, and only when in reach: the table when it is
    built, the certificates when the pairs listed (at most 2^K for the scan)
    are at most MAX_EAGER_CERTIFICATES. claims are the family's own
    ConstructionMeta fields.
    """
    arity = _check_budget(K + t)
    amask = (1 << K) - 1
    if picks is None:
        n_picks = 1 << K

        def picks():
            return ((a, m) for a in range(1 << K) if (m := read(a)) != -1)
    else:
        n_picks = t

    def point(x: int) -> int:
        m = read(x & amask)
        return (x >> (K + m)) & 1 if m >= 0 else -1 - m

    def build() -> np.ndarray:  # rows: data sections; columns: addresses
        table = np.zeros((1 << t, 1 << K), dtype=np.uint8)
        data = np.arange(1 << t)
        for a, m in picks():
            table[:, a] = 1 if m < 0 else (data >> m) & 1
        return table.reshape(-1)

    certs = None
    if n_picks <= MAX_EAGER_CERTIFICATES:
        # each member fixes the address bits and, unless forced, the data bit to 1
        members = []
        for a, m in picks():
            bit = 0 if m < 0 else 1 << (K + m)
            members.append(PartialAssignment(arity, amask | bit, a | bit))
        certs = CertificateCollection(1, tuple(members), unambiguous=True)
    meta = ConstructionMeta(certificates=certs, codeword_len=K, data_len=t, **claims)
    return BooleanFunction(arity, point, meta=meta, name=name, table_fn=build)


def chaf(rs: Sequence[int]) -> BooleanFunction:
    """Address function keyed by a conjunction of distance-3 codes.

    The input is l codeword sections followed by a data section of size
    t = prod(2^(2^r_i - r_i - 1)). The output is data bit m0, where m0 is the
    mixed-radix number (section 1 most significant) whose digits are the
    decoded message indices; invalid sections give 0.
    """
    rs = [int(r) for r in rs]
    if not rs:
        raise ValueError("need at least one code order")
    return _chaf(rs, family="chaf", params={"rs": list(rs)},
                 **_profile(rs, [], MAX_CONSTRUCTION_ARITY))


def _chaf(rs: list[int], name: str | None = None, **claims) -> BooleanFunction:
    """chaf over rs, whose orders _profile has checked, named name (chaf's
    own by default), with claims as its ConstructionMeta fields."""
    codes = [HammingCode(r) for r in rs]
    offsets = [0]
    for code in codes[:-1]:
        offsets.append(offsets[-1] + code.codeword_len)
    K = offsets[-1] + codes[-1].codeword_len
    t = math.prod(code.size for code in codes)

    def read(a: int) -> int:  # the mixed-radix message index, -1 off the code
        m0 = 0
        for code, off in zip(codes, offsets):
            seg = (a >> off) & code.word_mask
            if code.syndrome(seg):
                return -1
            m0 = m0 * code.size + code.message_index(seg)
        return m0

    def picks():  # data bit m0 at the sections encoding its mixed-radix digits
        digits = itertools.product(*(range(code.size) for code in codes))
        for m0, ds in enumerate(digits):
            yield sum(c.encode_index(d) << off for c, d, off in zip(codes, ds, offsets)), m0

    name = name or f"chaf({','.join(str(r) for r in rs)})"
    return _address_function(name, K, t, read, picks, **claims)


def haf(r: int) -> BooleanFunction:
    """Single-code address function: chaf with one section of order r."""
    r = int(r)
    return _chaf([r], f"haf({r})", family="haf", params={"r": r},
                 **_profile([r], [], MAX_CONSTRUCTION_ARITY))


def address_fn(k: int) -> BooleanFunction:
    """Plain address function on k + 2^k bits: output data bit number a,
    where a is the integer read from the k address bits."""
    if not isinstance(k, int) or k < 1:
        raise ValueError(f"address width must be a positive integer, got {k!r}")
    _check_exponent(k, MAX_CONSTRUCTION_ARITY)
    return _address_function(f"address({k})", k, 1 << k, lambda a: a,
                             family="address", params={"k": k})


def _colex_rank(a: int) -> int:
    """Rank of a set-bit pattern among same-weight patterns, colex order."""
    rank = 0
    i = 0
    while a:
        p = (a & -a).bit_length() - 1
        i += 1
        rank += math.comb(p, i)
        a &= a - 1
    return rank


def maf(k: int) -> BooleanFunction:
    """Monotone address function on k + C(k, floor(k/2)) bits.

    Address weight above floor(k/2) forces 1, below forces 0; at exactly
    floor(k/2) the output is the data bit indexed by the address pattern's
    colex rank. Monotone because raising an address bit can only raise the
    weight, and each weight-w pattern reads its own data bit.
    """
    if not isinstance(k, int) or k < 2:
        raise ValueError(f"address width must be an integer >= 2, got {k!r}")
    w = k // 2
    if w >= MAX_CONSTRUCTION_ARITY.bit_length():
        raise ValueError(
            f"address width {k} gives a data section of C({k}, {w}) >= 2^{w} bits, "
            f"over the arity budget {MAX_CONSTRUCTION_ARITY}"
        )

    def read(a: int) -> int:  # weight w reads its colex rank; heavier forces 1
        wt = a.bit_count()
        return _colex_rank(a) if wt == w else -2 if wt > w else -1

    return _address_function(f"maf({k})", k, math.comb(k, w), read,
                             family="maf", params={"k": k})


def desensitize(fn: BooleanFunction, certs: CertificateCollection) -> BooleanFunction:
    """Triplicate fn against an unambiguous 1-certificate collection.

    The result takes three n-bit blocks and outputs 1 iff some collection
    member contains all three blocks. On the diagonal it agrees with fn;
    every 0-input of the result has exactly one sensitive bit, and 1-inputs
    reach sensitivity 3 * max codim of the collection. The table is built by
    lookup, one member's cube of blocks at a time.
    """
    n = fn.arity
    if certs.target_value != 1:
        raise ValueError("desensitization needs 1-certificates")
    if not certs.certificates:
        raise ValueError("certificate collection is empty")
    if certs.arity != n:
        raise ArityError(f"certificate arity {certs.arity} != function arity {n}")
    validated = False
    if n <= DESENS_VALIDATION_CAP:
        err = certs.validation_error(fn)
        if err is not None:
            raise ValueError(f"collection is not an unambiguous cover: {err}")
        validated = True
    arity = _check_budget(3 * n)
    masks = [(c.mask, c.value) for c in certs.certificates]

    def point(x: int) -> int:
        b1 = x & ((1 << n) - 1)
        b2 = (x >> n) & ((1 << n) - 1)
        b3 = x >> (2 * n)
        for mask, value in masks:
            if (b1 & mask) == value and (b2 & mask) == value and (b3 & mask) == value:
                return 1
        return 0

    def build() -> np.ndarray:  # axes: blocks 3, 2 and 1
        table = np.zeros((1 << n,) * 3, dtype=bool)
        for mask, value in masks:
            inside = (np.arange(1 << n) & mask) == value
            table |= inside[:, None, None] & inside[:, None] & inside
        return table.view(np.uint8).reshape(-1)

    tripled = CertificateCollection(
        1,
        tuple(
            PartialAssignment(
                arity,
                c.mask | (c.mask << n) | (c.mask << (2 * n)),
                c.value | (c.value << n) | (c.value << (2 * n)),
            )
            for c in certs.certificates
        ),
        unambiguous=False,
    )
    s1 = 3 * certs.max_codim()
    meta = ConstructionMeta(
        family="desensitized",
        params=_desens_params(fn, certs),
        predicted_s0=1,
        predicted_s1=s1,
        predicted_lambda_sq=s1,
        certificates=tripled,
        certificates_validated=validated,
    )
    return BooleanFunction(arity, point, meta=meta, name=f"desens({fn.name})", table_fn=build)


def _desens_params(fn: BooleanFunction, certs: CertificateCollection) -> dict | None:
    base = None
    if fn.meta is not None and fn.meta.family is not None and fn.meta.params is not None:
        base = {"family": fn.meta.family, "params": fn.meta.params}
    elif fn.arity <= DEFAULT_TABLE_CAP:
        table = fn.table()
        base = {"family": "table", "params": {"n": fn.arity, "hex": table.to_hex()}}
    if base is None:
        return None
    return {
        "base": base,
        "certificates": [c.to_string() for c in certs.certificates],
    }


def data_compose(outer: BooleanFunction, inner: BooleanFunction) -> BooleanFunction:
    """Compose on the data section only: each data bit of outer is replaced
    by a copy of inner on fresh variables, while outer's codeword sections
    stay raw input bits."""
    meta = outer.meta
    if meta is None or meta.codeword_len is None or meta.data_len is None:
        raise ValueError("outer function does not declare a codeword/data split")
    K, t = meta.codeword_len, meta.data_len
    if outer.arity != K + t:
        raise ValueError("outer split does not match its arity")
    n_in = inner.arity
    arity = _check_budget(K + t * n_in)
    kmask = (1 << K) - 1
    inmask = (1 << n_in) - 1

    def point(x: int) -> int:
        virt = x & kmask
        rest = x >> K
        for j in range(t):
            blk = (rest >> (j * n_in)) & inmask
            virt |= inner._point(blk) << (K + j)
        return outer._point(virt)

    def build() -> np.ndarray:  # outer's table, an axis per data bit, read through inner's
        grid = outer.table(outer.arity).values.reshape([2] * t + [1 << K])
        return grid[np.ix_(*[inner.table(n_in).values] * t, np.arange(1 << K))].reshape(-1)

    name = f"compose({outer.name},{inner.name})"
    return BooleanFunction(arity, point, name=name, table_fn=build)


def _profile(as_: list[int], bs_: list[int], budget: int) -> dict:
    """tradeoff(as_, bs_)'s closed forms, as ConstructionMeta's predicted_*
    fields. Empty bs_ gives chaf over as_: s0 = 1, s1 = lambda^2 = K + 1."""
    if not as_:
        raise ValueError("need at least one outer code order")
    k_out, e_out = _code_sections(as_, budget)
    s0, s1 = 1, sum(1 << a for a in as_) - len(as_) + 1
    arity = k_out + (1 << e_out)
    if bs_:
        k_in, e_in = _code_sections(bs_, budget)
        s0 = sum(1 << b for b in bs_) - len(bs_) + 1
        arity = k_out + (1 << e_out) * (k_in + (1 << e_in))
    return {
        "predicted_arity": _check_budget(arity, budget),
        "predicted_s0": s0,
        "predicted_s1": s1,
        "predicted_lambda_sq": s0 + s1 - 1,
    }


def tradeoff_profile(as_: Sequence[int], bs_: Sequence[int]) -> dict:
    """Closed-form predictions for tradeoff(as_, bs_) (arity, s0, s1 and
    lambda_sq), for any parameters whose arity stays within MAX_PROFILE_ARITY."""
    profile = _profile([int(a) for a in as_], [int(b) for b in bs_], MAX_PROFILE_ARITY)
    return {k.removeprefix("predicted_"): v for k, v in profile.items()}


def tradeoff(as_: Sequence[int], bs_: Sequence[int] = ()) -> BooleanFunction:
    """Sensitivity-tradeoff family: chaf over as_ with each data bit replaced
    by a negated chaf over bs_. Empty bs_ gives plain chaf over as_."""
    as_ = [int(a) for a in as_]
    bs_ = [int(b) for b in bs_]
    predicted = _profile(as_, bs_, MAX_CONSTRUCTION_ARITY)
    tag = f"tradeoff({','.join(map(str, as_))};{','.join(map(str, bs_))})"
    claims = dict(family="tradeoff", params={"as": as_, "bs": bs_}, **predicted)
    # the codes' closed forms are all in predicted, so the chafs take none
    if not bs_:
        return _chaf(as_, tag, **claims)
    outer = _chaf(as_)
    fn = data_compose(outer, _chaf(bs_).negate())
    assert fn.arity == predicted["predicted_arity"]
    meta = ConstructionMeta(
        codeword_len=outer.meta.codeword_len, data_len=outer.meta.data_len, **claims
    )
    return BooleanFunction(fn.arity, fn._point, meta=meta, name=tag, table_fn=fn._table_fn)


def _desensitized(base: BooleanFunction, certificates: list[str]) -> BooleanFunction:
    members = tuple(PartialAssignment.from_string(c) for c in certificates)
    return desensitize(base, CertificateCollection(1, members, unambiguous=True))


@dataclass(frozen=True)
class Family:
    """A construction family: its factory and the descriptor parameters the
    factory takes, in argument order, as (key, kind) pairs. A key listed in
    optional may be left out, and the factory's default then applies."""

    factory: Callable[..., BooleanFunction]
    params: tuple[tuple[str, str], ...]
    optional: tuple[str, ...] = ()


# The one list of construction families: the descriptor format and the
# CLI's construct command both read it.
FAMILIES: dict[str, Family] = {
    "haf": Family(haf, (("r", "int"),)),
    "chaf": Family(chaf, (("rs", "ints"),)),
    "maf": Family(maf, (("k", "int"),)),
    "address": Family(address_fn, (("k", "int"),)),
    "tradeoff": Family(tradeoff, (("as", "ints"), ("bs", "ints")), optional=("bs",)),
    "desensitized": Family(
        _desensitized, (("base", "descriptor"), ("certificates", "strings"))
    ),
}


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


# descriptor parameter kinds: how an error names them, and their check
_KINDS = {
    "int": ("integer", _is_int),
    "ints": ("integer list", lambda v: isinstance(v, list) and all(map(_is_int, v))),
    "string": ("string", lambda v: isinstance(v, str)),
    "strings": (
        "string list",
        lambda v: isinstance(v, list) and all(isinstance(e, str) for e in v),
    ),
    "descriptor": ("object", lambda v: isinstance(v, dict)),
}


def _param(family: str, params: dict, key: str, kind: str):
    what, ok = _KINDS[kind]
    value = params.get(key)
    if not ok(value):
        raise ValueError(f"{family} descriptor needs {what} {key!r}")
    return value


def to_descriptor(fn: BooleanFunction) -> dict:
    """JSON-ready {"family", "params"} description of a constructed function."""
    meta = fn.meta
    if meta is None or meta.family is None or meta.params is None:
        raise ValueError(f"{fn.name} has no serializable construction descriptor")
    return {"family": meta.family, "params": meta.params}


def from_descriptor(obj: dict) -> BooleanFunction:
    """Rebuild a constructed function, or a serialized table, from its
    descriptor."""
    if not isinstance(obj, dict):
        raise ValueError("descriptor must be a JSON object")
    family = obj.get("family")
    params = obj.get("params")
    if not isinstance(family, str) or not isinstance(params, dict):
        raise ValueError("descriptor needs string 'family' and object 'params'")
    if family == "table":
        hexdigits = _param(family, params, "hex", "string")
        n = _param(family, params, "n", "int")
        return BooleanFunction.from_table(TruthTable.from_hex(n, hexdigits))
    spec = FAMILIES.get(family)
    if spec is None:
        raise ValueError(f"unknown construction family {family!r}")
    args = []
    for key, kind in spec.params:
        if key in spec.optional and key not in params:
            continue
        value = _param(family, params, key, kind)
        args.append(from_descriptor(value) if kind == "descriptor" else value)
    return spec.factory(*args)
