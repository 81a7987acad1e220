"""Boolean function substrate: encoded inputs, truth tables, subcubes.

An n-bit input is an unsigned integer whose least-significant bit is the
first variable x1. Truth tables are numpy uint8 arrays indexed by that
encoding, so position i of the integer and axis-block i of the table always
refer to the same variable.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, repeat
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

# Materializing 2**26 table entries (~64 MB as uint8) is the default ceiling
# for anything that needs the whole function at once.
DEFAULT_TABLE_CAP = 26

# Tables are indexed by int64 inputs, so no table exists above this arity:
# TruthTable.from_hex and BooleanFunction.table refuse one before 2**arity
# is formed, whatever cap is asked for.
BATCH_ARITY_LIMIT = 63

_HEX_RE = re.compile(r"[0-9a-f]+\Z")

# axis_view transposes a pass whose run pairs are shorter than both of these:
# read across the table, a pass re-reads it once per item of a pair. On uint8,
# int8 and int32 tables that paid up to 16-27 items and ran 1.5-13x slower
# from 32 on, so the limit counts items; on the scan's uint64 words a pair of
# 16 (128 bytes) ran 3x faster untransposed (1.1 against 3.3 ms at n=23).
_SHORT_PAIR_ITEMS = 32
_SHORT_PAIR_BYTES = 128

# axis_blocks keeps a pass's low directions in blocks of at most this many
# bytes across its arrays: on a random n=26 table 1 MiB ran the scan (0.64 s)
# and Moebius (0.69 s) fastest, ahead of 256 KiB, 4 MiB and 16 MiB blocks.
_BLOCK_BYTES = 1 << 20


class ArityError(ValueError):
    """An input, assignment, or table does not match the declared arity."""


class CapExceeded(ValueError):
    """The requested computation exceeds its configured arity or size cap."""


def point_from_bits(bits: Iterable[int]) -> int:
    """Encode a bit sequence (x1 first) as an integer input."""
    v = 0
    for j, b in enumerate(bits):
        if b not in (0, 1):
            raise ValueError(f"bit {j} is {b!r}, expected 0 or 1")
        v |= b << j
    return v


def point_bits(x: int, arity: int) -> tuple[int, ...]:
    """Decode an integer input into its bits, x1 first."""
    if not 0 <= x < (1 << arity):
        raise ArityError(f"input {x} out of range for arity {arity}")
    return tuple((x >> j) & 1 for j in range(arity))


def _check_arity(arity: int) -> int:
    if not isinstance(arity, int) or arity < 1:
        raise ArityError(f"arity must be a positive integer, got {arity!r}")
    return arity


def axis_view(a: np.ndarray, radix: int, i: int) -> np.ndarray:
    """The flat contiguous array a as a view (outer, radix, radix**i), with
    digit i of the index in base radix along axis 1.

    When a run pair (radix**(i+1) items) is shorter than _SHORT_PAIR_ITEMS
    items and _SHORT_PAIR_BYTES bytes, the view is transposed to
    (radix**i, radix, outer), so that the inner loop runs along the long
    outer axis. Either way v[:, k] is digit value k.
    Call ufuncs on it with order="A": that iterates the shape as given when
    an operand is strided, as every slice of a transposed view is, and keeps
    numpy's contiguous loop when a pair is the whole array. order="K",
    augmented operators (+=) and np.copyto follow memory order instead.
    Per-axis passes take a, or a cache-sized block of it, from axis_blocks.
    """
    run = radix**i
    v = a.reshape(-1, radix, run)
    pair = run * radix
    return v.T if pair < _SHORT_PAIR_ITEMS and pair * a.itemsize < _SHORT_PAIR_BYTES else v


def block_exponent(radix: int, arity: int, per_entry: int) -> int:
    """The largest b whose blocks of radix**b entries of per_entry bytes each
    hold at most _BLOCK_BYTES, or 0 when all radix**arity entries do."""
    b = 0
    while per_entry * radix**arity > _BLOCK_BYTES >= per_entry * radix ** (b + 1):
        b += 1
    return b


def axis_blocks(radix: int, arity: int, *arrays: np.ndarray) -> Iterator:
    """(i, arrays) for each direction i of a per-axis pass over flat arrays
    of one dtype and radix**arity entries: i < b on each block of radix**b
    entries in turn, then the rest on the whole arrays. b is the largest
    exponent whose blocks hold at most _BLOCK_BYTES across the arrays, or 0
    when the whole arrays fit. A block holds every pair along i < b, so a
    pass that updates only those pairs gets the same result either way."""
    b = block_exponent(radix, arity, arrays[0].itemsize * len(arrays))
    steps = enumerate(repeat(arrays, arity - b), b)
    if b:
        size = radix**b
        blocks = (tuple(a[lo:lo + size] for a in arrays) for lo in range(0, radix**arity, size))
        steps = chain(((i, block) for block in blocks for i in range(b)), steps)
    return steps


def group_lookup(entries: Iterable[int]) -> np.ndarray:
    """A 256-word lookup table for by_groups from its 2048 entries, group by
    group: word g holds, in its byte j, the result at entry j of the group
    whose entry j is bit j of g (the group np.packbits(...,
    bitorder="little") packs into g), as an unsigned byte. Built in Python,
    so that an import runs no numpy loop."""
    return np.frombuffer(bytes(v & 0xFF for v in entries), np.uint64)


def by_groups(values: np.ndarray, lookup: np.ndarray) -> np.ndarray:
    """lookup's word for each aligned 8-entry group of the 0/1 table values,
    as a new uint8 array of max(len(values), 8) entries. A table under 8
    entries is tiled first. Groups are packed into bytes and gathered
    _BLOCK_BYTES / 8 entries at a time, so no full-length packed copy is
    held: take widens each packed byte to an 8-byte index."""
    if len(values) < 8:
        values = np.tile(values, 8 // len(values))
    out = np.empty(len(values), dtype=np.uint8)
    words = out.view(np.uint64)
    step = max(8, _BLOCK_BYTES // 8 & -8)
    for lo in range(0, len(values), step):
        packed = np.packbits(values[lo:lo + step], bitorder="little")
        lookup.take(packed, out=words[lo // 8:lo // 8 + len(packed)], mode="clip")
    return out


def _scan_groups() -> np.ndarray:
    """Each group's counts along directions 0, 1 and 2, the lookup table of
    _sensitivity_scan: at entry j, how many of its neighbours j ^ 1, j ^ 2
    and j ^ 4 hold the other value, the set bits of g (of ~g when entry j
    is 1) among them."""
    neighbours = [(1 << (j ^ 1)) | (1 << (j ^ 2)) | (1 << (j ^ 4)) for j in range(8)]
    return group_lookup(((~g if g >> j & 1 else g) & neighbours[j]).bit_count()
                        for g in range(256) for j in range(8))


_SCAN_GROUPS = _scan_groups()


def _sensitivity_scan(values: np.ndarray, arity: int) -> np.ndarray:
    """Per-input sensitivity of the table values, as a read-only uint8 array.

    Directions 0, 1 and 2 are read for each 8-entry group at once from a
    256-word lookup table (by_groups). The rest run on uint64 views of the
    table and the counts, 8 entries a word: one diff per direction,
    f(x) ^ f(x with bit i flipped), added to the counts, as an input and its
    neighbour along a direction are sensitive to it together. A byte's count
    is at most arity <= 63, so the word adds never carry between entries.
    Each word direction, from axis_blocks, goes through axis_view.
    """
    counts = by_groups(values, _SCAN_GROUPS)
    if arity > 3:
        words = counts.view(np.uint64)
        diff = np.empty_like(words)
        for i, (vals, dif, cnt) in axis_blocks(2, arity - 3, values.view(np.uint64), diff, words):
            v = axis_view(vals, 2, i)
            np.bitwise_xor(v, v[:, ::-1], out=axis_view(dif, 2, i), order="A")
            cnt += dif
    counts = counts[:len(values)]
    counts.flags.writeable = False
    return counts


def side_maxima(counts: np.ndarray, values: np.ndarray) -> tuple[tuple, tuple]:
    """((m0, x0), (m1, x1)): the largest of the one-byte per-input counts
    (each at most 127) where values is 0 and where it is 1, each with the
    least input attaining it, or (0, None) for a side with no inputs. One
    pass makes one int8 key: the count c at a 1-input and ~c = -(c + 1) at a
    0-input. Its argmax is the 1-side's largest count when the key there is
    >= 0, its argmin the 0-side's when it is < 0."""
    key = np.subtract(values, 1, dtype=np.uint8)
    np.bitwise_xor(key, counts.view(np.uint8), out=key)
    key = key.view(np.int8)
    x0, x1 = int(key.argmin()), int(key.argmax())
    zero = (~int(key[x0]), x0) if key[x0] < 0 else (0, None)
    one = (int(key[x1]), x1) if key[x1] >= 0 else (0, None)
    return zero, one


@dataclass(frozen=True)
class TruthTable:
    """Dense truth table of a Boolean function.

    values[x] is f(x) for the integer encoding above. Entries are uint8 0/1.
    """

    arity: int
    values: np.ndarray

    def __post_init__(self) -> None:
        _check_arity(self.arity)
        vals = np.ascontiguousarray(self.values, dtype=np.uint8)
        if vals.shape != (1 << self.arity,):
            raise ArityError(
                f"table for arity {self.arity} needs {1 << self.arity} entries, "
                f"got shape {self.values.shape}"
            )
        if vals.max(initial=0) > 1:
            raise ValueError("table entries must be 0 or 1")
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return 1 << self.arity

    def __getitem__(self, x: int) -> int:
        if not 0 <= x < len(self):
            raise ArityError(f"input {x} out of range for arity {self.arity}")
        return int(self.values[x])

    def ones_count(self) -> int:
        return int(self.values.sum())

    @cached_property
    def sensitivity_counts(self) -> np.ndarray:
        """Read-only uint8 array: the sensitivity of f at every input.

        Computed on first use by one scan of the table and kept, as the
        table is never changed after construction.
        """
        return _sensitivity_scan(self.values, self.arity)

    @cached_property
    def side_sensitivities(self) -> tuple[tuple[int, int | None], tuple[int, int | None]]:
        """((s0, x0), (s1, x1)): side_maxima of the sensitivity counts, kept."""
        return side_maxima(self.sensitivity_counts, self.values)

    def to_hex(self) -> str:
        """Hex encoding, most-significant hex digit first, lowercase."""
        packed = np.packbits(self.values, bitorder="little").tobytes()
        width = max(1, -(-len(self) // 4))
        return format(int.from_bytes(packed, "little"), f"0{width}x")

    @classmethod
    def from_hex(cls, arity: int, digits: str) -> "TruthTable":
        _check_arity(arity)
        if arity > BATCH_ARITY_LIMIT:  # before 2^arity is formed: 128 GiB at 2^40
            raise ValueError(f"table arity {arity} is over {BATCH_ARITY_LIMIT}")
        width = max(1, -(-(1 << arity) // 4))
        if not _HEX_RE.match(digits):
            raise ValueError("table hex must be lowercase [0-9a-f] with no prefix")
        if len(digits) != width:
            raise ValueError(
                f"arity {arity} needs exactly {width} hex digits, got {len(digits)}"
            )
        nbytes = max(1, -(-(1 << arity) // 8))
        raw = int(digits, 16).to_bytes(nbytes, "little")
        bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")
        return cls(arity, bits[: 1 << arity])

    def dumps(self) -> str:
        return f"n={self.arity}\n{self.to_hex()}\n"

    @classmethod
    def loads(cls, text: str) -> "TruthTable":
        lines = [ln.strip() for ln in text.strip().splitlines()]
        if len(lines) != 2 or not lines[0].startswith("n="):
            raise ValueError("expected two lines: 'n=<arity>' then hex digits")
        try:
            arity = int(lines[0][2:])
        except ValueError:
            raise ValueError(f"bad arity line {lines[0]!r}") from None
        return cls.from_hex(arity, lines[1])

    def save(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.dumps())

    @classmethod
    def load(cls, path) -> "TruthTable":
        with open(path) as fh:
            return cls.loads(fh.read())


class BooleanFunction:
    """A total Boolean function f: {0,1}^n -> {0,1}.

    Wraps a pointwise evaluator working on integer-encoded inputs, optional
    metadata and an optional no-argument builder of the uint8 table.
    Instances are treated as immutable. Every construction builds its table
    by lookup; without a builder the table is evaluated pointwise. values(xs)
    reads the table once it is materialized and evaluates pointwise before.
    """

    def __init__(
        self,
        arity: int,
        point_fn: Callable[[int], int],
        *,
        meta=None,
        name: str = "f",
        table_fn: Callable[[], np.ndarray] | None = None,
    ):
        self.arity = _check_arity(arity)
        self._point = point_fn
        self.meta = meta
        self.name = name
        self._table_fn = table_fn
        self._table: TruthTable | None = None

    def __repr__(self) -> str:
        return f"BooleanFunction({self.name}, arity={self.arity})"

    def __call__(self, x: int) -> int:
        if not 0 <= x < (1 << self.arity):
            raise ArityError(f"input {x} out of range for arity {self.arity}")
        v = self._point(x)
        if v not in (0, 1):
            raise ValueError(f"evaluator returned {v!r} at {x}, expected 0 or 1")
        return int(v)

    def values(self, xs: np.ndarray) -> np.ndarray:
        """Evaluate a batch of encoded inputs, returning uint8: read from the
        table once it is materialized, else by the point evaluator."""
        xs = np.asarray(xs)
        if xs.size and not 0 <= int(xs.min()) <= int(xs.max()) < 1 << self.arity:
            raise ArityError(f"inputs out of range for arity {self.arity}")
        if self._table is not None:
            return self._table.values[xs.astype(np.int64, copy=False)]
        return np.fromiter(
            (self._point(int(x)) for x in xs.ravel()), np.uint8, xs.size
        ).reshape(xs.shape)

    def table(self, cap: int = DEFAULT_TABLE_CAP) -> TruthTable:
        """Materialize the full truth table, by the table builder if there is
        one, else by the point evaluator. Raises CapExceeded above cap, and
        above BATCH_ARITY_LIMIT whatever the cap."""
        cap = min(cap, BATCH_ARITY_LIMIT)
        if self.arity > cap:
            raise CapExceeded(
                f"arity {self.arity} exceeds materialization cap {cap}"
            )
        if self._table is None:
            if self._table_fn is not None:
                vals = self._table_fn()
            else:
                n = 1 << self.arity
                vals = np.fromiter((self._point(x) for x in range(n)), np.uint8, n)
            self._table = TruthTable(self.arity, vals)
        return self._table

    @classmethod
    def from_table(cls, table: TruthTable, meta=None, name: str = "table") -> "BooleanFunction":
        vals = table.values
        fn = cls(table.arity, lambda x: int(vals[x]), meta=meta, name=name)
        fn._table = table
        return fn

    def restrict(self, assignment: "PartialAssignment") -> "BooleanFunction":
        """Fix the assigned variables; free variables keep their relative order."""
        if assignment.arity != self.arity:
            raise ArityError(
                f"assignment arity {assignment.arity} != function arity {self.arity}"
            )
        free = assignment.free_positions()
        if not free:
            raise ArityError("restriction must leave at least one free variable")
        base = assignment.value

        def point(y: int) -> int:
            x = base
            for j, pos in enumerate(free):
                x |= ((y >> j) & 1) << pos
            return self._point(x)

        return BooleanFunction(len(free), point, name=f"{self.name}|{assignment.to_string()}")

    def negate(self) -> "BooleanFunction":
        point = self._point
        build = self._table_fn
        negated = getattr(self.meta, "negated", None)
        return BooleanFunction(
            self.arity,
            lambda x: 1 - point(x),
            meta=negated() if negated is not None else None,
            name=f"not({self.name})",
            table_fn=build and (lambda: 1 - build()),
        )

    def is_nondegenerate(self, cap: int = DEFAULT_TABLE_CAP) -> bool:
        """True iff every variable influences the output somewhere."""
        influential = [False] * self.arity
        for i, (vals,) in axis_blocks(2, self.arity, self.table(cap).values):
            v = axis_view(vals, 2, i)
            influential[i] = influential[i] or np.not_equal(v[:, 0], v[:, 1], order="A").any()
        return all(influential)


@dataclass(frozen=True)
class PartialAssignment:
    """A subcube of {0,1}^n given by fixed positions and their values.

    mask has a set bit for each fixed position; value carries the fixed bits
    and is zero elsewhere. Plain ints, so arbitrary arity is fine.
    """

    arity: int
    mask: int
    value: int

    def __post_init__(self) -> None:
        _check_arity(self.arity)
        full = (1 << self.arity) - 1
        if self.mask & ~full:
            raise ArityError(f"mask {self.mask:#x} has bits beyond arity {self.arity}")
        if self.value & ~self.mask:
            raise ValueError("value has bits outside the fixed positions")

    @classmethod
    def from_entries(cls, entries: Sequence) -> "PartialAssignment":
        """Build from a per-variable sequence of 0, 1, or '*'/None (x1 first)."""
        mask = value = 0
        for j, e in enumerate(entries):
            if e in ("*", None):
                continue
            if e in (0, "0"):
                mask |= 1 << j
            elif e in (1, "1"):
                mask |= 1 << j
                value |= 1 << j
            else:
                raise ValueError(f"entry {j} is {e!r}, expected 0, 1, or '*'")
        return cls(len(entries), mask, value)

    @classmethod
    def from_string(cls, s: str) -> "PartialAssignment":
        return cls.from_entries(list(s))

    def to_string(self) -> str:
        """One character per position, x1 first: its value where fixed, '*'
        where free. Linear in arity: the binary digits of mask and value,
        reversed, are the positions' fixed flags and values."""
        fixed, bits = (np.frombuffer(format(v, f"0{self.arity}b").encode(), np.uint8)[::-1]
                       for v in (self.mask, self.value))
        return np.where(fixed == ord("1"), bits, ord("*")).tobytes().decode()

    @property
    def codim(self) -> int:
        return self.mask.bit_count()

    @property
    def dim(self) -> int:
        return self.arity - self.codim

    def fixed_positions(self) -> tuple[int, ...]:
        return tuple(j for j in range(self.arity) if (self.mask >> j) & 1)

    def free_positions(self) -> tuple[int, ...]:
        return tuple(j for j in range(self.arity) if not (self.mask >> j) & 1)

    def contains(self, x: int) -> bool:
        return (x & self.mask) == self.value

    def contains_batch(self, xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=np.int64)
        return (xs & self.mask) == self.value

    def points(self, cap: int = DEFAULT_TABLE_CAP) -> np.ndarray:
        """Enumerate the subcube's inputs as an int64 array."""
        if self.dim > cap:
            raise CapExceeded(f"subcube dimension {self.dim} exceeds cap {cap}")
        pts = np.array([self.value], dtype=np.int64)
        for pos in self.free_positions():
            pts = np.concatenate([pts, pts | (1 << pos)])
        pts.sort()
        return pts

    def __iter__(self) -> Iterator[int]:
        return iter(int(p) for p in self.points())


@dataclass(frozen=True)
class CertificateCollection:
    """A set of certificates that all force the same output value.

    When unambiguous is True the subcubes are claimed to partition the
    preimage of target_value; validation_error checks both directions.
    """

    target_value: int
    certificates: tuple[PartialAssignment, ...]
    unambiguous: bool = False

    def __post_init__(self) -> None:
        if self.target_value not in (0, 1):
            raise ValueError("target_value must be 0 or 1")
        certs = tuple(self.certificates)
        if certs:
            arity = certs[0].arity
            for c in certs:
                if c.arity != arity:
                    raise ArityError("certificates mix arities")
        object.__setattr__(self, "certificates", certs)

    def __len__(self) -> int:
        return len(self.certificates)

    @property
    def arity(self) -> int | None:
        return self.certificates[0].arity if self.certificates else None

    def max_codim(self) -> int:
        return max((c.codim for c in self.certificates), default=0)

    def validation_error(self, fn: BooleanFunction, cap: int = DEFAULT_TABLE_CAP) -> str | None:
        """Exhaustively check the collection against fn; None means valid.

        Valid means: every member subcube is monochromatic with value
        target_value, the members cover the whole preimage, and (when the
        collection is unambiguous) no input lies in two members.
        """
        b = self.target_value
        vals = fn.table(cap).values
        # counts[x]: how many member subcubes contain x
        xs = np.arange(len(vals), dtype=np.int64)
        counts = np.zeros(len(vals), dtype=np.int64)
        for c in self.certificates:
            if c.arity != fn.arity:
                raise ArityError("certificate arity mismatch")
            counts += c.contains_batch(xs)
        on_target = vals == b
        if (counts[~on_target] > 0).any():
            x = int(np.flatnonzero(~on_target & (counts > 0))[0])
            return f"certificate covers input {x} where f != {b}"
        if (counts[on_target] == 0).any():
            x = int(np.flatnonzero(on_target & (counts == 0))[0])
            return f"input {x} with f == {b} satisfies no certificate"
        if self.unambiguous and (counts[on_target] > 1).any():
            x = int(np.flatnonzero(on_target & (counts > 1))[0])
            return f"input {x} satisfies {int(counts[x])} certificates, expected 1"
        return None
