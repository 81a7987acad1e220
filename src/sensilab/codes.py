"""Distance-3 linear codes keying the address constructions.

Codeword positions are 1-indexed. Parity bits sit at the power-of-two
positions 1, 2, 4, ...; the remaining positions carry message bits in
increasing order. The parity bit at position 2^j is the XOR of every data
position whose index has bit j set, so a word is valid iff each position
group (including its parity bit) XORs to zero.

Encoded as integers, bit p-1 of the word is position p, matching the input
encoding in core: position 1 is the least-significant bit.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np


class HammingCode:
    """The [2^r - 1, 2^r - r - 1] code with minimum distance 3."""

    def __init__(self, r: int):
        if not isinstance(r, int) or r < 2:
            raise ValueError(f"code order must be an integer >= 2, got {r!r}")
        self.r = r
        self.codeword_len = (1 << r) - 1
        self.message_len = (1 << r) - r - 1
        self.size = 1 << self.message_len
        self.word_mask = (1 << self.codeword_len) - 1
        self.parity_positions = tuple(1 << j for j in range(r))
        self.data_positions = tuple(
            p for p in range(1, self.codeword_len + 1) if p & (p - 1)
        )
        # group_masks[j] covers every position with bit j set, parity bit included
        self.group_masks = tuple(
            sum(1 << (p - 1) for p in range(1, self.codeword_len + 1) if (p >> j) & 1)
            for j in range(r)
        )

    def __repr__(self) -> str:
        return f"HammingCode(r={self.r})"

    def encode(self, message) -> tuple[int, ...]:
        """Encode a message bit sequence into a codeword bit sequence."""
        bits = list(message)
        if len(bits) != self.message_len:
            raise ValueError(
                f"message length {len(bits)} != {self.message_len} for r={self.r}"
            )
        if any(b not in (0, 1) for b in bits):
            raise ValueError("message bits must be 0 or 1")
        idx = 0
        for b in reversed(bits):
            idx = (idx << 1) | b
        word = self.encode_index(idx)
        return tuple((word >> (p - 1)) & 1 for p in range(1, self.codeword_len + 1))

    def encode_index(self, index: int) -> int:
        """Encode message index (data bits LSB-first) into an integer codeword."""
        if not 0 <= index < self.size:
            raise ValueError(f"message index {index} out of range for r={self.r}")
        word = 0
        for q, p in enumerate(self.data_positions):
            word |= ((index >> q) & 1) << (p - 1)
        for j in range(self.r):
            par = (word & self.group_masks[j]).bit_count() & 1
            word |= par << ((1 << j) - 1)
        return word

    def syndrome(self, word: int) -> int:
        """Parity-check syndrome; zero iff word is a codeword."""
        if not 0 <= word <= self.word_mask:
            raise ValueError(f"word {word} out of range for length {self.codeword_len}")
        s = 0
        for j in range(self.r):
            s |= ((word & self.group_masks[j]).bit_count() & 1) << j
        return s

    def is_codeword(self, word: int) -> bool:
        return self.syndrome(word) == 0

    def message_index(self, word: int) -> int:
        """Data bits of an integer word, packed LSB-first."""
        idx = 0
        for q, p in enumerate(self.data_positions):
            idx |= ((word >> (p - 1)) & 1) << q
        return idx

    @cached_property
    def _codeword_ints(self) -> np.ndarray:
        if self.message_len > 22:
            raise ValueError(f"refusing to list 2**{self.message_len} codewords")
        out = np.fromiter(
            (self.encode_index(i) for i in range(self.size)), np.int64, self.size
        )
        return out

    def codewords(self) -> list[tuple[int, ...]]:
        """All codewords as bit sequences. Only sensible for r <= 4."""
        if self.r > 4:
            raise ValueError(f"codeword listing is capped at r=4, got r={self.r}")
        k = self.codeword_len
        return [
            tuple((int(w) >> (p - 1)) & 1 for p in range(1, k + 1))
            for w in self._codeword_ints
        ]

    def min_distance(self) -> int:
        """Minimum pairwise Hamming distance; the code is linear, so this is
        the minimum weight of a nonzero codeword."""
        if self.r > 4:
            raise ValueError(f"min_distance is capped at r=4, got r={self.r}")
        weights = np.bitwise_count(self._codeword_ints.astype(np.uint64))
        return int(weights[weights > 0].min())
