import itertools

import pytest

from sensilab import HammingCode


class TestLayout:
    def test_r2_parameters(self):
        c = HammingCode(2)
        assert c.codeword_len == 3 and c.message_len == 1 and c.size == 2
        assert c.parity_positions == (1, 2) and c.data_positions == (3,)

    def test_r3_parameters(self):
        c = HammingCode(3)
        assert c.codeword_len == 7 and c.message_len == 4
        assert c.parity_positions == (1, 2, 4)
        assert c.data_positions == (3, 5, 6, 7)

    def test_rejects_small_r(self):
        with pytest.raises(ValueError):
            HammingCode(1)


class TestEncoding:
    def test_r2_codewords(self):
        assert HammingCode(2).codewords() == [(0, 0, 0), (1, 1, 1)]

    def test_r3_pinned_example(self):
        assert HammingCode(3).encode([1, 0, 1, 1]) == (0, 1, 1, 0, 0, 1, 1)

    def test_encode_matches_encode_index(self):
        c = HammingCode(3)
        for idx in range(c.size):
            bits = [(idx >> q) & 1 for q in range(c.message_len)]
            word = c.encode_index(idx)
            assert c.encode(bits) == tuple(
                (word >> (p - 1)) & 1 for p in range(1, c.codeword_len + 1)
            )

    def test_message_round_trip(self):
        c = HammingCode(3)
        for idx in range(c.size):
            assert c.message_index(c.encode_index(idx)) == idx

    def test_encode_validates(self):
        c = HammingCode(2)
        with pytest.raises(ValueError):
            c.encode([0, 1])
        with pytest.raises(ValueError):
            c.encode([2])
        with pytest.raises(ValueError):
            c.encode_index(2)


class TestSyndrome:
    def test_zero_iff_codeword(self):
        c = HammingCode(3)
        words = {c.encode_index(i) for i in range(c.size)}
        for w in range(1 << c.codeword_len):
            assert (c.syndrome(w) == 0) == (w in words)

    def test_detects_single_bit_errors(self):
        c = HammingCode(3)
        for idx in range(c.size):
            word = c.encode_index(idx)
            for pos in range(c.codeword_len):
                assert c.syndrome(word ^ (1 << pos)) != 0

    @pytest.mark.parametrize("r", [2, 3, 4])
    def test_is_codeword_reads_the_syndrome(self, r):
        c = HammingCode(r)
        accepted = [w for w in range(1 << c.codeword_len) if c.is_codeword(w)]
        assert accepted == [w for w in range(1 << c.codeword_len) if c.syndrome(w) == 0]
        assert len(accepted) == 2 ** (2**r - r - 1)


class TestDistance:
    def test_min_distance_is_three(self):
        for r in (2, 3, 4):
            assert HammingCode(r).min_distance() == 3

    def test_pairwise_distance_agrees(self):
        # independent pairwise check, not the min-weight shortcut
        for r in (2, 3):
            c = HammingCode(r)
            words = [c.encode_index(i) for i in range(c.size)]
            best = min(
                (a ^ b).bit_count() for a, b in itertools.combinations(words, 2)
            )
            assert best == c.min_distance() == 3

    def test_listing_capped(self):
        with pytest.raises(ValueError):
            HammingCode(5).codewords()
        with pytest.raises(ValueError):
            HammingCode(5).min_distance()
