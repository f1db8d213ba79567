"""Tests for repro.quantization.bitops."""

import numpy as np
import pytest

from repro.quantization import bitops
from repro.quantization.bitops import (
    bit_probabilities,
    hamming_weight,
    invert_words,
    pack_bits_to_words,
    pack_words_to_bits,
    random_words,
    rotate_words,
    unpack_bits,
    words_to_bitplanes,
)


class TestUnpackBits:
    def test_known_value_msb_first(self):
        bits = unpack_bits(np.array([0b1010]), word_bits=4)
        assert bits.tolist() == [[1, 0, 1, 0]]

    def test_known_value_lsb_first(self):
        bits = unpack_bits(np.array([0b1010]), word_bits=4, msb_first=False)
        assert bits.tolist() == [[0, 1, 0, 1]]

    def test_shape(self):
        assert unpack_bits(np.arange(10), word_bits=8).shape == (10, 8)

    def test_value_too_large_rejected(self):
        with pytest.raises(ValueError):
            unpack_bits(np.array([256]), word_bits=8)

    def test_invalid_word_bits_rejected(self):
        with pytest.raises(ValueError):
            unpack_bits(np.array([1]), word_bits=0)
        with pytest.raises(ValueError):
            unpack_bits(np.array([1]), word_bits=65)

    def test_roundtrip_with_pack(self, rng):
        words = rng.integers(0, 2**16, size=100, dtype=np.uint64)
        bits = pack_words_to_bits(words, 16)
        assert np.array_equal(pack_bits_to_words(bits, 16), words)

    def test_pack_bits_rejects_non_binary(self):
        with pytest.raises(ValueError):
            pack_bits_to_words(np.array([0, 2, 1, 1]), 4)

    def test_pack_bits_rejects_bad_length(self):
        with pytest.raises(ValueError):
            pack_bits_to_words(np.array([0, 1, 1]), 4)


class TestBitplanesAndProbabilities:
    def test_bitplanes_are_transposed_unpack(self, rng):
        words = rng.integers(0, 256, size=50, dtype=np.uint64)
        assert np.array_equal(words_to_bitplanes(words, 8),
                              unpack_bits(words, 8).T)

    def test_probabilities_all_zero_words(self):
        probabilities = bit_probabilities(np.zeros(10, dtype=np.uint64), 8)
        assert np.allclose(probabilities, 0.0)

    def test_probabilities_all_ones_words(self):
        probabilities = bit_probabilities(np.full(10, 0xFF, dtype=np.uint64), 8)
        assert np.allclose(probabilities, 1.0)

    def test_probabilities_lsb_first_indexing(self):
        # Words 0b0001: the '1' sits at bit-location 0 (LSB) as in Fig. 6.
        probabilities = bit_probabilities(np.full(4, 0b0001, dtype=np.uint64), 4)
        assert probabilities[0] == 1.0
        assert np.allclose(probabilities[1:], 0.0)

    def test_probabilities_empty_input_is_nan(self):
        assert np.all(np.isnan(bit_probabilities(np.empty(0, dtype=np.uint64), 8)))

    def test_uniform_random_words_near_half(self, rng):
        words = random_words(rng, 50000, 8)
        probabilities = bit_probabilities(words, 8)
        assert np.all(np.abs(probabilities - 0.5) < 0.02)

    def test_biased_random_words(self, rng):
        words = random_words(rng, 20000, 8, probability_of_one=0.9)
        assert np.all(bit_probabilities(words, 8) > 0.85)

    @pytest.mark.parametrize("chunk_rows", [7, bitops.RANDOM_WORDS_CHUNK_ROWS])
    @pytest.mark.parametrize("word_bits", [8, 64])
    def test_biased_random_words_match_one_shot_draw(self, monkeypatch, chunk_rows, word_bits):
        monkeypatch.setattr(bitops, "RANDOM_WORDS_CHUNK_ROWS", chunk_rows)
        count = 2 * chunk_rows + 5
        words = random_words(np.random.default_rng(3), count, word_bits, probability_of_one=0.3)
        bits = (np.random.default_rng(3).random((count, word_bits)) < 0.3).astype(np.uint64)
        shifts = np.arange(word_bits, dtype=np.uint64)[::-1]
        expected = (bits << shifts[None, :]).sum(axis=1, dtype=np.uint64)
        assert words.dtype == np.uint64
        assert np.array_equal(words, expected)


class TestWordManipulation:
    def test_hamming_weight(self):
        assert hamming_weight(np.array([0b1011, 0b0000, 0b1111]), 4).tolist() == [3, 0, 4]

    def test_invert_words(self):
        assert invert_words(np.array([0b1010]), 4)[0] == 0b0101

    def test_invert_is_involution(self, rng):
        words = rng.integers(0, 2**12, size=64, dtype=np.uint64)
        assert np.array_equal(invert_words(invert_words(words, 12), 12), words)

    def test_rotate_by_zero_is_identity(self, rng):
        words = rng.integers(0, 256, size=32, dtype=np.uint64)
        assert np.array_equal(rotate_words(words, 8, 0), words)

    def test_rotate_known_value(self):
        assert rotate_words(np.array([0b0001]), 4, 1)[0] == 0b0010
        assert rotate_words(np.array([0b1000]), 4, 1)[0] == 0b0001

    def test_rotate_full_turn_is_identity(self, rng):
        words = rng.integers(0, 2**8, size=16, dtype=np.uint64)
        assert np.array_equal(rotate_words(words, 8, 8), words)

    def test_rotate_preserves_hamming_weight(self, rng):
        words = rng.integers(0, 2**8, size=64, dtype=np.uint64)
        rotated = rotate_words(words, 8, 3)
        assert np.array_equal(hamming_weight(words, 8), hamming_weight(rotated, 8))


class TestNarrowAccumulatorRegressions:
    """Overflow-shaped regressions behind lint rule DL003.

    ``unpack_bits`` yields uint8; any reduction over more than 255 set bits
    wraps if the accumulator stays 8 bits wide, and numpy's platform-default
    accumulator is only 32 bits on some targets.  The fixed call sites
    declare ``dtype=np.int64`` — these tests pin the exact wide results on
    inputs past the uint8 ceiling.
    """

    def test_hamming_weight_is_wide_and_exact_past_255_words(self):
        words = np.full(300, 0xFF, dtype=np.uint64)
        weights = hamming_weight(words, word_bits=8)
        assert weights.dtype == np.int64
        assert int(weights.sum()) == 300 * 8  # > 255: wraps in a uint8 accumulator

    def test_unpacked_bits_sum_with_declared_dtype(self):
        bits = unpack_bits(np.full(40, 0xFF, dtype=np.uint64), word_bits=8)
        assert bits.dtype == np.uint8
        total = bits.sum(dtype=np.int64)
        assert total.dtype == np.int64
        assert int(total) == 320  # 40 words x 8 ones, one step past the ceiling
