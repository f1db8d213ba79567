"""Vectorized bit-plane utilities.

All aging simulations in this library operate on *words* — unsigned integers
whose binary representation is exactly what a DNN accelerator writes into its
on-chip weight memory.  These helpers convert between word arrays and bit
arrays efficiently with numpy, and compute per-bit-position statistics
(the Fig. 6 analysis of the paper).
"""

from __future__ import annotations

from typing import Optional

import numpy as np


def _check_word_bits(word_bits: int) -> int:
    if word_bits <= 0 or word_bits > 64:
        raise ValueError(f"word_bits must be in [1, 64], got {word_bits}")
    return int(word_bits)


def unpack_bits(words: np.ndarray, word_bits: int, msb_first: bool = True) -> np.ndarray:
    """Unpack an array of unsigned integer words into a bit matrix.

    Parameters
    ----------
    words:
        Array of non-negative integers, any shape; flattened internally.
    word_bits:
        Number of bits per word (1..64).
    msb_first:
        If True (default) column 0 of the result is the most significant bit.

    Returns
    -------
    numpy.ndarray
        ``uint8`` array of shape ``(words.size, word_bits)`` containing 0/1.
    """
    word_bits = _check_word_bits(word_bits)
    flat = np.asarray(words).reshape(-1).astype(np.uint64)
    if flat.size and int(flat.max()) >= (1 << word_bits):
        raise ValueError(
            f"word value {int(flat.max())} does not fit in {word_bits} bits"
        )
    # One C pass through np.unpackbits over a big-endian byte view — roughly
    # an order of magnitude faster (and 8x less temporary memory) than the
    # per-bit shift-and-mask loop it replaces.
    if word_bits <= 8:
        byte_width, dtype = 1, np.uint8
    elif word_bits <= 16:
        byte_width, dtype = 2, np.dtype(">u2")
    elif word_bits <= 32:
        byte_width, dtype = 4, np.dtype(">u4")
    else:
        byte_width, dtype = 8, np.dtype(">u8")
    octets = flat.astype(dtype).view(np.uint8).reshape(-1, byte_width)
    bits = np.unpackbits(octets, axis=1)[:, byte_width * 8 - word_bits:]
    if not msb_first:
        bits = bits[:, ::-1]
    return np.ascontiguousarray(bits)


def pack_words_to_bits(words: np.ndarray, word_bits: int, msb_first: bool = True) -> np.ndarray:
    """Flatten words into a 1-D bit stream (row-major, word after word)."""
    return unpack_bits(words, word_bits, msb_first=msb_first).reshape(-1)


def pack_bits_to_words(bits: np.ndarray, word_bits: int, msb_first: bool = True) -> np.ndarray:
    """Inverse of :func:`pack_words_to_bits`: group a bit stream into words."""
    word_bits = _check_word_bits(word_bits)
    flat = np.asarray(bits).reshape(-1).astype(np.uint64)
    if flat.size % word_bits != 0:
        raise ValueError(
            f"bit stream length {flat.size} is not a multiple of word_bits={word_bits}"
        )
    if flat.size and int(flat.max()) > 1:
        raise ValueError("bit stream must contain only 0/1 values")
    matrix = flat.reshape(-1, word_bits)
    shifts = np.arange(word_bits, dtype=np.uint64)
    if msb_first:
        shifts = shifts[::-1].copy()
    return (matrix << shifts[None, :]).sum(axis=1, dtype=np.uint64)


def words_to_bitplanes(words: np.ndarray, word_bits: int, msb_first: bool = True) -> np.ndarray:
    """Return the transposed bit matrix: shape ``(word_bits, n_words)``.

    Row ``j`` is the *bit plane* of bit-position ``j`` (MSB first by default),
    which is the natural layout for per-bit-position probability analysis.
    """
    return unpack_bits(words, word_bits, msb_first=msb_first).T


def bit_probabilities(words: np.ndarray, word_bits: int, msb_first: bool = False) -> np.ndarray:
    """Probability of observing a '1' at each bit position (paper Fig. 6).

    Parameters
    ----------
    msb_first:
        The paper plots bit-location with LSB = 0, so the default here is
        LSB-first indexing: element ``j`` of the result is the probability of
        a '1' at bit-location ``j``.

    Returns
    -------
    numpy.ndarray
        Float array of length ``word_bits`` with values in [0, 1].
    """
    bits = unpack_bits(words, word_bits, msb_first=msb_first)
    if bits.shape[0] == 0:
        return np.full(word_bits, np.nan)
    return bits.mean(axis=0, dtype=np.float64)


def hamming_weight(words: np.ndarray, word_bits: int) -> np.ndarray:
    """Number of '1' bits in each word."""
    return unpack_bits(words, word_bits).sum(axis=1, dtype=np.int64)


def invert_words(words: np.ndarray, word_bits: int) -> np.ndarray:
    """Bitwise complement of each word within ``word_bits`` bits."""
    word_bits = _check_word_bits(word_bits)
    mask = np.uint64((1 << word_bits) - 1) if word_bits < 64 else np.uint64(0xFFFFFFFFFFFFFFFF)
    return (np.asarray(words).astype(np.uint64) ^ mask).astype(np.uint64)


def rotate_words(words: np.ndarray, word_bits: int, amount: int) -> np.ndarray:
    """Rotate every word left by ``amount`` bit positions (barrel shift)."""
    word_bits = _check_word_bits(word_bits)
    amount = int(amount) % word_bits
    if amount == 0:
        return np.asarray(words).astype(np.uint64).copy()
    values = np.asarray(words).astype(np.uint64)
    mask = np.uint64((1 << word_bits) - 1) if word_bits < 64 else np.uint64(0xFFFFFFFFFFFFFFFF)
    left = (values << np.uint64(amount)) & mask
    right = values >> np.uint64(word_bits - amount)
    return (left | right).astype(np.uint64)


#: Words per chunk of a biased :func:`random_words` draw.
RANDOM_WORDS_CHUNK_ROWS = 1 << 15


def random_words(rng: np.random.Generator, count: int, word_bits: int,
                 probability_of_one: Optional[float] = None) -> np.ndarray:
    """Generate random words; optionally with a biased per-bit probability."""
    word_bits = _check_word_bits(word_bits)
    if probability_of_one is None:
        high = 1 << word_bits
        return rng.integers(0, high, size=count, dtype=np.uint64)
    # Row chunks consume ``rng.random`` row-major, exactly as one
    # (count, word_bits) draw would, without holding that whole matrix.
    words = np.empty(count, dtype=np.uint64)
    shifts = np.arange(word_bits, dtype=np.uint64)[::-1].copy()
    for start in range(0, count, RANDOM_WORDS_CHUNK_ROWS):
        rows = min(RANDOM_WORDS_CHUNK_ROWS, count - start)
        bits = (rng.random((rows, word_bits)) < probability_of_one).astype(np.uint64)
        words[start:start + rows] = (bits << shifts[None, :]).sum(axis=1, dtype=np.uint64)
    return words
