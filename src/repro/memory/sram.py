"""6T-SRAM array content store.

The array holds ``rows`` words of ``word_bits`` bits (``rows x word_bits``
cells), all zero until written.  It models what the accelerator reads back
from its weight memory, which is what the DNN-Life transducer round trip
(encode → write → read → decode) needs.  Duty-cycles are not accounted here:
the explicit aging engine (:func:`repro.core.simulation.replay_inference` and
:func:`repro.core.simulation.replay_epochs`) is the write-by-write duty model.
"""

from __future__ import annotations

import numpy as np

from repro.memory.geometry import MemoryGeometry
from repro.quantization.bitops import unpack_bits


class SramArray:
    """An ``I x J`` array of 6T-SRAM cells storing the last word written per row."""

    def __init__(self, geometry: MemoryGeometry):
        self.geometry = geometry
        #: Bits currently stored in every cell.
        self._content = np.zeros((geometry.rows, geometry.word_bits), dtype=np.uint8)

    def _check_row_indices(self, row_indices: np.ndarray) -> np.ndarray:
        """Validate row indices: in ``[0, rows)``, no silent negative wraparound."""
        row_indices = np.asarray(row_indices, dtype=np.int64).reshape(-1)
        if row_indices.size and (row_indices.min() < 0
                                 or row_indices.max() >= self.geometry.rows):
            raise IndexError(
                f"row index out of range [0, {self.geometry.rows}) — negative "
                "indices are rejected rather than wrapped around")
        return row_indices

    def write_rows(self, row_indices: np.ndarray, words: np.ndarray) -> None:
        """Write ``words`` into the given rows.

        Every row may appear at most once per call: two writes of the same
        row in one call have no defined order, and numpy's fancy assignment
        would silently keep only one of them.  Split such writes into
        separate calls instead.
        """
        row_indices = self._check_row_indices(row_indices)
        words = np.asarray(words).reshape(-1)
        if row_indices.size != words.size:
            raise ValueError("row_indices and words must have equal length")
        if row_indices.size == 0:
            return
        if np.unique(row_indices).size != row_indices.size:
            raise ValueError(
                "duplicate row indices within one write call; fancy assignment "
                "would keep only one of them — issue separate writes")
        self._content[row_indices] = unpack_bits(words, self.geometry.word_bits)

    def write_block(self, words: np.ndarray, start_row: int = 0) -> None:
        """Write a block into consecutive rows starting at ``start_row``.

        Blocks shorter than the memory only overwrite the rows they cover;
        FIFO-organised memories pass the tile offset as ``start_row``.
        """
        words = np.asarray(words).reshape(-1)
        if start_row < 0 or start_row + words.size > self.geometry.rows:
            raise ValueError(
                f"block of {words.size} words at row {start_row} does not fit in "
                f"{self.geometry.rows} rows"
            )
        self.write_rows(np.arange(start_row, start_row + words.size), words)

    def read_rows(self, row_indices: np.ndarray) -> np.ndarray:
        """Read back the currently stored words of the given rows."""
        row_indices = self._check_row_indices(row_indices)
        bits = self._content[row_indices].astype(np.uint64)
        shifts = np.arange(self.geometry.word_bits, dtype=np.uint64)[::-1].copy()
        return (bits << shifts[None, :]).sum(axis=1, dtype=np.uint64)
