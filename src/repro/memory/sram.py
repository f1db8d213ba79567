"""Vectorized 6T-SRAM array model.

The array holds ``rows`` words of ``word_bits`` bits (``rows x word_bits``
cells).  Every write of a word replaces the content of one row; the array
accumulates, per cell, the time spent storing a '1' so that per-cell
duty-cycles — the quantity NBTI aging depends on — can be read out at any
point.

Two usage patterns are supported:

* **explicit write streams** (``write_rows`` / ``write_block``), used by the
  integration tests and the functional accelerator path.  Residency-weighted
  accumulation happens at the *next* write of a row (or at ``finalize``), so
  arbitrary per-block residency times are handled exactly;
* **bulk duty accumulation** (``accumulate_block``) used by the fast
  policy-level simulator, which adds precomputed per-cell hold contributions
  directly.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.memory.geometry import MemoryGeometry
from repro.quantization.bitops import unpack_bits


class SramArray:
    """An ``I x J`` array of 6T-SRAM cells with duty-cycle bookkeeping."""

    def __init__(self, geometry: MemoryGeometry, initial_value: int = 0):
        self.geometry = geometry
        if initial_value not in (0, 1):
            raise ValueError("initial_value must be 0 or 1")
        rows, bits = geometry.rows, geometry.word_bits
        #: Bits currently stored in every cell.
        self._content = np.full((rows, bits), initial_value, dtype=np.uint8)
        #: Accumulated time each cell has spent storing a '1'.
        self._ones_time = np.zeros((rows, bits), dtype=np.float64)
        #: Accumulated total hold time of each cell.
        self._total_time = np.zeros((rows, bits), dtype=np.float64)
        #: Simulation timestamp (arbitrary units) of the last update per row.
        self._last_update = np.zeros(rows, dtype=np.float64)
        #: Current simulation time.
        self._now = 0.0

    # ------------------------------------------------------------------ #
    # Explicit write-stream interface
    # ------------------------------------------------------------------ #
    @property
    def now(self) -> float:
        """Current simulation time (advances with ``advance_time``)."""
        return self._now

    def advance_time(self, duration: float) -> None:
        """Advance simulation time; rows keep holding their current content."""
        if duration < 0:
            raise ValueError("duration must be non-negative")
        self._now += duration

    def _account_holds(self, row_indices: np.ndarray) -> None:
        """Credit hold time of the given rows from their last update to now."""
        durations = self._now - self._last_update[row_indices]
        if np.any(durations < 0):  # pragma: no cover - defensive
            raise RuntimeError("simulation time moved backwards")
        content = self._content[row_indices].astype(np.float64)
        self._ones_time[row_indices] += content * durations[:, None]
        self._total_time[row_indices] += durations[:, None]
        self._last_update[row_indices] = self._now

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
        """Write ``words`` into the given rows at the current simulation time.

        Every row may appear at most once per call: two writes of the same
        row at one instant have no defined hold-accounting order, and numpy's
        fancy ``+=`` would silently drop all but one of the duplicate hold
        credits.  Split such writes into separate calls instead.
        """
        row_indices = self._check_row_indices(row_indices)
        words = np.asarray(words).reshape(-1)
        if row_indices.size != words.size:
            raise ValueError("row_indices and words must have equal length")
        if row_indices.size == 0:
            return
        if np.unique(row_indices).size != row_indices.size:
            raise ValueError(
                "duplicate row indices within one write call; fancy-index "
                "accumulation would drop hold credits — issue separate writes")
        self._account_holds(row_indices)
        self._content[row_indices] = unpack_bits(words, self.geometry.word_bits)

    def write_block(self, words: np.ndarray, residency: float = 1.0,
                    start_row: int = 0) -> None:
        """Write a block starting at ``start_row``, then hold it for ``residency``.

        This matches the paper's dataflow assumption: each block occupies the
        memory for an equal amount of time and is fetched once per inference.
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
        self.advance_time(residency)

    def read_rows(self, row_indices: np.ndarray) -> np.ndarray:
        """Read back the currently stored words of the given rows."""
        row_indices = self._check_row_indices(row_indices)
        bits = self._content[row_indices].astype(np.uint64)
        shifts = np.arange(self.geometry.word_bits, dtype=np.uint64)[::-1].copy()
        return (bits << shifts[None, :]).sum(axis=1, dtype=np.uint64)

    def finalize(self) -> None:
        """Account hold time of every row up to the current simulation time."""
        self._account_holds(np.arange(self.geometry.rows))

    # ------------------------------------------------------------------ #
    # Bulk accumulation interface (fast simulator)
    # ------------------------------------------------------------------ #
    def accumulate_block(self, ones_time: np.ndarray, total_time: np.ndarray) -> None:
        """Add precomputed per-cell hold contributions (fast-path simulators)."""
        ones_time = np.asarray(ones_time, dtype=np.float64)
        total_time = np.asarray(total_time, dtype=np.float64)
        if ones_time.shape != self._ones_time.shape or total_time.shape != self._total_time.shape:
            raise ValueError("contribution arrays must match the cell array shape")
        if np.any(ones_time > total_time + 1e-12) or np.any(ones_time < -1e-12):
            raise ValueError("ones_time must lie within [0, total_time] per cell")
        self._ones_time += ones_time
        self._total_time += total_time

    # ------------------------------------------------------------------ #
    # Read-out
    # ------------------------------------------------------------------ #
    def duty_cycles(self, default: Optional[float] = None) -> np.ndarray:
        """Per-cell duty-cycle as a ``(rows, word_bits)`` float array.

        Cells that never held a value get ``default`` (or NaN when ``None``).
        """
        fill = np.nan if default is None else float(default)
        with np.errstate(invalid="ignore", divide="ignore"):
            duty = np.where(self._total_time > 0, self._ones_time / self._total_time, fill)
        return duty

    def flat_duty_cycles(self, default: Optional[float] = None) -> np.ndarray:
        """Per-cell duty-cycles as a flat 1-D array (length ``num_cells``)."""
        return self.duty_cycles(default).reshape(-1)

    @property
    def content(self) -> np.ndarray:
        """Copy of the currently stored bit matrix."""
        return self._content.copy()

    @property
    def ones_hold_time(self) -> np.ndarray:
        """Copy of the per-cell accumulated '1'-holding time."""
        return self._ones_time.copy()

    @property
    def total_hold_time(self) -> np.ndarray:
        """Copy of the per-cell accounted lifetime."""
        return self._total_time.copy()

    def reset_history(self) -> None:
        """Clear duty-cycle history but keep the current content."""
        self._ones_time[:] = 0.0
        self._total_time[:] = 0.0
        self._last_update[:] = self._now
