"""Write-trace recording and replay.

A :class:`WriteTrace` captures the sequence of block writes an accelerator
issues to its weight memory (block index, encoded words, residency and the
encoding metadata).  Traces decouple the dataflow generation from the aging
simulation: a trace recorded once can be replayed against different memory
models or aging models, and traces are small enough to serialise for
regression tests.  Replay writes every record to its own rows; wear-leveled
explicit runs go through :func:`repro.core.simulation.replay_epochs`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, List, Optional, Union

import numpy as np

from repro.memory.sram import SramArray


@dataclass
class WriteRecord:
    """One block write: the words written and how long they stay resident."""

    block_index: int
    words: np.ndarray
    residency: float = 1.0
    #: First memory row the block is written to (FIFO tiles use offsets).
    start_row: int = 0
    #: Encoding metadata (e.g. the DNN-Life enable bits), if any.
    metadata: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        # Integer fields are validated strictly: silently truncating a float
        # here used to mask type errors until the value came back wrong from
        # a saved trace.
        for name in ("block_index", "start_row"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise TypeError(f"{name} must be an integer, "
                                f"got {type(value).__name__} ({value!r})")
            setattr(self, name, int(value))
        if self.block_index < 0:
            raise ValueError("block_index must be non-negative")
        if self.start_row < 0:
            raise ValueError("start_row must be non-negative")
        self.words = np.asarray(self.words, dtype=np.uint64).reshape(-1)
        if self.metadata is not None:
            self.metadata = np.asarray(self.metadata, dtype=np.uint8).reshape(-1)
        if self.residency < 0:
            raise ValueError("residency must be non-negative")


@dataclass
class WriteTrace:
    """An ordered sequence of :class:`WriteRecord` objects."""

    word_bits: int
    records: List[WriteRecord] = field(default_factory=list)

    def append(self, record: WriteRecord) -> None:
        """Add one record to the trace."""
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[WriteRecord]:
        return iter(self.records)

    @property
    def total_words_written(self) -> int:
        """Total number of word writes in the trace."""
        return sum(record.words.size for record in self.records)

    @property
    def total_bits_written(self) -> int:
        """Total number of cell writes in the trace."""
        return self.total_words_written * self.word_bits

    def replay(self, array: SramArray) -> SramArray:
        """Replay the trace into an SRAM array (explicit simulation path).

        Records land on their own rows in trace order, each held for its
        residency.  Leveled explicit runs replay the schedule itself instead
        (:func:`repro.core.simulation.replay_epochs`).
        """
        if array.geometry.word_bits != self.word_bits:
            raise ValueError(
                f"trace word width {self.word_bits} does not match memory word width "
                f"{array.geometry.word_bits}"
            )
        for record in self.records:
            array.write_block(record.words, residency=record.residency,
                              start_row=record.start_row)
        array.finalize()
        return array

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #
    def save(self, path: Union[str, Path]) -> None:
        """Save the trace to a compressed ``.npz`` file.

        Integer record fields (``block_index``, ``start_row``) are stored as
        int64 — the earlier float64 ``info`` encoding lost exactness above
        2**53.  ``load`` still reads files written in the legacy layout.
        """
        arrays = {"word_bits": np.asarray([self.word_bits])}
        for index, record in enumerate(self.records):
            arrays[f"words_{index}"] = record.words
            arrays[f"meta_{index}"] = (record.metadata if record.metadata is not None
                                       else np.empty(0, dtype=np.uint8))
            arrays[f"info_{index}"] = np.asarray([record.residency], dtype=np.float64)
            arrays[f"rows_{index}"] = np.asarray(
                [record.block_index, record.start_row], dtype=np.int64)
        np.savez_compressed(path, **arrays)

    @classmethod
    def load(cls, path: Union[str, Path]) -> "WriteTrace":
        """Load a trace previously written with :meth:`save`.

        Reads both the current layout (int64 ``rows_<i>`` alongside a
        residency-only ``info_<i>``) and the legacy all-float ``info_<i>``
        triple of ``[block_index, residency, start_row]``.
        """
        with np.load(path) as data:
            word_bits = int(data["word_bits"][0])
            trace = cls(word_bits=word_bits)
            index = 0
            while f"words_{index}" in data:
                info = data[f"info_{index}"]
                metadata = data[f"meta_{index}"]
                if f"rows_{index}" in data:
                    integers = data[f"rows_{index}"]
                    block_index = int(integers[0])
                    start_row = int(integers[1])
                    residency = float(info[0])
                else:  # legacy float64 [block_index, residency, start_row]
                    block_index = int(info[0])
                    residency = float(info[1])
                    start_row = int(info[2]) if info.size > 2 else 0
                trace.append(WriteRecord(
                    block_index=block_index,
                    words=data[f"words_{index}"],
                    residency=residency,
                    start_row=start_row,
                    metadata=metadata if metadata.size else None,
                ))
                index += 1
        return trace
