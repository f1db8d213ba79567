"""Stream-interface adapter over a store-loaded packed tensor.

:class:`StoredWeightStream` exposes the :data:`~repro.accelerator.scheduler.StreamLike`
surface the simulators consume — ``geometry`` / ``words_per_block`` /
``fifo_depth_tiles`` / ``num_blocks`` / ``iter_blocks()`` / ``packed_bits()``
— backed entirely by a memory-mapped :class:`PackedBitTensor`.  The packed
fast path costs nothing extra (``packed_bits()`` returns the mmap-backed
tensor directly); the explicit cross-check engines get their
:class:`WeightBlock` sequence reconstructed lazily from the stored bits via
:func:`~repro.quantization.bitops.pack_bits_to_words`, which is the exact
inverse of the unpacking done at build time — so both engines see the same
bits whether the stream was built or loaded.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, Optional

from repro.accelerator.scheduler import (PackedBitTensor, WeightBlock,
                                         _freeze, _storage_dtype)
from repro.memory.geometry import MemoryGeometry

__all__ = ["StoredWeightStream"]


class StoredWeightStream:
    """A weight stream reloaded from the on-disk stream store."""

    def __init__(self, packed: PackedBitTensor,
                 describe: Optional[Dict[str, Any]] = None,
                 key: Optional[str] = None):
        self._packed = packed
        self._describe = dict(describe or {})
        self.store_key = key

    # -- StreamLike surface -------------------------------------------------- #
    @property
    def geometry(self) -> MemoryGeometry:
        """Geometry of the underlying weight memory."""
        return self._packed.geometry

    @property
    def words_per_block(self) -> int:
        """Words per (padded) block."""
        return self._packed.words_per_block

    @property
    def fifo_depth_tiles(self) -> int:
        """FIFO depth of the stored schedule."""
        return self._packed.fifo_depth_tiles

    @property
    def num_blocks(self) -> int:
        """Number of blocks per inference."""
        return self._packed.num_blocks

    def packed_bits(self) -> PackedBitTensor:
        """The memory-mapped packed tensor (shared, read-only)."""
        return self._packed

    def iter_blocks(self) -> Iterator[WeightBlock]:
        """Reconstruct the block sequence from the stored bits, lazily.

        Word values are repacked from the bit tensor with the exact inverse
        of the build-time unpacking, so the explicit engines replay the
        stream bit-identically to a freshly-built one.  Layer provenance is
        not persisted; blocks carry a placeholder layer name.
        """
        packed = self._packed
        dtype = _storage_dtype(packed.word_bits)
        from repro.quantization.bitops import pack_bits_to_words

        for index in range(packed.num_blocks):
            valid = int(packed.valid_words[index])
            words = pack_bits_to_words(
                packed.bits[index, :valid], packed.word_bits).astype(dtype)
            yield WeightBlock(index=index, words=_freeze(words),
                              region=int(packed.regions[index]),
                              layer_names=("stored",))

    def describe(self) -> Dict[str, Any]:
        """The schedule description persisted alongside the payload."""
        if self._describe:
            return dict(self._describe)
        return {
            "word_bits": self._packed.word_bits,
            "memory_capacity_bytes": self._packed.geometry.capacity_bytes,
            "memory_rows": self._packed.geometry.rows,
            "words_per_block": self._packed.words_per_block,
            "fifo_depth_tiles": self._packed.fifo_depth_tiles,
            "num_blocks_per_inference": self._packed.num_blocks,
        }
