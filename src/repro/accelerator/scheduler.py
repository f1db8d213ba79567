"""Weight-block write-stream generation.

The :class:`WeightStreamScheduler` turns (network, data format, memory
geometry, dataflow parameters) into the sequence of *weight blocks* the
accelerator writes into its on-chip weight memory during one inference:

1. every weight layer is quantized once (per-tensor parameters, computed on
   the full layer as a deployment toolchain would);
2. the layer's weights are traversed in the Fig. 5 dataflow order
   (filter sets of ``f`` filters, ``r x c x ch`` tiles per filter);
3. the resulting word stream is packed into blocks that exactly fill the
   on-chip memory (or one FIFO tile for FIFO-organised memories), matching
   the paper's assumption that each block fits the memory perfectly;
4. blocks are assigned to a memory *region*: full-memory placement rewrites
   the whole array every block, circular-FIFO placement writes tile
   ``i mod depth`` (the TPU-like NPU's four-tile weight FIFO).

The same stream repeats every inference, which is exactly the property that
makes naive aging mitigation ineffective for DNN workloads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Hashable, Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.accelerator.dataflow import BlockSlice, iter_block_slices
from repro.memory.geometry import MemoryGeometry
from repro.nn.layers import Layer
from repro.nn.network import Network
from repro.quantization.formats import DataFormat, get_format
from repro.utils.validation import check_positive_int


def _storage_dtype(word_bits: int) -> np.dtype:
    """Smallest unsigned dtype able to hold a word of ``word_bits`` bits."""
    if word_bits <= 8:
        return np.dtype(np.uint8)
    if word_bits <= 16:
        return np.dtype(np.uint16)
    if word_bits <= 32:
        return np.dtype(np.uint32)
    return np.dtype(np.uint64)


@dataclass
class WeightBlock:
    """One block of encoded weights written to the on-chip memory."""

    index: int
    words: np.ndarray
    region: int = 0

    @property
    def num_words(self) -> int:
        """Number of weight words in the block."""
        return int(self.words.size)


class WeightStreamScheduler:
    """Generates the per-inference weight write stream of an accelerator."""

    def __init__(self, network: Network, data_format: Union[str, DataFormat],
                 geometry: MemoryGeometry, parallel_filters: int,
                 fifo_depth_tiles: int = 1, pad_final_block: bool = True):
        self.network = network
        self.data_format = get_format(data_format) if isinstance(data_format, str) else data_format
        self.geometry = geometry
        self.parallel_filters = check_positive_int(parallel_filters, "parallel_filters")
        self.fifo_depth_tiles = check_positive_int(fifo_depth_tiles, "fifo_depth_tiles")
        self.pad_final_block = bool(pad_final_block)
        if self.data_format.word_bits != geometry.word_bits:
            raise ValueError(
                f"data format '{self.data_format.name}' is {self.data_format.word_bits}-bit "
                f"but the memory geometry expects {geometry.word_bits}-bit words"
            )
        if geometry.rows % self.fifo_depth_tiles != 0:
            raise ValueError(
                f"{geometry.rows} memory rows cannot be divided into "
                f"{self.fifo_depth_tiles} equal FIFO tiles"
            )
        network.validate_weights()

    # ------------------------------------------------------------------ #
    # Sizing
    # ------------------------------------------------------------------ #
    @property
    def words_per_block(self) -> int:
        """Number of weight words per block (memory rows, or one FIFO tile)."""
        return self.geometry.rows // self.fifo_depth_tiles

    @property
    def total_weight_words(self) -> int:
        """Total weight words streamed per inference."""
        return self.network.weight_count

    @property
    def num_blocks(self) -> int:
        """Number of blocks per inference (K of the paper's Eq. 1)."""
        return (self.total_weight_words + self.words_per_block - 1) // self.words_per_block

    @property
    def blocks_per_region(self) -> np.ndarray:
        """How many blocks land in each memory region over one inference."""
        counts = np.zeros(self.fifo_depth_tiles, dtype=np.int64)
        for block_index in range(self.num_blocks):
            counts[block_index % self.fifo_depth_tiles] += 1
        return counts

    # ------------------------------------------------------------------ #
    # Stream generation
    # ------------------------------------------------------------------ #
    def _iter_layer_words(self) -> Iterator[np.ndarray]:
        """Yield the quantized word chunks in Fig. 5 dataflow order."""
        dtype = _storage_dtype(self.geometry.word_bits)
        for layer in self.network.weight_layers():
            # Per-tensor quantization parameters are computed on the whole
            # layer, exactly as a post-training-quantization toolchain would;
            # dataflow chunks are then cut out of the quantized word tensor.
            layer_words = self.data_format.to_words(
                np.asarray(layer.weights, dtype=np.float32)).astype(dtype)
            for block in iter_block_slices(layer, self.parallel_filters, self.words_per_block):
                yield _extract_block_words(layer, layer_words, block)

    def iter_blocks(self) -> Iterator[WeightBlock]:
        """Yield the packed, memory-sized blocks of one inference."""
        pending: List[np.ndarray] = []
        pending_words = 0
        block_index = 0
        capacity = self.words_per_block

        def emit(words: np.ndarray) -> WeightBlock:
            nonlocal block_index
            block = WeightBlock(index=block_index, words=words,
                                region=block_index % self.fifo_depth_tiles)
            block_index += 1
            return block

        for chunk in self._iter_layer_words():
            position = 0
            while position < chunk.size:
                take = min(chunk.size - position, capacity - pending_words)
                pending.append(chunk[position:position + take])
                pending_words += take
                position += take
                if pending_words == capacity:
                    yield emit(np.concatenate(pending))
                    pending = []
                    pending_words = 0
        if pending_words:
            words = np.concatenate(pending)
            if self.pad_final_block:
                dtype = words.dtype
                padding = np.zeros(capacity - pending_words, dtype=dtype)
                words = np.concatenate([words, padding])
            yield emit(words)

    def describe(self) -> dict:
        """Machine-readable description of the schedule."""
        return {
            "network": self.network.name,
            "data_format": self.data_format.name,
            "word_bits": self.geometry.word_bits,
            "memory_capacity_bytes": self.geometry.capacity_bytes,
            "memory_rows": self.geometry.rows,
            "words_per_block": self.words_per_block,
            "fifo_depth_tiles": self.fifo_depth_tiles,
            "parallel_filters": self.parallel_filters,
            "total_weight_words": self.total_weight_words,
            "num_blocks_per_inference": self.num_blocks,
        }


def _extract_block_words(layer: Layer, layer_words: np.ndarray,
                         block: BlockSlice) -> np.ndarray:
    """Extract the words of one dataflow block from the quantized layer words."""
    # The flat word array is viewed as (num_filters, CH, R, C) — for
    # fully-connected layers CH is the input dimension and R = C = 1 —
    # mirroring ``extract_block_weights`` for the float tensor.
    from repro.accelerator.dataflow import layer_filter_shape

    filter_shape = layer_filter_shape(layer)
    view = layer_words.reshape((layer.weight_shape[0],) + filter_shape)
    selected = view[
        list(block.filter_indices),
        block.channel_range[0]:block.channel_range[1],
        block.row_range[0]:block.row_range[1],
        block.col_range[0]:block.col_range[1],
    ]
    return np.ascontiguousarray(selected).reshape(-1)


#: Column-chunk budget (bytes of source data per chunk) of the block-axis
#: reductions.  Chosen so a chunk's accumulator stays cache-resident: summing
#: a (blocks, cells) tensor over its *outer* axis in one numpy call streams
#: the full-size accumulator from memory once per block, which for memory-
#: sized blocks costs many times the traffic of reading the data itself.
_REDUCE_CHUNK_BYTES = 1 << 22

#: Headroom kept below the uint16 ceiling when picking the SIMD-friendly
#: small-integer accumulator for weighted block reductions.
_UINT16_BUDGET = 60_000


def block_axis_sum(view: np.ndarray, weights: Optional[np.ndarray] = None,
                   max_value: Optional[int] = None) -> np.ndarray:
    """Sum a ``(B, ...)`` array over its block axis, cache-friendly and exact.

    The reduction runs in column chunks so each chunk's accumulator fits in
    cache, and accumulates in uint16 where the value range *provably* allows
    it (numpy vectorizes uint8→uint16 adds ~3x better than widening to
    int64).  ``max_value`` is the caller's bound on the entries of ``view``
    — bool data is implicitly bounded by 1; anything else keeps the wide
    accumulator unless a bound is declared, so an unknown value range can
    never overflow silently.  The sums come back in the accumulator's
    dtype.  ``weights`` (shape ``(B, W)``, optional) scales each block word
    before the reduction.
    """
    num_blocks = view.shape[0]
    if max_value is None and view.dtype == np.bool_:
        max_value = 1
    if weights is None:
        flat = view.reshape(num_blocks, -1)
        columns = flat.shape[1]
        small = (view.dtype.itemsize == 1 and max_value is not None
                 and max_value * num_blocks <= _UINT16_BUDGET)
        accumulator = np.uint16 if small else (
            np.int64 if view.dtype.kind in "bui" else np.float64)
        out = np.empty(columns, dtype=accumulator)
        chunk = max(4096, _REDUCE_CHUNK_BYTES
                    // max(num_blocks * view.dtype.itemsize, 1))
        for start in range(0, columns, chunk):
            stop = min(start + chunk, columns)
            out[start:stop] = flat[:, start:stop].sum(axis=0, dtype=accumulator)
        return out.reshape(view.shape[1:])
    if view.ndim == 2:
        return (view * np.asarray(weights, dtype=np.float64)).sum(
            axis=0, dtype=np.float64)
    words, word_bits = view.shape[1], view.shape[2]
    chunk = max(64, _REDUCE_CHUNK_BYTES
                // max(num_blocks * word_bits * view.dtype.itemsize, 1))
    weight_max = int(weights.max()) if weights.size else 0
    small = (view.dtype == np.uint8 and weights.dtype.kind in "bui"
             and max_value is not None
             and max_value * weight_max <= 255
             and max_value * weight_max * num_blocks <= _UINT16_BUDGET)
    out = np.empty((words, word_bits), dtype=np.uint16 if small else np.float64)
    if small:
        weights = weights.astype(np.uint8, copy=False)
        for start in range(0, words, chunk):
            stop = min(start + chunk, words)
            scaled = view[:, start:stop] * weights[:, start:stop, None]
            out[start:stop] = scaled.sum(axis=0, dtype=np.uint16)
    else:
        weights = np.asarray(weights, dtype=np.float64)
        for start in range(0, words, chunk):
            stop = min(start + chunk, words)
            out[start:stop] = np.einsum("bwn,bw->wn", view[:, start:stop],
                                        weights[:, start:stop])
    return out


def as_stride_indexer(indices: np.ndarray) -> Union[np.ndarray, slice]:
    """Compress sorted block indices into a slice when they form a stride.

    Slicing keeps the subsequent reduction a zero-copy view; the fancy-index
    fallback only triggers for irregular region/class layouts.
    """
    indices = np.asarray(indices)
    if indices.size == 0:
        return indices
    if indices.size == 1:
        return slice(int(indices[0]), int(indices[0]) + 1)
    steps = np.diff(indices)
    if np.all(steps == steps[0]):
        step = int(steps[0])
        return slice(int(indices[0]), int(indices[-1]) + 1, step)
    return indices


def _freeze(array: np.ndarray) -> np.ndarray:
    """Mark an array read-only: the runtime guard behind lint rule DL004.

    Cached packed-stream tensors are shared by every policy evaluation (and,
    with sweep stream affinity, by every job a worker process serves); a
    frozen buffer turns an accidental in-place write into an immediate
    ``ValueError`` at the mutation site instead of silently corrupting all
    later consumers.
    """
    array.setflags(write=False)
    return array


class PackedBitTensor:
    """One inference's entire block stream as a single packed bit tensor.

    This is the in-memory weight stream: the cold build, the stream store and
    the bench all hand one of these to the simulators.  It exposes the
    scheduler's streaming surface (``geometry``, ``words_per_block``,
    ``fifo_depth_tiles``, ``num_blocks``, :meth:`iter_blocks`,
    :meth:`describe`), so the explicit cross-check engines replay it too.

    The fast aging kernels are whole-tensor reductions; feeding them block by
    block forces a Python loop and an :func:`unpack_bits` call per block.
    This container performs quantization and bit-unpacking exactly once and
    stores the result as a ``(num_blocks, words_per_block, word_bits)`` uint8
    array, so every subsequent policy evaluation on the same workload is a
    handful of NumPy reductions over one contiguous array.

    Blocks shorter than ``words_per_block`` (an unpadded final block) are
    zero-padded in ``bits``; ``valid_words`` records each block's true length
    and :meth:`valid_mask` exposes the per-word validity the kernels use to
    keep write counts exact.

    Attributes
    ----------
    bits:
        ``uint8`` array of shape ``(num_blocks, words_per_block, word_bits)``
        holding the unpacked (MSB-first) bits of every block.
    regions:
        ``int64`` array of shape ``(num_blocks,)``: the memory region (FIFO
        tile) each block is written to.
    valid_words:
        ``int64`` array of shape ``(num_blocks,)``: the number of genuine
        (non-padding) words in each block.
    word_offsets:
        ``int64`` array of shape ``(num_blocks,)``: cumulative number of
        genuine words written *before* each block within one inference —
        i.e. the value of a per-word write counter when the block starts.
    """

    def __init__(self, bits: np.ndarray, regions: np.ndarray,
                 valid_words: np.ndarray, geometry: MemoryGeometry,
                 fifo_depth_tiles: int,
                 describe: Optional[Dict[str, Any]] = None):
        bits = np.ascontiguousarray(bits, dtype=np.uint8)
        if bits.ndim != 3:
            raise ValueError(f"bits must be (blocks, words, word_bits), got {bits.shape}")
        self.bits = bits
        self.regions = np.asarray(regions, dtype=np.int64).reshape(-1)
        self.valid_words = np.asarray(valid_words, dtype=np.int64).reshape(-1)
        if not (self.regions.size == self.valid_words.size == bits.shape[0]):
            raise ValueError("regions/valid_words length must match the block count")
        self.geometry = geometry
        self.fifo_depth_tiles = int(fifo_depth_tiles)
        self._describe = dict(describe) if describe else None
        self.word_offsets = np.concatenate(
            [[0], np.cumsum(self.valid_words)[:-1]]).astype(np.int64)
        # The tensor is shared across policy evaluations, scenario phases and
        # sweep jobs with stream affinity; freezing every long-lived array
        # turns any aliasing bug the DL004 lint rule misses into an immediate
        # "assignment destination is read-only" instead of a cross-job
        # heisenbug.  Consumers that need scratch space take a .copy().
        for array in (self.bits, self.regions, self.valid_words,
                      self.word_offsets):
            _freeze(array)
        self._valid_mask: Optional[np.ndarray] = None
        self._rows_ones: Optional[np.ndarray] = None
        self._rows_writes: Optional[np.ndarray] = None
        self._word_popcounts: Optional[np.ndarray] = None
        self._derived: Dict[Hashable, Any] = {}

    # -- construction ---------------------------------------------------- #
    @classmethod
    def from_stream(cls, stream: WeightStreamScheduler) -> "PackedBitTensor":
        """Pack a scheduler's stream, recording its ``describe()``."""
        from repro.quantization.bitops import unpack_bits

        geometry = stream.geometry
        words_per_block = stream.words_per_block
        word_bits = geometry.word_bits
        num_blocks = int(stream.num_blocks)
        if num_blocks <= 0:
            raise ValueError("cannot pack an empty weight stream")
        bits = np.zeros((num_blocks, words_per_block, word_bits), dtype=np.uint8)
        regions = np.zeros(num_blocks, dtype=np.int64)
        valid = np.zeros(num_blocks, dtype=np.int64)
        count = 0
        for block in stream.iter_blocks():
            if count >= num_blocks:
                raise ValueError(f"stream yielded more than its declared "
                                 f"{num_blocks} blocks")
            if block.num_words > words_per_block:
                raise ValueError(
                    f"block {block.index} holds {block.num_words} words but the "
                    f"schedule allows at most {words_per_block}")
            bits[count, :block.num_words] = unpack_bits(block.words, word_bits)
            regions[count] = block.region
            valid[count] = block.num_words
            count += 1
        if count != num_blocks:
            raise ValueError(f"stream yielded {count} blocks but declared {num_blocks}")
        return cls(bits=bits, regions=regions, valid_words=valid, geometry=geometry,
                   fifo_depth_tiles=stream.fifo_depth_tiles,
                   describe=stream.describe())

    # -- stream surface --------------------------------------------------- #
    def packed_bits(self) -> "PackedBitTensor":
        """The stream's packed form: the tensor itself."""
        return self

    def iter_blocks(self) -> Iterator[WeightBlock]:
        """Reconstruct the block sequence from the bits, lazily.

        Word values are repacked from the bit tensor with the exact inverse
        of the build-time unpacking, so the explicit engines replay the
        stream bit-identically to the scheduler it was packed from.
        """
        dtype = _storage_dtype(self.word_bits)
        from repro.quantization.bitops import pack_bits_to_words

        for index in range(self.num_blocks):
            valid = int(self.valid_words[index])
            words = pack_bits_to_words(
                self.bits[index, :valid], self.word_bits).astype(dtype)
            yield WeightBlock(index=index, words=_freeze(words),
                              region=int(self.regions[index]))

    def describe(self) -> Dict[str, Any]:
        """The schedule description recorded when the stream was built.

        Falls back to the geometry alone when none was recorded.
        """
        if self._describe:
            return dict(self._describe)
        return {
            "word_bits": self.word_bits,
            "memory_capacity_bytes": self.geometry.capacity_bytes,
            "memory_rows": self.geometry.rows,
            "words_per_block": self.words_per_block,
            "fifo_depth_tiles": self.fifo_depth_tiles,
            "num_blocks_per_inference": self.num_blocks,
        }

    # -- sizing ----------------------------------------------------------- #
    @property
    def num_blocks(self) -> int:
        """Number of blocks per inference."""
        return int(self.bits.shape[0])

    @property
    def words_per_block(self) -> int:
        """Words per (padded) block — the second axis of :attr:`bits`."""
        return int(self.bits.shape[1])

    @property
    def word_bits(self) -> int:
        """Bits per word — the third axis of :attr:`bits`."""
        return int(self.bits.shape[2])

    @property
    def total_words(self) -> int:
        """Genuine (non-padding) words streamed per inference."""
        return int(self.valid_words.sum())

    @property
    def nbytes(self) -> int:
        """Memory footprint of the packed bit tensor."""
        return int(self.bits.nbytes)

    def valid_mask(self) -> np.ndarray:
        """Boolean ``(num_blocks, words_per_block)`` mask of genuine words.

        The returned array is cached, shared and read-only; ``.copy()`` it
        for scratch use.
        """
        if self._valid_mask is None:
            word_index = np.arange(self.words_per_block, dtype=np.int64)
            self._valid_mask = _freeze(
                word_index[None, :] < self.valid_words[:, None])
        return self._valid_mask

    def region_blocks(self, region: int) -> np.ndarray:
        """Indices (in stream order) of the blocks written to ``region``."""
        return np.flatnonzero(self.regions == region)

    def region_indexers(self) -> Iterator[Tuple[slice, Union[np.ndarray, slice]]]:
        """Yield ``(row_slice, block indexer)`` for every memory region.

        The indexer selects a region's blocks (in stream order) out of any
        ``(num_blocks, ...)`` array.  For the round-robin region assignment
        the scheduler produces it is a stride (a view, no copy); arbitrary
        region maps fall back to fancy indexing.
        """
        depth = self.fifo_depth_tiles
        words = self.words_per_block
        round_robin = bool(np.array_equal(
            self.regions, np.arange(self.num_blocks, dtype=np.int64) % depth))
        for region in range(depth):
            row_slice = slice(region * words, (region + 1) * words)
            indexer = (slice(region, None, depth) if round_robin
                       else self.region_blocks(region))
            yield row_slice, indexer

    def rows_sum(self, array: np.ndarray,
                 weights: Optional[np.ndarray] = None,
                 max_value: Optional[int] = None) -> np.ndarray:
        """Reduce a per-block ``(B, W[, n])`` array into per-memory-row totals.

        ``max_value`` bounds the entries of ``array`` and unlocks the narrow
        SIMD accumulator in :func:`block_axis_sum`; leave it ``None`` when
        the range is unknown.  The totals take the widest region accumulator.
        """
        out = np.zeros((self.geometry.rows,) + array.shape[2:], dtype=np.uint8)
        for row_slice, indexer in self.region_indexers():
            view = array[indexer]
            if view.shape[0]:
                region_sum = block_axis_sum(
                    view, None if weights is None else weights[indexer],
                    max_value=max_value)
                out = out.astype(np.result_type(out, region_sum), copy=False)
                out[row_slice] = region_sum
        return out

    def rows_ones(self) -> np.ndarray:
        """Per-cell integer count of '1' bits written in one inference (cached).

        Policy-independent, so every kernel evaluating the same stream —
        a policy suite, a sweep batch — shares one reduction pass.  The
        returned array is read-only; ``.copy()`` it for scratch use.
        """
        if self._rows_ones is None:
            self._rows_ones = _freeze(self.rows_sum(self.bits, max_value=1))
        return self._rows_ones

    def rows_writes(self) -> np.ndarray:
        """Per-row count of genuine writes in one inference (cached,
        read-only; integers in the dtype of :meth:`rows_ones`)."""
        if self._rows_writes is None:
            self._rows_writes = _freeze(self.rows_sum(self.valid_mask()))
        return self._rows_writes

    def word_popcounts(self) -> np.ndarray:
        """``uint8`` ``(num_blocks, words_per_block)`` count of '1' bits per
        word (cached, read-only; padding words count 0).

        An 8-bit word's bit-bytes (each 0 or 1) are one ``uint64`` whose
        popcount is their sum; wider words, or a numpy without
        ``bitwise_count``, sum along the bit axis.
        """
        if self._word_popcounts is None:
            if self.word_bits == 8 and hasattr(np, "bitwise_count"):
                counts = np.bitwise_count(self.bits.view(np.uint64))[..., 0]
            else:
                counts = self.bits.sum(axis=-1, dtype=np.uint8)
            self._word_popcounts = _freeze(counts)
        return self._word_popcounts

    def derived(self, key: Hashable, build: Callable[[], Any]) -> Any:
        """``build()``, computed on the first call for ``key`` and kept for
        as long as the stream lives.

        For values that depend only on the stream and ``key`` (the
        simulators' deterministic policy kernels), so every consumer of the
        stream shares one.
        """
        if key not in self._derived:
            self._derived[key] = build()
        return self._derived[key]
