"""Tests for the packed bit-tensor weight-stream representation."""

import numpy as np
import pytest

from repro.accelerator.scheduler import (
    PackedBitTensor,
    WeightStreamScheduler,
    as_stride_indexer,
    block_axis_sum,
)
from repro.core.policies import make_policy
from repro.core.simulation import AgingSimulator
from repro.quantization.bitops import unpack_bits


class TestPackedBitTensor:
    def test_matches_per_block_unpacking(self, tiny_scheduler):
        packed = PackedBitTensor.from_stream(tiny_scheduler)
        blocks = list(tiny_scheduler.iter_blocks())
        assert packed.num_blocks == len(blocks)
        assert packed.bits.shape == (len(blocks), tiny_scheduler.words_per_block,
                                     tiny_scheduler.geometry.word_bits)
        assert packed.bits.dtype == np.uint8
        for index, block in enumerate(blocks):
            expected = unpack_bits(block.words, tiny_scheduler.geometry.word_bits)
            assert np.array_equal(packed.bits[index], expected)
            assert packed.regions[index] == block.region
            assert packed.valid_words[index] == block.num_words

    def test_word_offsets_are_cumulative(self, tiny_scheduler):
        packed = PackedBitTensor.from_stream(tiny_scheduler)
        assert packed.word_offsets[0] == 0
        assert np.array_equal(np.diff(packed.word_offsets),
                              packed.valid_words[:-1])
        assert packed.total_words == int(packed.valid_words.sum())

    def test_unpadded_final_block(self, tiny_network, tiny_scheduler):
        scheduler = WeightStreamScheduler(
            tiny_network, "int8_symmetric", tiny_scheduler.geometry,
            tiny_scheduler.parallel_filters, pad_final_block=False)
        packed = PackedBitTensor.from_stream(scheduler)
        final = packed.num_blocks - 1
        assert packed.valid_words[final] < packed.words_per_block
        # the padding bits are zero and masked out of the valid map
        mask = packed.valid_mask()
        assert not mask[final, packed.valid_words[final]:].any()
        assert not packed.bits[final, packed.valid_words[final]:].any()
        assert mask[:final].all()

    def test_fifo_regions(self, tiny_fifo_scheduler):
        packed = PackedBitTensor.from_stream(tiny_fifo_scheduler)
        assert packed.fifo_depth_tiles == 4
        expected = np.arange(packed.num_blocks) % 4
        assert np.array_equal(packed.regions, expected)
        for region in range(4):
            assert np.array_equal(packed.region_blocks(region),
                                  np.flatnonzero(expected == region))

    def test_simulator_reuses_a_packed_streams_tensor(self, tiny_scheduler,
                                                      pack_calls):
        packed = PackedBitTensor.from_stream(tiny_scheduler)
        assert packed.packed_bits() is packed
        calls = pack_calls()
        policy = make_policy("none", 8)
        simulator = AgingSimulator(packed, policy, num_inferences=2)
        simulator.run()
        assert simulator._packed() is packed
        assert calls == []  # no re-pack
        # a bare scheduler gets packed on the fly, once per simulator
        fresh = AgingSimulator(tiny_scheduler, policy, num_inferences=2)
        assert fresh._packed() is fresh._packed()
        assert calls == [tiny_scheduler]
        assert np.array_equal(fresh._packed().bits, packed.bits)

    def test_rows_sums_are_cached_and_exact(self, tiny_fifo_scheduler):
        packed = PackedBitTensor.from_stream(tiny_fifo_scheduler)
        ones = packed.rows_ones()
        assert packed.rows_ones() is ones
        rows = tiny_fifo_scheduler.geometry.rows
        words = packed.words_per_block
        expected = np.zeros((rows, packed.word_bits))
        counts = np.zeros(rows)
        for index in range(packed.num_blocks):
            start = packed.regions[index] * words
            expected[start:start + words] += packed.bits[index]
            counts[start:start + words] += packed.valid_mask()[index]
        assert np.array_equal(ones, expected)
        assert np.array_equal(packed.rows_writes(), counts)


def _unpadded_scheduler(tiny_network, tiny_scheduler):
    return WeightStreamScheduler(
        tiny_network, "int8_symmetric", tiny_scheduler.geometry,
        tiny_scheduler.parallel_filters, pad_final_block=False)


class TestStreamSurface:
    """A packed stream replays exactly the blocks it was packed from, so the
    explicit oracle may run on it in place of the scheduler."""

    @pytest.mark.parametrize("which", ["padded", "unpadded", "fifo4"])
    def test_iter_blocks_replays_the_scheduler(self, which, tiny_network,
                                               tiny_scheduler,
                                               tiny_fifo_scheduler):
        scheduler = {"padded": tiny_scheduler,
                     "unpadded": _unpadded_scheduler(tiny_network, tiny_scheduler),
                     "fifo4": tiny_fifo_scheduler}[which]
        expected = list(scheduler.iter_blocks())
        packed = PackedBitTensor.from_stream(scheduler)
        replayed = list(packed.iter_blocks())
        assert len(replayed) == len(expected) == scheduler.num_blocks
        for built, block in zip(expected, replayed):
            assert block.index == built.index
            assert block.region == built.region
            assert block.words.dtype == built.words.dtype
            assert np.array_equal(block.words, built.words)
        # the stream replays any number of times
        assert sum(1 for _ in packed.iter_blocks()) == packed.num_blocks

    def test_describe_is_recorded_from_the_scheduler(self, tiny_fifo_scheduler):
        packed = PackedBitTensor.from_stream(tiny_fifo_scheduler)
        assert packed.describe() == tiny_fifo_scheduler.describe()
        # a returned description is a copy, not the recorded dict
        packed.describe()["network"] = "changed"
        assert packed.describe() == tiny_fifo_scheduler.describe()

    def test_describe_falls_back_to_the_geometry(self, tiny_scheduler):
        built = PackedBitTensor.from_stream(tiny_scheduler)
        bare = PackedBitTensor(built.bits, built.regions, built.valid_words,
                               built.geometry, built.fifo_depth_tiles)
        assert bare.describe() == {
            "word_bits": 8,
            "memory_capacity_bytes": built.geometry.capacity_bytes,
            "memory_rows": built.geometry.rows,
            "words_per_block": built.words_per_block,
            "fifo_depth_tiles": 1,
            "num_blocks_per_inference": built.num_blocks,
        }


class TestReductionHelpers:
    def test_block_axis_sum_matches_numpy(self, rng):
        array = rng.integers(0, 2, size=(7, 33, 9), dtype=np.uint8)
        assert np.array_equal(block_axis_sum(array),
                              array.sum(axis=0, dtype=np.float64))

    def test_block_axis_sum_weighted(self, rng):
        array = rng.integers(0, 2, size=(5, 17, 6), dtype=np.uint8)
        weights = rng.integers(0, 100, size=(5, 17))
        expected = np.einsum("bwn,bw->wn", array.astype(np.float64),
                             weights.astype(np.float64))
        assert np.array_equal(block_axis_sum(array, weights), expected)
        # float weights take the einsum path and agree
        assert np.allclose(block_axis_sum(array, weights.astype(np.float64)),
                           expected)

    def test_block_axis_sum_uint16_needs_declared_bound(self, rng):
        """Non-binary uint8 data must not take the uint16 fast path blindly:
        1000 blocks of value 100 would wrap mod 65536."""
        array = np.full((1000, 4), 100, dtype=np.uint8)
        assert np.array_equal(block_axis_sum(array), np.full(4, 100_000.0))
        assert np.array_equal(block_axis_sum(array, max_value=100),
                              np.full(4, 100_000.0))

    def test_block_axis_sum_weighted_respects_value_bound(self, rng):
        # values up to 100 with unit weights over 1000 blocks exceed the
        # uint16 budget; the reduction must stay exact regardless
        view = np.full((1000, 3, 2), 1, dtype=np.uint8)
        weights = np.full((1000, 3), 100, dtype=np.int64)
        assert np.array_equal(block_axis_sum(view, weights, max_value=1),
                              np.full((3, 2), 100_000.0))

    def test_block_axis_sum_weighted_2d(self, rng):
        array = rng.integers(0, 50, size=(4, 21)).astype(np.float64)
        weights = rng.integers(0, 3, size=(4, 21)).astype(np.float64)
        assert np.array_equal(block_axis_sum(array, weights),
                              (array * weights).sum(axis=0))

    def test_as_stride_indexer(self):
        array = np.arange(40).reshape(20, 2)
        for indices in ([0], [3, 7, 11], [2, 3, 4], [1, 5, 6]):
            indexer = as_stride_indexer(np.asarray(indices))
            assert np.array_equal(array[indexer], array[np.asarray(indices)])
        assert isinstance(as_stride_indexer(np.asarray([3, 7, 11])), slice)
        assert not isinstance(as_stride_indexer(np.asarray([1, 5, 6])), slice)
        assert as_stride_indexer(np.asarray([], dtype=np.int64)).size == 0


class TestFromStreamValidation:
    def test_block_count_must_match_declaration(self, tiny_scheduler):
        class LyingStream:
            geometry = tiny_scheduler.geometry
            words_per_block = tiny_scheduler.words_per_block
            fifo_depth_tiles = 1
            num_blocks = tiny_scheduler.num_blocks + 3

            def iter_blocks(self):
                return tiny_scheduler.iter_blocks()

        with pytest.raises(ValueError, match="declared"):
            PackedBitTensor.from_stream(LyingStream())

    def test_oversized_block_rejected(self, tiny_scheduler):
        from repro.accelerator.scheduler import WeightBlock

        class OversizedStream:
            geometry = tiny_scheduler.geometry
            words_per_block = 4
            fifo_depth_tiles = 1
            num_blocks = 1

            def iter_blocks(self):
                yield WeightBlock(index=0, words=np.zeros(9, dtype=np.uint64))

        with pytest.raises(ValueError, match="at most"):
            PackedBitTensor.from_stream(OversizedStream())


class TestReadOnlySharedBuffers:
    """The cached packed buffers are frozen: mutation raises, it never lands.

    This is the runtime half of lint rule DL004 — the tensors are shared
    across policy evaluations (and, with stream affinity, across sweep
    jobs), so an in-place write must fail at the write site.
    """

    def test_packed_arrays_are_read_only(self, tiny_scheduler):
        packed = PackedBitTensor.from_stream(tiny_scheduler)
        for array in (packed.bits, packed.regions, packed.valid_words,
                      packed.word_offsets):
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0

    def test_cached_reductions_are_read_only(self, tiny_scheduler):
        packed = PackedBitTensor.from_stream(tiny_scheduler)
        for array in (packed.rows_ones(), packed.rows_writes(),
                      packed.valid_mask()):
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0

    def test_in_place_operator_raises(self, tiny_scheduler):
        packed = PackedBitTensor.from_stream(tiny_scheduler)
        ones = packed.rows_ones()
        with pytest.raises(ValueError, match="read-only"):
            ones += 1.0
        # the shared tensor is untouched by the failed attempt
        assert np.array_equal(ones, packed.rows_ones())

    def test_replayed_block_words_are_read_only(self, tiny_scheduler):
        stream = PackedBitTensor.from_stream(tiny_scheduler)
        block = next(iter(stream.iter_blocks()))
        assert not block.words.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            block.words[0] = 0

    def test_copies_stay_writable(self, tiny_scheduler):
        packed = PackedBitTensor.from_stream(tiny_scheduler)
        scratch = packed.rows_ones().copy()
        scratch += 1  # the sanctioned pattern: mutate a private copy
        assert scratch.flags.writeable
