"""Tests for repro.accelerator (configs, dataflow, scheduler, PE array)."""

import numpy as np
import pytest

from repro.accelerator.baseline import BaselineAccelerator
from repro.accelerator.config import TABLE_I_CONFIGS, baseline_config, tpu_like_config
from repro.accelerator.dataflow import (
    count_layer_blocks,
    extract_block_weights,
    iter_block_slices,
    iter_filter_sets,
    iter_layer_blocks,
    layer_filter_shape,
    select_tile_shape,
    validate_block_coverage,
)
from repro.accelerator.pe_array import AccumulationUnit, PeArray, ProcessingElement
from repro.accelerator.scheduler import WeightStreamScheduler
from repro.accelerator.tpu import TpuLikeNpu
from repro.utils.units import KB, MB


class TestTableIConfigs:
    def test_baseline_matches_table1(self):
        config = baseline_config()
        assert config.weight_memory_bytes == 512 * KB
        assert config.activation_memory_bytes == 4 * MB
        assert config.num_pes == 8
        assert config.multipliers_per_pe == 8
        assert config.parallel_filters == 8

    def test_tpu_matches_table1(self):
        config = tpu_like_config()
        assert config.weight_memory_bytes == 256 * KB
        assert config.activation_memory_bytes == 24 * MB
        assert config.parallel_filters == 256
        assert config.macs_per_cycle == 256 * 256
        assert config.weight_fifo_depth_tiles == 4

    def test_tpu_tile_holds_full_mac_array_weights(self):
        config = tpu_like_config()
        assert config.weights_per_tile(8) == 256 * 256

    def test_registry(self):
        assert set(TABLE_I_CONFIGS) == {"baseline", "tpu_like_npu"}

    def test_geometry_derivation(self):
        geometry = baseline_config().weight_memory_geometry(32)
        assert geometry.rows == 131072

    def test_invalid_config_rejected(self):
        from repro.accelerator.config import AcceleratorConfig

        with pytest.raises(ValueError):
            AcceleratorConfig(name="bad", weight_memory_bytes=0,
                              activation_memory_bytes=1, num_pes=1, multipliers_per_pe=1)


class TestDataflow:
    def test_filter_sets_cover_all_filters(self):
        sets = list(iter_filter_sets(20, 8))
        assert [s.size for s in sets] == [8, 8, 4]
        covered = [i for s in sets for i in s.filter_indices]
        assert covered == list(range(20))

    def test_tile_shape_full_spatial(self):
        tile = select_tile_shape((16, 5, 5), capacity_per_filter=100)
        assert (tile.rows, tile.cols) == (5, 5)
        assert tile.channels == 4
        assert tile.weights_per_filter <= 100

    def test_tile_shape_splits_rows_when_needed(self):
        tile = select_tile_shape((16, 5, 5), capacity_per_filter=12)
        assert tile.channels == 1 and tile.cols == 5 and tile.rows == 2

    def test_tile_shape_splits_cols_last_resort(self):
        tile = select_tile_shape((16, 5, 5), capacity_per_filter=3)
        assert (tile.channels, tile.rows, tile.cols) == (1, 1, 3)

    def test_layer_filter_shape(self, tiny_network):
        assert layer_filter_shape(tiny_network.layer("conv2")) == (4, 3, 3)
        assert layer_filter_shape(tiny_network.layer("fc1")) == (968, 1, 1)

    def test_block_slices_cover_every_weight_exactly_once(self, tiny_network):
        for layer in tiny_network.weight_layers():
            blocks = list(iter_block_slices(layer, parallel_filters=4, block_capacity_words=256))
            validate_block_coverage(layer, blocks)

    def test_block_sizes_respect_capacity(self, tiny_network):
        for layer in tiny_network.weight_layers():
            for block in iter_block_slices(layer, 4, 256):
                assert block.total_weights <= 256

    def test_extract_block_weights_values(self, tiny_network):
        layer = tiny_network.layer("conv1")
        blocks = list(iter_block_slices(layer, 4, 256))
        extracted = extract_block_weights(layer, blocks[0])
        assert extracted.size == blocks[0].total_weights
        # First block contains the leading filters' full kernels.
        assert np.allclose(extracted[:9], np.asarray(layer.weights)[0].reshape(-1))

    def test_iter_layer_blocks_total_weights(self, tiny_network):
        layer = tiny_network.layer("fc1")
        total = sum(block.size for block in iter_layer_blocks(layer, 4, 256))
        assert total == layer.weight_count

    def test_count_layer_blocks(self, tiny_network):
        layer = tiny_network.layer("conv2")
        assert count_layer_blocks(layer, 4, 256) == len(list(iter_block_slices(layer, 4, 256)))

    def test_capacity_too_small_rejected(self, tiny_network):
        with pytest.raises(ValueError):
            list(iter_block_slices(tiny_network.layer("conv1"), parallel_filters=4,
                                   block_capacity_words=2))


class TestScheduler:
    def test_num_blocks_matches_weight_count(self, tiny_scheduler, tiny_network):
        expected = int(np.ceil(tiny_network.weight_count / tiny_scheduler.words_per_block))
        assert tiny_scheduler.num_blocks == expected

    def test_blocks_are_memory_sized(self, tiny_scheduler):
        blocks = list(tiny_scheduler.iter_blocks())
        assert len(blocks) == tiny_scheduler.num_blocks
        assert all(block.num_words == tiny_scheduler.words_per_block for block in blocks)

    def test_block_indices_sequential(self, tiny_scheduler):
        indices = [block.index for block in tiny_scheduler.iter_blocks()]
        assert indices == list(range(tiny_scheduler.num_blocks))

    def test_words_fit_format(self, tiny_scheduler):
        for block in tiny_scheduler.iter_blocks():
            assert int(block.words.max()) < 2 ** tiny_scheduler.geometry.word_bits

    def test_stream_preserves_all_weight_words(self, tiny_network, tiny_accelerator):
        # The multiset of streamed (non-padding) words equals the multiset of
        # quantized network weights.
        scheduler = tiny_accelerator.build_scheduler(tiny_network, "int8_symmetric")
        streamed = np.concatenate([block.words for block in scheduler.iter_blocks()])
        padding = scheduler.num_blocks * scheduler.words_per_block - tiny_network.weight_count
        from repro.quantization.formats import get_format

        expected_counts = np.zeros(256, dtype=np.int64)
        for layer in tiny_network.weight_layers():
            words = get_format("int8_symmetric").to_words(np.asarray(layer.weights))
            expected_counts += np.bincount(words.astype(np.int64), minlength=256)
        expected_counts[0] += padding
        assert np.array_equal(np.bincount(streamed.astype(np.int64), minlength=256),
                              expected_counts)

    def test_fifo_regions_round_robin(self, tiny_fifo_scheduler):
        regions = [block.region for block in tiny_fifo_scheduler.iter_blocks()]
        assert regions == [i % 4 for i in range(len(regions))]

    def test_fp32_and_int8_block_counts_differ(self, tiny_scheduler, tiny_fp32_scheduler):
        assert tiny_fp32_scheduler.num_blocks == 4 * tiny_scheduler.num_blocks

    def test_format_word_width_must_match_geometry(self, tiny_network, tiny_accelerator):
        geometry = tiny_accelerator.weight_memory_geometry("float32")
        with pytest.raises(ValueError):
            WeightStreamScheduler(tiny_network, "int8_symmetric", geometry, parallel_filters=4)

    def test_describe(self, tiny_scheduler):
        description = tiny_scheduler.describe()
        assert description["num_blocks_per_inference"] == tiny_scheduler.num_blocks
        assert description["data_format"] == "int8_symmetric"

    def test_blocks_per_region_sums_to_num_blocks(self, tiny_fifo_scheduler):
        assert tiny_fifo_scheduler.blocks_per_region.sum() == tiny_fifo_scheduler.num_blocks


class TestAccelerators:
    def test_baseline_scheduler_word_width(self, mnist_network):
        accelerator = BaselineAccelerator()
        scheduler = accelerator.build_scheduler(mnist_network, "float32")
        assert scheduler.geometry.word_bits == 32
        assert scheduler.parallel_filters == 8

    def test_tpu_scheduler_uses_fifo(self, mnist_network):
        accelerator = TpuLikeNpu()
        scheduler = accelerator.build_scheduler(mnist_network, "int8_symmetric")
        assert scheduler.fifo_depth_tiles == 4
        assert scheduler.words_per_block == 65536
        assert scheduler.num_blocks == 4

    def test_describe_round_trip(self):
        assert BaselineAccelerator().describe()["name"] == "baseline"
        assert TpuLikeNpu().describe()["name"] == "tpu_like_npu"

    def test_energy_model_access(self):
        model = BaselineAccelerator().weight_memory_energy_model("int8_symmetric")
        assert model.word_bits == 8


class TestPeArray:
    def test_processing_element_dot_product(self, rng):
        pe = ProcessingElement(num_multipliers=8)
        activations = rng.normal(size=8)
        weights = rng.normal(size=8)
        assert pe.multiply_accumulate(activations, weights) == pytest.approx(
            float(np.dot(activations, weights)))

    def test_processing_element_rejects_oversize(self, rng):
        with pytest.raises(ValueError):
            ProcessingElement(4).multiply_accumulate(rng.normal(size=8), rng.normal(size=8))

    def test_adder_tree_depth(self):
        assert ProcessingElement(8).adder_tree_depth == 3

    def test_accumulation_unit(self):
        unit = AccumulationUnit(num_lanes=4)
        unit.accumulate(np.ones(4))
        unit.accumulate(np.ones(4) * 2)
        assert np.allclose(unit.flush(), 3.0)
        assert np.allclose(unit.partial_sums, 0.0)

    def test_pe_array_matches_matrix_product(self, rng):
        array = PeArray(num_pes=4, multipliers_per_pe=8)
        activations = rng.normal(size=20)
        weights = rng.normal(size=(4, 20))
        outputs = array.compute_dot_products(activations, weights)
        assert np.allclose(outputs, weights @ activations)
        assert array.cycles == array.cycles_for_dot_product(20)

    def test_cycles_for_dot_product(self):
        array = PeArray(num_pes=2, multipliers_per_pe=8)
        assert array.cycles_for_dot_product(16) == 2
        assert array.cycles_for_dot_product(17) == 3

    def test_baseline_matches_table1_peak_rate(self):
        config = baseline_config()
        array = PeArray(config.num_pes, config.multipliers_per_pe)
        assert array.num_pes * array.multipliers_per_pe == config.macs_per_cycle
