"""Tests for repro.memory (geometry, SRAM content store, energy)."""

import numpy as np
import pytest

from repro.memory.energy import MemoryEnergyModel, dram_access_energy, sram_access_energy
from repro.memory.geometry import MemoryGeometry
from repro.memory.sram import SramArray
from repro.utils.units import KB


class TestGeometry:
    def test_baseline_512kb_int8(self):
        geometry = MemoryGeometry(capacity_bytes=512 * KB, word_bits=8)
        assert geometry.rows == 524288
        assert geometry.num_cells == 4 * 1024 * 1024 * 1

    def test_baseline_512kb_float32(self):
        geometry = MemoryGeometry(capacity_bytes=512 * KB, word_bits=32)
        assert geometry.rows == 131072
        assert geometry.num_cells == 512 * KB * 8

    def test_blocks_for(self):
        geometry = MemoryGeometry(capacity_bytes=64, word_bits=8)
        assert geometry.blocks_for(64) == 1
        assert geometry.blocks_for(65) == 2
        assert geometry.blocks_for(640) == 10

    def test_non_divisible_capacity_rejected(self):
        with pytest.raises(ValueError):
            MemoryGeometry(capacity_bytes=3, word_bits=32)

    def test_str(self):
        assert "KB" in str(MemoryGeometry(capacity_bytes=2048, word_bits=8))


class TestSramArray:
    def test_partial_block_leaves_other_rows_unwritten(self, small_geometry):
        array = SramArray(small_geometry)
        array.write_block(np.full(8, 0xFF, dtype=np.uint64))
        stored = array.read_rows(np.arange(small_geometry.rows))
        assert np.all(stored[:8] == 0xFF)
        # Unwritten rows still hold the initial zeros.
        assert np.all(stored[8:] == 0)

    def test_start_row_offsets(self, small_geometry):
        array = SramArray(small_geometry)
        array.write_block(np.full(8, 0xFF, dtype=np.uint64), start_row=16)
        stored = array.read_rows(np.arange(small_geometry.rows))
        assert np.all(stored[16:24] == 0xFF)
        assert np.all(stored[:16] == 0)
        assert np.all(stored[24:] == 0)

    def test_block_too_large_rejected(self, small_geometry):
        array = SramArray(small_geometry)
        with pytest.raises(ValueError):
            array.write_block(np.zeros(small_geometry.rows + 1, dtype=np.uint64))

    def test_read_back_content(self, small_geometry, rng):
        array = SramArray(small_geometry)
        words = rng.integers(0, 256, size=small_geometry.rows, dtype=np.uint64)
        array.write_block(words)
        assert np.array_equal(array.read_rows(np.arange(small_geometry.rows)), words)

    def test_row_index_bounds_checked(self, small_geometry):
        array = SramArray(small_geometry)
        with pytest.raises(IndexError):
            array.write_rows(np.array([small_geometry.rows]), np.array([1]))

    def test_negative_row_index_rejected_not_wrapped(self, small_geometry):
        """Negative indices must raise instead of wrapping to the last rows."""
        array = SramArray(small_geometry)
        with pytest.raises(IndexError):
            array.write_rows(np.array([-1]), np.array([0xFF], dtype=np.uint64))
        with pytest.raises(IndexError):
            array.read_rows(np.array([-1]))
        with pytest.raises(IndexError):
            array.read_rows(np.array([small_geometry.rows]))

    def test_duplicate_rows_in_one_write_rejected(self, small_geometry):
        """Duplicate rows would silently keep only one write via fancy assignment."""
        array = SramArray(small_geometry)
        with pytest.raises(ValueError):
            array.write_rows(np.array([3, 3]),
                             np.array([0x01, 0x02], dtype=np.uint64))


class TestEnergyModel:
    def test_dram_much_more_expensive_than_sram(self):
        sram = sram_access_energy(32 * KB, 32)
        dram = dram_access_energy(32)
        assert dram / sram > 50  # Fig. 1b: two orders of magnitude

    def test_sram_energy_grows_with_capacity(self):
        assert sram_access_energy(512 * KB, 32) > sram_access_energy(32 * KB, 32)

    def test_sram_energy_scales_with_access_width(self):
        assert sram_access_energy(32 * KB, 64) == pytest.approx(
            2 * sram_access_energy(32 * KB, 32))

    def test_anchor_value(self):
        assert sram_access_energy(32 * KB, 32) == pytest.approx(5e-12)

    def test_memory_energy_model(self):
        model = MemoryEnergyModel(capacity_bytes=512 * KB, word_bits=8)
        assert model.write_energy > model.read_energy
        assert model.energy_ratio_vs_dram() > 10
        assert model.inference_write_energy(1000) == pytest.approx(model.write_energy * 1000)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            sram_access_energy(0, 32)
        with pytest.raises(ValueError):
            dram_access_energy(0)
