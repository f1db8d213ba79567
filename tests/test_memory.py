"""Tests for repro.memory (geometry, cell, SRAM array, traces, energy)."""

import numpy as np
import pytest

from repro.memory.cell import SixTransistorCell
from repro.memory.energy import MemoryEnergyModel, dram_access_energy, sram_access_energy
from repro.memory.geometry import MemoryGeometry
from repro.memory.sram import SramArray
from repro.memory.trace import WriteRecord, WriteTrace
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


class TestSixTransistorCell:
    def test_duty_cycle_balanced(self):
        cell = SixTransistorCell()
        cell.write_and_hold(1, 5.0)
        cell.write_and_hold(0, 5.0)
        assert cell.duty_cycle == pytest.approx(0.5)
        assert cell.worst_case_stress_fraction == pytest.approx(0.5)

    def test_duty_cycle_all_ones(self):
        cell = SixTransistorCell()
        cell.write_and_hold(1, 10.0)
        assert cell.duty_cycle == 1.0
        assert cell.pmos1_stress_fraction == 1.0
        assert cell.pmos2_stress_fraction == 0.0

    def test_duty_cycle_undefined_before_hold(self):
        with pytest.raises(RuntimeError):
            _ = SixTransistorCell().duty_cycle

    def test_hold_requires_write(self):
        with pytest.raises(RuntimeError):
            SixTransistorCell().hold(1.0)

    def test_invalid_bit_rejected(self):
        with pytest.raises(ValueError):
            SixTransistorCell().write(2)

    def test_negative_duration_rejected(self):
        cell = SixTransistorCell()
        cell.write(1)
        with pytest.raises(ValueError):
            cell.hold(-1.0)

    def test_worst_case_stress_symmetric(self):
        cell = SixTransistorCell()
        cell.write_and_hold(1, 3.0)
        cell.write_and_hold(0, 7.0)
        assert cell.worst_case_stress_fraction == pytest.approx(0.7)


class TestSramArray:
    def test_write_block_and_duty(self, small_geometry):
        array = SramArray(small_geometry)
        ones = np.full(small_geometry.rows, 0xFF, dtype=np.uint64)
        zeros = np.zeros(small_geometry.rows, dtype=np.uint64)
        array.write_block(ones, residency=1.0)
        array.write_block(zeros, residency=1.0)
        array.finalize()
        assert np.allclose(array.duty_cycles(), 0.5)

    def test_unbalanced_residency(self, small_geometry):
        array = SramArray(small_geometry)
        array.write_block(np.full(small_geometry.rows, 0xFF, dtype=np.uint64), residency=3.0)
        array.write_block(np.zeros(small_geometry.rows, dtype=np.uint64), residency=1.0)
        array.finalize()
        assert np.allclose(array.duty_cycles(), 0.75)

    def test_partial_block_leaves_other_rows_unwritten(self, small_geometry):
        array = SramArray(small_geometry)
        array.write_block(np.full(8, 0xFF, dtype=np.uint64), residency=1.0)
        array.finalize()
        duty = array.duty_cycles()
        assert np.allclose(duty[:8], 1.0)
        # Unwritten rows held the initial zeros for the whole time.
        assert np.allclose(duty[8:], 0.0)

    def test_start_row_offsets(self, small_geometry):
        array = SramArray(small_geometry)
        array.write_block(np.full(8, 0xFF, dtype=np.uint64), residency=1.0, start_row=16)
        array.finalize()
        duty = array.duty_cycles()
        assert np.allclose(duty[16:24], 1.0)
        assert np.allclose(duty[:16], 0.0)

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
        """Duplicate rows would silently drop hold credits via fancy `+=`."""
        array = SramArray(small_geometry)
        with pytest.raises(ValueError):
            array.write_rows(np.array([3, 3]),
                             np.array([0x01, 0x02], dtype=np.uint64))

    def test_accumulate_block_interface(self, small_geometry):
        array = SramArray(small_geometry)
        shape = (small_geometry.rows, small_geometry.word_bits)
        array.accumulate_block(np.full(shape, 0.25), np.full(shape, 1.0))
        assert np.allclose(array.duty_cycles(), 0.25)

    def test_accumulate_block_validates(self, small_geometry):
        array = SramArray(small_geometry)
        shape = (small_geometry.rows, small_geometry.word_bits)
        with pytest.raises(ValueError):
            array.accumulate_block(np.full(shape, 2.0), np.full(shape, 1.0))

    def test_reset_history_keeps_content(self, small_geometry, rng):
        array = SramArray(small_geometry)
        words = rng.integers(0, 256, size=small_geometry.rows, dtype=np.uint64)
        array.write_block(words)
        array.reset_history()
        assert np.array_equal(array.read_rows(np.arange(small_geometry.rows)), words)
        assert np.all(np.isnan(array.duty_cycles()))

    def test_duty_default_fill(self, small_geometry):
        array = SramArray(small_geometry)
        assert np.allclose(array.duty_cycles(default=0.5), 0.5)


class TestWriteTrace:
    def test_replay_matches_direct_simulation(self, small_geometry, rng):
        words_a = rng.integers(0, 256, size=small_geometry.rows, dtype=np.uint64)
        words_b = rng.integers(0, 256, size=small_geometry.rows, dtype=np.uint64)
        trace = WriteTrace(word_bits=8)
        trace.append(WriteRecord(block_index=0, words=words_a))
        trace.append(WriteRecord(block_index=1, words=words_b))
        replayed = trace.replay(SramArray(small_geometry))

        direct = SramArray(small_geometry)
        direct.write_block(words_a)
        direct.write_block(words_b)
        direct.finalize()
        assert np.allclose(replayed.duty_cycles(), direct.duty_cycles())

    def test_word_width_mismatch_rejected(self, small_geometry):
        trace = WriteTrace(word_bits=16)
        with pytest.raises(ValueError):
            trace.replay(SramArray(small_geometry))

    def test_counts(self, rng):
        trace = WriteTrace(word_bits=8)
        trace.append(WriteRecord(block_index=0, words=rng.integers(0, 256, 10, dtype=np.uint64)))
        trace.append(WriteRecord(block_index=1, words=rng.integers(0, 256, 6, dtype=np.uint64)))
        assert len(trace) == 2
        assert trace.total_words_written == 16
        assert trace.total_bits_written == 128

    def test_save_load_roundtrip(self, tmp_path, rng):
        trace = WriteTrace(word_bits=8)
        trace.append(WriteRecord(block_index=0, residency=2.0, start_row=4,
                                 words=rng.integers(0, 256, 8, dtype=np.uint64),
                                 metadata=np.array([1, 0, 1, 0, 1, 0, 1, 0], dtype=np.uint8)))
        path = tmp_path / "trace.npz"
        trace.save(path)
        loaded = WriteTrace.load(path)
        assert len(loaded) == 1
        record = loaded.records[0]
        assert record.residency == 2.0
        assert record.start_row == 4
        assert np.array_equal(record.words, trace.records[0].words)
        assert np.array_equal(record.metadata, trace.records[0].metadata)

    def test_negative_residency_rejected(self):
        with pytest.raises(ValueError):
            WriteRecord(block_index=0, words=np.array([1]), residency=-1.0)

    def test_large_integer_fields_roundtrip_exactly(self, tmp_path):
        """int64 storage: values above 2**53 must survive save/load."""
        big = 2**53 + 1  # not representable in float64
        trace = WriteTrace(word_bits=8)
        trace.append(WriteRecord(block_index=big, start_row=big - 2,
                                 words=np.array([7], dtype=np.uint64)))
        path = tmp_path / "big.npz"
        trace.save(path)
        record = WriteTrace.load(path).records[0]
        assert record.block_index == big
        assert record.start_row == big - 2

    def test_legacy_float_info_layout_still_loads(self, tmp_path):
        """Traces written before the int64 layout keep loading."""
        path = tmp_path / "legacy.npz"
        np.savez_compressed(
            path,
            word_bits=np.asarray([8]),
            words_0=np.array([1, 2], dtype=np.uint64),
            meta_0=np.empty(0, dtype=np.uint8),
            info_0=np.asarray([5, 2.5, 3], dtype=np.float64),
        )
        record = WriteTrace.load(path).records[0]
        assert record.block_index == 5
        assert record.residency == 2.5
        assert record.start_row == 3

    def test_non_integer_fields_rejected(self):
        with pytest.raises(TypeError):
            WriteRecord(block_index=1.0, words=np.array([1]))
        with pytest.raises(TypeError):
            WriteRecord(block_index=0, start_row=2.5, words=np.array([1]))
        with pytest.raises(ValueError):
            WriteRecord(block_index=0, start_row=-1, words=np.array([1]))


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
