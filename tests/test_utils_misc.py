"""Tests for repro.utils.{validation, units, tables, serialization, host}."""

import os

import numpy as np
import pytest

from repro.utils.host import host_cpus
from repro.utils.serialization import load_json, save_json, to_jsonable
from repro.utils.tables import AsciiTable, format_histogram, format_series
from repro.utils.units import (
    KB,
    MB,
    bits_to_bytes,
    bytes_to_bits,
    format_bytes,
    format_energy,
    format_power,
    format_time,
    seconds_to_years,
    years_to_seconds,
)
from repro.utils.validation import (
    check_in_range,
    check_positive,
    check_positive_int,
    check_probability,
    check_power_of_two,
)


class TestValidation:
    def test_check_positive_accepts(self):
        assert check_positive(3.5, "x") == 3.5

    def test_check_positive_rejects_zero_strict(self):
        with pytest.raises(ValueError):
            check_positive(0, "x")

    def test_check_positive_non_strict_accepts_zero(self):
        assert check_positive(0, "x", strict=False) == 0

    def test_check_probability_bounds(self):
        assert check_probability(0.0, "p") == 0.0
        assert check_probability(1.0, "p") == 1.0
        with pytest.raises(ValueError):
            check_probability(1.01, "p")

    def test_check_in_range_inclusive(self):
        assert check_in_range(5, "x", low=5, high=10) == 5
        with pytest.raises(ValueError):
            check_in_range(5, "x", low=5, inclusive=False)

    def test_check_power_of_two(self):
        assert check_power_of_two(8, "x") == 8
        with pytest.raises(ValueError):
            check_power_of_two(6, "x")

    def test_check_positive_int_type(self):
        with pytest.raises(TypeError):
            check_positive_int(2.0, "x")
        with pytest.raises(TypeError):
            check_positive_int(True, "x")
        with pytest.raises(ValueError):
            check_positive_int(0, "x")


class TestUnits:
    def test_bit_byte_roundtrip(self):
        assert bytes_to_bits(512) == 4096
        assert bits_to_bytes(4096) == 512
        assert bits_to_bytes(4097) == 513  # rounds up

    def test_format_bytes(self):
        assert format_bytes(512 * KB) == "512.0 KB"
        assert format_bytes(4 * MB) == "4.0 MB"
        assert format_bytes(12) == "12 B"

    def test_format_energy_prefixes(self):
        assert "pJ" in format_energy(5e-12)
        assert "nJ" in format_energy(3e-9)
        assert "J" in format_energy(2.0)

    def test_format_power_prefixes(self):
        assert "nW" in format_power(345e-9)
        assert "mW" in format_power(1e-3)

    def test_format_time_prefixes(self):
        assert "ps" in format_time(977e-12)
        assert "ns" in format_time(5e-9)

    def test_years_seconds_roundtrip(self):
        assert seconds_to_years(years_to_seconds(7.0)) == pytest.approx(7.0)


class TestAsciiTable:
    def test_renders_headers_and_rows(self):
        table = AsciiTable(["a", "b"], title="demo")
        table.add_row(["x", 1.23456])
        text = table.render()
        assert "demo" in text and "a" in text and "x" in text
        assert "1.235" in text  # default precision of 3

    def test_row_length_mismatch_rejected(self):
        table = AsciiTable(["a", "b"])
        with pytest.raises(ValueError):
            table.add_row([1])

    def test_add_rows(self):
        table = AsciiTable(["a"])
        table.add_rows([[1], [2], [3]])
        assert len(table.rows) == 3

    def test_format_histogram(self):
        text = format_histogram(["low", "high"], [25.0, 75.0], title="h")
        assert "25.00%" in text and "75.00%" in text and "h" in text

    def test_format_histogram_length_mismatch(self):
        with pytest.raises(ValueError):
            format_histogram(["a"], [1.0, 2.0])

    def test_format_series(self):
        text = format_series([0, 1], [0.5, 0.25], x_name="x", y_name="y")
        assert "0.5000" in text and "0.2500" in text


class TestSerialization:
    def test_to_jsonable_handles_numpy(self):
        payload = {"a": np.float64(1.5), "b": np.arange(3), "c": np.bool_(True)}
        converted = to_jsonable(payload)
        assert converted == {"a": 1.5, "b": [0, 1, 2], "c": True}

    def test_save_and_load_roundtrip(self, tmp_path):
        data = {"x": [1, 2, 3], "y": {"z": 4.5}}
        path = save_json(data, tmp_path / "out" / "result.json")
        assert path.exists()
        assert load_json(path) == data

    def test_dataclass_serialization(self, tmp_path):
        from dataclasses import dataclass

        @dataclass
        class Point:
            x: int
            y: float

        assert to_jsonable(Point(1, 2.5)) == {"x": 1, "y": 2.5}


class TestHostCpus:
    def test_counts_the_affinity_set(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 5, 9},
                            raising=False)
        assert host_cpus() == 3

    def test_falls_back_to_cpu_count_without_affinity_api(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        assert host_cpus() == 6
        monkeypatch.setattr(os, "cpu_count", lambda: None)  # undeterminable
        assert host_cpus() == 1
