"""Shared utilities for the DNN-Life reproduction.

This package contains small, dependency-free helpers used across the rest of
the library: deterministic random-number handling, argument validation,
ASCII table / histogram rendering for experiment reports, unit conversions and
light-weight serialization of experiment results, plus the count of CPUs
the process may run on.
"""

from repro.utils.host import host_cpus
from repro.utils.rng import RngMixin, as_rng, spawn_rngs
from repro.utils.tables import AsciiTable, format_histogram, format_series
from repro.utils.units import (
    KB,
    MB,
    GB,
    bits_to_bytes,
    bytes_to_bits,
    format_bytes,
    format_energy,
    format_power,
    format_time,
)
from repro.utils.validation import (
    check_in_range,
    check_positive,
    check_probability,
    check_power_of_two,
)

__all__ = [
    "host_cpus",
    "RngMixin",
    "as_rng",
    "spawn_rngs",
    "AsciiTable",
    "format_histogram",
    "format_series",
    "KB",
    "MB",
    "GB",
    "bits_to_bytes",
    "bytes_to_bits",
    "format_bytes",
    "format_energy",
    "format_power",
    "format_time",
    "check_in_range",
    "check_positive",
    "check_probability",
    "check_power_of_two",
]
