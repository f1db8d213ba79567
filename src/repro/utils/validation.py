"""Argument-validation helpers with consistent error messages.

The numeric checks are written as negated comparisons (``not value > 0``
instead of ``value <= 0``) on purpose: NaN fails every ordering comparison,
so a NaN input is *rejected* rather than slipping through and propagating
into results.

``check_positive``, ``check_positive_finite`` and
``check_temperature_celsius`` also accept arrays (one value per device of a
fleet, say) and then check every element.
"""

from __future__ import annotations

import math
from typing import Optional, TypeVar

import numpy as np

Checked = TypeVar("Checked", float, np.ndarray)


def _holds(condition: object) -> bool:
    """An elementwise ``condition`` reduced over every element (plain bools as is)."""
    return bool(np.all(condition)) if isinstance(condition, np.ndarray) else bool(condition)


def _first_failing(value: np.ndarray, valid: np.ndarray) -> float:
    """The first element of ``value`` that fails its check, for the message."""
    return float(value[~valid].flat[0])


def check_positive(value: Checked, name: str, strict: bool = True) -> Checked:
    """Validate that ``value`` is positive (strictly by default); NaN is rejected."""
    if strict and not _holds(value > 0):
        raise ValueError(f"{name} must be > 0, got {value}")
    if not strict and not _holds(value >= 0):
        raise ValueError(f"{name} must be >= 0, got {value}")
    return value


def check_positive_finite(value: Checked, name: str) -> Checked:
    """Validate that ``value`` is strictly positive *and* finite.

    The single source of the positive-and-finite rule physical quantities
    (supply voltage, clock frequency) share; NaN and infinities are rejected
    alongside non-positive values with one consistent message.  Scalars come
    back as ``float``, arrays as float64 arrays.
    """
    if isinstance(value, np.ndarray):
        values = value.astype(np.float64, copy=False)
        valid = np.isfinite(values) & (values > 0)
        if valid.all():
            return values
        value = _first_failing(values, valid)
    else:
        value = float(value)
        if math.isfinite(value) and value > 0:
            return value
    raise ValueError(f"{name} must be positive and finite, got {value!r}")


def check_probability(value: float, name: str) -> float:
    """Validate that ``value`` is a probability in [0, 1]."""
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be within [0, 1], got {value}")
    return float(value)


def check_in_range(value: float, name: str, low: Optional[float] = None,
                   high: Optional[float] = None, inclusive: bool = True) -> float:
    """Validate that ``value`` lies in the given (optionally open) interval."""
    if low is not None:
        if inclusive and value < low:
            raise ValueError(f"{name} must be >= {low}, got {value}")
        if not inclusive and value <= low:
            raise ValueError(f"{name} must be > {low}, got {value}")
    if high is not None:
        if inclusive and value > high:
            raise ValueError(f"{name} must be <= {high}, got {value}")
        if not inclusive and value >= high:
            raise ValueError(f"{name} must be < {high}, got {value}")
    return value


def check_power_of_two(value: int, name: str) -> int:
    """Validate that ``value`` is a positive power of two."""
    if value <= 0 or (value & (value - 1)) != 0:
        raise ValueError(f"{name} must be a positive power of two, got {value}")
    return value


def check_temperature_celsius(value: Checked,
                              name: str = "temperature") -> Checked:
    """Validate a finite physical temperature in degrees Celsius (> absolute zero)."""
    if isinstance(value, np.ndarray):
        values = value.astype(np.float64, copy=False)
        valid = np.isfinite(values) & (values > -273.15)
        if valid.all():
            return values
        value = _first_failing(values, valid)
    elif math.isfinite(value) and value > -273.15:
        return float(value)
    raise ValueError(f"{name} must be a finite value above absolute zero "
                     f"(-273.15C), got {value}")


def check_positive_int(value: int, name: str) -> int:
    """Validate that ``value`` is a positive integer."""
    if not isinstance(value, (int,)) or isinstance(value, bool):
        raise TypeError(f"{name} must be an int, got {type(value).__name__}")
    if value <= 0:
        raise ValueError(f"{name} must be > 0, got {value}")
    return value
