"""Effective-stress aggregation across lifetime phases.

The single-stream simulators characterise a memory by *one* duty-cycle per
cell, implicitly assuming the whole lifetime looks like the simulated stream
at one temperature.  A :class:`~repro.scenario.phases.LifetimeScenario`
breaks that assumption: each phase runs a different workload for a different
fraction of the lifetime at its own thermal corner.  This module provides the
aggregation that folds such a timeline back into the quantity every
:class:`~repro.aging.snm.SnmDegradationModel` consumes.

The composition rule follows from the long-term NBTI form used throughout
the repo, ``dVth = A * exp(-Ea/kT) * (duty * t) ** n``: a phase of ``y``
years at temperature ``T`` contributes the same damage as
``y * (arr(T) / arr(T_ref)) ** (1/n)`` years at the reference temperature
(:meth:`ArrheniusTimeScaling.time_factor`), because the Arrhenius prefactor
can be absorbed into the ``t ** n`` power.  Stress-time is therefore additive
in *reference-equivalent* years, and the whole timeline collapses to

* ``effective_years`` — the sum of every phase's equivalent years, and
* ``effective_duty``  — the equivalent-years-weighted mean of the per-phase
  duty-cycles (per cell),

which existing models evaluate unchanged via
``degradation_percent(effective_duty, effective_years)``.  The weighted mean
commutes with the complement (``1 - effective_duty`` aggregates the
complementary duties), so the two PMOS transistors of a 6T cell stay
consistent.  A single phase at the reference temperature degenerates to the
classic ``(duty, years)`` pair bit-for-bit — the weights are normalised
before the blend, so the one-phase blend multiplies by exactly ``1.0``.

**Voltage (DVFS) composition.**  The same absorption argument extends to the
supply voltage: long-term NBTI carries an exponential voltage-acceleration
prefactor, ``dVth = A * exp(gamma * V) * exp(-Ea/kT) * (duty * t) ** n``, so
a phase running at ``V`` contributes ``(exp(gamma * (V - V_ref))) ** (1/n)``
reference-equivalent years per wall-clock year on top of the thermal factor.
Both factors are exactly ``1.0`` at the reference corner, which keeps every
pre-DVFS scenario bit-identical.  Phases carry their voltage in
:attr:`PhaseStress.voltage_v`; callers that never set it get the reference
corner and the exact legacy weights.

**Device axis.**  A phase's years and corner may be ``(devices,)`` arrays
(devices sharing the phase's duty, e.g. a fleet cohort); the time factors
and the blend then gain a leading device axis whose row ``d`` is the
scalar result at device ``d``'s corner, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.aging.nbti import BOLTZMANN_EV
from repro.utils.validation import (
    check_positive,
    check_positive_finite,
    check_temperature_celsius,
)

#: Nominal worst-case operating corner the paper's anchors are stated at.
DEFAULT_REFERENCE_TEMPERATURE_C = 85.0

#: Nominal supply voltage the paper's anchors are stated at (volts).
DEFAULT_REFERENCE_VOLTAGE_V = 0.9

#: Nominal clock the epoch→wall-clock mapping is stated at (GHz).
DEFAULT_REFERENCE_FREQUENCY_GHZ = 1.0

#: Default NBTI voltage-acceleration exponent ``gamma`` (1/V): damage scales
#: as ``exp(gamma * (V - V_ref))`` before the ``t ** n`` absorption.
DEFAULT_VOLTAGE_ACCELERATION_PER_V = 6.0

__all__ = [
    "ArrheniusTimeScaling",
    "PhaseStress",
    "StressTimeline",
    "DEFAULT_REFERENCE_TEMPERATURE_C",
    "DEFAULT_REFERENCE_VOLTAGE_V",
    "DEFAULT_REFERENCE_FREQUENCY_GHZ",
    "DEFAULT_VOLTAGE_ACCELERATION_PER_V",
    "DEVICE_TILE_ELEMENTS",
    "aggregate_stress",
    "scaling_for_model",
]


#: A per-phase scalar, or one value per device along a leading device axis.
DeviceScalar = Union[float, np.ndarray]

#: Device-cells per tile of the device-axis evaluations (the stress blend
#: here, the idle retention probabilities of
#: :class:`~repro.scenario.operating_point.RetentionModel`): one float64
#: temporary of a tile holds 512 KB, so a tile's few live temporaries stay
#: in a core's L2 cache however large the (devices x cells) grid is.
DEVICE_TILE_ELEMENTS = 1 << 16


def _celsius_to_kelvin(temperature_c: DeviceScalar) -> DeviceScalar:
    return check_temperature_celsius(temperature_c) + 273.15


def _scalar_or_array(value: np.ndarray) -> DeviceScalar:
    """0-d results as ``float``, arrays as they are."""
    return float(value) if np.ndim(value) == 0 else value


@dataclass(frozen=True)
class ArrheniusTimeScaling:
    """Maps phase time at temperature ``T`` to reference-equivalent time.

    ``time_factor(T, V)`` is the factor by which a year at ``(T, V)`` counts
    towards the ``t ** n`` damage power relative to a year at the reference
    corner: ``(arr(T) / arr(T_ref)) ** (1 / n)`` with ``arr(T) = exp(-Ea /
    kT)``, times the voltage acceleration ``exp(gamma * (V - V_ref)) ** (1 /
    n)``.  Each factor is exactly ``1.0`` at its reference value (pinned by
    ``np.where``, not merely a computation that lands close), which is what
    keeps single-phase and pre-DVFS scenarios bit-identical to the classic
    single-stream accounting.

    Both factors broadcast over arrays of corners (the fleet's device axis).
    The ``1 / n`` powers go through ``np.float_power``, which evaluates
    element by element with the C library ``pow``, so entry ``d`` of an
    array call equals the scalar call at corner ``d`` bit for bit.
    """

    activation_energy_ev: float = 0.1
    time_exponent: float = 1.0 / 6.0
    reference_temperature_c: float = DEFAULT_REFERENCE_TEMPERATURE_C
    voltage_acceleration_per_v: float = DEFAULT_VOLTAGE_ACCELERATION_PER_V
    reference_voltage_v: float = DEFAULT_REFERENCE_VOLTAGE_V

    def __post_init__(self) -> None:
        check_positive(self.time_exponent, "time_exponent")
        _celsius_to_kelvin(self.reference_temperature_c)
        check_positive(self.reference_voltage_v, "reference_voltage_v")
        if not np.isfinite(self.voltage_acceleration_per_v):
            raise ValueError("voltage_acceleration_per_v must be finite")

    def _arrhenius(self, temperature_c: DeviceScalar) -> DeviceScalar:
        return np.exp(-self.activation_energy_ev
                      / (BOLTZMANN_EV * _celsius_to_kelvin(temperature_c)))

    def voltage_factor(self, voltage_v: DeviceScalar) -> DeviceScalar:
        """Reference-equivalent years per year at supply ``voltage_v``."""
        voltage = check_positive_finite(voltage_v, "voltage")
        acceleration = np.exp(self.voltage_acceleration_per_v
                              * (voltage - self.reference_voltage_v))
        return _scalar_or_array(np.where(
            voltage == self.reference_voltage_v, 1.0,
            np.float_power(acceleration, 1.0 / self.time_exponent)))

    def time_factor(self, temperature_c: DeviceScalar,
                    voltage_v: Optional[DeviceScalar] = None) -> DeviceScalar:
        """Reference-equivalent years contributed by one year at the corner.

        ``voltage_v=None`` contributes no voltage term at all, so legacy
        thermal-only callers get bitwise-unchanged factors.
        """
        ratio = (self._arrhenius(temperature_c)
                 / self._arrhenius(self.reference_temperature_c))
        factor = np.where(temperature_c == self.reference_temperature_c, 1.0,
                          np.float_power(ratio, 1.0 / self.time_exponent))
        if voltage_v is not None:
            factor = factor * self.voltage_factor(voltage_v)
        return _scalar_or_array(factor)

    def describe(self) -> dict:
        """Machine-readable description (serialised into scenario payloads)."""
        return {
            "activation_energy_ev": self.activation_energy_ev,
            "time_exponent": self.time_exponent,
            "reference_temperature_c": self.reference_temperature_c,
            "voltage_acceleration_per_v": self.voltage_acceleration_per_v,
            "reference_voltage_v": self.reference_voltage_v,
        }


@dataclass
class PhaseStress:
    """Per-cell stress contribution of one lifetime phase.

    ``duty`` is the per-cell duty-cycle the phase's workload produced (any
    shape), ``years`` its wall-clock share of the lifetime,
    ``temperature_c`` the thermal corner it ran at and ``voltage_v`` its
    supply voltage (the reference voltage unless the phase names a DVFS
    operating point).  ``years``, ``temperature_c`` and ``voltage_v`` may
    instead be ``(devices,)`` arrays: one phase of a fleet cohort, whose
    devices share the duty but not the corner.
    """

    duty: np.ndarray
    years: DeviceScalar
    temperature_c: DeviceScalar = DEFAULT_REFERENCE_TEMPERATURE_C
    #: Free-form label carried into reports ("phase 2: alexnet/int8").
    label: str = ""
    voltage_v: DeviceScalar = DEFAULT_REFERENCE_VOLTAGE_V

    def __post_init__(self) -> None:
        self.duty = np.asarray(self.duty, dtype=np.float64)
        check_positive(self.years, "years")
        _celsius_to_kelvin(self.temperature_c)
        check_positive_finite(self.voltage_v, "voltage_v")


def aggregate_stress(phases: Sequence[PhaseStress],
                     scaling: Optional[ArrheniusTimeScaling] = None
                     ) -> Tuple[np.ndarray, DeviceScalar]:
    """Collapse per-phase ``(duty, years, temperature)`` stress into one pair.

    Returns ``(effective_duty, effective_years)`` such that
    ``model.degradation_percent(effective_duty, effective_years)`` is the
    degradation accumulated over the whole timeline, for any model of the
    ``A * exp(gamma * V) * arr(T) * (duty * t) ** n`` family (each phase's
    voltage enters through :meth:`ArrheniusTimeScaling.time_factor`).

    The blend is computed with weights normalised to sum to 1, so a single
    phase at the reference operating point returns its duty array bit-for-bit
    (multiplied by exactly ``1.0``) and ``years`` unchanged.

    Phases with per-device corners (see :class:`PhaseStress`) give a
    leading device axis: ``effective_duty`` is ``(devices,) + duty.shape``
    and ``effective_years`` is ``(devices,)``, and row ``d`` equals the
    scalar call at device ``d``'s corners bit for bit.
    """
    phases = list(phases)
    if not phases:
        raise ValueError("aggregate_stress requires at least one phase")
    scaling = scaling or ArrheniusTimeScaling()
    shape = phases[0].duty.shape
    for index, phase in enumerate(phases):
        if phase.duty.shape != shape:
            raise ValueError(
                f"phase {index} duty shape {phase.duty.shape} does not match "
                f"phase 0 shape {shape}; all phases must cover the same cells")
    weights = [phase.years * scaling.time_factor(phase.temperature_c,
                                                 phase.voltage_v)
               for phase in phases]
    effective_years = sum(weights)
    if not np.all(effective_years > 0):  # also rejects NaN
        raise ValueError("effective stress-time must be positive")
    # Normalised weights as (devices, phases).  Blocks of whole device rows
    # (one row at least, else about DEVICE_TILE_ELEMENTS cells) are blended
    # in place through one reusable scratch block, with each phase's weights
    # as a (rows, 1) column: the same products and sums as an outer product
    # per phase, without a (devices x cells) temporary each.
    lead = np.shape(effective_years)
    normalised = np.stack([np.broadcast_to(np.divide(weight, effective_years), lead)
                           for weight in weights], axis=-1).reshape(-1, len(phases))
    duties = [phase.duty.reshape(1, -1) for phase in phases]
    devices, cells = normalised.shape[0], duties[0].shape[1]
    effective_duty = np.empty((devices, cells))
    block = max(1, DEVICE_TILE_ELEMENTS // max(cells, 1))
    scratch = np.empty((min(block, devices), cells)) if len(phases) > 1 else None
    for first in range(0, devices, block):
        rows = effective_duty[first:first + block]
        columns = normalised[first:first + block]
        np.multiply(columns[:, :1], duties[0], out=rows)
        for index in range(1, len(phases)):
            rows += np.multiply(columns[:, index:index + 1], duties[index],
                                out=scratch[:rows.shape[0]])
    return (effective_duty.reshape(lead + shape),
            _scalar_or_array(effective_years))


@dataclass
class StressTimeline:
    """Accumulates :class:`PhaseStress` entries and aggregates on demand."""

    scaling: ArrheniusTimeScaling = field(default_factory=ArrheniusTimeScaling)
    phases: List[PhaseStress] = field(default_factory=list)

    def add(self, duty: np.ndarray, years: float,
            temperature_c: float = DEFAULT_REFERENCE_TEMPERATURE_C,
            label: str = "",
            voltage_v: float = DEFAULT_REFERENCE_VOLTAGE_V) -> PhaseStress:
        """Append one phase's stress contribution."""
        phase = PhaseStress(duty=duty, years=years,
                            temperature_c=temperature_c, label=label,
                            voltage_v=voltage_v)
        self.phases.append(phase)
        return phase

    @property
    def wall_years(self) -> DeviceScalar:
        """Wall-clock span of the recorded timeline."""
        return _scalar_or_array(sum(phase.years for phase in self.phases))

    def effective(self) -> Tuple[np.ndarray, DeviceScalar]:
        """``(effective_duty, effective_years)`` of the recorded timeline."""
        return aggregate_stress(self.phases, self.scaling)


def scaling_for_model(snm_model: object) -> ArrheniusTimeScaling:
    """Derive the time scaling consistent with an SNM model's device physics.

    A model exposing a ``device`` (the reaction–diffusion backend) contributes
    its activation energy, time exponent and nominal temperature; otherwise
    the model's ``time_exponent`` (if any) is honoured and the NBTI defaults
    fill the rest, so the calibrated power-law model composes identically to
    the physics-style one.
    """
    device = getattr(snm_model, "device", None)
    if device is not None:
        return ArrheniusTimeScaling(
            activation_energy_ev=float(device.activation_energy_ev),
            time_exponent=float(device.time_exponent),
            reference_temperature_c=float(device.temperature_kelvin) - 273.15,
        )
    return ArrheniusTimeScaling(
        time_exponent=float(getattr(snm_model, "time_exponent", 1.0 / 6.0)))
