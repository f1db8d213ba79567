"""Device-level NBTI threshold-voltage shift model.

Negative Bias Temperature Instability gradually increases the threshold
voltage of a PMOS transistor while it is under negative gate-to-source bias
(for a 6T-SRAM pull-up: while the cell node it drives stores the corresponding
value).  Removing the stress partially anneals the damage, which is why the
*long-term average* stress fraction (the cell duty-cycle) is what matters
(Abella et al., "Penelope: the NBTI-aware processor").

The model implemented here is the standard long-term reaction–diffusion form

    dVth(t) = A * exp(-Ea / (k * T)) * (alpha * t) ** n

with ``alpha`` the stress (duty-cycle) fraction, ``n ~ 1/6`` and an Arrhenius
temperature acceleration term.  It exists for two purposes:

* it provides a *physics-style* alternative backend for the duty-cycle → SNM
  mapping (:class:`ReactionDiffusionSnmModel`), demonstrating that the
  DNN-Life framework is agnostic to the device model, exactly as the paper
  claims;
* its ΔVth output feeds the lifetime/guard-band estimator.

Absolute values are calibrated against the paper's worst-case anchor
(26.12% SNM degradation after 7 years at 100% stress).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.aging.snm import (
    REFERENCE_LIFETIME_YEARS,
    WORST_SNM_DEGRADATION_PERCENT,
    SnmDegradationModel,
)
from repro.utils.units import SECONDS_PER_YEAR, years_to_seconds
from repro.utils.validation import check_positive

#: Boltzmann constant in eV/K.
BOLTZMANN_EV = 8.617333262e-5


@dataclass(frozen=True)
class NbtiDeviceModel:
    """Long-term NBTI ΔVth model for one PMOS transistor.

    Attributes
    ----------
    prefactor_volts:
        Technology-dependent prefactor ``A`` (calibrated so that 7 years of
        continuous stress at the nominal temperature gives ``reference_dvth``).
    activation_energy_ev:
        Arrhenius activation energy (typically ~0.1 eV for NBTI).
    time_exponent:
        The ``n`` in ``t**n`` (reaction–diffusion predicts 1/6).
    temperature_kelvin:
        Nominal operating temperature.
    """

    activation_energy_ev: float = 0.1
    time_exponent: float = 1.0 / 6.0
    temperature_kelvin: float = 358.15  # 85 C, typical worst-case operating corner
    reference_dvth_volts: float = 0.05  # ~50 mV after 7 years of continuous stress
    reference_years: float = REFERENCE_LIFETIME_YEARS

    def __post_init__(self) -> None:
        check_positive(self.time_exponent, "time_exponent")
        check_positive(self.temperature_kelvin, "temperature_kelvin")
        check_positive(self.reference_dvth_volts, "reference_dvth_volts")

    def _arrhenius(self, temperature_kelvin: float) -> float:
        return float(np.exp(-self.activation_energy_ev / (BOLTZMANN_EV * temperature_kelvin)))

    @property
    def prefactor_volts(self) -> float:
        """Prefactor ``A`` solved from the reference point."""
        seconds = years_to_seconds(self.reference_years)
        return self.reference_dvth_volts / (
            self._arrhenius(self.temperature_kelvin) * seconds ** self.time_exponent
        )

    def delta_vth(self, stress_fraction: np.ndarray, years: float,
                  temperature_kelvin: float = None) -> np.ndarray:
        """Threshold-voltage shift (volts) after ``years`` at the given stress.

        ``stress_fraction`` is the long-term fraction of time the transistor
        is under negative bias (the cell duty-cycle for P1, its complement for
        P2).  ``years`` may be an array broadcasting against it.
        """
        stress = np.asarray(stress_fraction, dtype=np.float64)
        if np.any((stress < -1e-12) | (stress > 1.0 + 1e-12)):
            raise ValueError("stress_fraction must lie within [0, 1]")
        stress = np.clip(stress, 0.0, 1.0)
        years = np.asarray(years, dtype=np.float64)
        if np.any(years < 0):
            raise ValueError(f"years must be >= 0, got {years.min()}")
        temperature = temperature_kelvin or self.temperature_kelvin
        seconds = years * SECONDS_PER_YEAR
        effective_time = stress * seconds
        return (self.prefactor_volts * self._arrhenius(temperature)
                * np.power(effective_time, self.time_exponent))

    def cell_worst_delta_vth(self, duty_cycle: np.ndarray, years: float) -> np.ndarray:
        """ΔVth of the most-aged PMOS of a 6T cell with the given duty-cycle."""
        duty = np.asarray(duty_cycle, dtype=np.float64)
        return np.maximum(self.delta_vth(duty, years), self.delta_vth(1.0 - duty, years))


@dataclass(frozen=True)
class ReactionDiffusionSnmModel(SnmDegradationModel):
    """SNM degradation derived from the ΔVth of the most-aged PMOS.

    SNM loss is taken proportional to the worst-transistor ΔVth, calibrated so
    that 100% duty-cycle after the reference lifetime matches the paper's
    worst-case anchor.  Note that, unlike :class:`CalibratedSnmModel`, this
    model is *not* forced through the 50%-duty anchor: it illustrates that the
    framework accepts alternative device models, and ablation benchmarks use
    it to show the proposed mitigation conclusions are model-independent.
    """

    device: NbtiDeviceModel = NbtiDeviceModel()
    worst_percent: float = WORST_SNM_DEGRADATION_PERCENT
    reference_years: float = REFERENCE_LIFETIME_YEARS

    def degradation_percent(self, duty_cycle: np.ndarray,
                            years: float = REFERENCE_LIFETIME_YEARS) -> np.ndarray:
        duty = np.asarray(duty_cycle, dtype=np.float64)
        worst_dvth_reference = self.device.delta_vth(np.asarray([1.0]), self.reference_years)[0]
        scale = self.worst_percent / worst_dvth_reference
        return self.device.cell_worst_delta_vth(duty, years) * scale
