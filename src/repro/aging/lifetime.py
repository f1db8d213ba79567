"""Lifetime and guard-band estimation (extension).

The paper motivates aging mitigation with the observation that, without it,
the operating frequency of a device must be reduced by more than 20% over its
lifetime to absorb the NBTI-induced Vth shift.  This module provides the
inverse view used by the ablation benchmarks: given a maximum tolerable SNM
degradation (or frequency guard-band), how many years does a memory survive
under each mitigation policy?

Lifetime follows from the ``t**(1/6)`` time dependence of long-term NBTI: if a
cell reaches degradation ``D_ref`` after the reference lifetime, it reaches a
threshold ``D_max`` after ``T_ref * (D_max / D_ref) ** 6`` years.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.aging.snm import REFERENCE_LIFETIME_YEARS, SnmDegradationModel, default_snm_model
from repro.aging.stress import (
    ArrheniusTimeScaling,
    PhaseStress,
    StressTimeline,
    scaling_for_model,
)
from repro.utils.validation import check_positive


@dataclass(frozen=True)
class LifetimeEstimator:
    """Converts per-cell duty-cycles into lifetime estimates."""

    snm_model: SnmDegradationModel = None
    max_degradation_percent: float = 15.0
    reference_years: float = REFERENCE_LIFETIME_YEARS

    def __post_init__(self) -> None:
        check_positive(self.max_degradation_percent, "max_degradation_percent")
        if self.snm_model is None:
            object.__setattr__(self, "snm_model", default_snm_model())

    def cell_lifetimes_years(self, duty_cycles: np.ndarray) -> np.ndarray:
        """Years until each cell's SNM degradation reaches the threshold."""
        duty = np.asarray(duty_cycles, dtype=np.float64)
        reference_degradation = self.snm_model.degradation_percent(duty, self.reference_years)
        time_exponent = getattr(self.snm_model, "time_exponent", 1.0 / 6.0)
        with np.errstate(divide="ignore"):
            ratio = self.max_degradation_percent / reference_degradation
            return self.reference_years * np.power(ratio, 1.0 / time_exponent)

    def memory_lifetime_years(self, duty_cycles: np.ndarray) -> float:
        """Lifetime of the memory = lifetime of its most-aged cell."""
        lifetimes = self.cell_lifetimes_years(duty_cycles)
        return float(np.min(lifetimes)) if lifetimes.size else float("inf")

    # ------------------------------------------------------------------ #
    # Multi-phase (scenario) view: per-phase (duty, years, temperature,
    # voltage) — each phase's DVFS operating point rides in through
    # PhaseStress.voltage_v and the scaling's voltage-acceleration term.
    # ------------------------------------------------------------------ #
    def cell_lifetimes_years_phases(self, phases: Sequence[PhaseStress],
                                    scaling: Optional[ArrheniusTimeScaling] = None
                                    ) -> np.ndarray:
        """Wall-clock years of the *scenario mix* until each cell hits the threshold.

        The phase list is treated as a stationary workload mix: the timeline's
        effective duty-cycle stays what it is, but time advances
        ``effective_years / wall_years`` times faster than the wall clock
        (hot or overdriven phases accelerate damage, cool or undervolted
        ones slow it).  A single phase at the reference operating point
        reproduces :meth:`cell_lifetimes_years`.
        """
        timeline = StressTimeline(scaling or scaling_for_model(self.snm_model),
                                  list(phases))
        duty, effective_years = timeline.effective()
        return self.cell_lifetimes_years(duty) / (effective_years
                                                  / timeline.wall_years)

    def memory_lifetime_years_phases(self, phases: Sequence[PhaseStress],
                                     scaling: Optional[ArrheniusTimeScaling] = None
                                     ) -> float:
        """Scenario-mix lifetime of the memory = lifetime of its most-aged cell."""
        lifetimes = self.cell_lifetimes_years_phases(phases, scaling)
        return float(np.min(lifetimes)) if lifetimes.size else float("inf")

    def lifetime_improvement(self, duty_cycles_baseline: np.ndarray,
                             duty_cycles_mitigated: np.ndarray) -> float:
        """Lifetime ratio (mitigated / baseline) — the headline metric."""
        baseline = self.memory_lifetime_years(duty_cycles_baseline)
        mitigated = self.memory_lifetime_years(duty_cycles_mitigated)
        if baseline <= 0:
            raise ValueError("baseline lifetime must be positive")
        return mitigated / baseline


def frequency_guardband_percent(snm_degradation_percent: np.ndarray,
                                sensitivity: float = 0.8) -> np.ndarray:
    """Approximate frequency guard-band required for a given SNM degradation.

    A simple proportional map (a 26% SNM loss corresponding to roughly the
    20%+ frequency derating quoted in the paper's introduction) used only for
    reporting; ``sensitivity`` is the derating per unit degradation.
    """
    degradation = np.asarray(snm_degradation_percent, dtype=np.float64)
    return degradation * sensitivity
