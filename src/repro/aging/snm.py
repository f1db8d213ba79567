"""Duty-cycle → SNM degradation models.

The paper quantifies NBTI aging of a 6T-SRAM cell through the degradation of
its Static Noise Margin (SNM) after 7 years of operation, as a function of the
cell's lifetime duty-cycle (fraction of time storing a '1').  The two anchor
points it states for the underlying device model (Sec. V-A) are:

* best case, 50% duty-cycle: **10.82%** SNM degradation;
* worst case, 0% or 100% duty-cycle: **26.12%** SNM degradation.

:class:`CalibratedSnmModel` interpolates between those anchors with a power
law in the worst-transistor stress fraction ``m = max(d, 1 - d)``:

    degradation(d) = worst * m ** gamma,      gamma = log2(worst / best)

which by construction reproduces both anchors and is monotonic in ``m``
(Fig. 2b shape).  The model is deliberately pluggable — the paper notes its
technique is orthogonal to the device model — so any other implementation of
:class:`SnmDegradationModel` (e.g. the physics-style model in
:mod:`repro.aging.nbti`) can be swapped in.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Sequence, Tuple, Union

import numpy as np

from repro.utils.validation import check_positive

#: Anchor values stated in the paper (Sec. V-A), in percent after 7 years.
BEST_SNM_DEGRADATION_PERCENT = 10.82
WORST_SNM_DEGRADATION_PERCENT = 26.12
#: Lifetime after which the anchors are specified.
REFERENCE_LIFETIME_YEARS = 7.0
#: Time-dependence exponent of long-term NBTI degradation (t^1/6 law).
TIME_EXPONENT = 1.0 / 6.0


class SnmDegradationModel(abc.ABC):
    """Interface of duty-cycle → SNM-degradation models."""

    @abc.abstractmethod
    def degradation_percent(self, duty_cycle: np.ndarray,
                            years: float = REFERENCE_LIFETIME_YEARS) -> np.ndarray:
        """SNM degradation (percent) for each duty-cycle after ``years`` years."""

    def worst_case_percent(self, years: Union[float, np.ndarray] = REFERENCE_LIFETIME_YEARS
                           ) -> Union[float, np.ndarray]:
        """Degradation of a cell stuck at one value for its whole lifetime.

        Like :meth:`best_case_percent`, broadcasts over an array of ``years``
        (one anchor per entry, e.g. per fleet device).
        """
        return self._uniform_duty_percent(1.0, years)

    def best_case_percent(self, years: Union[float, np.ndarray] = REFERENCE_LIFETIME_YEARS
                          ) -> Union[float, np.ndarray]:
        """Degradation of a perfectly balanced cell."""
        return self._uniform_duty_percent(0.5, years)

    def _uniform_duty_percent(self, duty: float, years: Union[float, np.ndarray]
                              ) -> Union[float, np.ndarray]:
        years = np.asarray(years, dtype=np.float64)
        percent = self.degradation_percent(np.full(years.shape, duty), years)
        return float(percent) if np.ndim(percent) == 0 else percent


@dataclass(frozen=True)
class CalibratedSnmModel(SnmDegradationModel):
    """Power-law model calibrated to the paper's two anchor points."""

    best_percent: float = BEST_SNM_DEGRADATION_PERCENT
    worst_percent: float = WORST_SNM_DEGRADATION_PERCENT
    reference_years: float = REFERENCE_LIFETIME_YEARS
    time_exponent: float = TIME_EXPONENT

    def __post_init__(self) -> None:
        check_positive(self.best_percent, "best_percent")
        check_positive(self.worst_percent, "worst_percent")
        if self.worst_percent <= self.best_percent:
            raise ValueError("worst_percent must exceed best_percent")
        check_positive(self.reference_years, "reference_years")

    @property
    def gamma(self) -> float:
        """Exponent of the stress-fraction power law."""
        return float(np.log2(self.worst_percent / self.best_percent))

    def degradation_percent(self, duty_cycle: np.ndarray,
                            years: float = REFERENCE_LIFETIME_YEARS) -> np.ndarray:
        duty = np.asarray(duty_cycle, dtype=np.float64)
        if np.any((duty < -1e-9) | (duty > 1.0 + 1e-9)):
            raise ValueError("duty-cycle values must lie within [0, 1]")
        duty = np.clip(duty, 0.0, 1.0)
        stress = np.maximum(duty, 1.0 - duty)
        base = self.worst_percent * np.power(stress, self.gamma)
        # float_power is the C library pow element by element, so an array
        # of years scales each entry exactly like a scalar call would.
        time_scale = np.float_power(years / self.reference_years,
                                    self.time_exponent)
        return base * time_scale

    def stress_fraction_for_degradation(self, degradation_percent: float,
                                        years: float = REFERENCE_LIFETIME_YEARS) -> float:
        """Invert the model: stress fraction that yields a given degradation."""
        time_scale = (years / self.reference_years) ** self.time_exponent
        value = degradation_percent / (self.worst_percent * time_scale)
        if value <= 0:
            raise ValueError("degradation_percent must be positive")
        return float(np.clip(value ** (1.0 / self.gamma), 0.0, 1.0))


def default_snm_model() -> CalibratedSnmModel:
    """The model used by all experiments unless a different one is injected."""
    return CalibratedSnmModel()


# --------------------------------------------------------------------------- #
# Histogram helpers (Fig. 9 / Fig. 11 rendering)
# --------------------------------------------------------------------------- #
def default_degradation_bins(model: SnmDegradationModel = None,
                             num_bins: int = 8) -> np.ndarray:
    """Bin edges spanning the reachable degradation range (best..worst)."""
    model = model or default_snm_model()
    low = model.best_case_percent()
    high = model.worst_case_percent()
    edges = np.linspace(low, high, num_bins + 1)
    # Tiny epsilon so the exact best/worst values fall inside the outer bins.
    edges[0] -= 1e-9
    edges[-1] += 1e-9
    return edges


def degradation_histogram(degradation_percent: np.ndarray,
                          bin_edges: Sequence[float]) -> Tuple[np.ndarray, np.ndarray]:
    """Histogram of cell degradations as percentages of the cell population.

    Returns ``(percent_of_cells_per_bin, bin_edges)``; values outside the
    edges are clipped into the first/last bins so no cell is dropped.
    """
    values = np.asarray(degradation_percent, dtype=np.float64).reshape(-1)
    edges = np.asarray(bin_edges, dtype=np.float64)
    if values.size == 0:
        return np.zeros(edges.size - 1), edges
    clipped = np.clip(values, edges[0], edges[-1])
    counts, _ = np.histogram(clipped, bins=edges)
    return counts / values.size * 100.0, edges


def bin_labels(bin_edges: Sequence[float]) -> list:
    """Human-readable labels for histogram bins ("10.8-12.7%")."""
    edges = np.asarray(bin_edges, dtype=np.float64)
    return [f"{low:.1f}-{high:.1f}%" for low, high in zip(edges[:-1], edges[1:])]
