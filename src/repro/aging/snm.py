"""Duty-cycle → SNM degradation models.

A 6T-SRAM cell stores one bit in a pair of cross-coupled inverters (Fig. 2a
of the paper).  Whichever of the two PMOS pull-up transistors is conducting is
under negative bias stress: while the cell stores a '1', PMOS ``P1`` is
stressed and ``P2`` recovers; while it stores a '0', ``P2`` is stressed and
``P1`` recovers.  A cell with duty-cycle ``d`` therefore stresses ``P1`` for a
fraction ``d`` of its lifetime and ``P2`` for ``1 - d``.  Read stability is
limited by the *most aged* transistor, so the aging-optimal operating point is
a 50% duty-cycle, where both PMOS devices accumulate the same average stress.

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
from typing import Optional, Sequence, Tuple, Union

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
                             num_bins: int = 8,
                             years: float = REFERENCE_LIFETIME_YEARS) -> np.ndarray:
    """Bin edges spanning the reachable degradation range (best..worst) after ``years``."""
    model = model or default_snm_model()
    low = model.best_case_percent(years)
    high = model.worst_case_percent(years)
    edges = np.linspace(low, high, num_bins + 1)
    # Tiny epsilon so the exact best/worst values fall inside the outer bins.
    edges[0] -= 1e-9
    edges[-1] += 1e-9
    return edges


def degradation_histogram(degradation_percent: np.ndarray,
                          bin_edges: Sequence[float],
                          counts: Optional[np.ndarray] = None
                          ) -> Tuple[np.ndarray, np.ndarray]:
    """Histogram of cell degradations as percentages of the cell population.

    Returns ``(percent_of_cells_per_bin, bin_edges)``; values outside the
    edges are clipped into the first/last bins so no cell is dropped.
    ``counts`` weighs every value by the number of cells it stands for
    (the counts of a :class:`CellClasses` table); by default each value is
    one cell.
    """
    values = np.asarray(degradation_percent, dtype=np.float64).reshape(-1)
    edges = np.asarray(bin_edges, dtype=np.float64)
    if values.size == 0:
        return np.zeros(edges.size - 1), edges
    clipped = np.clip(values, edges[0], edges[-1])
    cells, _ = np.histogram(clipped, bins=edges, weights=counts)
    total = values.size if counts is None else np.sum(counts, dtype=np.int64)
    return cells / total * 100.0, edges


def bin_labels(bin_edges: Sequence[float]) -> list:
    """Human-readable labels for histogram bins ("10.8-12.7%")."""
    edges = np.asarray(bin_edges, dtype=np.float64)
    return [f"{low:.1f}-{high:.1f}%" for low, high in zip(edges[:-1], edges[1:])]


# --------------------------------------------------------------------------- #
# Cell-class tables
# --------------------------------------------------------------------------- #
class CellClasses:
    """A duty matrix grouped into classes of cells with the same duty-cycle.

    A cell written ``K`` times holds a duty-cycle ``i / K``, so a result whose
    rows share a few write counts has only a few distinct duty-cycles, and
    the SNM model need run once per class rather than once per cell.
    ``values[c]`` is the duty of class ``c``, ``counts[c]`` the number of
    cells in it (``None`` for the one-class-per-cell table, whose classes
    are single cells), and ``key`` (the duty matrix's shape, in the
    narrowest unsigned dtype that fits) the class of every cell:
    ``values[key]`` is the duty matrix bit for bit.  Exact reductions
    (min/max, cell counts, histograms) run on the classes; float means
    gather the class values back through ``key`` and reduce per cell, so
    every statistic keeps the bits of a per-cell evaluation.

    The table describes the duty matrix it was built from; it caches the
    gathered degradation of the last ``(model, years)`` it was asked for.
    """

    def __init__(self, values: np.ndarray, counts: Optional[np.ndarray],
                 key: np.ndarray):
        self.values = values
        self.counts = counts
        self.key = key
        self._degradation: Optional[Tuple[object, np.ndarray, np.ndarray]] = None

    @classmethod
    def per_cell(cls, duty: np.ndarray) -> "CellClasses":
        """One class per cell: the table of a duty matrix without counts."""
        duty = np.asarray(duty, dtype=np.float64)
        key = np.arange(duty.size, dtype=_index_dtype(duty.size)).reshape(duty.shape)
        return cls(duty.reshape(-1), None, key)

    @classmethod
    def from_counts(cls, ones: np.ndarray, writes: np.ndarray) -> Optional["CellClasses"]:
        """The table of ``ones / writes`` keyed by its integer counts.

        ``ones`` is the ``(rows, word_bits)`` matrix of accumulated ones and
        ``writes`` the per-row write count.  Each distinct write count ``w``
        owns the ``w + 1`` keys ``offset(w) + i`` of the cells holding ``i``
        ones, so the classes come from one ``np.bincount`` instead of a float
        sort, and ``values[key]`` is the duty-cycle ``i / w`` (0 on unwritten
        rows) of every cell.  Returns ``None`` when a count is not an
        integer with ``0 <= ones <= writes`` of its row, or when the key span
        exceeds the cell count (a one-class-per-cell table is cheaper then).
        """
        ones = np.asarray(ones, dtype=np.float64)
        writes = np.asarray(writes, dtype=np.float64)
        if ones.ndim != 2 or writes.shape != ones.shape[:1] or not ones.size:
            return None
        with np.errstate(invalid="ignore"):
            row_writes = writes.astype(np.int64)
            raw = ones.astype(np.int64)
        if (not np.array_equal(row_writes, writes) or row_writes.min() < 0
                or row_writes.max() >= ones.size):
            return None
        levels = np.flatnonzero(np.bincount(row_writes))
        widths = levels + 1
        offsets = np.cumsum(widths) - widths
        span = int(widths.sum())
        if span > ones.size or not np.array_equal(raw, ones) or raw.min() < 0:
            return None
        # No cell holds more ones than the smallest write count: all in range.
        if raw.max() > levels[0] and (raw > row_writes[:, None]).any():
            return None
        if levels.size > 1:  # one write count: every offset is 0
            offset_of = np.zeros(levels[-1] + 1, dtype=np.int64)
            offset_of[levels] = offsets
            raw += offset_of[row_writes][:, None]
        population = np.bincount(raw.reshape(-1), minlength=span)
        occupied = np.flatnonzero(population)
        class_of = np.zeros(span, dtype=_index_dtype(occupied.size))
        class_of[occupied] = np.arange(occupied.size)
        class_writes = np.repeat(levels, widths)[occupied]
        class_ones = occupied - np.repeat(offsets, widths)[occupied]
        with np.errstate(invalid="ignore", divide="ignore"):
            values = np.where(class_writes > 0, class_ones / class_writes, 0.0)
        return cls(values, population[occupied], class_of[raw])

    @property
    def num_cells(self) -> int:
        """Number of cells the table covers."""
        return int(self.key.size)

    def fraction(self, selected: np.ndarray) -> float:
        """Fraction of all cells in the classes a boolean class mask selects."""
        cells = (np.count_nonzero(selected) if self.counts is None
                 else np.sum(self.counts[selected], dtype=np.int64))
        return float(cells / self.num_cells)

    def degradation(self, model: SnmDegradationModel,
                    years: float) -> Tuple[np.ndarray, np.ndarray]:
        """``(per_class, per_cell)`` SNM degradation (percent) after ``years``.

        The model runs on the class values only; the per-cell matrix (the
        duty matrix's shape, read-only) is their gather through ``key``,
        computed once and shared by every consumer of the table.
        """
        cached = self._degradation
        if cached is None or cached[0] != (model, years):
            per_class = model.degradation_percent(self.values, years)
            per_cell = per_class[self.key]
            per_cell.setflags(write=False)
            cached = self._degradation = ((model, years), per_class, per_cell)
        return cached[1], cached[2]


def _index_dtype(size: int) -> np.dtype:
    """Narrowest unsigned dtype that indexes ``size`` entries."""
    return np.min_scalar_type(max(size - 1, 0))
