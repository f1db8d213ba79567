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
import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

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
    the SNM model need run once per class rather than once per cell.  The
    table is canonical, whichever of :meth:`from_counts` and :meth:`per_cell`
    builds it: ``values`` are the distinct duty-cycles in ascending order
    (NaN last), ``counts[c]`` the number of cells holding ``values[c]`` and
    :attr:`key` (the matrix's shape, narrowest unsigned dtype) the class of
    every cell, so ``values[key]`` is the duty matrix.  Statistics are
    count-weighted sums over the classes and the integer populations of bit
    columns and row bands; only cell-level consumers gather through ``key``.
    """

    def __init__(self, values: np.ndarray, counts: np.ndarray, key: np.ndarray,
                 column_counts: Optional[np.ndarray] = None):
        self.values = values
        self.counts = counts
        self.key = key
        self._column_counts = column_counts
        self._degradation: Optional[Tuple[object, np.ndarray]] = None

    @classmethod
    def per_cell(cls, duty: np.ndarray) -> "CellClasses":
        """The table of a duty matrix: ``np.unique`` values, ``searchsorted`` keys."""
        duty = np.asarray(duty, dtype=np.float64)
        values = np.unique(duty)
        index = np.searchsorted(values, duty)
        return cls(values, np.bincount(index.reshape(-1), minlength=values.size),
                   index.astype(_index_dtype(values.size)))

    @classmethod
    def from_counts(cls, ones: np.ndarray, writes: np.ndarray) -> Optional["CellClasses"]:
        """The table of ``ones / writes`` keyed by its integer counts.

        ``ones`` is the ``(rows, word_bits)`` integer matrix of accumulated
        ones and ``writes`` the integer per-row write count (float counts
        raise ``TypeError``).  Each distinct write count ``w`` owns the
        ``w + 1`` indices ``offset(w) + i`` of the cells holding ``i`` ones,
        repeated per bit column, so one narrow-dtype bincount gives every
        column's populations without a float sort.  Equal duty-cycles (0/20,
        0/40 and unwritten rows) merge into one class, and the key is
        gathered from the indices through that merge.  Returns ``None`` when
        a count is outside ``0 <= ones <= writes`` of its row, or when the
        (column, index) table would exceed both the cell count and ``2**16``
        entries (:meth:`per_cell` is cheaper then).
        """
        ones, writes = np.asarray(ones), np.asarray(writes)
        if ones.dtype.kind not in "iu" or writes.dtype.kind not in "iu":
            raise TypeError(f"cell-class counts must be integers, got {ones.dtype} "
                            f"ones over {writes.dtype} writes")
        if ones.ndim != 2 or writes.shape != ones.shape[:1] or not ones.size:
            return None
        rows, columns = ones.shape
        low, high = int(writes.min()), int(writes.max())
        if low < 0 or high >= ones.size or (ones.dtype.kind == "i" and ones.min() < 0):
            return None
        row_writes = writes.astype(np.int64)
        levels = (row_writes[:1] if low == high  # one write count: every padded stream
                  else np.flatnonzero(np.bincount(row_writes)))
        widths = levels + 1
        offsets = np.cumsum(widths) - widths
        span = int(widths.sum())
        table = span * columns
        if table > max(ones.size, 1 << 16):
            return None
        # No cell holds more ones than the smallest write count: all in range,
        # so the cast to the index dtype (which holds the largest) is exact.
        high = ones.max()
        if high > levels[0] and (high > levels[-1] or (ones > row_writes[:, None]).any()):
            return None
        dtype = _index_dtype(table)
        index = ones.astype(dtype)
        flat, parts = index.reshape(-1), _chunks(index.size)
        if levels.size > 1:  # one write count: every offset is 0
            offset_of = np.zeros(levels[-1] + 1, dtype=dtype)
            offset_of[levels] = offsets
            index += offset_of[row_writes][:, None]
        if columns > 1:  # over wide row groups: a one-row inner loop is slow
            group = math.gcd(rows, 256)
            index.reshape(-1, group * columns)[...] += np.tile(
                (np.arange(columns) * span).astype(dtype), group)
        population = sum(np.bincount(flat[part], minlength=table) for part in parts)
        population = population.reshape(columns, span)
        occupied = np.flatnonzero(population.any(axis=0))
        class_writes = np.repeat(levels, widths)[occupied]
        class_ones = occupied - np.repeat(offsets, widths)[occupied]
        ratios = np.divide(class_ones, class_writes, out=np.zeros(occupied.size),
                           where=class_writes > 0)
        values, merged = np.unique(ratios, return_inverse=True)
        column_counts = np.zeros((values.size, columns), dtype=np.int64)
        np.add.at(column_counts, merged, population[:, occupied].T)
        class_of = np.zeros(span, dtype=_index_dtype(values.size))
        class_of[occupied] = merged
        class_of = np.tile(class_of, columns)
        key = np.empty(index.shape, dtype=class_of.dtype)
        for part in parts:
            key.reshape(-1)[part] = np.take(class_of, flat[part])
        return cls(values, column_counts.sum(axis=1), key,
                   np.ascontiguousarray(column_counts.T))

    @property
    def shape(self) -> Tuple[int, ...]:
        """Shape of the duty matrix."""
        return self.key.shape

    @property
    def num_cells(self) -> int:
        """Number of cells the table covers."""
        return int(self.key.size)

    def fraction(self, selected: np.ndarray) -> float:
        """Fraction of all cells in the classes a boolean class mask selects."""
        return float(np.sum(self.counts[selected]) / self.num_cells)

    def mean(self, per_class: np.ndarray) -> float:
        """Mean over all cells of a per-class quantity (NaN if a class is NaN)."""
        return float(np.sum(self.counts * per_class) / self.num_cells)

    def column_counts(self, rows: slice = slice(None)) -> np.ndarray:
        """``(columns, classes)`` cell populations of the bit columns of ``rows`` (default all)."""
        whole = rows == slice(None)
        if whole and self._column_counts is not None:
            return self._column_counts
        block = self.key[rows]
        index = block + np.arange(block.shape[1]) * self.values.size
        counts = np.bincount(index.reshape(-1), minlength=index.shape[1] * self.values.size
                             ).reshape(index.shape[1], self.values.size)
        if whole:
            self._column_counts = counts
        return counts

    def row_band_counts(self, bands: int) -> np.ndarray:
        """``(bands, classes)`` cell populations of ``bands`` equal row bands."""
        size = self.values.size
        return np.stack([
            sum((np.bincount(band[part], minlength=size) for part in _chunks(band.size)),
                np.zeros(size, dtype=np.int64))
            for band in self.key.reshape(bands, -1)])

    def degradation(self, model: SnmDegradationModel, years: float) -> np.ndarray:
        """Per-class SNM degradation (percent) after ``years``; ``[key]`` gathers cells."""
        cached = self._degradation
        if cached is None or cached[0] != (model, years):
            cached = self._degradation = (
                (model, years), model.degradation_percent(self.values, years))
        return cached[1]


def _chunks(size: int, cells: int = 1 << 16) -> List[slice]:
    """Slices of ``cells`` cells: per-cell passes over them keep their
    temporaries cache-sized instead of page-faulting in whole-matrix ones."""
    return [slice(start, start + cells) for start in range(0, size, cells)]


def _index_dtype(size: int) -> np.dtype:
    """Narrowest unsigned dtype that indexes ``size`` entries."""
    return np.min_scalar_type(max(size - 1, 0))
