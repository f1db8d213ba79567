"""Wear maps: spatial view of per-cell aging (extension).

The Fig. 9/11 histograms aggregate over all cells; designers also want to know
*where* in the memory the stressed cells sit (e.g. whether a particular bit
column or FIFO tile wears out first, which drives wear-levelling or column
remapping decisions).  A :class:`WearMap` summarises a duty-cycle matrix's
SNM degradation along bit columns and FIFO regions and renders a coarse
ASCII heat map.  The SNM model runs once per duty class of the map's
:class:`~repro.aging.snm.CellClasses` table (the result's own table when built
by :func:`wear_map_from_result`), and every mean is a count-weighted sum over
those classes.
"""

from __future__ import annotations

import warnings
from typing import Dict, Optional

import numpy as np

from repro.aging.snm import CellClasses, SnmDegradationModel, default_snm_model
from repro.utils.validation import check_positive_int

#: Characters used for the ASCII heat map, from least to most degraded.
_HEAT_CHARS = " .:-=+*#%@"


def _defined_means(populations: np.ndarray, per_class: np.ndarray) -> np.ndarray:
    """Mean of ``per_class`` over each population row (classes on the last axis).

    NaN classes (never-written cells) are left out; a row with no defined
    cell is NaN.
    """
    finite = np.isfinite(per_class)
    populations = populations[..., finite]
    with np.errstate(invalid="ignore", divide="ignore"):
        return (np.sum(populations * per_class[finite], axis=-1)
                / populations.sum(axis=-1))


class WearMap:
    """Spatial aging summary of a weight memory.

    The map holds the :class:`~repro.aging.snm.CellClasses` table of a
    ``(rows, word_bits)`` duty matrix: the one passed as ``cell_classes``,
    or the table of ``duty_cycles``.  Every aggregation is a count-weighted
    sum over the table's classes; only :attr:`duty_cycles`,
    :attr:`degradation` and :meth:`worst_cells` gather per-cell values.
    """

    def __init__(self, duty_cycles: Optional[np.ndarray] = None,
                 num_regions: int = 1,
                 snm_model: Optional[SnmDegradationModel] = None,
                 years: float = 7.0,
                 cell_classes: Optional[CellClasses] = None):
        if cell_classes is None:
            if duty_cycles is None:
                raise ValueError("a wear map needs duty_cycles or cell_classes")
            duty = np.asarray(duty_cycles, dtype=np.float64)
            if duty.ndim != 2:
                raise ValueError("duty_cycles must be a (rows, word_bits) matrix")
            cell_classes = CellClasses.per_cell(duty)
        elif duty_cycles is not None and np.shape(duty_cycles) != cell_classes.shape:
            raise ValueError("cell_classes does not match the duty_cycles shape")
        self.num_regions = check_positive_int(num_regions, "num_regions")
        if cell_classes.shape[0] % self.num_regions != 0:
            raise ValueError("rows must divide evenly into num_regions")
        self.cell_classes = cell_classes
        self.snm_model = snm_model if snm_model is not None else default_snm_model()
        self.years = years

    @property
    def duty_cycles(self) -> np.ndarray:
        """The per-cell duty matrix, gathered from the class table."""
        return self.cell_classes.values[self.cell_classes.key]

    # ------------------------------------------------------------------ #
    # Aggregations
    # ------------------------------------------------------------------ #
    @property
    def coverage(self) -> float:
        """Fraction of cells with a defined duty-cycle.

        Duty matrices may carry NaN for never-written cells; the aggregations below ignore those cells and
        this fraction surfaces how much of the memory they actually cover.
        """
        classes = self.cell_classes
        return classes.fraction(np.isfinite(classes.values)) if classes.num_cells else 0.0

    def _class_degradation(self) -> np.ndarray:
        """Per-class SNM degradation of the map's cell classes."""
        return self.cell_classes.degradation(self.snm_model, self.years)

    @property
    def degradation(self) -> np.ndarray:
        """Per-cell SNM degradation matrix (percent); NaN where duty is undefined."""
        return self._class_degradation()[self.cell_classes.key]

    def per_bit_column(self) -> np.ndarray:
        """Mean SNM degradation of each bit column (MSB-first index).

        Never-written cells are excluded; a column with no written cell at
        all reports NaN (check :attr:`coverage`).
        """
        return _defined_means(self.cell_classes.column_counts(), self._class_degradation())

    def per_region(self) -> np.ndarray:
        """Mean SNM degradation of each FIFO region / tile (NaN-cell aware)."""
        return _defined_means(self.cell_classes.row_band_counts(self.num_regions),
                              self._class_degradation())

    def worst_cells(self, count: int = 10) -> Dict[str, np.ndarray]:
        """Coordinates and degradation of the ``count`` most-aged cells.

        Cells with undefined duty are never reported (NaN would otherwise
        sort *above* every genuine value in a descending argsort).
        """
        check_positive_int(count, "count")
        degradation = self.degradation
        ranked = np.where(np.isfinite(degradation), degradation, -np.inf)
        flat_indices = np.argsort(ranked, axis=None)[::-1][:count]
        rows, columns = np.unravel_index(flat_indices, degradation.shape)
        defined = np.isfinite(degradation[rows, columns])
        rows, columns = rows[defined], columns[defined]
        return {
            "rows": rows,
            "bit_columns": columns,
            "degradation_percent": degradation[rows, columns],
        }

    def summary(self) -> Dict[str, float]:
        """Headline spatial statistics (NaN-cell aware, see :attr:`coverage`)."""
        per_class = self._class_degradation()
        finite = np.isfinite(per_class)
        defined = bool(finite.any())
        per_column = self.per_bit_column()
        per_region = self.per_region()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", category=RuntimeWarning)
            column_max = np.nanmax(per_column) if per_column.size else np.nan
            column_min = np.nanmin(per_column) if per_column.size else np.nan
            region_max = np.nanmax(per_region) if per_region.size else np.nan
            region_min = np.nanmin(per_region) if per_region.size else np.nan
        return {
            "coverage": self.coverage,
            "mean_degradation_percent": float(_defined_means(self.cell_classes.counts,
                                                             per_class)),
            "max_degradation_percent": (float(per_class[finite].max()) if defined
                                        else float("nan")),
            "worst_bit_column": int(np.nanargmax(per_column)) if defined else -1,
            "worst_bit_column_mean_percent": float(column_max),
            "best_bit_column_mean_percent": float(column_min),
            "worst_region": int(np.nanargmax(per_region)) if defined else -1,
            "worst_region_mean_percent": float(region_max),
            "column_imbalance_pp": float(column_max - column_min),
            "region_imbalance_pp": float(region_max - region_min),
        }

    # ------------------------------------------------------------------ #
    # Rendering
    # ------------------------------------------------------------------ #
    def render(self, max_rows: int = 32) -> str:
        """Render a coarse ASCII heat map (rows are bucketed to ``max_rows``).

        Bucket edges are deduplicated before labelling, so small or odd row
        counts can never produce an empty bucket with an inverted
        ``rows X-(X-1)`` label; the header reports the number of buckets
        actually drawn.  Columns whose bucket holds no written cell render
        as ``?``.
        """
        check_positive_int(max_rows, "max_rows")
        classes = self.cell_classes
        per_class = self._class_degradation()
        rows, bits = classes.shape
        buckets = min(max_rows, rows)
        # np.unique drops repeated integer edges (linspace truncation can
        # produce them), guaranteeing strictly increasing, non-empty buckets;
        # the 0 and rows endpoints are exact in linspace, so they survive.
        bucket_edges = np.unique(np.linspace(0, rows, buckets + 1).astype(int))
        best = self.snm_model.best_case_percent(self.years)
        worst = self.snm_model.worst_case_percent(self.years)
        span = max(worst - best, 1e-9)

        lines = [f"Wear map ({rows} rows x {bits} bit columns, "
                 f"{bucket_edges.size - 1} row buckets, MSB on the left)"]
        for low, high in zip(bucket_edges[:-1], bucket_edges[1:]):
            column_means = _defined_means(classes.column_counts(slice(low, high)),
                                          per_class)
            levels = np.clip((column_means - best) / span, 0.0, 1.0)
            chars = "".join(
                "?" if not np.isfinite(level)
                else _HEAT_CHARS[int(round(level * (len(_HEAT_CHARS) - 1)))]
                for level in levels)
            lines.append(f"rows {low:>7d}-{high - 1:>7d} |{chars}|")
        lines.append(f"scale: '{_HEAT_CHARS[0]}' = {best:.1f}%  ...  "
                     f"'{_HEAT_CHARS[-1]}' = {worst:.1f}% SNM degradation")
        return "\n".join(lines)


def default_wear_regions(rows: int, fifo_depth_tiles: int) -> int:
    """Analysis regioning of a wear map: FIFO tiles, or coarse row bands.

    FIFO-organised memories are regioned by their tiles (the physically
    meaningful boundary); monolithic memories fall back to the largest of
    8/4/2 row bands that divides the row count, so region-imbalance numbers
    stay comparable across geometries.  Shared by the ``leveling`` and
    ``scenario`` experiment reports.
    """
    if fifo_depth_tiles > 1:
        return fifo_depth_tiles
    for candidate in (8, 4, 2):
        if rows % candidate == 0:
            return candidate
    return 1


def wear_map_from_result(result, num_regions: int = 1) -> WearMap:
    """Build a :class:`WearMap` from an :class:`~repro.core.simulation.AgingResult`."""
    return WearMap(num_regions=num_regions, snm_model=result.snm_model,
                   years=result.years, cell_classes=result.cell_classes)
