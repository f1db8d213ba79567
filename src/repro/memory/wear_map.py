"""Wear maps: spatial view of per-cell aging (extension).

The Fig. 9/11 histograms aggregate over all cells; designers also want to know
*where* in the memory the stressed cells sit (e.g. whether a particular bit
column or FIFO tile wears out first, which drives wear-levelling or column
remapping decisions).  A :class:`WearMap` summarises a duty-cycle (or SNM
degradation) matrix along rows, bit columns and FIFO regions and renders a
coarse ASCII heat map.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.aging.snm import SnmDegradationModel, default_snm_model
from repro.utils.validation import check_positive_int

#: Characters used for the ASCII heat map, from least to most degraded.
_HEAT_CHARS = " .:-=+*#%@"


def _nanmean(values: np.ndarray, axis=None) -> np.ndarray:
    """``np.nanmean`` without the all-NaN RuntimeWarning (result stays NaN)."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", category=RuntimeWarning)
        return np.nanmean(values, axis=axis)


def _column_means(degradation: np.ndarray) -> np.ndarray:
    """NaN-aware mean of each bit column of a degradation matrix."""
    return _nanmean(degradation, axis=0)


def _region_means(degradation: np.ndarray, num_regions: int) -> np.ndarray:
    """NaN-aware mean of each of ``num_regions`` equal row bands."""
    region_rows = degradation.shape[0] // num_regions
    return np.array([
        _nanmean(degradation[index * region_rows:(index + 1) * region_rows])
        for index in range(num_regions)
    ])


@dataclass
class WearMap:
    """Spatial aging summary of a weight memory."""

    duty_cycles: np.ndarray          # (rows, word_bits)
    num_regions: int = 1
    snm_model: Optional[SnmDegradationModel] = None
    years: float = 7.0

    def __post_init__(self) -> None:
        self.duty_cycles = np.asarray(self.duty_cycles, dtype=np.float64)
        if self.duty_cycles.ndim != 2:
            raise ValueError("duty_cycles must be a (rows, word_bits) matrix")
        check_positive_int(self.num_regions, "num_regions")
        if self.duty_cycles.shape[0] % self.num_regions != 0:
            raise ValueError("rows must divide evenly into num_regions")
        if self.snm_model is None:
            self.snm_model = default_snm_model()

    # ------------------------------------------------------------------ #
    # Aggregations
    # ------------------------------------------------------------------ #
    @property
    def coverage(self) -> float:
        """Fraction of cells with a defined duty-cycle.

        Duty matrices built with ``duty_cycles(default=None)`` carry NaN for
        never-written cells; the aggregations below ignore those cells and
        this fraction surfaces how much of the memory they actually cover.
        """
        return float(np.isfinite(self.duty_cycles).mean()) if self.duty_cycles.size else 0.0

    @property
    def degradation(self) -> np.ndarray:
        """Per-cell SNM degradation matrix (percent); NaN where duty is undefined."""
        return self.snm_model.degradation_percent(self.duty_cycles, self.years)

    def per_bit_column(self) -> np.ndarray:
        """Mean SNM degradation of each bit column (MSB-first index).

        Never-written cells are excluded; a column with no written cell at
        all reports NaN (check :attr:`coverage`).
        """
        return _column_means(self.degradation)

    def per_region(self) -> np.ndarray:
        """Mean SNM degradation of each FIFO region / tile (NaN-cell aware)."""
        return _region_means(self.degradation, self.num_regions)

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
        degradation = self.degradation
        defined = degradation[np.isfinite(degradation)]
        per_column = _column_means(degradation)
        per_region = _region_means(degradation, self.num_regions)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", category=RuntimeWarning)
            column_max = np.nanmax(per_column) if per_column.size else np.nan
            column_min = np.nanmin(per_column) if per_column.size else np.nan
            region_max = np.nanmax(per_region) if per_region.size else np.nan
            region_min = np.nanmin(per_region) if per_region.size else np.nan
        return {
            "coverage": self.coverage,
            "mean_degradation_percent": float(defined.mean()) if defined.size else float("nan"),
            "max_degradation_percent": float(defined.max()) if defined.size else float("nan"),
            "worst_bit_column": int(np.nanargmax(per_column)) if defined.size else -1,
            "worst_bit_column_mean_percent": float(column_max),
            "best_bit_column_mean_percent": float(column_min),
            "worst_region": int(np.nanargmax(per_region)) if defined.size else -1,
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
        degradation = self.degradation
        rows, bits = degradation.shape
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
            column_means = _nanmean(degradation[low:high], axis=0)
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
    return WearMap(duty_cycles=result.duty_cycles, num_regions=num_regions,
                   snm_model=result.snm_model, years=result.years)
