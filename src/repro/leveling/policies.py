"""Wear-leveling policies: rotation, start-gap shifting, wear-guided swap.

Three row-remapping strategies over the :class:`~repro.leveling.remap.WearLeveler`
protocol:

* :class:`RotationLeveler` — a static per-region rotation table that cycles
  through ``period`` offsets, advancing by ``step`` rows per inference and
  returning to the identity every ``period`` inferences.  ``period=1`` pins
  the identity map (the no-leveling reference point).
* :class:`StartGapLeveler` — start-gap style incremental shifting: the map
  drifts by one additional row every ``interval`` inferences and never
  resets, walking through every alignment of the region.  The classic
  start-gap design (Qureshi et al., MICRO'09) moves one line per gap step
  using a spare row; this model amortises a full gap pass to epoch
  granularity so no spare row is needed and the block placement is unchanged.
* :class:`WearSwapLeveler` — a table-driven hot/cold swap guided by the
  accumulated wear map: every ``interval`` inferences the hottest physical
  rows (by mean duty so far) exchange their logical occupants with the
  coldest ones.  Swaps cross region boundaries on purpose — this is the only
  policy that can reduce the *region* imbalance a FIFO placement builds up.

The :func:`make_leveler` factory mirrors
:func:`repro.core.policies.make_policy` and is what the experiment layer and
CLI resolve the ``leveling`` parameter through.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional

import numpy as np

from repro.leveling.remap import SpanTable, WearLeveler
from repro.memory.geometry import MemoryGeometry
from repro.utils.validation import check_positive_int

__all__ = ["RotationLeveler", "StartGapLeveler", "WearSwapLeveler",
           "make_leveler", "LEVELER_CHOICES"]

#: Leveler names accepted by :func:`make_leveler` (and the experiment schema).
LEVELER_CHOICES = ("none", "rotation", "start_gap", "wear_swap")


class RotationLeveler(WearLeveler):
    """Static rotation: cycle each region through ``period`` offsets.

    During inference ``t`` every region's rows are rotated down by
    ``(t mod period) * step`` rows.  The table returns to the identity every
    ``period`` inferences, so the hardware only needs ``period`` precomputed
    alignments; ``period=1`` therefore *is* the identity mapping.
    """

    name = "rotation"

    def __init__(self, geometry: MemoryGeometry, fifo_depth_tiles: int = 1,
                 period: int = 8, step: int = 1):
        super().__init__(geometry, fifo_depth_tiles)
        self.period = check_positive_int(period, "period")
        if step < 0:
            raise ValueError("step must be non-negative")
        self.step = int(step)

    def _offset_at(self, epoch):
        epoch = np.asarray(epoch, dtype=np.int64)
        return (epoch % self.period) * self.step % self.region_rows

    def describe(self) -> Dict[str, object]:
        description = super().describe()
        description.update({"period": self.period, "step": self.step})
        return description


class StartGapLeveler(WearLeveler):
    """Start-gap style incremental shifting at epoch granularity.

    The logical→physical map of every region shifts down by one additional
    row every ``interval`` inferences and never resets: after
    ``interval * region_rows`` inferences the mapping has visited every
    alignment of the region once.  This is the steady-state behaviour of a
    start-gap remapper with its per-write gap movement amortised to whole
    inference epochs (the spare gap row itself is not modelled, so the
    memory's capacity and block placement are unchanged).
    """

    name = "start_gap"

    def __init__(self, geometry: MemoryGeometry, fifo_depth_tiles: int = 1,
                 interval: int = 1):
        super().__init__(geometry, fifo_depth_tiles)
        self.interval = check_positive_int(interval, "interval")

    def _offset_at(self, epoch):
        epoch = np.asarray(epoch, dtype=np.int64)
        return (epoch // self.interval) % self.region_rows

    def describe(self) -> Dict[str, object]:
        description = super().describe()
        description["interval"] = self.interval
        return description


class WearSwapLeveler(WearLeveler):
    """Hot/cold remap-table swap guided by the accumulated wear map.

    Every ``interval`` inferences the leveler ranks all physical rows by
    their mean duty-cycle so far (the
    :func:`~repro.leveling.remap.mean_duty_from_row_counts` stress both
    engines report), pairs the hottest ``swap_fraction`` of rows
    with the coldest, and swaps each pair's logical occupants — the remap
    analogue of the FTL practice of moving hot data into the least-worn
    blocks.  Pairs whose stress difference is not strictly positive are left
    alone, so a perfectly balanced memory keeps its mapping.

    Unlike the rotation policies the swap table is global: hot rows migrate
    across FIFO region boundaries, which is what lets this policy reduce the
    *region* imbalance an uneven block-to-tile placement accumulates.
    """

    name = "wear_swap"
    uses_feedback = True

    def __init__(self, geometry: MemoryGeometry, fifo_depth_tiles: int = 1,
                 interval: int = 4, swap_fraction: float = 0.25):
        super().__init__(geometry, fifo_depth_tiles)
        self.interval = check_positive_int(interval, "interval")
        if not 0.0 < swap_fraction <= 0.5:
            raise ValueError("swap_fraction must lie in (0, 0.5]")
        self.swap_fraction = float(swap_fraction)
        self._pair_count = max(int(round(self.swap_fraction * self.rows)), 1)
        self._pair_count = min(self._pair_count, self.rows // 2)
        self.reset()

    def reset(self) -> None:
        self._perm = self._identity.copy()
        self._stress: Optional[np.ndarray] = None
        self._next_swap = self.interval
        self.num_swaps_applied = 0

    def observe(self, epoch: int, row_stress: np.ndarray) -> None:
        self._stress = np.asarray(row_stress, dtype=np.float64).copy()

    def permutation(self, epoch: int) -> np.ndarray:
        if epoch >= self._next_swap and self._stress is not None:
            self._apply_swaps()
            self._next_swap = (int(epoch) // self.interval + 1) * self.interval
        return self._perm

    def change_epochs(self, num_inferences: int) -> np.ndarray:
        return np.arange(0, num_inferences, self.interval, dtype=np.int64)

    def span_tables(self, num_inferences: int, start: int = 0,
                    stop: Optional[int] = None) -> Iterator[SpanTable]:
        """One single-span chunk per swap interval.

        Each chunk's permutation is resolved only when the driver pulls it —
        i.e. after the driver has composed the previous chunk and fed the
        accumulated stress through :meth:`observe` — so the chunked walk
        makes exactly the same swap decisions as an epoch-by-epoch walk.
        """
        starts, lengths = self._span_bounds(num_inferences, start, stop)
        for span_start, length in zip(starts, lengths):
            permutation = self.permutation(int(span_start))
            yield SpanTable(self, starts=np.asarray([span_start]),
                            lengths=np.asarray([length]),
                            permutations=permutation[None, :])

    def _apply_swaps(self) -> None:
        """Exchange the logical occupants of the hottest/coldest row pairs."""
        if self._pair_count == 0:
            return
        # Stable sort: the stress values are ratios of exact integer counts,
        # so tie-breaking by physical row index keeps the packed and explicit
        # engines' swap decisions bit-identical.
        order = np.argsort(self._stress, kind="stable")
        cold = order[:self._pair_count]
        hot = order[-self._pair_count:][::-1]
        improves = self._stress[hot] > self._stress[cold]
        if not improves.any():
            return
        hot, cold = hot[improves], cold[improves]
        inverse = np.empty(self.rows, dtype=np.int64)
        inverse[self._perm] = self._identity
        perm = self._perm.copy()
        perm[inverse[hot]] = cold
        perm[inverse[cold]] = hot
        self._perm = perm
        self.num_swaps_applied += 1

    def describe(self) -> Dict[str, object]:
        description = super().describe()
        description.update({"interval": self.interval,
                            "swap_fraction": self.swap_fraction})
        return description


def make_leveler(name: str, geometry: MemoryGeometry, fifo_depth_tiles: int = 1,
                 **kwargs) -> WearLeveler:
    """Factory: build a wear leveler from its registry name.

    Supported names: ``none``, ``rotation`` (``period``, ``step``),
    ``start_gap`` (``interval``) and ``wear_swap`` (``interval``,
    ``swap_fraction``); unknown keyword arguments raise ``TypeError`` through
    the constructors.
    """
    if name == "none":
        if kwargs:
            raise TypeError(f"leveler 'none' accepts no options, got {sorted(kwargs)}")
        return WearLeveler(geometry, fifo_depth_tiles)
    if name == "rotation":
        return RotationLeveler(geometry, fifo_depth_tiles, **kwargs)
    if name == "start_gap":
        return StartGapLeveler(geometry, fifo_depth_tiles, **kwargs)
    if name == "wear_swap":
        return WearSwapLeveler(geometry, fifo_depth_tiles, **kwargs)
    raise ValueError(f"unknown leveler '{name}' "
                     f"(expected one of: {', '.join(LEVELER_CHOICES)})")
