"""Row-remap machinery shared by every wear-leveling policy.

A *wear leveler* maintains a logical-to-physical row permutation for a weight
memory: the accelerator's dataflow keeps addressing *logical* rows (block
``b`` still targets rows ``region * words_per_block ...``), while the leveler
decides which *physical* rows actually store them.  The mapping is constant
within one inference epoch and may change between epochs, which is exactly
the granularity both simulation paths consume it at:

* the fast packed engines walk the :meth:`WearLeveler.span_tables` of
  constant mapping through :func:`repro.core.span_compose.compose_leveled`,
  which composes each span's closed-form duty counts into physical rows
  through the span's permutation;
* the explicit engines replay write by write through
  :func:`repro.core.simulation.replay_epochs`, which queries
  :meth:`WearLeveler.permutation` every epoch and routes each block write
  through it.

Feedback-driven policies (the wear-map-guided swap) additionally receive the
accumulated per-physical-row stress through :meth:`WearLeveler.observe`; both
walks report the same quantity (:func:`mean_duty_from_row_counts` over exact
integral counts), so the permutations they derive are bit-identical.
:func:`check_leveler` is the one geometry check every engine applies to the
leveler it is given.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Tuple

import numpy as np

from repro.memory.geometry import MemoryGeometry
from repro.utils.validation import check_positive_int

__all__ = ["SpanTable", "WearLeveler", "check_leveler", "check_permutation",
           "mean_duty_from_row_counts"]


def _check_span_tiling(starts: np.ndarray, lengths: np.ndarray,
                       start: int, stop: int, leveler_name: str) -> None:
    """Assert that spans tile ``[start, stop)`` exactly: no gaps, no overlap."""
    if stop <= start:
        if starts.size:
            raise AssertionError(
                f"leveler '{leveler_name}' emitted {starts.size} spans for the "
                f"empty window [{start}, {stop})")
        return
    if not starts.size:
        raise AssertionError(
            f"leveler '{leveler_name}' emitted no spans for [{start}, {stop})")
    if np.any(lengths <= 0):
        raise AssertionError(
            f"leveler '{leveler_name}' emitted a non-positive span length")
    ends = starts + lengths
    if int(starts[0]) != start or int(ends[-1]) != stop \
            or np.any(starts[1:] != ends[:-1]):
        raise AssertionError(
            f"leveler '{leveler_name}' spans do not tile [{start}, {stop}) "
            f"exactly: starts={starts.tolist()}, lengths={lengths.tolist()}")


def check_permutation(permutation: np.ndarray, rows: int) -> np.ndarray:
    """Validate a logical-to-physical row map: a bijection over ``rows`` rows."""
    permutation = np.asarray(permutation, dtype=np.int64).reshape(-1)
    if permutation.size != rows:
        raise ValueError(f"permutation covers {permutation.size} rows, "
                         f"expected {rows}")
    if permutation.size and (permutation.min() < 0 or permutation.max() >= rows):
        raise ValueError("permutation entries must lie in [0, rows)")
    if np.unique(permutation).size != rows:
        raise ValueError("permutation must be a bijection (duplicate targets)")
    return permutation


def check_leveler(leveler: Optional["WearLeveler"],
                  geometry: MemoryGeometry) -> None:
    """Reject a leveler whose memory geometry differs from the stream's.

    A leveler remaps whole rows of one memory: its row count and word width
    must both match the memory it is applied to (``None`` passes).
    """
    if leveler is None:
        return
    have = (leveler.rows, leveler.geometry.word_bits)
    want = (geometry.rows, geometry.word_bits)
    if have != want:
        raise ValueError(f"leveler covers {have[0]} rows x {have[1]}-bit words "
                         f"but the memory has {want[0]} rows x {want[1]}-bit "
                         "words")


def mean_duty_from_row_counts(row_ones: np.ndarray,
                              hold_per_row: np.ndarray) -> np.ndarray:
    """Per-physical-row mean duty-cycle: the stress signal of guided levelers.

    ``row_ones`` is the accumulated per-row ones count (the ``(rows, bits)``
    ones matrix summed over its bit axis) and ``hold_per_row`` the
    accumulated per-row cell-hold total.  Both walks accumulate exact
    integers in float64, so the ratio — and therefore any ordering a leveler
    derives from it — is bit-identical between the packed and explicit
    engines.  Never-written rows report 0.
    """
    row_ones = np.asarray(row_ones, dtype=np.float64).reshape(-1)
    hold = np.asarray(hold_per_row, dtype=np.float64).reshape(-1)
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(hold > 0, row_ones / hold, 0.0)


class SpanTable:
    """A batch of constant-mapping leveling spans.

    ``starts`` and ``lengths`` are ``(num_spans,)`` int64 arrays tiling the
    requested epoch window.  The mapping of each span comes in one of two
    forms:

    * ``offsets`` — ``(num_spans,)`` per-region rotation offsets, for levelers
      whose permutations are pure region rolls (the closed-form schedule
      family: identity, rotation, start-gap).  Offset form is what enables the
      fused roll/window composition in the packed engine.
    * an explicit ``(num_spans, rows)`` permutation matrix, for table-driven
      levelers (wear-swap chunks).  :meth:`permutations` materialises this
      form for either flavour.
    """

    def __init__(self, leveler: "WearLeveler", starts: np.ndarray,
                 lengths: np.ndarray, offsets: Optional[np.ndarray] = None,
                 permutations: Optional[np.ndarray] = None):
        self.leveler = leveler
        self.starts = np.asarray(starts, dtype=np.int64).reshape(-1)
        self.lengths = np.asarray(lengths, dtype=np.int64).reshape(-1)
        if self.starts.shape != self.lengths.shape:
            raise ValueError("starts and lengths must have matching shapes")
        if (offsets is None) == (permutations is None):
            raise ValueError("exactly one of offsets/permutations is required")
        self.offsets = (None if offsets is None
                        else np.asarray(offsets, dtype=np.int64).reshape(-1)
                        % leveler.region_rows)
        self._permutations = permutations

    @property
    def num_spans(self) -> int:
        return int(self.starts.size)

    def iter_spans(self) -> Iterator[Tuple[int, int]]:
        """Yield the table's ``(start, length)`` pairs as Python ints."""
        for start, length in zip(self.starts, self.lengths):
            yield int(start), int(length)

    def permutation(self, index: int) -> np.ndarray:
        """The logical→physical row map of span ``index``."""
        if self._permutations is not None:
            return self._permutations[index]
        return self.leveler._region_rotation(int(self.offsets[index]))

    def permutations(self) -> np.ndarray:
        """Materialise the full ``(num_spans, rows)`` permutation matrix."""
        if self._permutations is not None:
            return self._permutations
        if not self.num_spans:
            return np.empty((0, self.leveler.rows), dtype=np.int64)
        return np.stack([self.permutation(k) for k in range(self.num_spans)])


class WearLeveler:
    """Base wear leveler: the identity mapping (no leveling).

    Subclasses override :meth:`_offset_at` (pure per-region rotations) or
    :meth:`permutation` / :meth:`observe` (table-driven policies) and
    :meth:`change_epochs`.  The mapping contract:

    * :meth:`permutation` returns the logical→physical row map in force for
      ``epoch``; drivers call it with non-decreasing epochs;
    * :meth:`observe` feeds the accumulated per-physical-row stress after
      ``epoch`` epochs (only consulted when :attr:`uses_feedback`);
    * :meth:`change_epochs` lists every epoch at which the map may differ
      from the previous epoch's, so the fast engine can batch the constant
      stretches; :meth:`span_tables` cuts them into span tables.
    """

    #: Registry name of the policy (overridden by subclasses).
    name = "none"
    #: Whether :meth:`observe` feedback influences the mapping.
    uses_feedback = False

    def __init__(self, geometry: MemoryGeometry, fifo_depth_tiles: int = 1):
        self.geometry = geometry
        self.fifo_depth_tiles = check_positive_int(fifo_depth_tiles, "fifo_depth_tiles")
        if geometry.rows % self.fifo_depth_tiles != 0:
            raise ValueError(f"{geometry.rows} rows cannot be divided into "
                             f"{fifo_depth_tiles} FIFO tiles")
        self.rows = geometry.rows
        #: Rows per FIFO region — the rotation policies remap within regions
        #: (a per-tile remap table), so a tile's rows stay inside the tile.
        self.region_rows = geometry.rows // self.fifo_depth_tiles
        self._identity = np.arange(self.rows, dtype=np.int64)
        self._rotation_cache: Dict[int, np.ndarray] = {}

    # ------------------------------------------------------------------ #
    # Mapping interface
    # ------------------------------------------------------------------ #
    def reset(self) -> None:
        """Return to the initial (identity) mapping and drop any feedback."""

    def permutation(self, epoch: int) -> np.ndarray:
        """The logical→physical row map in force during ``epoch``."""
        return self._region_rotation(self._offset_at(epoch))

    def observe(self, epoch: int, row_stress: np.ndarray) -> None:
        """Report per-physical-row stress accumulated over the first ``epoch`` epochs."""

    def change_epochs(self, num_inferences: int) -> np.ndarray:
        """Epochs in ``[0, num_inferences)`` at which the mapping may change."""
        if num_inferences <= 1:
            return np.zeros(1, dtype=np.int64)
        offsets = self._offset_at(np.arange(num_inferences, dtype=np.int64))
        offsets = np.broadcast_to(offsets, (num_inferences,))
        changes = np.flatnonzero(np.diff(offsets)) + 1
        return np.concatenate([[0], changes]).astype(np.int64)

    def _span_bounds(self, num_inferences: int, start: int = 0,
                     stop: Optional[int] = None
                     ) -> Tuple[np.ndarray, np.ndarray]:
        """Cut ``change_epochs`` down to the ``[start, stop)`` window.

        ``change_epochs`` is evaluated over the full ``num_inferences``
        horizon; the window restricts the spans to a sub-range of it (the
        scenario driver walks one phase's window at a time while the
        leveler's schedule spans the whole timeline).  The result is checked
        to tile the window exactly.
        """
        check_positive_int(num_inferences, "num_inferences")
        start = int(start)
        stop = num_inferences if stop is None else int(stop)
        changes = np.asarray(self.change_epochs(num_inferences), dtype=np.int64)
        inner = changes[(changes > start) & (changes < stop)]
        if stop > start:
            starts = np.concatenate([np.asarray([start], dtype=np.int64), inner])
            ends = np.concatenate([inner, np.asarray([stop], dtype=np.int64)])
            keep = ends > starts
            starts, lengths = starts[keep], (ends - starts)[keep]
        else:
            starts = np.empty(0, dtype=np.int64)
            lengths = np.empty(0, dtype=np.int64)
        _check_span_tiling(starts, lengths, start, stop, self.name)
        return starts, lengths

    def span_table(self, num_inferences: int, start: int = 0,
                   stop: Optional[int] = None) -> SpanTable:
        """The window's constant-mapping spans as one table.

        Returns a :class:`SpanTable` whose spans tile ``[start, stop)``
        exactly, carrying the per-span region-rotation ``offsets`` closed
        form (evaluated through :meth:`_offset_at` over the span starts).
        Schedule-driven levelers — everything whose mapping is a function of
        the epoch alone — emit the whole window at once; feedback-driven
        levelers cannot (their mapping depends on observed wear) and raise
        here: drivers walk :meth:`span_tables` instead, which chunks the
        window at ``observe()`` boundaries.
        """
        if self.uses_feedback:
            raise NotImplementedError(
                f"leveler '{self.name}' is feedback-driven: its span table "
                "depends on observed wear; iterate span_tables() instead")
        starts, lengths = self._span_bounds(num_inferences, start, stop)
        offsets = np.broadcast_to(
            np.asarray(self._offset_at(starts), dtype=np.int64), starts.shape)
        return SpanTable(self, starts, lengths, offsets=offsets)

    def span_tables(self, num_inferences: int, start: int = 0,
                    stop: Optional[int] = None) -> Iterator[SpanTable]:
        """Yield the window's span tables, chunked at feedback boundaries.

        The driver contract of the batched composition path: compose every
        yielded table, then (for :attr:`uses_feedback` levelers) call
        :meth:`observe` with the accumulated physical stress *before* pulling
        the next chunk — the generator resolves the next chunk's mapping only
        after control returns, so feedback-driven tables see exactly the
        stress an epoch-by-epoch walk would have shown them.
        Schedule-driven levelers yield the whole window as a single table.
        """
        yield self.span_table(num_inferences, start=start, stop=stop)

    # ------------------------------------------------------------------ #
    # Rotation helpers (shared by the offset-based subclasses)
    # ------------------------------------------------------------------ #
    def _offset_at(self, epoch):
        """Per-region rotation offset in force during ``epoch`` (0 = identity)."""
        return np.zeros_like(np.asarray(epoch, dtype=np.int64))

    def _region_rotation(self, offset: int) -> np.ndarray:
        """Permutation rotating every region's rows down by ``offset``."""
        offset = int(offset) % self.region_rows
        if offset == 0:
            return self._identity
        cached = self._rotation_cache.get(offset)
        if cached is None:
            within = (self._identity % self.region_rows + offset) % self.region_rows
            cached = (self._identity // self.region_rows) * self.region_rows + within
            self._rotation_cache[offset] = cached
        return cached

    # ------------------------------------------------------------------ #
    # Description
    # ------------------------------------------------------------------ #
    def describe(self) -> Dict[str, object]:
        """Machine-readable description (serialised into result payloads)."""
        return {"leveler": self.name,
                "fifo_depth_tiles": self.fifo_depth_tiles,
                "rows": self.rows}
