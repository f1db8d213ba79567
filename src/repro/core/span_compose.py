"""Fused composition of constant-mapping wear-leveling spans.

The packed aging engine accounts a leveled run as a sum over constant-mapping
spans: ``ones[perm_k] += span_ones_k`` for every span ``k`` the leveler's
schedule cuts the run into.  Evaluated literally that is O(spans) full passes
over the ``(rows, word_bits)`` tensor — the 11–48x leveling overhead the
bench trajectory recorded.  This module collapses the whole composition into
a constant number of NumPy passes, bit-identically, by exploiting two pieces
of structure:

* **Channel decomposition** — every deterministic policy kernel's span counts
  are a small linear combination ``span_ones_k = sum_c coeffs[c, k] *
  bases[c]`` of *fixed* basis matrices with cheap per-span scalar
  coefficients (:class:`BatchedCounts`, from
  :meth:`~repro.core.simulation.PackedSpanKernel.counts_batch`: the kernel's
  one closed form, of which a single ``counts(start, n)`` call is the
  one-span case).  Composing the whole run then only needs the
  per-*mapping* totals of each channel's coefficients, never a per-span
  tensor.
* **Offset grouping** — schedule-driven levelers (rotation, start-gap) remap
  by per-region row rolls, so spans sharing a roll offset collapse into one
  weighted roll.  The weighted roll-sum itself is evaluated either as a few
  direct slice-adds (small offset support) or as a uniform sliding-window
  via a circular cumulative sum plus a sparse residual (long runs such as
  start-gap's drift), both O(rows * word_bits).

Feedback-driven levelers (wear-swap) contribute explicit permutation chunks
instead; those compose through one fused sparse mat-vec over a ``(row,
span)`` index matrix (SciPy's ``csr_matvecs`` when available, a per-span
gather fallback otherwise), while the per-chunk feedback signal is maintained
as ``(rows,)`` running row totals — never a full-matrix reduction.

DNN-Life's kernel has no fixed basis — its TRBG draws fresh randomness per
span, in call order — but it splits into a *draw* stage (the per-span
``(num_blocks, num_groups)`` enable counts) and a *reduce* stage linear in
those counts (:class:`~repro.core.simulation.TrbgReduction`).
:meth:`SpanComposer.add_draws` draws every span in table order, sums the
enables of spans sharing a mapping (a roll offset), keeps the feedback row
totals from a cheap popcount-weighted ``(blocks, words)`` pass, and
:meth:`SpanComposer.finalize` reduces all mappings in one fused pass over the
packed tensor, rolling or scattering each chunk into the physical counts.
Both forms meet in :func:`compose_leveled`, the one leveled walk of the
packed single-run and scenario engines.

Exactness: every basis entry, coefficient, and weight is an exact integer
held in float64 (far below 2**53), so products and partial sums are exact and
*any* regrouping of the summation — by channel, by offset, through a
cumulative-sum window, or via the sparse mat-vec — produces bit-identical
float64 results to the iterative span loop.  The golden-SHA and
packed-vs-explicit batteries in the test suite pin this down.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple, Union

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.simulation import PackedSpanKernel, TrbgSpanKernel
    from repro.leveling.remap import SpanTable, WearLeveler

__all__ = ["BatchedCounts", "SpanComposer", "compose_leveled"]

try:  # SciPy is optional: the composer falls back to per-span gathers.
    from scipy.sparse import _sparsetools as _scipy_sparsetools

    _CSR_MATVECS = getattr(_scipy_sparsetools, "csr_matvecs", None)
except Exception:  # pragma: no cover - exercised only without SciPy
    _CSR_MATVECS = None

#: Offset supports up to this size are composed as direct slice-roll adds;
#: larger supports go through the cumulative-sum window decomposition.
_DIRECT_ROLLS = 6

#: Pending TRBG mappings are reduced (one fused pass) once this many have
#: accumulated, or once their summed enables hold this many bytes: bounds the
#: composer's memory and the per-chunk work on long feedback runs.
_FOLD_MAPPINGS = 64
_FOLD_BYTES = 32 << 20


@dataclass
class BatchedCounts:
    """A policy kernel's closed form over a batch of spans.

    ``span_ones_k = sum_c coeffs[c, k] * bases[c]`` and ``span_writes_k =
    lengths[k] * writes`` are span ``k``'s counts; every entry is an exact
    integer, so any regrouping yields the same float64 bits.  ``bases`` must
    be identical objects across every ``counts_batch`` call of one kernel —
    the composer folds coefficients across chunks under that identity.
    """

    #: ``C`` fixed basis matrices, each ``(rows, word_bits)`` float64.
    bases: List[np.ndarray]
    #: ``(C, num_spans)`` float64 per-span basis coefficients.
    coeffs: np.ndarray
    #: ``(rows,)`` float64 per-inference write counts.
    writes: np.ndarray
    #: ``C`` cached ``bases[c].sum(axis=1)`` row reductions (feedback signal).
    row_bases: List[np.ndarray]


def _roll_axpy(out3: np.ndarray, base3: np.ndarray, offset: int,
               weight: float) -> None:
    """``out3[g, j] += weight * base3[g, (j - offset) % R]`` via two slices."""
    region_rows = base3.shape[1]
    offset = int(offset) % region_rows
    if offset == 0:
        if weight == 1.0:
            out3 += base3
        else:
            out3 += weight * base3
        return
    out3[:, offset:] += weight * base3[:, :region_rows - offset]
    out3[:, :offset] += weight * base3[:, region_rows - offset:]


def _window_axpy(out3: np.ndarray, base3: np.ndarray, weight: float,
                 first: int, count: int) -> None:
    """Add ``weight * sum_{o in [first, first+count)} roll_o(base3)``.

    The circular sliding-window sum is a cumulative sum over the region axis
    extended by ``count - 1`` wrapped rows; partial sums stay exact integers,
    so the window difference is bitwise equal to summing the rolls directly.
    """
    regions, region_rows, width = base3.shape
    if count <= 0:
        return
    extended = (np.concatenate([base3, base3[:, :count - 1]], axis=1)
                if count > 1 else base3)
    prefix = np.concatenate(
        [np.zeros((regions, 1, width), dtype=np.float64),
         np.cumsum(extended, axis=1, dtype=np.float64)], axis=1)
    window = prefix[:, count:] - prefix[:, :-count]
    _roll_axpy(out3, window, (first + count - 1) % region_rows, weight)


def _circular_run(support: np.ndarray, region_rows: int
                  ) -> Optional[Tuple[int, int]]:
    """``(first, count)`` if ``support`` is one circularly contiguous run."""
    if support.size == region_rows:
        return 0, int(region_rows)
    internal = np.flatnonzero(np.diff(support) > 1)
    wrap_gap = int(support[0]) + region_rows - int(support[-1]) - 1
    if internal.size == 0:
        return int(support[0]), int(support.size)
    if internal.size == 1 and wrap_gap == 0:
        return int(support[int(internal[0]) + 1]), int(support.size)
    return None


def _apply_offset_weights(out: np.ndarray, base: np.ndarray,
                          weights: np.ndarray, region_rows: int) -> None:
    """``out += sum_o weights[o] * region_roll_o(base)`` in O(1) passes.

    ``out``/``base`` are ``(rows, width)`` with regions contiguous along the
    row axis; ``weights`` is the ``(region_rows,)`` exact-integer weight per
    roll offset.  Small supports use direct rolls; contiguous runs split into
    a uniform window (cumulative sum) plus a small residual of rolls; anything
    else falls back to one roll per occupied offset — always exact, the path
    choice only affects speed.
    """
    support = np.flatnonzero(weights)
    if not support.size:
        return
    regions = out.shape[0] // region_rows
    out3 = out.reshape(regions, region_rows, -1)
    base3 = base.reshape(regions, region_rows, -1)
    if support.size > _DIRECT_ROLLS:
        run = _circular_run(support, region_rows)
        if run is not None:
            uniform = float(weights[support].min())
            residual = weights.copy()
            residual[support] -= uniform
            residual_support = np.flatnonzero(residual)
            if residual_support.size <= max(_DIRECT_ROLLS, support.size // 4):
                _window_axpy(out3, base3, uniform, run[0], run[1])
                for offset in residual_support:
                    _roll_axpy(out3, base3, int(offset),
                               float(residual[offset]))
                return
    for offset in support:
        _roll_axpy(out3, base3, int(offset), float(weights[offset]))


def _weighted_perm_matvec(out: np.ndarray, base: np.ndarray,
                          indices: np.ndarray, weights: np.ndarray) -> None:
    """``out[p] += sum_k weights[k] * base[indices[p, k]]`` — one fused pass.

    ``indices`` is the ``(rows, num_spans)`` int32 matrix of inverse
    permutations (span k's logical occupant of each physical row).  With
    SciPy the whole sum is one duplicate-tolerant CSR mat-vec (row-major
    index layout, trivial indptr — no sparse constructor, no sort); without
    it, one gather-accumulate per span.
    """
    rows, num_spans = indices.shape
    width = base.shape[1]
    if _CSR_MATVECS is not None and base.flags.c_contiguous:
        indptr = np.arange(rows + 1, dtype=np.int32) * np.int32(num_spans)
        data = np.ascontiguousarray(
            np.broadcast_to(weights, (rows, num_spans)))
        _CSR_MATVECS(rows, rows, width, indptr, indices.ravel(),
                     data.ravel(), base.ravel(), out.ravel())
        return
    for k in range(num_spans):
        out += weights[k] * base[indices[:, k]]


class SpanComposer:
    """Accumulates leveled span tables and materialises physical counts.

    Drivers feed every :class:`~repro.leveling.remap.SpanTable` chunk with
    its :class:`BatchedCounts` through :meth:`add_table` (or, for the
    DNN-Life kernel, its TRBG draws through :meth:`add_draws`);
    :meth:`finalize` then produces the composed ``(ones, writes)`` physical
    counts in a constant number of passes.  With ``track_feedback`` the
    composer also maintains ``(rows,)`` running totals of the physical
    ones/writes after each chunk (:meth:`row_totals`) — the wear-map stress
    signal feedback-driven levelers observe between chunks — at per-chunk
    vector cost instead of a full-matrix reduction.
    """

    def __init__(self, rows: int, word_bits: int, region_rows: int,
                 track_feedback: bool = False):
        self.rows = int(rows)
        self.word_bits = int(word_bits)
        self.region_rows = int(region_rows)
        self._bases: Optional[List[np.ndarray]] = None
        self._writes_base: Optional[np.ndarray] = None
        self._row_bases: Optional[List[np.ndarray]] = None
        #: Offset-form contributions: (offsets, coeffs, lengths) per table.
        self._offset_records: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        #: Permutation-form contributions, one entry per span.
        self._perm_inverses: List[np.ndarray] = []
        self._perm_coeffs: List[np.ndarray] = []
        self._perm_lengths: List[float] = []
        self._track = bool(track_feedback)
        self._row_ones = (np.zeros(self.rows, dtype=np.float64)
                          if self._track else None)
        self._row_writes = (np.zeros(self.rows, dtype=np.float64)
                            if self._track else None)
        self._identity32 = None
        #: Pending TRBG mappings of :meth:`add_draws`: the kernel's reduce
        #: stage, then per mapping its roll offset (offset-form spans, slot
        #: index in ``_draw_slots``) or permutation, summed enables and summed
        #: span length.
        self._reduction = None
        self._draw_slots: Dict[int, int] = {}
        self._draw_maps: List[Union[int, np.ndarray]] = []
        self._draw_enables: List[np.ndarray] = []
        self._draw_lengths: List[int] = []
        #: Dense ``(ones, writes)`` accumulators of the folded TRBG mappings.
        self._dense: Optional[Tuple[np.ndarray, np.ndarray]] = None

    def _bind(self, batched: BatchedCounts) -> None:
        if self._bases is None:
            self._bases = batched.bases
            self._writes_base = batched.writes
            self._row_bases = batched.row_bases
        elif batched.bases is not self._bases and any(
                a is not b for a, b in zip(batched.bases, self._bases)):
            raise ValueError("SpanComposer requires a single kernel: basis "
                             "matrices changed between chunks")

    def add_table(self, table: "SpanTable", batched: BatchedCounts) -> None:
        """Fold one span table's contribution into the composition."""
        if not table.num_spans:
            return
        self._bind(batched)
        if table.offsets is not None:
            if self._track:
                raise NotImplementedError(
                    "feedback tracking over offset-form tables is not "
                    "supported: feedback levelers emit permutation chunks")
            self._offset_records.append(
                (table.offsets, batched.coeffs, table.lengths))
            return
        if self._identity32 is None:
            self._identity32 = np.arange(self.rows, dtype=np.int32)
        permutations = table.permutations()
        for k in range(table.num_spans):
            inverse = np.empty(self.rows, dtype=np.int32)
            inverse[permutations[k]] = self._identity32
            self._perm_inverses.append(inverse)
            coeffs = np.asarray(batched.coeffs[:, k], dtype=np.float64)
            length = float(table.lengths[k])
            self._perm_coeffs.append(coeffs)
            self._perm_lengths.append(length)
            if self._track:
                gathered = self._row_bases[0][inverse]
                if coeffs[0] != 1.0:
                    gathered = gathered * coeffs[0]
                for channel in range(1, len(self._row_bases)):
                    if coeffs[channel] != 0.0:
                        gathered += (coeffs[channel]
                                     * self._row_bases[channel][inverse])
                self._row_ones += gathered
                self._row_writes += length * self._writes_base[inverse]

    def add_draws(self, table: "SpanTable", kernel: "TrbgSpanKernel",
                  origin: int) -> None:
        """Draw one span table's TRBG enables and fold them by mapping.

        The kernel's draw stage runs once per span, in span order, with the
        span's start shifted by ``origin`` (a scenario phase's first epoch:
        policy state is phase-local), so the RNG sequence is the per-span
        walk's.  Spans sharing a roll offset share a mapping and have their
        enable counts summed (exact for integers); permutation-form spans
        (feedback chunks) each keep their own.  The reduce stage runs later,
        for all pending mappings at once (:meth:`_fold_draws`).
        """
        reduction = self._reduction = kernel.reduction
        for index, (start, length) in enumerate(table.iter_spans()):
            enables = kernel.draw(start - origin, length)
            if table.offsets is None:
                mapping, slot = table.permutation(index), None
            else:
                mapping = int(table.offsets[index])
                slot = self._draw_slots.get(mapping)
            if slot is None:
                if table.offsets is not None:
                    self._draw_slots[mapping] = len(self._draw_maps)
                self._draw_maps.append(mapping)
                self._draw_enables.append(enables)
                self._draw_lengths.append(length)
            else:
                self._draw_lengths[slot] += length
                self._draw_enables[slot] = np.add(
                    self._draw_enables[slot], enables,
                    dtype=np.min_scalar_type(self._draw_lengths[slot]))
            if self._track:
                permutation = table.permutation(index)
                self._row_ones[permutation] += reduction.row_totals(enables,
                                                                    length)
                self._row_writes[permutation] += reduction.writes * length
            if (len(self._draw_maps) >= _FOLD_MAPPINGS
                    or sum(e.nbytes for e in self._draw_enables) >= _FOLD_BYTES):
                self._fold_draws()

    def _fold_draws(self) -> None:
        """Reduce every pending TRBG mapping in one fused pass.

        One :meth:`~repro.core.simulation.TrbgReduction.numerator_chunks`
        pass over the packed tensor yields every mapping's logical counts a
        chunk of rows at a time; each chunk is rolled (offset form) or
        scattered (permutation form) into the dense physical accumulators.
        """
        if not self._draw_maps:
            return
        if self._dense is None:
            self._dense = (np.zeros((self.rows, self.word_bits), dtype=np.float64),
                           np.zeros(self.rows, dtype=np.float64))
        ones, writes = self._dense
        reduction = self._reduction
        region_rows = self.region_rows
        for rows, numerators in reduction.numerator_chunks(
                np.stack(self._draw_enables), np.asarray(self._draw_lengths)):
            count = rows.stop - rows.start
            base = rows.start - rows.start % region_rows
            for mapping, numerator in zip(self._draw_maps, numerators):
                if isinstance(mapping, np.ndarray):
                    # A bijection has no repeated targets: gather, add, put
                    # (faster than a fancy-index ``+=``).
                    targets = mapping[rows]
                    gathered = np.take(ones, targets, axis=0)
                    gathered += numerator
                    ones[targets] = gathered
                    continue
                first = (rows.start - base + mapping) % region_rows
                head = min(count, region_rows - first)
                ones[base + first:base + first + head] += numerator[:head]
                ones[base:base + count - head] += numerator[head:]
        for mapping, length in zip(self._draw_maps, self._draw_lengths):
            if isinstance(mapping, np.ndarray):
                writes[mapping] += reduction.writes * length
            else:
                _roll_axpy(writes.reshape(-1, region_rows, 1),
                           reduction.writes.reshape(-1, region_rows, 1),
                           mapping, float(length))
        self._draw_slots.clear()
        self._draw_maps.clear()
        self._draw_enables.clear()
        self._draw_lengths.clear()

    def row_totals(self) -> Tuple[np.ndarray, np.ndarray]:
        """Running physical ``(row_ones, row_writes)`` totals (feedback)."""
        if not self._track:
            raise RuntimeError("composer built without track_feedback")
        return self._row_ones, self._row_writes

    def finalize(self) -> Tuple[np.ndarray, np.ndarray]:
        """Materialise the composed physical ``(ones, writes)`` counts."""
        self._fold_draws()
        if self._dense is not None:
            ones, writes = self._dense
        else:
            ones = np.zeros((self.rows, self.word_bits), dtype=np.float64)
            writes = np.zeros(self.rows, dtype=np.float64)
        if self._bases is None:  # no batched spans
            return ones, writes
        num_channels = len(self._bases)
        if self._offset_records:
            region_rows = self.region_rows
            gamma = np.zeros((num_channels, region_rows), dtype=np.float64)
            gamma_writes = np.zeros(region_rows, dtype=np.float64)
            for offsets, coeffs, lengths in self._offset_records:
                for channel in range(num_channels):
                    gamma[channel] += np.bincount(
                        offsets, weights=coeffs[channel],
                        minlength=region_rows)
                gamma_writes += np.bincount(
                    offsets, weights=lengths.astype(np.float64),
                    minlength=region_rows)
            for channel in range(num_channels):
                _apply_offset_weights(ones, self._bases[channel],
                                      gamma[channel], region_rows)
            _apply_offset_weights(writes.reshape(-1, 1),
                                  self._writes_base.reshape(-1, 1),
                                  gamma_writes, region_rows)
        if self._perm_inverses:
            indices = np.stack(self._perm_inverses, axis=1)
            coeffs = np.stack(self._perm_coeffs, axis=1)
            for channel in range(num_channels):
                active = np.flatnonzero(coeffs[channel])
                if not active.size:
                    continue
                if active.size == indices.shape[1]:
                    _weighted_perm_matvec(ones, self._bases[channel],
                                          indices, coeffs[channel])
                else:
                    _weighted_perm_matvec(ones, self._bases[channel],
                                          np.ascontiguousarray(
                                              indices[:, active]),
                                          coeffs[channel][active])
            for inverse, length in zip(self._perm_inverses,
                                       self._perm_lengths):
                writes += length * self._writes_base[inverse]
        return ones, writes


def compose_leveled(kernel: Union["PackedSpanKernel", "TrbgSpanKernel"],
                    leveler: "WearLeveler",
                    horizon: int, start: int = 0, stop: Optional[int] = None,
                    prior_rows: Optional[Tuple[np.ndarray, np.ndarray]] = None,
                    ) -> Tuple[np.ndarray, np.ndarray, List["SpanTable"]]:
    """Compose ``kernel`` over the leveler's spans of ``[start, stop)``.

    The one leveled walk of the packed engines.  ``horizon`` is the length
    of the leveler's whole schedule; ``start`` doubles as the kernel origin,
    so kernel starts are window-local while the tables keep addressing the
    leveler by global epoch.  Deterministic kernels go through
    :meth:`SpanComposer.add_table`; the DNN-Life kernel
    (:class:`~repro.core.simulation.TrbgSpanKernel`) draws every span in
    order through :meth:`SpanComposer.add_draws` and is reduced in one fused
    pass at :meth:`SpanComposer.finalize`.  The explicit engines' leveled
    walk, :func:`~repro.core.simulation.replay_epochs`, is its oracle.  Feedback levelers observe the
    accumulated physical stress at the end of every table — on top of the
    ``(row_ones, row_writes)`` totals of earlier windows in ``prior_rows``,
    which are advanced in place by this window's totals.

    Returns the physical ``(ones, writes)`` counts of the window and the
    composed span tables, oldest first.
    """
    from repro.core.simulation import TrbgSpanKernel
    from repro.leveling.remap import mean_duty_from_row_counts

    word_bits = leveler.geometry.word_bits
    feedback = leveler.uses_feedback
    composer = SpanComposer(leveler.rows, word_bits, leveler.region_rows,
                            track_feedback=feedback)
    tables: List["SpanTable"] = []
    for table in leveler.span_tables(horizon, start=start, stop=stop):
        if not table.num_spans:
            continue
        if isinstance(kernel, TrbgSpanKernel):
            composer.add_draws(table, kernel, start)
        else:
            composer.add_table(table, kernel.counts_batch(table.starts - start,
                                                          table.lengths))
        tables.append(table)
        if feedback:
            row_ones, row_writes = composer.row_totals()
            if prior_rows is not None:
                row_ones = prior_rows[0] + row_ones
                row_writes = prior_rows[1] + row_writes
            leveler.observe(int(table.starts[-1] + table.lengths[-1]),
                            mean_duty_from_row_counts(row_ones,
                                                      row_writes * float(word_bits)))
    if feedback and prior_rows is not None:
        row_ones, row_writes = composer.row_totals()
        prior_rows[0][...] += row_ones
        prior_rows[1][...] += row_writes
    ones, writes = composer.finalize()
    return ones, writes, tables
