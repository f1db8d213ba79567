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
  direct shifted adds (small offset support) or as a uniform sliding window
  plus a sparse residual (long runs such as start-gap's drift), both
  O(rows * word_bits).

Feedback-driven levelers (wear-swap) contribute permutation chunks instead,
each given by the inverse map the leveler keeps; those compose by
gathering each basis through every span's inverse, while the per-chunk
feedback signal is maintained as ``(rows,)`` running row totals — never a
full-matrix reduction.  Shifted adds and gathers share one blocked pass
(:func:`_weighted_gather`): the basis is read in the narrowest unsigned
dtype that holds it, the mappings sharing a coefficient are summed a block
of rows at a time, and each block is scaled into the counts once.

DNN-Life's kernel has no fixed basis — its TRBG draws fresh randomness per
span, in call order — but it splits into a *draw* stage (the per-span
``(num_blocks, num_groups)`` enable counts) and a *reduce* stage linear in
those counts (:class:`~repro.core.simulation.TrbgReduction`).
:meth:`SpanComposer.add_draws` draws every span in table order, sums the
enables of spans sharing a mapping (a roll offset), keeps the feedback row
totals from a cheap popcount-weighted ``(blocks, words)`` pass, and
:meth:`SpanComposer.finalize` reduces all mappings in one fused pass over the
packed tensor and folds their whole logical counts into the physical counts
through the same blocked integer pass.
Both forms meet in :func:`compose_leveled`, the one leveled walk of the
packed single-run and scenario engines.

Exactness: every basis entry, coefficient, and weight is a non-negative
integer, and the counts are held in the unsigned dtype of their bound
(:func:`count_dtype`: at most one stored '1' per write), so *any* regrouping
of the summation — by channel, by offset, through a sliding window, or via
gathers — produces the same counts as the iterative span loop.  The
golden-SHA and packed-vs-explicit batteries in the test suite pin this down.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.simulation import PackedSpanKernel, TrbgSpanKernel
    from repro.leveling.remap import SpanTable, WearLeveler

__all__ = ["BatchedCounts", "SpanComposer", "compact_basis", "compact_dtype",
           "compose_leveled", "count_dtype"]

#: Offset supports up to this size are composed as direct shifted adds;
#: larger supports go through the sliding-window decomposition.
_DIRECT_ROLLS = 24

#: Pending TRBG mappings are reduced (one fused pass) once this many have
#: accumulated, or once their summed enables and whole logical counts hold
#: this many bytes: bounds the composer's memory and the per-chunk work on
#: long feedback runs.
_FOLD_MAPPINGS = 64
_FOLD_BYTES = 32 << 20

#: Physical rows per block of the blocked row passes (:func:`_mapped_sum`,
#: :func:`_window_axpy`): every temporary stays cache-sized instead of
#: page-faulting in whole-matrix ones.
_GATHER_ROWS = 8192


@dataclass
class BatchedCounts:
    """A policy kernel's closed form over a batch of spans.

    ``span_ones_k = sum_c coeffs[c, k] * bases[c]`` and ``span_writes_k =
    lengths[k] * writes`` are span ``k``'s counts; every entry is a non-negative
    integer, so any regrouping yields the same counts.  ``bases`` must
    be identical objects across every ``counts_batch`` call of one kernel —
    the composer folds coefficients across chunks under that identity.  A
    deterministic kernel lives as long as its stream, so every composition
    on the stream reads the same bases; they are read-only.
    """

    #: ``C`` fixed read-only basis matrices, each ``(rows, word_bits)``, in
    #: their narrowest unsigned dtype (:func:`compact_basis`).
    bases: List[np.ndarray]
    #: ``(C, num_spans)`` int64 per-span basis coefficients.
    coeffs: np.ndarray
    #: ``(rows,)`` integer per-inference write counts.
    writes: np.ndarray
    #: The largest magnitude each basis holds, so no pass re-scans it.
    magnitudes: List[int]


def compact_dtype(low: int, high: int) -> np.dtype:
    """The narrowest integer dtype holding every value in ``[low, high]``."""
    if low >= 0:
        return np.min_scalar_type(high)
    return np.result_type(np.min_scalar_type(low), np.min_scalar_type(-high - 1))


def count_dtype(inferences: int, max_writes: int) -> np.dtype:
    """The unsigned dtype of counts (and span coefficients) over ``inferences``:
    a cell stores at most one '1' per write, and a row takes at most
    ``max_writes`` writes an inference."""
    return np.min_scalar_type(int(inferences) * max(int(max_writes), 1))


#: A row mapping of one span: a per-region roll offset, or the span's
#: physical→logical inverse permutation.
RowMapping = Union[int, np.ndarray]


def _add_mapped(total: np.ndarray, source: np.ndarray, mapping: RowMapping,
                start: int, region_start: int, region_rows: int,
                ufunc: np.ufunc = np.add) -> None:
    """``total = ufunc(total, source[mapping(p)])`` over one block of rows.

    The block covers physical rows ``[start, start + len(total))`` inside
    the region that begins at ``region_start``.  A roll offset maps row
    ``p`` to ``region_start + (p - region_start - offset) % region_rows``
    (at most two slice operations); an inverse permutation is gathered.
    """
    count = total.shape[0]
    if isinstance(mapping, np.ndarray):
        ufunc(total, np.take(source, mapping[start:start + count], axis=0),
              out=total)
        return
    first = region_start + (start - region_start - mapping) % region_rows
    head = min(count, region_start + region_rows - first)
    ufunc(total[:head], source[first:first + head], out=total[:head])
    if head < count:
        ufunc(total[head:], source[region_start:region_start + count - head],
              out=total[head:])


def _mapped_sum(out: np.ndarray, terms: Sequence[Tuple[np.ndarray, RowMapping]],
                dtype: np.dtype, region_rows: int, weight: int = 1) -> None:
    """``out[p] += weight * sum_t source_t[mapping_t(p)]`` a block at a time.

    Each block of physical rows sums its terms in ``dtype`` (which holds
    their total) and is scaled into ``out`` in ``out``'s own dtype (which
    holds the composed counts), so no temporary outgrows a block.
    """
    step = min(_GATHER_ROWS, region_rows)
    total = np.empty((step,) + out.shape[1:], dtype=dtype)
    for region_start in range(0, out.shape[0], region_rows):
        region_stop = region_start + region_rows
        for start in range(region_start, region_stop, step):
            block = total[:min(step, region_stop - start)]
            block[...] = 0
            for source, mapping in terms:
                _add_mapped(block, source, mapping, start, region_start,
                            region_rows)
            _add_scaled(out[start:start + block.shape[0]], block, weight)


def _add_scaled(out: np.ndarray, block: np.ndarray, weight: int) -> None:
    """``out += weight * block``, the product formed in ``out``'s dtype."""
    if weight != 1:
        block = np.multiply(block, weight, dtype=out.dtype)
    out += block


def compact_basis(base: np.ndarray) -> Tuple[np.ndarray, int]:
    """Integer ``base`` in the narrowest dtype that holds it, and the
    largest magnitude it holds."""
    low, high = int(base.min(initial=0)), int(base.max(initial=0))
    return base.astype(compact_dtype(low, high), copy=False), max(-low, high)


def _weighted_gather(out: np.ndarray, base: np.ndarray,
                     mappings: Sequence[RowMapping], weights: np.ndarray,
                     region_rows: int, magnitude: Optional[int] = None) -> None:
    """``out[p] += sum_k weights[k] * base[mappings[k](p)]`` in integers.

    The non-negative integer base is read in the narrowest dtype that
    holds it (:func:`compact_basis`; a ``base`` given with its
    ``magnitude`` is read as is), the mappings sharing a weight are summed
    in the narrowest dtype that holds their total, and each such group is
    scaled into ``out`` once per block of rows (:func:`_mapped_sum`): equal
    to any other summation order, at a fraction of its memory traffic.
    ``mappings`` may be roll offsets (``range(region_rows)`` for one weight
    per offset) or inverse permutations.
    """
    if magnitude is None:
        base, magnitude = compact_basis(base)
    for weight in np.unique(weights[weights != 0]):
        members = np.flatnonzero(weights == weight)
        dtype = np.result_type(base.dtype,
                               compact_dtype(0, members.size * magnitude))
        _mapped_sum(out, [(base, mappings[k]) for k in members], dtype,
                    region_rows, int(weight))


def _window_axpy(out: np.ndarray, base: np.ndarray, weight: int,
                 first: int, count: int, region_rows: int,
                 magnitude: int) -> None:
    """Add ``weight * sum_{o in [first, first+count)} roll_o(base)``.

    Window ``m`` of a region sums its base rows ``m .. m + count - 1``
    (circularly) and lands on row ``m + first + count - 1``.  Consecutive
    windows differ by one row in and one row out, so a block of windows is
    the cumulative sum of those differences, carried over from the block
    before: O(rows) however wide the window, with every partial sum below
    ``2 * count * magnitude`` in magnitude (``magnitude`` bounds the
    non-negative ``base``), held in the narrowest signed dtype for that
    bound; the window sums land as the buffer's unsigned view.
    """
    bound = 2 * count * magnitude
    dtype = np.result_type(base.dtype, compact_dtype(-bound, bound))
    unsigned = np.dtype(f"u{dtype.itemsize}")
    shift = (first + count - 1) % region_rows
    step = min(_GATHER_ROWS, region_rows)
    window = np.empty((step,) + base.shape[1:], dtype=dtype)
    for region_start in range(0, out.shape[0], region_rows):
        region = base[region_start:region_start + region_rows]
        # The window before the first: rows R - 1, 0, ..., count - 2.
        carry = region[-1] + region[:count - 1].sum(axis=0, dtype=dtype)
        for start in range(0, region_rows, step):
            block = window[:min(step, region_rows - start)]
            block[...] = 0
            _add_mapped(block, region, 1 - count, start, 0, region_rows)
            _add_mapped(block, region, 1, start, 0, region_rows,
                        ufunc=np.subtract)
            np.cumsum(block, axis=0, dtype=dtype, out=block)
            block += carry
            carry = block[-1].copy()
            sums = block.view(unsigned)
            # Window ``m`` lands on row ``m + shift``: at most two slices.
            size = block.shape[0]
            land = region_start + (start + shift) % region_rows
            head = min(size, region_start + region_rows - land)
            _add_scaled(out[land:land + head], sums[:head], weight)
            _add_scaled(out[region_start:region_start + size - head],
                        sums[head:], weight)


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
                          weights: np.ndarray, region_rows: int,
                          magnitude: Optional[int] = None) -> None:
    """``out += sum_o weights[o] * region_roll_o(base)`` in O(1) passes.

    ``out``/``base`` are ``(rows, ...)`` with regions contiguous along the
    row axis; ``weights`` is the ``(region_rows,)`` non-negative integer weight
    per roll offset.  Small supports are direct shifted adds; a contiguous run
    splits into a uniform sliding window plus a small residual of shifted
    adds; anything else is one shifted add per occupied offset.  Every sum
    runs a block of rows at a time in integers — the path choice only
    affects speed.  ``magnitude`` is as in :func:`_weighted_gather`.
    """
    support = np.flatnonzero(weights)
    if not support.size:
        return
    if magnitude is None:
        base, magnitude = compact_basis(base)
    if support.size > _DIRECT_ROLLS:
        run = _circular_run(support, region_rows)
        if run is not None:
            uniform = int(weights[support].min())
            residual = weights.copy()
            residual[support] -= uniform
            if (np.count_nonzero(residual)
                    <= max(_DIRECT_ROLLS, support.size // 4)):
                _window_axpy(out, base, uniform, run[0], run[1], region_rows,
                             magnitude)
                weights = residual
    _weighted_gather(out, base, range(region_rows), weights, region_rows,
                     magnitude)


class SpanComposer:
    """Accumulates leveled span tables and materialises physical counts.

    Drivers feed every :class:`~repro.leveling.remap.SpanTable` chunk with
    its :class:`BatchedCounts` through :meth:`add_table` (or, for the
    DNN-Life kernel, its TRBG draws through :meth:`add_draws`);
    :meth:`finalize` then produces the composed ``(ones, writes)`` physical
    counts in a constant number of passes, in the :func:`count_dtype` of
    every span composed.  With ``track_feedback`` the composer also
    maintains float64 ``(rows,)`` running totals of the physical
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
        self._magnitudes: List[int] = []
        self._writes_base: Optional[np.ndarray] = None
        self._row_bases: Optional[List[np.ndarray]] = None
        #: The per-inference write count every row shares, if they all do.
        self._uniform_writes: Optional[int] = None
        #: The most writes a row takes per inference, and the inferences
        #: composed so far: together they bound every count (:meth:`_counts`).
        self._max_writes = 0
        self._length = 0
        self._gathered: Optional[np.ndarray] = None
        #: Offset-form contributions: (offsets, coeffs, lengths) per table.
        self._offset_records: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        #: Permutation-form contributions, one entry per span.
        self._perm_inverses: List[np.ndarray] = []
        self._perm_coeffs: List[np.ndarray] = []
        self._perm_lengths: List[int] = []
        self._track = bool(track_feedback)
        self._row_ones = (np.zeros(self.rows, dtype=np.float64)
                          if self._track else None)
        self._row_writes = (np.zeros(self.rows, dtype=np.float64)
                            if self._track else None)
        #: Pending TRBG mappings of :meth:`add_draws`: the kernel's reduce
        #: stage, then per mapping its roll offset (offset-form spans, slot
        #: index in ``_draw_slots``) or inverse permutation, summed enables
        #: and summed span length.
        self._reduction = None
        self._draw_slots: Dict[int, int] = {}
        self._draw_maps: List[RowMapping] = []
        self._draw_enables: List[np.ndarray] = []
        self._draw_lengths: List[int] = []
        #: Dense ``(ones, writes)`` accumulators (:meth:`_counts`).
        self._dense: Optional[Tuple[np.ndarray, np.ndarray]] = None

    def _bind_writes(self, writes: np.ndarray) -> None:
        """Take the kernel's per-inference ``(rows,)`` write counts."""
        if writes is self._writes_base:
            return
        self._writes_base = writes
        self._max_writes = int(writes.max(initial=0))
        self._uniform_writes = (self._max_writes if writes.size and bool(
            (writes == self._max_writes).all()) else None)

    def _bind(self, batched: BatchedCounts) -> None:
        if self._bases is None:
            self._bases, self._magnitudes = batched.bases, batched.magnitudes
            self._bind_writes(batched.writes)
            if self._track:
                # Formed once per composition (exact in float64); einsum is
                # several times faster than ``sum(axis=1)`` over a few columns.
                self._row_bases = [np.einsum("ij->i", basis, dtype=np.float64)
                                   for basis in self._bases]
                self._gathered = np.empty(self.rows, dtype=np.float64)
        elif batched.bases is not self._bases and any(
                a is not b for a, b in zip(batched.bases, self._bases)):
            raise ValueError("SpanComposer requires a single kernel: basis "
                             "matrices changed between chunks")

    def _check_trackable(self, table: "SpanTable") -> None:
        """Feedback tracking needs permutation-form tables (the only form
        feedback levelers emit): their spans carry the inverse maps."""
        if self._track and table.offsets is not None:
            raise NotImplementedError(
                "feedback tracking over offset-form tables is not "
                "supported: feedback levelers emit permutation chunks")

    def add_table(self, table: "SpanTable", batched: BatchedCounts) -> None:
        """Fold one span table's contribution into the composition."""
        if not table.num_spans:
            return
        self._bind(batched)
        self._check_trackable(table)
        self._length += int(table.lengths.sum(dtype=np.int64))
        if table.offsets is not None:
            self._offset_records.append(
                (table.offsets, batched.coeffs, table.lengths))
            return
        for k in range(table.num_spans):
            inverse = table.inverse(k)
            self._perm_inverses.append(inverse)
            coeffs = batched.coeffs[:, k]
            length = int(table.lengths[k])
            self._perm_coeffs.append(coeffs)
            self._perm_lengths.append(length)
            if self._track:
                # One preallocated gather buffer: a fresh row-length array
                # per chunk would page-fault in new memory every time.
                gathered = self._gathered
                for coeff, row_base in zip(coeffs, self._row_bases):
                    if coeff:
                        np.take(row_base, inverse, out=gathered, mode="clip")
                        if coeff != 1:
                            gathered *= coeff
                        self._row_ones += gathered
                self._add_writes(self._row_writes, [inverse], [length])

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
        self._check_trackable(table)
        reduction = self._reduction = kernel.reduction
        self._bind_writes(reduction.writes)
        for index, (start, length) in enumerate(table.iter_spans()):
            enables = kernel.draw(start - origin, length)
            self._length += int(length)
            if table.offsets is None:
                mapping, slot = table.inverse(index), None
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
                self._row_ones += np.take(
                    reduction.row_totals(enables, length), mapping)
                self._add_writes(self._row_writes, [mapping], [length])
            if (len(self._draw_maps) >= _FOLD_MAPPINGS
                    or self._pending_bytes() >= _FOLD_BYTES):
                self._fold_draws()

    def _pending_bytes(self) -> int:
        """Bytes the pending TRBG mappings hold, or will hold at the fold."""
        if not self._draw_maps:
            return 0
        return (sum(e.nbytes for e in self._draw_enables)
                + len(self._draw_maps) * self.rows * self.word_bits
                * count_dtype(max(self._draw_lengths), self._max_writes).itemsize)

    def _counts(self) -> Tuple[np.ndarray, np.ndarray]:
        """The dense ``(ones, writes)`` accumulators, widened to the
        :func:`count_dtype` of every span composed so far."""
        dtype = count_dtype(self._length, self._max_writes)
        if self._dense is None:
            self._dense = (np.zeros((self.rows, self.word_bits), dtype),
                           np.zeros(self.rows, dtype))
        self._dense = tuple(counts.astype(dtype, copy=False) for counts in self._dense)
        return self._dense

    def _add_writes(self, writes: np.ndarray, mappings: Sequence[RowMapping],
                    lengths: Sequence[int]) -> None:
        """Add the physical writes of spans of ``lengths`` inferences under
        ``mappings``: one scalar when every row is written equally often
        (any mapping moves equal counts onto equal counts), else the
        per-row counts gathered through each mapping."""
        if self._uniform_writes is not None:
            writes += sum(lengths) * self._uniform_writes
        else:
            _weighted_gather(writes, self._writes_base, mappings,
                             np.asarray(lengths, dtype=np.int64),
                             self.region_rows)

    def _fold_draws(self) -> None:
        """Reduce every pending TRBG mapping in one fused pass.

        One :meth:`~repro.core.simulation.TrbgReduction.numerator_chunks`
        pass over the packed tensor yields every mapping's logical counts a
        chunk of rows at a time; they are kept whole, in the
        :func:`count_dtype` of the longest mapping.  The fold then adds
        them into the dense physical counts a block of rows at a time —
        roll offsets by slice adds, inverse permutations by gathers — summed
        in the dtype of all pending counts (:func:`_mapped_sum`).
        """
        if not self._draw_maps:
            return
        ones, writes = self._counts()
        mappings, lengths = self._draw_maps, self._draw_lengths
        # Zeros: regions no block writes are never yielded.
        logical = np.zeros((len(mappings), self.rows, self.word_bits),
                           dtype=count_dtype(max(lengths), self._max_writes))
        for rows, numerators in self._reduction.numerator_chunks(
                np.stack(self._draw_enables), np.asarray(lengths)):
            logical[:, rows] = numerators
        _mapped_sum(ones, list(zip(logical, mappings)),
                    count_dtype(sum(lengths), self._max_writes),
                    self.region_rows)
        self._add_writes(writes, mappings, lengths)
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
        """Materialise the composed physical ``(ones, writes)`` counts.

        Both are unsigned integers in the :func:`count_dtype` of every span
        composed; call this once, last.
        """
        self._gathered = None
        self._fold_draws()
        ones, writes = self._counts()
        if self._bases is None:  # no batched spans
            return ones, writes
        num_channels = len(self._bases)
        if self._offset_records:
            region_rows = self.region_rows
            gamma = np.zeros((num_channels, region_rows), dtype=np.int64)
            gamma_writes = np.zeros(region_rows, dtype=np.int64)
            for offsets, coeffs, lengths in self._offset_records:
                for channel in range(num_channels):
                    np.add.at(gamma[channel], offsets, coeffs[channel])
                np.add.at(gamma_writes, offsets, lengths)
            for channel in range(num_channels):
                _apply_offset_weights(ones, self._bases[channel],
                                      gamma[channel], region_rows,
                                      self._magnitudes[channel])
            _apply_offset_weights(writes, self._writes_base, gamma_writes,
                                  region_rows)
        if self._perm_inverses:
            coeffs = np.stack(self._perm_coeffs, axis=1)
            for channel in range(num_channels):
                _weighted_gather(ones, self._bases[channel],
                                 self._perm_inverses, coeffs[channel],
                                 self.region_rows, self._magnitudes[channel])
            self._add_writes(writes, self._perm_inverses, self._perm_lengths)
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
    walk, :func:`~repro.core.simulation.replay_epochs`, is its oracle.
    Feedback levelers observe the accumulated physical ``(row_ones,
    row_hold)`` counts at the end of every table — on top of the
    ``(row_ones, row_writes)`` totals of earlier windows in ``prior_rows``,
    which are advanced in place by this window's totals.

    Returns the physical ``(ones, writes)`` counts of the window and the
    composed span tables, oldest first.
    """
    from repro.core.simulation import TrbgSpanKernel

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
                            row_ones, row_writes * float(word_bits))
    if feedback and prior_rows is not None:
        row_ones, row_writes = composer.row_totals()
        prior_rows[0][...] += row_ones
        prior_rows[1][...] += row_writes
    ones, writes = composer.finalize()
    return ones, writes, tables
