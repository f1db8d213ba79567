"""Duty-cycle / aging simulation engines.

Two engines evaluate a mitigation policy against the weight write stream of an
accelerator:

* :class:`ExplicitAgingSimulator` — replays every block write of every
  inference through the policy's ``encode_block``; exact but only practical
  for small networks/memories.  Used by tests to validate the fast engine and
  by the functional accelerator path.
* :class:`AgingSimulator` — the fast engine.  It exploits the periodic
  structure of the workload (the same stream repeats every inference) to
  account an arbitrary number of inferences in closed form per policy.  It
  operates on the :class:`~repro.accelerator.scheduler.PackedBitTensor` of
  the stream — the whole inference quantized and bit-unpacked once — so
  every kernel is a few whole-tensor NumPy reductions.  This is what makes
  simulating a 512 KB weight memory under a 61M-parameter DNN for 100
  inferences tractable on a laptop, and it matches the explicit engine
  exactly for deterministic policies (and in distribution for the
  stochastic DNN-Life policy).

Both count each cell's stored ones and writes as unsigned integers and produce an
:class:`AgingResult` holding their duty-cycles and the SNM statistics derived from
them, once per distinct (ones, writes) cell class (:class:`~repro.aging.snm.CellClasses`).

Every deterministic policy has exactly one closed form, a
:class:`PackedSpanKernel` (fixed basis matrices with per-span scalar
coefficients); DNN-Life is a :class:`TrbgSpanKernel` (TRBG draw stage plus a
linear reduce stage).  Leveled packed runs compose either kernel through
:func:`repro.core.span_compose.compose_leveled`; leveled explicit runs walk
:func:`replay_epochs`, its oracle.

Both engines also power the multi-phase scenario layer
(:mod:`repro.scenario`): the fast engine exposes its kernel through
:meth:`AgingSimulator.counts_kernel`, and the scenario cross-check engine
replays each phase through the same :func:`replay_epochs` walk.
"""

from __future__ import annotations

import functools
from typing import Callable, Dict, Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.accelerator.scheduler import (
    PackedBitTensor,
    WeightStreamScheduler,
    as_stride_indexer,
    block_axis_sum,
)
from repro.aging.snm import (
    CellClasses,
    SnmDegradationModel,
    bin_labels,
    default_degradation_bins,
    default_snm_model,
    degradation_histogram,
)
from repro.core.policies import (
    BarrelShifterPolicy,
    DnnLifePolicy,
    MitigationPolicy,
    NoMitigationPolicy,
    PeriodicInversionPolicy,
)
from repro.core.span_compose import (BatchedCounts, compact_basis, compact_dtype,
                                    compose_leveled, count_dtype)
from repro.leveling.remap import WearLeveler, check_leveler
from repro.quantization.bitops import unpack_bits
from repro.utils.rng import SeedLike, as_rng
from repro.utils.validation import check_positive_int

#: ``last_bits(t)`` — the ``(rows, word_bits)`` matrix of bits the final
#: write of inference ``t`` leaves behind (NaN on unwritten rows).
LastBitsKernel = Callable[[int], np.ndarray]

#: ``coefficients(starts, lengths)`` — the ``(C, num_spans)`` int64 basis coefficients
#: of every span ``[starts[k], starts[k] + lengths[k])``, each in ``[0, lengths[k]]``.
SpanCoefficients = Callable[[np.ndarray, np.ndarray], np.ndarray]


class PackedSpanKernel:
    """A deterministic policy's closed-form counts kernel.

    Every deterministic policy's counts over a span of inferences decompose
    into ``C`` fixed basis matrices with cheap per-span scalar coefficients:
    ``ones = sum_c coefficients[c] * bases[c]`` and ``writes = n * writes``.
    That is the kernel's one closed form.  :meth:`counts_batch` evaluates it
    over a whole span table (the fused leveling composition,
    :class:`~repro.core.span_compose.SpanComposer`); calling the kernel as
    ``counts(start, n)`` evaluates the single-span batch, which is how the
    unleveled runs, the scenario driver and the cross-check tests consume
    it.  Every basis entry and coefficient is a non-negative integer, so
    both evaluations give the same counts as any other summation order.

    The bases are held read-only as unsigned integers (the no-mitigation one
    is the stream's ``rows_ones()``); ``writes`` is the stream's
    ``rows_writes()``.  :meth:`counts_batch` hands out every basis in its
    narrowest dtype with its magnitude, compacted on its first call.  A
    kernel depends only on its stream and policy parameters, so
    :meth:`AgingSimulator._packed_kernel` builds it once per stream and
    keeps it as long as the stream lives: the compaction runs once per
    stream, not once per leveled run.
    """

    def __init__(self, bases: List[np.ndarray], writes: np.ndarray,
                 coefficients: SpanCoefficients):
        for basis in bases:
            basis.flags.writeable = False
        self._bases = list(bases)
        self._writes = writes
        self._max_writes = int(writes.max(initial=0))
        self._coefficients = coefficients
        self._compact: Optional[Tuple[List[np.ndarray], List[int]]] = None

    def __call__(self, start: int, n: int) -> Tuple[np.ndarray, np.ndarray]:
        """Per-logical-cell ones and per-row writes over ``[start, start + n)``."""
        dtype = count_dtype(n, self._max_writes)
        coeffs = self._coefficients(np.asarray([start], dtype=np.int64),
                                    np.asarray([n], dtype=np.int64))[:, 0]
        ones = np.multiply(self._bases[0], int(coeffs[0]), dtype=dtype)
        scaled = None
        for coeff, basis in zip(coeffs[1:], self._bases[1:]):
            if coeff:
                scaled = np.multiply(basis, int(coeff), out=scaled, dtype=dtype)
                ones += scaled
        return ones, np.multiply(self._writes, n, dtype=dtype)

    def counts_batch(self, starts: np.ndarray,
                     lengths: np.ndarray) -> BatchedCounts:
        """Per-span counts decomposition over a whole span table."""
        starts = np.asarray(starts, dtype=np.int64).reshape(-1)
        lengths = np.asarray(lengths, dtype=np.int64).reshape(-1)
        if self._compact is None:
            compacted = [compact_basis(basis) for basis in self._bases]
            for basis, _ in compacted:
                basis.flags.writeable = False
            self._compact = ([basis for basis, _ in compacted],
                             [magnitude for _, magnitude in compacted])
        bases, magnitudes = self._compact
        return BatchedCounts(bases, self._coefficients(starts, lengths),
                             self._writes, magnitudes)


def _span_lengths(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Single-channel coefficients: every span weighs its basis by its length."""
    return lengths[None, :]


# --------------------------------------------------------------------------- #
# Result container
# --------------------------------------------------------------------------- #
class AgingResult:
    """Outcome of an aging simulation for one (workload, policy) pair.

    The SNM statistics are count-weighted sums over :attr:`cell_classes`,
    the result's table of distinct duty-cycles: :meth:`from_counts` (both
    engines) keys it by the integer counts, any other result builds it from
    its duty matrix when first asked.  A count-built result keeps no
    per-cell float matrix: :attr:`duty_cycles` and :meth:`snm_degradation`
    gather the class values through the table's key on every call.
    """

    def __init__(self, policy_name: str, policy_description: Dict[str, object],
                 duty_cycles: Optional[np.ndarray], num_inferences: int,
                 num_blocks: int, snm_model: Optional[SnmDegradationModel] = None,
                 years: float = 7.0):
        self.policy_name = policy_name
        self.policy_description = policy_description
        self.num_inferences = num_inferences
        self.num_blocks = num_blocks
        self.snm_model = snm_model or default_snm_model()
        self.years = years
        self._duty = (None if duty_cycles is None
                      else np.asarray(duty_cycles, dtype=np.float64))
        self._cell_classes: Optional[CellClasses] = None

    @classmethod
    def from_counts(cls, ones: np.ndarray, writes: np.ndarray,
                    **fields: object) -> "AgingResult":
        """The result of integer per-cell ``ones`` over per-row ``writes``.

        The counts are keyed into a cell-class table, the only thing the result
        holds; a wide key span goes through :func:`_duty_from_counts` (which rejects
        out-of-range counts), bit for bit alike.  Float counts raise ``TypeError``
        (``AgingResult(duty_cycles=...)`` takes non-integer duty-cycles).
        """
        classes = CellClasses.from_counts(ones, writes)
        if classes is None:
            return cls(duty_cycles=_duty_from_counts(ones, writes), **fields)
        result = cls(duty_cycles=None, **fields)
        result._cell_classes = classes
        return result

    @property
    def duty_cycles(self) -> np.ndarray:
        """Per-cell duty-cycles (a gather of the class table for count-built results)."""
        if self._duty is not None:
            return self._duty
        return self._cell_classes.values[self._cell_classes.key]

    @property
    def cell_classes(self) -> CellClasses:
        """The duty matrix's cell-class table, built on first use if not from counts."""
        if self._cell_classes is None:
            self._cell_classes = CellClasses.per_cell(self._duty)
        return self._cell_classes

    @property
    def num_cells(self) -> int:
        """Number of 6T-SRAM cells covered by the result."""
        return int(self._duty.size) if self._duty is not None else self.cell_classes.num_cells

    def _class_degradation(self) -> np.ndarray:
        """Per-class SNM degradation after ``years`` years."""
        return self.cell_classes.degradation(self.snm_model, self.years)

    def snm_degradation(self) -> np.ndarray:
        """Per-cell SNM degradation (percent) after ``years`` years, flattened."""
        return self._class_degradation()[self.cell_classes.key.reshape(-1)]

    def histogram(self, bin_edges: Optional[np.ndarray] = None
                  ) -> Tuple[np.ndarray, np.ndarray, List[str]]:
        """Fig. 9 / Fig. 11 style histogram: % of cells per degradation bin.

        The default edges span best..worst at the result's own ``years``.
        """
        edges = (np.asarray(bin_edges, dtype=np.float64) if bin_edges is not None
                 else default_degradation_bins(self.snm_model, years=self.years))
        percentages, edges = degradation_histogram(
            self._class_degradation(), edges, counts=self.cell_classes.counts)
        return percentages, edges, bin_labels(edges)

    def duty_cycle_statistics(self) -> Dict[str, float]:
        """Summary statistics of the per-cell duty-cycles (count-weighted over classes)."""
        classes = self.cell_classes
        values = classes.values
        mean = classes.mean(values)
        deviation = np.abs(values - 0.5)
        return {
            "mean": mean,
            "std": float(np.sqrt(classes.mean(np.square(values - mean)))),
            "min": float(values.min()),
            "max": float(values.max()),
            "mean_abs_deviation_from_half": classes.mean(deviation),
            "max_abs_deviation_from_half": float(deviation.max()),
        }

    def summary(self) -> Dict[str, object]:
        """Headline metrics used by the experiment reports."""
        per_class = self._class_degradation()
        best = self.snm_model.best_case_percent(self.years)
        worst = self.snm_model.worst_case_percent(self.years)
        classes = self.cell_classes
        return {
            "policy": self.policy_name,
            "num_cells": self.num_cells,
            "num_blocks": self.num_blocks,
            "num_inferences": self.num_inferences,
            "mean_snm_degradation_percent": classes.mean(per_class),
            "max_snm_degradation_percent": float(per_class.max()),
            "percent_cells_near_best": classes.fraction(per_class <= best + 0.5) * 100.0,
            "percent_cells_near_worst": classes.fraction(per_class >= worst - 0.5) * 100.0,
            "duty_cycle": self.duty_cycle_statistics(),
        }

    # ------------------------------------------------------------------ #
    # Serialization (orchestration cache / sweep-worker transport)
    # ------------------------------------------------------------------ #
    def to_payload(self) -> Dict[str, object]:
        """JSON-safe representation of the full result.

        The payload round-trips through :meth:`from_payload` without loss:
        it carries the raw duty-cycle matrix (shape preserved) and the SNM
        model's class/parameters, so a cached or worker-transported result
        supports the same derived queries (histograms, summaries) as a
        freshly computed one.
        """
        duty = self.duty_cycles
        return {
            "policy_name": self.policy_name,
            "policy_description": dict(self.policy_description),
            "duty_cycles_shape": list(duty.shape),
            "duty_cycles": duty.reshape(-1).tolist(),
            "num_inferences": self.num_inferences,
            "num_blocks": self.num_blocks,
            "years": self.years,
            "snm_model": _snm_model_to_payload(self.snm_model),
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "AgingResult":
        """Rebuild an :class:`AgingResult` from :meth:`to_payload` output."""
        duty = np.asarray(payload["duty_cycles"], dtype=np.float64)
        duty = duty.reshape([int(dim) for dim in payload["duty_cycles_shape"]])
        return cls(
            policy_name=str(payload["policy_name"]),
            policy_description=dict(payload["policy_description"]),
            duty_cycles=duty,
            num_inferences=int(payload["num_inferences"]),
            num_blocks=int(payload["num_blocks"]),
            snm_model=_snm_model_from_payload(payload["snm_model"]),
            years=float(payload["years"]),
        )


def _snm_model_to_payload(model: SnmDegradationModel) -> Dict[str, object]:
    """Serialize an SNM model (a frozen dataclass) to class name + fields."""
    import dataclasses

    if not dataclasses.is_dataclass(model):
        raise TypeError(f"cannot serialize SNM model of type {type(model).__name__}; "
                        "expected a dataclass-based model")
    fields = {}
    for spec in dataclasses.fields(model):
        value = getattr(model, spec.name)
        fields[spec.name] = (_dataclass_fields_payload(value)
                             if dataclasses.is_dataclass(value) else value)
    return {"class": type(model).__name__, "fields": fields}


def _dataclass_fields_payload(obj: object) -> Dict[str, object]:
    import dataclasses

    return {"class": type(obj).__name__,
            "fields": {spec.name: getattr(obj, spec.name)
                       for spec in dataclasses.fields(obj)}}


def _known_snm_payload_classes() -> Dict[str, type]:
    """Every class an SNM payload may name: all shipped degradation models.

    Discovered by walking ``SnmDegradationModel``'s subclass tree (after
    importing the shipped model modules) plus the nested device dataclass, so
    a newly shipped model round-trips without touching this registry.
    """
    from repro.aging.nbti import NbtiDeviceModel
    from repro.aging.snm import SnmDegradationModel

    known: Dict[str, type] = {NbtiDeviceModel.__name__: NbtiDeviceModel}
    stack = list(SnmDegradationModel.__subclasses__())
    while stack:
        cls = stack.pop()
        known[cls.__name__] = cls
        stack.extend(cls.__subclasses__())
    return known


def _snm_model_from_payload(payload: Dict[str, object]) -> SnmDegradationModel:
    """Rebuild an SNM model from its class name and field values."""
    known = _known_snm_payload_classes()
    name = payload["class"]
    if name not in known:
        raise ValueError(f"unknown SNM model class '{name}' in payload "
                         f"(known: {', '.join(sorted(known))})")
    kwargs = {}
    for key, value in dict(payload["fields"]).items():
        if isinstance(value, dict) and "class" in value and "fields" in value:
            kwargs[key] = _snm_model_from_payload(value)
        else:
            kwargs[key] = value
    return known[name](**kwargs)


# --------------------------------------------------------------------------- #
# Explicit (exact, slow) engine
# --------------------------------------------------------------------------- #
def replay_inference(stream: Union[PackedBitTensor, WeightStreamScheduler],
                     policy: MitigationPolicy, ones: np.ndarray,
                     writes: np.ndarray, remap: Optional[np.ndarray] = None,
                     stored: Optional[np.ndarray] = None) -> None:
    """Replay one inference epoch's block writes through ``policy``.

    The shared explicit-path primitive: encodes every block of ``stream``,
    verifies the decode round-trip (the mitigation hardware must be
    transparent to the computation), and accumulates the stored bits and
    write counts into ``ones``/``writes`` — through the optional
    logical→physical row ``remap`` of a wear leveler.  When ``stored`` is
    given (a ``(rows, word_bits)`` float array), every write additionally
    overwrites the target rows with the bits it leaves behind, so after the
    final epoch ``stored`` holds the exact last-written value of every
    physical cell (the retention-phase input).  Both
    :class:`ExplicitAgingSimulator` and the scenario phase-replay engine
    (:class:`repro.scenario.driver.ExplicitScenarioSimulator`) are built on
    this function (through :func:`replay_epochs`), so their per-epoch
    accounting cannot diverge.
    """
    word_bits = stream.geometry.word_bits
    words_per_block = stream.words_per_block
    for block in stream.iter_blocks():
        start_row = block.region * words_per_block
        encoded, metadata = policy.encode_block(
            block.words, block.index, start_row=start_row)
        decoded = policy.decode_block(encoded, metadata)
        if not np.array_equal(decoded, np.asarray(block.words,
                                                  dtype=np.uint64).reshape(-1)):
            raise AssertionError(
                f"policy '{policy.name}' failed to decode block {block.index}")
        bits = unpack_bits(encoded, word_bits)
        if remap is None:
            target = slice(start_row, start_row + bits.shape[0])
        else:
            target = remap[start_row:start_row + bits.shape[0]]
        ones[target] += bits
        writes[target] += 1
        if stored is not None:
            stored[target] = bits


def replay_epochs(stream: Union[PackedBitTensor, WeightStreamScheduler],
                  policy: MitigationPolicy, start: int, stop: int,
                  leveler: Optional["WearLeveler"] = None,
                  prior_rows: Optional[Tuple[np.ndarray, np.ndarray]] = None,
                  stored: Optional[np.ndarray] = None
                  ) -> Tuple[np.ndarray, np.ndarray]:
    """Replay epochs ``[start, stop)`` write by write, through ``leveler``.

    The one leveled explicit walk, the oracle of
    :func:`~repro.core.span_compose.compose_leveled`: the policy is reset,
    then every epoch routes its :func:`replay_inference` through
    ``leveler.permutation(epoch)`` (epochs are global leveler epochs; policy
    state starts fresh at ``start``).  Feedback levelers observe the
    accumulated physical ``(row_ones, row_hold)`` counts after every epoch —
    on top of the ``(row_ones, row_writes)`` totals of earlier windows in
    ``prior_rows``, which are advanced in place by this window's totals.
    ``stored`` is passed through to :func:`replay_inference`.

    Returns the window's physical ``(ones, writes)`` counts, as unsigned
    integers (a row takes at most one write per block and inference).
    """
    rows, word_bits = stream.geometry.rows, stream.geometry.word_bits
    dtype = count_dtype(stop - start, stream.num_blocks)
    ones = np.zeros((rows, word_bits), dtype=dtype)
    writes = np.zeros(rows, dtype=dtype)
    feedback = leveler is not None and leveler.uses_feedback
    policy.reset()
    for epoch in range(start, stop):
        remap = None if leveler is None else leveler.permutation(epoch)
        replay_inference(stream, policy, ones, writes, remap, stored=stored)
        if feedback:
            row_ones, row_writes = ones.sum(axis=1, dtype=np.float64), writes
            if prior_rows is not None:
                row_ones = prior_rows[0] + row_ones
                row_writes = prior_rows[1] + row_writes
            leveler.observe(epoch + 1, row_ones, row_writes * float(word_bits))
    if feedback and prior_rows is not None:
        prior_rows[0][...] += ones.sum(axis=1, dtype=np.float64)
        prior_rows[1][...] += writes
    return ones, writes


class ExplicitAgingSimulator:
    """Replays every write of every inference through the policy.

    An optional :class:`~repro.leveling.remap.WearLeveler` remaps each
    block's rows from logical to physical before the write lands; the policy
    keeps encoding the *logical* stream (the remap table sits between the
    encoder and the array, exactly as the hardware would place it).
    """

    def __init__(self, scheduler: Union[PackedBitTensor, WeightStreamScheduler],
                 policy: MitigationPolicy,
                 num_inferences: int = 100,
                 snm_model: Optional[SnmDegradationModel] = None,
                 leveler: Optional["WearLeveler"] = None):
        check_leveler(leveler, scheduler.geometry)
        self.scheduler = scheduler
        self.policy = policy
        self.num_inferences = check_positive_int(num_inferences, "num_inferences")
        self.snm_model = snm_model or default_snm_model()
        self.leveler = leveler

    def run(self) -> AgingResult:
        """Simulate ``num_inferences`` inferences write-by-write."""
        if self.leveler is not None:
            self.leveler.reset()
        ones, writes = replay_epochs(self.scheduler, self.policy, 0,
                                     self.num_inferences, self.leveler)
        return AgingResult.from_counts(
            ones, writes,
            policy_name=self.policy.name,
            policy_description=_describe_with_leveling(self.policy, self.leveler),
            num_inferences=self.num_inferences,
            num_blocks=self.scheduler.num_blocks,
            snm_model=self.snm_model,
        )


# --------------------------------------------------------------------------- #
# Fast engine
# --------------------------------------------------------------------------- #
class AgingSimulator:
    """Vectorized aging simulator exploiting the periodic weight stream.

    The whole block stream is quantized and bit-unpacked *once* into a
    :class:`~repro.accelerator.scheduler.PackedBitTensor` (reused across
    policies when the stream passed in already is one), and every
    policy kernel is a handful of whole-tensor NumPy reductions with no
    per-block Python loop; schedules with an unpadded final block are
    supported.  For the deterministic policies the duty-cycles are
    byte-identical to :class:`ExplicitAgingSimulator`; for the stochastic
    DNN-Life policy the two agree in distribution (the closed form draws the
    same binomial law in a different RNG order).
    """

    def __init__(self, scheduler: Union[PackedBitTensor, WeightStreamScheduler],
                 policy: MitigationPolicy,
                 num_inferences: int = 100, seed: SeedLike = None,
                 snm_model: Optional[SnmDegradationModel] = None,
                 leveler: Optional["WearLeveler"] = None):
        self.scheduler = scheduler
        self.policy = policy
        self.num_inferences = check_positive_int(num_inferences, "num_inferences")
        self.rng = as_rng(seed)
        self.snm_model = snm_model or default_snm_model()
        check_leveler(leveler, scheduler.geometry)
        self.leveler = leveler
        self._packed_tensor: Optional[PackedBitTensor] = None

    # -- public API ------------------------------------------------------- #
    def run(self) -> AgingResult:
        """Compute per-cell duty-cycles for the configured policy."""
        ones, writes = self._simulate_counts()
        return AgingResult.from_counts(
            ones, writes,
            policy_name=self.policy.name,
            policy_description=_describe_with_leveling(self.policy, self.leveler),
            num_inferences=self.num_inferences,
            num_blocks=self.scheduler.num_blocks,
            snm_model=self.snm_model,
        )

    def counts_kernel(self, shared: Optional["TrbgSpanKernel"] = None
                      ) -> Union[PackedSpanKernel, "TrbgSpanKernel"]:
        """The policy's closed-form kernel (public driver entry point).

        Returns the kernel described in :meth:`_packed_kernel` — callable as
        ``counts(start_inference, n) -> (numerator, writes)``, with
        :meth:`PackedSpanKernel.counts_batch` (or, for DNN-Life, the
        :class:`TrbgSpanKernel` draw/reduce stages) on top for span-table
        batches.  This is what the scenario driver
        (:class:`repro.scenario.driver.ScenarioAgingSimulator`) evaluates for
        its phases: the heavy tensor reductions run once here, and every
        phase/leveling span afterwards is a cheap combination.

        A deterministic kernel is the one the stream keeps for these policy
        parameters.  ``shared`` is a DNN-Life kernel an earlier call built
        for the same stream and policy parameters: it lends its reduce
        stage, and the returned kernel draws from this simulator's RNG.
        """
        if shared is not None and isinstance(self.policy, DnnLifePolicy):
            return self._packed_dnn_life_kernel(self.policy, shared.reduction)
        return self._packed_kernel(self.policy)

    def last_bits_kernel(self) -> Tuple[LastBitsKernel, np.ndarray]:
        """Closed-form "value left behind" factory.

        Returns ``(last_bits, written_rows)``.  ``written_rows`` is the
        boolean per-row mask of rows the stream writes at all, and
        ``last_bits(t)`` yields the ``(rows, word_bits)`` float64 matrix of
        the bits the *final* write of inference ``t`` (0-based since policy
        reset) leaves in each written logical row; unwritten rows hold NaN.
        For the deterministic policies the values are exact 0.0/1.0 and
        match the explicit write-by-write replay bit for bit; for the
        stochastic DNN-Life policy the matrix holds the per-cell
        *expectation* of the stored bit (the TRBG enable is marginalised),
        so the engines agree in distribution only.  This is the retention
        input of the scenario layer: idle phases hold exactly what the
        preceding phase's last epoch wrote.
        """
        packed = self._packed()
        rows, word_bits = packed.geometry.rows, packed.word_bits
        words_per_block = packed.words_per_block
        word_in_block = np.arange(rows, dtype=np.int64) % words_per_block
        # Per row: the last block (in stream order) covering it, i.e. the
        # write whose stored value the row still holds at the epoch's end.
        last_block = np.full(rows, -1, dtype=np.int64)
        for region in range(packed.fifo_depth_tiles):
            blocks = packed.region_blocks(region)
            if not blocks.size:
                continue
            row_slice = slice(region * words_per_block,
                              (region + 1) * words_per_block)
            coverage = (packed.valid_words[blocks][:, None]
                        > np.arange(words_per_block)[None, :])
            position = np.where(coverage,
                                np.arange(blocks.size)[:, None], -1).max(axis=0)
            covered = position >= 0
            last_block[row_slice][covered] = blocks[position[covered]]
        written = last_block >= 0
        last_raw = np.full((rows, word_bits), np.nan, dtype=np.float64)
        last_raw[written] = packed.bits[last_block[written],
                                        word_in_block[written], :]
        # Write-counter index of the row's final write within one inference.
        last_offset = np.zeros(rows, dtype=np.int64)
        last_offset[written] = (packed.word_offsets[last_block[written]]
                                + word_in_block[written])
        policy = self.policy
        total_words = packed.total_words

        if isinstance(policy, NoMitigationPolicy):
            def last_bits(t: int) -> np.ndarray:
                return last_raw.copy()
        elif isinstance(policy, PeriodicInversionPolicy):
            if policy.granularity == "write":
                # Words written before the final write since policy reset:
                # t whole inferences plus the in-inference counter index.
                def parity_of(t: int) -> np.ndarray:
                    return (last_offset + t * total_words) % 2
            else:
                writes_per_row = packed.rows_writes().astype(np.int64)

                def parity_of(t: int) -> np.ndarray:
                    prior = t * writes_per_row + (writes_per_row - 1)
                    return prior % 2

            def last_bits(t: int) -> np.ndarray:
                parity = parity_of(t)[:, None]
                return np.where(parity == 1, 1.0 - last_raw, last_raw)
        elif isinstance(policy, BarrelShifterPolicy):
            column = np.arange(word_bits, dtype=np.int64)

            def last_bits(t: int) -> np.ndarray:
                shift = np.where(written,
                                 (last_offset + t * total_words) % word_bits, 0)
                index = (column[None, :] + shift[:, None]) % word_bits
                return np.take_along_axis(last_raw, index, axis=1)
        elif isinstance(policy, DnnLifePolicy):
            bias = policy.controller.trbg.nominal_bias
            balancer = policy.controller.bias_balancer
            num_blocks = packed.num_blocks

            def last_bits(t: int) -> np.ndarray:
                if balancer is None:
                    inverted = np.full(rows, bias)
                else:
                    register = (t * num_blocks + last_block + 1) % balancer.period
                    phase_one = (register >> (balancer.num_bits - 1)) & 0x1
                    inverted = np.where(phase_one == 1, 1.0 - bias, bias)
                inverted = inverted[:, None]
                return last_raw * (1.0 - inverted) + (1.0 - last_raw) * inverted
        else:
            raise NotImplementedError(
                f"no last-bits fast path for policy type {type(policy).__name__}; "
                "use ExplicitAgingSimulator instead")
        return last_bits, written

    # -- dispatch ---------------------------------------------------------- #
    def _simulate_counts(self) -> Tuple[np.ndarray, np.ndarray]:
        """Per-physical-cell ones and per-row writes over the whole run."""
        kernel = self._packed_kernel(self.policy)
        leveler = self.leveler
        if leveler is None:
            return kernel(0, self.num_inferences)
        # Deterministic kernels collapse the leveler's span tables into a
        # constant number of NumPy passes; the DNN-Life kernel draws every
        # span in order and reduces all of them in one fused pass (see
        # compose_leveled).
        leveler.reset()
        ones, writes, _ = compose_leveled(kernel, leveler, self.num_inferences)
        return ones, writes

    def _packed_kernel(self, policy: MitigationPolicy
                       ) -> Union[PackedSpanKernel, "TrbgSpanKernel"]:
        """Resolve the policy's closed-form counts kernel.

        Either kernel is callable as ``counts(start_inference, n) ->
        (numerator, writes)``, returning the per-logical-cell ones numerator
        and per-row write denominator accumulated over inferences ``[start,
        start + n)``.  Deterministic policies return a
        :class:`PackedSpanKernel` (one basis decomposition, batched over
        whole span tables by :meth:`PackedSpanKernel.counts_batch`), built
        once per stream and policy parameters and kept by the stream
        (:meth:`~repro.accelerator.scheduler.PackedBitTensor.derived`), so
        every simulator on the stream shares it; DNN-Life returns the
        draw/reduce stages of a :class:`TrbgSpanKernel`, fresh per call.
        The heavy tensor reductions happen once in the factory; each call is
        a cheap combination, which is what lets the leveling driver evaluate
        many constant-mapping spans without re-reducing the packed tensor.
        """
        if isinstance(policy, DnnLifePolicy):
            return self._packed_dnn_life_kernel(policy)
        if isinstance(policy, NoMitigationPolicy):
            key: Tuple[object, ...] = (NoMitigationPolicy,)
            build: Callable[[], PackedSpanKernel] = (
                self._packed_no_mitigation_kernel)
        elif isinstance(policy, PeriodicInversionPolicy):
            key = (PeriodicInversionPolicy, policy.granularity)
            build = functools.partial(self._packed_periodic_inversion_kernel,
                                      policy)
        elif isinstance(policy, BarrelShifterPolicy):
            key = (BarrelShifterPolicy,)
            build = functools.partial(self._packed_barrel_shifter_kernel,
                                      policy)
        else:
            raise NotImplementedError(
                f"no fast path for policy type {type(policy).__name__}; "
                "use ExplicitAgingSimulator instead")
        return self._packed().derived(key, build)

    # ------------------------------------------------------------------ #
    # Packed engine: whole-tensor kernels over the PackedBitTensor
    # ------------------------------------------------------------------ #
    def _packed(self) -> PackedBitTensor:
        """The stream's packed bit tensor: the stream itself when it is one,
        else the bare scheduler packed once for this simulator."""
        if self._packed_tensor is None:
            packed = (self.scheduler if isinstance(self.scheduler, PackedBitTensor)
                      else PackedBitTensor.from_stream(self.scheduler))
            rows = self.scheduler.geometry.rows
            if packed.words_per_block * packed.fifo_depth_tiles != rows:
                raise ValueError(
                    f"packed tensor covers {packed.words_per_block} words x "
                    f"{packed.fifo_depth_tiles} tiles but the memory has {rows} rows")
            self._packed_tensor = packed
        return self._packed_tensor

    def _packed_no_mitigation_kernel(self) -> PackedSpanKernel:
        packed = self._packed()
        # One channel: the stored bits themselves, weighted by span length.
        return PackedSpanKernel([packed.rows_ones()], packed.rows_writes(),
                                _span_lengths)

    def _packed_periodic_inversion_kernel(
            self, policy: PeriodicInversionPolicy) -> PackedSpanKernel:
        packed = self._packed()
        rows, word_bits = packed.geometry.rows, packed.word_bits
        valid = packed.valid_mask()
        # Inversion parity of write (block b, word w) in inference t is
        # P(b, w) + t * d (mod 2): P is the base parity in the first inference
        # and d the per-inference drift of the policy's toggle counter(s).
        # P decomposes into a per-block parity class plus (for the "write"
        # granularity) an alternation along the word index, so the tensor is
        # reduced once, partitioned by block class — no per-word weighting.
        if policy.granularity == "write":
            # One global word-write counter: P = (block's start count + w) % 2.
            block_class = (packed.word_offsets % 2).astype(np.int64)
            alternates_within_block = True
        else:
            # One counter per memory row: P = number of earlier writes to the
            # row within the inference.  With only the stream's final block
            # allowed to be short, that is the block's ordinal in its region.
            block_class = np.zeros(packed.num_blocks, dtype=np.int64)
            for region in range(packed.fifo_depth_tiles):
                blocks = packed.region_blocks(region)
                if blocks.size and np.any(packed.valid_words[blocks[:-1]]
                                          < packed.words_per_block):
                    raise NotImplementedError(
                        "per-location inversion requires at most the final "
                        "block of the stream to be short")
                block_class[blocks] = np.arange(blocks.size) % 2
            alternates_within_block = False

        ones = packed.rows_ones()
        writes = packed.rows_writes()
        if policy.granularity == "write":
            drift = packed.total_words % 2
            drift_per_row = None if drift == 0 else np.ones(rows, dtype=np.int64)
        else:
            drift_per_row = writes.astype(np.int64) % 2
            if not drift_per_row.any():
                drift_per_row = None
        # Word w of a class-c block has parity (c + w) % 2 under the "write"
        # granularity, so odd-parity writes come from class 1 on a region's
        # even word offsets and from class 0 on its odd ones; per location,
        # class 1 is the odd class on every row.
        odd_classes = ([(slice(0, None, 2), 1), (slice(1, None, 2), 0)]
                       if alternates_within_block else [(slice(None), 1)])
        # Both channels hold stored counts, in [0, writes].  Rows no block
        # writes stay zero.
        compact = compact_dtype(0, int(writes.max(initial=0)))
        base = np.zeros((rows, word_bits), dtype=compact)
        flipped = (None if drift_per_row is None else
                   np.zeros((rows, word_bits), dtype=compact))
        # One class sum per region is derived by subtraction from the cached
        # whole-region sums, so the policy costs a single pass over the
        # minority class — zero extra passes when a region is single-class.
        for row_slice, indexer in packed.region_indexers():
            blocks = np.arange(packed.num_blocks)[indexer]
            if not blocks.size:
                continue
            classes = block_class[blocks]
            minority = 0 if np.count_nonzero(classes) * 2 >= blocks.size else 1
            selected = as_stride_indexer(blocks[classes == minority])
            view = packed.bits[selected]
            region_ones, region_writes = ones[row_slice], writes[row_slice]
            if view.shape[0]:
                minority_ones = block_axis_sum(view, max_value=1)
                minority_writes = block_axis_sum(valid[selected])
            else:
                minority_ones = np.zeros_like(region_ones)
                minority_writes = np.zeros_like(region_writes)
            for parity_rows, odd_class in odd_classes:
                ones_odd = minority_ones[parity_rows]
                writes_odd = minority_writes[parity_rows]
                if odd_class != minority:
                    ones_odd = region_ones[parity_rows] - ones_odd
                    writes_odd = region_writes[parity_rows] - writes_odd
                # Stored value: plain when the parity is even, inverted when
                # odd: (ones - ones_odd) + (writes_odd - ones_odd), never negative.
                stored = region_ones[parity_rows] - ones_odd
                stored += writes_odd[:, None]
                stored -= ones_odd
                base[row_slice][parity_rows] = stored
                if flipped is not None:
                    # Inference t adds a parity offset of (t * d_r) mod 2,
                    # so a row with drift stores the flipped pattern
                    # ``writes - base`` on the span's odd inferences.
                    drifts = drift_per_row[row_slice][parity_rows][:, None]
                    flipped[row_slice][parity_rows] = np.where(
                        drifts == 1, region_writes[parity_rows][:, None] - stored,
                        stored)
        if flipped is None:
            return PackedSpanKernel([base], writes, _span_lengths)
        # The span counts
        #   base * (n - d_r * odd) + (writes - base) * (d_r * odd)
        #     = (n - odd) * base + odd * [d_r ? writes - base : base]
        # are two fixed channels with per-span scalar coefficients (n - odd, odd).

        def coefficients(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
            odd = (starts + lengths) // 2 - starts // 2
            return np.stack([lengths - odd, odd])

        return PackedSpanKernel([base, flipped], writes, coefficients)

    def _packed_barrel_shifter_kernel(
            self, policy: BarrelShifterPolicy) -> PackedSpanKernel:
        packed = self._packed()
        word_bits = packed.word_bits
        # The write counter rotates every word by its cumulative index mod n;
        # one inference advances it by the total word count, so inference t
        # adds an extra rotation of (t * drift) mod n.
        drift = packed.total_words % word_bits
        # Align each block's bits to its base rotation and accumulate per row.
        # Blocks sharing (region, start-offset mod n) see identical per-word
        # rotations, so they are reduced together; a padded stream whose block
        # size is a multiple of the word width has exactly one such class.
        # The aligned counts lie in [0, writes] (rows no block writes stay 0).
        writes = packed.rows_writes()
        compact = compact_dtype(0, int(writes.max(initial=0)))
        aligned = np.zeros((packed.geometry.rows, word_bits), dtype=compact)
        offset_class = (packed.word_offsets % word_bits).astype(np.int64)
        region_ones = packed.rows_ones()
        for row_slice, indexer in packed.region_indexers():
            blocks = np.arange(packed.num_blocks)[indexer]
            if not blocks.size:
                continue
            offsets = offset_class[blocks]
            distinct = np.unique(offsets)
            # The largest class's sum is derived by subtracting the others
            # from the cached region total: zero extra passes for the common
            # single-class (padded, word-aligned) stream.
            largest = distinct[np.argmax([np.count_nonzero(offsets == o)
                                          for o in distinct])]
            class_sums = {}
            if distinct.size == 1:
                class_sums[int(largest)] = region_ones[row_slice]
            else:
                remainder = region_ones[row_slice].copy()
                for offset in distinct:
                    if offset == largest:
                        continue
                    class_sum = block_axis_sum(
                        packed.bits[as_stride_indexer(blocks[offsets == offset])],
                        max_value=1)
                    class_sums[int(offset)] = class_sum
                    remainder -= class_sum
                class_sums[int(largest)] = remainder
            target = aligned[row_slice]
            for offset, class_sum in class_sums.items():
                # Word w of the class is rotated left by (offset + w) % n:
                # the rows w = r (mod n) share one rotation.
                class_sum = class_sum.astype(compact)
                for first in range(min(word_bits, target.shape[0])):
                    shift = (offset + first) % word_bits
                    rows = slice(first, None, word_bits)
                    target[rows, :word_bits - shift] += class_sum[rows, shift:]
                    target[rows, word_bits - shift:] += class_sum[rows, :shift]
        if drift == 0:
            # Every inference repeats the same rotations.
            return PackedSpanKernel([aligned], writes, _span_lengths)
        # Inference t adds the extra rotation j = (t * drift) % word_bits, so
        # the span counts are a weighted sum of the column-rolls of
        # ``aligned``: one channel per reachable rotation j, with coefficient
        # |{t in span : (t * drift) % word_bits == j}|.  The rotations repeat
        # with period word_bits / gcd(drift, word_bits), so a prefix-count
        # table gives every coefficient in closed form.
        period = word_bits // int(np.gcd(drift, word_bits))
        hits = np.zeros((period, word_bits), dtype=np.int64)
        hits[np.arange(period),
             (np.arange(period, dtype=np.int64) * drift) % word_bits] = 1
        prefix = np.zeros((period + 1, word_bits), dtype=np.int64)
        np.cumsum(hits, axis=0, out=prefix[1:])
        rotations = np.flatnonzero(prefix[period])
        bases = [np.roll(aligned, -int(j), axis=1) for j in rotations]

        def rotation_counts(epochs: np.ndarray) -> np.ndarray:
            # F[t, j]: rotations j seen by inferences [0, t).
            full = (epochs // period)[:, None] * prefix[period][None, :]
            return full + prefix[epochs % period]

        def coefficients(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
            spans = (rotation_counts(starts + lengths)
                     - rotation_counts(starts))[:, rotations]
            return spans.T

        return PackedSpanKernel(bases, writes, coefficients)

    def _packed_dnn_life_kernel(self, policy: DnnLifePolicy,
                                reduction: Optional["TrbgReduction"] = None
                                ) -> "TrbgSpanKernel":
        if reduction is None:
            reduction = TrbgReduction(self._packed(), policy.words_per_enable)
        num_blocks = reduction.packed.num_blocks
        bias = policy.controller.trbg.nominal_bias
        balancer = policy.controller.bias_balancer
        num_groups = reduction.num_groups
        rng = self.rng

        def draw(start: int, n: int) -> np.ndarray:
            # Deterministic bias-balancing phase of every (inference, block)
            # pair in the span: the register ticks once per block, its MSB is
            # the inversion phase.
            if balancer is not None:
                global_index = ((start + np.arange(n))[:, None] * num_blocks
                                + np.arange(num_blocks)[None, :])
                register = (global_index + 1) % balancer.period
                phases = (register >> (balancer.num_bits - 1)) & 0x1
                inferences_in_phase_one = phases.sum(axis=0)
            else:
                inferences_in_phase_one = np.zeros(num_blocks, dtype=np.int64)
            t_one = inferences_in_phase_one

            # Number of inferences (out of the span's n) in which each group's
            # enable bit comes out as 1 — one binomial draw per (block, group).
            # An unbiased TRBG is phase-independent (B(t0, .5) + B(t1, .5) is
            # B(T, .5)), and biased ones share t_one across at most one
            # balancer period of distinct values, so all draws run through
            # numpy's scalar-n binomial fast path.
            if bias == 0.5:
                group_enables = _unbiased_binomial(rng, n, (num_blocks, num_groups))
            else:
                group_enables = np.empty((num_blocks, num_groups), dtype=np.int64)
                for phase_count in np.unique(t_one):
                    selected = t_one == phase_count
                    count = (int(selected.sum()), num_groups)
                    group_enables[selected] = (
                        rng.binomial(int(n - phase_count), bias, size=count)
                        + rng.binomial(int(phase_count), 1.0 - bias, size=count))
            # Held in the narrowest exact dtype (uint8 up to 255 inferences).
            return group_enables.astype(np.min_scalar_type(n), copy=False)

        return TrbgSpanKernel(draw, reduction)


#: Target size of one chunk's operands in the fused TRBG reduction: the
#: per-chunk temporaries stay cache-sized however many mappings are folded.
_TRBG_CHUNK_BYTES = 1 << 20


class TrbgReduction:
    """Reduce stage of the DNN-Life kernel: span counts linear in the enables.

    A span of ``n`` inferences whose TRBG drew the ``(num_blocks,
    num_groups)`` enable counts ``E`` (how many of the ``n`` inferences
    inverted each enable group) accumulates, per logical cell,
    ``numerator = ones * n + enables_total - 2 * crossed`` where
    ``enables_total[row] = sum_b E[b, g(w)]`` over the valid words landing
    on the row and ``crossed[row, c] = sum_b E[b, g(w)] * bits[b, w, c]``.
    Both sums are linear in ``E``, so spans sharing a mapping can reduce
    their summed enables once, and :meth:`numerator_chunks` evaluates any
    number of such enable sets in a single pass over the packed tensor (one
    batched matmul per region and chunk of enable groups).  Every operand is
    a small integer, so the products and sums are exact and the result is
    bit-identical to any other summation order.
    """

    def __init__(self, packed: PackedBitTensor, words_per_enable: int):
        self.packed = packed
        self.group = int(words_per_enable)
        self.num_groups = -(-packed.words_per_block // self.group)
        self.ones = packed.rows_ones()
        self.writes = packed.rows_writes()
        #: The most writes any row takes per inference.
        self.max_writes = int(self.writes.max(initial=0))
        self._row_ones: Optional[np.ndarray] = None
        #: Per-region ``(count, num_groups, group)`` word weights of
        #: :meth:`row_totals`, keyed by the contraction dtype.
        self._region_weights: Dict[type, List[np.ndarray]] = {}

    def counts(self, enables: np.ndarray, n: int) -> Tuple[np.ndarray, np.ndarray]:
        """One span's ``(numerator, writes)`` from its drawn enable counts."""
        return (self.numerators(enables[None], np.asarray([n]))[0],
                np.multiply(self.writes, n, dtype=count_dtype(n, self.max_writes)))

    def numerators(self, enables: np.ndarray, lengths: np.ndarray) -> np.ndarray:
        """The dense unsigned ``(K, rows, word_bits)`` numerators of ``K`` enable
        sets, from one :meth:`numerator_chunks` pass (zero on rows no block writes)."""
        dense = np.zeros((enables.shape[0],) + self.ones.shape,
                         dtype=count_dtype(np.max(lengths), self.max_writes))
        for rows, numerators in self.numerator_chunks(enables, lengths):
            dense[:, rows] = numerators
        return dense

    def row_totals(self, enables: np.ndarray, n: int) -> np.ndarray:
        """``counts(enables, n)[0].sum(axis=1)`` in int64, from a ``(B, W)`` pass.

        Summed over the bit axis, ``enables_total`` counts ``word_bits``
        times and ``sum_c crossed[row, c] = sum_b E[b, g(w)] *
        popcount(bits[b, w])``, so the per-row feedback signal is one
        integer pass over per-word weights ``word_bits * valid - 2 *
        popcount``, never over the bit axis.
        """
        packed = self.packed
        if self._row_ones is None:
            self._row_ones = np.einsum("ij->i", self.ones, dtype=np.int64)
        totals = self._row_ones * n
        # |sum| <= num_blocks * n * word_bits: int16 is exact below 2**15,
        # int32 below 2**31.
        bound = packed.num_blocks * n * packed.word_bits
        exact = (np.int16 if bound < 2 ** 15 else
                 np.int32 if bound < 2 ** 31 else np.int64)
        for (row_slice, indexer), weights in zip(packed.region_indexers(),
                                                 self._weights_by_region(exact)):
            if not weights.shape[0]:
                continue
            weighted = np.einsum("bg,bgk->gk", enables[indexer].astype(exact),
                                 weights)
            totals[row_slice] += weighted.reshape(-1)[:packed.words_per_block]
        return totals

    def _weights_by_region(self, exact: type) -> List[np.ndarray]:
        """The word weights of :meth:`row_totals`, per region, in ``exact``.

        Built once per reduction: the table in the narrowest exact dtype
        (``|weight| <= word_bits``), then one ``exact`` slice per region.
        """
        slices = self._region_weights.get(exact)
        if slices is None:
            packed = self.packed
            word_bits, words = packed.word_bits, packed.words_per_block
            narrow = np.min_scalar_type(-word_bits)
            table = np.zeros((packed.num_blocks, self.num_groups * self.group),
                             dtype=narrow)
            body = table[:, :words]
            body[...] = word_bits
            popcount = packed.word_popcounts().astype(narrow)
            body -= popcount
            body -= popcount
            if packed.valid_words.min() < words:
                body[~packed.valid_mask()] = 0
            table = table.reshape(packed.num_blocks, self.num_groups, self.group)
            slices = [table[indexer].astype(exact)
                      for _, indexer in packed.region_indexers()]
            self._region_weights[exact] = slices
        return slices

    def numerator_chunks(self, enables: np.ndarray, lengths: np.ndarray
                         ) -> Iterator[Tuple[slice, np.ndarray]]:
        """Yield ``(rows, numerators)`` for ``K`` enable sets in one pass.

        ``enables`` is ``(K, num_blocks, num_groups)`` and ``lengths`` the
        ``(K,)`` inference count each set spans; every yielded
        ``numerators`` block is ``(K, rows, word_bits)`` over a slice of
        logical rows inside one region (a view of a per-chunk buffer: add it,
        do not keep it).  Regions no block writes are skipped (their
        numerator is zero).

        Per chunk of enable groups, one batched matmul ``(K x R) @ (R x group
        * word_bits)`` yields the numerator itself, straight in ``(K, rows,
        word_bits)`` layout.  Its ``R`` contraction rows are, per word:
        ``bits[b, w, c]`` of every block (coefficient ``-2 E[k, b, g]``), a
        row of ones (``sum_b E[k, b, g]``: every word's ``enables_total``),
        ``ones[w, c]`` (``lengths[k]``), and for each short block a row
        marking its padding words (``-E[k, b, g]``: padding stores nothing).
        The bits are only widened, never transformed, and the product runs
        in float32 when every partial sum provably stays below 2**24, in
        float64 otherwise.  The ``(groups, K, R)`` left operand is filled
        through a transposed view, so the enables are cast in their own
        memory order (groups innermost) instead of in runs of ``R``.
        """
        packed = self.packed
        group, word_bits = self.group, packed.word_bits
        words, num_groups = packed.words_per_block, self.num_groups
        width = group * word_bits
        num_sets = enables.shape[0]
        lengths = np.asarray(lengths)
        for row_slice, indexer in packed.region_indexers():
            region_bits = packed.bits[indexer]
            count = region_bits.shape[0]
            if not count:
                continue
            region_enables = enables[:, indexer]
            enables_total = region_enables.sum(axis=1, dtype=np.int64)
            region_valid = packed.valid_words[indexer]
            short = np.flatnonzero(region_valid < words)
            region_ones = self.ones[row_slice]
            terms = count + 2 + short.size
            # Every partial sum is bounded by sum |term| <= (2 + 1 + 1) * count
            # * max n (bits, enables total, ones) + short.size * max n.
            dtype = (np.float32
                     if (4 * count + short.size) * int(lengths.max()) < 2 ** 24
                     else np.float64)
            step = max(1, _TRBG_CHUNK_BYTES // ((terms + num_sets) * width * 8))
            for first in range(0, num_groups, step):
                last = min(first + step, num_groups)
                start, stop = first * group, min(last * group, words)
                size, used = last - first, stop - start
                chunk_enables = region_enables[:, :, first:last]
                cells = np.empty((terms, size * group, word_bits), dtype=dtype)
                cells[:count, :used] = region_bits[:, start:stop]
                cells[count, :used] = 1
                cells[count + 1, :used] = region_ones[start:stop]
                cells[count + 2:, :used] = 0
                cells[:, used:] = 0  # a short last group: dropped, kept finite
                left = np.empty((size, num_sets, terms), dtype=dtype)
                np.multiply(chunk_enables, dtype(-2),
                            out=left[:, :, :count].transpose(1, 2, 0))
                left[:, :, count].T[...] = enables_total[:, first:last]
                left[:, :, count + 1] = lengths
                for term, block in enumerate(short, start=count + 2):
                    cells[term, max(region_valid[block] - start, 0):used] = 1
                    np.multiply(chunk_enables[:, block], dtype(-1),
                                out=left[:, :, term].T)
                sums = np.empty((num_sets, size, width), dtype=dtype)
                np.matmul(left, cells.reshape(terms, size, width)
                          .transpose(1, 0, 2), out=sums.transpose(1, 0, 2))
                yield (slice(row_slice.start + start, row_slice.start + stop),
                       sums.reshape(num_sets, -1, word_bits)[:, :used])


class TrbgSpanKernel:
    """The DNN-Life kernel as a draw stage and a linear reduce stage.

    DNN-Life has no fixed basis: its TRBG draws fresh randomness per span, in
    call order.  ``draw(start, n)`` makes the span's ``(num_blocks,
    num_groups)`` TRBG enable counts — one call per span, in call order,
    which is the RNG sequence the golden results pin — and :attr:`reduction`
    turns enable counts into duty counts.  Calling the kernel as
    ``counts(start, n)`` runs both stages; the leveled composition instead
    draws every span first and reduces all of a run's mappings in one fused
    pass (:meth:`~repro.core.span_compose.SpanComposer.add_draws`).
    """

    def __init__(self, draw: Callable[[int, int], np.ndarray],
                 reduction: TrbgReduction):
        self.draw = draw
        self.reduction = reduction

    def __call__(self, start: int, n: int) -> Tuple[np.ndarray, np.ndarray]:
        return self.reduction.counts(self.draw(start, n), n)


def _describe_with_leveling(policy: MitigationPolicy,
                            leveler: Optional["WearLeveler"]) -> Dict[str, object]:
    """Policy description, extended with the wear leveler's when one is active."""
    description = dict(policy.describe())
    if leveler is not None:
        description["leveling"] = leveler.describe()
    return description


def _unbiased_binomial(rng: np.random.Generator, trials: int,
                       size: Tuple[int, ...]) -> np.ndarray:
    """Draw Binomial(trials, 0.5) samples through the fastest available path.

    For p = 1/2 a binomial sample is exactly the popcount of ``trials``
    uniform random bits, which numpy >= 2.0 computes ~40% faster than its
    binomial sampler; older numpy falls back to the scalar-n binomial.  A
    sample that fits one 64-bit word comes back as that word's ``uint8``
    popcount, with no sum over the word axis.
    """
    if hasattr(np, "bitwise_count") and 0 < trials <= 512:
        full_words, tail_bits = divmod(trials, 64)
        draws = full_words + (1 if tail_bits else 0)
        words = rng.integers(0, np.iinfo(np.uint64).max, size=size + (draws,),
                             dtype=np.uint64, endpoint=True)
        if tail_bits:
            words[..., -1] &= np.uint64((1 << tail_bits) - 1)
        if draws == 1:
            return np.bitwise_count(words)[..., 0]
        return np.bitwise_count(words).sum(axis=-1, dtype=np.int64)
    return rng.binomial(trials, 0.5, size=size)


def _duty_from_counts(ones: np.ndarray, writes: np.ndarray) -> np.ndarray:
    """Duty-cycle = accumulated ones / accumulated writes; unwritten rows hold 0.

    ``ones`` is ``(rows, word_bits)`` over per-row ``writes``, or a batch of
    ``(K, rows, word_bits)`` over ``(K, rows)``: each slice of the batch is
    bit for bit the single call on that slice.  The counts are integers, so
    a duty ``i / K`` with ``0 <= i <= K`` lies in ``[0, 1]`` as divided;
    a ratio outside it can only come from a numerator-accounting bug, and
    is reported loudly instead of being clipped away.
    """
    writes_matrix = np.asarray(writes)
    if writes_matrix.ndim == np.ndim(ones) - 1:
        writes_matrix = writes_matrix[..., None]
    written = writes_matrix > 0
    if written.all():  # every padded stream: no row to mask
        duty = np.divide(ones, writes_matrix, dtype=np.float64)
    else:
        duty = np.zeros(np.broadcast_shapes(np.shape(ones), writes_matrix.shape))
        np.divide(ones, writes_matrix, out=duty, where=written)
    if duty.size:
        low, high = float(duty.min()), float(duty.max())
        if low < 0.0 or high > 1.0:
            out_of_range = int(np.count_nonzero((duty > 1.0) | (duty < 0.0)))
            raise FloatingPointError(
                f"duty-cycle accounting produced {out_of_range} value(s) outside "
                f"[0, 1] (min {low!r}, max {high!r}); this indicates a numerator "
                "bug in a closed-form kernel")
    return duty
