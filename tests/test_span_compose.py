"""Batched-span leveling fast path: contract, property, and golden tests.

Three layers of protection for the fused remap composition
(:mod:`repro.core.span_compose`):

* property tests that :meth:`WearLeveler.span_table` /
  :meth:`WearLeveler.span_tables` cut exactly the maximal runs of equal
  :meth:`WearLeveler.permutation` for every shipped leveler across sampled
  schedules and ``[start, stop)`` windows;
* unit tests of the span window-contract validator;
* byte-identity regressions pinning the leveled ``AgingResult`` payloads
  (and leveled dnn_life scenario payloads) to SHAs captured on the
  pre-refactor per-span loops, including a >255-span schedule that would
  expose any narrow-dtype shortcut in the composition, plus live
  cross-checks of the fused composition (batched deterministic kernels and
  the draw/reduce dnn_life kernel) against a literal per-span walk, of the
  TRBG reduce stage against the encoder arithmetic, and of the integer
  permutation gathers against a float64 loop.
"""

import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.simulation as simulation
import repro.core.span_compose as span_compose
from repro.bench.aging_bench import (BenchCase, _policy_for,
                                     synthetic_weight_stream)
from repro.accelerator.baseline import BaselineAccelerator
from repro.accelerator.config import baseline_config
from repro.accelerator.scheduler import PackedBitTensor, WeightStreamScheduler
from repro.core.policies import DnnLifePolicy
from repro.core.simulation import AgingSimulator, TrbgReduction
from repro.core.span_compose import compose_leveled
from repro.experiments.common import ExperimentScale
from repro.leveling import make_leveler
from repro.leveling.remap import SpanTable, _check_span_tiling
from repro.memory.geometry import MemoryGeometry
from repro.scenario.driver import ScenarioAgingSimulator, scenario_stream_factory
from repro.scenario.phases import LifetimeScenario
from repro.utils.units import KB

# --------------------------------------------------------------------------- #
# Shared strategies / fixtures
# --------------------------------------------------------------------------- #

#: Every shipped leveler, with a sampling of its constructor schedules.
LEVELER_SPECS = st.one_of(
    st.just(("none", {})),
    st.builds(lambda p, s: ("rotation", {"period": p, "step": s}),
              st.integers(min_value=1, max_value=9),
              st.integers(min_value=1, max_value=5)),
    st.builds(lambda i: ("start_gap", {"interval": i}),
              st.integers(min_value=1, max_value=7)),
    st.builds(lambda i, f: ("wear_swap", {"interval": i, "swap_fraction": f}),
              st.integers(min_value=1, max_value=6),
              st.sampled_from([0.1, 0.25, 0.5])),
)


@st.composite
def leveler_and_window(draw):
    """A leveler spec plus a ``[start, stop)`` window inside its horizon."""
    spec = draw(LEVELER_SPECS)
    num_inferences = draw(st.integers(min_value=1, max_value=40))
    start = draw(st.integers(min_value=0, max_value=num_inferences))
    stop = draw(st.integers(min_value=start, max_value=num_inferences))
    return spec, num_inferences, start, stop


def _build_leveler(spec, fifo_depth_tiles=4, capacity_bytes=64):
    name, options = spec
    geometry = MemoryGeometry(capacity_bytes=capacity_bytes, word_bits=8)
    return make_leveler(name, geometry, fifo_depth_tiles, **options)


def _counts(leveler, epoch):
    """Distinct per-row ``(row_ones, row_hold)`` counts for ``epoch``: every
    swap opportunity of a feedback leveler then changes the mapping."""
    row_ones = np.random.default_rng(epoch).permutation(leveler.rows).astype(float)
    return row_ones, np.full(leveler.rows, float(leveler.rows))


def _constant_mapping_runs(leveler, start, stop):
    """Test-local reference: maximal runs of equal ``permutation(epoch)``.

    Walks ``[start, stop)`` epoch by epoch; feedback levelers observe
    :func:`_counts` before the window (as an earlier window would have left
    them) and after every epoch.
    """
    runs, previous = [], None
    if leveler.uses_feedback:
        leveler.observe(start, *_counts(leveler, start))
    for epoch in range(start, stop):
        permutation = leveler.permutation(epoch).copy()
        if previous is not None and np.array_equal(permutation, previous):
            runs[-1][1] += 1
        else:
            runs.append([epoch, 1])
        previous = permutation
        if leveler.uses_feedback:
            leveler.observe(epoch + 1, *_counts(leveler, epoch + 1))
    return [tuple(run) for run in runs]


class TestSpanTableProperties:
    """`span_table(s)` must cut the window into constant-mapping runs."""

    @settings(max_examples=200, deadline=None)
    @given(leveler_and_window())
    def test_tables_concatenate_to_constant_mapping_runs(self, case):
        spec, num_inferences, start, stop = case
        expected = _constant_mapping_runs(_build_leveler(spec), start, stop)
        leveler = _build_leveler(spec)
        if leveler.uses_feedback:
            leveler.observe(start, *_counts(leveler, start))
        got = []
        for table in leveler.span_tables(num_inferences, start=start,
                                         stop=stop):
            got.extend(table.iter_spans())
            if leveler.uses_feedback and table.num_spans:
                end = int(table.starts[-1] + table.lengths[-1])
                leveler.observe(end, *_counts(leveler, end))
        assert got == expected

    @settings(max_examples=200, deadline=None)
    @given(leveler_and_window())
    def test_table_permutations_match_epoch_walk(self, case):
        """Each span's table mapping equals `permutation(epoch)` at its start.

        The reference leveler walks epochs through the legacy interface; the
        tables come from an independent instance so feedback-free schedules
        cannot leak state between the two paths.
        """
        spec, num_inferences, start, stop = case
        reference = _build_leveler(spec)
        tables = _build_leveler(spec).span_tables(
            num_inferences, start=start, stop=stop)
        for table in tables:
            for index, (span_start, _) in enumerate(table.iter_spans()):
                np.testing.assert_array_equal(
                    table.permutation(index), reference.permutation(span_start))

    @settings(max_examples=150, deadline=None)
    @given(leveler_and_window())
    def test_window_split_is_seamless(self, case):
        """Walking a window in two pieces covers the same epochs with the
        same mapping as one piece — the scenario driver's phase contract."""
        spec, num_inferences, start, stop = case
        mid = (start + stop) // 2
        whole = _build_leveler(spec)
        split = _build_leveler(spec)
        mapping_whole = {}
        for table in whole.span_tables(num_inferences, start=start, stop=stop):
            for index, (span_start, length) in enumerate(table.iter_spans()):
                perm = table.permutation(index)
                for epoch in range(span_start, span_start + length):
                    mapping_whole[epoch] = perm
        mapping_split = {}
        for lo, hi in ((start, mid), (mid, stop)):
            for table in split.span_tables(num_inferences, start=lo, stop=hi):
                for index, (span_start, length) in enumerate(table.iter_spans()):
                    perm = table.permutation(index)
                    for epoch in range(span_start, span_start + length):
                        mapping_split[epoch] = perm
        assert set(mapping_whole) == set(mapping_split) == set(
            range(start, stop))
        for epoch, perm in mapping_whole.items():
            np.testing.assert_array_equal(perm, mapping_split[epoch])

    def test_schedule_driven_table_is_single_shot(self):
        leveler = _build_leveler(("rotation", {"period": 4, "step": 1}))
        tables = list(leveler.span_tables(16))
        assert len(tables) == 1
        assert tables[0].offsets is not None

    def test_feedback_driven_span_table_refuses(self):
        leveler = _build_leveler(("wear_swap", {"interval": 2}))
        with pytest.raises(NotImplementedError):
            leveler.span_table(10)

    def test_permutation_tables_carry_their_inverses(self):
        leveler = _build_leveler(("wear_swap", {"interval": 3}))
        table = next(leveler.span_tables(10))
        permutation = table.permutation(0)
        np.testing.assert_array_equal(table.inverse(0)[permutation],
                                      np.arange(permutation.size))
        for mappings in ({}, {"offsets": [0], "inverses": table.inverse(0)[None, :]}):
            with pytest.raises(ValueError, match="exactly one of offsets/inverses"):
                SpanTable(leveler, [0], [3], **mappings)

    def test_feedback_driven_tables_chunk_at_observe_boundaries(self):
        leveler = _build_leveler(("wear_swap", {"interval": 3}))
        tables = list(leveler.span_tables(10))
        assert [t.num_spans for t in tables] == [1, 1, 1, 1]
        assert [next(t.iter_spans()) for t in tables] == [
            (0, 3), (3, 3), (6, 3), (9, 1)]


class TestSpanValidation:
    """The window-contract check every span table passes through."""

    def test_shipped_levelers_pass_validation(self):
        for spec in (("none", {}), ("rotation", {"period": 3, "step": 2}),
                     ("start_gap", {"interval": 2}),
                     ("wear_swap", {"interval": 4})):
            leveler = _build_leveler(spec)
            for start, stop in ((0, 17), (5, 11), (3, 3), (0, 1)):
                list(leveler.span_tables(17, start=start, stop=stop))

    def test_tiling_check_accepts_exact_cover(self):
        _check_span_tiling(np.asarray([2, 5, 9]), np.asarray([3, 4, 1]),
                           2, 10, "unit")

    @pytest.mark.parametrize("starts,lengths,start,stop", [
        ([0, 4], [3, 4], 0, 8),          # gap: epoch 3 uncovered
        ([0, 2], [3, 6], 0, 8),          # overlap at epoch 2
        ([1, 4], [3, 4], 0, 8),          # first span misses window start
        ([0, 4], [4, 3], 0, 8),          # last span misses window stop
        ([0], [0], 0, 8),                # non-positive length
        ([], [], 0, 8),                  # no spans for a non-empty window
        ([0], [1], 5, 5),                # spans emitted for an empty window
    ])
    def test_tiling_check_rejects_broken_tables(self, starts, lengths,
                                                start, stop):
        with pytest.raises(AssertionError):
            _check_span_tiling(np.asarray(starts, dtype=np.int64),
                               np.asarray(lengths, dtype=np.int64),
                               start, stop, "unit")


# --------------------------------------------------------------------------- #
# Byte-identity regressions
# --------------------------------------------------------------------------- #

#: Leveler schedules pinned by the golden battery (the bench suite's set).
GOLDEN_LEVELERS = (
    ("rotation", {"period": 8, "step": 1}),
    ("start_gap", {"interval": 2}),
    ("wear_swap", {"interval": 5, "swap_fraction": 0.25}),
)

#: sha256 of the sorted-key JSON payload of each leveled packed run, captured
#: on the pre-refactor per-span loop engine.  The batched composition must
#: reproduce these byte-for-byte.
GOLDEN_8KB_SHAS = {
    ("none", "rotation"):
        "cf02205a6949c7ea738fba2ee44779a80c697e51e90bdbaa0ea85f5c682c8d87",
    ("inversion", "rotation"):
        "3b8af059df3339a67971462c7d9d39973497fbfe07baad12063e637124816a02",
    ("none", "start_gap"):
        "bd75c44920a365c9df630e4f3eab29ec8fbfb569143f21499fcc1470e1acf2a8",
    ("inversion", "start_gap"):
        "c76d7a13f2e0365a4416c3b8e57f5c5536b62abdebe306bd459fcfef96721c32",
    ("none", "wear_swap"):
        "8dc69c71584626113edca1a11e3de4fde893745718198ab62519ac9cb8a467a4",
    ("inversion", "wear_swap"):
        "a3712b6f344d5d7d90b4659d1240d4cc15d7d6880c183dd37d191c06f9fd7258",
    # The stochastic TRBG kernel composes span by span, in draw order.
    ("dnn_life", "rotation"):
        "0410001e6493a5c7f7872dfa58bcbc1ba415a0be65407fb9ad3270af50c67776",
    ("dnn_life", "start_gap"):
        "df703541eec583b39e982c27f7b0cc0470c05a4add161c62529873f2b3581236",
    ("dnn_life", "wear_swap"):
        "92a3c0b19964de0df1a344ba90e6b2e41f99dfa52a41aaa3a39f9ca90c7d913c",
}

#: A seeded dnn_life timeline (two active phases around an idle retention
#: stretch) run through the packed scenario driver under each leveler.
GOLDEN_SCENARIO_SPEC = ("custom_mnist:int8:dnn_life:7@85C,idle:3@45C,"
                        "custom_mnist:int8:dnn_life:6@60C")

#: sha256 of the sorted-key JSON ``ScenarioResult`` payload per leveler.
#: The payload's phase summaries are count-weighted sums over each phase's
#: cell-class table (the duties and the effective result are unaffected).
GOLDEN_SCENARIO_SHAS = {
    "rotation":
        "43d4b08da9a85e148613c7788ee0f62db752bf9723af56aacf7cdaf347734e18",
    "start_gap":
        "1035bc31924744a1d41a70b95c6edec936383339286ae82fbf9052cfbf8105a7",
    "wear_swap":
        "b61defed8971a136d2f3c3829c0c3ce5d1cc9ead1a61711470150c9976497490",
}

#: Pre-refactor SHA of a 300-span rotation schedule (period 8, step 1): more
#: than 255 spans, so any uint8-shaped narrowing in the fused composition's
#: span indexing or coefficient handling would change the payload.
GOLDEN_300SPAN_SHA = \
    "b16239ce36e41360083e4dd4ca2c7ac74a5ec79d69f8dad474b8f10126bd2774"


def _golden_8kb_case() -> BenchCase:
    return BenchCase(name="golden_8kb", description="golden leveling case",
                     memory_kb=8, word_bits=8, num_blocks=12,
                     fifo_depth_tiles=4, num_inferences=12,
                     policies=("none", "inversion"))


def _golden_300span_case() -> BenchCase:
    return BenchCase(name="golden_300span", description="300-span schedule",
                     memory_kb=4, word_bits=8, num_blocks=6,
                     fifo_depth_tiles=4, num_inferences=300,
                     policies=("none",))


def _golden_scenario_factory(seed: int):
    """The 8 KB x 4-tile scenario stream factory the scenario SHAs pin."""
    config = replace(baseline_config(), name="golden_scenario",
                     weight_memory_bytes=8 * KB, weight_fifo_depth_tiles=4)
    scale = ExperimentScale(num_inferences=100, max_weights_per_layer=20_000)
    return scenario_stream_factory(BaselineAccelerator(config=config),
                                   scale=scale, seed=seed)


def _leveled_payload_sha(case: BenchCase, policy_name: str,
                         leveler_name: str, options: dict) -> str:
    stream = case.build_stream(seed=0)
    leveler = make_leveler(leveler_name, stream.geometry,
                           case.fifo_depth_tiles, **options)
    result = AgingSimulator(stream, _policy_for(case, policy_name, 0),
                            num_inferences=case.num_inferences, seed=0,
                            leveler=leveler).run()
    payload = json.dumps(result.to_payload(), sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class TestGoldenPayloads:
    """The batched path must reproduce the pre-refactor loop byte-for-byte."""

    @pytest.mark.parametrize("policy_name", ["none", "inversion", "dnn_life"])
    @pytest.mark.parametrize("leveler_name,options",
                             GOLDEN_LEVELERS, ids=lambda v: str(v))
    def test_golden_8kb(self, policy_name, leveler_name, options):
        sha = _leveled_payload_sha(_golden_8kb_case(), policy_name,
                                   leveler_name, options)
        assert sha == GOLDEN_8KB_SHAS[(policy_name, leveler_name)]

    def test_golden_300_span_schedule(self):
        """Overflow-shaped case: the schedule emits >255 constant spans."""
        case = _golden_300span_case()
        leveler = make_leveler("rotation",
                               MemoryGeometry(capacity_bytes=case.memory_kb * KB,
                                              word_bits=case.word_bits),
                               case.fifo_depth_tiles, period=8, step=1)
        table = leveler.span_table(case.num_inferences)
        assert table.num_spans > 255
        sha = _leveled_payload_sha(case, "none", "rotation",
                                   {"period": 8, "step": 1})
        assert sha == GOLDEN_300SPAN_SHA

    @pytest.mark.parametrize("leveler_name,options",
                             GOLDEN_LEVELERS, ids=lambda v: str(v))
    def test_golden_dnn_life_scenario(self, leveler_name, options):
        """Leveled dnn_life phases: draw order, feedback and held values."""
        scenario = LifetimeScenario.from_spec(GOLDEN_SCENARIO_SPEC)
        factory = _golden_scenario_factory(seed=3)
        geometry = factory(scenario.active_phases[0]).geometry
        leveler = make_leveler(leveler_name, geometry, 4, **options)
        result = ScenarioAgingSimulator(scenario, stream_factory=factory,
                                        seed=3, leveler=leveler).run()
        payload = json.dumps(result.to_payload(), sort_keys=True)
        sha = hashlib.sha256(payload.encode("utf-8")).hexdigest()
        assert sha == GOLDEN_SCENARIO_SHAS[leveler_name]


def _per_span_walk(kernel, leveler, horizon, start=0, stop=None,
                   prior_rows=None):
    """Test-local reference: the literal per-span leveled walk.

    ``kernel(span_start - start, n)`` per span, in table order, scattered
    through ``table.permutation(k)``; feedback levelers observe the dense
    physical counts (on top of ``prior_rows``, advanced in place) at every
    table end, exactly as the fused path must.
    """
    word_bits = leveler.geometry.word_bits
    ones = np.zeros((leveler.rows, word_bits))
    writes = np.zeros(leveler.rows)
    for table in leveler.span_tables(horizon, start=start, stop=stop):
        for index, (span_start, length) in enumerate(table.iter_spans()):
            permutation = table.permutation(index)
            span_ones, span_writes = kernel(span_start - start, length)
            ones[permutation] += span_ones
            writes[permutation] += span_writes
        if leveler.uses_feedback:
            row_ones, row_writes = ones.sum(axis=1), writes
            if prior_rows is not None:
                row_ones = prior_rows[0] + row_ones
                row_writes = prior_rows[1] + row_writes
            leveler.observe(int(table.starts[-1] + table.lengths[-1]),
                            row_ones, row_writes * float(word_bits))
    if leveler.uses_feedback and prior_rows is not None:
        prior_rows[0][...] += ones.sum(axis=1)
        prior_rows[1][...] += writes
    return ones, writes


def _assert_fused_matches_walk(stream, make_policy_, leveler_name, options,
                               tiles, horizon, start=0, stop=None,
                               prior_rows=None, seed=0):
    """Fused ``compose_leveled`` == the per-span walk, bit for bit.

    Each side gets its own simulator (same seed, so the same RNG stream) and
    its own leveler; ``prior_rows`` is copied so both advance it.
    """
    results = []
    for compose in (compose_leveled, _per_span_walk):
        kernel = AgingSimulator(stream, make_policy_(), num_inferences=horizon,
                                seed=seed).counts_kernel()
        leveler = make_leveler(leveler_name, stream.geometry, tiles, **options)
        prior = (None if prior_rows is None
                 else tuple(rows.copy() for rows in prior_rows))
        ones, writes = compose(kernel, leveler, horizon, start=start,
                               stop=stop, prior_rows=prior)[:2]
        results.append((ones, writes, prior))
    (fused_ones, fused_writes, fused_prior), (ones, writes, prior) = results
    assert fused_ones.dtype.kind == fused_writes.dtype.kind == "u"
    assert np.array_equal(fused_ones, ones)
    assert np.array_equal(fused_writes, writes)
    if prior_rows is not None:
        assert np.array_equal(fused_prior[0], prior[0])
        assert np.array_equal(fused_prior[1], prior[1])
    return fused_ones


class TestBatchedMatchesLoop:
    """Live cross-check: batched tables vs the literal per-span walk."""

    @pytest.mark.parametrize("policy_name",
                             ["none", "inversion", "barrel_shifter"])
    @pytest.mark.parametrize("leveler_name,options",
                             GOLDEN_LEVELERS, ids=lambda v: str(v))
    def test_bitwise_equal_results(self, policy_name, leveler_name, options,
                                   ranking_paths):
        case = _golden_8kb_case()
        _assert_fused_matches_walk(
            case.build_stream(seed=0),
            lambda: _policy_for(case, policy_name, 0), leveler_name, options,
            case.fifo_depth_tiles, case.num_inferences)
        # Every row of the padded case holds the same total: integer keys.
        assert set(ranking_paths) == ({"int"} if leveler_name == "wear_swap"
                                      else set())

    def test_300_span_schedule_bitwise_equal(self):
        case = _golden_300span_case()
        _assert_fused_matches_walk(
            case.build_stream(seed=0), lambda: _policy_for(case, "inversion", 0),
            "rotation", {"period": 8, "step": 1}, case.fifo_depth_tiles,
            case.num_inferences)

    def test_permutation_gather_matches_loop(self):
        """The compacted gathers of permutation-form spans equal the int64
        gather-accumulate: byte, wider and wide bases, with repeated and
        zero weights, into unsigned counts."""
        generator = np.random.default_rng(3)
        rows = 64
        inverses = [generator.permutation(rows) for _ in range(6)]
        weights = np.array([2, 2, 0, 5, 2, 1])
        for high in [255, 300, 2 ** 40]:
            base = generator.integers(0, high, (rows, 8), endpoint=True)
            base[1, 1] = high  # the extreme picks the dtypes
            expected = np.zeros((rows, 8), dtype=np.int64)
            for inverse, weight in zip(inverses, weights):
                expected += weight * base[inverse]
            got = np.zeros((rows, 8), dtype=np.uint64)
            span_compose._weighted_gather(got, base, inverses, weights, rows)
            assert np.array_equal(got, expected)

    @pytest.mark.parametrize("gather_rows", [8192, 5])
    @pytest.mark.parametrize("support", ["direct", "window", "full", "wrapped",
                                         "scattered"])
    def test_offset_weights_match_loop(self, monkeypatch, support,
                                       gather_rows):
        """Blocked shifted adds and sliding windows equal the int64 sum of
        per-region rolls: byte and wider bases, a 1-D (writes) base, and
        blocks that split a region (``gather_rows`` 5)."""
        monkeypatch.setattr(span_compose, "_GATHER_ROWS", gather_rows)
        generator = np.random.default_rng(4)
        regions, region_rows = 3, 37
        weights = np.zeros(region_rows, dtype=np.int64)
        if support == "direct":
            weights[[0, 5, 36]] = [3, 1, 3]
        elif support == "window":  # a uniform run plus a residual
            weights[4:34] = 2
            weights[[7, 20]] = [5, 3]
        elif support == "full":
            weights[:] = 2
            weights[3] = 5
        elif support == "wrapped":
            weights[list(range(30, 37)) + list(range(0, 25))] = 1
        else:  # two runs: one shifted add per offset
            weights[np.r_[0:14, 16:30]] = generator.integers(1, 4, 28)
        rows = regions * region_rows
        bases = [generator.integers(0, 22, (rows, 8)).astype(np.uint8),
                 generator.integers(0, 300, (rows, 2)).astype(np.uint16),
                 generator.integers(0, 9, rows).astype(np.uint8)]
        for base in bases:
            rolled = base.reshape((regions, region_rows) + base.shape[1:])
            rolled = rolled.astype(np.int64)
            expected = np.zeros_like(rolled)
            for offset in np.flatnonzero(weights):
                expected += weights[offset] * np.roll(rolled, offset, axis=1)
            got = np.zeros(base.shape, dtype=np.uint32)
            span_compose._apply_offset_weights(got, base, weights, region_rows)
            assert np.array_equal(got, expected.reshape(base.shape))


#: TRBG configurations of the fused dnn_life battery: an unbiased TRBG, and a
#: biased one whose bias-balancing register splits the draws by phase.
TRBG_CONFIGS = {
    "unbiased": {"trbg_bias": 0.5},
    "biased_balanced": {"trbg_bias": 0.7, "bias_balancing": True},
}


def _unpadded_fifo_stream(tiny_network, tiny_fifo_scheduler):
    """The tiny FIFO workload with a short (unpadded) final block."""
    scheduler = WeightStreamScheduler(
        tiny_network, "int8_symmetric", tiny_fifo_scheduler.geometry,
        tiny_fifo_scheduler.parallel_filters, fifo_depth_tiles=4,
        pad_final_block=False)
    assert list(scheduler.iter_blocks())[-1].num_words < scheduler.words_per_block
    return PackedBitTensor.from_stream(scheduler)


class TestFusedTrbgMatchesWalk:
    """The fused dnn_life composition against the literal per-span walk.

    The draw stage keeps the RNG call order, and every count is an
    integer, so summing enables per mapping and reducing all mappings in
    one pass must reproduce the walk bit for bit.
    """

    @pytest.mark.parametrize("words_per_enable", [1, 8, 3])
    @pytest.mark.parametrize("trbg", sorted(TRBG_CONFIGS))
    @pytest.mark.parametrize("leveler_name,options",
                             GOLDEN_LEVELERS, ids=lambda v: str(v))
    def test_bitwise_equal(self, leveler_name, options, trbg, words_per_enable):
        case = _golden_8kb_case()
        stream = case.build_stream(seed=0)
        # 3 does not divide the 2048-word blocks: a short last enable group.
        assert stream.words_per_block % 3
        _assert_fused_matches_walk(
            stream, lambda: DnnLifePolicy(case.word_bits, seed=5,
                                          words_per_enable=words_per_enable,
                                          **TRBG_CONFIGS[trbg]),
            leveler_name, options, case.fifo_depth_tiles, case.num_inferences,
            seed=5)

    @pytest.mark.parametrize("words_per_enable", [1, 3])
    @pytest.mark.parametrize("leveler_name,options",
                             GOLDEN_LEVELERS, ids=lambda v: str(v))
    def test_unpadded_final_block(self, tiny_network, tiny_fifo_scheduler,
                                  leveler_name, options, words_per_enable,
                                  ranking_paths):
        stream = _unpadded_fifo_stream(tiny_network, tiny_fifo_scheduler)
        _assert_fused_matches_walk(
            stream, lambda: DnnLifePolicy(8, seed=2, trbg_bias=0.7,
                                          words_per_enable=words_per_enable),
            leveler_name, options, 4, 9, seed=2)
        # The short final block leaves some rows with fewer writes: the
        # holds differ, so the ranking falls back to the ratio.
        assert set(ranking_paths) == ({"ratio"} if leveler_name == "wear_swap"
                                      else set())

    @pytest.mark.parametrize("trbg", sorted(TRBG_CONFIGS))
    @pytest.mark.parametrize("leveler_name,options",
                             GOLDEN_LEVELERS, ids=lambda v: str(v))
    def test_scenario_window(self, leveler_name, options, trbg):
        """A phase window: origin != 0, feedback on top of prior rows."""
        case = _golden_8kb_case()
        stream = case.build_stream(seed=0)
        rows = stream.geometry.rows
        generator = np.random.default_rng(9)
        prior_rows = (generator.integers(0, 50, rows).astype(np.float64),
                      generator.integers(50, 60, rows).astype(np.float64))
        _assert_fused_matches_walk(
            stream, lambda: DnnLifePolicy(case.word_bits, seed=4,
                                          **TRBG_CONFIGS[trbg]),
            leveler_name, options, case.fifo_depth_tiles, 30, start=7,
            stop=26, prior_rows=prior_rows, seed=4)

    @pytest.mark.parametrize("fold_mappings,fold_bytes",
                             [(None, None), (3, None), (None, 1)])
    @pytest.mark.parametrize("leveler_name,options", [
        ("start_gap", {"interval": 1}),
        ("wear_swap", {"interval": 1, "swap_fraction": 0.25}),
    ], ids=lambda v: str(v))
    def test_one_mapping_per_span(self, monkeypatch, leveler_name, options,
                                  fold_mappings, fold_bytes):
        """Eleven mappings: one fused pass, or several when the pending
        mappings exceed the fold's mapping or byte limit."""
        if fold_mappings is not None:
            monkeypatch.setattr(span_compose, "_FOLD_MAPPINGS", fold_mappings)
        if fold_bytes is not None:
            monkeypatch.setattr(span_compose, "_FOLD_BYTES", fold_bytes)
        case = _golden_8kb_case()
        _assert_fused_matches_walk(
            case.build_stream(seed=0), lambda: DnnLifePolicy(8, seed=6),
            leveler_name, options, case.fifo_depth_tiles, 11, seed=6)

    @pytest.mark.parametrize("fill", ["random", "full"])
    @pytest.mark.parametrize("above", [False, True])
    @pytest.mark.parametrize("limit", [2 ** 8 - 1, 2 ** 16 - 1])
    @pytest.mark.parametrize("leveler_name", ["start_gap", "wear_swap"])
    def test_fold_across_a_dtype_bound(self, monkeypatch, leveler_name, limit,
                                       above, fill):
        """The fold sums every pending mapping in the narrowest dtype of
        their total: a horizon whose full counts sit at ``limit`` keeps the
        narrow dtype, one inference more widens it.  With ``full`` every
        cell stores a '1' on every write (zero bits, always inverted), so
        the counts reach the bound itself and a too-narrow sum would wrap."""
        case = _golden_8kb_case()
        if fill == "full":
            geometry = MemoryGeometry(capacity_bytes=case.memory_kb * KB,
                                      word_bits=case.word_bits)
            stream = synthetic_weight_stream(
                geometry, case.num_blocks,
                fifo_depth_tiles=case.fifo_depth_tiles, probability_of_one=0.0)
            trbg = {"trbg_bias": 1.0, "bias_balancing": False}
        else:
            stream = case.build_stream(seed=0)
            trbg = TRBG_CONFIGS["biased_balanced"]
        writes = int(stream.rows_writes().max())
        assert limit % writes == 0  # the full counts hit the bound exactly
        horizon = limit // writes + above
        period = -(-horizon // 10)  # ten spans: one fold
        options = ({"interval": period} if leveler_name == "start_gap"
                   else {"interval": period, "swap_fraction": 0.25})
        dtypes = []
        original = span_compose._mapped_sum

        def recording(out, terms, dtype, *args, **kwargs):
            dtypes.append(np.dtype(dtype))
            return original(out, terms, dtype, *args, **kwargs)

        monkeypatch.setattr(span_compose, "_mapped_sum", recording)
        ones = _assert_fused_matches_walk(
            stream, lambda: DnnLifePolicy(case.word_bits, seed=8, **trbg),
            leveler_name, options, case.fifo_depth_tiles, horizon, seed=8)
        if fill == "full":
            assert (ones == horizon * writes).all()
        # A padded stream writes every row alike: the only sum is the ones'.
        assert dtypes == [np.min_scalar_type(limit + 1 if above else limit)]

    @pytest.mark.parametrize("leveler_name,options", [
        ("start_gap", {"interval": 2}),
        ("wear_swap", {"interval": 2, "swap_fraction": 0.5}),
    ], ids=lambda v: str(v))
    def test_ten_mappings_reduce_in_one_pass(self, monkeypatch, leveler_name,
                                             options):
        """The warm sweep's shape (256 KB x 4 tiles, 21 blocks per region,
        eight words per enable, 20 inferences in ten mappings): every
        mapping's whole logical counts fit the fold's byte budget, so the
        composition reduces them in a single pass."""
        geometry = MemoryGeometry(capacity_bytes=256 * KB, word_bits=8)
        words = geometry.rows // 4
        bits = np.random.default_rng(1).integers(0, 2, (84, words, 8),
                                                 dtype=np.uint8)
        stream = PackedBitTensor(bits, np.arange(84) % 4, np.full(84, words),
                                 geometry, fifo_depth_tiles=4)
        assert geometry.rows == 262_144
        passes = []
        original = TrbgReduction.numerator_chunks

        def counting(reduction, enables, lengths):
            passes.append(int(enables.shape[0]))
            return original(reduction, enables, lengths)

        monkeypatch.setattr(TrbgReduction, "numerator_chunks", counting)
        kernel = AgingSimulator(stream, DnnLifePolicy(8, seed=3,
                                                      words_per_enable=8),
                                num_inferences=20, seed=3).counts_kernel()
        leveler = make_leveler(leveler_name, geometry, 4, **options)
        compose_leveled(kernel, leveler, 20)
        assert passes == [10]


class TestTrbgReduction:
    """The reduce stage against the literal per-block encoder arithmetic."""

    @staticmethod
    def _literal_numerator(packed, enables, group, n):
        """Per block: stored ones = n * bits + E - 2 * E * bits on valid words."""
        words, word_bits = packed.words_per_block, packed.word_bits
        word_enables = (np.repeat(enables.astype(np.int64), group, axis=1)
                        [:, :words] * packed.valid_mask())
        numerator = np.zeros((packed.geometry.rows, word_bits))
        for block in range(packed.num_blocks):
            rows = slice(packed.regions[block] * words,
                         (packed.regions[block] + 1) * words)
            bits = packed.bits[block].astype(np.int64)
            inverted = word_enables[block][:, None]
            numerator[rows] += (n * bits + inverted
                                - 2 * inverted * bits)
        return numerator

    @pytest.mark.parametrize("n", [1, 7, 300, 5_000_000])
    @pytest.mark.parametrize("group", [1, 3, 8])
    def test_counts_and_row_totals(self, tiny_network, tiny_fifo_scheduler,
                                   group, n):
        packed = _unpadded_fifo_stream(tiny_network, tiny_fifo_scheduler)
        reduction = TrbgReduction(packed, group)
        enables = np.random.default_rng(n).integers(
            0, n + 1, (packed.num_blocks, reduction.num_groups)).astype(
                np.min_scalar_type(n))
        numerator, writes = reduction.counts(enables, n)
        assert np.array_equal(numerator,
                              self._literal_numerator(packed, enables, group, n))
        assert numerator.dtype.kind == writes.dtype.kind == "u"
        assert np.array_equal(writes, packed.rows_writes().astype(np.int64) * n)
        assert np.array_equal(reduction.row_totals(enables, n),
                              numerator.sum(axis=1, dtype=np.int64))

    @pytest.mark.parametrize("one_group_per_chunk", [False, True])
    @pytest.mark.parametrize("region_map", ["round_robin", "scattered"])
    @pytest.mark.parametrize("group", [1, 3])
    def test_batched_numerators(self, monkeypatch, tiny_network,
                                tiny_fifo_scheduler, group, region_map,
                                one_group_per_chunk):
        """``K = 3`` enable sets of different lengths in one pass equal the
        literal numerator of each set.  The unpadded stream has short
        blocks (padding terms); the scattered region map takes the fancy
        indexer of ``region_indexers`` and leaves one region unwritten."""
        packed = _unpadded_fifo_stream(tiny_network, tiny_fifo_scheduler)
        if region_map == "scattered":
            regions = np.arange(packed.num_blocks)[::-1] % 3
            packed = PackedBitTensor(packed.bits, regions, packed.valid_words,
                                     packed.geometry, packed.fifo_depth_tiles)
            assert not isinstance(list(packed.region_indexers())[0][1], slice)
        assert (packed.valid_words < packed.words_per_block).any()
        if one_group_per_chunk:
            monkeypatch.setattr(simulation, "_TRBG_CHUNK_BYTES", 1)
        reduction = TrbgReduction(packed, group)
        lengths = np.array([1, 9, 300])
        generator = np.random.default_rng(group)
        enables = np.stack([generator.integers(
            0, n + 1, (packed.num_blocks, reduction.num_groups))
            for n in lengths]).astype(np.uint16)
        numerators = reduction.numerators(enables, lengths)
        assert numerators.shape == (3,) + packed.rows_ones().shape
        for k, n in enumerate(lengths):
            assert np.array_equal(numerators[k], self._literal_numerator(
                packed, enables[k], group, int(n)))

    @pytest.mark.parametrize("above", [False, True])
    @pytest.mark.parametrize("fill", ["random", "full"])
    def test_row_totals_across_the_int16_bound(self, tiny_network,
                                               tiny_fifo_scheduler, above,
                                               fill):
        """Row totals contract in int16 while ``num_blocks * n * word_bits``
        stays below 2**15 and in int32 from there on; both are exact."""
        packed = _unpadded_fifo_stream(tiny_network, tiny_fifo_scheduler)
        reduction = TrbgReduction(packed, 3)
        scale = packed.num_blocks * packed.word_bits
        n = (2 ** 15 - 1) // scale + above
        assert (n * scale < 2 ** 15) is not above
        shape = (packed.num_blocks, reduction.num_groups)
        enables = (np.full(shape, n) if fill == "full" else
                   np.random.default_rng(n).integers(0, n + 1, shape)
                   ).astype(np.min_scalar_type(n))
        reference = self._literal_numerator(packed, enables, 3, n).sum(axis=1)
        assert np.array_equal(reduction.row_totals(enables, n), reference)
        assert list(reduction._region_weights) == [np.int32 if above
                                                    else np.int16]
