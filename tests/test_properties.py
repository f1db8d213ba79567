"""Property-based tests (hypothesis) on the core data structures and invariants."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.aging.probabilistic import duty_cycle_tail_probability
from repro.aging.snm import CalibratedSnmModel, default_snm_model
from repro.core.bias_balancer import BiasBalancingRegister
from repro.core.policies import (
    BarrelShifterPolicy,
    DnnLifePolicy,
    NoMitigationPolicy,
    PeriodicInversionPolicy,
)
from repro.leveling.policies import WearSwapLeveler
from repro.leveling.remap import mean_duty_from_row_counts
from repro.memory.geometry import MemoryGeometry
from repro.quantization.bitops import (
    bit_probabilities,
    invert_words,
    pack_bits_to_words,
    pack_words_to_bits,
    rotate_words,
    unpack_bits,
)
from repro.quantization.fixed_point import FixedPointFormat
from repro.quantization.float32 import float32_to_words, words_to_float32
from repro.quantization.linear import (
    AsymmetricQuantizer,
    SymmetricQuantizer,
    dequantize_with_params,
    levels_to_words,
    words_to_levels,
)

word_bits_strategy = st.sampled_from([4, 8, 16, 32])


def words_strategy(word_bits, max_size=64):
    return hnp.arrays(dtype=np.uint64, shape=st.integers(1, max_size),
                      elements=st.integers(0, 2**word_bits - 1))


@st.composite
def words_with_bits(draw, max_size=64):
    bits = draw(word_bits_strategy)
    words = draw(words_strategy(bits, max_size))
    return bits, words


class TestBitopsProperties:
    @given(words_with_bits())
    def test_unpack_pack_roundtrip(self, data):
        bits, words = data
        stream = pack_words_to_bits(words, bits)
        assert np.array_equal(pack_bits_to_words(stream, bits), words)

    @given(words_with_bits())
    def test_unpack_shape_and_binary(self, data):
        bits, words = data
        matrix = unpack_bits(words, bits)
        assert matrix.shape == (words.size, bits)
        assert set(np.unique(matrix)).issubset({0, 1})

    @given(words_with_bits())
    def test_double_inversion_is_identity(self, data):
        bits, words = data
        assert np.array_equal(invert_words(invert_words(words, bits), bits), words)

    @given(words_with_bits(), st.integers(0, 63))
    def test_rotation_roundtrip(self, data, amount):
        bits, words = data
        rotated = rotate_words(words, bits, amount % bits)
        back = rotate_words(rotated, bits, (bits - amount % bits) % bits)
        assert np.array_equal(back, words)

    @given(words_with_bits())
    def test_inversion_complements_probabilities(self, data):
        bits, words = data
        original = bit_probabilities(words, bits)
        inverted = bit_probabilities(invert_words(words, bits), bits)
        assert np.allclose(original + inverted, 1.0)


class TestQuantizationProperties:
    @given(hnp.arrays(dtype=np.float32, shape=st.integers(1, 200),
                      elements=st.floats(-10, 10, width=32)))
    def test_float32_word_roundtrip(self, values):
        assert np.array_equal(words_to_float32(float32_to_words(values)), values)

    @given(hnp.arrays(dtype=np.float64, shape=st.integers(1, 200),
                      elements=st.floats(-5, 5)))
    def test_symmetric_quantization_error_bounded(self, values):
        levels, params = SymmetricQuantizer(8).quantize(values)
        reconstructed = dequantize_with_params(levels, params)
        assert np.max(np.abs(values - reconstructed)) <= params.scale * 0.5 + 1e-9

    @given(hnp.arrays(dtype=np.float64, shape=st.integers(1, 200),
                      elements=st.floats(-5, 5)))
    def test_asymmetric_levels_in_range(self, values):
        levels, params = AsymmetricQuantizer(8).quantize(values)
        assert levels.min() >= params.qmin and levels.max() <= params.qmax

    @given(hnp.arrays(dtype=np.float64, shape=st.integers(1, 100),
                      elements=st.floats(-3, 3)))
    def test_twos_complement_word_roundtrip(self, values):
        levels, params = SymmetricQuantizer(8).quantize(values)
        assert np.array_equal(words_to_levels(levels_to_words(levels, params), params), levels)

    @given(hnp.arrays(dtype=np.float64, shape=st.integers(1, 100),
                      elements=st.floats(-0.99, 0.99)),
           st.integers(0, 7))
    def test_fixed_point_error_bounded(self, values, fraction_bits):
        fmt = FixedPointFormat(1, fraction_bits)
        recovered = fmt.from_words(fmt.to_words(values))
        assert np.max(np.abs(values - recovered)) <= fmt.resolution + 1e-12


class TestPolicyProperties:
    @settings(deadline=None)
    @given(words_with_bits(), st.integers(0, 5))
    def test_all_policies_decode_to_original(self, data, block_index):
        bits, words = data
        policies = [NoMitigationPolicy(),
                    PeriodicInversionPolicy(bits, "write"),
                    PeriodicInversionPolicy(bits, "location"),
                    BarrelShifterPolicy(bits),
                    DnnLifePolicy(bits, seed=0)]
        for policy in policies:
            encoded, metadata = policy.encode_block(words, block_index)
            assert np.array_equal(policy.decode_block(encoded, metadata), words)

    @settings(deadline=None)
    @given(words_with_bits())
    def test_encoded_words_fit_width(self, data):
        bits, words = data
        for policy in (PeriodicInversionPolicy(bits), BarrelShifterPolicy(bits),
                       DnnLifePolicy(bits, seed=1)):
            encoded, _ = policy.encode_block(words, 0)
            assert int(encoded.max()) < 2**bits

    @given(st.integers(1, 8), st.integers(1, 300))
    def test_bias_balancer_phase_balanced_over_whole_periods(self, num_bits, periods):
        register = BiasBalancingRegister(num_bits)
        ticks = register.period * periods
        phases = [register.tick() for _ in range(ticks)]
        assert sum(phases) == ticks // 2


class TestAgingModelProperties:
    @given(hnp.arrays(dtype=np.float64, shape=st.integers(1, 100),
                      elements=st.floats(0, 1)))
    def test_snm_degradation_within_anchor_bounds(self, duty):
        model = default_snm_model()
        degradation = model.degradation_percent(duty)
        assert np.all(degradation >= model.best_case_percent() - 1e-9)
        assert np.all(degradation <= model.worst_case_percent() + 1e-9)

    @given(st.floats(0, 0.5))
    def test_snm_symmetry(self, duty):
        model = default_snm_model()
        low = model.degradation_percent(np.array([duty]))[0]
        high = model.degradation_percent(np.array([1.0 - duty]))[0]
        assert low == high

    @given(st.floats(10.9, 26.0), st.floats(27.0, 60.0))
    def test_calibrated_model_hits_custom_anchors(self, best, worst):
        model = CalibratedSnmModel(best_percent=best, worst_percent=worst)
        assert model.best_case_percent() == pytest.approx(best, rel=1e-9)
        assert model.worst_case_percent() == pytest.approx(worst, rel=1e-9)

    @given(st.integers(2, 60), st.floats(0.05, 0.95))
    def test_eq1_is_probability_and_monotone(self, num_blocks, rho):
        previous = 0.0
        for b in range(num_blocks // 2 + 1):
            value = duty_cycle_tail_probability(num_blocks, rho, b)
            assert 0.0 <= value <= 1.0 + 1e-12
            assert value >= previous - 1e-12
            previous = value


# --------------------------------------------------------------------------- #
# AgingResult payload round-trips across every shipped SNM model
# --------------------------------------------------------------------------- #
@st.composite
def snm_model_strategy(draw):
    """Any shipped SnmDegradationModel, with randomised (valid) parameters."""
    from repro.aging.nbti import NbtiDeviceModel, ReactionDiffusionSnmModel

    kind = draw(st.sampled_from(["calibrated", "reaction_diffusion"]))
    if kind == "calibrated":
        best = draw(st.floats(1.0, 20.0))
        worst = draw(st.floats(21.0, 60.0))
        return CalibratedSnmModel(best_percent=best, worst_percent=worst,
                                  reference_years=draw(st.floats(1.0, 10.0)),
                                  time_exponent=draw(st.floats(0.1, 0.5)))
    device = NbtiDeviceModel(
        activation_energy_ev=draw(st.floats(0.05, 0.2)),
        time_exponent=draw(st.floats(0.1, 0.5)),
        temperature_kelvin=draw(st.floats(300.0, 400.0)),
        reference_dvth_volts=draw(st.floats(0.01, 0.1)))
    return ReactionDiffusionSnmModel(device=device,
                                     worst_percent=draw(st.floats(10.0, 40.0)))


class TestAgingResultPayloadRoundTrip:
    """to_payload/from_payload must be lossless for every shipped SNM model."""

    @given(model=snm_model_strategy(),
           duty=hnp.arrays(dtype=np.float64, shape=st.tuples(
               st.integers(1, 8), st.integers(1, 8)),
               elements=st.floats(0, 1)),
           years=st.floats(0.5, 20.0))
    @settings(max_examples=40, deadline=None)
    def test_round_trip_through_json(self, model, duty, years):
        import json

        from repro.core.simulation import AgingResult

        result = AgingResult(policy_name="none",
                             policy_description={"policy": "none"},
                             duty_cycles=duty, num_inferences=3, num_blocks=2,
                             snm_model=model, years=years)
        payload = json.loads(json.dumps(result.to_payload()))
        rebuilt = AgingResult.from_payload(payload)
        assert np.array_equal(rebuilt.duty_cycles, result.duty_cycles)
        assert rebuilt.duty_cycles.shape == result.duty_cycles.shape
        assert rebuilt.snm_model == model
        assert rebuilt.years == years
        assert np.array_equal(rebuilt.snm_degradation(), result.snm_degradation())

    @given(model=snm_model_strategy())
    @settings(max_examples=20, deadline=None)
    def test_round_trip_through_to_jsonable(self, model):
        from repro.core.simulation import AgingResult
        from repro.utils.serialization import to_jsonable

        result = AgingResult("none", {}, np.array([[0.25, 0.75]]), 2, 1,
                             snm_model=model)
        rebuilt = AgingResult.from_payload(to_jsonable(result.to_payload()))
        assert rebuilt.snm_model == model

    def test_unknown_model_class_is_rejected_with_known_list(self):
        from repro.core.simulation import _snm_model_from_payload

        with pytest.raises(ValueError, match="unknown SNM model class"):
            _snm_model_from_payload({"class": "NoSuchModel", "fields": {}})

    def test_newly_shipped_models_are_discovered(self):
        """A new SnmDegradationModel subclass round-trips without registry edits."""
        import dataclasses

        from repro.aging.snm import SnmDegradationModel
        from repro.core.simulation import AgingResult

        @dataclasses.dataclass(frozen=True)
        class LinearTestSnmModel(SnmDegradationModel):
            slope: float = 20.0

            def degradation_percent(self, duty_cycle, years=7.0):
                duty = np.asarray(duty_cycle, dtype=np.float64)
                return self.slope * np.maximum(duty, 1.0 - duty)

        result = AgingResult("none", {}, np.array([[0.5]]), 1, 1,
                             snm_model=LinearTestSnmModel(slope=12.5))
        rebuilt = AgingResult.from_payload(result.to_payload())
        assert isinstance(rebuilt.snm_model, LinearTestSnmModel)
        assert rebuilt.snm_model.slope == 12.5


@st.composite
def counts_strategy(draw):
    """Unsigned ``(ones, writes)`` counts with ``0 <= ones <= writes`` per row.

    Write patterns: one write count for every row, a few distinct ones,
    rows never written, and write counts so large that the key span exceeds
    the cell count (the one-class-per-cell fallback).
    """
    rows = draw(st.sampled_from([1, 2, 3, 8, 12, 32]))
    columns = draw(st.sampled_from([1, 3, 8, 16]))
    pattern = draw(st.sampled_from(["uniform", "mixed", "zero_rows", "wide"]))
    top = 400 if pattern == "wide" else 12
    if pattern == "uniform":
        writes = np.full(rows, draw(st.integers(1, top)))
    else:
        low = 0 if pattern == "zero_rows" else 1
        writes = np.asarray(draw(st.lists(st.integers(low, top), min_size=rows,
                                          max_size=rows)))
    fractions = draw(hnp.arrays(np.float64, (rows, columns),
                                elements=st.floats(0.0, 1.0)))
    ones = np.floor(fractions * (writes[:, None] + 1)).clip(0, writes[:, None])
    dtype = draw(st.sampled_from([np.uint8, np.uint16, np.uint32]))
    if pattern == "wide":
        dtype = np.uint16
    return ones.astype(dtype), writes.astype(dtype)


def _same_table(left, right):
    """Two cell-class tables are the same bits: values, counts, key, populations."""
    assert left.values.tobytes() == right.values.tobytes()
    assert left.counts.dtype == right.counts.dtype == np.int64
    assert np.array_equal(left.counts, right.counts)
    assert left.key.dtype == right.key.dtype
    assert np.array_equal(left.key, right.key)
    assert np.array_equal(left.column_counts(), right.column_counts())


class TestCellClassEquivalence:
    """There is one canonical cell-class table per duty matrix.

    ``from_counts`` and ``per_cell`` build it bit for bit alike, so a
    count-built result and its payload round trip (which rebuilds the table
    from the duty matrix) report the same statistics and payload bytes.
    """

    @staticmethod
    def _outputs(result, edges):
        from repro.memory.wear_map import default_wear_regions, wear_map_from_result

        rows = result.duty_cycles.shape[0]
        wear = wear_map_from_result(result, default_wear_regions(rows, 1))
        return {
            "histogram": result.histogram(edges)[:2],
            "histogram_default": result.histogram()[:2],
            "summary": result.summary(),
            "duty": result.duty_cycle_statistics(),
            "wear_summary": wear.summary(),
            "per_bit_column": wear.per_bit_column(),
            "per_region": wear.per_region(),
            "worst_cells": wear.worst_cells(5),
            "render": wear.render(max_rows=7),
        }

    @given(counts=counts_strategy(), model=snm_model_strategy(),
           years=st.sampled_from([7.0, 3.165, 12.5]))
    @settings(max_examples=60, deadline=None)
    def test_count_built_result_matches_per_cell_result(self, counts, model, years):
        from repro.core.simulation import AgingResult, _duty_from_counts
        from repro.utils.serialization import canonical_json

        ones, writes = counts
        result = AgingResult.from_counts(
            ones, writes, policy_name="none", policy_description={"policy": "none"},
            num_inferences=3, num_blocks=2, snm_model=model, years=years)
        classes = result.cell_classes
        duty = _duty_from_counts(ones, writes)
        assert np.array_equal(classes.values[classes.key], duty)
        assert np.array_equal(classes.values, np.unique(duty))
        assert int(np.sum(classes.counts)) == result.num_cells

        rebuilt = AgingResult.from_payload(result.to_payload())
        per_cell = AgingResult("none", {"policy": "none"}, duty, 3, 2,
                               snm_model=model, years=years)
        _same_table(rebuilt.cell_classes, classes)
        assert canonical_json(result.to_payload()) == canonical_json(per_cell.to_payload())
        edges = np.linspace(0.0, 40.0, 6)
        assert (canonical_json(self._outputs(result, edges))
                == canonical_json(self._outputs(rebuilt, edges)))
        assert np.array_equal(result.snm_degradation(), rebuilt.snm_degradation())

    @given(counts=counts_strategy())
    @settings(max_examples=80, deadline=None)
    def test_from_counts_and_per_cell_build_the_same_table(self, counts):
        from repro.aging.snm import CellClasses

        ones, writes = counts
        table = CellClasses.from_counts(ones, writes)
        span = int(np.sum(np.unique(writes) + 1))
        assert (table is None) == (writes.max() >= ones.size
                                   or span * ones.shape[1] > max(ones.size, 1 << 16))
        if table is not None:
            _same_table(table, CellClasses.per_cell(table.values[table.key]))

    @given(counts=counts_strategy(), model=snm_model_strategy(),
           unwritten=st.integers(0, 3), regions=st.sampled_from([1, 2, 4]))
    @settings(max_examples=80, deadline=None)
    def test_class_statistics_match_per_cell_formulas(self, counts, model,
                                                      unwritten, regions):
        """Class-weighted sums agree with numpy's per-cell reductions.

        Both sum the same cells in a different order, so they may differ
        by summation round-off: at most 8 eps of the statistic's scale
        (1 for duty statistics, the largest degradation for SNM means).
        """
        from repro.core.simulation import AgingResult, _duty_from_counts
        from repro.memory.wear_map import WearMap

        ones, writes = counts
        eps = np.finfo(np.float64).eps
        duty = _duty_from_counts(ones, writes)
        result = AgingResult("none", {}, duty, 1, 1, snm_model=model)
        stats = result.duty_cycle_statistics()
        np.testing.assert_allclose(
            [stats["mean"], stats["std"], stats["mean_abs_deviation_from_half"]],
            [duty.mean(), duty.std(), np.abs(duty - 0.5).mean()], rtol=0, atol=8 * eps)
        degradation = model.degradation_percent(duty)
        scale = 8 * eps * degradation.max()
        assert abs(result.summary()["mean_snm_degradation_percent"]
                   - degradation.mean()) <= scale

        rows = duty.shape[0] // regions * regions
        if not rows:
            return
        duty = duty[:rows].copy()
        duty[:min(unwritten, rows - 1)] = np.nan  # never-written rows
        wear = WearMap(duty_cycles=duty, num_regions=regions, snm_model=model)
        degradation = model.degradation_percent(duty)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", category=RuntimeWarning)
            columns = np.nanmean(degradation, axis=0)
            bands = np.nanmean(degradation.reshape(regions, -1), axis=1)
        np.testing.assert_allclose(wear.per_bit_column(), columns, rtol=0, atol=scale)
        np.testing.assert_allclose(wear.per_region(), bands, rtol=0, atol=scale)
        assert abs(wear.summary()["mean_degradation_percent"]
                   - np.nanmean(degradation)) <= scale

    def test_wide_key_span_is_keyed_from_the_duty_matrix(self):
        from repro.aging.snm import CellClasses
        from repro.core.simulation import AgingResult

        # 256 rows x 2 columns written 256..511 times: every count is below
        # the cell count, but the (column, index) table would need
        # 2 * sum(w + 1) = 196,864 entries, more than max(cells, 2**16)
        writes = np.arange(256, 512, dtype=np.uint16)
        ones = np.stack([np.zeros_like(writes), writes // 3], axis=1)
        assert writes.max() < ones.size
        assert CellClasses.from_counts(ones, writes) is None
        result = AgingResult.from_counts(ones, writes, policy_name="none",
                                         policy_description={}, num_inferences=1,
                                         num_blocks=1)
        duty = result.duty_cycles
        np.testing.assert_array_equal(duty, ones / writes[:, None])
        _same_table(result.cell_classes, CellClasses.per_cell(duty))
        # one write count keeps the table small: keyed from the counts
        uniform = np.full_like(writes, 511)
        assert CellClasses.from_counts(ones, uniform) is not None

    @pytest.mark.parametrize("dtype", [(np.float64, np.uint8),
                                       (np.uint8, np.float64)])
    def test_float_counts_raise_type_error(self, dtype):
        from repro.core.simulation import AgingResult

        ones = np.array([[0.0, 1.0, 2.0, 3.0]]).astype(dtype[0])
        writes = np.array([4.0]).astype(dtype[1])
        with pytest.raises(TypeError, match="integers"):
            AgingResult.from_counts(ones, writes, policy_name="none",
                                    policy_description={}, num_inferences=1,
                                    num_blocks=1)

    def test_table_is_compact_with_narrow_keys(self):
        from repro.core.simulation import AgingResult

        # equal duty-cycles of different write counts share one class
        writes = np.array([4, 4, 2, 0], dtype=np.uint8)
        ones = np.array([[0, 4, 4, 0], [2, 2, 2, 2],
                         [1, 2, 1, 2], [0, 0, 0, 0]], dtype=np.uint8)
        result = AgingResult.from_counts(ones, writes, policy_name="none",
                                         policy_description={}, num_inferences=1,
                                         num_blocks=1)
        classes = result.cell_classes
        assert result._duty is None  # no per-cell float matrix is kept
        assert classes.key.dtype == np.uint8
        assert np.array_equal(classes.values, [0.0, 0.5, 1.0])
        assert np.array_equal(classes.counts, [6, 6, 4])
        assert np.array_equal(classes.key, [[0, 2, 2, 0], [1, 1, 1, 1],
                                            [1, 2, 1, 2], [0, 0, 0, 0]])
        assert np.array_equal(classes.column_counts(), [[2, 2, 0], [1, 1, 2],
                                                        [1, 2, 1], [2, 1, 1]])
        assert np.array_equal(classes.row_band_counts(2), [[2, 4, 2], [4, 2, 2]])

    @pytest.mark.parametrize("ones, dtype", [(5, np.uint8), (-1, np.int8),
                                             (259, np.uint16)])
    def test_out_of_range_counts_still_raise(self, ones, dtype):
        """More ones than writes, or fewer than none: 259 would read 3 in
        the uint8 key, so the range check runs on the counts as given."""
        from repro.core.simulation import AgingResult

        with pytest.raises(FloatingPointError, match="numerator"):
            AgingResult.from_counts(np.array([[ones, 1]], dtype=dtype),
                                    np.array([4], dtype=np.uint8),
                                    policy_name="none", policy_description={},
                                    num_inferences=1, num_blocks=1)

    def test_ones_on_an_unwritten_row_keep_the_per_cell_duty(self):
        from repro.aging.snm import CellClasses
        from repro.core.simulation import AgingResult

        ones = np.array([[1, 0], [3, 0]], dtype=np.uint8)
        writes = np.array([2, 0], dtype=np.uint8)
        assert CellClasses.from_counts(ones, writes) is None
        result = AgingResult.from_counts(ones, writes,
                                         policy_name="none", policy_description={},
                                         num_inferences=1, num_blocks=1)
        assert np.array_equal(result.duty_cycles, [[0.5, 0.0], [0.0, 0.0]])


def _float_ratio_swap(perm, row_ones, row_hold, pair_count):
    """Reference hot/cold swap: ranked on the float mean-duty ratio, with the
    inverse map rebuilt from the permutation.  Returns ``(order, perm)``."""
    stress = mean_duty_from_row_counts(row_ones, row_hold)
    order = np.argsort(stress, kind="stable")
    cold, hot = order[:pair_count], order[-pair_count:][::-1]
    improves = stress[hot] > stress[cold]
    if not improves.any():
        return order, perm
    hot, cold = hot[improves], cold[improves]
    inverse = np.empty_like(perm)
    inverse[perm] = np.arange(perm.size)
    perm = perm.copy()
    perm[inverse[hot]] = cold
    perm[inverse[cold]] = hot
    return order, perm


@st.composite
def wear_count_rounds(draw):
    """Rounds of ``(row_ones, row_hold)`` counts of one kind.

    ``uniform``: one hold total over the written rows, never-written rows
    (0 ones, 0 hold) and a few shared ones levels (heavy ties); ``wide``: the
    same with a ones count at or above 2**16; ``nonuniform``: written rows
    with different hold totals.
    """
    kind = draw(st.sampled_from(["uniform", "wide", "nonuniform"]))
    rows = draw(st.sampled_from([8, 10, 24, 64]))
    rounds = []
    for _ in range(draw(st.integers(1, 3))):
        written = np.array(draw(st.lists(st.booleans(), min_size=rows,
                                         max_size=rows)))
        written[:2] = True
        if kind == "nonuniform":
            holds = draw(st.lists(st.integers(1, 400), min_size=2, max_size=3,
                                  unique=True))
            row_hold = np.array([holds[draw(st.integers(0, len(holds) - 1))]
                                 for _ in range(rows)])
            row_hold[:2] = holds[:2]
        else:
            low = 2 ** 16 if kind == "wide" else 1
            row_hold = np.full(rows, draw(st.integers(low, 2 ** 20)))
        top = int(row_hold.min()) if kind == "nonuniform" else min(
            int(row_hold[0]), 2 ** 16 - 1)
        levels = draw(st.lists(st.integers(0, top), min_size=1, max_size=3))
        row_ones = np.array([levels[draw(st.integers(0, len(levels) - 1))]
                             for _ in range(rows)])
        if kind == "wide":
            row_ones[0] = draw(st.integers(2 ** 16, int(row_hold[0])))
        row_ones[~written], row_hold[~written] = 0, 0
        rounds.append((row_ones.astype(np.float64), row_hold.astype(np.float64)))
    return kind, rows, rounds, draw(st.sampled_from([0.1, 0.25, 0.5]))


class TestWearSwapRankingProperties:
    """Integer-key ranking makes exactly the float-ratio swap decisions."""

    @given(case=wear_count_rounds())
    @settings(max_examples=150, deadline=None)
    def test_integer_keys_rank_like_the_float_ratio(self, case):
        kind, rows, rounds, swap_fraction = case
        leveler = WearSwapLeveler(MemoryGeometry(capacity_bytes=rows, word_bits=8),
                                  interval=1, swap_fraction=swap_fraction)
        perm = np.arange(rows)
        for epoch, (row_ones, row_hold) in enumerate(rounds, start=1):
            leveler.observe(epoch, row_ones, row_hold)
            keys = leveler._keys
            assert keys.dtype == (np.uint16 if kind == "uniform" else np.float64)
            order, perm = _float_ratio_swap(perm, row_ones, row_hold,
                                            leveler._pair_count)
            assert np.array_equal(np.argsort(keys, kind="stable"), order)
            assert np.array_equal(leveler.permutation(epoch), perm)
            assert np.array_equal(leveler._inverse[perm], np.arange(rows))
