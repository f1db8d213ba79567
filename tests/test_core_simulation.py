"""Tests for the aging simulators.

The key guarantee: the fast (vectorized, closed-form-over-inferences) engine
produces exactly the same per-cell duty-cycles as the explicit write-by-write
engine for the deterministic policies, and statistically equivalent results
for the stochastic DNN-Life policy.
"""

import numpy as np
import pytest

from repro.accelerator.scheduler import CachedWeightStream, WeightStreamScheduler
from repro.core.policies import (
    BarrelShifterPolicy,
    DnnLifePolicy,
    NoMitigationPolicy,
    PeriodicInversionPolicy,
)
from repro.core.simulation import (
    AgingResult,
    AgingSimulator,
    ExplicitAgingSimulator,
    _duty_from_counts,
)

DETERMINISTIC_POLICY_FACTORIES = {
    "none": lambda word_bits: NoMitigationPolicy(),
    "inversion": lambda word_bits: PeriodicInversionPolicy(word_bits, "write"),
    "inversion_per_location":
        lambda word_bits: PeriodicInversionPolicy(word_bits, "location"),
    "barrel_shifter": lambda word_bits: BarrelShifterPolicy(word_bits),
}


def _deterministic_policy(name, word_bits):
    return DETERMINISTIC_POLICY_FACTORIES[name](word_bits)


def _run_both(scheduler, policy_factory, num_inferences):
    fast = AgingSimulator(scheduler, policy_factory(), num_inferences=num_inferences,
                          seed=0).run()
    explicit = ExplicitAgingSimulator(scheduler, policy_factory(),
                                      num_inferences=num_inferences).run()
    return fast, explicit


class TestFastMatchesExplicit:
    @pytest.mark.parametrize("num_inferences", [1, 2, 5])
    def test_no_mitigation(self, tiny_scheduler, num_inferences):
        fast, explicit = _run_both(tiny_scheduler, NoMitigationPolicy, num_inferences)
        assert np.allclose(fast.duty_cycles, explicit.duty_cycles)

    @pytest.mark.parametrize("num_inferences", [1, 2, 4])
    def test_inversion_write_granularity(self, tiny_scheduler, num_inferences):
        fast, explicit = _run_both(
            tiny_scheduler, lambda: PeriodicInversionPolicy(8, "write"), num_inferences)
        assert np.allclose(fast.duty_cycles, explicit.duty_cycles)

    @pytest.mark.parametrize("num_inferences", [2, 4])
    def test_inversion_location_granularity(self, tiny_scheduler, num_inferences):
        fast, explicit = _run_both(
            tiny_scheduler, lambda: PeriodicInversionPolicy(8, "location"), num_inferences)
        assert np.allclose(fast.duty_cycles, explicit.duty_cycles)

    @pytest.mark.parametrize("num_inferences", [1, 3])
    def test_barrel_shifter(self, tiny_scheduler, num_inferences):
        fast, explicit = _run_both(
            tiny_scheduler, lambda: BarrelShifterPolicy(8), num_inferences)
        assert np.allclose(fast.duty_cycles, explicit.duty_cycles)

    def test_no_mitigation_float32(self, tiny_fp32_scheduler):
        fast, explicit = _run_both(tiny_fp32_scheduler, NoMitigationPolicy, 2)
        assert np.allclose(fast.duty_cycles, explicit.duty_cycles)

    def test_inversion_float32(self, tiny_fp32_scheduler):
        fast, explicit = _run_both(
            tiny_fp32_scheduler, lambda: PeriodicInversionPolicy(32, "write"), 2)
        assert np.allclose(fast.duty_cycles, explicit.duty_cycles)

    def test_barrel_shifter_float32(self, tiny_fp32_scheduler):
        fast, explicit = _run_both(tiny_fp32_scheduler, lambda: BarrelShifterPolicy(32), 2)
        assert np.allclose(fast.duty_cycles, explicit.duty_cycles)

    def test_fifo_placement_no_mitigation(self, tiny_fifo_scheduler):
        fast, explicit = _run_both(tiny_fifo_scheduler, NoMitigationPolicy, 3)
        assert np.allclose(fast.duty_cycles, explicit.duty_cycles)

    def test_fifo_placement_inversion(self, tiny_fifo_scheduler):
        fast, explicit = _run_both(
            tiny_fifo_scheduler, lambda: PeriodicInversionPolicy(8, "write"), 2)
        assert np.allclose(fast.duty_cycles, explicit.duty_cycles)

    def test_fifo_placement_barrel(self, tiny_fifo_scheduler):
        fast, explicit = _run_both(tiny_fifo_scheduler, lambda: BarrelShifterPolicy(8), 2)
        assert np.allclose(fast.duty_cycles, explicit.duty_cycles)

    def test_dnn_life_statistically_equivalent(self, tiny_scheduler):
        # The stochastic policy cannot match draw-for-draw, but the mean
        # absolute deviation of the duty-cycle from 0.5 must agree closely.
        fast = AgingSimulator(tiny_scheduler, DnnLifePolicy(8, seed=3),
                              num_inferences=30, seed=3).run()
        explicit = ExplicitAgingSimulator(tiny_scheduler, DnnLifePolicy(8, seed=7),
                                          num_inferences=30).run()
        fast_dev = np.abs(fast.duty_cycles - 0.5).mean()
        explicit_dev = np.abs(explicit.duty_cycles - 0.5).mean()
        assert fast_dev == pytest.approx(explicit_dev, rel=0.1)


class TestSimulationProperties:
    def test_duty_cycles_within_unit_interval(self, tiny_scheduler):
        for policy in (NoMitigationPolicy(), PeriodicInversionPolicy(8),
                       BarrelShifterPolicy(8), DnnLifePolicy(8, seed=0)):
            result = AgingSimulator(tiny_scheduler, policy, num_inferences=4, seed=0).run()
            assert result.duty_cycles.shape == (tiny_scheduler.geometry.rows, 8)
            assert np.all((result.duty_cycles >= 0) & (result.duty_cycles <= 1))

    def test_no_mitigation_independent_of_inference_count(self, tiny_scheduler):
        one = AgingSimulator(tiny_scheduler, NoMitigationPolicy(), num_inferences=1).run()
        many = AgingSimulator(tiny_scheduler, NoMitigationPolicy(), num_inferences=50).run()
        assert np.allclose(one.duty_cycles, many.duty_cycles)

    def test_dnn_life_converges_towards_half(self, tiny_scheduler):
        short = AgingSimulator(tiny_scheduler, DnnLifePolicy(8, seed=0),
                               num_inferences=4, seed=0).run()
        long = AgingSimulator(tiny_scheduler, DnnLifePolicy(8, seed=0),
                              num_inferences=200, seed=0).run()
        assert (np.abs(long.duty_cycles - 0.5).mean()
                < np.abs(short.duty_cycles - 0.5).mean())

    def test_dnn_life_beats_no_mitigation(self, tiny_fp32_scheduler):
        baseline = AgingSimulator(tiny_fp32_scheduler, NoMitigationPolicy(),
                                  num_inferences=20, seed=0).run()
        mitigated = AgingSimulator(tiny_fp32_scheduler, DnnLifePolicy(32, seed=0),
                                   num_inferences=20, seed=0).run()
        assert (mitigated.snm_degradation().mean() < baseline.snm_degradation().mean())
        assert (np.abs(mitigated.duty_cycles - 0.5).mean()
                < np.abs(baseline.duty_cycles - 0.5).mean())

    def test_biased_trbg_without_balancing_is_worse(self, tiny_fp32_scheduler):
        balanced = AgingSimulator(tiny_fp32_scheduler,
                                  DnnLifePolicy(32, trbg_bias=0.7, bias_balancing=True, seed=0),
                                  num_inferences=50, seed=0).run()
        unbalanced = AgingSimulator(tiny_fp32_scheduler,
                                    DnnLifePolicy(32, trbg_bias=0.7, bias_balancing=False,
                                                  seed=0),
                                    num_inferences=50, seed=0).run()
        assert (balanced.snm_degradation().mean() < unbalanced.snm_degradation().mean())

    def test_explicit_checks_decode_transparency(self, tiny_scheduler):
        # The explicit engine verifies decode(encode(x)) == x for every block;
        # a policy violating it must be rejected.
        class BrokenPolicy(NoMitigationPolicy):
            name = "broken"

            def decode_block(self, encoded_words, metadata):
                return np.zeros_like(np.asarray(encoded_words))

        with pytest.raises(AssertionError):
            ExplicitAgingSimulator(tiny_scheduler, BrokenPolicy(), num_inferences=1).run()

    def test_unknown_policy_type_needs_explicit_engine(self, tiny_scheduler):
        from repro.core.policies import MitigationPolicy

        class ExoticPolicy(MitigationPolicy):
            name = "exotic"

            def encode_block(self, words, block_index, start_row=0):
                return np.asarray(words, dtype=np.uint64).reshape(-1).copy(), None

            def decode_block(self, encoded_words, metadata):
                return np.asarray(encoded_words, dtype=np.uint64).reshape(-1).copy()

        # The fast engine has no closed form for an unknown policy; the
        # explicit engine handles it fine.
        with pytest.raises(NotImplementedError):
            AgingSimulator(tiny_scheduler, ExoticPolicy(), num_inferences=1).run()
        result = ExplicitAgingSimulator(tiny_scheduler, ExoticPolicy(), num_inferences=1).run()
        assert result.policy_name == "exotic"

    def test_result_summary_fields(self, tiny_scheduler):
        result = AgingSimulator(tiny_scheduler, DnnLifePolicy(8, seed=0),
                                num_inferences=10, seed=0).run()
        summary = result.summary()
        assert summary["policy"] == "dnn_life"
        assert summary["num_cells"] == tiny_scheduler.geometry.num_cells
        assert 0 <= summary["percent_cells_near_best"] <= 100
        assert summary["mean_snm_degradation_percent"] <= summary["max_snm_degradation_percent"]

    def test_result_histogram_sums_to_100(self, tiny_scheduler):
        result = AgingSimulator(tiny_scheduler, NoMitigationPolicy(),
                                num_inferences=1, seed=0).run()
        percentages, edges, labels = result.histogram()
        assert np.sum(percentages) == pytest.approx(100.0)
        assert len(labels) == len(percentages) == edges.size - 1

    def test_duty_cycle_statistics(self, tiny_scheduler):
        result = AgingSimulator(tiny_scheduler, NoMitigationPolicy(), num_inferences=1).run()
        stats = result.duty_cycle_statistics()
        assert 0.0 <= stats["mean"] <= 1.0
        assert stats["max_abs_deviation_from_half"] <= 0.5 + 1e-9

    def test_aging_result_validates_shape(self):
        result = AgingResult(policy_name="x", policy_description={},
                             duty_cycles=np.array([[0.5, 0.25]]), num_inferences=1,
                             num_blocks=1)
        assert result.num_cells == 2
        degradation = result.snm_degradation()
        assert degradation[0] < degradation[1]

    def test_invalid_inference_count(self, tiny_scheduler):
        with pytest.raises(ValueError):
            AgingSimulator(tiny_scheduler, NoMitigationPolicy(), num_inferences=0)


class TestPackedEngineEquivalence:
    """The packed whole-tensor kernels against the explicit engine.

    Deterministic policies must be exactly equal to the explicit
    write-by-write simulator on single-region and FIFO placements, with a
    padded or an unpadded final block.
    """

    @pytest.mark.parametrize("pad_final_block", [True, False])
    @pytest.mark.parametrize("fifo_depth_tiles", [1, 4])
    @pytest.mark.parametrize("policy_name",
                             sorted(DETERMINISTIC_POLICY_FACTORIES))
    @pytest.mark.parametrize("num_inferences", [1, 2, 5])
    def test_packed_matches_explicit_with_unpadded_final_block(
            self, tiny_network, tiny_scheduler, fifo_depth_tiles, policy_name,
            num_inferences, pad_final_block):
        scheduler = WeightStreamScheduler(
            tiny_network, "int8_symmetric", tiny_scheduler.geometry,
            tiny_scheduler.parallel_filters, fifo_depth_tiles=fifo_depth_tiles,
            pad_final_block=pad_final_block)
        blocks = list(scheduler.iter_blocks())
        assert ((blocks[-1].num_words < scheduler.words_per_block)
                is not pad_final_block)
        stream = CachedWeightStream(scheduler)
        packed = AgingSimulator(stream, _deterministic_policy(policy_name, 8),
                                num_inferences=num_inferences, seed=0).run()
        explicit = ExplicitAgingSimulator(
            scheduler, _deterministic_policy(policy_name, 8),
            num_inferences=num_inferences).run()
        assert np.array_equal(packed.duty_cycles, explicit.duty_cycles)

    def test_packed_dnn_life_distribution_matches_explicit(self, tiny_scheduler):
        fast = AgingSimulator(tiny_scheduler, DnnLifePolicy(8, seed=11),
                              num_inferences=30, seed=11).run()
        explicit = ExplicitAgingSimulator(tiny_scheduler, DnnLifePolicy(8, seed=5),
                                          num_inferences=30).run()
        fast_dev = np.abs(fast.duty_cycles - 0.5).mean()
        explicit_dev = np.abs(explicit.duty_cycles - 0.5).mean()
        assert fast_dev == pytest.approx(explicit_dev, rel=0.1)

    def test_packed_dnn_life_biased_trbg_distribution(self, tiny_scheduler):
        policy = DnnLifePolicy(8, trbg_bias=0.7, bias_balancing=True, seed=2)
        fast = AgingSimulator(tiny_scheduler, policy, num_inferences=40,
                              seed=2).run()
        reference = ExplicitAgingSimulator(
            tiny_scheduler, DnnLifePolicy(8, trbg_bias=0.7, bias_balancing=True,
                                          seed=13),
            num_inferences=40).run()
        fast_dev = np.abs(fast.duty_cycles - 0.5).mean()
        reference_dev = np.abs(reference.duty_cycles - 0.5).mean()
        assert fast_dev == pytest.approx(reference_dev, rel=0.15)

    def test_packed_tensor_shared_between_policies(self, tiny_scheduler):
        stream = CachedWeightStream(tiny_scheduler)
        first = AgingSimulator(stream, NoMitigationPolicy(), num_inferences=2)
        first.run()
        second = AgingSimulator(stream, BarrelShifterPolicy(8), num_inferences=2)
        second.run()
        assert first._packed() is second._packed()


class TestDutyFromCountsGuard:
    def test_valid_counts_pass(self):
        ones = np.array([[3.0, 0.0], [2.0, 4.0]])
        writes = np.array([4, 4])
        duty = _duty_from_counts(ones, writes)
        assert np.array_equal(duty, [[0.75, 0.0], [0.5, 1.0]])

    def test_unwritten_rows_are_zero(self):
        duty = _duty_from_counts(np.array([[1.0], [0.0]]), np.array([2, 0]))
        assert np.array_equal(duty, [[0.5], [0.0]])

    def test_numerator_overflow_raises(self):
        # a numerator-accounting bug (more ones than writes) must not be
        # silently clipped into [0, 1]
        with pytest.raises(FloatingPointError, match="numerator"):
            _duty_from_counts(np.array([[5.0]]), np.array([4]))

    def test_negative_numerator_raises(self):
        with pytest.raises(FloatingPointError, match="numerator"):
            _duty_from_counts(np.array([[-1.0]]), np.array([4]))

    def test_round_off_within_tolerance_is_clipped(self):
        duty = _duty_from_counts(np.array([[4.0 + 1e-12]]), np.array([4]))
        assert duty[0, 0] == 1.0
