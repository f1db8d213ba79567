"""Tests for the aging simulators.

The key guarantee: the fast (vectorized, closed-form-over-inferences) engine
produces exactly the same per-cell duty-cycles as the explicit write-by-write
engine for the deterministic policies, and statistically equivalent results
for the stochastic DNN-Life policy.
"""

import gc
import weakref

import numpy as np
import pytest

from repro.accelerator.scheduler import PackedBitTensor, WeightStreamScheduler
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
    _unbiased_binomial,
    replay_epochs,
)
from repro.core.span_compose import compose_leveled
from repro.leveling import make_leveler
from repro.memory.geometry import MemoryGeometry

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
        stream = PackedBitTensor.from_stream(scheduler)
        packed = AgingSimulator(stream, _deterministic_policy(policy_name, 8),
                                num_inferences=num_inferences, seed=0).run()
        explicit = ExplicitAgingSimulator(
            scheduler, _deterministic_policy(policy_name, 8),
            num_inferences=num_inferences).run()
        assert np.array_equal(packed.duty_cycles, explicit.duty_cycles)

    @pytest.mark.parametrize("leveler", [None, "rotation", "start_gap",
                                         "wear_swap"])
    @pytest.mark.parametrize("policy_name",
                             sorted(DETERMINISTIC_POLICY_FACTORIES) + ["dnn_life"])
    def test_counts_reach_the_table_as_unsigned_integers(
            self, monkeypatch, policy_name, leveler):
        """Both engines hand ``AgingResult.from_counts`` unsigned counts;
        the deterministic ones are the explicit engine's, the DNN-Life ones
        lie in ``[0, writes]``."""
        stream = _drifting_stream()
        handed = []
        from_counts = AgingResult.from_counts.__func__

        def recording(cls, ones, writes, **fields):
            handed.append((ones, writes))
            return from_counts(cls, ones, writes, **fields)

        monkeypatch.setattr(AgingResult, "from_counts", classmethod(recording))

        def build(engine, **options):
            policy = (DnnLifePolicy(8, seed=3) if policy_name == "dnn_life"
                      else _deterministic_policy(policy_name, 8))
            return engine(stream, policy, num_inferences=5, leveler=None
                          if leveler is None else make_leveler(
                              leveler, stream.geometry, stream.fifo_depth_tiles),
                          **options).run()

        build(AgingSimulator, seed=0)
        build(ExplicitAgingSimulator)
        (ones, writes), (explicit_ones, explicit_writes) = handed
        for counts in handed[0] + handed[1]:
            assert counts.dtype.kind == "u"
        if policy_name == "dnn_life":
            assert (ones <= writes[:, None]).all()
        else:
            assert np.array_equal(ones, explicit_ones)
            assert np.array_equal(writes, explicit_writes)

    @pytest.mark.parametrize("leveler", [None, "start_gap", "wear_swap"])
    @pytest.mark.parametrize("policy_name", sorted(DETERMINISTIC_POLICY_FACTORIES))
    @pytest.mark.parametrize("num_inferences, dtype", [(255, np.uint8),
                                                       (256, np.uint16)])
    def test_counts_across_the_uint8_bound(self, policy_name, leveler,
                                           num_inferences, dtype):
        """One block per region: a row takes one write an inference, so 255
        inferences fit ``uint8`` counts and 256 need ``uint16``.  The first
        region stores all ones, so its plain counts reach the bound itself
        and a too-narrow dtype would wrap."""
        bits = np.random.default_rng(2).integers(0, 2, (2, 16, 8)).astype(np.uint8)
        bits[0] = 1
        stream = PackedBitTensor(bits, np.arange(2), np.full(2, 16),
                                 MemoryGeometry(capacity_bytes=32, word_bits=8),
                                 fifo_depth_tiles=2)

        def run(engine, **options):
            return engine(stream, _deterministic_policy(policy_name, 8),
                          num_inferences=num_inferences, leveler=None
                          if leveler is None else make_leveler(leveler, stream.geometry, 2),
                          **options)

        simulator = run(AgingSimulator, seed=0)
        ones, writes = simulator._simulate_counts()
        assert ones.dtype == writes.dtype == dtype
        assert (writes == num_inferences).all()
        explicit = run(ExplicitAgingSimulator).run()
        assert np.array_equal(simulator.run().duty_cycles, explicit.duty_cycles)
        if policy_name == "none" and leveler is None:
            assert (ones[:16] == num_inferences).all()

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
        stream = PackedBitTensor.from_stream(tiny_scheduler)
        first = AgingSimulator(stream, NoMitigationPolicy(), num_inferences=2)
        first.run()
        second = AgingSimulator(stream, BarrelShifterPolicy(8), num_inferences=2)
        second.run()
        assert first._packed() is second._packed()


class TestDutyFromCountsGuard:
    def test_valid_counts_pass(self):
        ones = np.array([[3, 0], [2, 4]], dtype=np.uint8)
        writes = np.array([4, 4], dtype=np.uint8)
        duty = _duty_from_counts(ones, writes)
        assert np.array_equal(duty, [[0.75, 0.0], [0.5, 1.0]])

    def test_unwritten_rows_are_zero(self):
        duty = _duty_from_counts(np.array([[1], [0]], dtype=np.uint8),
                                 np.array([2, 0], dtype=np.uint8))
        assert np.array_equal(duty, [[0.5], [0.0]])

    def test_numerator_overflow_raises(self):
        # a numerator-accounting bug (more ones than writes) must not be
        # silently clipped into [0, 1]
        with pytest.raises(FloatingPointError, match="numerator"):
            _duty_from_counts(np.array([[5]], dtype=np.uint8), np.array([4]))

    def test_negative_numerator_raises(self):
        with pytest.raises(FloatingPointError, match="numerator"):
            _duty_from_counts(np.array([[-1]], dtype=np.int8), np.array([4]))

    def test_batch_equals_per_slice_calls(self):
        rng = np.random.default_rng(7)
        writes = rng.integers(0, 9, (5, 33), dtype=np.uint8)
        ones = np.floor(rng.random((5, 33, 8)) * (writes[..., None] + 1)).astype(np.uint8)
        batch = _duty_from_counts(ones, writes)
        assert batch.shape == ones.shape
        assert not batch[writes == 0].any()
        for k in range(5):
            assert (batch[k].tobytes()
                    == _duty_from_counts(ones[k], writes[k]).tobytes())

    def test_batch_slice_out_of_range_raises(self):
        ones = np.array([[[1]], [[5]]], dtype=np.uint8)
        with pytest.raises(FloatingPointError, match="numerator"):
            _duty_from_counts(ones, np.array([[4], [4]], dtype=np.uint8))

    @pytest.mark.parametrize("batch", [(), (3,)])
    @pytest.mark.parametrize("dtype", [np.uint8, np.uint16])
    def test_plain_and_masked_divides_agree(self, batch, dtype):
        """Every row written takes the plain divide; one unwritten row more
        takes the masked one.  The written rows agree bit for bit, equal the
        float64 divide of the same counts, and the unwritten row holds 0."""
        rng = np.random.default_rng(11)
        writes = rng.integers(1, 9, batch + (40,)).astype(dtype)
        ones = np.floor(rng.random(batch + (40, 8))
                        * (writes[..., None] + 1)).astype(dtype)
        plain = _duty_from_counts(ones, writes)
        masked = _duty_from_counts(
            np.concatenate([ones, np.ones(batch + (1, 8), dtype=dtype)], axis=-2),
            np.concatenate([writes, np.zeros(batch + (1,), dtype=dtype)], axis=-1))
        assert plain.dtype == np.float64
        assert plain.tobytes() == (ones / writes[..., None].astype(np.float64)).tobytes()
        assert plain.tobytes() == np.ascontiguousarray(masked[..., :40, :]).tobytes()
        assert not masked[..., 40, :].any()


class TestCellClassTables:
    """Both engines key their results' cell-class tables by the integer counts."""

    @pytest.mark.parametrize("name", sorted(DETERMINISTIC_POLICY_FACTORIES))
    def test_engines_build_the_same_table(self, tiny_fifo_scheduler, name):
        word_bits = tiny_fifo_scheduler.geometry.word_bits
        fast, explicit = _run_both(tiny_fifo_scheduler,
                                   lambda: _deterministic_policy(name, word_bits), 3)
        for result in (fast, explicit):
            classes = result.cell_classes
            assert classes.values.size < result.num_cells
            assert np.array_equal(classes.values[classes.key], result.duty_cycles)
        assert np.array_equal(fast.cell_classes.values, explicit.cell_classes.values)
        assert np.array_equal(fast.cell_classes.counts, explicit.cell_classes.counts)
        assert np.array_equal(fast.cell_classes.key, explicit.cell_classes.key)

    def test_result_and_wear_map_share_one_class_table(self, tiny_scheduler):
        from repro.memory.wear_map import wear_map_from_result

        result = AgingSimulator(tiny_scheduler, DnnLifePolicy(8, seed=0),
                                num_inferences=6, seed=0).run()
        wear = wear_map_from_result(result)
        assert wear.cell_classes is result.cell_classes
        assert np.array_equal(wear.degradation.reshape(-1), result.snm_degradation())
        # a later years change re-evaluates instead of serving the stale cache
        first = result.summary()["mean_snm_degradation_percent"]
        result.years = 3.0
        assert result.summary()["mean_snm_degradation_percent"] < first


def _drifting_stream(seed=0):
    """A 2-tile stream of 7 blocks whose short final block leaves 101 words
    an inference: odd, and not a multiple of the word width, so inversion
    and barrel shifting both drift between inferences."""
    rng = np.random.default_rng(seed)
    valid = np.array([16] * 6 + [5])
    bits = rng.integers(0, 2, (7, 16, 8)).astype(np.uint8)
    bits[-1, 5:] = 0
    return PackedBitTensor(bits, np.arange(7) % 2, valid,
                           MemoryGeometry(capacity_bytes=32, word_bits=8),
                           fifo_depth_tiles=2)


def _explicit_ones(stream, policy, n):
    """The write-by-write integer ones counts of inferences ``[0, n)``."""
    return replay_epochs(stream, policy, 0, n)[0]


class TestStreamKernelCache:
    """Deterministic kernels are built once per stream and policy parameters,
    live as long as their stream, and hold compact read-only integer bases."""

    BUILDERS = ("_packed_no_mitigation_kernel",
                "_packed_periodic_inversion_kernel",
                "_packed_barrel_shifter_kernel")

    def _count_builds(self, monkeypatch):
        builds = []
        for name in self.BUILDERS:
            original = getattr(AgingSimulator, name)

            def build(simulator, *args, _name=name, _original=original):
                builds.append((_name, id(simulator._packed())) + tuple(
                    getattr(arg, "granularity", None) for arg in args))
                return _original(simulator, *args)
            monkeypatch.setattr(AgingSimulator, name, build)
        return builds

    def test_policy_leveler_sweep_builds_each_kernel_once(
            self, tiny_fifo_scheduler, monkeypatch):
        builds = self._count_builds(monkeypatch)
        streams = [PackedBitTensor.from_stream(tiny_fifo_scheduler),
                   _drifting_stream()]
        policies = [lambda bits: NoMitigationPolicy(),
                    lambda bits: PeriodicInversionPolicy(bits, "write"),
                    lambda bits: PeriodicInversionPolicy(bits, "location"),
                    lambda bits: BarrelShifterPolicy(bits),
                    lambda bits: DnnLifePolicy(bits, seed=1)]
        for stream in streams:
            tiles = stream.fifo_depth_tiles
            for make_policy in policies:
                for leveler in (None, "rotation", "start_gap", "wear_swap"):
                    AgingSimulator(
                        stream, make_policy(stream.word_bits), num_inferences=5,
                        seed=1,
                        leveler=None if leveler is None else make_leveler(
                            leveler, stream.geometry, tiles)).run()
        expected = sorted(
            (name, id(stream)) + granularity for stream in streams
            for name, granularity in [(self.BUILDERS[0], ()),
                                      (self.BUILDERS[1], ("write",)),
                                      (self.BUILDERS[1], ("location",)),
                                      (self.BUILDERS[2], (None,))])
        assert sorted(builds) == expected

    def test_cache_dies_with_its_stream(self, monkeypatch):
        builds = self._count_builds(monkeypatch)
        stream = _drifting_stream()
        kernel = AgingSimulator(stream, BarrelShifterPolicy(8)).counts_kernel()
        assert AgingSimulator(stream, BarrelShifterPolicy(8)).counts_kernel() is kernel
        stream_ref, kernel_ref = weakref.ref(stream), weakref.ref(kernel)
        del stream, kernel
        gc.collect()
        assert stream_ref() is None and kernel_ref() is None
        # Equal content, new stream: built again.
        AgingSimulator(_drifting_stream(), BarrelShifterPolicy(8)).counts_kernel()
        assert [name for name, *_ in builds] == [self.BUILDERS[2]] * 2

    @pytest.mark.parametrize("drifting", [False, True])
    def test_cached_bases_are_compact_and_exact(self, tiny_fifo_scheduler,
                                                drifting):
        stream = (_drifting_stream() if drifting
                  else PackedBitTensor.from_stream(tiny_fifo_scheduler))
        word_bits = stream.word_bits
        none = AgingSimulator(stream, NoMitigationPolicy()).counts_kernel()
        assert none._bases == [stream.rows_ones()]
        assert none._bases[0] is stream.rows_ones()
        for granularity in ("write", "location"):
            policy = PeriodicInversionPolicy(word_bits, granularity)
            bases = AgingSimulator(stream, policy).counts_kernel()._bases
            # counts(0, 1) = base and counts(0, 2) = base + flipped.
            one = _explicit_ones(stream, policy, 1)
            reference = [one, _explicit_ones(stream, policy, 2) - one]
            assert len(bases) == (2 if drifting else 1)
            self._assert_compact_equal(bases, reference[:len(bases)])
        policy = BarrelShifterPolicy(word_bits)
        bases = AgingSimulator(stream, policy).counts_kernel()._bases
        # One channel per extra rotation j the inferences reach (j = 0 is
        # the first inference's own counts).
        drift = stream.total_words % word_bits
        rotations = sorted({t * drift % word_bits for t in range(word_bits)})
        one = _explicit_ones(stream, policy, 1)
        self._assert_compact_equal(
            bases, [np.roll(one, -j, axis=1) for j in rotations])
        assert len(bases) == (8 if drifting else 1)

    def test_none_basis_is_compacted_once_per_stream(self, tiny_fifo_scheduler,
                                                     monkeypatch):
        from repro.core import simulation, span_compose

        stream = PackedBitTensor.from_stream(tiny_fifo_scheduler)
        scans = []
        for module in (simulation, span_compose):
            real = module.compact_basis
            monkeypatch.setattr(module, "compact_basis",
                                lambda base, real=real: scans.append(base.ndim)
                                or real(base))
        for leveler in ("rotation", "start_gap", "wear_swap", "rotation"):
            AgingSimulator(stream, NoMitigationPolicy(), num_inferences=5,
                           leveler=make_leveler(leveler, stream.geometry,
                                                stream.fifo_depth_tiles)).run()
        # The (rows, word_bits) basis is scanned once; the other scans are
        # of the (rows,) writes.
        assert scans.count(2) == 1
        batched = AgingSimulator(stream, NoMitigationPolicy()).counts_kernel() \
            .counts_batch(np.zeros(1), np.ones(1))
        ones = stream.rows_ones()
        assert batched.bases[0].dtype == np.uint8
        assert not batched.bases[0].flags.writeable
        assert np.array_equal(batched.bases[0], ones)
        assert batched.magnitudes == [int(ones.max())]

    @staticmethod
    def _assert_compact_equal(bases, reference):
        assert len(bases) == len(reference)
        for basis, expected in zip(bases, reference):
            assert basis.dtype.kind in "iu" and basis.dtype.itemsize == 1
            assert not basis.flags.writeable
            assert np.array_equal(basis, expected)

    @pytest.mark.parametrize("leveler", ["start_gap", "wear_swap"])
    @pytest.mark.parametrize("policy", [
        lambda: PeriodicInversionPolicy(8, "location"),
        lambda: BarrelShifterPolicy(8)])
    def test_compositions_sharing_a_cached_kernel(self, leveler, policy):
        stream = _drifting_stream(seed=3)
        simulator = AgingSimulator(stream, policy())
        cached = simulator.counts_kernel()
        fresh = (simulator._packed_barrel_shifter_kernel
                 if isinstance(simulator.policy, BarrelShifterPolicy)
                 else simulator._packed_periodic_inversion_kernel)

        def compose(kernel):
            leveled = make_leveler(leveler, stream.geometry, 2, interval=1)
            return compose_leveled(kernel, leveled, 9)[:2]

        shared = [compose(cached), compose(cached)]
        separate = [compose(fresh(simulator.policy)) for _ in range(2)]
        for (ones, writes), (fresh_ones, fresh_writes) in zip(shared, separate):
            assert ones.tobytes() == fresh_ones.tobytes()
            assert writes.tobytes() == fresh_writes.tobytes()


@pytest.mark.skipif(not hasattr(np, "bitwise_count"),
                    reason="the popcount path needs numpy >= 2.0")
class TestUnbiasedBinomial:
    """Binomial(trials, 1/2) draws are popcounts of uniform 64-bit words."""

    @pytest.mark.parametrize("trials", [1, 2, 20, 63, 64, 65, 128, 512])
    def test_popcount_of_the_same_words(self, trials):
        size = (84, 9)
        rng, reference_rng = (np.random.default_rng(trials),
                              np.random.default_rng(trials))
        drawn = _unbiased_binomial(rng, trials, size)
        full_words, tail_bits = divmod(trials, 64)
        words = reference_rng.integers(
            0, np.iinfo(np.uint64).max,
            size=size + (full_words + (1 if tail_bits else 0),),
            dtype=np.uint64, endpoint=True)
        if tail_bits:
            words[..., -1] &= np.uint64((1 << tail_bits) - 1)
        expected = np.bitwise_count(words).sum(axis=-1, dtype=np.int64)
        assert np.array_equal(drawn, expected)
        # One word: its uint8 popcount, no sum over the word axis.
        assert drawn.dtype == (np.uint8 if trials <= 64 else np.int64)
        # The RNG stream continues where the reference's does.
        assert rng.integers(1 << 62) == reference_rng.integers(1 << 62)
