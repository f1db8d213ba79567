"""Tests for the wear-leveling remap engine (``repro.leveling``)."""

import numpy as np
import pytest

from repro.accelerator.scheduler import PackedBitTensor, WeightStreamScheduler
from repro.cli import main
from repro.core.policies import make_policy
from repro.core.simulation import AgingSimulator, ExplicitAgingSimulator
from repro.experiments.leveling import run_leveling_point
from repro.leveling import (
    LEVELER_CHOICES,
    RotationLeveler,
    StartGapLeveler,
    WearLeveler,
    WearSwapLeveler,
    check_permutation,
    make_leveler,
    mean_duty_from_row_counts,
)
from repro.memory.geometry import MemoryGeometry
from repro.memory.wear_map import WearMap
from repro.orchestration import REGISTRY, load_all_experiments
from repro.scenario import (
    ExplicitScenarioSimulator,
    LifetimeScenario,
    ScenarioAgingSimulator,
)
from repro.utils.units import KB


@pytest.fixture
def geometry():
    """A 32-row, 8-bit weight memory."""
    return MemoryGeometry(capacity_bytes=32, word_bits=8)


@pytest.fixture
def tiny_stream(tiny_network):
    """Tiny int8 workload on a 4 KB monolithic memory (several blocks)."""
    memory = MemoryGeometry(capacity_bytes=1 * KB, word_bits=8)
    scheduler = WeightStreamScheduler(tiny_network, "int8_symmetric", memory,
                                     parallel_filters=2)
    return PackedBitTensor.from_stream(scheduler)


def _tiny_fifo_stream(network, pad_final_block=True):
    """Tiny int8 workload on a 4-tile FIFO memory."""
    memory = MemoryGeometry(capacity_bytes=1 * KB, word_bits=8)
    scheduler = WeightStreamScheduler(network, "int8_symmetric", memory,
                                     parallel_filters=2, fifo_depth_tiles=4,
                                     pad_final_block=pad_final_block)
    return PackedBitTensor.from_stream(scheduler)


def _uniform_fifo_stream():
    """Random int8 words in eight full blocks on the same 4-tile memory."""
    memory = MemoryGeometry(capacity_bytes=1 * KB, word_bits=8)
    words = memory.rows // 4
    bits = np.random.default_rng(0).random((8, words, 8)) < 0.35
    return PackedBitTensor(bits=bits.astype(np.uint8), regions=np.arange(8) % 4,
                           valid_words=np.full(8, words), geometry=memory,
                           fifo_depth_tiles=4)


def _spans(leveler, num_inferences):
    """Every ``(start, length)`` span of the leveler's tables, in order."""
    return [span for table in leveler.span_tables(num_inferences)
            for span in table.iter_spans()]


class TestPermutations:
    def test_identity_leveler(self, geometry):
        leveler = make_leveler("none", geometry)
        assert np.array_equal(leveler.permutation(0), np.arange(32))
        assert _spans(leveler, 10) == [(0, 10)]

    def test_rotation_stays_within_regions(self, geometry):
        leveler = RotationLeveler(geometry, fifo_depth_tiles=4, period=5, step=3)
        for epoch in range(12):
            permutation = check_permutation(leveler.permutation(epoch), 32)
            # A logical row's physical target never leaves its region (tile).
            assert np.array_equal(permutation // 8, np.arange(32) // 8)

    def test_rotation_period_one_is_identity(self, geometry):
        leveler = RotationLeveler(geometry, fifo_depth_tiles=2, period=1, step=7)
        for epoch in (0, 1, 5, 99):
            assert np.array_equal(leveler.permutation(epoch), np.arange(32))
        assert _spans(leveler, 20) == [(0, 20)]

    def test_rotation_cycles_back_to_identity(self, geometry):
        leveler = RotationLeveler(geometry, period=4, step=1)
        assert np.array_equal(leveler.permutation(0), leveler.permutation(4))
        assert not np.array_equal(leveler.permutation(1), leveler.permutation(0))
        assert np.array_equal(leveler.permutation(1), np.roll(np.arange(32), -1))

    def test_start_gap_drifts_monotonically(self, geometry):
        leveler = StartGapLeveler(geometry, interval=2)
        assert np.array_equal(leveler.permutation(0), np.arange(32))
        assert np.array_equal(leveler.permutation(1), np.arange(32))
        assert np.array_equal(leveler.permutation(2), np.roll(np.arange(32), -1))
        assert np.array_equal(leveler.permutation(5), np.roll(np.arange(32), -2))
        # A full revolution returns to the identity.
        assert np.array_equal(leveler.permutation(2 * 32), np.arange(32))

    def test_spans_cover_the_horizon(self, geometry):
        for leveler in (RotationLeveler(geometry, period=3),
                        StartGapLeveler(geometry, interval=4),
                        WearSwapLeveler(geometry, interval=5)):
            spans = _spans(leveler, 17)
            assert spans[0][0] == 0
            assert sum(length for _, length in spans) == 17
            starts = [start for start, _ in spans]
            assert starts == sorted(starts)

    def test_wear_swap_moves_hot_to_cold(self, geometry):
        leveler = WearSwapLeveler(geometry, interval=1, swap_fraction=0.1)
        leveler.reset()
        row_ones = np.zeros(32)
        row_ones[3] = 8.0  # hottest physical row
        leveler.observe(1, row_ones, np.full(32, 8.0))
        permutation = check_permutation(leveler.permutation(1), 32)
        # Logical row 3 now targets the (stable-argsort) coldest row 0.
        assert permutation[3] == 0
        assert permutation[0] == 3
        assert leveler.num_swaps_applied == 1

    def test_wear_swap_balanced_memory_keeps_identity(self, geometry):
        leveler = WearSwapLeveler(geometry, interval=1)
        leveler.reset()
        leveler.observe(1, np.full(32, 4.0), np.full(32, 8.0))
        assert np.array_equal(leveler.permutation(1), np.arange(32))
        assert leveler.num_swaps_applied == 0

    def test_make_leveler_rejects_unknown(self, geometry):
        with pytest.raises(ValueError):
            make_leveler("bogus", geometry)
        with pytest.raises(TypeError):
            make_leveler("none", geometry, period=3)
        with pytest.raises(ValueError):
            WearSwapLeveler(geometry, swap_fraction=0.9)

    def test_check_permutation_rejects_non_bijections(self):
        with pytest.raises(ValueError):
            check_permutation(np.array([0, 0, 1]), 3)
        with pytest.raises(ValueError):
            check_permutation(np.array([0, 1, 3]), 3)
        with pytest.raises(ValueError):
            check_permutation(np.array([0, 1]), 3)


class TestEngineEquivalence:
    """Packed-with-remap must match the exact write-by-write reference."""

    @pytest.mark.parametrize("leveling,options", [
        ("rotation", {"period": 5, "step": 3}),
        ("start_gap", {"interval": 2}),
        ("wear_swap", {"interval": 3, "swap_fraction": 0.25}),
    ])
    @pytest.mark.parametrize("policy", ["none", "inversion",
                                        "inversion_per_location", "barrel_shifter"])
    @pytest.mark.parametrize("stream_kind,ranking", [
        # The tiny network's blocks land unevenly on the four tiles, so the
        # rows' hold totals differ and wear_swap ranks on the ratio.
        ("padded", "ratio"),
        # Unpadded, the stream's word count is not a multiple of the word
        # width: barrel rotations and inversion parities drift per epoch.
        ("unpadded", "ratio"),
        # Full blocks fill the tiles evenly: every row holds the same total,
        # so wear_swap ranks on integer keys.
        ("uniform", "int"),
    ])
    def test_packed_matches_explicit(self, tiny_network, stream_kind, ranking,
                                     leveling, options, policy, ranking_paths):
        stream = (_uniform_fifo_stream() if stream_kind == "uniform"
                  else _tiny_fifo_stream(tiny_network, stream_kind == "padded"))
        geometry = stream.geometry
        fast_leveler = make_leveler(leveling, geometry, 4, **options)
        exact_leveler = make_leveler(leveling, geometry, 4, **options)
        fast = AgingSimulator(
            stream, make_policy(policy, 8), num_inferences=7, seed=0,
            leveler=fast_leveler).run()
        exact = ExplicitAgingSimulator(
            stream, make_policy(policy, 8), num_inferences=7,
            leveler=exact_leveler).run()
        assert np.array_equal(fast.duty_cycles, exact.duty_cycles)
        if leveling == "wear_swap":
            # Both walks observe the same stress, so they swap identically.
            assert fast_leveler.num_swaps_applied > 0
            assert fast_leveler.num_swaps_applied == exact_leveler.num_swaps_applied
            assert np.array_equal(fast_leveler._inverse, exact_leveler._inverse)
            assert set(ranking_paths) == {ranking}

    def test_rotation_period_one_equals_no_leveling(self, tiny_stream):
        baseline = AgingSimulator(tiny_stream, make_policy("inversion", 8),
                                  num_inferences=6, seed=0).run()
        identity = AgingSimulator(
            tiny_stream, make_policy("inversion", 8), num_inferences=6, seed=0,
            leveler=make_leveler("rotation", tiny_stream.geometry, period=1)).run()
        assert np.array_equal(baseline.duty_cycles, identity.duty_cycles)

    def test_leveler_geometry_mismatch_rejected(self, tiny_stream, geometry):
        with pytest.raises(ValueError):
            AgingSimulator(tiny_stream, make_policy("none", 8),
                           leveler=make_leveler("rotation", geometry))

    @pytest.mark.parametrize("engine", ["packed", "explicit", "scenario",
                                        "explicit_scenario"])
    def test_leveler_word_width_mismatch_rejected(self, tiny_scheduler, engine):
        """Same row count, wider words: every engine refuses the leveler."""
        stream = PackedBitTensor.from_stream(tiny_scheduler)
        assert (stream.geometry.rows, stream.geometry.word_bits) == (2048, 8)
        wide = MemoryGeometry(capacity_bytes=4 * KB, word_bits=16)
        leveler = make_leveler("wear_swap", wide)
        message = ("leveler covers 2048 rows x 16-bit words but the memory "
                   "has 2048 rows x 8-bit words")
        with pytest.raises(ValueError, match=message):
            if engine == "packed":
                AgingSimulator(stream, make_policy("none", 8), leveler=leveler)
            elif engine == "explicit":
                ExplicitAgingSimulator(stream, make_policy("none", 8),
                                       leveler=leveler)
            else:
                simulator = (ScenarioAgingSimulator if engine == "scenario"
                             else ExplicitScenarioSimulator)
                simulator(LifetimeScenario.from_spec("custom_mnist:int8:none:2"),
                          stream_factory=lambda phase: stream,
                          leveler=leveler).run()

    def test_dnn_life_leveled_duty_stays_centred(self, tiny_stream):
        """The stochastic policy composes with leveling (distribution check)."""
        result = AgingSimulator(
            tiny_stream, make_policy("dnn_life", 8, seed=0),
            num_inferences=40, seed=0,
            leveler=make_leveler("rotation", tiny_stream.geometry, period=4)).run()
        assert abs(result.duty_cycles.mean() - 0.5) < 0.05
        assert result.policy_description["leveling"]["leveler"] == "rotation"

    def test_leveling_preserves_total_stress(self, tiny_stream):
        """Remapping moves stress between rows but conserves the totals."""
        baseline = AgingSimulator(tiny_stream, make_policy("none", 8),
                                  num_inferences=6, seed=0).run()
        leveled = AgingSimulator(
            tiny_stream, make_policy("none", 8), num_inferences=6, seed=0,
            leveler=make_leveler("start_gap", tiny_stream.geometry,
                                 interval=1)).run()
        assert not np.array_equal(baseline.duty_cycles, leveled.duty_cycles)
        # Every row of this stream is written equally often, so the physical
        # duty total equals the logical one.
        assert baseline.duty_cycles.sum() == pytest.approx(leveled.duty_cycles.sum())


class TestMeanDutyPerRow:
    def test_unwritten_rows_report_zero(self):
        ones = np.array([[1.0, 1.0], [0.0, 0.0]])
        hold = np.array([4.0, 0.0])
        assert np.array_equal(
            mean_duty_from_row_counts(ones.sum(axis=1), hold), [0.5, 0.0])


class TestLevelingExperiment:
    def test_registered_and_sweepable(self):
        load_all_experiments()
        spec = REGISTRY.get("leveling")
        assert "sweep" in spec.tags
        assert set(spec.affinity) <= set(spec.param_names())
        assert spec.get_param("leveling").choices == LEVELER_CHOICES

    @pytest.mark.parametrize("leveling", ["rotation", "start_gap", "wear_swap"])
    def test_leveler_wear_outcome(self, leveling):
        """Acceptance: every leveler lowers the wear it is built to lower.

        At the defaults (lenet5, 8 KB x 4 tiles, 20 inferences, period 2)
        the baseline region imbalance is 0.633 pp, the mean SNM degradation
        14.98 % and the max 26.12 %.
        """
        payload = run_leveling_point(leveling=leveling)
        assert payload["workload"]["leveling"] == leveling
        imbalance = payload["region_imbalance_pp"]
        baseline = payload["baseline"]["wear"]
        leveled = payload["leveled"]["wear"]
        assert imbalance["baseline"] > 0
        assert (leveled["mean_degradation_percent"]
                < baseline["mean_degradation_percent"])
        if leveling == "rotation":
            # two alignments only: a cell whose bit is constant in both of
            # its logical rows keeps duty 0 or 1 (see RotationLeveler)
            assert (leveled["max_degradation_percent"]
                    == baseline["max_degradation_percent"])
            assert imbalance["leveled"] < imbalance["baseline"]
        else:
            assert (leveled["max_degradation_percent"]
                    < baseline["max_degradation_percent"])
        if leveling == "start_gap":
            # shifts stay inside a region, so each region settles at its own
            # bit bias and the spread between regions grows (see
            # StartGapLeveler)
            assert imbalance["leveled"] > imbalance["baseline"]
        if leveling == "wear_swap":
            assert imbalance["leveled"] <= 0.1

    def test_leveling_none_is_pure_baseline(self):
        payload = run_leveling_point(network="custom_mnist", weight_memory_kb=8,
                                     fifo_depth_tiles=2, leveling="none",
                                     num_inferences=3)
        assert payload["leveler"] == {"leveler": "none"}
        assert payload["region_imbalance_pp"]["reduction"] == 0.0
        assert payload["baseline"]["summary"] == payload["leveled"]["summary"]

    def test_payload_renders(self):
        payload = run_leveling_point(network="custom_mnist", weight_memory_kb=8,
                                     fifo_depth_tiles=2, leveling="rotation",
                                     leveling_period=2, num_inferences=3)
        from repro.experiments.leveling import render_leveling_point

        text = render_leveling_point(payload, {})
        assert "region_imbalance_pp" in text
        assert "Wear map" in text


class TestLevelingCli:
    def test_level_verb_smoke(self, capsys):
        assert main(["level", "--network", "custom_mnist", "--memory-kb", "8",
                     "--fifo-depth-tiles", "2", "--inferences", "3"]) == 0
        out = capsys.readouterr().out
        assert "region_imbalance_pp" in out
        assert "Wear map" in out

    def test_leveling_subcommand_matches_level(self, capsys):
        assert main(["leveling", "--network", "custom_mnist", "--memory-kb", "8",
                     "--fifo-depth-tiles", "2", "--inferences", "3"]) == 0
        assert "region_imbalance_pp" in capsys.readouterr().out

    def test_sweep_leveling(self, capsys):
        assert main(["sweep", "leveling",
                     "--grid", "network=custom_mnist",
                     "--grid", "weight_memory_kb=8",
                     "--grid", "fifo_depth_tiles=2",
                     "--grid", "num_inferences=3",
                     "--grid", "leveling=none,rotation,wear_swap",
                     "--workers", "1"]) == 0
        out = capsys.readouterr().out
        assert "3 jobs" in out


class TestWearSwapEffect:
    def test_swap_levels_synthetic_hot_region(self):
        """A deliberately skewed FIFO stream gets measurably flatter."""
        from repro.bench import synthetic_weight_stream

        geometry = MemoryGeometry(capacity_bytes=512, word_bits=8)
        dense = synthetic_weight_stream(geometry, num_blocks=6, fifo_depth_tiles=2,
                                        seed=0, probability_of_one=0.8)
        # Make region 0's blocks much denser than region 1's.
        bits = dense.bits.copy()
        bits[1::2] = 0
        stream = PackedBitTensor(bits, dense.regions, dense.valid_words,
                                 geometry, dense.fifo_depth_tiles)
        baseline = AgingSimulator(stream, make_policy("none", 8),
                                  num_inferences=16, seed=0).run()
        leveled = AgingSimulator(
            stream, make_policy("none", 8), num_inferences=16, seed=0,
            leveler=make_leveler("wear_swap", geometry, 2, interval=2,
                                 swap_fraction=0.5)).run()
        spread = lambda result: float(
            WearMap(result.duty_cycles, num_regions=2).summary()["region_imbalance_pp"])
        assert spread(leveled) < spread(baseline)
