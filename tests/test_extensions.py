"""Tests for the extension modules: tiling optimiser, wear maps, quantization
calibration and the workload report generator."""

import numpy as np
import pytest

from repro.accelerator.config import baseline_config
from repro.accelerator.tiling_optimizer import TilingOptimizer
from repro.analysis.report import WorkloadReport, generate_report
from repro.core.framework import DnnLife
from repro.core.policies import DnnLifePolicy, NoMitigationPolicy
from repro.core.simulation import AgingSimulator
from repro.memory.wear_map import WearMap, wear_map_from_result
from repro.nn.layers import Conv2d, Linear
from repro.nn.models import build_model
from repro.nn.weights import attach_synthetic_weights
from repro.quantization.calibration import (
    calibrated_words,
    calibration_report,
    mse_symmetric_params,
    percentile_symmetric_params,
)
from repro.quantization.linear import compute_symmetric_params, quantization_error


class TestTilingOptimizer:
    @pytest.fixture
    def optimizer(self):
        return TilingOptimizer(baseline_config(), bytes_per_weight=1.0)

    def test_conv_candidates_respect_capacity(self, optimizer):
        layer = Conv2d(name="c", out_channels=64, in_channels=64, kernel_size=(3, 3))
        candidates = list(optimizer.candidates_for_conv(layer, (64, 56, 56)))
        assert candidates
        weight_capacity = baseline_config().weight_memory_bytes
        for candidate in candidates:
            resident = candidate.tile.weights_per_filter * min(8, 64)
            assert resident <= weight_capacity

    def test_optimize_layer_picks_minimum_traffic(self, optimizer):
        layer = Conv2d(name="c", out_channels=64, in_channels=64, kernel_size=(3, 3))
        solution = optimizer.optimize_layer(layer, (64, 56, 56))
        assert solution.best.total_dram_traffic_bytes == min(
            candidate.total_dram_traffic_bytes for candidate in solution.candidates)
        assert solution.traffic_reduction_vs_worst >= 1.0

    def test_conv_requires_input_shape(self, optimizer):
        layer = Conv2d(name="c", out_channels=8, in_channels=8, kernel_size=(3, 3))
        with pytest.raises(ValueError):
            optimizer.optimize_layer(layer)

    def test_linear_candidates(self, optimizer):
        layer = Linear(name="fc", out_features=128, in_features=1024)
        solution = optimizer.optimize_layer(layer)
        assert solution.best.weight_traffic_bytes >= layer.weight_count
        assert 0 < solution.best.pe_utilization <= 1.0

    def test_unsupported_layer_type(self, optimizer):
        from repro.nn.layers import ReLU

        with pytest.raises(TypeError):
            optimizer.optimize_layer(ReLU(name="r"))

    def test_optimize_network_covers_all_weight_layers(self, optimizer, mnist_network):
        solutions = optimizer.optimize_network(mnist_network)
        assert len(solutions) == len(mnist_network.weight_layers())
        assert optimizer.total_dram_traffic(mnist_network) > 0

    def test_weight_dominated_layer_prefers_large_tiles(self, optimizer):
        # With a huge activation buffer and a weight-dominated FC layer, the
        # optimiser should avoid splitting channels (no partial-sum spills).
        layer = Linear(name="fc", out_features=64, in_features=4096)
        solution = optimizer.optimize_layer(layer)
        assert solution.best.partial_sum_traffic_bytes == 0.0


class TestWearMap:
    def test_summary_identifies_worst_column(self):
        duty = np.full((64, 8), 0.5)
        duty[:, 3] = 0.95  # one badly unbalanced bit column
        wear = WearMap(duty_cycles=duty)
        summary = wear.summary()
        assert summary["worst_bit_column"] == 3
        assert summary["column_imbalance_pp"] > 5.0

    def test_per_region(self):
        duty = np.full((64, 8), 0.5)
        duty[48:] = 1.0  # last region fully stressed
        wear = WearMap(duty_cycles=duty, num_regions=4)
        per_region = wear.per_region()
        assert per_region.shape == (4,)
        assert np.argmax(per_region) == 3
        assert wear.summary()["worst_region"] == 3

    def test_summary_matches_public_aggregations(self):
        """summary() reduces one degradation matrix into the same values
        per_bit_column()/per_region() report, bit for bit."""
        duty = np.random.default_rng(3).random((64, 8))
        duty[40:44] = np.nan  # a never-written stretch inside region 2
        wear = WearMap(duty_cycles=duty, num_regions=4)
        summary = wear.summary()
        per_column = wear.per_bit_column()
        per_region = wear.per_region()
        assert summary["worst_bit_column"] == int(np.nanargmax(per_column))
        assert summary["worst_bit_column_mean_percent"] == np.nanmax(per_column)
        assert summary["best_bit_column_mean_percent"] == np.nanmin(per_column)
        assert summary["column_imbalance_pp"] == (np.nanmax(per_column)
                                                  - np.nanmin(per_column))
        assert summary["worst_region"] == int(np.nanargmax(per_region))
        assert summary["worst_region_mean_percent"] == np.nanmax(per_region)
        assert summary["region_imbalance_pp"] == (np.nanmax(per_region)
                                                  - np.nanmin(per_region))
        degradation = wear.degradation
        defined = degradation[np.isfinite(degradation)]
        assert summary["mean_degradation_percent"] == defined.mean()
        assert summary["max_degradation_percent"] == defined.max()

    def test_worst_cells(self):
        duty = np.full((16, 8), 0.5)
        duty[5, 2] = 1.0
        worst = WearMap(duty_cycles=duty).worst_cells(1)
        assert worst["rows"][0] == 5 and worst["bit_columns"][0] == 2

    def test_render_contains_scale(self):
        duty = np.random.default_rng(0).random((128, 8))
        text = WearMap(duty_cycles=duty).render(max_rows=8)
        assert "Wear map" in text and "scale" in text
        assert len(text.splitlines()) <= 11

    def test_invalid_shapes_rejected(self):
        with pytest.raises(ValueError):
            WearMap(duty_cycles=np.zeros(10))
        with pytest.raises(ValueError):
            WearMap(duty_cycles=np.zeros((10, 8)), num_regions=3)

    def test_nan_duty_does_not_poison_aggregations(self):
        """duty_cycles(default=None) carries NaN for never-written cells."""
        duty = np.full((16, 8), 0.5)
        duty[8:] = np.nan  # half the memory never written
        wear = WearMap(duty_cycles=duty, num_regions=2)
        summary = wear.summary()
        assert summary["coverage"] == pytest.approx(0.5)
        assert np.isfinite(summary["mean_degradation_percent"])
        assert np.isfinite(summary["max_degradation_percent"])
        assert np.isfinite(summary["column_imbalance_pp"])
        assert np.isfinite(wear.per_bit_column()).all()
        per_region = wear.per_region()
        assert np.isfinite(per_region[0]) and np.isnan(per_region[1])

    def test_nan_cells_never_rank_as_worst(self):
        duty = np.full((16, 8), 0.5)
        duty[0, 0] = np.nan
        duty[5, 2] = 1.0
        worst = WearMap(duty_cycles=duty).worst_cells(1)
        assert worst["rows"][0] == 5 and worst["bit_columns"][0] == 2

    def test_nan_region_renders_as_question_marks(self):
        duty = np.full((8, 4), np.nan)
        duty[:4] = 0.5
        text = WearMap(duty_cycles=duty).render(max_rows=2)
        assert "|????|" in text

    def test_render_labels_never_inverted(self):
        """Small/odd row counts: strictly increasing, gap-free bucket labels."""
        import re

        for rows in (1, 2, 3, 5, 7, 13, 33):
            duty = np.full((rows, 4), 0.5)
            text = WearMap(duty_cycles=duty).render(max_rows=8)
            spans = [(int(low), int(high)) for low, high in
                     re.findall(r"rows\s+(\d+)-\s*(\d+)", text)]
            assert spans, text
            assert spans[0][0] == 0 and spans[-1][1] == rows - 1
            previous_end = -1
            for low, high in spans:
                assert low <= high  # no inverted "rows X-(X-1)" labels
                assert low == previous_end + 1  # contiguous, no empty buckets
                previous_end = high

    def test_from_aging_result(self, tiny_fifo_scheduler):
        result = AgingSimulator(tiny_fifo_scheduler, NoMitigationPolicy(),
                                num_inferences=1).run()
        wear = wear_map_from_result(result, num_regions=4)
        assert wear.per_region().shape == (4,)

    def test_dnn_life_flattens_wear(self, tiny_fp32_scheduler):
        baseline = AgingSimulator(tiny_fp32_scheduler, NoMitigationPolicy(),
                                  num_inferences=10, seed=0).run()
        mitigated = AgingSimulator(tiny_fp32_scheduler, DnnLifePolicy(32, seed=0),
                                   num_inferences=10, seed=0).run()
        assert (wear_map_from_result(mitigated).summary()["column_imbalance_pp"]
                < wear_map_from_result(baseline).summary()["column_imbalance_pp"])


class TestCalibration:
    @pytest.fixture
    def heavy_tailed_weights(self, rng):
        values = rng.normal(size=20000) * 0.02
        values[:20] = rng.normal(size=20) * 0.5  # a few large outliers
        return values

    def test_percentile_clips_range(self, heavy_tailed_weights):
        minmax = compute_symmetric_params(heavy_tailed_weights, 8)
        clipped = percentile_symmetric_params(heavy_tailed_weights, 8, percentile=99.0)
        assert clipped.scale < minmax.scale

    def test_percentile_improves_bulk_resolution(self, heavy_tailed_weights):
        # Clipping the range at a percentile gives the (non-outlier) bulk of
        # the weights a much finer resolution than min/max calibration.
        clipped = percentile_symmetric_params(heavy_tailed_weights, 8, percentile=99.0)
        minmax = compute_symmetric_params(heavy_tailed_weights, 8)
        bulk = heavy_tailed_weights[
            np.abs(heavy_tailed_weights) <= clipped.scale * clipped.qmax]
        bulk_error_clipped = quantization_error(bulk, params=clipped)
        bulk_error_minmax = quantization_error(bulk, params=minmax)
        assert bulk_error_clipped < bulk_error_minmax

    def test_mse_never_worse_than_minmax(self, heavy_tailed_weights):
        mse_params = mse_symmetric_params(heavy_tailed_weights, 8)
        mse_error = quantization_error(heavy_tailed_weights, params=mse_params)
        minmax_error = quantization_error(heavy_tailed_weights, symmetric=True)
        assert mse_error <= minmax_error + 1e-12

    def test_calibration_report_structure(self, heavy_tailed_weights):
        report = calibration_report(heavy_tailed_weights, 8)
        assert set(report) == {"minmax", "percentile_99.9", "mse"}
        for entry in report.values():
            assert 0 < entry["clip_fraction_of_max"] <= 1.0 + 1e-9
            assert entry["rms_error"] >= 0

    def test_calibrated_words_fit_width(self, heavy_tailed_weights):
        params = percentile_symmetric_params(heavy_tailed_weights, 8)
        words, _ = calibrated_words(heavy_tailed_weights, params)
        assert int(words.max()) < 256

    def test_empty_and_constant_inputs(self):
        assert percentile_symmetric_params(np.array([]), 8).scale == 1.0
        assert mse_symmetric_params(np.zeros(10), 8).scale == 1.0

    def test_invalid_percentile(self):
        with pytest.raises(ValueError):
            percentile_symmetric_params(np.ones(4), 8, percentile=10.0)


class TestWorkloadReport:
    @pytest.fixture
    def framework(self, mnist_network):
        return DnnLife(mnist_network, data_format="int8_symmetric",
                       num_inferences=10, seed=0)

    def test_render_contains_all_sections(self, framework):
        text = generate_report(framework, policies=["none", "dnn_life"])
        assert "Weight-bit distribution" in text
        assert "Aging mitigation policies" in text
        assert "Spatial wear" in text
        assert "Mitigation hardware" in text
        assert "dnn_life" in text or "DNN-Life" in text

    def test_summary_structure(self, framework):
        report = WorkloadReport(framework, policies=["none", "dnn_life"])
        summary = report.summary()
        assert "dnn_life" in summary["best_policy"] or "DNN-Life" in summary["best_policy"]
        assert set(summary["energy_overhead"]) == {"none", "inversion",
                                                   "barrel_shifter", "dnn_life"}
        assert summary["best_policy_duty_cycle"]["mean_abs_deviation"] < 0.25

    def test_comparison_is_computed_once(self, framework):
        report = WorkloadReport(framework, policies=["none", "dnn_life"])
        assert report.comparison is report.comparison
