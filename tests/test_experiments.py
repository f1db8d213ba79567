"""Tests for the experiment drivers (figures/tables reproduction machinery).

The drivers are exercised on tiny workloads (LeNet/MNIST-class networks,
reduced weight budgets, few inferences) so this file stays fast; the
full-scale reproduction lives in the benchmark suite.
"""

import numpy as np
import pytest

from repro.experiments.ablations import (
    run_balance_register_sweep,
    run_bias_sweep,
    run_device_model_comparison,
    run_enable_granularity_sweep,
    run_energy_overhead_ablation,
    run_inversion_granularity_comparison,
    run_lifetime_improvement,
)
from repro.experiments.common import ExperimentScale, reduce_network
from repro.experiments.fig1 import render_fig1, run_fig1_access_energy, run_fig1_model_comparison
from repro.experiments.fig2 import render_fig2, run_fig2_snm_curve
from repro.experiments.fig6 import fig6_observations, run_fig6_bit_distributions
from repro.experiments.fig7 import render_fig7, run_fig7_case_study, run_fig7_probabilistic_model
from repro.experiments.fig9 import fig9_headline_claims, run_fig9_baseline_alexnet
from repro.experiments.fig11 import fig11_headline_claims, run_fig11_tpu_networks
from repro.experiments.table1 import render_table1, run_table1_configurations
from repro.experiments.table2 import run_table2_wde_costs, table2_relative_costs
from repro.nn.models import build_model
from repro.nn.weights import attach_synthetic_weights


class TestScaleHelpers:
    def test_quick_scale(self):
        scale = ExperimentScale.quick()
        assert scale.num_inferences < 100
        assert scale.max_weights_per_layer is not None

    def test_paper_scale(self):
        scale = ExperimentScale.paper()
        assert scale.num_inferences == 100
        assert scale.max_weights_per_layer is None

    def test_from_quick_flag(self, monkeypatch):
        monkeypatch.delenv("REPRO_FULL_EXPERIMENTS", raising=False)
        assert ExperimentScale.from_quick_flag(True).max_weights_per_layer is not None
        assert ExperimentScale.from_quick_flag(False).max_weights_per_layer is None

    def test_full_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_FULL_EXPERIMENTS", "1")
        assert ExperimentScale.from_quick_flag(True).max_weights_per_layer is None

    def test_reduce_network_caps_layers(self):
        network = attach_synthetic_weights(build_model("custom_mnist"), seed=0)
        reduced = reduce_network(network, max_weights_per_layer=1000)
        assert all(layer.weight_count <= 1000 for layer in reduced.weight_layers())
        assert reduced.weight_count < network.weight_count

    def test_reduce_network_none_is_identity(self):
        network = attach_synthetic_weights(build_model("custom_mnist"), seed=0)
        assert reduce_network(network, None) is network

    def test_reduce_network_preserves_filter_structure(self):
        network = attach_synthetic_weights(build_model("custom_mnist"), seed=0)
        reduced = reduce_network(network, max_weights_per_layer=5000)
        conv2 = [layer for layer in reduced.weight_layers() if layer.name == "conv2"][0]
        assert conv2.weight_shape[1:] == (16, 5, 5)


class TestFig1:
    def test_model_rows(self):
        rows = {row["network"]: row for row in run_fig1_model_comparison()}
        assert rows["vgg16"]["size_mb_float32"] > 500
        assert rows["googlenet"]["size_mb_float32"] < 40
        assert rows["resnet152"]["top1_accuracy_percent"] > rows["alexnet"]["top1_accuracy_percent"]

    def test_access_energy(self):
        energy = run_fig1_access_energy()
        assert energy["dram_to_sram_ratio"] > 50

    def test_render(self):
        text = render_fig1()
        assert "Fig. 1a" in text and "Fig. 1b" in text


class TestFig2:
    def test_curve_shape(self):
        rows = run_fig2_snm_curve(num_points=21)
        degradation = np.array([row["snm_degradation_percent"] for row in rows])
        assert degradation[0] == pytest.approx(26.12)
        assert degradation[10] == pytest.approx(10.82)
        assert degradation[-1] == pytest.approx(26.12)
        assert degradation.argmin() == 10

    def test_render(self):
        assert "SNM degradation" in render_fig2()


class TestFig6:
    def test_small_network_distributions(self):
        results = run_fig6_bit_distributions(networks=["custom_mnist"], quick=True)
        assert set(results["custom_mnist"]) == {"float32", "int8_symmetric", "int8_asymmetric"}

    @pytest.mark.slow
    def test_observations_structure(self):
        observations = fig6_observations(quick=True)
        for per_format in observations.values():
            for entry in per_format.values():
                assert 0.0 <= entry["average_probability"] <= 1.0


class TestFig7:
    def test_sweep_k_values(self):
        results = run_fig7_probabilistic_model()
        assert set(results) == {20, 160}
        assert len(results[20]) == 11
        assert results[20][-1]["probability"] == 1.0

    def test_case_study_claims(self):
        claims = run_fig7_case_study()
        assert claims["P(duty<=0.3 or >=0.7) @ K=20"] > 0.1
        assert claims["P(duty<=0.3 or >=0.7) @ K=160"] < 0.01

    def test_render(self):
        assert "K = 160" in render_fig7()


class TestFig9AndFig11:
    @pytest.mark.slow
    def test_fig9_reduced_run_headline_claims(self):
        # A heavily reduced configuration: LeNet-scale network budget keeps
        # this test fast while exercising the whole Fig. 9 pipeline.
        results = run_fig9_baseline_alexnet(data_formats=["float32", "int8_symmetric"],
                                            quick=True, seed=0, network_name="custom_mnist")
        claims = fig9_headline_claims(results)
        for per_format in claims.values():
            assert per_format["bias_balancing_helps"]
            assert per_format["dnn_life_balanced_mean"] <= per_format["no_mitigation_mean"] + 1e-9

    def test_fig9_histograms_sum_to_100(self):
        results = run_fig9_baseline_alexnet(data_formats=["int8_asymmetric"], quick=True,
                                            seed=0, network_name="custom_mnist")
        for per_policy in results.values():
            for entry in per_policy.values():
                assert sum(entry["histogram_percent"]) == pytest.approx(100.0)

    def test_fig11_custom_network_claims(self):
        results = run_fig11_tpu_networks(networks=["custom_mnist"], quick=True, seed=0)
        claims = fig11_headline_claims(results)["custom_mnist"]
        # The paper's observation: inversion collapses on the custom network
        # while DNN-Life stays near the minimum.
        assert claims["inversion_mean"] > 20.0
        assert claims["dnn_life_mean"] < 15.0
        assert claims["dnn_life_is_best"]


class TestTables:
    def test_table1_rows(self):
        rows = {row["name"]: row for row in run_table1_configurations()}
        assert rows["baseline"]["weight_memory_KB"] == 512
        assert rows["tpu_like_npu"]["parallel_filters_f"] == 256
        assert "alexnet" in rows["tpu_like_npu"]["networks"]

    def test_table1_render(self):
        assert "512" in render_table1()

    def test_table2_includes_paper_reference(self):
        rows = run_table2_wde_costs()
        assert all(row["paper_area_cell_units"] is not None for row in rows)

    def test_table2_relative_costs_reproduce_ordering(self):
        relative = table2_relative_costs()
        barrel = relative["Barrel Shifter based WDE"]
        proposed = relative["Proposed WDE with Aging Mitigation Controller"]
        assert barrel["area_vs_inversion"] > 10
        assert 1.0 < proposed["area_vs_inversion"] < 2.0
        assert barrel["paper_area_vs_inversion"] > 10


class TestAblations:
    def test_bias_sweep_monotone_without_balancing(self):
        results = run_bias_sweep(network_name="custom_mnist", biases=(0.5, 0.7, 0.9),
                                 bias_balancing=False, quick=True)
        means = [results[bias]["mean_snm_degradation_percent"] for bias in (0.5, 0.7, 0.9)]
        assert means[0] < means[1] < means[2]

    def test_balance_register_sweep_all_effective(self):
        results = run_balance_register_sweep(network_name="custom_mnist",
                                             register_bits=(2, 4), quick=True)
        for entry in results.values():
            assert entry["mean_snm_degradation_percent"] < 16.0

    def test_enable_granularity_tradeoff(self):
        results = run_enable_granularity_sweep(network_name="custom_mnist",
                                               group_sizes=(1, 8), quick=True)
        assert results[8]["metadata_bits_per_word"] < results[1]["metadata_bits_per_word"]

    def test_inversion_granularity_comparison(self):
        results = run_inversion_granularity_comparison(network_name="custom_mnist", quick=True)
        # The idealised per-location scheme balances better than the aliased
        # write-stream scheme on float32 weights.
        assert (results["location"]["mean_snm_degradation_percent"]
                <= results["write"]["mean_snm_degradation_percent"] + 1e-9)

    def test_device_model_comparison_preserves_ranking(self):
        results = run_device_model_comparison(quick=True)
        for per_policy in results.values():
            assert (per_policy["dnn_life"]["mean_snm_degradation_percent"]
                    < per_policy["none"]["mean_snm_degradation_percent"])

    def test_energy_overhead_ablation(self):
        report = run_energy_overhead_ablation(network_name="custom_mnist", num_inferences=2)
        assert report["dnn_life"]["overhead_percent_of_memory_energy"] < \
            report["barrel_shifter"]["overhead_percent_of_memory_energy"]

    def test_lifetime_improvement(self):
        result = run_lifetime_improvement(network_name="custom_mnist", quick=True)
        assert result["lifetime_improvement_factor"] > 1.0


class TestStreamCache:
    """The process-local workload-stream cache in aging_runner."""

    def _build(self, seed=0, memory_kb=16):
        from dataclasses import replace

        from repro.accelerator.baseline import BaselineAccelerator
        from repro.accelerator.config import baseline_config
        from repro.experiments.aging_runner import build_workload_stream
        from repro.experiments.common import ExperimentScale
        from repro.utils.units import KB

        config = replace(baseline_config(), name="cache_test",
                         weight_memory_bytes=memory_kb * KB)
        accelerator = BaselineAccelerator(config=config)
        scale = ExperimentScale(num_inferences=2, max_weights_per_layer=5_000)
        return build_workload_stream("lenet5", accelerator, "int8_symmetric",
                                     scale, seed=seed)

    def test_identical_workloads_share_one_stream(self):
        from repro.experiments.aging_runner import clear_stream_cache

        clear_stream_cache()
        first = self._build()
        assert self._build() is first
        # ... which is its own packed bit tensor
        assert self._build().packed_bits() is first.packed_bits()

    def test_different_workloads_get_distinct_streams(self):
        from repro.experiments.aging_runner import clear_stream_cache

        clear_stream_cache()
        first = self._build(seed=0)
        assert self._build(seed=1) is not first
        assert self._build(memory_kb=32) is not first

    def test_cache_size_env_bounds_entries(self, monkeypatch):
        from repro.experiments import aging_runner

        monkeypatch.setenv(aging_runner.STREAM_CACHE_SIZE_ENV, "1")
        aging_runner.clear_stream_cache()
        first = self._build(seed=0)
        self._build(seed=1)  # evicts seed=0 (capacity 1)
        assert len(aging_runner._STREAM_CACHE) == 1
        assert self._build(seed=0) is not first

    def test_cache_disabled_via_env(self, monkeypatch):
        from repro.experiments import aging_runner

        monkeypatch.setenv(aging_runner.STREAM_CACHE_SIZE_ENV, "0")
        aging_runner.clear_stream_cache()
        first = self._build()
        assert self._build() is not first
        assert len(aging_runner._STREAM_CACHE) == 0
