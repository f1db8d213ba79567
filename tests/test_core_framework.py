"""Tests for the DnnLife end-to-end framework and the PolicyComparison report."""

import os
import subprocess
import sys

import numpy as np
import pytest

import repro

from repro.accelerator.tpu import TpuLikeNpu
from repro.core.framework import DnnLife, PolicyComparison
from repro.core.policies import DnnLifePolicy, NoMitigationPolicy
from repro.core.simulation import AgingResult
from repro.nn.models import custom_mnist_cnn, lenet5
from repro.nn.weights import attach_synthetic_weights


#: Prints the SHA-256 of lenet5's weights as seeded by ``DnnLife(seed=argv[1])``.
WEIGHT_SHA_SUBPROCESS = """
import hashlib, sys
import numpy as np
from repro.core.framework import DnnLife
from repro.nn.models import lenet5
framework = DnnLife(lenet5(), num_inferences=1, seed=eval(sys.argv[1]))
print(hashlib.sha256(framework.network.flat_weights().tobytes()).hexdigest())
"""


@pytest.fixture
def mnist_framework(mnist_network):
    return DnnLife(mnist_network, data_format="int8_symmetric", num_inferences=10, seed=0)


class TestDnnLifeAnalysis:
    def test_bit_distribution_shape(self, mnist_framework):
        probabilities = mnist_framework.bit_distribution()
        assert probabilities.shape == (8,)
        assert np.all((probabilities >= 0) & (probabilities <= 1))

    def test_average_bit_probability(self, mnist_framework):
        assert 0.2 < mnist_framework.average_bit_probability() < 0.8

    def test_weight_words_count(self, mnist_framework, mnist_network):
        assert mnist_framework.weight_words().size == mnist_network.weight_count

    def test_float32_distribution_wider(self, mnist_network):
        framework = DnnLife(mnist_network, data_format="float32", num_inferences=5)
        assert framework.bit_distribution().shape == (32,)

    def test_weights_attached_automatically(self):
        framework = DnnLife(custom_mnist_cnn(), num_inferences=5, seed=2)
        assert framework.network.has_weights_attached

    def test_int_seed_draws_the_same_weights_as_attach(self):
        framework = DnnLife(lenet5(), num_inferences=5, seed=5)
        reference = attach_synthetic_weights(lenet5(), seed=5)
        assert np.array_equal(framework.network.flat_weights(), reference.flat_weights())

    def test_negative_seeds_draw_distinct_weights(self):
        first = DnnLife(lenet5(), num_inferences=5, seed=-1).network.flat_weights()
        second = DnnLife(lenet5(), num_inferences=5, seed=-2).network.flat_weights()
        assert not np.array_equal(first, second)

    def test_generator_seed_is_not_consumed(self):
        generator = np.random.default_rng(9)
        by_generator = DnnLife(lenet5(), num_inferences=5, seed=generator)
        by_sequence = DnnLife(lenet5(), num_inferences=5, seed=np.random.SeedSequence(9))
        assert np.array_equal(by_generator.network.flat_weights(),
                              by_sequence.network.flat_weights())
        assert generator.random() == np.random.default_rng(9).random()

    @pytest.mark.parametrize("seed", ["np.random.SeedSequence(0)", "np.random.default_rng(0)"])
    def test_seed_sequence_weights_agree_across_processes(self, seed):
        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        shas = {subprocess.run([sys.executable, "-c", WEIGHT_SHA_SUBPROCESS, seed],
                               capture_output=True, text=True, env=env,
                               check=True).stdout.strip()
                for _ in range(2)}
        assert len(shas) == 1 and len(shas.pop()) == 64


class TestDnnLifeSimulation:
    def test_simulate_by_name(self, mnist_framework):
        result = mnist_framework.simulate("none")
        assert isinstance(result, AgingResult)
        assert result.policy_name == "none"

    def test_simulate_default_is_dnn_life(self, mnist_framework):
        assert mnist_framework.simulate().policy_name == "dnn_life"

    def test_simulate_policy_instance(self, mnist_framework):
        result = mnist_framework.simulate(NoMitigationPolicy())
        assert result.policy_name == "none"

    def test_simulate_kwargs_forwarded(self, mnist_framework):
        result = mnist_framework.simulate("dnn_life", trbg_bias=0.7, bias_balancing=False)
        assert result.policy_description["trbg_bias"] == 0.7
        assert result.policy_description["bias_balancing"] is False

    def test_dnn_life_improves_over_none(self, mnist_framework):
        baseline = mnist_framework.simulate("none")
        mitigated = mnist_framework.simulate("dnn_life")
        assert mitigated.snm_degradation().mean() < baseline.snm_degradation().mean()

    def test_compare_policies_default_suite(self, mnist_framework):
        comparison = mnist_framework.compare_policies()
        assert len(comparison.labels()) == 6
        assert "DNN-Life" in comparison.best_policy()

    def test_compare_policies_packs_the_stream_once(self, mnist_framework,
                                                    pack_calls):
        calls = pack_calls()
        comparison = mnist_framework.compare_policies()
        assert len(comparison.labels()) == 6
        assert len(calls) == 1
        mnist_framework.simulate("none")
        assert len(calls) == 1

    def test_compare_policies_custom_list(self, mnist_framework):
        comparison = mnist_framework.compare_policies(["none", "dnn_life"])
        assert len(comparison.labels()) == 2

    def test_tpu_accelerator_supported(self, mnist_network):
        framework = DnnLife(mnist_network, accelerator=TpuLikeNpu(),
                            data_format="int8_symmetric", num_inferences=10, seed=0)
        result = framework.simulate("dnn_life")
        assert result.num_blocks == 4

    def test_describe(self, mnist_framework):
        description = mnist_framework.describe()
        assert description["network"] == "custom_mnist"
        assert description["accelerator"] == "baseline"
        assert description["data_format"] == "int8_symmetric"


class TestEnergyOverhead:
    def test_dnn_life_overhead_is_small(self, mnist_framework):
        overhead = mnist_framework.mitigation_energy_overhead("dnn_life")
        assert overhead["total_overhead_joules"] > 0
        assert overhead["overhead_percent_of_memory_energy"] < 25.0

    def test_barrel_shifter_transducers_cost_more_than_inversion(self, mnist_framework):
        barrel = mnist_framework.mitigation_energy_overhead("barrel_shifter")
        inversion = mnist_framework.mitigation_energy_overhead("inversion")
        assert barrel["transducer_energy_joules"] > inversion["transducer_energy_joules"]

    def test_no_mitigation_has_lowest_overhead(self, mnist_framework):
        none = mnist_framework.mitigation_energy_overhead("none")
        dnn_life = mnist_framework.mitigation_energy_overhead("dnn_life")
        assert none["total_overhead_joules"] < dnn_life["total_overhead_joules"]

    def test_group_enable_reduces_metadata_energy(self, mnist_framework):
        per_word = mnist_framework.mitigation_energy_overhead("dnn_life", words_per_enable=1)
        per_group = mnist_framework.mitigation_energy_overhead("dnn_life", words_per_enable=8)
        assert per_group["metadata_energy_joules"] < per_word["metadata_energy_joules"]


class TestPolicyComparison:
    def _result(self, name, duty):
        return AgingResult(policy_name=name, policy_description={"policy": name},
                           duty_cycles=np.asarray(duty), num_inferences=1, num_blocks=1)

    def test_add_and_labels(self):
        comparison = PolicyComparison(workload={"network": "x", "accelerator": "a",
                                                "data_format": "f"})
        comparison.add("none", self._result("none", [[0.0, 1.0]]))
        comparison.add("dnn_life", self._result("dnn_life", [[0.5, 0.5]]))
        assert comparison.labels() == ["none", "dnn_life"]
        assert comparison.best_policy() == "dnn_life"

    def test_duplicate_label_rejected(self):
        comparison = PolicyComparison(workload={})
        comparison.add("none", self._result("none", [[0.5]]))
        with pytest.raises(ValueError):
            comparison.add("none", self._result("none", [[0.5]]))

    def test_table_and_histograms(self):
        comparison = PolicyComparison(workload={"network": "n", "accelerator": "a",
                                                "data_format": "f"})
        comparison.add("none", self._result("none", [[0.0, 1.0, 0.5]]))
        table_text = comparison.table().render()
        assert "none" in table_text
        histograms = comparison.histograms()
        assert "none" in histograms
        assert sum(histograms["none"]["percent_of_cells"]) == pytest.approx(100.0)

    def test_best_policy_requires_results(self):
        with pytest.raises(ValueError):
            PolicyComparison(workload={}).best_policy()

    def test_summary_structure(self, mnist_framework):
        comparison = mnist_framework.compare_policies(["none", "dnn_life"])
        summary = comparison.summary()
        assert set(summary) == {"workload", "policies", "best_policy"}
        assert set(summary["policies"]) == set(comparison.labels())
