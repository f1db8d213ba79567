"""End-to-end integration tests.

These tie every substrate together the way the examples do:

* the DNN-Life transducers are bit-exact transparent to the accelerator — an
  inference computed with weights that went through WDE -> SRAM -> RDD is
  identical to the reference numpy forward pass;
* the full analysis -> mitigation -> report pipeline reproduces the paper's
  qualitative claims on a small workload;
* the analytic probabilistic model (Eq. 1) agrees with the Monte-Carlo memory
  simulation.
"""

import numpy as np
import pytest

from repro.aging.probabilistic import duty_cycle_tail_probability, empirical_tail_probability
from repro.core.framework import DnnLife
from repro.core.policies import DnnLifePolicy, NoMitigationPolicy
from repro.core.simulation import AgingSimulator
from repro.memory.sram import SramArray
from repro.nn.functional import forward
from repro.quantization.formats import get_format


class TestTransducerTransparency:
    """Encoding weights into the memory and decoding them back must never
    change what the processing array computes."""

    @pytest.mark.parametrize("format_name", ["float32", "int8_symmetric", "int8_asymmetric"])
    def test_roundtrip_through_sram_is_bit_exact(self, tiny_network, tiny_accelerator,
                                                 format_name, rng):
        data_format = get_format(format_name)
        scheduler = tiny_accelerator.build_scheduler(tiny_network, data_format)
        policy = DnnLifePolicy(data_format.word_bits, trbg_bias=0.7, bias_balancing=True,
                               seed=5)
        memory = SramArray(scheduler.geometry)
        for block in scheduler.iter_blocks():
            encoded, metadata = policy.encode_block(block.words, block.index)
            memory.write_block(encoded, start_row=block.region * scheduler.words_per_block)
            read_back = memory.read_rows(
                np.arange(block.region * scheduler.words_per_block,
                          block.region * scheduler.words_per_block + block.num_words))
            decoded = policy.decode_block(read_back, metadata)
            assert np.array_equal(decoded, np.asarray(block.words, dtype=np.uint64))

    def test_inference_identical_with_and_without_mitigation(self, mnist_network, rng):
        # Quantize the weights, run the reference forward pass, then run a
        # forward pass whose weights made a WDE -> RDD round trip: identical.
        data_format = get_format("int8_symmetric")
        inputs = rng.normal(size=(2, 1, 28, 28))
        reference = None
        for use_mitigation in (False, True):
            network = mnist_network
            decoded_layers = {}
            policy = DnnLifePolicy(8, seed=11)
            for layer in network.weight_layers():
                words, decode = data_format.to_words_with_decoder(
                    np.asarray(layer.weights, dtype=np.float32))
                if use_mitigation:
                    encoded, metadata = policy.encode_block(words, 0)
                    words = policy.decode_block(encoded, metadata)
                decoded_layers[layer.name] = decode(words).reshape(layer.weight_shape)
            original = {layer.name: layer.weights for layer in network.weight_layers()}
            try:
                for layer in network.weight_layers():
                    layer.weights = decoded_layers[layer.name].astype(np.float32)
                outputs = forward(network, inputs)
            finally:
                for layer in network.weight_layers():
                    layer.weights = original[layer.name]
            if reference is None:
                reference = outputs
            else:
                assert np.array_equal(outputs, reference)


class TestEndToEndPipeline:
    def test_paper_storyline_on_small_workload(self, mnist_network):
        """No mitigation ages badly, DNN-Life keeps every cell near optimum,
        bias balancing rescues a biased TRBG, and the overhead stays small."""
        framework = DnnLife(mnist_network, data_format="int8_asymmetric",
                            num_inferences=50, seed=0)
        comparison = framework.compare_policies()
        summaries = {label: result.summary() for label, result in comparison.results.items()}

        none_mean = summaries["none"]["mean_snm_degradation_percent"]
        balanced = [label for label in summaries
                    if "bias=0.7" in label and "without" not in label][0]
        unbalanced = [label for label in summaries
                      if "bias=0.7" in label and "without" in label][0]
        ideal = [label for label in summaries if "bias=0.5" in label][0]

        assert summaries[ideal]["mean_snm_degradation_percent"] < none_mean
        assert (summaries[balanced]["mean_snm_degradation_percent"]
                < summaries[unbalanced]["mean_snm_degradation_percent"])
        assert "DNN-Life" in comparison.best_policy()

        overhead = framework.mitigation_energy_overhead("dnn_life")
        assert overhead["overhead_percent_of_memory_energy"] < 10.0

    def test_histogram_shift_towards_best_bin(self, mnist_network):
        framework = DnnLife(mnist_network, data_format="int8_symmetric",
                            num_inferences=100, seed=1)
        baseline = framework.simulate("none")
        mitigated = framework.simulate("dnn_life")
        bins = framework.degradation_bins()
        baseline_hist, _, _ = baseline.histogram(bins)
        mitigated_hist, _, _ = mitigated.histogram(bins)
        # DNN-Life concentrates cells in the lowest-degradation bins.  (With
        # this small workload the whole network fits in a single block, so the
        # effective K is only the number of inferences; the concentration is
        # therefore softer than in the paper-scale Fig. 9 runs.)
        assert mitigated_hist[0] > baseline_hist[0]
        assert mitigated_hist[0] > 70.0
        assert mitigated_hist[0] + mitigated_hist[1] > 95.0
        assert float(mitigated.snm_degradation().mean()) < 13.0

    def test_monte_carlo_matches_probabilistic_model(self, tiny_fp32_scheduler):
        """Empirical tail fractions of the simulated duty-cycles agree with
        Eq. (1) for the balanced mantissa bit columns."""
        result = AgingSimulator(tiny_fp32_scheduler, NoMitigationPolicy(),
                                num_inferences=1, seed=0).run()
        num_blocks = tiny_fp32_scheduler.num_blocks
        # Mantissa low bits: probability of '1' close to 0.5 and independent
        # across blocks, matching the model's assumptions.
        mantissa_duty = result.duty_cycles[:, 25:]
        empirical = empirical_tail_probability(mantissa_duty, 0.3)
        analytic = duty_cycle_tail_probability(num_blocks, 0.5, int(0.3 * num_blocks))
        assert empirical == pytest.approx(analytic, abs=0.1)

    def test_seed_reproducibility_end_to_end(self, mnist_network):
        first = DnnLife(mnist_network, num_inferences=10, seed=42).simulate("dnn_life")
        second = DnnLife(mnist_network, num_inferences=10, seed=42).simulate("dnn_life")
        assert np.array_equal(first.duty_cycles, second.duty_cycles)

    def test_different_accelerators_same_conclusion(self, mnist_network):
        from repro.accelerator.tpu import TpuLikeNpu

        for accelerator in (None, TpuLikeNpu()):
            framework = DnnLife(mnist_network, accelerator=accelerator,
                                data_format="int8_symmetric", num_inferences=30, seed=0)
            baseline = framework.simulate("none")
            mitigated = framework.simulate("dnn_life")
            assert (mitigated.snm_degradation().mean() < baseline.snm_degradation().mean())
