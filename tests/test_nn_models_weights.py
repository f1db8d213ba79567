"""Tests for repro.nn.models, repro.nn.weights and repro.nn.functional."""

import hashlib
import os
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.common import ExperimentScale, reduce_network
from repro.nn.functional import classify, forward
from repro.nn.layers import Linear
from repro.nn.models import (
    MODEL_ZOO,
    PUBLISHED_ACCURACY,
    build_model,
    custom_mnist_cnn,
)
from repro.nn import weights as weights_module
from repro.nn.network import Network
from repro.nn.weights import (
    PREFIX_STABLE_MIN_WEIGHTS,
    WeightGenerationConfig,
    attach_synthetic_weights,
    load_weights_npz,
    save_weights_npz,
    synthesize_layer_bias,
    synthesize_layer_weights,
    weight_statistics,
)
from repro.utils.rng import as_rng


class TestModelZoo:
    def test_all_models_build(self):
        for name in MODEL_ZOO:
            network = build_model(name)
            assert network.parameter_count > 0

    def test_unknown_model_raises(self):
        with pytest.raises(KeyError):
            build_model("resnet9000")

    def test_alexnet_parameter_count(self):
        # The published single-tower AlexNet has ~61.1M parameters.
        assert build_model("alexnet").parameter_count == pytest.approx(61.1e6, rel=0.01)

    def test_vgg16_parameter_count(self):
        assert build_model("vgg16").parameter_count == pytest.approx(138.36e6, rel=0.01)

    def test_googlenet_parameter_count(self):
        # Inception-v1 main branch: ~7M parameters (~27 MB at float32).
        assert build_model("googlenet").parameter_count == pytest.approx(7.0e6, rel=0.05)

    def test_resnet152_parameter_count(self):
        assert build_model("resnet152").parameter_count == pytest.approx(60.2e6, rel=0.02)

    def test_fig1_size_ordering(self):
        sizes = {name: build_model(name).model_size_mb()
                 for name in ("alexnet", "googlenet", "vgg16", "resnet152")}
        # VGG-16 is by far the largest; GoogLeNet by far the smallest (Fig. 1a).
        assert sizes["vgg16"] > sizes["alexnet"] > sizes["googlenet"]
        assert sizes["vgg16"] > sizes["resnet152"] > sizes["googlenet"]

    def test_published_accuracy_available_for_fig1_models(self):
        for name in ("alexnet", "googlenet", "vgg16", "resnet152"):
            top1, top5 = PUBLISHED_ACCURACY[name]
            assert 50.0 < top1 < top5 < 100.0

    def test_all_networks_propagate_shapes(self):
        for name in MODEL_ZOO:
            network = build_model(name)
            assert network.output_shape()[0] in (10, 1000)

    def test_custom_mnist_matches_paper_spec(self):
        # CONV(16,1,5,5), CONV(50,16,5,5), FC(256,800), FC(10,256).
        network = custom_mnist_cnn()
        conv1, conv2 = network.conv_layers()
        fc1, fc2 = network.linear_layers()
        assert conv1.weight_shape == (16, 1, 5, 5)
        assert conv2.weight_shape == (50, 16, 5, 5)
        assert fc1.weight_shape == (256, 800)
        assert fc2.weight_shape == (10, 256)

    def test_custom_mnist_weight_count(self):
        network = custom_mnist_cnn()
        assert network.weight_count == 16 * 25 + 50 * 16 * 25 + 256 * 800 + 10 * 256


class TestSyntheticWeights:
    def test_attach_fills_all_layers(self, mnist_network):
        assert mnist_network.has_weights_attached
        for layer in mnist_network.weight_layers():
            assert layer.weights.shape == layer.weight_shape
            assert layer.weights.dtype == np.float32

    def test_deterministic_per_seed(self):
        first = attach_synthetic_weights(custom_mnist_cnn(), seed=11)
        second = attach_synthetic_weights(custom_mnist_cnn(), seed=11)
        assert np.array_equal(first.flat_weights(), second.flat_weights())

    def test_different_seeds_differ(self):
        first = attach_synthetic_weights(custom_mnist_cnn(), seed=1)
        second = attach_synthetic_weights(custom_mnist_cnn(), seed=2)
        assert not np.array_equal(first.flat_weights(), second.flat_weights())

    def test_trained_like_statistics(self, mnist_network):
        stats = weight_statistics(mnist_network)
        for layer_stats in stats.values():
            # Zero-mean-ish, small scale, both signs present.
            assert abs(layer_stats["mean"]) < 0.1
            assert 0 < layer_stats["std"] < 1.0
            assert 0.2 < layer_stats["fraction_negative"] < 0.8

    def test_scale_follows_fan_in(self, mnist_network):
        stats = weight_statistics(mnist_network)
        # fc1 has a much larger fan-in (800) than conv1 (25), so its weights
        # must be substantially smaller.
        assert stats["fc1"]["std"] < stats["conv1"]["std"]

    def test_skew_produces_asymmetric_range(self, mnist_network):
        stats = weight_statistics(mnist_network)
        asymmetry = [abs(s["max"]) != pytest.approx(abs(s["min"]), rel=0.01)
                     for s in stats.values()]
        assert any(asymmetry)

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            WeightGenerationConfig(outlier_fraction=1.5)
        with pytest.raises(ValueError):
            WeightGenerationConfig(gain=-1.0)

    def test_checkpoint_roundtrip(self, tmp_path, mnist_network):
        path = tmp_path / "weights.npz"
        save_weights_npz(mnist_network, path)
        fresh = load_weights_npz(custom_mnist_cnn(), path)
        assert np.array_equal(fresh.flat_weights(), mnist_network.flat_weights())

    def test_checkpoint_missing_layer_raises(self, tmp_path, mnist_network):
        path = tmp_path / "weights.npz"
        np.savez_compressed(path, **{"conv1.weight": np.zeros((16, 1, 5, 5), np.float32)})
        with pytest.raises(KeyError):
            load_weights_npz(custom_mnist_cnn(), path)


def _weights_sha(network):
    digest = hashlib.sha256()
    for layer in network.weight_layers():
        digest.update(np.ascontiguousarray(layer.weights, dtype=np.float32).tobytes())
        if layer.bias is not None:
            digest.update(np.ascontiguousarray(layer.bias, dtype=np.float32).tobytes())
    return digest.hexdigest()


#: SHA-256 of every layer's float32 weights then bias, in layer order, at
#: seed 0, captured before large layers became prefix-stable.  No layer of
#: these networks crosses the threshold, so their draws must never change.
SYNTHETIC_WEIGHT_SHAS = {
    "custom_mnist": "29a03f25198deed7d3d007bd3b9f8b5454bcf286b065c323e0c6fbbea87842fd",
    "lenet5": "b06a028aef4d32dfe61c61fa6ed10196ca1879054aeb2eae669611b259c89430",
    "googlenet": "261f0af8174d18522a550cc37ddaff2daecd93e059a4b1776837f4f3cbfc2cef",
}

#: A layer just above the prefix-stable threshold (1.1 M weights).
LARGE_LINEAR = Linear(name="fc", out_features=1100, in_features=1000)
_FULL_DRAWS = {}


def _full_draw(seed):
    if seed not in _FULL_DRAWS:
        _FULL_DRAWS[seed] = synthesize_layer_weights(LARGE_LINEAR, seed)
    return _FULL_DRAWS[seed]


class TestPrefixStableWeights:
    @pytest.mark.parametrize("name", sorted(SYNTHETIC_WEIGHT_SHAS))
    def test_small_layer_networks_keep_their_draws(self, name):
        network = attach_synthetic_weights(build_model(name), seed=0)
        assert _weights_sha(network) == SYNTHETIC_WEIGHT_SHAS[name]

    @settings(max_examples=30, deadline=None)
    @given(seed=st.sampled_from([0, 1, 7, 2**40 + 3]), filters=st.integers(1, 1100))
    def test_trimmed_large_layer_is_prefix_of_full(self, seed, filters):
        assert LARGE_LINEAR.weight_count > PREFIX_STABLE_MIN_WEIGHTS
        full_weights, full_bias = _full_draw(seed)
        weights, bias = synthesize_layer_weights(LARGE_LINEAR, seed, filters=filters)
        assert weights.shape == (filters, 1000)
        assert np.array_equal(weights, full_weights[:filters])
        assert np.array_equal(bias, full_bias[:filters])

    def test_large_layer_keeps_trained_like_statistics(self):
        weights, _ = _full_draw(0)
        sigma = 0.8 * np.sqrt(2.0 / 1000)
        assert abs(weights.mean()) < 0.2 * sigma
        assert 0.9 * sigma < weights.std() < 1.6 * sigma
        assert weights.max() > -weights.min()

    def test_reduced_build_equals_trimmed_full_build(self):
        # googlenet's fc (1.024 M weights) is trimmed by the quick cap but sits
        # below the threshold: it is drawn in full, then trimmed.
        cap = ExperimentScale.quick().max_weights_per_layer
        direct = attach_synthetic_weights(reduce_network(build_model("googlenet"), cap), seed=4)
        trimmed = reduce_network(attach_synthetic_weights(build_model("googlenet"), seed=4), cap)
        assert direct.name == trimmed.name == "googlenet_reduced"
        assert direct.weight_count < build_model("googlenet").weight_count
        for ours, theirs in zip(direct.weight_layers(), trimmed.weight_layers()):
            assert np.array_equal(ours.weights, theirs.weights), ours.name

    def test_reduced_large_layer_keys_on_unreduced_network(self):
        def wide():
            return Network(name="wide", input_shape=(1000, 1, 1),
                           layers=[Linear(name="fc", out_features=1100, in_features=1000)])

        reduced = attach_synthetic_weights(reduce_network(wide(), 50_000), seed=1)
        full = attach_synthetic_weights(wide(), seed=1)
        kept = reduced.layer("fc").weights
        assert kept.shape == (50, 1000)
        assert np.array_equal(kept, full.layer("fc").weights[:50])

    def test_quick_alexnet_reduced_build_never_holds_full_fc6(self):
        network = build_model("alexnet")
        full_fc6_bytes = network.layer("fc6").weight_count * 4
        tracemalloc.start()
        try:
            reduced = attach_synthetic_weights(
                reduce_network(network, ExperimentScale.quick().max_weights_per_layer), seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert reduced.has_weights_attached
        assert peak < full_fc6_bytes / 3


def _whole_array_draw(rng, shape, sigma, config, layer_index):
    """The whole-array trained-like formula the in-place draws must equal."""
    values = rng.normal(0.0, sigma, size=shape)
    if config.outlier_fraction > 0:
        outlier_mask = rng.random(shape) < config.outlier_fraction
        outliers = rng.normal(0.0, sigma * config.outlier_scale, size=shape)
        values = np.where(outlier_mask, outliers, values)
    if config.skew:
        values = np.where(values > 0, values * (1.0 + config.skew), values)
    if config.mean_shift_fraction:
        shift_sign = 1.0 if layer_index % 2 == 0 else -1.0
        values = values + shift_sign * config.mean_shift_fraction * sigma
    return values.astype(np.float32)


def _oracle_layer(layer, seed, config, layer_index):
    """``(weights, bias)`` of ``layer`` through :func:`_whole_array_draw`."""
    sigma = config.gain * np.sqrt(2.0 / layer.fan_in)
    shape = layer.weight_shape
    rng = as_rng(seed)
    if layer.weight_count <= PREFIX_STABLE_MIN_WEIGHTS:
        weights = _whole_array_draw(rng, shape, sigma, config, layer_index)
    else:
        chunk = weights_module.CHUNK_WEIGHTS // shape[1]
        weights = np.concatenate([
            _whole_array_draw(
                np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index,))),
                (chunk, shape[1]), sigma, config, layer_index)
            for index in range(-(-shape[0] // chunk))])[:shape[0]]
    return weights, synthesize_layer_bias(layer, rng, config)


def _pin_cpus(monkeypatch, count):
    """Make the draws see ``count`` CPUs, and record each pool's worker count."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)),
                        raising=False)
    pools = []

    class RecordingPool(weights_module.ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(weights_module, "ThreadPoolExecutor", RecordingPool)
    return pools


class TestThreadedDraws:
    """Draws on every core give the bytes of a one-worker run."""

    #: Single-generator (3 draw blocks, the last one short) and prefix-stable.
    LAYERS = [Linear(name="fc", out_features=300, in_features=500), LARGE_LINEAR]

    @pytest.mark.parametrize("name", ["alexnet", "googlenet", "custom_mnist", "lenet5"])
    def test_network_draws_equal_one_worker(self, monkeypatch, name):
        cap = ExperimentScale.quick().max_weights_per_layer
        shas = []
        for cpus in (4, 1):
            pools = _pin_cpus(monkeypatch, cpus)
            network = attach_synthetic_weights(reduce_network(build_model(name), cap), seed=9)
            shas.append(_weights_sha(network))
            assert pools[0] > 1 if cpus > 1 else pools == [1]
        assert shas[0] == shas[1]

    def test_more_workers_than_cores_under_fast_switching(self, monkeypatch):
        # Workers share the scratch pool; two draws on one buffer would mix
        # their values.
        cap = ExperimentScale.quick().max_weights_per_layer
        expected = _weights_sha(attach_synthetic_weights(
            reduce_network(build_model("googlenet"), cap), seed=2))
        pools = _pin_cpus(monkeypatch, 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            network = attach_synthetic_weights(
                reduce_network(build_model("googlenet"), cap), seed=2)
        finally:
            sys.setswitchinterval(interval)
        assert pools == [8]
        assert _weights_sha(network) == expected

    @pytest.mark.parametrize("filters", [None, 263])
    def test_large_layer_draws_equal_one_worker(self, monkeypatch, filters):
        draws = []
        for cpus in (3, 1):
            pools = _pin_cpus(monkeypatch, cpus)
            draws.append(synthesize_layer_weights(LARGE_LINEAR, 5, filters=filters))
            assert pools == [min(cpus, 2 if filters == 263 else 5)]
        for threaded, single in zip(*draws):
            assert threaded.tobytes() == single.tobytes()

    @pytest.mark.parametrize("layer_index", [0, 1])
    @pytest.mark.parametrize("outlier_fraction", [0.0, 0.02])
    @pytest.mark.parametrize("skew", [0.0, 0.15])
    @pytest.mark.parametrize("mean_shift_fraction", [0.0, 0.1])
    def test_in_place_draws_equal_whole_array_formula(self, outlier_fraction, skew,
                                                      mean_shift_fraction, layer_index):
        # With no mean shift the ``+ 0.0`` of NumPy's normal() is what keeps
        # -0.0 out; the bytes compare it too.
        config = WeightGenerationConfig(outlier_fraction=outlier_fraction, skew=skew,
                                        mean_shift_fraction=mean_shift_fraction)
        for layer in self.LAYERS:
            got = synthesize_layer_weights(layer, 17, config, layer_index=layer_index)
            expected = _oracle_layer(layer, 17, config, layer_index)
            for ours, theirs in zip(got, expected):
                assert ours.dtype == np.float32
                assert ours.tobytes() == theirs.tobytes(), layer.name

    def test_negative_zero_normals_become_zero(self):
        class NegativeZeros:
            """A generator whose every standard normal is -0.0."""

            def standard_normal(self, size=None, out=None):
                if out is None:
                    return np.full(size, -0.0)
                out[...] = -0.0
                return out

        config = WeightGenerationConfig(outlier_fraction=0.0, skew=0.0,
                                        mean_shift_fraction=0.0)
        values = weights_module._trained_like(
            NegativeZeros(), weights_module._Scratch.allocate(5), 5, 0.1, config, 0)
        assert values.size == 5 and not np.signbit(values).any()

    def test_no_thread_outlives_the_call(self, monkeypatch):
        _pin_cpus(monkeypatch, 4)
        before = threading.active_count()
        attach_synthetic_weights(build_model("lenet5"), seed=1)
        assert threading.active_count() == before

    def test_a_failing_draw_reaches_the_caller(self, monkeypatch):
        _pin_cpus(monkeypatch, 4)
        original = weights_module._trained_like
        calls = []

        def failing(*args):
            calls.append(args)
            if len(calls) == 2:
                raise RuntimeError("draw failed")
            return original(*args)

        monkeypatch.setattr(weights_module, "_trained_like", failing)
        before = threading.active_count()
        outcome = []

        def attach():
            try:
                attach_synthetic_weights(build_model("custom_mnist"), seed=1)
            except RuntimeError as error:
                outcome.append(error)

        caller = threading.Thread(target=attach, daemon=True)
        caller.start()
        caller.join(timeout=60)
        assert not caller.is_alive(), "the pool hung on a failed draw"
        assert [str(error) for error in outcome] == ["draw failed"]
        assert threading.active_count() == before


class TestFunctionalForward:
    def test_output_shape_and_normalisation(self, mnist_network, rng):
        inputs = rng.normal(size=(3, 1, 28, 28))
        outputs = forward(mnist_network, inputs)
        assert outputs.shape == (3, 10)
        assert np.allclose(outputs.sum(axis=1), 1.0)
        assert np.all(outputs >= 0)

    def test_classify_returns_indices(self, mnist_network, rng):
        labels = classify(mnist_network, rng.normal(size=(4, 1, 28, 28)))
        assert labels.shape == (4,)
        assert set(labels).issubset(set(range(10)))

    def test_deterministic(self, mnist_network, rng):
        inputs = rng.normal(size=(2, 1, 28, 28))
        assert np.array_equal(forward(mnist_network, inputs), forward(mnist_network, inputs))

    def test_partial_forward(self, mnist_network, rng):
        inputs = rng.normal(size=(1, 1, 28, 28))
        conv1_out = forward(mnist_network, inputs, upto_layer="conv1")
        assert conv1_out.shape == (1, 16, 24, 24)

    def test_input_shape_checked(self, mnist_network, rng):
        with pytest.raises(ValueError):
            forward(mnist_network, rng.normal(size=(1, 3, 28, 28)))

    def test_lenet_forward(self, lenet_network, rng):
        outputs = forward(lenet_network, rng.normal(size=(2, 1, 28, 28)))
        assert outputs.shape == (2, 10)

    def test_conv_matches_manual_dot_product(self, rng):
        from repro.nn.functional import conv2d
        from repro.nn.layers import Conv2d

        layer = Conv2d(name="c", out_channels=1, in_channels=1, kernel_size=(3, 3))
        layer.weights = rng.normal(size=(1, 1, 3, 3)).astype(np.float32)
        layer.bias = np.zeros(1, dtype=np.float32)
        inputs = rng.normal(size=(1, 1, 3, 3))
        expected = float(np.sum(inputs[0, 0] * layer.weights[0, 0]))
        assert conv2d(inputs, layer)[0, 0, 0, 0] == pytest.approx(expected)
