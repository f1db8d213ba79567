"""Synthetic *trained-like* weight generation and checkpoint loading.

The original paper extracts the weights of pre-trained AlexNet / VGG-16 models
from a deep-learning framework.  In this offline reproduction no framework or
checkpoint download is available, so networks are populated with *synthetic
trained-like* weights instead (see DESIGN.md, "Substitutions"):

* zero-mean, approximately Gaussian bulk with standard deviation scaled by the
  layer fan-in (trained DNN layers follow this to first order);
* heavier-than-Gaussian tails (a small fraction of weights several sigma out),
  which is what makes range-linear quantization concentrate most weights in a
  narrow band of integer levels;
* a small, layer-dependent asymmetry (mean shift and asymmetric tails) so that
  the asymmetric-quantization zero-point is not exactly mid-range — the
  property responsible for the biased bit distributions the paper observes for
  asymmetric 8-bit quantization.

The aging analysis only depends on these distributional properties, not on the
exact weight values.  Real checkpoints can still be used through
:func:`load_weights_npz`.

Synthetic weights are *prefix-stable* in large layers.  Every layer draws from
its own generator, seeded by (seed, network name, layer name).  A layer with
more than :data:`PREFIX_STABLE_MIN_WEIGHTS` (2**20) weights instead draws one
chunk of whole filters at a time (as many as fit in :data:`CHUNK_WEIGHTS`,
2**18, and at least one), each from a child generator keyed by the layer seed
and the chunk index, and always at full chunk size before slicing.  Drawing
the first ``k`` filters of such a layer therefore gives exactly ``full[:k]``,
so a network trimmed by :func:`repro.experiments.common.reduce_network` draws
only the filters it streams, keyed on the un-reduced network.  The threshold
is fixed (independent of any experiment scale), so quick and full scale agree
on every prefix.  Only the AlexNet fc6-fc8, VGG-16 conv4_1-fc8 and five
ResNet-152 layers cross it, so only those networks' streams changed when the
contract came in; every custom MNIST, LeNet-5 and GoogLeNet layer keeps its
single-generator draw.  A trimmed layer at or below the threshold
(GoogLeNet's 1.024 M-weight ``fc`` under a 1 M cap) is still drawn in full,
then trimmed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.nn.layers import Layer
from repro.nn.network import Network
from repro.utils.rng import as_rng, deterministic_hash_seed
from repro.utils.validation import check_probability


@dataclass(frozen=True)
class WeightGenerationConfig:
    """Knobs of the synthetic trained-like weight generator.

    Attributes
    ----------
    gain:
        Multiplier on the He-style ``sqrt(2 / fan_in)`` standard deviation.
        Trained networks typically end up slightly below their initialisation
        scale, hence the default of 0.8.
    outlier_fraction:
        Fraction of weights drawn from a wider (``outlier_scale`` x) Gaussian,
        producing the heavy tails seen in trained models.
    outlier_scale:
        Scale multiplier of the outlier component.
    skew:
        Relative asymmetry of the positive/negative tails.  ``0`` gives a
        symmetric distribution; ``0.15`` (default) makes the positive tail
        slightly longer, so min(w) != -max(w) and asymmetric quantization gets
        a zero-point away from mid-range.
    mean_shift_fraction:
        Per-layer mean shift expressed as a fraction of the layer sigma.  The
        sign alternates between layers, mimicking the small but non-zero means
        of trained layers.
    """

    gain: float = 0.8
    outlier_fraction: float = 0.02
    outlier_scale: float = 3.5
    skew: float = 0.15
    mean_shift_fraction: float = 0.1

    def __post_init__(self) -> None:
        check_probability(self.outlier_fraction, "outlier_fraction")
        if self.gain <= 0 or self.outlier_scale <= 0:
            raise ValueError("gain and outlier_scale must be positive")


DEFAULT_CONFIG = WeightGenerationConfig()


#: Layers with more weights than this draw prefix-stable, chunk by chunk.
PREFIX_STABLE_MIN_WEIGHTS = 2**20

#: Weights per chunk of a prefix-stable draw (whole filters, at least one).
CHUNK_WEIGHTS = 2**18


def _trained_like(rng: np.random.Generator, shape: Tuple[int, ...], sigma: float,
                  config: WeightGenerationConfig, layer_index: int) -> np.ndarray:
    """One trained-like float32 tensor of ``shape`` from one generator."""
    values = rng.normal(0.0, sigma, size=shape)

    # Heavy tails: replace a small fraction with wider-Gaussian draws.
    if config.outlier_fraction > 0:
        outlier_mask = rng.random(shape) < config.outlier_fraction
        outliers = rng.normal(0.0, sigma * config.outlier_scale, size=shape)
        values = np.where(outlier_mask, outliers, values)

    # Asymmetric tails: stretch the positive side by (1 + skew).
    if config.skew:
        values = np.where(values > 0, values * (1.0 + config.skew), values)

    # Small per-layer mean shift with alternating sign.
    if config.mean_shift_fraction:
        shift_sign = 1.0 if layer_index % 2 == 0 else -1.0
        values = values + shift_sign * config.mean_shift_fraction * sigma

    return values.astype(np.float32)


def synthesize_layer_weights(layer: Layer, layer_seed: int,
                             config: WeightGenerationConfig = DEFAULT_CONFIG,
                             layer_index: int = 0, filters: Optional[int] = None
                             ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Generate the trained-like weights and bias of one layer.

    Parameters
    ----------
    layer:
        A weight-carrying layer at its full size (its ``weight_shape`` and
        ``fan_in`` are used).
    layer_seed:
        Seed of this layer's randomness.
    layer_index:
        Position of the layer in the network; used to alternate the sign of
        the small per-layer mean shift.
    filters:
        Number of leading filters (output channels/neurons) to return;
        ``None`` returns them all.  A layer above
        :data:`PREFIX_STABLE_MIN_WEIGHTS` draws only the chunks covering them.

    Returns the ``(weights, bias)`` pair; ``bias`` is ``None`` for bias-free
    layers.
    """
    shape = layer.weight_shape
    if shape is None:
        raise ValueError(f"layer '{layer.name}' has no weights")
    filters = shape[0] if filters is None else filters
    sigma = config.gain * np.sqrt(2.0 / max(layer.fan_in, 1))
    rng = as_rng(layer_seed)
    if layer.weight_count <= PREFIX_STABLE_MIN_WEIGHTS:
        weights = _trained_like(rng, shape, sigma, config, layer_index)
        if filters < shape[0]:
            weights = weights[:filters].copy()
    else:
        # Each chunk has its own child generator and is drawn whole, so the
        # first ``filters`` rows never depend on how many follow.
        filter_shape = shape[1:]
        chunk = max(CHUNK_WEIGHTS // int(np.prod(filter_shape)), 1)
        weights = np.empty((filters, *filter_shape), dtype=np.float32)
        for index, start in enumerate(range(0, filters, chunk)):
            child = np.random.default_rng(
                np.random.SeedSequence(layer_seed, spawn_key=(index,)))
            drawn = _trained_like(child, (chunk, *filter_shape), sigma, config, layer_index)
            weights[start:start + chunk] = drawn[:filters - start]
    bias = synthesize_layer_bias(layer, rng, config)
    return weights, None if bias is None else bias[:filters]


def synthesize_layer_bias(layer: Layer, rng: np.random.Generator,
                          config: WeightGenerationConfig = DEFAULT_CONFIG) -> Optional[np.ndarray]:
    """Generate a small bias vector (biases do not transit the weight memory)."""
    shape = layer.bias_shape
    if shape is None:
        return None
    fan_in = max(layer.fan_in, 1)
    sigma = config.gain * np.sqrt(1.0 / fan_in)
    return rng.normal(0.0, sigma, size=shape).astype(np.float32)


def attach_synthetic_weights(network: Network, seed: Optional[int] = 0,
                             config: WeightGenerationConfig = DEFAULT_CONFIG) -> Network:
    """Populate every weight-carrying layer of ``network`` with synthetic weights.

    The generation is deterministic per (seed, network name, layer name), so
    two calls with the same seed produce identical weights even if the caller
    rebuilds the network object.  A network trimmed by ``reduce_network``
    draws under the name and layer sizes of the network it was trimmed from,
    so each trimmed layer holds exactly the leading filters of its full draw.
    Returns the same network for chaining.
    """
    full = network.trimmed_from or network
    pairs = zip(network.weight_layers(), full.weight_layers())
    for index, (layer, full_layer) in enumerate(pairs):
        layer_seed = deterministic_hash_seed(seed, full.name, layer.name)
        layer.weights, layer.bias = synthesize_layer_weights(
            full_layer, layer_seed, config, layer_index=index,
            filters=layer.weight_shape[0])
    network.validate_weights()
    return network


def weight_statistics(network: Network) -> Dict[str, Dict[str, float]]:
    """Per-layer summary statistics of the attached weights."""
    stats: Dict[str, Dict[str, float]] = {}
    for layer in network.weight_layers():
        if layer.weights is None:
            continue
        values = np.asarray(layer.weights, dtype=np.float64).reshape(-1)
        stats[layer.name] = {
            "count": float(values.size),
            "mean": float(values.mean()),
            "std": float(values.std()),
            "min": float(values.min()),
            "max": float(values.max()),
            "abs_max": float(np.abs(values).max()),
            "fraction_negative": float((values < 0).mean()),
        }
    return stats


def save_weights_npz(network: Network, path) -> None:
    """Save attached weights (and biases) to an ``.npz`` checkpoint."""
    arrays: Dict[str, np.ndarray] = {}
    for layer in network.weight_layers():
        if layer.weights is None:
            raise ValueError(f"layer '{layer.name}' has no weights to save")
        arrays[f"{layer.name}.weight"] = np.asarray(layer.weights, dtype=np.float32)
        if layer.bias is not None:
            arrays[f"{layer.name}.bias"] = np.asarray(layer.bias, dtype=np.float32)
    np.savez_compressed(path, **arrays)


def load_weights_npz(network: Network, path) -> Network:
    """Load weights from an ``.npz`` checkpoint (e.g. exported from PyTorch).

    Array names must be ``<layer name>.weight`` / ``<layer name>.bias`` and
    shapes must match the declared layer shapes.
    """
    with np.load(path) as data:
        for layer in network.weight_layers():
            key = f"{layer.name}.weight"
            if key not in data:
                raise KeyError(f"checkpoint is missing '{key}'")
            layer.weights = np.asarray(data[key], dtype=np.float32)
            bias_key = f"{layer.name}.bias"
            if bias_key in data:
                layer.bias = np.asarray(data[bias_key], dtype=np.float32)
    network.validate_weights()
    return network
