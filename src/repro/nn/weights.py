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

Each layer is one independent draw, or one per chunk, with its own
generator, so :func:`attach_synthetic_weights` runs all of them on one
thread pool (generator fills release the GIL) and the values never depend
on the worker count.
"""

from __future__ import annotations

import functools
import queue
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.nn.layers import Layer
from repro.nn.network import Network
from repro.utils.host import host_cpus
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


#: Uniforms and outlier normals are drawn this many at a time: the same
#: generator stream as one whole-size draw, without whole-size temporaries.
_DRAW_BLOCK = 1 << 16


class _Scratch(NamedTuple):
    """One worker's buffers, allocated by the calling thread.

    A draw allocates nothing sizeable itself, so the synthesis holds these
    buffers and the weights, whatever the number of draws.
    """

    #: float64, the size of the largest draw.
    values: np.ndarray
    #: bool, the size of the largest draw.
    mask: np.ndarray
    #: float64, one draw block.
    block: np.ndarray

    @classmethod
    def allocate(cls, size: int) -> "_Scratch":
        return cls(np.empty(size, dtype=np.float64), np.empty(size, dtype=np.bool_),
                   np.empty(min(size, _DRAW_BLOCK), dtype=np.float64))


def _normal_into(rng: np.random.Generator, values: np.ndarray, sigma: float) -> None:
    """``values[:] = rng.normal(0.0, sigma, values.size)``, in place.

    NumPy draws ``normal(0, s)`` as ``0.0 + s * z``; the ``+ 0.0`` turns a
    ``-0.0`` into ``0.0``.
    """
    rng.standard_normal(out=values)
    values *= sigma
    values += 0.0


def _trained_like(rng: np.random.Generator, scratch: _Scratch, size: int,
                  sigma: float, config: WeightGenerationConfig,
                  layer_index: int) -> np.ndarray:
    """One trained-like float64 draw of ``size`` weights from one generator.

    Fills and returns ``scratch.values[:size]``.  Every step runs in place,
    a block at a time, with the arithmetic of the whole-array formula:
    outliers replace values where a uniform falls below the outlier
    fraction, positive values are stretched by ``1 + skew`` and the mean
    shift is added last.
    """
    values, mask = scratch.values[:size], scratch.mask[:size]
    _normal_into(rng, values, sigma)
    blocks = [slice(start, min(start + _DRAW_BLOCK, size))
              for start in range(0, size, _DRAW_BLOCK)]

    # Heavy tails: replace a small fraction with wider-Gaussian draws.  All
    # uniforms come before all outlier normals, as in whole-size draws.
    if config.outlier_fraction > 0:
        for block in blocks:
            drawn = scratch.block[:block.stop - block.start]
            rng.random(out=drawn)
            np.less(drawn, config.outlier_fraction, out=mask[block])
        for block in blocks:
            drawn = scratch.block[:block.stop - block.start]
            _normal_into(rng, drawn, sigma * config.outlier_scale)
            np.copyto(values[block], drawn, where=mask[block])

    # Asymmetric tails: stretch the positive side by (1 + skew).  The factor
    # is 1 + skew or exactly 1.0, and x * 1.0 is x, so this equals
    # where(x > 0, x * (1 + skew), x) without a masked multiply.
    if config.skew:
        for block in blocks:
            part, positive = values[block], mask[block]
            factor = scratch.block[:part.size]
            np.greater(part, 0, out=positive)
            np.multiply(positive, config.skew, out=factor)
            factor += 1.0
            part *= factor

    # Small per-layer mean shift with alternating sign.
    if config.mean_shift_fraction:
        shift_sign = 1.0 if layer_index % 2 == 0 else -1.0
        values += shift_sign * config.mean_shift_fraction * sigma
    return values


def _bias_into(layer: Layer, rng: np.random.Generator, config: WeightGenerationConfig,
               bias: np.ndarray, scratch: np.ndarray) -> None:
    """Draw ``layer``'s float32 bias into ``bias`` through float64 ``scratch``."""
    drawn = scratch[:bias.size]
    _normal_into(rng, drawn, config.gain * np.sqrt(1.0 / max(layer.fan_in, 1)))
    np.copyto(bias, drawn.reshape(bias.shape))


#: One independent draw: ``(size, fill)``.  ``fill(scratch)`` draws
#: through a worker's scratch, whose buffers hold at least ``size`` weights.
_Draw = Tuple[int, Callable[[_Scratch], None]]


class _LayerDraws:
    """One layer's independent draws and the arrays they fill.

    A layer at or below :data:`PREFIX_STABLE_MIN_WEIGHTS` is one draw: its
    weights, then its bias, from the layer generator.  A larger layer is one
    draw per chunk of whole filters, each from its own child generator, and
    its bias comes from a fresh layer generator.  Every draw casts its
    leading filters into :attr:`weights`; the calling thread allocates it
    and the bias.
    """

    def __init__(self, layer: Layer, layer_seed: int, config: WeightGenerationConfig,
                 layer_index: int, filters: Optional[int]):
        shape = layer.weight_shape
        if shape is None:
            raise ValueError(f"layer '{layer.name}' has no weights")
        self.layer, self.layer_seed = layer, layer_seed
        self.config, self.layer_index = config, layer_index
        self.filters = shape[0] if filters is None else filters
        self.filter_size = int(np.prod(shape[1:]))
        self.sigma = config.gain * np.sqrt(2.0 / max(layer.fan_in, 1))
        self.weights = np.empty((self.filters, *shape[1:]), dtype=np.float32)
        self.single = layer.weight_count <= PREFIX_STABLE_MIN_WEIGHTS
        if self.single:
            self.bias = (None if layer.bias_shape is None
                         else np.empty(layer.bias_shape, dtype=np.float32))
        else:
            self.bias = synthesize_layer_bias(layer, as_rng(layer_seed), config)

    def draws(self) -> List[_Draw]:
        """The layer's independent draws (not kept: they refer back to it)."""
        if self.single:
            return [(self.layer.weight_count, self._whole)]
        # Each chunk has its own child generator and is drawn whole, so the
        # first ``filters`` rows never depend on how many follow.
        chunk = max(CHUNK_WEIGHTS // self.filter_size, 1)
        return [(chunk * self.filter_size,
                 functools.partial(self._chunk, index, start, chunk))
                for index, start in enumerate(range(0, self.filters, chunk))]

    def _fill(self, rng: np.random.Generator, start: int, rows: int,
              scratch: _Scratch) -> None:
        """Draw ``rows`` whole filters and cast the leading ones from ``start``."""
        values = _trained_like(rng, scratch, rows * self.filter_size, self.sigma,
                               self.config, self.layer_index)
        target = self.weights[start:start + rows]
        np.copyto(target, values[:target.size].reshape(target.shape))

    def _whole(self, scratch: _Scratch) -> None:
        rng = as_rng(self.layer_seed)
        self._fill(rng, 0, self.layer.weight_shape[0], scratch)
        if self.bias is not None:
            _bias_into(self.layer, rng, self.config, self.bias, scratch.values)

    def _chunk(self, index: int, start: int, rows: int, scratch: _Scratch) -> None:
        child = np.random.default_rng(
            np.random.SeedSequence(self.layer_seed, spawn_key=(index,)))
        self._fill(child, start, rows, scratch)

    def result(self) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """The ``(weights, bias)`` pair, bias trimmed to the drawn filters."""
        return self.weights, None if self.bias is None else self.bias[:self.filters]


def _run_draws(draws: Sequence[_Draw]) -> None:
    """Run independent draws, largest first, on one pool per call.

    Generator fills and the in-place ufuncs release the GIL, so the draws
    scale with the host's cores.  Each worker owns one :class:`_Scratch`
    sized to the largest draw, allocated here, so memory stays bounded
    whatever the draw count.  Every draw has its own generator, so the
    values never depend on the worker count.  The pool is joined before
    returning: the sweep's process pool forks its workers.
    """
    if not draws:
        return
    draws = sorted(draws, key=lambda draw: -draw[0])
    workers = min(host_cpus(), len(draws))
    free: "queue.SimpleQueue[_Scratch]" = queue.SimpleQueue()
    for _ in range(workers):
        free.put(_Scratch.allocate(draws[0][0]))

    def run(fill: Callable[[_Scratch], None]) -> None:
        scratch = free.get()
        try:
            fill(scratch)
        finally:
            free.put(scratch)

    pool = ThreadPoolExecutor(max_workers=workers)
    try:
        for future in [pool.submit(run, fill) for _, fill in draws]:
            future.result()
    finally:
        pool.shutdown(cancel_futures=True)


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
    layer_draws = _LayerDraws(layer, layer_seed, config, layer_index, filters)
    _run_draws(layer_draws.draws())
    return layer_draws.result()


def synthesize_layer_bias(layer: Layer, rng: np.random.Generator,
                          config: WeightGenerationConfig = DEFAULT_CONFIG) -> Optional[np.ndarray]:
    """Generate a small bias vector (biases do not transit the weight memory)."""
    shape = layer.bias_shape
    if shape is None:
        return None
    bias = np.empty(shape, dtype=np.float32)
    _bias_into(layer, rng, config, bias, np.empty(bias.size))
    return bias


def attach_synthetic_weights(network: Network, seed: Optional[int] = 0,
                             config: WeightGenerationConfig = DEFAULT_CONFIG) -> Network:
    """Populate every weight-carrying layer of ``network`` with synthetic weights.

    The generation is deterministic per (seed, network name, layer name), so
    two calls with the same seed produce identical weights even if the caller
    rebuilds the network object.  A network trimmed by ``reduce_network``
    draws under the name and layer sizes of the network it was trimmed from,
    so each trimmed layer holds exactly the leading filters of its full draw.
    Every layer's draws run together on one pool (see :func:`_run_draws`).
    Returns the same network for chaining.
    """
    full = network.trimmed_from or network
    layers = list(network.weight_layers())
    planned = [
        _LayerDraws(full_layer, deterministic_hash_seed(seed, full.name, layer.name),
                    config, index, layer.weight_shape[0])
        for index, (layer, full_layer) in enumerate(zip(layers, full.weight_layers()))]
    _run_draws([draw for layer_draws in planned for draw in layer_draws.draws()])
    for layer, layer_draws in zip(layers, planned):
        layer.weights, layer.bias = layer_draws.result()
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
