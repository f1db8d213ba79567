"""Shared utilities of the experiment drivers."""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.nn.layers import Conv2d, Linear
from repro.nn.network import Network
from repro.utils.validation import check_positive_int

#: Environment variable that switches the benchmarks to full-scale runs.
FULL_EXPERIMENTS_ENV = "REPRO_FULL_EXPERIMENTS"


def full_experiments_requested() -> bool:
    """Whether the user asked for full-scale (paper-sized) experiment runs."""
    return os.environ.get(FULL_EXPERIMENTS_ENV, "0") not in ("", "0", "false", "False")


@dataclass(frozen=True)
class ExperimentScale:
    """Scaling knobs shared by the aging experiments.

    Attributes
    ----------
    num_inferences:
        Number of inference epochs the duty-cycle is estimated over
        (100 in the paper).
    max_weights_per_layer:
        Per-layer cap on the number of weights streamed (``None`` = full
        network).  Reduced runs keep the dataflow and memory size unchanged,
        so the qualitative behaviour of every policy is preserved; only the
        number of blocks per inference shrinks.
    """

    num_inferences: int = 100
    max_weights_per_layer: Optional[int] = None

    @classmethod
    def quick(cls) -> "ExperimentScale":
        """A configuration that finishes in seconds on a laptop."""
        return cls(num_inferences=20, max_weights_per_layer=1_000_000)

    @classmethod
    def paper(cls) -> "ExperimentScale":
        """The configuration used in the paper (full networks, 100 inferences)."""
        return cls(num_inferences=100, max_weights_per_layer=None)

    @classmethod
    def from_quick_flag(cls, quick: bool) -> "ExperimentScale":
        """Pick the scale from a driver's ``quick`` argument."""
        if quick and not full_experiments_requested():
            return cls.quick()
        return cls.paper()


def reduce_network(network: Network, max_weights_per_layer: Optional[int]) -> Network:
    """Return a copy of ``network`` whose layers are capped in weight count.

    The reduction trims output filters/neurons from every over-budget layer,
    which keeps the per-filter structure (and therefore the Fig. 5 dataflow)
    intact.  Attached weights are sliced to the kept filters.  A network
    without weights stays without: ``attach_synthetic_weights`` on the copy
    then draws only the kept filters, exactly the leading filters of the full
    network's draw.  The resulting network is only used for weight-memory
    streaming; it is not meant to be executed.
    """
    if max_weights_per_layer is None:
        return network
    check_positive_int(max_weights_per_layer, "max_weights_per_layer")
    reduced_layers = []
    for layer in network.weight_layers():
        keep_filters = None
        if layer.weight_count > max_weights_per_layer:
            per_filter = int(np.prod(layer.weight_shape[1:]))
            keep_filters = max(max_weights_per_layer // per_filter, 1)
        reduced_layers.append(_clone_weight_layer(layer, keep_filters))
    return Network(name=f"{network.name}_reduced", layers=reduced_layers,
                   input_shape=network.input_shape, dataset=network.dataset,
                   trimmed_from=network.trimmed_from or network)


def _clone_weight_layer(layer, keep_filters: Optional[int] = None):
    """Clone a Conv2d/Linear layer, optionally trimming its output dimension."""
    if isinstance(layer, Conv2d):
        out_channels = keep_filters if keep_filters is not None else layer.out_channels
        clone = Conv2d(name=layer.name, out_channels=out_channels,
                       in_channels=layer.in_channels, kernel_size=layer.kernel_size,
                       stride=layer.stride, padding=layer.padding, groups=layer.groups,
                       use_bias=layer.use_bias)
    elif isinstance(layer, Linear):
        out_features = keep_filters if keep_filters is not None else layer.out_features
        clone = Linear(name=layer.name, out_features=out_features,
                       in_features=layer.in_features, use_bias=layer.use_bias)
    else:
        raise TypeError(f"cannot reduce layer of type {type(layer).__name__}")
    if layer.weights is not None:
        clone.weights = np.ascontiguousarray(layer.weights[:keep_filters], dtype=np.float32)
    return clone


# --------------------------------------------------------------------------- #
# ParamSpec validators shared by the experiment schemas (single-argument
# wrappers over repro.utils.validation so the bounds live in one place;
# repro.utils.validation.check_temperature_celsius is usable directly)
# --------------------------------------------------------------------------- #
def check_non_negative(value: float) -> None:
    """Schema validator: zero or positive."""
    from repro.utils.validation import check_positive

    check_positive(value, "value", strict=False)


def check_swap_fraction(value: float) -> None:
    """Schema validator: the wear-swap exchange fraction, in (0, 0.5]."""
    if not 0.0 < value <= 0.5:
        raise ValueError(f"swap_fraction must lie in (0, 0.5], got {value}")
