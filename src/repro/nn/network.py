"""The :class:`Network` container: an ordered list of layers plus accounting.

A ``Network`` knows how big it is under any registered
:class:`~repro.quantization.formats.DataFormat`, which layers contribute
traffic to the on-chip *weight memory*, and can render a human-readable
summary.  It is deliberately inference-only — training is out of scope for the
paper and for this reproduction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.nn.layers import Conv2d, Layer, Linear
from repro.utils.units import MB


@dataclass
class Network:
    """An ordered, named collection of layers."""

    name: str
    layers: List[Layer] = field(default_factory=list)
    input_shape: Tuple[int, int, int] = (3, 224, 224)
    dataset: str = "imagenet"
    #: The full network this one was trimmed from (see ``reduce_network``);
    #: synthetic weights are drawn under its name and layer sizes.
    trimmed_from: Optional["Network"] = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        # Give anonymous layers a stable, unique name so that per-layer
        # reports and reproducible weight seeds can refer to them.
        seen = set()
        for index, layer in enumerate(self.layers):
            if not layer.name:
                layer.name = f"{type(layer).__name__.lower()}_{index}"
            if layer.name in seen:
                raise ValueError(f"duplicate layer name '{layer.name}' in network '{self.name}'")
            seen.add(layer.name)

    # ------------------------------------------------------------------ #
    # Iteration helpers
    # ------------------------------------------------------------------ #
    def __iter__(self) -> Iterator[Layer]:
        return iter(self.layers)

    def __len__(self) -> int:
        return len(self.layers)

    def layer(self, name: str) -> Layer:
        """Look a layer up by name."""
        for candidate in self.layers:
            if candidate.name == name:
                return candidate
        raise KeyError(f"network '{self.name}' has no layer named '{name}'")

    def weight_layers(self) -> List[Layer]:
        """Layers whose weights are streamed through the on-chip weight memory.

        Convolution and fully-connected layers contribute; normalisation
        parameters are folded into the datapath (see ``BatchNorm2d``).
        Composite layers (Inception modules, residual blocks) are expanded
        into their weight-carrying sub-layers.
        """
        selected: List[Layer] = []
        for layer in self.layers:
            if hasattr(layer, "iter_weight_sublayers"):
                selected.extend(layer.iter_weight_sublayers())
                continue
            if not layer.has_weights:
                continue
            if not getattr(layer, "counts_toward_weight_memory", True):
                continue
            selected.append(layer)
        return selected

    def conv_layers(self) -> List[Conv2d]:
        """All convolution layers in order."""
        return [layer for layer in self.layers if isinstance(layer, Conv2d)]

    def linear_layers(self) -> List[Linear]:
        """All fully-connected layers in order."""
        return [layer for layer in self.layers if isinstance(layer, Linear)]

    # ------------------------------------------------------------------ #
    # Accounting
    # ------------------------------------------------------------------ #
    @property
    def parameter_count(self) -> int:
        """Total trainable parameters (all layers, weights + biases)."""
        return sum(layer.parameter_count for layer in self.layers)

    @property
    def weight_count(self) -> int:
        """Parameters streamed through the weight memory (no biases/norms)."""
        return sum(layer.weight_count for layer in self.weight_layers())

    def model_size_bytes(self, bytes_per_parameter: float = 4.0) -> float:
        """Model size in bytes at the given storage width (default float32)."""
        return self.parameter_count * float(bytes_per_parameter)

    def model_size_mb(self, bytes_per_parameter: float = 4.0) -> float:
        """Model size in MB (Fig. 1a uses float32, i.e. 4 bytes/parameter)."""
        return self.model_size_bytes(bytes_per_parameter) / MB

    def macs(self) -> int:
        """Total multiply-accumulate operations for one inference."""
        total = 0
        shape = self.input_shape
        for layer in self.layers:
            if isinstance(layer, (Conv2d, Linear)):
                total += layer.macs(shape)
            shape = layer.output_shape(shape)
        return total

    def output_shape(self) -> Tuple[int, int, int]:
        """Shape produced by the final layer."""
        shape = self.input_shape
        for layer in self.layers:
            shape = layer.output_shape(shape)
        return shape

    def layer_shapes(self) -> List[Tuple[str, Tuple[int, int, int]]]:
        """(layer name, output shape) for every layer, in order."""
        shapes = []
        shape = self.input_shape
        for layer in self.layers:
            shape = layer.output_shape(shape)
            shapes.append((layer.name, shape))
        return shapes

    # ------------------------------------------------------------------ #
    # Weights
    # ------------------------------------------------------------------ #
    @property
    def has_weights_attached(self) -> bool:
        """True when every weight-carrying layer holds a numpy weight tensor."""
        weight_layers = self.weight_layers()
        return bool(weight_layers) and all(layer.weights is not None for layer in weight_layers)

    def flat_weights(self) -> np.ndarray:
        """All weight values of weight-memory layers as one flat float32 array.

        The concatenation order is the layer order, which is also the order
        in which the accelerator dataflow streams weights (Fig. 5).
        """
        if not self.has_weights_attached:
            raise ValueError(
                f"network '{self.name}' has no weights attached; "
                "call repro.nn.attach_synthetic_weights() or load a checkpoint first"
            )
        parts = [np.asarray(layer.weights, dtype=np.float32).reshape(-1)
                 for layer in self.weight_layers()]
        return np.concatenate(parts) if parts else np.empty(0, dtype=np.float32)

    def validate_weights(self) -> None:
        """Check that attached weight tensors match the declared shapes."""
        for layer in self.weight_layers():
            if layer.weights is None:
                raise ValueError(f"layer '{layer.name}' has no weights attached")
            actual = tuple(np.asarray(layer.weights).shape)
            expected = tuple(layer.weight_shape)
            if actual != expected:
                raise ValueError(
                    f"layer '{layer.name}' weight shape {actual} does not match "
                    f"declared shape {expected}"
                )

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #
    def summary(self) -> str:
        """Human-readable per-layer summary (name, type, shape, params)."""
        from repro.utils.tables import AsciiTable

        table = AsciiTable(
            ["layer", "type", "output shape", "weight shape", "params"],
            title=f"Network '{self.name}' (input {self.input_shape}, dataset {self.dataset})",
        )
        shape = self.input_shape
        for layer in self.layers:
            shape = layer.output_shape(shape)
            table.add_row([
                layer.name,
                type(layer).__name__,
                "x".join(str(s) for s in shape),
                "x".join(str(s) for s in layer.weight_shape) if layer.has_weights else "-",
                layer.parameter_count,
            ])
        table.add_row(["TOTAL", "", "", "", self.parameter_count])
        return table.render()

    def describe(self) -> dict:
        """Machine-readable description used by experiment reports."""
        return {
            "name": self.name,
            "dataset": self.dataset,
            "input_shape": list(self.input_shape),
            "num_layers": len(self.layers),
            "num_weight_layers": len(self.weight_layers()),
            "parameter_count": self.parameter_count,
            "weight_count": self.weight_count,
            "model_size_mb_float32": self.model_size_mb(4.0),
            "macs": None,  # filled lazily by callers that need it (it is O(network))
        }


def concatenate_networks(name: str, networks: Sequence[Network],
                         input_shape: Optional[Tuple[int, int, int]] = None) -> Network:
    """Build a pseudo-network whose weight stream is the concatenation of others.

    Used by multi-tenant / multi-network aging scenarios (an accelerator that
    alternates between several DNNs over its lifetime).
    """
    layers: List[Layer] = []
    for network in networks:
        for layer in network.layers:
            clone = type(layer)(**{f: getattr(layer, f) for f in layer.__dataclass_fields__})
            clone.name = f"{network.name}.{layer.name}"
            layers.append(clone)
    return Network(
        name=name,
        layers=layers,
        input_shape=input_shape or networks[0].input_shape,
        dataset="+".join(sorted({n.dataset for n in networks})),
    )
