"""Layer intermediate representation.

Layers are plain dataclasses that know their weight shapes, parameter counts
and output shapes.  They deliberately carry no framework baggage: the
accelerator substrate only needs shapes and (optionally) numpy weight tensors.

Shapes follow the ``(channels, height, width)`` convention for feature maps
and ``(out_channels, in_channels, kernel_h, kernel_w)`` for convolution
weights, matching the paper's Fig. 5 nomenclature (``f`` filters of size
``R x C x CH``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

ShapeHW = Tuple[int, int, int]


@dataclass
class Layer:
    """Base class for all layers."""

    name: str = ""

    #: Optional numpy weight tensor (populated by ``repro.nn.weights``).
    weights: Optional[np.ndarray] = field(default=None, repr=False, compare=False)
    #: Optional numpy bias vector.
    bias: Optional[np.ndarray] = field(default=None, repr=False, compare=False)

    @property
    def has_weights(self) -> bool:
        """Whether this layer type carries trainable weights."""
        return self.weight_shape is not None

    @property
    def weight_shape(self) -> Optional[Tuple[int, ...]]:
        """Shape of the weight tensor, or None for weight-less layers."""
        return None

    @property
    def bias_shape(self) -> Optional[Tuple[int, ...]]:
        """Shape of the bias vector, or None."""
        return None

    @property
    def weight_count(self) -> int:
        """Number of weight parameters (excluding bias)."""
        shape = self.weight_shape
        return int(np.prod(shape)) if shape else 0

    @property
    def bias_count(self) -> int:
        """Number of bias parameters."""
        shape = self.bias_shape
        return int(np.prod(shape)) if shape else 0

    @property
    def parameter_count(self) -> int:
        """Total trainable parameters (weights + bias)."""
        return self.weight_count + self.bias_count

    def output_shape(self, input_shape: ShapeHW) -> ShapeHW:
        """Shape of the output feature map for a given input shape."""
        return input_shape

    @property
    def fan_in(self) -> int:
        """Number of inputs feeding one output unit (used for weight scaling)."""
        return 0


def _conv_out_size(size: int, kernel: int, stride: int, padding: int) -> int:
    return (size + 2 * padding - kernel) // stride + 1


@dataclass
class Conv2d(Layer):
    """2-D convolution layer: ``f`` filters of shape ``(CH, R, C)``."""

    out_channels: int = 1
    in_channels: int = 1
    kernel_size: Tuple[int, int] = (3, 3)
    stride: int = 1
    padding: int = 0
    groups: int = 1
    use_bias: bool = True

    def __post_init__(self) -> None:
        if self.out_channels <= 0 or self.in_channels <= 0:
            raise ValueError("channel counts must be positive")
        if self.in_channels % self.groups != 0 or self.out_channels % self.groups != 0:
            raise ValueError("groups must divide both channel counts")

    @property
    def weight_shape(self) -> Tuple[int, int, int, int]:
        kh, kw = self.kernel_size
        return (self.out_channels, self.in_channels // self.groups, kh, kw)

    @property
    def bias_shape(self) -> Optional[Tuple[int, ...]]:
        return (self.out_channels,) if self.use_bias else None

    @property
    def fan_in(self) -> int:
        kh, kw = self.kernel_size
        return (self.in_channels // self.groups) * kh * kw

    def output_shape(self, input_shape: ShapeHW) -> ShapeHW:
        channels, height, width = input_shape
        if channels != self.in_channels:
            raise ValueError(
                f"{self.name or 'Conv2d'}: expected {self.in_channels} input channels, got {channels}"
            )
        kh, kw = self.kernel_size
        return (
            self.out_channels,
            _conv_out_size(height, kh, self.stride, self.padding),
            _conv_out_size(width, kw, self.stride, self.padding),
        )

    def macs(self, input_shape: ShapeHW) -> int:
        """Multiply-accumulate operations for one inference of this layer."""
        out_c, out_h, out_w = self.output_shape(input_shape)
        return out_c * out_h * out_w * self.fan_in


@dataclass
class Linear(Layer):
    """Fully-connected layer: weight shape ``(out_features, in_features)``."""

    out_features: int = 1
    in_features: int = 1
    use_bias: bool = True

    @property
    def weight_shape(self) -> Tuple[int, int]:
        return (self.out_features, self.in_features)

    @property
    def bias_shape(self) -> Optional[Tuple[int, ...]]:
        return (self.out_features,) if self.use_bias else None

    @property
    def fan_in(self) -> int:
        return self.in_features

    def output_shape(self, input_shape: ShapeHW) -> ShapeHW:
        flat = int(np.prod(input_shape))
        if flat != self.in_features:
            raise ValueError(
                f"{self.name or 'Linear'}: expected {self.in_features} inputs, got {flat}"
            )
        return (self.out_features, 1, 1)

    def macs(self, input_shape: ShapeHW) -> int:
        """Multiply-accumulate operations for one inference of this layer."""
        return self.out_features * self.in_features


@dataclass
class _Pool2d(Layer):
    kernel_size: int = 2
    stride: Optional[int] = None
    padding: int = 0

    def output_shape(self, input_shape: ShapeHW) -> ShapeHW:
        channels, height, width = input_shape
        stride = self.stride if self.stride is not None else self.kernel_size
        return (
            channels,
            _conv_out_size(height, self.kernel_size, stride, self.padding),
            _conv_out_size(width, self.kernel_size, stride, self.padding),
        )


@dataclass
class MaxPool2d(_Pool2d):
    """Max-pooling layer (no parameters)."""


@dataclass
class AvgPool2d(_Pool2d):
    """Average-pooling layer (no parameters)."""


@dataclass
class GlobalAvgPool2d(Layer):
    """Global average pooling down to ``(channels, 1, 1)``."""

    def output_shape(self, input_shape: ShapeHW) -> ShapeHW:
        channels, _, _ = input_shape
        return (channels, 1, 1)


@dataclass
class ReLU(Layer):
    """Rectified linear activation (no parameters)."""


@dataclass
class Softmax(Layer):
    """Softmax over the channel dimension (no parameters)."""


@dataclass
class Dropout(Layer):
    """Dropout (identity at inference time)."""

    rate: float = 0.5


@dataclass
class Flatten(Layer):
    """Flatten a feature map into a vector."""

    def output_shape(self, input_shape: ShapeHW) -> ShapeHW:
        return (int(np.prod(input_shape)), 1, 1)


@dataclass
class LocalResponseNorm(Layer):
    """Local response normalisation (AlexNet/GoogLeNet; no weight memory)."""

    size: int = 5
    alpha: float = 1e-4
    beta: float = 0.75
    k: float = 2.0


@dataclass
class BatchNorm2d(Layer):
    """Batch normalisation.

    The scale/shift parameters live with the activations datapath in the
    accelerators modelled here (they are folded into the preceding layer at
    deployment), so they are not counted towards *weight-memory* traffic, but
    they are counted as model parameters for the Fig. 1a size comparison.
    """

    num_features: int = 1

    @property
    def weight_shape(self) -> Tuple[int, ...]:
        return (2, self.num_features)  # gamma and beta

    @property
    def fan_in(self) -> int:
        return 1

    #: BatchNorm parameters are not streamed through the weight buffer.
    counts_toward_weight_memory: bool = False


def kaiming_std(layer: Layer, gain: float = math.sqrt(2.0)) -> float:
    """He-initialisation standard deviation for a weight-carrying layer."""
    fan_in = max(layer.fan_in, 1)
    return gain / math.sqrt(fan_in)
