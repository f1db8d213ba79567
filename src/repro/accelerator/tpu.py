"""TPU-like Neural Processing Unit (Table I, right column).

The paper validates DNN-Life on a second accelerator: a TPU-like NPU whose
weight storage is an on-chip *weight FIFO* that is four tiles deep, one tile
holding the weights of the full 256 x 256 MAC array.  The FIFO is modelled as
a circular buffer: consecutive weight tiles are written to consecutive FIFO
slots, wrapping around, so every physical cell only ever sees the tiles whose
index is congruent to its slot modulo the FIFO depth.  The small custom MNIST
network of the paper occupies fewer tiles than one full rotation, which is
what makes the classic inversion scheme fail on it (Fig. 11).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

from repro.accelerator.config import AcceleratorConfig, tpu_like_config
from repro.accelerator.scheduler import WeightStreamScheduler
from repro.memory.energy import MemoryEnergyModel
from repro.memory.geometry import MemoryGeometry
from repro.nn.network import Network
from repro.quantization.formats import DataFormat, get_format


@dataclass
class TpuLikeNpu:
    """TPU-like NPU with a four-tile circular weight FIFO."""

    config: AcceleratorConfig = field(default_factory=tpu_like_config)

    @property
    def parallel_filters(self) -> int:
        """``f``: filters (MAC-array columns) loaded in parallel — 256."""
        return self.config.parallel_filters

    @property
    def fifo_depth_tiles(self) -> int:
        """Depth of the circular weight FIFO in tiles (4 in the paper)."""
        return self.config.weight_fifo_depth_tiles

    def weight_memory_geometry(self, data_format: Union[str, DataFormat]) -> MemoryGeometry:
        """Geometry of the whole weight FIFO (all tiles)."""
        fmt = get_format(data_format) if isinstance(data_format, str) else data_format
        return self.config.weight_memory_geometry(fmt.word_bits)

    def weight_memory_energy_model(self, data_format: Union[str, DataFormat]) -> MemoryEnergyModel:
        """Access-energy model of the weight FIFO."""
        fmt = get_format(data_format) if isinstance(data_format, str) else data_format
        return MemoryEnergyModel(capacity_bytes=self.config.weight_memory_bytes,
                                 word_bits=fmt.word_bits)

    def weights_per_tile(self, data_format: Union[str, DataFormat]) -> int:
        """Number of weight words one FIFO tile holds (256 x 256 for int8)."""
        fmt = get_format(data_format) if isinstance(data_format, str) else data_format
        return self.config.weights_per_tile(fmt.word_bits)

    def build_scheduler(self, network: Network,
                        data_format: Union[str, DataFormat]) -> WeightStreamScheduler:
        """Weight-stream scheduler writing tiles round-robin into the FIFO."""
        fmt = get_format(data_format) if isinstance(data_format, str) else data_format
        return WeightStreamScheduler(
            network=network,
            data_format=fmt,
            geometry=self.weight_memory_geometry(fmt),
            parallel_filters=self.parallel_filters,
            fifo_depth_tiles=self.fifo_depth_tiles,
        )

    def describe(self) -> dict:
        """Machine-readable description (Table I row)."""
        return self.config.describe()
