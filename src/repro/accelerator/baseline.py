"""The baseline DNN accelerator of Sec. II-A (Table I, left column)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

from repro.accelerator.config import AcceleratorConfig, baseline_config
from repro.accelerator.pe_array import PeArray
from repro.accelerator.scheduler import WeightStreamScheduler
from repro.memory.energy import MemoryEnergyModel
from repro.memory.geometry import MemoryGeometry
from repro.nn.network import Network
from repro.quantization.formats import DataFormat, get_format


@dataclass
class BaselineAccelerator:
    """Bit-Tactical / DaDianNao-style accelerator with a 512 KB weight buffer.

    The object bundles the static configuration with factory helpers for the
    pieces the experiments need: the weight-memory geometry for a given data
    format, the weight-stream scheduler implementing the Fig. 5 dataflow and
    a functional processing array.
    """

    config: AcceleratorConfig = field(default_factory=baseline_config)

    @property
    def parallel_filters(self) -> int:
        """``f``: filters processed in parallel (8 for the baseline)."""
        return self.config.parallel_filters

    def weight_memory_geometry(self, data_format: Union[str, DataFormat]) -> MemoryGeometry:
        """Weight-memory geometry for the given weight data format."""
        fmt = get_format(data_format) if isinstance(data_format, str) else data_format
        return self.config.weight_memory_geometry(fmt.word_bits)

    def weight_memory_energy_model(self, data_format: Union[str, DataFormat]) -> MemoryEnergyModel:
        """Access-energy model of the weight memory."""
        fmt = get_format(data_format) if isinstance(data_format, str) else data_format
        return MemoryEnergyModel(capacity_bytes=self.config.weight_memory_bytes,
                                 word_bits=fmt.word_bits)

    def build_scheduler(self, network: Network,
                        data_format: Union[str, DataFormat]) -> WeightStreamScheduler:
        """Weight-stream scheduler for one inference of ``network``."""
        fmt = get_format(data_format) if isinstance(data_format, str) else data_format
        return WeightStreamScheduler(
            network=network,
            data_format=fmt,
            geometry=self.weight_memory_geometry(fmt),
            parallel_filters=self.parallel_filters,
            fifo_depth_tiles=self.config.weight_fifo_depth_tiles,
        )

    def processing_array(self) -> PeArray:
        """Functional model of the processing array (f PEs x N multipliers)."""
        return PeArray(num_pes=self.config.num_pes,
                       multipliers_per_pe=self.config.multipliers_per_pe)

    def describe(self) -> dict:
        """Machine-readable description (Table I row)."""
        return self.config.describe()
