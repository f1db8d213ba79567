"""DNN accelerator substrate.

Models the two accelerator organisations evaluated in the paper (Table I):

* the **baseline accelerator** of Sec. II-A — activation buffer, 512 KB weight
  buffer, a processing array of ``f`` PEs with ``N`` multipliers each and an
  accumulation unit (Bit-Tactical / DaDianNao-style);
* a **TPU-like NPU** with a 256 x 256 MAC array and a weight FIFO that is four
  tiles deep, modelled as a circular buffer.

The central artefact for the aging analysis is the *weight-block write stream*
each accelerator issues to its on-chip weight memory while executing the
Fig. 5 dataflow; :mod:`repro.accelerator.scheduler` generates it for any
network / data format / memory geometry combination.
"""

from repro.accelerator.baseline import BaselineAccelerator
from repro.accelerator.config import (
    TABLE_I_CONFIGS,
    AcceleratorConfig,
    baseline_config,
    tpu_like_config,
)
from repro.accelerator.dataflow import (
    FilterSet,
    TileShape,
    iter_filter_sets,
    iter_layer_blocks,
    select_tile_shape,
)
from repro.accelerator.pe_array import AccumulationUnit, PeArray, ProcessingElement
from repro.accelerator.scheduler import (
    PackedBitTensor,
    WeightBlock,
    WeightStreamScheduler,
)
from repro.accelerator.tpu import TpuLikeNpu

__all__ = [
    "PackedBitTensor",
    "BaselineAccelerator",
    "TABLE_I_CONFIGS",
    "AcceleratorConfig",
    "baseline_config",
    "tpu_like_config",
    "FilterSet",
    "TileShape",
    "iter_filter_sets",
    "iter_layer_blocks",
    "select_tile_shape",
    "AccumulationUnit",
    "PeArray",
    "ProcessingElement",
    "WeightBlock",
    "WeightStreamScheduler",
    "TpuLikeNpu",
]
