"""On-chip weight-memory substrate.

Models the 6T-SRAM weight buffer of a DNN accelerator:

* its shape (:mod:`repro.memory.geometry`): ``rows`` words of ``word_bits``
  bits, the ``I x J`` cell array every aging result is laid out on;
* a content store (:mod:`repro.memory.sram`) that the transducer round trip
  writes encoded words into and reads them back from;
* per-cell wear maps (:mod:`repro.memory.wear_map`) built from an aging
  result's duty-cycles;
* an analytic access-energy model (:mod:`repro.memory.energy`) reproducing the
  SRAM-vs-DRAM comparison of Fig. 1b.

Per-cell duty-cycles are computed by the aging engines in
:mod:`repro.core.simulation`, not here.
"""

from repro.memory.energy import MemoryEnergyModel, dram_access_energy, sram_access_energy
from repro.memory.geometry import MemoryGeometry
from repro.memory.sram import SramArray
from repro.memory.wear_map import WearMap, wear_map_from_result

__all__ = [
    "WearMap",
    "wear_map_from_result",
    "MemoryEnergyModel",
    "dram_access_energy",
    "sram_access_energy",
    "MemoryGeometry",
    "SramArray",
]
