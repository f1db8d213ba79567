"""DNN-Life: aging analysis and mitigation for on-chip weight memories.

Reproduction of *"DNN-Life: An Energy-Efficient Aging Mitigation Framework for
Improving the Lifetime of On-Chip Weight Memories in Deep Neural Network
Hardware Architectures"* (Hanif & Shafique, DATE 2021).

Quick start
-----------
>>> from repro import DnnLife
>>> from repro.nn import build_model, attach_synthetic_weights
>>> network = attach_synthetic_weights(build_model("custom_mnist"), seed=0)
>>> framework = DnnLife(network, data_format="int8_symmetric", num_inferences=10)
>>> result = framework.simulate("dnn_life")
>>> round(float(result.snm_degradation().mean()), 1)  # doctest: +SKIP
10.9

The main subpackages are:

* :mod:`repro.core` — the DNN-Life mitigation scheme, policies and simulators;
* :mod:`repro.nn` — DNN architectures and trained-like weights;
* :mod:`repro.quantization` — data representations of the weights;
* :mod:`repro.accelerator` — accelerator configurations and the Fig. 5 dataflow;
* :mod:`repro.memory` — the 6T-SRAM weight-memory model;
* :mod:`repro.aging` — NBTI/SNM aging models and the paper's probabilistic model;
* :mod:`repro.hwsynth` — hardware cost models of the mitigation circuits;
* :mod:`repro.analysis` — bit-distribution and aging statistics;
* :mod:`repro.experiments` — drivers regenerating every table and figure;
* :mod:`repro.scenario` — multi-phase lifetime scenarios (model swaps, idle
  retention, thermal corners) composed from the simulators;
* :mod:`repro.orchestration` — experiment registry, result cache and
  parallel sweep runner behind ``dnn-life run/sweep/list``.
"""

from repro.accelerator.scheduler import PackedBitTensor
from repro.core.framework import DnnLife, PolicyComparison
from repro.core.policies import (
    BarrelShifterPolicy,
    DnnLifePolicy,
    MitigationPolicy,
    NoMitigationPolicy,
    PeriodicInversionPolicy,
    default_policy_suite,
    make_policy,
)
from repro.core.simulation import AgingResult, AgingSimulator, ExplicitAgingSimulator
from repro.scenario import (
    ExplicitScenarioSimulator,
    LifetimeScenario,
    Phase,
    ScenarioAgingSimulator,
    ScenarioResult,
)

__version__ = "1.0.0"

__all__ = [
    "ExplicitScenarioSimulator",
    "LifetimeScenario",
    "Phase",
    "ScenarioAgingSimulator",
    "ScenarioResult",
    "PackedBitTensor",
    "DnnLife",
    "PolicyComparison",
    "BarrelShifterPolicy",
    "DnnLifePolicy",
    "MitigationPolicy",
    "NoMitigationPolicy",
    "PeriodicInversionPolicy",
    "default_policy_suite",
    "make_policy",
    "AgingResult",
    "AgingSimulator",
    "ExplicitAgingSimulator",
    "__version__",
]
