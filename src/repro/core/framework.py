"""The DNN-Life end-to-end framework (paper Fig. 3).

:class:`DnnLife` ties the substrates together behind one small API:

* **design time** — analyze the bit-level distribution of a DNN's weights
  under a data representation (Sec. III), pick a mitigation policy and the
  corresponding micro-architecture configuration;
* **run time** — simulate the aging of the accelerator's on-chip weight
  memory over a period of repeated inferences under that policy (Sec. V) and
  account the energy overhead of the mitigation hardware.

Example
-------
>>> from repro import DnnLife
>>> from repro.nn import build_model, attach_synthetic_weights
>>> network = attach_synthetic_weights(build_model("custom_mnist"), seed=0)
>>> framework = DnnLife(network, data_format="int8_symmetric", num_inferences=20)
>>> comparison = framework.compare_policies()
>>> print(comparison.table().render())  # doctest: +SKIP
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Union, cast

import numpy as np

from repro.accelerator.baseline import BaselineAccelerator
from repro.aging.snm import SnmDegradationModel, default_degradation_bins, default_snm_model
from repro.core.policies import (
    MitigationPolicy,
    default_policy_suite,
    make_policy,
)
from repro.core.simulation import AgingResult, AgingSimulator
from repro.nn.network import Network
from repro.nn.weights import attach_synthetic_weights
from repro.quantization.bitops import bit_probabilities
from repro.quantization.formats import DataFormat, get_format
from repro.utils.rng import SeedLike, seed_value
from repro.utils.tables import AsciiTable
from repro.utils.validation import check_positive_int

if TYPE_CHECKING:  # pragma: no cover - import cycle guards, typing only
    from repro.accelerator.scheduler import PackedBitTensor, WeightStreamScheduler
    from repro.accelerator.tpu import TpuLikeNpu
    from repro.experiments.common import ExperimentScale
    from repro.leveling.remap import WearLeveler
    from repro.scenario.driver import ScenarioResult
    from repro.scenario.operating_point import RetentionModel
    from repro.scenario.phases import LifetimeScenario

    #: The accelerators sharing the ``build_scheduler`` /
    #: ``weight_memory_energy_model`` duck-typed surface.
    AnyAccelerator = Union[BaselineAccelerator, TpuLikeNpu]


@dataclass
class PolicyComparison:
    """Results of evaluating several mitigation policies on one workload."""

    workload: Dict[str, object]
    results: Dict[str, AgingResult] = field(default_factory=dict)

    def add(self, label: str, result: AgingResult) -> None:
        """Add one policy's result under a unique label."""
        if label in self.results:
            raise ValueError(f"a result labelled '{label}' already exists")
        self.results[label] = result

    def labels(self) -> List[str]:
        """Labels of all evaluated policies, in insertion order."""
        return list(self.results)

    def table(self) -> AsciiTable:
        """Summary table: one row per policy (mean / max SNM degradation)."""
        table = AsciiTable(
            ["policy", "mean SNM deg. [%]", "max SNM deg. [%]",
             "% cells near best", "% cells near worst"],
            title=(f"{self.workload.get('network')} on {self.workload.get('accelerator')} "
                   f"({self.workload.get('data_format')})"),
        )
        for label, result in self.results.items():
            summary = result.summary()
            table.add_row([
                label,
                summary["mean_snm_degradation_percent"],
                summary["max_snm_degradation_percent"],
                summary["percent_cells_near_best"],
                summary["percent_cells_near_worst"],
            ])
        return table

    def histograms(self, bin_edges: Optional[np.ndarray] = None) -> Dict[str, Dict[str, object]]:
        """Fig. 9/11 style histograms for every policy."""
        output: Dict[str, Dict[str, object]] = {}
        for label, result in self.results.items():
            percentages, edges, labels = result.histogram(bin_edges)
            output[label] = {
                "percent_of_cells": percentages.tolist(),
                "bin_edges": np.asarray(edges).tolist(),
                "bin_labels": labels,
            }
        return output

    def best_policy(self) -> str:
        """Label of the policy with the lowest mean SNM degradation."""
        if not self.results:
            raise ValueError("no results recorded")
        return min(self.results, key=lambda label: cast(
            float, self.results[label].summary()["mean_snm_degradation_percent"]))

    def summary(self) -> Dict[str, object]:
        """Machine-readable summary of the whole comparison."""
        return {
            "workload": self.workload,
            "policies": {label: result.summary() for label, result in self.results.items()},
            "best_policy": self.best_policy(),
        }


class DnnLife:
    """End-to-end aging analysis and mitigation for one workload.

    Beyond the classic single-stream view (one network inferred repeatedly),
    the framework accepts a :class:`~repro.scenario.phases.LifetimeScenario`:
    a multi-phase stress timeline (model swaps, idle retention stretches,
    thermal corners) evaluated by :meth:`simulate_scenario`.  When a scenario
    is configured at construction time, :meth:`simulate` routes to it and
    returns the timeline's *effective* aging result.

    A scenario *replaces* the single-workload run-time configuration: its
    phases name their own model-zoo networks, data formats and mitigation
    policies, so ``network``, ``data_format`` and ``num_inferences`` then
    only govern the design-time analysis (:meth:`bit_distribution`) and the
    classic API — they are not consulted by the scenario engines.
    """

    def __init__(self, network: Network, accelerator: Optional["AnyAccelerator"] = None,
                 data_format: Union[str, DataFormat] = "int8_symmetric",
                 num_inferences: int = 100, seed: SeedLike = 0,
                 snm_model: Optional[SnmDegradationModel] = None,
                 aging_years: float = 7.0,
                 scenario: Optional["LifetimeScenario"] = None):
        self.network = network
        self.accelerator = accelerator if accelerator is not None else BaselineAccelerator()
        self.data_format = get_format(data_format) if isinstance(data_format, str) else data_format
        self.num_inferences = check_positive_int(num_inferences, "num_inferences")
        self.seed = seed
        self.snm_model = snm_model or default_snm_model()
        self.aging_years = aging_years
        self.scenario = scenario
        if not network.has_weights_attached:
            attach_synthetic_weights(network, seed=seed_value(seed))
        self._stream: Optional["PackedBitTensor"] = None

    # ------------------------------------------------------------------ #
    # Design-time analysis (Sec. III)
    # ------------------------------------------------------------------ #
    def weight_words(self) -> np.ndarray:
        """All weight words of the network under the configured data format."""
        return self.data_format.to_words(self.network.flat_weights())

    def bit_distribution(self) -> np.ndarray:
        """P(bit = 1) at every bit-location of a weight word (Fig. 6)."""
        return bit_probabilities(self.weight_words(), self.data_format.word_bits)

    def average_bit_probability(self) -> float:
        """Average probability of a '1' across all bit-locations."""
        return float(np.mean(self.bit_distribution()))

    # ------------------------------------------------------------------ #
    # Run-time simulation (Sec. V)
    # ------------------------------------------------------------------ #
    def build_scheduler(self) -> "WeightStreamScheduler":
        """Weight-stream scheduler of the configured accelerator/workload."""
        return self.accelerator.build_scheduler(self.network, self.data_format)

    def _packed_stream(self) -> "PackedBitTensor":
        """The workload's packed weight stream, built once and shared by
        every :meth:`simulate` call."""
        if self._stream is None:
            from repro.accelerator.scheduler import PackedBitTensor

            self._stream = PackedBitTensor.from_stream(self.build_scheduler())
        return self._stream

    def simulate(self, policy: Union[str, MitigationPolicy, None] = None,
                 **policy_kwargs) -> AgingResult:
        """Simulate aging under one mitigation policy.

        ``policy`` is a :class:`MitigationPolicy`, a policy name accepted by
        :func:`repro.core.policies.make_policy`, or ``None`` for the proposed
        DNN-Life policy with default settings.

        With a scenario configured, the call routes to
        :meth:`simulate_scenario` and returns the timeline's effective
        result; the phases carry their own policies, so passing one here is
        an error.
        """
        if self.scenario is not None:
            if policy is not None or policy_kwargs:
                raise ValueError(
                    "this DnnLife is configured with a lifetime scenario; its "
                    "phases carry their own mitigation policies — call "
                    "simulate_scenario() or drop the policy argument")
            return self.simulate_scenario().effective
        resolved = self._resolve_policy(policy, **policy_kwargs)
        simulator = AgingSimulator(
            scheduler=self._packed_stream(),
            policy=resolved,
            num_inferences=self.num_inferences,
            seed=self.seed,
            snm_model=self.snm_model,
        )
        result = simulator.run()
        result.years = self.aging_years
        return result

    def compare_policies(self, policies: Optional[Iterable[Union[str, MitigationPolicy]]] = None
                         ) -> PolicyComparison:
        """Evaluate several policies (defaults to the paper's Fig. 9 suite).

        Policy comparison is a single-workload analysis; a
        scenario-configured framework is rejected up front (its phases carry
        their own policies, so there is no one workload to compare on).
        """
        if self.scenario is not None:
            raise ValueError(
                "policy comparison applies to the single-workload "
                "configuration; this DnnLife is configured with a lifetime "
                "scenario whose phases carry their own policies — construct "
                "a DnnLife without a scenario to compare policies")
        if policies is None:
            policies = default_policy_suite(self.data_format.word_bits, seed=self.seed)
        comparison = PolicyComparison(workload=self.describe())
        for entry in policies:
            resolved = self._resolve_policy(entry)
            result = self.simulate(resolved)
            comparison.add(resolved.display_name, result)
        return comparison

    def simulate_scenario(self, scenario: Optional["LifetimeScenario"] = None,
                          leveler: Optional["WearLeveler"] = None,
                          engine: str = "packed",
                          scale: Optional["ExperimentScale"] = None,
                          retention_model: Optional["RetentionModel"] = None
                          ) -> "ScenarioResult":
        """Evaluate a multi-phase lifetime scenario on this accelerator.

        ``scenario`` defaults to the one configured at construction time.
        ``engine`` selects the packed closed-form driver (default) or the
        write-by-write ``"explicit"`` cross-check engine.  ``scale`` is the
        :class:`~repro.experiments.common.ExperimentScale` the phase
        workloads are built at — it defaults to the quick scale (per-layer
        weight cap of 1M), so pass ``ExperimentScale.paper()`` to stream the
        phase networks in full.  ``retention_model`` overrides the
        :class:`~repro.scenario.operating_point.RetentionModel` the idle
        phases report data-retention failure probabilities with (each
        phase's DVFS operating point rides in the scenario itself).
        Returns a :class:`~repro.scenario.driver.ScenarioResult`; its
        ``effective`` attribute is an
        :class:`~repro.core.simulation.AgingResult` every existing consumer
        (histograms, wear maps, lifetime estimation) accepts unchanged.
        """
        from repro.scenario.driver import (
            ExplicitScenarioSimulator,
            ScenarioAgingSimulator,
            scenario_stream_factory,
        )

        scenario = scenario if scenario is not None else self.scenario
        if scenario is None:
            raise ValueError("no scenario to simulate; pass one or construct "
                             "DnnLife(..., scenario=...)")
        engines = {"packed": ScenarioAgingSimulator,
                   "explicit": ExplicitScenarioSimulator}
        if engine not in engines:
            raise ValueError(f"unknown scenario engine '{engine}' "
                             f"(expected one of: {', '.join(sorted(engines))})")
        factory = scenario_stream_factory(accelerator=self.accelerator,
                                          scale=scale,
                                          seed=seed_value(self.seed))
        simulator = engines[engine](scenario, stream_factory=factory,
                                    seed=self.seed, snm_model=self.snm_model,
                                    leveler=leveler,
                                    retention_model=retention_model)
        return simulator.run()

    def degradation_bins(self, num_bins: int = 8) -> np.ndarray:
        """Histogram bin edges consistent with the configured SNM model."""
        return default_degradation_bins(self.snm_model, num_bins=num_bins)

    # ------------------------------------------------------------------ #
    # Hardware-cost accounting
    # ------------------------------------------------------------------ #
    def mitigation_energy_overhead(self, policy: Union[str, MitigationPolicy, None] = None,
                                   **policy_kwargs) -> Dict[str, float]:
        """Per-inference energy overhead of the mitigation hardware.

        Compares the energy spent in the write/read transducers (and metadata
        storage) against the energy of the weight-memory accesses they guard.
        """
        from repro.hwsynth.wde_designs import wde_for_policy

        resolved = self._resolve_policy(policy, **policy_kwargs)
        scheduler = self.build_scheduler()
        energy_model = self.accelerator.weight_memory_energy_model(self.data_format)
        words_per_inference = scheduler.num_blocks * scheduler.words_per_block
        memory_energy = (energy_model.inference_write_energy(words_per_inference)
                         + energy_model.inference_read_energy(words_per_inference))

        design = wde_for_policy(resolved, self.data_format.word_bits)
        words_per_transfer = max(design.datapath_bits // self.data_format.word_bits, 1)
        transfers = int(np.ceil(words_per_inference / words_per_transfer))
        # Encoder on the write path and decoder on the read path.
        transducer_energy = 2.0 * design.energy_per_transfer_joules() * transfers
        metadata_bits = resolved.metadata_bits_per_word * words_per_inference
        metadata_energy = (energy_model.write_energy + energy_model.read_energy) \
            * metadata_bits / self.data_format.word_bits

        overhead = transducer_energy + metadata_energy
        return {
            "policy": resolved.name,
            "weight_memory_energy_joules": float(memory_energy),
            "transducer_energy_joules": float(transducer_energy),
            "metadata_energy_joules": float(metadata_energy),
            "total_overhead_joules": float(overhead),
            "overhead_percent_of_memory_energy": float(100.0 * overhead / memory_energy),
        }

    # ------------------------------------------------------------------ #
    # Utilities
    # ------------------------------------------------------------------ #
    def _resolve_policy(self, policy: Union[str, MitigationPolicy, None],
                        **policy_kwargs) -> MitigationPolicy:
        if policy is None:
            return make_policy("dnn_life", self.data_format.word_bits, seed=self.seed,
                               **policy_kwargs)
        if isinstance(policy, str):
            return make_policy(policy, self.data_format.word_bits, seed=self.seed,
                               **policy_kwargs)
        return policy

    def describe(self) -> Dict[str, object]:
        """Machine-readable description of the workload."""
        description = {
            "network": self.network.name,
            "accelerator": getattr(self.accelerator, "config", None).name
            if getattr(self.accelerator, "config", None) else type(self.accelerator).__name__,
            "data_format": self.data_format.name,
            "num_inferences": self.num_inferences,
            "aging_years": self.aging_years,
        }
        if self.scenario is not None:
            description["scenario"] = self.scenario.describe()
        return description
