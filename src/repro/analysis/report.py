"""Full workload reports.

Combines every analysis the framework offers for one workload — bit
distributions, the policy comparison, the spatial wear map, the hardware cost
of the chosen mitigation and its energy overhead — into one plain-text report
(and a machine-readable dictionary).  This is what ``dnn-life report``
produces and what an architect would attach to a design review.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Union

import numpy as np

from repro.analysis.bit_distribution import analyze_network_bit_distribution, bit_distribution_table
from repro.analysis.duty_cycle import duty_cycle_summary
from repro.analysis.energy import energy_overhead_report
from repro.core.framework import DnnLife
from repro.core.policies import MitigationPolicy
from repro.hwsynth.wde_designs import wde_for_policy
from repro.memory.wear_map import wear_map_from_result
from repro.utils.tables import AsciiTable, format_histogram


class WorkloadReport:
    """Builds the full aging report for one (network, accelerator, format)."""

    def __init__(self, framework: DnnLife,
                 policies: Optional[Iterable[Union[str, MitigationPolicy]]] = None):
        self.framework = framework
        self.policies = list(policies) if policies is not None else None
        self._comparison = None

    @property
    def comparison(self):
        """The policy comparison (computed lazily, reused across sections)."""
        if self._comparison is None:
            self._comparison = self.framework.compare_policies(self.policies)
        return self._comparison

    # ------------------------------------------------------------------ #
    # Sections
    # ------------------------------------------------------------------ #
    def bit_distribution_section(self) -> str:
        """Sec. III-style bit-distribution analysis of the workload's format."""
        results = analyze_network_bit_distribution(
            self.framework.network, [self.framework.data_format.name])
        return bit_distribution_table(results).render()

    def policy_section(self) -> str:
        """Fig. 9-style comparison of the mitigation policies."""
        lines = [self.comparison.table().render()]
        best_label = self.comparison.best_policy()
        best = self.comparison.results[best_label]
        percentages, _, labels = best.histogram()
        lines.append("")
        lines.append(format_histogram(
            labels, percentages,
            title=f"SNM degradation histogram — best policy: {best_label}"))
        return "\n".join(lines)

    def wear_section(self) -> str:
        """Spatial wear analysis of the best and worst policies."""
        best_label = self.comparison.best_policy()
        results = self.comparison.results
        worst_label = max(results, key=lambda label:
                          results[label].summary()["mean_snm_degradation_percent"])
        depth = getattr(self.framework.accelerator.config, "weight_fifo_depth_tiles", 1)
        sections = []
        for title, label in (("most aged policy", worst_label), ("best policy", best_label)):
            wear = wear_map_from_result(results[label], num_regions=depth)
            summary = wear.summary()
            sections.append(f"--- {title}: {label} ---")
            sections.append(
                f"worst bit column: {summary['worst_bit_column']} "
                f"({summary['worst_bit_column_mean_percent']:.2f}% mean degradation), "
                f"column imbalance: {summary['column_imbalance_pp']:.2f} pp, "
                f"region imbalance: {summary['region_imbalance_pp']:.2f} pp")
        return "\n".join(sections)

    def hardware_section(self) -> str:
        """Mitigation hardware cost and per-inference energy overhead."""
        energy = energy_overhead_report(self.framework,
                                        ["none", "inversion", "barrel_shifter", "dnn_life"])
        table = AsciiTable(["policy", "WDE area [cells]", "WDE power [nW]",
                            "energy overhead [%]"],
                           title="Mitigation hardware cost", precision=2)
        for name in ("none", "inversion", "barrel_shifter", "dnn_life"):
            policy = self.framework._resolve_policy(name)
            design = wde_for_policy(policy, self.framework.data_format.word_bits)
            table.add_row([name, design.area_cell_units, design.power_nw,
                           energy[name]["overhead_percent_of_memory_energy"]])
        return table.render()

    # ------------------------------------------------------------------ #
    # Assembly
    # ------------------------------------------------------------------ #
    def render(self) -> str:
        """The complete plain-text report."""
        workload = self.framework.describe()
        header = (f"DNN-Life workload report — network '{workload['network']}' on "
                  f"'{workload['accelerator']}' ({workload['data_format']}, "
                  f"{workload['num_inferences']} inference epochs, "
                  f"{workload['aging_years']:.0f} years)")
        sections = [
            header,
            "=" * len(header),
            "",
            "1. Weight-bit distribution",
            self.bit_distribution_section(),
            "",
            "2. Aging mitigation policies",
            self.policy_section(),
            "",
            "3. Spatial wear",
            self.wear_section(),
            "",
            "4. Mitigation hardware",
            self.hardware_section(),
        ]
        return "\n".join(sections)

    def summary(self) -> Dict[str, object]:
        """Machine-readable version of the report."""
        best_label = self.comparison.best_policy()
        best = self.comparison.results[best_label]
        return {
            "workload": self.framework.describe(),
            "bit_distribution": {
                self.framework.data_format.name:
                    self.framework.bit_distribution().tolist(),
            },
            "policies": {label: result.summary()
                         for label, result in self.comparison.results.items()},
            "best_policy": best_label,
            "best_policy_duty_cycle": duty_cycle_summary(best.duty_cycles),
            "energy_overhead": energy_overhead_report(
                self.framework, ["none", "inversion", "barrel_shifter", "dnn_life"]),
        }


def generate_report(framework: DnnLife,
                    policies: Optional[Iterable[Union[str, MitigationPolicy]]] = None) -> str:
    """Convenience wrapper used by the CLI: build and render a report."""
    return WorkloadReport(framework, policies).render()
