"""Ablation studies beyond the paper's figures.

These quantify the design choices DESIGN.md calls out:

* the size M of the bias-balancing register;
* the TRBG bias the controller can tolerate;
* the enable-signal granularity (one enable bit per word vs. per 64-bit
  transfer) and its metadata overhead;
* the inversion-policy granularity (per write-stream vs. idealised
  per-location) — the aliasing effect discussed in Sec. III-B;
* robustness of the conclusions to the device aging model (calibrated
  power-law vs. reaction-diffusion backend);
* the per-inference energy overhead of every policy.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

import numpy as np

from repro.accelerator.baseline import BaselineAccelerator
from repro.aging.nbti import ReactionDiffusionSnmModel
from repro.analysis.energy import energy_overhead_report
from repro.core.framework import DnnLife
from repro.core.policies import DnnLifePolicy, NoMitigationPolicy, PeriodicInversionPolicy
from repro.core.simulation import AgingSimulator
from repro.experiments.aging_runner import build_workload_stream
from repro.experiments.common import ExperimentScale
from repro.orchestration.registry import ParamSpec, register_experiment
from repro.nn.models import build_model
from repro.nn.weights import attach_synthetic_weights
from repro.quantization.formats import get_format


def _default_stream(network_name: str, data_format: str, quick: bool, seed: int):
    scale = ExperimentScale.from_quick_flag(quick)
    accelerator = BaselineAccelerator()
    stream = build_workload_stream(network_name, accelerator, data_format, scale, seed=seed)
    return stream, scale


def run_bias_sweep(network_name: str = "alexnet", data_format: str = "int8_asymmetric",
                   biases: Iterable[float] = (0.5, 0.6, 0.7, 0.8, 0.9),
                   bias_balancing: bool = False, quick: bool = True,
                   seed: int = 0) -> Dict[float, Dict[str, float]]:
    """Mean/max SNM degradation of DNN-Life as a function of the TRBG bias.

    Ablation beyond the paper's figures (supports the Fig. 9 discussion of
    biased TRBGs).

    Parameters
    ----------
    network_name, data_format:
        Workload on the baseline accelerator.
    biases:
        TRBG "probability of 1" values to sweep.
    bias_balancing:
        Whether the bias-balancing register is enabled during the sweep.
    quick, seed:
        Experiment scale and RNG seed (see :class:`~repro.experiments.common.ExperimentScale`).

    Returns
    -------
    dict
        ``{bias: {"mean_snm_degradation_percent", "max_snm_degradation_percent"}}``.
    """
    stream, scale = _default_stream(network_name, data_format, quick, seed)
    word_bits = get_format(data_format).word_bits
    results: Dict[float, Dict[str, float]] = {}
    for bias in biases:
        policy = DnnLifePolicy(word_bits, trbg_bias=bias,
                               bias_balancing=bias_balancing, seed=seed)
        result = AgingSimulator(stream, policy, num_inferences=scale.num_inferences,
                                seed=seed).run()
        degradation = result.snm_degradation()
        results[float(bias)] = {
            "mean_snm_degradation_percent": float(degradation.mean()),
            "max_snm_degradation_percent": float(degradation.max()),
        }
    return results


def run_balance_register_sweep(network_name: str = "alexnet",
                               data_format: str = "int8_symmetric",
                               register_bits: Iterable[int] = (1, 2, 4, 6, 8),
                               trbg_bias: float = 0.7, quick: bool = True,
                               seed: int = 0) -> Dict[int, Dict[str, float]]:
    """Effect of the bias-balancing register size M on aging mitigation.

    Ablation of the M-bit balancing register introduced for the paper's
    Fig. 8 micro-architecture (the Fig. 9 columns use M = 4).

    Returns
    -------
    dict
        ``{register_bits: {"mean_snm_degradation_percent",
        "max_snm_degradation_percent"}}``.
    """
    stream, scale = _default_stream(network_name, data_format, quick, seed)
    word_bits = get_format(data_format).word_bits
    results: Dict[int, Dict[str, float]] = {}
    for bits in register_bits:
        policy = DnnLifePolicy(word_bits, trbg_bias=trbg_bias, bias_balancing=True,
                               balance_register_bits=bits, seed=seed)
        result = AgingSimulator(stream, policy, num_inferences=scale.num_inferences,
                                seed=seed).run()
        degradation = result.snm_degradation()
        results[int(bits)] = {
            "mean_snm_degradation_percent": float(degradation.mean()),
            "max_snm_degradation_percent": float(degradation.max()),
        }
    return results


def run_enable_granularity_sweep(network_name: str = "alexnet",
                                 data_format: str = "int8_symmetric",
                                 group_sizes: Iterable[int] = (1, 2, 8, 64),
                                 quick: bool = True, seed: int = 0
                                 ) -> Dict[int, Dict[str, float]]:
    """Enable-bit granularity: aging quality vs. metadata overhead trade-off.

    Ablation of the enable-signal granularity discussed with Table II (one
    enable bit per word vs. per 64-bit transfer).

    Returns
    -------
    dict
        ``{words_per_enable: {"mean_snm_degradation_percent",
        "max_snm_degradation_percent", "metadata_bits_per_word"}}``.
    """
    stream, scale = _default_stream(network_name, data_format, quick, seed)
    word_bits = get_format(data_format).word_bits
    results: Dict[int, Dict[str, float]] = {}
    for group in group_sizes:
        policy = DnnLifePolicy(word_bits, trbg_bias=0.5, bias_balancing=True,
                               words_per_enable=group, seed=seed)
        result = AgingSimulator(stream, policy, num_inferences=scale.num_inferences,
                                seed=seed).run()
        degradation = result.snm_degradation()
        results[int(group)] = {
            "mean_snm_degradation_percent": float(degradation.mean()),
            "max_snm_degradation_percent": float(degradation.max()),
            "metadata_bits_per_word": policy.metadata_bits_per_word,
        }
    return results


def run_inversion_granularity_comparison(network_name: str = "alexnet",
                                         data_format: str = "float32",
                                         quick: bool = True, seed: int = 0
                                         ) -> Dict[str, Dict[str, float]]:
    """Aliasing ablation: write-stream inversion vs. idealised per-location.

    Quantifies the Sec. III-B aliasing effect behind the paper's critique of
    classic periodic inversion.

    Returns
    -------
    dict
        ``{"write" | "location": {"mean_snm_degradation_percent",
        "max_snm_degradation_percent", "percent_cells_at_worst"}}``.
    """
    stream, scale = _default_stream(network_name, data_format, quick, seed)
    word_bits = get_format(data_format).word_bits
    results: Dict[str, Dict[str, float]] = {}
    for granularity in ("write", "location"):
        policy = PeriodicInversionPolicy(word_bits, granularity=granularity)
        result = AgingSimulator(stream, policy, num_inferences=scale.num_inferences,
                                seed=seed).run()
        degradation = result.snm_degradation()
        results[granularity] = {
            "mean_snm_degradation_percent": float(degradation.mean()),
            "max_snm_degradation_percent": float(degradation.max()),
            "percent_cells_at_worst": float((degradation >= degradation.max() - 0.5).mean() * 100),
        }
    return results


def run_device_model_comparison(network_name: str = "custom_mnist",
                                data_format: str = "int8_symmetric",
                                quick: bool = True, seed: int = 0
                                ) -> Dict[str, Dict[str, Dict[str, float]]]:
    """Check that the policy ranking is independent of the device aging model.

    Robustness ablation for the Fig. 9/11 conclusions: the calibrated
    power-law model is swapped for a reaction-diffusion backend.

    Returns
    -------
    dict
        ``{model_name: {policy_name: {"mean_snm_degradation_percent",
        "max_snm_degradation_percent"}}}``.
    """
    stream, scale = _default_stream(network_name, data_format, quick, seed)
    word_bits = get_format(data_format).word_bits
    models = {
        "calibrated_power_law": None,  # default model
        "reaction_diffusion": ReactionDiffusionSnmModel(),
    }
    policies = {
        "none": lambda: NoMitigationPolicy(),
        "dnn_life": lambda: DnnLifePolicy(word_bits, trbg_bias=0.5, seed=seed),
    }
    results: Dict[str, Dict[str, Dict[str, float]]] = {}
    for model_name, model in models.items():
        per_policy: Dict[str, Dict[str, float]] = {}
        for policy_name, factory in policies.items():
            result = AgingSimulator(stream, factory(), num_inferences=scale.num_inferences,
                                    seed=seed, snm_model=model).run()
            degradation = result.snm_degradation()
            per_policy[policy_name] = {
                "mean_snm_degradation_percent": float(degradation.mean()),
                "max_snm_degradation_percent": float(degradation.max()),
            }
        results[model_name] = per_policy
    return results


def run_energy_overhead_ablation(network_name: str = "alexnet",
                                 data_format: str = "int8_symmetric",
                                 num_inferences: int = 10, seed: int = 0,
                                 policies: Optional[Iterable[str]] = None
                                 ) -> Dict[str, Dict[str, float]]:
    """Per-inference mitigation energy overhead of every policy.

    Energy-side ablation backing the paper's Table II discussion.

    Returns
    -------
    dict
        ``{policy: {"weight_memory_energy_joules", "transducer_energy_joules",
        "metadata_energy_joules", "total_overhead_joules",
        "overhead_percent_of_memory_energy", ...}}`` (see
        :func:`repro.analysis.energy.energy_overhead_report`).
    """
    network = attach_synthetic_weights(build_model(network_name), seed=seed)
    framework = DnnLife(network, data_format=data_format,
                        num_inferences=num_inferences, seed=seed)
    return energy_overhead_report(framework, policies)


def run_lifetime_improvement(network_name: str = "alexnet",
                             data_format: str = "float32",
                             max_degradation_percent: float = 15.0,
                             quick: bool = True, seed: int = 0) -> Dict[str, float]:
    """Lifetime extension of DNN-Life over no mitigation (extension metric).

    Headline lifetime-improvement ablation (the paper's motivation for the
    "Improving the Lifetime" claim in its title).

    Returns
    -------
    dict
        ``{"baseline_lifetime_years", "dnn_life_lifetime_years",
        "lifetime_improvement_factor", "max_degradation_threshold_percent"}``.
    """
    from repro.aging.lifetime import LifetimeEstimator

    stream, scale = _default_stream(network_name, data_format, quick, seed)
    word_bits = get_format(data_format).word_bits
    baseline = AgingSimulator(stream, NoMitigationPolicy(),
                              num_inferences=scale.num_inferences, seed=seed).run()
    mitigated = AgingSimulator(stream, DnnLifePolicy(word_bits, seed=seed),
                               num_inferences=scale.num_inferences, seed=seed).run()
    estimator = LifetimeEstimator(max_degradation_percent=max_degradation_percent)
    # The most-aged cell holds the extreme duty, so the distinct duties of
    # the class table give the per-cell minimum lifetime bit for bit.
    baseline_duties = baseline.cell_classes.values
    mitigated_duties = mitigated.cell_classes.values
    return {
        "baseline_lifetime_years": estimator.memory_lifetime_years(baseline_duties),
        "dnn_life_lifetime_years": estimator.memory_lifetime_years(mitigated_duties),
        "lifetime_improvement_factor": estimator.lifetime_improvement(
            baseline_duties, mitigated_duties),
        "max_degradation_threshold_percent": max_degradation_percent,
    }


_WORKLOAD_PARAMS = (
    ParamSpec("network_name", str, "alexnet", flag="--network", help="workload network"),
    ParamSpec("quick", bool, True, help="reduced configuration"),
    ParamSpec("seed", int, 0, help="weight/policy seed"),
)


register_experiment(
    name="ablation-bias",
    runner=run_bias_sweep,
    description="DNN-Life SNM degradation as a function of the TRBG bias",
    artifact="ablation (Fig. 9 discussion)",
    params=_WORKLOAD_PARAMS + (
        ParamSpec("data_format", str, "int8_asymmetric", flag="--format",
                  help="weight data format"),
        ParamSpec("bias_balancing", bool, False, help="enable the balancing register"),
    ),
    full_config={"quick": False},
    tags=("ablation", "aging"),
)

register_experiment(
    name="ablation-balance-register",
    runner=run_balance_register_sweep,
    description="Effect of the bias-balancing register size M",
    artifact="ablation (Fig. 8 micro-architecture)",
    params=_WORKLOAD_PARAMS + (
        ParamSpec("data_format", str, "int8_symmetric", flag="--format",
                  help="weight data format"),
        ParamSpec("trbg_bias", float, 0.7, help="TRBG probability of 1"),
    ),
    full_config={"quick": False},
    tags=("ablation", "aging"),
)

register_experiment(
    name="ablation-enable-granularity",
    runner=run_enable_granularity_sweep,
    description="Enable-bit granularity vs. metadata overhead trade-off",
    artifact="ablation (Table II discussion)",
    params=_WORKLOAD_PARAMS + (
        ParamSpec("data_format", str, "int8_symmetric", flag="--format",
                  help="weight data format"),
    ),
    full_config={"quick": False},
    tags=("ablation", "aging"),
)

register_experiment(
    name="ablation-inversion-granularity",
    runner=run_inversion_granularity_comparison,
    description="Write-stream vs. idealised per-location periodic inversion",
    artifact="ablation (Sec. III-B aliasing)",
    params=_WORKLOAD_PARAMS + (
        ParamSpec("data_format", str, "float32", flag="--format",
                  help="weight data format"),
    ),
    full_config={"quick": False},
    tags=("ablation", "aging"),
)

register_experiment(
    name="ablation-device-model",
    runner=run_device_model_comparison,
    description="Policy ranking under power-law vs. reaction-diffusion aging models",
    artifact="ablation (device-model robustness)",
    params=(
        ParamSpec("network_name", str, "custom_mnist", flag="--network",
                  help="workload network"),
        ParamSpec("quick", bool, True, help="reduced configuration"),
        ParamSpec("seed", int, 0, help="weight/policy seed"),
        ParamSpec("data_format", str, "int8_symmetric", flag="--format",
                  help="weight data format"),
    ),
    full_config={"quick": False},
    tags=("ablation", "aging"),
)

register_experiment(
    name="ablation-energy",
    runner=run_energy_overhead_ablation,
    description="Per-inference mitigation energy overhead of every policy",
    artifact="ablation (Table II energy)",
    params=(
        ParamSpec("network_name", str, "alexnet", flag="--network",
                  help="workload network"),
        ParamSpec("data_format", str, "int8_symmetric", flag="--format",
                  help="weight data format"),
        ParamSpec("num_inferences", int, 10, flag="--inferences", positive=True,
                  help="inference epochs"),
        ParamSpec("seed", int, 0, help="weight/policy seed"),
    ),
    tags=("ablation", "energy"),
)

register_experiment(
    name="ablation-lifetime",
    runner=run_lifetime_improvement,
    description="Lifetime extension of DNN-Life over no mitigation",
    artifact="ablation (lifetime headline)",
    params=_WORKLOAD_PARAMS + (
        ParamSpec("data_format", str, "float32", flag="--format",
                  help="weight data format"),
        ParamSpec("max_degradation_percent", float, 15.0,
                  help="SNM-degradation threshold defining end of life"),
    ),
    full_config={"quick": False},
    tags=("ablation", "aging"),
)
