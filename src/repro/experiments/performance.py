"""Figures 12, 13 and 14: overall performance, traffic and its breakdown.

Figure 12 reports speedup and energy efficiency of LoAS (with and without the
fine-tuned preprocessing) against SparTen-SNN, GoSPA-SNN and Gamma-SNN on the
three full SNN workloads, everything normalised to SparTen-SNN.  Figure 13
reports the corresponding off-chip and on-chip traffic, and Figure 14 breaks
the off-chip traffic of the three representative layers into input / weight /
psum / other components and adds the normalised SRAM miss rate.

All three figures are thin shapers over the declarative network / layer
sweeps of :mod:`repro.experiments.sweeps`; each is also a registered
scenario (``fig12-overall``, ``fig13-traffic``, ``fig14-breakdown``) runnable
through :meth:`repro.api.Session.run`.
"""

from __future__ import annotations

from ..metrics.report import format_series, format_sweep
from ..runner import Scenario, register_scenario
from .sweeps import (
    DEFAULT_LAYERS,
    DEFAULT_NETWORKS,
    layer_sweep_plan,
    network_sweep_plan,
)

__all__ = [
    "format_fig12",
    "format_fig13",
    "format_fig14",
]

_REFERENCE = "SparTen-SNN"


def _shape_fig12(results, **_) -> dict[str, dict[str, dict[str, float]]]:
    """Speedup and energy efficiency normalised to SparTen-SNN."""
    output: dict[str, dict[str, dict[str, float]]] = {}
    for network, per_accel in results.nested().items():
        reference = per_accel[_REFERENCE]
        output[network] = {
            accel: {
                "speedup": reference.cycles / result.cycles,
                "energy_efficiency": reference.energy_pj / result.energy_pj,
                "cycles": result.cycles,
                "energy_pj": result.energy_pj,
            }
            for accel, result in per_accel.items()
        }
    return output


def _shape_fig13(results, **_) -> dict[str, dict[str, dict[str, float]]]:
    """Off-chip (KB) and on-chip (MB) traffic per accelerator."""
    return {
        network: {
            accel: {
                "offchip_kb": result.dram_bytes / 1e3,
                "onchip_mb": result.sram_bytes / 1e6,
            }
            for accel, result in per_accel.items()
        }
        for network, per_accel in results.nested().items()
    }


def _shape_fig14(results, **_) -> dict[str, dict[str, dict[str, float]]]:
    """Off-chip traffic breakdown and SRAM miss rate, normalised to LoAS."""
    output: dict[str, dict[str, dict[str, float]]] = {}
    for layer, per_accel in results.nested().items():
        loas = per_accel["LoAS"]
        loas_total = loas.dram_bytes or 1.0
        loas_miss = loas.sram_miss_rate or 1e-9
        output[layer] = {}
        for accel, result in per_accel.items():
            breakdown = result.dram.as_dict()
            output[layer][accel] = {
                "weight": breakdown.get("weight", 0.0) / loas_total,
                "input": breakdown.get("input", 0.0) / loas_total,
                "psum": breakdown.get("psum", 0.0) / loas_total,
                "format": breakdown.get("format", 0.0) / loas_total,
                "output": breakdown.get("output", 0.0) / loas_total,
                "total": result.dram_bytes / loas_total,
                "normalized_miss_rate": result.sram_miss_rate / loas_miss,
            }
    return output


register_scenario(
    Scenario(
        name="fig12-overall",
        description="Figure 12: speedup / energy efficiency vs SparTen-SNN",
        build=network_sweep_plan,
        shape=_shape_fig12,
        defaults=(("networks", DEFAULT_NETWORKS), ("scale", 1.0), ("seed", 1)),
    )
)

register_scenario(
    Scenario(
        name="fig13-traffic",
        description="Figure 13: off-chip / on-chip traffic per accelerator",
        build=network_sweep_plan,
        shape=_shape_fig13,
        defaults=(("networks", DEFAULT_NETWORKS), ("scale", 1.0), ("seed", 1)),
    )
)

register_scenario(
    Scenario(
        name="fig14-breakdown",
        description="Figure 14: off-chip traffic breakdown + SRAM miss rate",
        build=layer_sweep_plan,
        shape=_shape_fig14,
        defaults=(("layers", DEFAULT_LAYERS), ("scale", 1.0), ("seed", 1)),
    )
)


def format_fig12(payload) -> str:
    """ASCII rendition of a ``fig12-overall`` payload."""
    speed = {
        network: {accel: stats["speedup"] for accel, stats in per.items()}
        for network, per in payload.items()
    }
    energy = {
        network: {accel: stats["energy_efficiency"] for accel, stats in per.items()}
        for network, per in payload.items()
    }
    return (
        format_series(speed, title="Figure 12 (top): speedup over SparTen-SNN")
        + "\n\n"
        + format_series(energy, title="Figure 12 (bottom): energy efficiency over SparTen-SNN")
    )


def format_fig13(payload) -> str:
    """ASCII rendition of a ``fig13-traffic`` payload."""
    return format_sweep(
        payload,
        columns=[("Off-chip (KB)", "offchip_kb"), ("On-chip (MB)", "onchip_mb")],
        title="Figure 13: memory traffic",
    )


def format_fig14(payload) -> str:
    """ASCII rendition of a ``fig14-breakdown`` payload."""
    return format_sweep(
        payload,
        columns=[
            ("Input", "input"),
            ("Weight", "weight"),
            ("Psum", "psum"),
            ("Format", "format"),
            ("Output", "output"),
            ("Total", "total"),
            ("Norm. miss", "normalized_miss_rate"),
        ],
        title="Figure 14: off-chip traffic breakdown, normalised to LoAS",
    )
