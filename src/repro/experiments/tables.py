"""Table I, Table II, Table IV and Figure 15 regeneration.

These experiments are either static (capability matrix, area / power model)
or statistical (measuring that the synthetic workload generator reproduces
the published sparsity numbers), so they run in well under a second and are
also exercised directly by the unit tests.
"""

from __future__ import annotations

import numpy as np

from ..arch.area import loas_system_cost, system_power_breakdown, tppe_power_breakdown
from ..baselines.capabilities import TABLE1_CAPABILITIES
from ..metrics.report import format_table
from ..runner import Scenario, register_scenario
from ..sparse.matrix import sparsity
from ..snn.workloads import (
    TABLE2_LAYER_PROFILES,
    TABLE2_NETWORK_PROFILES,
    get_layer_workload,
)

__all__ = [
    "format_table1",
    "format_table2",
    "format_table4",
]


# --------------------------------------------------------------------- #
# Table I -- accelerator capability comparison
# --------------------------------------------------------------------- #
def _table1_capabilities() -> dict[str, dict[str, object]]:
    """Capability matrix of SpinalFlow, PTB, Stellar and LoAS."""
    return {
        name: {
            "spike_sparsity": caps.spike_sparsity,
            "weight_sparsity": caps.weight_sparsity,
            "parallelism": caps.parallelism,
            "neuron_model": caps.neuron_model,
        }
        for name, caps in TABLE1_CAPABILITIES.items()
    }


def format_table1(payload) -> str:
    """ASCII rendition of a ``table1-capabilities`` payload."""
    rows = [
        [name, "yes" if row["spike_sparsity"] else "no", "yes" if row["weight_sparsity"] else "no", row["parallelism"], row["neuron_model"]]
        for name, row in payload.items()
    ]
    return format_table(
        ["Accelerator", "Spike sparsity", "Weight sparsity", "Parallelism", "Neuron"],
        rows,
        title="Table I: SNN accelerator capabilities",
    )


# --------------------------------------------------------------------- #
# Table II -- workload sparsity statistics
# --------------------------------------------------------------------- #
def _table2_workloads(scale: float = 0.25, seed: int = 0) -> dict[str, dict[str, float]]:
    """Measure the generated workloads against the published Table II numbers.

    For each representative layer the spike words are generated at ``scale``
    of its published shape and the realised spike sparsity / silent-neuron
    fraction / weight sparsity are measured, alongside the published targets.
    The spike statistics are read off the packed words: a zero entry of the
    ``M x K x T`` tensor is an unset bit, a silent neuron a zero word.
    """
    results: dict[str, dict[str, float]] = {}
    rng = np.random.default_rng(seed)
    for name, profile in TABLE2_LAYER_PROFILES.items():
        workload = get_layer_workload(name).scaled(scale)
        spikes, weights = workload.generate(rng=rng)
        spikes_ft, _ = workload.generate(rng=rng, finetuned=True)
        bits = spikes.dense_bits()
        results[name] = {
            "target_spike_sparsity": profile.spike_sparsity,
            "measured_spike_sparsity": (bits - spikes.captured_spikes()) / bits,
            "target_silent_fraction": profile.silent_fraction,
            "measured_silent_fraction": spikes.silent_fraction,
            "target_silent_fraction_ft": profile.silent_fraction_finetuned,
            "measured_silent_fraction_ft": spikes_ft.silent_fraction,
            "target_weight_sparsity": profile.weight_sparsity,
            "measured_weight_sparsity": sparsity(weights),
        }
    for name, profile in TABLE2_NETWORK_PROFILES.items():
        results[name] = {
            "target_spike_sparsity": profile.spike_sparsity,
            "target_silent_fraction": profile.silent_fraction,
            "target_silent_fraction_ft": profile.silent_fraction_finetuned,
            "target_weight_sparsity": profile.weight_sparsity,
        }
    return results


def format_table2(payload) -> str:
    """ASCII rendition of a ``table2-workloads`` payload (published vs measured)."""
    rows = []
    for name, stats in payload.items():
        rows.append(
            [
                name,
                stats["target_spike_sparsity"],
                stats.get("measured_spike_sparsity", float("nan")),
                stats["target_silent_fraction"],
                stats.get("measured_silent_fraction", float("nan")),
                stats["target_weight_sparsity"],
                stats.get("measured_weight_sparsity", float("nan")),
            ]
        )
    return format_table(
        ["Workload", "AvSpA (paper)", "AvSpA (meas)", "Silent (paper)", "Silent (meas)", "AvSpB (paper)", "AvSpB (meas)"],
        rows,
        title="Table II: workload sparsity statistics",
    )


# --------------------------------------------------------------------- #
# Table IV / Figure 15 -- area and power breakdown
# --------------------------------------------------------------------- #
def _table4_area_power(
    num_tppes: int | None = None,
    timesteps: int | None = None,
    arch: str = "loas-32nm",
    arch_overrides=(),
) -> dict[str, dict[str, float]]:
    """System and TPPE area / power breakdown plus the Figure 15 fractions.

    The cost tables and default provisioning come from the ``arch`` design
    point (its :class:`~repro.arch.AreaSpec`); ``num_tppes`` / ``timesteps``
    override the spec's provisioning when given explicitly.
    """
    from ..arch.spec import resolve_arch

    spec = resolve_arch(arch, arch_overrides)
    num_tppes = spec.pe.num_tppes if num_tppes is None else num_tppes
    timesteps = spec.pe.timesteps if timesteps is None else timesteps
    system = loas_system_cost(num_tppes=num_tppes, timesteps=timesteps, area=spec.area)
    tppe_components = spec.area.tppe_table()
    return {
        "system_area_mm2": {name: cost.area_mm2 for name, cost in system.items()},
        "system_power_mw": {name: cost.power_mw for name, cost in system.items()},
        "tppe_area_mm2": {name: cost.area_mm2 for name, cost in tppe_components.items()},
        "tppe_power_mw": {name: cost.power_mw for name, cost in tppe_components.items()},
        "system_power_fraction": system_power_breakdown(num_tppes, timesteps, area=spec.area),
        "tppe_power_fraction": tppe_power_breakdown(area=spec.area),
    }


def format_table4(payload) -> str:
    """ASCII rendition of a ``table4-area-power`` payload (Table IV + Figure 15)."""
    rows = [
        [name, payload["system_area_mm2"][name], payload["system_power_mw"][name]]
        for name in payload["system_area_mm2"]
    ]
    system = format_table(
        ["Component", "Area (mm^2)", "Power (mW)"], rows, title="Table IV: LoAS breakdown"
    )
    tppe_rows = [
        [name, payload["tppe_area_mm2"][name], payload["tppe_power_mw"][name], payload["tppe_power_fraction"][name]]
        for name in payload["tppe_area_mm2"]
    ]
    tppe = format_table(
        ["TPPE unit", "Area (mm^2)", "Power (mW)", "Power fraction"],
        tppe_rows,
        title="Table IV / Figure 15: TPPE breakdown",
    )
    return system + "\n\n" + tppe


# The table experiments are static / statistical (no accelerator sweep), so
# they register as bespoke scenarios: named entry points in the same registry
# as the figure sweeps, without a SweepPlan behind them.
register_scenario(
    Scenario(
        name="table1-capabilities",
        description="Table I: accelerator capability matrix",
        run=_table1_capabilities,
    )
)

register_scenario(
    Scenario(
        name="table2-workloads",
        description="Table II: generated-workload sparsity vs published numbers",
        run=_table2_workloads,
        defaults=(("scale", 0.25), ("seed", 0)),
    )
)

register_scenario(
    Scenario(
        name="table4-area-power",
        description="Table IV / Figure 15: area and power breakdown",
        run=_table4_area_power,
        defaults=(
            ("num_tppes", None),
            ("timesteps", None),
            ("arch", "loas-32nm"),
            ("arch_overrides", ()),
        ),
    )
)
