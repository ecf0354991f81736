"""Shared sweep declarations for the experiment modules.

This module declares the network / representative-layer sweeps as
:class:`SweepPlan` data and registers them as the ``"networks"`` and
``"layers"`` scenarios; execution happens through
:class:`repro.api.Session` (which batches each network walk layer-major --
one evaluation per layer drives every simulator -- and can spread
independent cells over a worker pool) and returns the
``{workload: {accelerator: result}}`` payloads.
"""

from __future__ import annotations

from ..arch.spec import resolve_arch
from ..core import LoASConfig
from ..runner import (
    Scenario,
    SimulatorSpec,
    SweepPlan,
    WorkloadSpec,
    register_scenario,
)
from ..snn.workloads import NetworkWorkload, get_network_workload

__all__ = [
    "snn_accelerators",
    "network_sweep_plan",
    "layer_sweep_plan",
    "DEFAULT_NETWORKS",
    "DEFAULT_LAYERS",
    "SNN_SIMULATORS",
    "LOAS_FINETUNED",
]

#: Full-network workloads evaluated in Figures 12 and 13.
DEFAULT_NETWORKS = ("alexnet", "vgg16", "resnet19")

#: Representative layers evaluated in Figure 14.
DEFAULT_LAYERS = ("A-L4", "V-L8", "R-L19")

#: The dual-sparse SNN accelerators compared throughout the evaluation.
SNN_SIMULATORS = (
    SimulatorSpec("SparTen-SNN"),
    SimulatorSpec("GoSPA-SNN"),
    SimulatorSpec("Gamma-SNN"),
    SimulatorSpec("LoAS"),
)

#: LoAS with the fine-tuned preprocessing (the "LoAS-FT" series).
LOAS_FINETUNED = SimulatorSpec(
    "LoAS", label="LoAS-FT", finetuned=True, kwargs=(("preprocess", True),)
)


def snn_accelerators(config=None) -> dict[str, object]:
    """The dual-sparse SNN accelerators compared throughout the evaluation."""
    return {spec.label: spec.build(config) for spec in SNN_SIMULATORS}


def _shared_config(config, arch, arch_overrides):
    """Resolve the plan-level hardware configuration.

    ``arch`` / ``arch_overrides`` name an :class:`~repro.arch.ArchSpec`
    design point shared by every cell of the plan (result labels stay the
    historical accelerator names); passing both an explicit ``config`` and
    an ``arch`` is ambiguous and rejected.
    """
    if arch is None and not arch_overrides:
        return config
    if config is not None:
        raise ValueError("pass either config or arch/arch_overrides, not both")
    return LoASConfig(resolve_arch(arch, arch_overrides))


def network_sweep_plan(
    networks: tuple[str, ...] = DEFAULT_NETWORKS,
    scale: float = 1.0,
    seed: int = 1,
    include_finetuned: bool = True,
    config=None,
    arch=None,
    arch_overrides=(),
) -> SweepPlan:
    """Declarative Figure 12/13 sweep: every accelerator x every network."""
    simulators = SNN_SIMULATORS + ((LOAS_FINETUNED,) if include_finetuned else ())
    workloads = tuple(WorkloadSpec("network", name, scale=scale) for name in networks)
    return SweepPlan.product(
        "networks",
        workloads,
        simulators,
        seeds=(seed,),
        config=_shared_config(config, arch, arch_overrides),
    )


def layer_sweep_plan(
    layers: tuple[str, ...] = DEFAULT_LAYERS,
    scale: float = 1.0,
    seed: int = 1,
    config=None,
    arch=None,
    arch_overrides=(),
) -> SweepPlan:
    """Declarative Figure 14 sweep: every accelerator x representative layer."""
    workloads = tuple(WorkloadSpec("layer", name, scale=scale) for name in layers)
    return SweepPlan.product(
        "layers",
        workloads,
        SNN_SIMULATORS,
        seeds=(seed,),
        config=_shared_config(config, arch, arch_overrides),
    )


def scaled_network(name: str, scale: float) -> NetworkWorkload:
    """Convenience wrapper: a (possibly scaled) full-network workload."""
    network = get_network_workload(name)
    return network.scaled(scale) if scale != 1.0 else network


register_scenario(
    Scenario(
        name="networks",
        description="Every dual-sparse SNN accelerator over the Table II networks",
        build=network_sweep_plan,
        shape=lambda results, **_: results.nested(),
        defaults=(
            ("networks", DEFAULT_NETWORKS),
            ("scale", 1.0),
            ("seed", 1),
            ("include_finetuned", True),
            ("config", None),
            ("arch", None),
            ("arch_overrides", ()),
        ),
    )
)

register_scenario(
    Scenario(
        name="layers",
        description="Every dual-sparse SNN accelerator over the representative layers",
        build=layer_sweep_plan,
        shape=lambda results, **_: results.nested(),
        defaults=(
            ("layers", DEFAULT_LAYERS),
            ("scale", 1.0),
            ("seed", 1),
            ("config", None),
            ("arch", None),
            ("arch_overrides", ()),
        ),
    )
)
