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

from dataclasses import replace

from ..arch.spec import resolve_arch
from ..runner import (
    Scenario,
    SimulatorSpec,
    SweepPlan,
    WorkloadSpec,
    register_scenario,
)

__all__ = [
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


def _pinned(simulators, arch, arch_overrides) -> tuple[SimulatorSpec, ...]:
    """The simulators pinned to one shared design point, labels unchanged.

    ``arch`` / ``arch_overrides`` name an :class:`~repro.arch.ArchSpec`
    design point resolved once and carried by every cell; without either,
    the simulators keep the Table III machine.
    """
    if arch is None and not arch_overrides:
        return simulators
    spec = resolve_arch(arch, arch_overrides)
    return tuple(replace(simulator, arch=spec) for simulator in simulators)


def network_sweep_plan(
    networks: tuple[str, ...] = DEFAULT_NETWORKS,
    scale: float = 1.0,
    seed: int = 1,
    include_finetuned: bool = True,
    arch=None,
    arch_overrides=(),
) -> SweepPlan:
    """Declarative Figure 12/13 sweep: every accelerator x every network."""
    simulators = SNN_SIMULATORS + ((LOAS_FINETUNED,) if include_finetuned else ())
    workloads = tuple(WorkloadSpec("network", name, scale=scale) for name in networks)
    return SweepPlan.product(
        "networks",
        workloads,
        _pinned(simulators, arch, arch_overrides),
        seeds=(seed,),
    )


def layer_sweep_plan(
    layers: tuple[str, ...] = DEFAULT_LAYERS,
    scale: float = 1.0,
    seed: int = 1,
    arch=None,
    arch_overrides=(),
) -> SweepPlan:
    """Declarative Figure 14 sweep: every accelerator x representative layer."""
    workloads = tuple(WorkloadSpec("layer", name, scale=scale) for name in layers)
    return SweepPlan.product(
        "layers",
        workloads,
        _pinned(SNN_SIMULATORS, arch, arch_overrides),
        seeds=(seed,),
    )


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
            ("arch", None),
            ("arch_overrides", ()),
        ),
    )
)
