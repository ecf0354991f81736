"""Hardware substrates shared by LoAS and every baseline accelerator model.

Contains the :class:`~repro.arch.spec.ArchSpec` design-point layer (every
sweepable hardware knob behind one flat ``"group.field"`` addressing scheme,
with named presets), the energy constants and ledger, the Table IV area /
power model, the memory hierarchy (traffic counters, HBM, banked SRAM) and
the systolic array used by the dense baselines.
"""

from .area import (
    AreaSpec,
    ComponentCost,
    loas_system_cost,
    system_power_breakdown,
    tppe_cost,
    tppe_power_breakdown,
    tppe_scaling,
)
from .energy import EnergyAccount, EnergyModel
from .memory import DRAMModel, SRAMModel, TrafficCounter
from .spec import (
    ARCH_PRESETS,
    ArchSpec,
    BaselineSpec,
    DEFAULT_ARCH,
    MemorySpec,
    PESpec,
    arch_label,
    default_arch,
    get_arch_spec,
    list_arch_presets,
    register_arch_preset,
    resolve_arch,
)
from .systolic import SystolicArray

__all__ = [
    "ARCH_PRESETS",
    "ArchSpec",
    "AreaSpec",
    "BaselineSpec",
    "ComponentCost",
    "DEFAULT_ARCH",
    "DRAMModel",
    "EnergyAccount",
    "EnergyModel",
    "MemorySpec",
    "PESpec",
    "SRAMModel",
    "SystolicArray",
    "TrafficCounter",
    "arch_label",
    "default_arch",
    "get_arch_spec",
    "list_arch_presets",
    "loas_system_cost",
    "register_arch_preset",
    "resolve_arch",
    "system_power_breakdown",
    "tppe_cost",
    "tppe_power_breakdown",
    "tppe_scaling",
]
