"""Hardware substrates shared by LoAS and every baseline accelerator model.

Contains the :class:`~repro.arch.spec.ArchSpec` design-point layer (every
sweepable hardware knob behind one flat ``"group.field"`` addressing scheme,
with named presets), the energy constants and ledger, the Table IV area /
power model, the memory hierarchy (traffic counters, HBM, banked SRAM, fiber
cache), the fast / laggy prefix-sum circuits, the distribution crossbar and
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
from .cache import FiberCache
from .crossbar import Crossbar
from .energy import EnergyAccount, EnergyModel
from .memory import CacheSimulator, DRAMModel, SRAMModel, TrafficCounter
from .prefix_sum import FastPrefixSum, LaggyPrefixSum, exclusive_prefix_sum
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
from .systolic import SystolicArray, SystolicRunEstimate

__all__ = [
    "ARCH_PRESETS",
    "ArchSpec",
    "AreaSpec",
    "BaselineSpec",
    "CacheSimulator",
    "ComponentCost",
    "Crossbar",
    "DEFAULT_ARCH",
    "DRAMModel",
    "EnergyAccount",
    "EnergyModel",
    "FastPrefixSum",
    "FiberCache",
    "LaggyPrefixSum",
    "MemorySpec",
    "PESpec",
    "SRAMModel",
    "SystolicArray",
    "SystolicRunEstimate",
    "TrafficCounter",
    "arch_label",
    "default_arch",
    "exclusive_prefix_sum",
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
