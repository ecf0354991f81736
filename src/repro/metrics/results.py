"""Result containers shared by every accelerator simulator.

Each accelerator model (LoAS and all baselines) returns a
:class:`SimulationResult` from its ``simulate_layer`` / ``simulate_network``
entry points so the experiment harness can sweep designs uniformly and
compute speedups, traffic ratios and energy-efficiency ratios the same way
the paper does (everything normalised to a chosen baseline).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..arch.energy import EnergyAccount
from ..arch.memory import TrafficCounter

__all__ = ["SimulationResult", "aggregate_results"]


@dataclass
class SimulationResult:
    """Outcome of simulating one workload on one accelerator.

    Attributes
    ----------
    accelerator:
        Name of the design (e.g. ``"LoAS"`` or ``"SparTen-SNN"``).
    workload:
        Name of the workload (layer or network).
    cycles:
        End-to-end cycle count (compute and memory overlapped; the larger of
        the two bounds per processing phase).
    compute_cycles:
        Cycle count of the compute/inner-join pipeline alone.
    memory_cycles:
        Cycle count the memory system needs at peak bandwidth.
    dram:
        Off-chip traffic by category (bytes).
    sram:
        On-chip global SRAM traffic by category (bytes).
    energy:
        Energy ledger (picojoules, by category).
    ops:
        Operation counts by category (accumulations, corrections, ...).
    sram_miss_rate:
        Miss rate of the global cache when the model tracks one.
    extra:
        Free-form per-design diagnostics.
    """

    accelerator: str
    workload: str
    cycles: float = 0.0
    compute_cycles: float = 0.0
    memory_cycles: float = 0.0
    dram: TrafficCounter = field(default_factory=TrafficCounter)
    sram: TrafficCounter = field(default_factory=TrafficCounter)
    energy: EnergyAccount = field(default_factory=EnergyAccount)
    ops: dict[str, float] = field(default_factory=dict)
    sram_miss_rate: float = 0.0
    extra: dict[str, float] = field(default_factory=dict)

    # ------------------------------------------------------------------ #
    # Totals
    # ------------------------------------------------------------------ #
    @property
    def dram_bytes(self) -> float:
        """Total off-chip traffic in bytes."""
        return self.dram.total()

    @property
    def sram_bytes(self) -> float:
        """Total on-chip SRAM traffic in bytes."""
        return self.sram.total()

    @property
    def energy_pj(self) -> float:
        """Total energy in picojoules."""
        return self.energy.total()

    def runtime_seconds(self, clock_ghz: float = 0.8) -> float:
        """Wall-clock runtime implied by the cycle count at ``clock_ghz``."""
        return self.cycles / (clock_ghz * 1e9)

    def add_ops(self, category: str, count: float) -> None:
        """Accumulate ``count`` operations under ``category``."""
        self.ops[category] = self.ops.get(category, 0.0) + count

    # ------------------------------------------------------------------ #
    # Serialisation (used by the repro.api JSON schema)
    # ------------------------------------------------------------------ #
    def as_dict(self) -> dict:
        """Plain-data copy of every field (ledgers flattened to dicts)."""
        return {
            "accelerator": self.accelerator,
            "workload": self.workload,
            "cycles": self.cycles,
            "compute_cycles": self.compute_cycles,
            "memory_cycles": self.memory_cycles,
            "dram": self.dram.as_dict(),
            "sram": self.sram.as_dict(),
            "energy": self.energy.as_dict(),
            "ops": dict(self.ops),
            "sram_miss_rate": self.sram_miss_rate,
            "extra": dict(self.extra),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SimulationResult":
        """Rebuild a result from :meth:`as_dict` output (equal field-by-field)."""
        return cls(
            accelerator=data["accelerator"],
            workload=data["workload"],
            cycles=data["cycles"],
            compute_cycles=data["compute_cycles"],
            memory_cycles=data["memory_cycles"],
            dram=TrafficCounter(dict(data["dram"])),
            sram=TrafficCounter(dict(data["sram"])),
            energy=EnergyAccount(dict(data["energy"])),
            ops=dict(data["ops"]),
            sram_miss_rate=data["sram_miss_rate"],
            extra=dict(data["extra"]),
        )

    # ------------------------------------------------------------------ #
    # Comparisons (all defined so that larger = better for LoAS)
    # ------------------------------------------------------------------ #
    def speedup_over(self, other: "SimulationResult") -> float:
        """How many times faster this result is than ``other``."""
        if self.cycles == 0:
            return float("inf")
        return other.cycles / self.cycles


def aggregate_results(results: list[SimulationResult], accelerator: str, workload: str) -> SimulationResult:
    """Sum per-layer results into one network-level result.

    Cycles, traffic, energy and operation counts add up; the miss rate is the
    traffic-weighted mean of the per-layer miss rates.
    """
    if not results:
        raise ValueError("cannot aggregate an empty result list")
    total = SimulationResult(accelerator=accelerator, workload=workload)
    weighted_miss = 0.0
    weight = 0.0
    for result in results:
        total.cycles += result.cycles
        total.compute_cycles += result.compute_cycles
        total.memory_cycles += result.memory_cycles
        for into, ledger in ((total.dram, result.dram), (total.sram, result.sram), (total.energy, result.energy)):
            for category, value in ledger.entries.items():
                into.add(category, value)
        for category, count in result.ops.items():
            total.add_ops(category, count)
        weighted_miss += result.sram_miss_rate * result.sram_bytes
        weight += result.sram_bytes
    total.sram_miss_rate = weighted_miss / weight if weight else 0.0
    return total
