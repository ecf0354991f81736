"""Energy model: per-access / per-operation energies and an accounting ledger.

The LoAS evaluation converts activity counts (memory accesses, accumulations,
prefix-sum invocations, LIF updates) into energy with per-event constants in
the style of CACTI / classic accelerator papers.  Absolute joules are not the
point of the reproduction -- the *ratios* between designs are -- so the
constants below are representative 32 nm-class values chosen to preserve the
orderings reported in the paper (DRAM >> SRAM >> register/compute energy, and
data movement dominating total energy at roughly 60 %).
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["EnergyModel", "EnergyAccount"]


@dataclass(frozen=True)
class EnergyModel:
    """Per-event energy constants, all in picojoules.

    Attributes
    ----------
    dram_per_byte:
        Off-chip (HBM) access energy per byte.
    sram_per_byte:
        Global on-chip SRAM (256 KB fiber cache) access energy per byte.
    buffer_per_byte:
        Small per-PE buffer / FIFO access energy per byte.
    accumulate:
        One addition into an accumulator register (the SNN "AC" op).
    multiply_accumulate:
        One 8-bit multiply-accumulate (used only by the ANN baselines).
    fast_prefix_sum:
        One invocation of the fast (single-cycle, tree) prefix-sum circuit
        over a 128-bit bitmask chunk.
    laggy_prefix_sum:
        One invocation of the laggy (iterative adder) prefix-sum circuit over
        a 128-bit bitmask chunk.
    lif_update:
        One LIF threshold-compare / reset / leak update for one timestep.
    merger_per_element:
        Energy per element flowing through a merge unit (outer-product /
        Gustavson baselines).
    crossbar_per_byte:
        Energy per byte through the distribution crossbar.
    """

    dram_per_byte: float = 60.0
    sram_per_byte: float = 0.5
    buffer_per_byte: float = 0.15
    accumulate: float = 0.1
    multiply_accumulate: float = 0.45
    fast_prefix_sum: float = 1.8
    laggy_prefix_sum: float = 0.4
    lif_update: float = 0.3
    merger_per_element: float = 0.9
    crossbar_per_byte: float = 0.2


@dataclass
class EnergyAccount:
    """Accumulates energy by category (all values in picojoules).

    Categories are free-form strings; the standard ones used across the
    simulators are ``"dram"``, ``"sram"``, ``"buffer"``, ``"compute"``,
    ``"prefix_sum"``, ``"lif"``, ``"merger"`` and ``"crossbar"``.
    """

    entries: dict[str, float] = field(default_factory=dict)

    def add(self, category: str, picojoules: float) -> None:
        """Add ``picojoules`` of energy under ``category``."""
        if picojoules < 0:
            raise ValueError("energy contributions must be non-negative")
        self.entries[category] = self.entries.get(category, 0.0) + picojoules

    def total(self) -> float:
        """Total energy across all categories, in picojoules."""
        return float(sum(self.entries.values()))

    def fraction(self, category: str) -> float:
        """Fraction of total energy spent in ``category``."""
        total = self.total()
        if total == 0:
            return 0.0
        return self.entries.get(category, 0.0) / total

    def data_movement_fraction(self) -> float:
        """Fraction of energy spent moving data (DRAM + SRAM + buffers + NoC)."""
        movement = sum(
            self.entries.get(cat, 0.0) for cat in ("dram", "sram", "buffer", "crossbar")
        )
        total = self.total()
        return movement / total if total else 0.0

    def as_dict(self) -> dict[str, float]:
        """Copy of the per-category energies."""
        return dict(self.entries)
