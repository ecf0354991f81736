"""Memory hierarchy models: traffic counters, DRAM (HBM) and banked SRAM.

The accelerator simulators account for memory behaviour at two levels:

* **Traffic accounting** -- every simulator records the bytes it moves to and
  from off-chip DRAM and the on-chip global SRAM, broken down by category
  (input spikes, weights, partial sums, outputs, compressed-format
  metadata).  :class:`TrafficCounter` holds those ledgers.
* **Timing / stalls** -- :class:`DRAMModel` converts off-chip bytes into the
  minimum number of cycles the memory system needs at the configured
  bandwidth; the compute model takes the max of compute and memory cycles
  (a roofline-style bound, which is how the original analytical simulator
  treats bandwidth).

The fiber-cache hit / miss counts behind the "normalized SRAM miss rate" of
Figure 14 are priced analytically inside each simulator.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["TrafficCounter", "DRAMModel", "SRAMModel"]


@dataclass
class TrafficCounter:
    """Byte counts keyed by traffic category."""

    entries: dict[str, float] = field(default_factory=dict)

    def add(self, category: str, num_bytes: float) -> None:
        """Record ``num_bytes`` of traffic under ``category``."""
        if num_bytes < 0:
            raise ValueError("traffic must be non-negative")
        self.entries[category] = self.entries.get(category, 0.0) + num_bytes

    def total(self) -> float:
        """Total bytes across all categories."""
        return float(sum(self.entries.values()))

    def get(self, category: str) -> float:
        """Bytes recorded under ``category`` (0 when absent)."""
        return self.entries.get(category, 0.0)

    def as_dict(self) -> dict[str, float]:
        """Copy of the per-category byte counts."""
        return dict(self.entries)


@dataclass(frozen=True)
class DRAMModel:
    """Off-chip memory (HBM) bandwidth and energy model.

    Attributes
    ----------
    bandwidth_gbps:
        Peak bandwidth in gigabytes per second (the paper uses a 128 GB/s
        HBM module).
    clock_ghz:
        Accelerator clock in GHz (0.8 GHz in the paper), used to convert
        bandwidth into bytes per cycle.
    """

    bandwidth_gbps: float = 128.0
    clock_ghz: float = 0.8

    @property
    def bytes_per_cycle(self) -> float:
        """Peak deliverable bytes per accelerator clock cycle."""
        return self.bandwidth_gbps / self.clock_ghz

    def cycles_for_bytes(self, num_bytes: float) -> float:
        """Minimum cycles needed to transfer ``num_bytes`` at peak bandwidth."""
        if num_bytes < 0:
            raise ValueError("byte count must be non-negative")
        if self.bytes_per_cycle == 0:
            return float("inf") if num_bytes else 0.0
        return num_bytes / self.bytes_per_cycle


@dataclass(frozen=True)
class SRAMModel:
    """Banked global SRAM: capacity and per-cycle service rate.

    Attributes
    ----------
    capacity_bytes:
        Total SRAM capacity (256 KB in the paper, double buffered).
    num_banks:
        Number of independently accessible banks (16 in the paper).
    bytes_per_bank_per_cycle:
        Bytes each bank can deliver per cycle (a 128-bit port by default).
    """

    capacity_bytes: int = 256 * 1024
    num_banks: int = 16
    bytes_per_bank_per_cycle: float = 16.0

    @property
    def bytes_per_cycle(self) -> float:
        """Aggregate on-chip bandwidth in bytes per cycle."""
        return self.num_banks * self.bytes_per_bank_per_cycle

    def cycles_for_bytes(self, num_bytes: float) -> float:
        """Minimum cycles needed to serve ``num_bytes`` from SRAM."""
        if num_bytes < 0:
            raise ValueError("byte count must be non-negative")
        return num_bytes / self.bytes_per_cycle

    def fits(self, working_set_bytes: float) -> bool:
        """Whether a working set fits entirely in the SRAM."""
        return working_set_bytes <= self.capacity_bytes

