"""Workload scheduler: dispatching fibers to the TPPEs.

The LoAS scheduler broadcasts one weight fiber (a column of ``B``) to all
TPPEs through the swizzle-switch crossbar while each TPPE holds the bitmask
of a distinct spike fiber (a row of ``A``).  Rows are therefore processed in
groups of ``num_tppes``; all groups of one output column complete before the
next column's weight fiber is broadcast, which maximises reuse of the cached
weight fiber and keeps the output compressor operating on whole rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .config import LoASConfig

__all__ = ["Scheduler"]


@dataclass
class Scheduler:
    """Counts the waves of the schedule and their utilisation."""

    config: LoASConfig = field(default_factory=LoASConfig)

    def num_waves(self, num_rows: int, num_columns: int) -> int:
        """Waves for an ``(M, N)`` output grid: ``ceil(M / num_tppes) * N``."""
        if num_rows < 0 or num_columns < 0:
            raise ValueError("dimensions must be non-negative")
        group = self.config.num_tppes
        return (-(-num_rows // group)) * num_columns if num_rows and num_columns else 0

    def pe_utilization(self, num_rows: int, num_columns: int) -> float:
        """Fraction of TPPE slots that hold real work across the schedule."""
        waves = self.num_waves(num_rows, num_columns)
        if waves == 0:
            return 0.0
        total_slots = waves * self.config.num_tppes
        useful = num_rows * num_columns
        return useful / total_slots
