"""Systolic-array geometry of the dense SNN baselines (PTB, Stellar).

The paper estimates PTB's and Stellar's cycle counts and memory traffic with
ScaleSim.  The analytical replacements live in
:class:`~repro.baselines.ptb.PTBSimulator` and
:class:`~repro.baselines.stellar.StellarSimulator`, which charge their own
mappings (PTB's partially temporal-parallel time-windows, Stellar's fully
temporal-parallel spike skipping) on the weight-stationary array described
here.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["SystolicArray"]


@dataclass(frozen=True)
class SystolicArray:
    """A weight-stationary systolic array of ``rows x cols`` PEs."""

    rows: int = 16
    cols: int = 4

    @property
    def num_pes(self) -> int:
        """Total number of processing elements."""
        return self.rows * self.cols
