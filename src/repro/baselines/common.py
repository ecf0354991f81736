"""Shared helpers for the baseline accelerator models.

The baselines in the paper are "-SNN" variants of published ANN spMspM
accelerators: the original design is kept (dataflow, compression format,
join / merge machinery) and the SNN's timestep loop is naively placed at the
innermost position and processed *sequentially*.  These helpers hold the
quantities several of those models need: compressed-format sizes, per-layer
match statistics and the simple capacity-based refetch estimator used when a
working set exceeds the global SRAM.

The per-layer statistics themselves are computed by the shared
workload-evaluation engine (:mod:`repro.engine`).
"""

from __future__ import annotations

import math

from ..engine.statistics import LayerStatistics

__all__ = [
    "coordinate_bits",
    "csr_bytes",
    "bitmask_fiber_bytes",
    "streaming_refetch_factor",
    "LayerStatistics",
]


def coordinate_bits(dimension: int) -> int:
    """Bits needed to address one coordinate along ``dimension``."""
    if dimension <= 1:
        return 1
    return int(math.ceil(math.log2(dimension)))


def csr_bytes(nnz: float, dimension: int, num_fibers: int, value_bits: int, pointer_bits: int = 32) -> float:
    """Compressed footprint (bytes) of a CSR/CSC matrix with ``nnz`` non-zeros."""
    bits = nnz * (value_bits + coordinate_bits(dimension)) + (num_fibers + 1) * pointer_bits
    return bits / 8.0


def bitmask_fiber_bytes(fiber_length: int, nnz: float, num_fibers: int, value_bits: int, pointer_bits: int = 32) -> float:
    """Compressed footprint (bytes) of a bitmask-fiber matrix."""
    bits = num_fibers * (fiber_length + pointer_bits) + nnz * value_bits
    return bits / 8.0


def streaming_refetch_factor(operand_bytes: float, resident_bytes: float, capacity_bytes: float, passes: int) -> float:
    """Off-chip refetch factor of an operand streamed ``passes`` times.

    If the operand fits in the SRAM capacity left after the other resident
    data, it is fetched from DRAM once; otherwise the portion that does not
    fit must be re-fetched on every pass.  The factor interpolates linearly
    between those extremes.
    """
    if operand_bytes <= 0:
        return 1.0
    if passes <= 1:
        return 1.0
    leftover = max(0.0, capacity_bytes - resident_bytes)
    missing_fraction = max(0.0, 1.0 - leftover / operand_bytes)
    return 1.0 + (passes - 1) * missing_fraction
