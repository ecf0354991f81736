"""spMspM dataflow modelling: loop nests and t-placement.

The three classic dual-sparse dataflows (inner product, outer product,
Gustavson) are modelled as analytical loop nests whose access counts express
the paper's Section III observations about where the temporal dimension can
be placed.
"""

from .loopnest import LoopNest, OPERAND_INDICES, all_orders, dataflow_base_order
from .temporal import (
    TemporalPlacement,
    best_placement,
    enumerate_t_placements,
    ftp_loopnest,
)

__all__ = [
    "LoopNest",
    "OPERAND_INDICES",
    "TemporalPlacement",
    "all_orders",
    "best_placement",
    "dataflow_base_order",
    "enumerate_t_placements",
    "ftp_loopnest",
]
