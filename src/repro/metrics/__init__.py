"""Result containers and plain-text reporting for the experiment harness."""

from .report import format_series, format_sweep, format_table
from .results import SimulationResult, aggregate_results

__all__ = [
    "SimulationResult",
    "aggregate_results",
    "format_series",
    "format_sweep",
    "format_table",
]
