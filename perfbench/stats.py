"""Order statistics the benchmark reports."""

from __future__ import annotations

import math
import statistics

#: Samples a tail percentile must leave beyond it.
TAIL_BEYOND = 10

#: Standard percentiles a tail is chosen from.
LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, rank: float) -> tuple[float, int]:
    """Nearest-rank ``rank``-th percentile and the number of samples beyond it."""
    ordered = sorted(values)
    index = max(0, math.ceil(rank / 100.0 * len(ordered)) - 1)
    return float(ordered[index]), len(ordered) - 1 - index


def tail(values, rank: float, beyond: int = TAIL_BEYOND) -> tuple[float, float, int]:
    """``(value, rank, samples beyond)`` of a tail percentile with ``beyond`` samples past it.

    ``rank`` is the workload's fixed tail percentile, chosen so that its
    usual sample count leaves ``beyond`` samples past it; a fixed rank keeps
    runs with more or fewer requests comparable.  When a run has too few
    samples for it, the highest :data:`LADDER` percentile that still leaves
    ``beyond`` samples is used (the median when none does).
    """
    for candidate in (rank,) + tuple(r for r in LADDER if r < rank):
        value, past = percentile(values, candidate)
        if past >= beyond or candidate == LADDER[-1]:
            return value, candidate, past
    raise AssertionError("unreachable: the ladder ends at the median")
