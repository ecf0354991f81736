"""Seeded request generators: the only inputs the program receives.

Pure Python (``random.Random`` seeded from a string), so a workload seed
gives the same requests on every host and Python version, and the
orchestrator can build them without importing numpy.
"""

from __future__ import annotations

import itertools
import json
import random

#: The benchmark's workloads, in report order.
WORKLOADS = ("paper-cold", "dse-warm", "tiered-pool")

#: Thread-count variables pinned to 1 in every workload process.
PIN_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")

#: Seed the recorded reference digests belong to.
DEFAULT_SEED = 1

#: Design-point presets drawn by ``dse-warm``.
PRESETS = ("loas-32nm", "loas-32nm-small", "loas-32nm-large")

#: Pure-cost override axes (``pe.timesteps`` is tensor-coupled and excluded).
#: Each request takes at most one override per axis.
AXES = (
    ("pe.num_tppes", 4), ("pe.num_tppes", 64), ("pe.laggy_adders", 8),
    ("memory.global_cache_bytes", 1 << 20), ("memory.dram_bandwidth_gbps", 32.0),
    ("memory.cache_banks", 4),
    ("energy.dram_per_byte", 30.0), ("energy.sram_per_byte", 1.0),
    ("energy.accumulate", 0.2),
)


def _rng(workload: str, seed: int, stream: str) -> random.Random:
    return random.Random("%s/%d/%s" % (workload, seed, stream))


def scenario_seeds(workload: str, seed: int, count: int) -> list[int]:
    """``count`` distinct tensor seeds for the ``networks`` scenario."""
    return _rng(workload, seed, "scenario").sample(range(1, 1_000_000), count)


def _axis(group: str) -> list:
    return [None] + [pair for pair in AXES if pair[0].startswith(group + ".")]


def design_points() -> list[tuple[str, tuple]]:
    """Every ``(preset, overrides)`` point of the grid, in a fixed order."""
    points = []
    for preset, pe, memory, energy in itertools.product(
        PRESETS, _axis("pe"), _axis("memory"), _axis("energy")
    ):
        points.append((preset, tuple(p for p in (pe, memory, energy) if p is not None)))
    return points


def dse_stream(seed: int):
    """Endless seeded stream of design points drawn uniformly from the grid."""
    points = design_points()
    rng = _rng("dse-warm", seed, "points")
    while True:
        yield points[rng.randrange(len(points))]


def request_key(scale: float, seed: int, point=None) -> str:
    """Canonical name of one ``networks`` request (keys the reference digests)."""
    preset, overrides = point if point is not None else ("loas-32nm", ())
    return json.dumps([scale, seed, preset, [list(p) for p in overrides]])
