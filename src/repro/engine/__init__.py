"""Shared workload-evaluation engine.

The engine turns workload evaluation into a first-class, cacheable value:

* :class:`~repro.engine.evaluation.LayerEvaluation` computes everything any
  simulator needs from one ``(spikes, weights)`` pair -- packed formats,
  masks, matched positions, full sums, LIF outputs, activity profiles --
  lazily and exactly once (and can ``dehydrate()``/``hydrate()`` that state
  for the disk tier),
* :class:`~repro.engine.statistics.LayerStatistics` is the statistics bundle
  the baseline cost models consume, and
* :class:`~repro.engine.cache.WorkloadEvaluationCache` shares evaluations
  across simulators (and across repeated sweeps) behind an LRU keyed by the
  workload + generator fingerprint, over an optional on-disk
  :class:`~repro.engine.disk_cache.DiskEvaluationCache` that the caller
  passes per evaluation.

``SimulatorBase.simulate_workload`` pulls from the process-wide default
cache, so running five simulators over one figure sweep generates and
analyses each workload once instead of five times.  See ``ROADMAP.md``
("Shared workload-evaluation engine" and "LRU over an optional disk tier")
for how to build a new simulator on top of the engine.
"""

from .backend import CacheEntry, CacheStats, MemoryBackend
from .cache import (
    TENSOR_COUPLED_ARCH_FIELDS,
    WorkloadEvaluationCache,
    clear_default_cache,
    default_cache,
    generator_fingerprint,
    workload_fingerprint,
)
from .disk_cache import DiskEvaluationCache
from .evaluation import AnnLayerEvaluation, LayerEvaluation
from .statistics import LayerStatistics

__all__ = [
    "AnnLayerEvaluation",
    "CacheEntry",
    "CacheStats",
    "DiskEvaluationCache",
    "LayerEvaluation",
    "LayerStatistics",
    "MemoryBackend",
    "WorkloadEvaluationCache",
    "TENSOR_COUPLED_ARCH_FIELDS",
    "clear_default_cache",
    "default_cache",
    "generator_fingerprint",
    "workload_fingerprint",
]
