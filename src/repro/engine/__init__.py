"""Shared workload-evaluation engine.

The engine turns workload evaluation into a first-class, cacheable value:

* :class:`~repro.engine.evaluation.LayerEvaluation` computes everything any
  simulator needs from one ``(spikes, weights)`` pair -- packed formats,
  masks, matched positions, full sums, LIF outputs, activity profiles --
  lazily and exactly once (and can ``dehydrate()``/``hydrate()`` that state
  for the persistent cache tiers),
* :class:`~repro.engine.statistics.LayerStatistics` is the statistics bundle
  the baseline cost models consume, and
* :class:`~repro.engine.cache.WorkloadEvaluationCache` shares evaluations
  across simulators (and across repeated sweeps) behind an LRU keyed by the
  workload + generator fingerprint, stacked over pluggable
  :class:`~repro.engine.backend.CacheBackend` tiers -- the on-disk
  :class:`~repro.engine.disk_cache.DiskEvaluationCache` and the
  network-addressed :class:`~repro.engine.backend.RemoteBackend` speaking to
  the :mod:`repro.engine.server` daemon.

``SimulatorBase.simulate_workload`` pulls from the process-wide default
cache, so running five simulators over one figure sweep generates and
analyses each workload once instead of five times.  See ``ROADMAP.md``
("Shared workload-evaluation engine" and "cache tiers") for how to build a
new simulator -- or a new cache backend -- on top of the engine.
"""

from .backend import (
    CacheBackend,
    CacheEntry,
    CacheStats,
    MemoryBackend,
    RemoteBackend,
    TieredCache,
    build_backends,
)
from .cache import (
    TENSOR_COUPLED_ARCH_FIELDS,
    WorkloadEvaluationCache,
    arch_tensor_fingerprint,
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
    "CacheBackend",
    "CacheEntry",
    "CacheStats",
    "DiskEvaluationCache",
    "LayerEvaluation",
    "LayerStatistics",
    "MemoryBackend",
    "RemoteBackend",
    "TieredCache",
    "WorkloadEvaluationCache",
    "TENSOR_COUPLED_ARCH_FIELDS",
    "arch_tensor_fingerprint",
    "build_backends",
    "clear_default_cache",
    "default_cache",
    "generator_fingerprint",
    "workload_fingerprint",
]
