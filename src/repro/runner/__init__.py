"""Scenario-driven sweep orchestration.

The runner subsystem splits every paper sweep into three layers:

* a **scenario layer** (:mod:`repro.runner.scenario`) declaring sweeps as
  data -- :class:`WorkloadSpec` x :class:`SimulatorSpec` x seeds (and,
  via ``SweepPlan.product(archs=...)``, x hardware design points from the
  :class:`repro.arch.ArchSpec` layer) composed into a :class:`SweepPlan`,
  and a registry of named :class:`Scenario` entries covering every figure
  and table of the paper plus the ``dse-*`` design-space sweeps,
* an **execution layer** (:mod:`repro.runner.executor`) -- the
  :class:`SweepRunner` partitions a plan into independent cells, runs them
  serially or across a ``multiprocessing`` pool, and batches network walks
  layer-major so one evaluation per layer drives every simulator, and
* a **cache-tier stack** below both: the in-process LRU
  (:func:`repro.engine.default_cache`) over any
  :class:`repro.engine.CacheBackend` stack -- the shared on-disk
  :class:`repro.engine.DiskEvaluationCache` and/or the network-addressed
  :class:`repro.engine.RemoteBackend`
  (``SweepRunner(cache_dir=..., cache_url=..., backends=...)``).

See the "Sweep orchestration" section of ``ROADMAP.md`` for the
architecture and the how-to-add-a-scenario recipe.
"""

from .executor import SweepResults, SweepRunner, run_ann_network
from .scenario import (
    SIMULATOR_FACTORIES,
    Scenario,
    SimulatorSpec,
    SweepCell,
    SweepPlan,
    WorkloadSpec,
    get_scenario,
    list_scenarios,
    register_scenario,
)

__all__ = [
    "SIMULATOR_FACTORIES",
    "Scenario",
    "SimulatorSpec",
    "SweepCell",
    "SweepPlan",
    "SweepResults",
    "SweepRunner",
    "WorkloadSpec",
    "get_scenario",
    "list_scenarios",
    "register_scenario",
    "run_ann_network",
]
