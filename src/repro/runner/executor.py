"""Sweep execution: partitioning, batched evaluation and worker pools.

The :class:`SweepRunner` executes a :class:`~repro.runner.scenario.SweepPlan`
in three steps:

1. **Partition** -- cells sharing ``(workload, seed)`` form one partition;
   partitions are independent (each starts its own per-variant generators
   from the cell seed), so they can run in any order and in any process.
2. **Batch** -- inside a partition the workload is walked *layer-major*:
   each layer is evaluated once per fine-tuning variant and that one
   :class:`~repro.engine.LayerEvaluation` drives every simulator of the
   partition before the next layer is touched.  Correctness therefore never
   depends on the LRU holding more than the current layer (a ``maxsize=1``
   cache still gets full cross-simulator sharing), which bounds peak cache
   residency on very large networks.
3. **Execute** -- serially in-process in plan order, or across a
   ``multiprocessing`` pool (``workers >= 2``) that is handed the partitions
   longest first (by :func:`_partition_cost`), so the largest network does
   not start last and set the critical path alone.  The runner owns the
   optional **disk tier** (from ``cache_dir``) below the process-wide LRU:
   the serial path passes it per evaluation, each worker process builds
   one equivalent tier from the picklable ``(directory, max_bytes)`` pair
   in its task payload, and after every layer the executor flushes the
   cache's write-backs so the stored entries carry the derived statistics
   the simulators just computed.

**Lookahead.** A serial run on a process with more than one usable CPU
(:func:`_usable_cpus`) names each variant's next layer in every
evaluation, so the cache generates it on a background thread while the
current layer is simulated.  Pinned to one CPU the background thread would
only contend for the interpreter lock, so none is started.  Pool workers
never look ahead: each would start a lookahead thread beside the other
workers, a configuration no benchmark has measured.

Execution is **incremental**: :meth:`SweepRunner.iter_partitions` yields each
partition's results the moment they are available (in plan order serially,
in completion order over a pool via ``imap_unordered``), and
:meth:`SweepRunner.run` is merely that stream drained into a
:class:`SweepResults`.  Because partitions are independent and results are
slotted back by cell index, the batch result is bit-identical whichever
order partitions complete in -- :class:`repro.api.Session.stream` builds the
public streaming surface on this hook.

Per-variant generators are seeded exactly like the historical serial loops
(one fresh ``default_rng(seed)`` per simulator walk), and cache keys include
the generator state, so serial, multi-process and legacy results are
bit-identical -- asserted by ``tests/test_runner.py``.
"""

from __future__ import annotations

import functools
import multiprocessing
import os
from typing import Iterator, Sequence

import numpy as np

from ..baselines import ann_layer_tensors
from ..engine import AnnLayerEvaluation, DiskEvaluationCache, default_cache
from ..metrics.results import SimulationResult, aggregate_results
from ..snn.workloads import NetworkWorkload
from .scenario import SweepCell, SweepPlan

__all__ = ["SweepResults", "SweepRunner", "run_ann_network"]


class SweepResults:
    """Results of one executed plan, addressable by cell or as nested dicts."""

    def __init__(self, plan: SweepPlan, results: Sequence[SimulationResult]):
        if len(results) != len(plan.cells):
            raise ValueError("one result per plan cell expected")
        self.plan = plan
        self._ordered: list[tuple[SweepCell, SimulationResult]] = list(
            zip(plan.cells, results)
        )
        self._by_cell = dict(self._ordered)

    def __len__(self) -> int:
        return len(self._ordered)

    def __iter__(self) -> Iterator[tuple[SweepCell, SimulationResult]]:
        return iter(self._ordered)

    def __getitem__(self, cell: SweepCell) -> SimulationResult:
        return self._by_cell[cell]

    def nested(self) -> dict[str, dict[str, SimulationResult]]:
        """``{workload label: {simulator label: result}}`` in plan order.

        Raises when two cells share the same ``(workload label, simulator
        label)`` pair (e.g. one layer swept at several timesteps): a nested
        dict would silently keep only the last result.  Plans like that are
        addressed per cell (``results[cell]``) or per tag
        (``results.tagged(...)``) instead.
        """
        out: dict[str, dict[str, SimulationResult]] = {}
        for cell, result in self._ordered:
            per_workload = out.setdefault(cell.workload.label, {})
            if cell.simulator.label in per_workload:
                raise ValueError(
                    "nested() would collapse duplicate cell (%r, %r); address "
                    "results by cell or by tag instead"
                    % (cell.workload.label, cell.simulator.label)
                )
            per_workload[cell.simulator.label] = result
        return out

    def tagged(self, tag: str) -> list[tuple[SweepCell, SimulationResult]]:
        """The ordered cell results belonging to one sub-sweep tag."""
        return [(cell, result) for cell, result in self._ordered if cell.tag == tag]


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the OS has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _execute_partition(
    cells: Sequence[SweepCell],
    disk: DiskEvaluationCache | None = None,
    lookahead: bool = False,
) -> list[SimulationResult]:
    """Run one partition: all simulators of one ``(workload, seed)`` group.

    The workload is walked layer-major; each layer is evaluated once per
    fine-tuning variant (with that variant's own generator, seeded exactly
    like the historical per-simulator serial walks) and every simulator of
    the partition consumes the shared evaluation before the next layer.

    ``disk`` (the runner's disk tier, or ``None``) is forwarded to
    :meth:`WorkloadEvaluationCache.evaluate`.  After each layer's simulators
    have run, the cache's write-backs are flushed: the evaluation is
    maximally enriched exactly then (statistics, compressions, preprocessed
    variants), so the disk tier stores derived state instead of bare
    tensors.

    ``lookahead`` (a serial run with a CPU to spare) passes each variant's
    next layer to :meth:`WorkloadEvaluationCache.evaluate`, which generates
    it in the background while this layer is simulated.
    """
    workload_spec = cells[0].workload
    seed = cells[0].seed
    workload = workload_spec.build()
    simulators = [cell.simulator.build() for cell in cells]
    cache = default_cache()
    variants = sorted({cell.simulator.finetuned for cell in cells})
    rngs = {variant: np.random.default_rng(seed) for variant in variants}
    layers = workload.layers if isinstance(workload, NetworkWorkload) else [workload]
    per_cell: list[list[SimulationResult]] = [[] for _ in cells]
    try:
        for position, layer in enumerate(layers):
            upcoming = layers[position + 1] if lookahead and position + 1 < len(layers) else None
            evaluations = {
                variant: cache.evaluate(
                    layer, rngs[variant], finetuned=variant, disk=disk, next_workload=upcoming
                )
                for variant in variants
            }
            for index, cell in enumerate(cells):
                per_cell[index].append(
                    simulators[index].simulate_workload(
                        layer,
                        evaluation=evaluations[cell.simulator.finetuned],
                        **dict(cell.simulator.kwargs),
                    )
                )
            cache.flush_writebacks()
    finally:
        # Only a partition that raised leaves a lookahead pending.
        for rng in rngs.values():
            cache.drop_lookahead(rng)
    if isinstance(workload, NetworkWorkload):
        return [
            aggregate_results(results, accelerator=simulators[index].name, workload=workload.name)
            for index, results in enumerate(per_cell)
        ]
    return [results[0] for results in per_cell]


def _partition_cost(cells: Sequence[SweepCell]) -> int:
    """Work estimate of one partition: ``m * k * n * t`` summed over its layers."""
    workload = cells[0].workload.build()
    layers = workload.layers if isinstance(workload, NetworkWorkload) else [workload]
    return sum(layer.shape.m * layer.shape.k * layer.shape.n * layer.shape.t for layer in layers)


def _pool_task(payload) -> tuple[int, list[SimulationResult]]:
    """Worker-process entry point: run one partition over the worker's disk tier."""
    ordinal, cells, disk_spec = payload
    disk = _worker_disk(*disk_spec) if disk_spec is not None else None
    return ordinal, _execute_partition(cells, disk=disk)


@functools.lru_cache(maxsize=1)
def _worker_disk(directory: str, max_bytes: int | None) -> DiskEvaluationCache:
    """The one disk tier a worker process reuses across its partitions."""
    return DiskEvaluationCache(directory, max_bytes=max_bytes)


class SweepRunner:
    """Executes sweep plans serially or across a worker pool.

    Parameters
    ----------
    workers:
        ``None``, 0 or 1 run the plan serially in-process; ``>= 2`` spreads
        the partitions over a ``multiprocessing`` pool of that size.
    cache_dir:
        The shared on-disk evaluation-cache tier: a directory path, or an
        already-constructed :class:`~repro.engine.DiskEvaluationCache` whose
        counters the caller wants to keep (``repro.api.Session`` passes its
        own tier so ``cache stats`` report across runs).  Serial runs pass
        it per evaluation instead of attaching it to the process-wide cache,
        so concurrent in-process runs with different tiers cannot interfere.
    mp_context:
        Optional multiprocessing start-method name (``"fork"`` / ``"spawn"``);
        defaults to ``fork`` where available (POSIX) and ``spawn`` elsewhere.
    """

    def __init__(
        self,
        workers: int | None = None,
        cache_dir=None,
        mp_context: str | None = None,
    ):
        if workers is not None and workers < 0:
            raise ValueError("workers must be non-negative")
        self.workers = workers or 0
        self.mp_context = mp_context
        #: The on-disk tier (``None`` without one); kept as an attribute
        #: because provenance and ``cache stats`` report it.
        self.disk_tier = DiskEvaluationCache.coerce(cache_dir)

    def run(self, plan: SweepPlan) -> SweepResults:
        """Execute every cell of ``plan`` and return the results.

        Drains :meth:`iter_partitions`; because results are slotted back by
        cell index, the outcome does not depend on partition completion
        order.
        """
        results: list[SimulationResult | None] = [None] * len(plan.cells)
        for _, indices, partition_results in self.iter_partitions(plan):
            for index, result in zip(indices, partition_results):
                results[index] = result
        return SweepResults(plan, results)

    def iter_partitions(
        self, plan: SweepPlan
    ) -> Iterator[tuple[int, list[int], list[SimulationResult]]]:
        """Yield ``(ordinal, cell_indices, results)`` per completed partition.

        ``ordinal`` indexes into ``plan.partitions()`` and ``cell_indices``
        are the partition's positions in ``plan.cells``.  Serial runs yield
        in plan order; pool runs yield in completion order
        (``imap_unordered``), so consumers must not assume ordering --
        every partition is yielded exactly once either way.
        """
        partitions = plan.partitions()
        if self.workers >= 2 and len(partitions) > 1:
            return self._iter_pool(plan, partitions)
        return self._iter_serial(plan, partitions)

    # ------------------------------------------------------------------ #
    # Execution backends
    # ------------------------------------------------------------------ #
    def _iter_serial(self, plan: SweepPlan, partitions):
        lookahead = _usable_cpus() > 1
        for ordinal, indices in enumerate(partitions):
            yield ordinal, indices, _execute_partition(
                [plan.cells[i] for i in indices], disk=self.disk_tier, lookahead=lookahead
            )

    def _iter_pool(self, plan: SweepPlan, partitions):
        method = self.mp_context
        if method is None:
            method = "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
        context = multiprocessing.get_context(method)
        disk = self.disk_tier
        disk_spec = (str(disk.directory), disk.max_bytes) if disk is not None else None
        payloads = [
            (ordinal, tuple(plan.cells[i] for i in indices), disk_spec)
            for ordinal, indices in enumerate(partitions)
        ]
        # Longest first: the pool hands tasks out in submission order.  The
        # sort is stable, so equal estimates keep plan order.
        payloads.sort(key=lambda payload: -_partition_cost(payload[1]))
        processes = min(self.workers, len(payloads))
        with context.Pool(processes=processes) as pool:
            for ordinal, results in pool.imap_unordered(_pool_task, payloads):
                yield ordinal, partitions[ordinal], results


def run_ann_network(
    simulators: Sequence,
    network: NetworkWorkload,
    seed: int,
) -> dict[str, SimulationResult]:
    """Batched dual-sparse **ANN** network sweep (Figure 18's baselines).

    The ANN twin of the partition executor: one pass over the layers, one
    shared :class:`~repro.engine.AnnLayerEvaluation` per layer driving every
    simulator, the evaluation released before the next layer.  Tensor
    generation consumes one ``default_rng(seed)`` stream in layer order,
    exactly like the historical implementation.
    """
    rng = np.random.default_rng(seed)
    per_simulator: dict[str, list[SimulationResult]] = {sim.name: [] for sim in simulators}
    for layer in network.layers:
        evaluation = AnnLayerEvaluation(*ann_layer_tensors(layer, rng=rng))
        for simulator in simulators:
            per_simulator[simulator.name].append(
                simulator.simulate_layer(
                    evaluation.activations,
                    evaluation.weights,
                    name=layer.name,
                    evaluation=evaluation,
                )
            )
    return {
        name: aggregate_results(results, accelerator=name, workload=network.name)
        for name, results in per_simulator.items()
    }
