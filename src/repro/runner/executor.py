"""Sweep execution: partitioning, batched evaluation and worker pools.

The :class:`SweepRunner` executes a :class:`~repro.runner.scenario.SweepPlan`
in three steps:

1. **Partition** -- cells sharing ``(workload, seed, finetuned, layer
   type)`` form one partition (the layer type is the simulators'
   ``layer_type``: ANN baselines walk ANN layers); partitions are
   independent (each starts its own generator from the cell seed), so they
   can run in any order and in any process.
2. **Batch** -- inside a partition the workload is walked *layer-major*:
   each layer is evaluated once and that one evaluation drives every
   simulator of the partition before the next layer is
   touched.  Correctness therefore never depends on the LRU holding more
   than the current layer (a ``maxsize=1`` cache still gets full
   cross-simulator sharing), which bounds peak cache residency.
3. **Execute** -- serially in-process in plan order, or across a
   ``multiprocessing`` pool of ``workers`` processes (``workers >= 2``)
   that is handed the partitions longest first (by :func:`_partition_cost`),
   so the largest network's two variants start at once.  The runner owns
   that pool: it forks it at its first pooled run and reuses it for every
   later one, until :meth:`SweepRunner.close`, the runner's collection or
   interpreter exit ends it (a ``weakref.finalize``).  A run that raises or
   is abandoned mid-stream terminates the pool, so none of its tasks keeps
   running and the next run forks afresh; so does a change to
   ``SIMULATOR_FACTORIES`` or ``ARCH_PRESETS``, which forked workers hold as
   they were at the fork.  A run started while another one still streams
   on the pool gets a pool of its own, ended with it.  Workers keep only
   the layer in hand (:func:`_lean_worker`) and start every task with an
   empty LRU, so no run is served from an earlier run's entries.  The
   runner owns the optional **disk tier** (from ``cache_dir``) below the
   process-wide LRU: the serial path passes it per evaluation, each worker
   process builds one equivalent tier from the picklable ``(directory,
   max_bytes)`` pair in its task payload, and after every layer the
   executor flushes the cache's write-backs so the stored entries carry the
   derived statistics the simulators just computed.

**Lookahead.** A serial run on a process with more than one usable CPU
(:func:`_usable_cpus`) names the partition's next layer in every
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

Each partition's generator is seeded exactly like the historical serial
loops (one fresh ``default_rng(seed)`` per simulator walk), and cache keys
include the generator state, so serial, multi-process and legacy results
are bit-identical -- asserted by ``tests/test_runner.py``.
"""

from __future__ import annotations

import ctypes
import functools
import multiprocessing
import os
import weakref
from typing import Iterator, Sequence

import numpy as np

from ..arch.spec import ARCH_PRESETS
from ..engine import DiskEvaluationCache, default_cache
from ..metrics.results import SimulationResult, aggregate_results
from ..snn.workloads import NetworkWorkload
from .scenario import SIMULATOR_FACTORIES, SweepCell, SweepPlan

__all__ = ["SweepResults", "SweepRunner"]


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
    """Run one partition: all simulators of one ``(workload, seed, finetuned, layer type)`` group.

    The workload is walked layer-major with one generator, seeded exactly
    like the historical per-simulator serial walks, as ``layer_type``
    layers; each layer is evaluated once and every simulator of the
    partition consumes that evaluation before the next layer.

    ``disk`` (the runner's disk tier, or ``None``) is forwarded to
    :meth:`WorkloadEvaluationCache.evaluate`.  After each layer's simulators
    have run, the cache's write-backs are flushed: the evaluation is
    maximally enriched exactly then (statistics, compressions, preprocessed
    variants), so the disk tier stores derived state instead of bare
    tensors.

    ``lookahead`` (a serial run with a CPU to spare) passes the next layer
    to :meth:`WorkloadEvaluationCache.evaluate`, which generates it in the
    background while this layer is simulated.
    """
    workload = cells[0].workload.build()
    finetuned = cells[0].simulator.finetuned
    simulators = [cell.simulator.build() for cell in cells]
    cache = default_cache()
    rng = np.random.default_rng(cells[0].seed)
    layers = [
        simulators[0].layer_type(layer.shape, layer.profile, layer.weight_bits)
        for layer in (workload.layers if isinstance(workload, NetworkWorkload) else [workload])
    ]
    per_cell: list[list[SimulationResult]] = [[] for _ in cells]
    try:
        for position, layer in enumerate(layers):
            upcoming = layers[position + 1] if lookahead and position + 1 < len(layers) else None
            evaluation = cache.evaluate(
                layer, rng, finetuned=finetuned, disk=disk, next_workload=upcoming
            )
            for index, cell in enumerate(cells):
                per_cell[index].append(
                    simulators[index].simulate_workload(
                        layer, evaluation=evaluation, **dict(cell.simulator.kwargs)
                    )
                )
            cache.flush_writebacks()
    finally:
        # Only a partition that raised leaves a lookahead pending.
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


def _lean_worker() -> None:
    """Pool initializer: the worker's LRU keeps only the layer in hand.

    A partition never revisits a layer, so an entry is dead once its layer
    is flushed.  Not in :func:`_pool_task`, which tests call in-process.
    """
    default_cache().resize(1)


def _pool_task(payload) -> tuple[int, list[SimulationResult]]:
    """Worker-process entry point: run one partition over the worker's disk tier.

    The LRU is emptied first: a worker outlives its run, and an entry left
    from an earlier run would be served without being stored in this run's
    tier.  The heap it freed is then handed back (:func:`_trim_heap`).
    """
    ordinal, cells, disk_spec = payload
    default_cache().clear()
    _trim_heap()
    disk = _worker_disk(*disk_spec) if disk_spec is not None else None
    return ordinal, _execute_partition(cells, disk=disk)


def _trim_heap() -> None:
    """Return the freed heap to the OS, where the C library can (glibc).

    A worker outlives its run, and the heap fragments its tasks free would
    otherwise stay resident for every later run: without this, the summed
    resident set of two workers reloading a disk tier measured ~17 MB above
    that of freshly forked ones.
    """
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (AttributeError, OSError, TypeError):
        return
    trim.argtypes, trim.restype = [ctypes.c_size_t], ctypes.c_int
    trim(0)


def _registries() -> tuple[dict, dict]:
    """Copies of the registries a forked worker resolves cells through."""
    return dict(SIMULATOR_FACTORIES), dict(ARCH_PRESETS)


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
        the partitions over a ``multiprocessing`` pool of that size, which
        the runner keeps between runs until :meth:`close` (or the
        runner's collection) ends it.
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
        #: The shared pool (``None`` until the first pooled run), the
        #: registries it was forked with, and the finalizer that ends it.
        self._pool = None
        self._pool_registries = None
        self._release = None
        #: Whether a run is streaming on the shared pool.
        self._pool_busy = False

    def close(self) -> None:
        """End the worker pool, if one runs; a later pooled run forks a new one."""
        if self._release is not None:
            self._release()
        self._pool = self._pool_registries = self._release = None

    def __enter__(self) -> "SweepRunner":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

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
        disk = self.disk_tier
        disk_spec = (str(disk.directory), disk.max_bytes) if disk is not None else None
        payloads = [
            (ordinal, tuple(plan.cells[i] for i in indices), disk_spec)
            for ordinal, indices in enumerate(partitions)
        ]
        # Longest first: the pool hands tasks out in submission order.  The
        # sort is stable, so equal estimates keep plan order.
        payloads.sort(key=lambda payload: -_partition_cost(payload[1]))
        if self._pool_busy:
            # Another run still streams on the shared pool; ending it on a
            # failure here would strand that run's tasks.
            with self._start_pool() as pool:
                for ordinal, results in pool.imap_unordered(_pool_task, payloads):
                    yield ordinal, partitions[ordinal], results
            return
        pool = self._shared_pool()
        self._pool_busy = True
        try:
            completed = pool.imap_unordered(_pool_task, payloads)
            for _ in payloads:
                if self._pool is not pool:
                    # A terminated pool never delivers the rest.
                    raise RuntimeError("the runner was closed while a pooled run was streaming")
                ordinal, results = next(completed)
                yield ordinal, partitions[ordinal], results
        except BaseException:
            # A failed or abandoned run may leave tasks running: end them
            # with the pool, and let the next run fork a fresh one.
            self.close()
            raise
        finally:
            self._pool_busy = False

    def _shared_pool(self):
        """The runner's pool, forked now if none runs or the registries changed."""
        registries = _registries()
        if self._pool is not None and registries != self._pool_registries:
            self.close()
        if self._pool is None:
            self._pool = self._start_pool()
            self._pool_registries = registries
            # Bound to the pool, not the runner: collecting the runner ends
            # the pool, and so does interpreter exit.
            self._release = weakref.finalize(self, self._pool.terminate)
        return self._pool

    def _start_pool(self):
        method = self.mp_context
        if method is None:
            method = "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
        context = multiprocessing.get_context(method)
        return context.Pool(processes=self.workers, initializer=_lean_worker)
