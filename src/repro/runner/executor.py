"""Sweep execution: partitioning, batched evaluation and worker pools.

The :class:`SweepRunner` executes a :class:`~repro.runner.scenario.SweepPlan`
in three steps:

1. **Partition** -- cells sharing ``(workload, seed, finetuned, layer
   type)`` form one partition (the layer type is the simulators'
   ``layer_type``: ANN baselines walk ANN layers).  Each partition starts
   its own generator from the cell seed, so partitions run in any order,
   on any thread and in any process with bit-identical results.
2. **Batch** -- inside a partition the workload is walked *layer-major*:
   each layer is evaluated once and drives every simulator of the
   partition before the next layer, so correctness never depends on the
   LRU holding more than the current layer.  After every layer the cache's
   write-backs are flushed, so the optional **disk tier** stores the
   derived statistics the simulators just computed.
3. **Execute** -- one dispatcher (:func:`_dispatch`) yields the
   partitions in completion order from the caller's thread and at most one
   helper thread, or from a ``multiprocessing`` pool of ``workers >= 2``
   processes, which both take them longest first (:func:`_longest_first`).
   A raise on any of them stops the partitions not started and reaches the
   caller; a closed or dropped stream ends its helper or pool as well.

**Helper thread.** A serial run gets one helper when the process has a
spare CPU (:func:`_usable_cpus`), the plan has two partitions and some
partition's first layer is in neither the LRU nor the disk tier; a run a
cache tier serves stays on the caller's thread, in plan order, where a
second thread only costs.  Before the first helper starts, the whole
process is pinned to one glibc malloc arena (:func:`_one_malloc_arena`).

**Pool.** The runner forks its pool at its first pooled run and reuses it
until :meth:`SweepRunner.close`, its collection or interpreter exit.  A run
that raises or is abandoned ends the pool, and so does a change to the
registries forked workers hold (``SIMULATOR_FACTORIES``,
``ARCH_PRESETS``); the next run forks afresh.  A run started while another
streams on the pool gets a pool of its own.  Ending a pool kills no worker
(:func:`_end_pool`).  Workers keep only the layer in hand
(:func:`_lean_worker`), start every task with an empty LRU, and build one
disk tier from the ``(directory, max_bytes)`` pair in their task payload.
"""

from __future__ import annotations

import collections
import ctypes
import functools
import multiprocessing
import os
import queue
import threading
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


def _partition_layers(cells: Sequence[SweepCell]):
    """The partition's workload and its layers, rebuilt as the simulators' ``layer_type``."""
    workload = cells[0].workload.build()
    layer_type = SIMULATOR_FACTORIES[cells[0].simulator.key].layer_type
    layers = workload.layers if isinstance(workload, NetworkWorkload) else [workload]
    return workload, [layer_type(layer.shape, layer.profile, layer.weight_bits) for layer in layers]


def _execute_partition(
    cells: Sequence[SweepCell],
    disk: DiskEvaluationCache | None = None,
    built=None,
) -> list[SimulationResult]:
    """Run one partition: all simulators of one ``(workload, seed, finetuned, layer type)`` group.

    The workload is walked layer-major with one generator, seeded exactly
    like the historical per-simulator serial walks.  ``disk`` (the runner's
    disk tier, or ``None``) is forwarded to
    :meth:`WorkloadEvaluationCache.evaluate`, and the cache's write-backs are
    flushed after each layer, when its evaluation is maximally enriched.
    ``built``, where the caller has it, is :func:`_partition_layers` of ``cells``.
    """
    workload, layers = built or _partition_layers(cells)
    finetuned = cells[0].simulator.finetuned
    simulators = [cell.simulator.build() for cell in cells]
    cache = default_cache()
    rng = np.random.default_rng(cells[0].seed)
    per_cell: list[list[SimulationResult]] = [[] for _ in cells]
    for layer in layers:
        evaluation = cache.evaluate(layer, rng, finetuned=finetuned, disk=disk)
        for index, cell in enumerate(cells):
            per_cell[index].append(
                simulators[index].simulate_workload(
                    layer, evaluation=evaluation, **dict(cell.simulator.kwargs)
                )
            )
        cache.flush_writebacks()
    if isinstance(workload, NetworkWorkload):
        return [
            aggregate_results(results, accelerator=simulators[index].name, workload=workload.name)
            for index, results in enumerate(per_cell)
        ]
    return [results[0] for results in per_cell]


def _work_units(plan: SweepPlan, partitions) -> list[tuple[int, tuple[SweepCell, ...]]]:
    """One ``(ordinal, cells)`` work unit per partition, in plan order."""
    return [(ordinal, tuple(plan.cells[i] for i in indices)) for ordinal, indices in enumerate(partitions)]


def _needs_helper(units, disk: DiskEvaluationCache | None) -> bool:
    """A spare CPU, two partitions, and some first layer neither the LRU nor ``disk`` holds."""
    if _usable_cpus() < 2 or len(units) < 2:
        return False
    cache = default_cache()
    return not all(
        cache.holds(layers[0], np.random.default_rng(cells[0].seed), cells[0].simulator.finetuned, disk)
        for _, cells, (_, layers) in units
    )


def _run_next(pending: collections.deque, finished: queue.SimpleQueue, disk) -> None:
    """Put the next pending unit's ``(ordinal, results or exception)`` on ``finished``.

    A unit that raises empties ``pending``, so no unit starts after it.
    """
    try:
        ordinal, cells, built = pending.popleft()
    except IndexError:
        return
    try:
        finished.put((ordinal, _execute_partition(cells, disk=disk, built=built)))
    except BaseException as exc:
        pending.clear()
        finished.put((ordinal, exc))


def _help(pending: collections.deque, finished: queue.SimpleQueue, disk) -> None:
    """The helper thread: run pending units until none is left."""
    while pending:
        _run_next(pending, finished, disk)


def _glibc(name: str, *argtypes):
    """The C library's function ``name`` (glibc's), or ``None`` where it has none."""
    try:
        function = getattr(ctypes.CDLL(None), name)
    except (AttributeError, OSError, TypeError):
        return None
    function.argtypes, function.restype = list(argtypes), ctypes.c_int
    return function


@functools.cache
def _one_malloc_arena() -> None:
    """Pin the whole process to one glibc malloc arena (``M_ARENA_MAX`` = 1), for good.

    glibc gives a new thread its own arena; the helper's raised the resident
    peak of a paper-scale sweep by ~10 MB, by a varying amount per run.  The
    pin cannot be confined to a run: glibc ignores ``M_ARENA_MAX`` = 0 and
    latches the limit the first time a thread asks for an arena (2.36).
    """
    mallopt = _glibc("mallopt", ctypes.c_int, ctypes.c_int)
    if mallopt is not None:
        mallopt(-8, 1)  # M_ARENA_MAX


def _longest_first(units: list) -> list:
    """Units ``(ordinal, cells, ...)`` by falling dense MAC count; ties keep plan order."""
    return sorted(units, key=lambda unit: unit[1][0].workload.build().total_macs(), reverse=True)


def _dispatch(partitions, take, stop):
    """Yield ``(ordinal, partitions[ordinal], results)`` per ``(ordinal, outcome)`` from ``take()``.

    An exception outcome reaches the caller; ``stop(complete)`` ends the slots however the stream ends.
    """
    complete = False
    try:
        for _ in partitions:
            ordinal, outcome = take()
            if isinstance(outcome, BaseException):
                raise outcome
            yield ordinal, partitions[ordinal], outcome
        complete = True
    finally:
        stop(complete)


#: The pool's cancel flag, in a pool worker (set by :func:`_lean_worker`).
_CANCELLED = None


def _lean_worker(cancelled=None) -> None:
    """Pool initializer: keep the pool's cancel flag, and an LRU of one entry.

    A partition never revisits a layer, so an entry is dead once its layer
    is flushed.  Not in :func:`_pool_task`, which tests call in-process.
    """
    global _CANCELLED
    _CANCELLED = cancelled
    default_cache().resize(1)


def _pool_task(payload) -> tuple[int, list[SimulationResult] | None]:
    """Worker-process entry point: run one partition over the worker's disk tier.

    A task of a cancelled pool returns ``None`` without running.  The LRU
    is emptied first: an entry left from an earlier run would be served
    without being stored in this run's tier.  The freed heap is then handed
    back (:func:`_trim_heap`).
    """
    ordinal, cells, disk_spec = payload
    if _CANCELLED is not None and _CANCELLED.is_set():
        return ordinal, None
    default_cache().clear()
    _trim_heap()
    disk = _worker_disk(*disk_spec) if disk_spec is not None else None
    return ordinal, _execute_partition(cells, disk=disk)


def _end_pool(pool, cancelled) -> None:
    """End ``pool``: queued tasks see ``cancelled`` and skip, running ones finish, workers exit.

    Never ``terminate()``: a worker killed while it sends a result leaves the
    result queue's lock held, and the pool's teardown waits on it for ever.
    """
    cancelled.set()
    pool.close()
    pool.join()


def _trim_heap() -> None:
    """Return the freed heap to the OS, where the C library can (glibc).

    A worker outlives its run, and the heap fragments its tasks free would
    otherwise stay resident for every later run: without this, the summed
    resident set of two workers reloading a disk tier measured ~17 MB above
    that of freshly forked ones.
    """
    trim = _glibc("malloc_trim", ctypes.c_size_t)
    if trim is not None:
        trim(0)


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
        #: The shared ``(pool, cancel flag)`` (``None`` until the first pooled
        #: run), the registries it was forked with, and the finalizer ending it.
        self._pool = self._pool_registries = self._release = None
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
        self, plan: SweepPlan, partitions: list[list[int]] | None = None
    ) -> Iterator[tuple[int, list[int], list[SimulationResult]]]:
        """Yield ``(ordinal, cell_indices, results)`` per partition, in completion order.

        ``ordinal`` indexes ``partitions`` (``plan.partitions()``, unless the
        caller has it) and ``cell_indices`` are the partition's positions in
        ``plan.cells``.  Every partition is yielded exactly once.
        """
        if partitions is None:
            partitions = plan.partitions()
        if self.runs_pooled(partitions):
            return self._iter_pool(plan, partitions)
        return self._iter_serial(plan, partitions)

    def runs_pooled(self, partitions: Sequence) -> bool:
        """Whether a plan of these ``partitions`` runs on the pool (else on this process)."""
        return self.workers >= 2 and len(partitions) > 1

    # ------------------------------------------------------------------ #
    # Execution backends
    # ------------------------------------------------------------------ #
    def _iter_serial(self, plan: SweepPlan, partitions):
        disk = self.disk_tier
        units = [(ordinal, cells, _partition_layers(cells)) for ordinal, cells in _work_units(plan, partitions)]
        helped = _needs_helper(units, disk)
        pending, finished = collections.deque(_longest_first(units) if helped else units), queue.SimpleQueue()
        helper = threading.Thread(
            target=_help, args=(pending, finished, disk), name="repro-partition-helper"
        )
        if helped:
            _one_malloc_arena()
            helper.start()

        def take():
            if finished.empty():
                _run_next(pending, finished, disk)
            return finished.get()

        def stop(complete):
            pending.clear()  # the helper ends after its current unit
            if helped:
                helper.join()

        yield from _dispatch(partitions, take, stop)

    def _iter_pool(self, plan: SweepPlan, partitions):
        disk = self.disk_tier
        disk_spec = (str(disk.directory), disk.max_bytes) if disk is not None else None
        payloads = [(ordinal, cells, disk_spec) for ordinal, cells in _longest_first(_work_units(plan, partitions))]
        # While another run streams on the shared pool, ending it would strand that run's tasks.
        one_off = self._pool_busy
        pool, cancelled = self._start_pool() if one_off else self._shared_pool()
        self._pool_busy = True
        completed = pool.imap_unordered(_pool_task, payloads)

        def take():
            if cancelled.is_set():  # the runner was closed: the rest never arrives
                raise RuntimeError("the runner was closed while a pooled run was streaming")
            return next(completed)

        def stop(complete):
            # A failed or abandoned run may leave tasks running: end them
            # with the pool, and let the next run fork a fresh one.
            if one_off:
                _end_pool(pool, cancelled)
            else:
                self._pool_busy = False
                if not complete:
                    self.close()

        yield from _dispatch(partitions, take, stop)

    def _shared_pool(self):
        """The runner's ``(pool, cancel flag)``, forked now if none runs or the registries changed."""
        registries = dict(SIMULATOR_FACTORIES), dict(ARCH_PRESETS)
        if self._pool is not None and registries != self._pool_registries:
            self.close()
        if self._pool is None:
            self._pool = self._start_pool()
            self._pool_registries = registries
            # Bound to the pool, not the runner: collecting the runner ends
            # the pool, and so does interpreter exit.
            self._release = weakref.finalize(self, _end_pool, *self._pool)
        return self._pool

    def _start_pool(self):
        """A new pool of ``workers`` processes and its cancel flag."""
        method = self.mp_context
        if method is None:
            method = "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
        context = multiprocessing.get_context(method)
        cancelled = context.Event()
        pool = context.Pool(processes=self.workers, initializer=_lean_worker, initargs=(cancelled,))
        return pool, cancelled
