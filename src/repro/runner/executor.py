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
3. **Execute** -- serially in-process, or across a ``multiprocessing`` pool
   (``workers >= 2``).  The runner owns a **stack of lower cache tiers**
   (the on-disk tier from ``cache_dir``, the network-addressed remote tier
   from ``cache_url``, or any explicit ``backends``): the serial path passes
   the stack per evaluation, worker processes reattach equivalent backends
   from picklable specs after ``fork``/``spawn`` (live backends hold locks
   and sockets and must not cross process boundaries), and after every layer
   the executor flushes the cache's write-backs so the stored entries carry
   the derived statistics the simulators just computed.

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

import multiprocessing
from typing import Iterator, Sequence

import numpy as np

from ..baselines import ann_layer_tensors
from ..engine import (
    AnnLayerEvaluation,
    DiskEvaluationCache,
    RemoteBackend,
    build_backends,
    default_cache,
)
from ..engine.cache import ATTACHED_TIER
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


def _execute_partition(
    cells: Sequence[SweepCell], config, tiers=ATTACHED_TIER
) -> list[SimulationResult]:
    """Run one partition: all simulators of one ``(workload, seed)`` group.

    The workload is walked layer-major; each layer is evaluated once per
    fine-tuning variant (with that variant's own generator, seeded exactly
    like the historical per-simulator serial walks) and every simulator of
    the partition consumes the shared evaluation before the next layer.

    ``tiers`` is forwarded to :meth:`WorkloadEvaluationCache.evaluate`:
    worker processes leave the default (their process-wide attached stack),
    the serial path passes the runner's own tier stack explicitly so
    concurrent in-process runs with different tiers never interfere.  After
    each layer's simulators have run, the cache's write-backs are flushed:
    the evaluation is maximally enriched exactly then (statistics,
    compressions, preprocessed variants), so the lower tiers store derived
    state instead of bare tensors.
    """
    workload_spec = cells[0].workload
    seed = cells[0].seed
    workload = workload_spec.build()
    simulators = [cell.simulator.build(config) for cell in cells]
    cache = default_cache()
    variants = sorted({cell.simulator.finetuned for cell in cells})
    rngs = {variant: np.random.default_rng(seed) for variant in variants}
    layers = workload.layers if isinstance(workload, NetworkWorkload) else [workload]
    per_cell: list[list[SimulationResult]] = [[] for _ in cells]
    for layer in layers:
        evaluations = {
            variant: cache.evaluate(layer, rngs[variant], finetuned=variant, tiers=tiers)
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
    if isinstance(workload, NetworkWorkload):
        return [
            aggregate_results(results, accelerator=simulators[index].name, workload=workload.name)
            for index, results in enumerate(per_cell)
        ]
    return [results[0] for results in per_cell]


def _pool_task(payload) -> tuple[int, list[SimulationResult]]:
    """Worker-process entry point: reattach the tier stack, run one partition."""
    ordinal, cells, config, backend_specs = payload
    _ensure_backends(backend_specs)
    return ordinal, _execute_partition(cells, config)


def _ensure_backends(specs) -> None:
    """Idempotently attach the shared lower-tier stack to this process's cache.

    Worker processes receive picklable backend *specs* rather than live
    backends (which hold locks and sockets): under ``fork`` an inherited
    remote connection would be shared -- and corrupted -- across processes,
    under ``spawn`` nothing survives at all.  Rebuilding from specs gives
    every worker fresh, equivalent tiers; the comparison keeps reattachment
    idempotent across the many partitions one worker may execute.
    """
    if not specs:
        return
    cache = default_cache()
    current = tuple(backend.spec() for backend in cache.lower_backends)
    if current == tuple(specs) and cache.lower_attached_in_process:
        return
    cache.attach_backends(build_backends(specs))


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
        own tier so ``cache stats`` report across runs).
    cache_url:
        The network-addressed evaluation-cache tier: a ``host:port`` of a
        running ``python -m repro cache serve`` daemon, or an
        already-constructed :class:`~repro.engine.RemoteBackend`.  Stacked
        *below* the disk tier (memory, then disk, then remote); an
        unreachable daemon degrades the stack with a single warning.
    backends:
        Explicit lower-tier stack (any
        :class:`~repro.engine.CacheBackend` sequence, top-down), overriding
        the ``cache_dir`` / ``cache_url`` convenience parameters.  Whatever
        the stack, serial runs pass it per evaluation instead of mutating
        the process-wide cache (so concurrent in-process runs with
        different tiers cannot interfere) and worker processes reattach
        equivalent backends from picklable specs after ``fork``/``spawn``.
    mp_context:
        Optional multiprocessing start-method name (``"fork"`` / ``"spawn"``);
        defaults to ``fork`` where available (POSIX) and ``spawn`` elsewhere.
    disk_max_bytes:
        Optional byte budget handed to the disk tier when ``cache_dir`` is a
        path (ignored when an instance is passed -- the instance keeps its
        own budget).
    """

    def __init__(
        self,
        workers: int | None = None,
        cache_dir=None,
        mp_context: str | None = None,
        disk_max_bytes: int | None = None,
        cache_url=None,
        backends=None,
    ):
        if workers is not None and workers < 0:
            raise ValueError("workers must be non-negative")
        self.workers = workers or 0
        self.mp_context = mp_context
        if backends is not None:
            if cache_dir is not None or cache_url is not None:
                raise ValueError("pass either backends or cache_dir/cache_url, not both")
            self.backends = tuple(backends)
        else:
            stack = []
            disk = DiskEvaluationCache.coerce(cache_dir, max_bytes=disk_max_bytes)
            if disk is not None:
                stack.append(disk)
            remote = RemoteBackend.coerce(cache_url)
            if remote is not None:
                stack.append(remote)
            self.backends = tuple(stack)
        #: The first on-disk tier of the stack (``None`` without one); kept
        #: as an attribute because provenance and ``cache stats`` report it.
        self.disk_tier = next(
            (b for b in self.backends if isinstance(b, DiskEvaluationCache)), None
        )
        #: The first remote tier of the stack (``None`` without one).
        self.remote_tier = next(
            (b for b in self.backends if isinstance(b, RemoteBackend)), None
        )
        #: The tier's directory as a plain string (whatever form was passed).
        self.cache_dir = (
            str(self.disk_tier.directory) if self.disk_tier is not None else None
        )
        #: The remote tier's URL as a plain string.
        self.cache_url = self.remote_tier.url if self.remote_tier is not None else None

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
        # The runner's tier stack travels as an explicit evaluate() argument,
        # not by mutating the process-wide cache's attached tiers:
        # interleaved or concurrent in-process runs (streams, threads)
        # therefore cannot detach each other's tiers or leak these into
        # unrelated runs.  Without an own stack, whatever the caller
        # attached globally stays in effect (ATTACHED_TIER).
        tiers = self.backends if self.backends else ATTACHED_TIER
        for ordinal, indices in enumerate(partitions):
            yield ordinal, indices, _execute_partition(
                [plan.cells[i] for i in indices], plan.config, tiers=tiers
            )

    def _iter_pool(self, plan: SweepPlan, partitions):
        method = self.mp_context
        if method is None:
            method = "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
        context = multiprocessing.get_context(method)
        specs = tuple(backend.spec() for backend in self.backends)
        payloads = [
            (ordinal, tuple(plan.cells[i] for i in indices), plan.config, specs)
            for ordinal, indices in enumerate(partitions)
        ]
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
