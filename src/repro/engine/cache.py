"""Workload-evaluation cache: one evaluation per workload fingerprint.

Every figure sweep in the paper drives *several* simulators over the *same*
workloads with the *same* seeds: without sharing, each simulator regenerates
identical random tensors and recomputes identical statistics.  The cache
here makes workload evaluation a first-class, cacheable value.

Cache-key semantics
-------------------
A cached entry is keyed by the exact information that determines the
generated tensors:

* the **workload fingerprint** -- layer dimensions ``(m, k, n, t)``, the
  four sparsity-profile fractions, the weight bit-width and the
  ``finetuned`` flag (workload *names* are deliberately excluded: tensors
  depend only on shape and sparsity), and
* the **generator fingerprint** -- the full ``bit_generator.state`` of the
  :class:`numpy.random.Generator` at the moment of generation.

Keying on the generator state makes the cache exact for *sequences* of
layers: when ``simulate_network`` walks a network with one shared generator,
each layer's key captures the generator position, so two simulators walking
the same network with equal seeds hit the cache layer by layer.  On a hit
the generator is fast-forwarded to the recorded post-generation state, so
the caller's stream of randomness is bit-identical to having regenerated --
downstream draws cannot diverge.

Two levels
----------
:class:`WorkloadEvaluationCache` orchestrates fingerprinting, generator
fast-forwarding and write-back over its own in-process
:class:`~repro.engine.backend.MemoryBackend` LRU and, when the caller
passes one, an on-disk :class:`~repro.engine.DiskEvaluationCache`.  The disk
tier is an explicit argument of :meth:`~WorkloadEvaluationCache.evaluate`,
never state of the cache, so the process-wide cache can be shared by runs
with different tiers (or none).  A disk hit is promoted into the LRU.  A
full miss is published to the disk tier only by :meth:`flush_writebacks`,
once the simulators have *enriched* the evaluation (statistics GEMMs, LIF
outputs, compressions), so each entry is written once and later disk hits
skip that work too (the executor flushes after every layer).

Lookahead
---------
A layer's tensors depend only on its generator's state, not on the
evaluation of the layers before it.  So when a full miss names the
caller's next workload, :meth:`~WorkloadEvaluationCache.evaluate` queues
that workload for generation on the cache's one background worker thread,
from a copy of the caller's generator at its post-generation state.  The
worker runs while some lookahead is pending and ends once none is.  The
next ``evaluate`` whose key matches waits for it and takes its tensors.  Only
``LayerWorkload.generate`` runs off the caller's thread: every LRU put,
counter, disk access and write-back registration stays under the cache's
lock on the caller's thread.

Generated weights are marked non-writeable before they are shared (the
spikes are held only as read-only packed words), so a misbehaving simulator
cannot corrupt other simulators' results.
"""

from __future__ import annotations

import contextlib
import copy
import queue
import threading

import numpy as np
import numpy.random  # noqa: F401 -- eager: numpy loads this lazily, and the
# first simulated workload should not pay the submodule-import cost.

from ..snn.workloads import LayerWorkload
from ..sparse.packed import PackedSpikeMatrix
from .backend import CacheEntry, CacheStats, MemoryBackend
from .disk_cache import DiskEvaluationCache
from .evaluation import LayerEvaluation

__all__ = [
    "CacheStats",
    "TENSOR_COUPLED_ARCH_FIELDS",
    "WorkloadEvaluationCache",
    "arch_tensor_fingerprint",
    "clear_default_cache",
    "default_cache",
    "generator_fingerprint",
    "workload_fingerprint",
]

#: Auto-flush bound: evaluate() flushes the pending write-backs itself once
#: this many accumulate, so callers that never call flush_writebacks()
#: (plain ``simulate_workload`` loops) cannot grow the list without bound.
_DIRTY_FLUSH_THRESHOLD = 64


def _freeze(value):
    """Recursively convert a bit-generator state into a hashable value."""
    if isinstance(value, dict):
        return tuple((key, _freeze(entry)) for key, entry in sorted(value.items()))
    if isinstance(value, np.ndarray):
        return (value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(entry) for entry in value)
    return value


def generator_fingerprint(rng: np.random.Generator):
    """Hashable fingerprint of a generator's exact current state."""
    return _freeze(rng.bit_generator.state)


#: The flat :class:`~repro.arch.spec.ArchSpec` paths whose value can affect
#: the *generated tensors* of a workload (everything else on an arch is a
#: pure cost parameter).  Hardware design points never enter the evaluation
#: cache key directly: when an arch-axis sweep overrides one of these fields,
#: the plan builder couples the value into ``WorkloadSpec.timesteps``, where
#: it joins the *workload* fingerprint below -- so a pure-cost sweep
#: (PE counts, SRAM capacity, energy constants) over N design points reuses
#: one cached evaluation per (layer, variant), while a timestep ablation
#: evaluates once per timestep point, exactly as the tensors require.
TENSOR_COUPLED_ARCH_FIELDS = ("pe.timesteps",)


def arch_tensor_fingerprint(spec) -> tuple:
    """The (tiny) subset of an arch spec that can affect generated tensors.

    See :data:`TENSOR_COUPLED_ARCH_FIELDS`: the provisioned timestep count is
    the only arch knob with a tensor-side twin.  Two specs with equal
    fingerprints here may share every cached evaluation.
    """
    return tuple((path, spec.get(path)) for path in TENSOR_COUPLED_ARCH_FIELDS)


def workload_fingerprint(workload: LayerWorkload, finetuned: bool = False):
    """Hashable fingerprint of everything that determines a workload's tensors."""
    shape = workload.shape
    profile = workload.profile
    return (
        shape.m,
        shape.k,
        shape.n,
        shape.t,
        profile.spike_sparsity,
        profile.silent_fraction,
        profile.silent_fraction_finetuned,
        profile.weight_sparsity,
        workload.weight_bits,
        bool(finetuned),
    )


class _Dirty:
    """One pending write-back: an entry whose evaluation may still change.

    ``baseline`` is the evaluation's derived-state *signature* at
    registration: the flush re-publishes when the signature differs, not
    when a count grows -- simulators both add artifacts (statistics,
    compressions) and deliberately drop them (``compress_output`` frees the
    full sums and LIF outputs it supersedes), and a count cannot see an
    add-and-drop that nets to zero.  The stored entry thereby mirrors the
    warm in-memory state, superseded artifacts included-out.  A full miss
    has no stored entry yet, so its ``baseline`` is ``None`` and the flush
    writes it whatever it holds.  ``disk`` is the tier the entry is written
    back to.
    """

    __slots__ = ("key", "entry", "disk", "baseline")

    def __init__(self, key, entry: CacheEntry, disk: DiskEvaluationCache, stored: bool):
        self.key = key
        self.entry = entry
        self.disk = disk
        self.baseline = entry.evaluation.derived_signature() if stored else None


class _Lookahead:
    """One workload's tensors, generated by the cache's lookahead worker.

    ``key`` is the cache key the tensors belong to.  The worker draws from
    ``rng``, a private copy of the caller's generator, which it leaves at the
    post-generation state the caller is fast-forwarded to when it takes the
    tensors.  ``done`` is set once the worker has finished with it.
    """

    __slots__ = ("key", "rng", "workload", "finetuned", "tensors", "error", "done")

    def __init__(self, key, workload: LayerWorkload, rng: np.random.Generator, finetuned: bool):
        self.key = key
        self.rng = copy.deepcopy(rng)
        self.workload = workload
        self.finetuned = finetuned
        self.tensors = None
        self.error: BaseException | None = None
        self.done = threading.Event()

    def run(self) -> None:
        try:
            self.tensors = self.workload.generate(rng=self.rng, finetuned=self.finetuned)
        except BaseException as exc:  # re-raised on the caller's thread by take()
            self.error = exc
        finally:
            self.done.set()

    def take(self):
        """Wait for the worker; return ``(spikes, weights)`` or re-raise its exception.

        The tensors are copied on the caller's thread and the worker's
        arrays released, so everything the cache keeps is allocated by its
        callers, as without a lookahead, and the worker's malloc arena only
        ever holds generation transients.  The resident set then does not
        depend on how the two threads' allocations interleaved.
        """
        self.done.wait()
        if self.error is not None:
            raise self.error
        spikes, weights = self.tensors
        self.tensors = None
        return PackedSpikeMatrix(spikes.words.copy(), spikes.shape), weights.copy()


class _LookaheadWorker:
    """The one background thread that runs a cache's lookaheads, in order.

    One thread serves every lookahead until none is pending, rather than one
    thread per lookahead: at most one workload is generated beside the
    callers at a time, and every lookahead draws its transients from the
    same per-thread malloc arena instead of whichever arena a new thread
    happened to be given.
    """

    def __init__(self):
        self._queue: queue.SimpleQueue = queue.SimpleQueue()
        self.thread = threading.Thread(target=self._run, name="repro-lookahead", daemon=True)
        self.thread.start()

    def submit(self, lookahead: _Lookahead) -> None:
        self._queue.put(lookahead)

    def stop(self) -> None:
        """Finish the queued lookaheads, then end the thread."""
        self._queue.put(None)
        self.thread.join()

    def _run(self) -> None:
        while (lookahead := self._queue.get()) is not None:
            lookahead.run()


class WorkloadEvaluationCache:
    """An LRU of evaluations keyed by fingerprint, over an optional disk tier.

    ``maxsize`` bounds the number of evaluations the in-process
    :class:`~repro.engine.backend.MemoryBackend` holds (the paper's three
    networks evaluated with and without fine-tuning need ~80 entries).
    The cache is thread-safe: the whole of :meth:`evaluate` -- lookup,
    fast-forward, generation and insertion -- runs under one internal lock,
    so concurrent callers sharing a cache (but not a generator) observe
    consistent entries and counters.  The coarse lock deliberately trades
    cross-thread concurrency for simplicity: the only generation that runs
    beside it is a lookahead (see the module docstring), which touches no
    cache state.  Parallel sweeps scale across *processes*
    (:class:`repro.runner.SweepRunner`), each with its own cache, sharing
    evaluations through the disk tier each call of :meth:`evaluate` names.
    """

    def __init__(self, maxsize: int = 128):
        self._memory = MemoryBackend(maxsize)
        self._lock = threading.RLock()
        self._dirty: list[_Dirty] = []
        #: Pending lookaheads, at most one per caller generator (by ``id``).
        self._lookaheads: dict[int, _Lookahead] = {}
        #: Runs the pending lookaheads; ``None`` while none is pending.
        self._worker: _LookaheadWorker | None = None
        self.hits = 0
        self.misses = 0
        self.disk_hits = 0
        self.lookahead_served = 0

    # ------------------------------------------------------------------ #
    # Introspection / configuration
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._memory)

    @property
    def maxsize(self) -> int:
        """The LRU's entry-count bound."""
        return self._memory.maxsize

    @property
    def evictions(self) -> int:
        """Entries the LRU dropped to respect ``maxsize``."""
        return self._memory.evictions

    @property
    def memory_backend(self) -> MemoryBackend:
        """The in-process LRU level."""
        return self._memory

    def clear(self) -> None:
        """Drop every cached evaluation and reset the hit/miss counters.

        Pending lookaheads are joined and dropped, and so are pending
        write-backs: a full miss not yet flushed never reaches its disk
        tier.  Disk tiers keep the entries they hold (they are the
        cross-process level; clear one explicitly via its own ``clear()``).
        """
        with self._locked():
            self._lookaheads.clear()
            self._memory.clear()
            self._dirty.clear()
            self.hits = 0
            self.misses = 0
            self.disk_hits = 0
            self.lookahead_served = 0

    def drop_lookahead(self, rng: np.random.Generator) -> None:
        """Join and drop the pending lookahead of ``rng``, if it has one."""
        with self._locked():
            lookahead = self._lookaheads.pop(id(rng), None)
            if lookahead is not None:
                lookahead.done.wait()

    @contextlib.contextmanager
    def _locked(self):
        """Hold the lock; on release, end the lookahead worker if none is pending.

        The worker finishes what it was given before it ends, so a caller
        that dropped its lookahead never leaves generation running.
        """
        with self._lock:
            try:
                yield
            finally:
                if not self._lookaheads and self._worker is not None:
                    self._worker.stop()
                    self._worker = None

    def resize(self, maxsize: int) -> None:
        """Change the entry bound, evicting least-recently-used overflow now."""
        self._memory.resize(maxsize)

    def stats(self) -> "CacheStats":
        """Snapshot of the hit/miss/eviction counters and current occupancy."""
        with self._lock:
            return CacheStats(
                hits=self.hits,
                misses=self.misses,
                evictions=self._memory.evictions,
                entries=len(self._memory),
                disk_hits=self.disk_hits,
                maxsize=self._memory.maxsize,
                lookahead_served=self.lookahead_served,
            )

    # ------------------------------------------------------------------ #
    # Evaluation
    # ------------------------------------------------------------------ #
    def evaluate(
        self,
        workload: LayerWorkload,
        rng: np.random.Generator,
        finetuned: bool = False,
        disk: DiskEvaluationCache | None = None,
        next_workload: LayerWorkload | None = None,
    ) -> LayerEvaluation:
        """Return the (possibly cached) evaluation of ``workload``.

        Looks in the LRU, then in ``disk`` (promoting a hit into the LRU),
        and generates on a full miss, publishing the result to the LRU.  A
        full miss reaches ``disk`` only at the next :meth:`flush_writebacks`
        (of this or any later run), already enriched; pending writes survive
        a caller's exception and are dropped unwritten by :meth:`clear`.
        On a hit the generator
        is advanced to the state it would have reached by regenerating, so
        callers sharing one generator across a sequence of layers observe
        bit-identical randomness either way.

        ``next_workload`` names the workload this generator evaluates next.
        On a full miss it starts a lookahead (see the module docstring); a
        later full miss on that key takes its tensors instead of generating,
        and any other call with this generator joins and drops it.
        """
        try:
            key = (workload_fingerprint(workload, finetuned), generator_fingerprint(rng))
        except AttributeError:
            # Custom workload objects without shape/profile fingerprints fall
            # back to uncached generation.
            spikes, weights = workload.generate(rng=rng, finetuned=finetuned)
            return LayerEvaluation(spikes, weights)
        with self._locked():
            lookahead = self._lookaheads.pop(id(rng), None)
            if lookahead is not None and lookahead.key != key:
                lookahead.done.wait()
                lookahead = None
            if len(self._dirty) >= _DIRTY_FLUSH_THRESHOLD:
                self._flush_locked()
            entry = self._memory.get(key)
            if entry is not None:
                self.hits += 1
            elif disk is not None:
                entry = disk.get(key)
                if entry is not None:
                    self.disk_hits += 1
                    self._memory.put(key, entry)
                    # A disk hit may carry less than the simulators are
                    # about to compute (a tensor-only entry, or one from a
                    # run that exercised fewer simulators); remember it so
                    # the write-back pass can upgrade the stored entry.
                    self._dirty.append(_Dirty(key, entry, disk, stored=True))
            if entry is not None:
                if lookahead is not None:
                    lookahead.done.wait()
                rng.bit_generator.state = entry.state_after
                return entry.evaluation
            self.misses += 1
            if lookahead is not None:
                spikes, weights = lookahead.take()
                rng.bit_generator.state = lookahead.rng.bit_generator.state
                self.lookahead_served += 1
            else:
                spikes, weights = workload.generate(rng=rng, finetuned=finetuned)
            weights.setflags(write=False)
            entry = CacheEntry(LayerEvaluation(spikes, weights), rng.bit_generator.state)
            self._memory.put(key, entry)
            if disk is not None:
                self._dirty.append(_Dirty(key, entry, disk, stored=False))
            if next_workload is not None:
                next_key = (
                    workload_fingerprint(next_workload, finetuned),
                    generator_fingerprint(rng),
                )
                lookahead = _Lookahead(next_key, next_workload, rng, finetuned)
                if self._worker is None:
                    self._worker = _LookaheadWorker()
                self._worker.submit(lookahead)
                self._lookaheads[id(rng)] = lookahead
            return entry.evaluation

    # ------------------------------------------------------------------ #
    # Write-back
    # ------------------------------------------------------------------ #
    def flush_writebacks(self) -> int:
        """Publish enriched evaluations to their disk tiers.

        The derived artifacts -- statistics GEMMs, LIF outputs,
        compressions, preprocessed children -- only exist after the
        simulators consumed the evaluation.  Calling this once they have
        (the sweep executor does so after every layer) writes each full
        miss once, with the dehydrated derived state, and refreshes each
        disk hit that gained artifacts; that is what makes disk-warm runs
        skip recomputation.  Disk hits whose evaluation gained nothing are
        dropped silently.  Returns the number of entries written.
        """
        with self._lock:
            return self._flush_locked()

    def _flush_locked(self) -> int:
        flushed = 0
        for dirty in self._dirty:
            if dirty.baseline is None:
                dirty.disk.put(dirty.key, dirty.entry)
                flushed += 1
            elif dirty.entry.evaluation.derived_signature() != dirty.baseline:
                dirty.disk.put(dirty.key, dirty.entry, replace=True)
                flushed += 1
        self._dirty.clear()
        return flushed


_DEFAULT_CACHE = WorkloadEvaluationCache()


def default_cache() -> WorkloadEvaluationCache:
    """The process-wide cache used by ``SimulatorBase.simulate_workload``."""
    return _DEFAULT_CACHE


def clear_default_cache() -> None:
    """Reset the process-wide cache (used by cold-start benchmarks)."""
    _DEFAULT_CACHE.clear()
