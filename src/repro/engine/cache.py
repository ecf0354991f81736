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
  four sparsity-profile fractions, the weight bit-width, the ``finetuned``
  flag and the workload's ``kind`` (``"snn"`` or ``"ann"``, which picks the
  evaluation class); workload *names* are deliberately excluded: tensors
  depend only on shape and sparsity, and
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

Threads
-------
Callers on several threads may share the cache (a serial run's helper
thread does).  Counters, LRU puts, disk gets and write-back registration
happen under the cache's lock; generation does not.  A caller that misses
on a key another thread is generating waits and takes it as a hit, and
:meth:`~WorkloadEvaluationCache.flush_writebacks` writes only the entries
no other live thread still enriches.

Generated tensors are marked non-writeable before they are shared (the
spikes are held only as read-only packed words), so a misbehaving simulator
cannot corrupt other simulators' results.
"""

from __future__ import annotations

import functools
import os
import threading

import numpy as np
import numpy.random  # noqa: F401 -- eager: numpy loads this lazily, and the
# first simulated workload should not pay the submodule-import cost.

from ..snn.workloads import LayerWorkload
from .backend import CacheEntry, CacheStats, MemoryBackend
from .disk_cache import DiskEvaluationCache
from .evaluation import EVALUATION_KINDS, AnnLayerEvaluation, LayerEvaluation

__all__ = [
    "CacheStats",
    "TENSOR_COUPLED_ARCH_FIELDS",
    "WorkloadEvaluationCache",
    "clear_default_cache",
    "default_cache",
    "generator_fingerprint",
    "workload_fingerprint",
]

#: Auto-flush bound: evaluate() flushes the pending write-backs itself once
#: this many accumulate, so callers that never call flush_writebacks()
#: (plain ``simulate_workload`` loops) cannot grow them without bound.
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
        workload.kind,
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
    back to.  ``holders`` are the threads that took the entry since it was
    registered and may still be enriching it.
    """

    __slots__ = ("entry", "disk", "baseline", "holders")

    def __init__(self, entry: CacheEntry, disk: DiskEvaluationCache, stored: bool):
        self.entry = entry
        self.disk = disk
        self.baseline = entry.evaluation.derived_signature() if stored else None
        self.holders = {threading.current_thread()}


class WorkloadEvaluationCache:
    """An LRU of evaluations keyed by fingerprint, over an optional disk tier.

    ``maxsize`` bounds the number of evaluations the in-process
    :class:`~repro.engine.backend.MemoryBackend` holds (the paper's three
    networks evaluated with and without fine-tuning need ~80 entries).
    The cache is thread-safe for callers that share it but not a generator
    (see the module docstring).  Parallel sweeps beyond two threads scale
    across *processes* (:class:`repro.runner.SweepRunner`), each with its
    own cache, sharing evaluations through the disk tier.
    """

    def __init__(self, maxsize: int = 128):
        self._memory = MemoryBackend(maxsize)
        self._lock = threading.RLock()
        #: Pending write-backs by key.
        self._dirty: dict[tuple, _Dirty] = {}
        #: Keys some thread is generating now, each with the event it sets
        #: when done.
        self._generating: dict[tuple, threading.Event] = {}
        self.hits = self.misses = self.disk_hits = 0

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

        Pending write-backs are dropped too: a full miss not yet flushed
        never reaches its disk tier.  Disk tiers keep the entries they hold
        (they are the cross-process level; clear one explicitly via its own
        ``clear()``).
        """
        with self._lock:
            self._memory.clear()
            self._dirty.clear()
            self.hits = self.misses = self.disk_hits = 0

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
            )

    def holds(self, workload: LayerWorkload, rng, finetuned: bool = False, disk=None) -> bool:
        """Whether the LRU or ``disk`` holds ``workload`` at ``rng``'s state.

        A peek: no counter moves, the LRU order stays, no entry is read.
        """
        key = (workload_fingerprint(workload, finetuned), generator_fingerprint(rng))
        return key in self._memory or (disk is not None and disk.entry_path(key).exists())

    # ------------------------------------------------------------------ #
    # Evaluation
    # ------------------------------------------------------------------ #
    def evaluate(
        self,
        workload: LayerWorkload,
        rng: np.random.Generator,
        finetuned: bool = False,
        disk: DiskEvaluationCache | None = None,
    ) -> LayerEvaluation | AnnLayerEvaluation:
        """Return the (possibly cached) evaluation of ``workload``, of its ``kind``.

        Looks in the LRU, then in ``disk`` (promoting a hit into the LRU),
        and generates on a full miss, publishing the result to the LRU.  A
        full miss reaches ``disk`` only at a later :meth:`flush_writebacks`,
        already enriched; pending writes survive a caller's exception and
        are dropped unwritten by :meth:`clear`.  On a hit the generator is
        advanced to the state it would have reached by regenerating, so
        callers sharing one generator across a sequence of layers observe
        bit-identical randomness either way.
        """
        try:
            key = (workload_fingerprint(workload, finetuned), generator_fingerprint(rng))
        except AttributeError:
            # Custom workload objects without shape/profile fingerprints fall
            # back to uncached generation.
            spikes, weights = workload.generate(rng=rng, finetuned=finetuned)
            return LayerEvaluation(spikes, weights)
        while True:
            with self._lock:
                if len(self._dirty) >= _DIRTY_FLUSH_THRESHOLD:
                    self._flush_locked()
                entry = self._lookup(key, disk)
                if entry is not None:
                    rng.bit_generator.state = entry.state_after
                    return entry.evaluation
                generating = self._generating.get(key)
                if generating is None:
                    self.misses += 1
                    generating = self._generating[key] = threading.Event()
                    break
            # Another thread generates this key: wait, then take its entry.
            generating.wait()
        try:
            first, weights = workload.generate(rng=rng, finetuned=finetuned)
            if isinstance(first, np.ndarray):
                first.setflags(write=False)
            weights.setflags(write=False)
            entry = CacheEntry(EVALUATION_KINDS[workload.kind](first, weights), rng.bit_generator.state)
            with self._lock:
                self._memory.put(key, entry)
                if disk is not None:
                    self._register(key, entry, disk, stored=False)
        finally:
            # On success a waiter finds the entry in the LRU; on failure it
            # generates the key itself.
            with self._lock:
                self._generating.pop(key, None)
            generating.set()
        return entry.evaluation

    def _lookup(self, key, disk: DiskEvaluationCache | None) -> CacheEntry | None:
        """The LRU's entry, else ``disk``'s (promoted); counts the hit."""
        entry = self._memory.get(key)
        if entry is not None:
            self.hits += 1
            if key in self._dirty:
                self._dirty[key].holders.add(threading.current_thread())
        elif disk is not None:
            entry = disk.get(key)
            if entry is not None:
                self.disk_hits += 1
                self._memory.put(key, entry)
                # The simulators may add to what the stored entry carries:
                # the write-back pass then upgrades it.
                self._register(key, entry, disk, stored=True)
        return entry

    def _register(self, key, entry: CacheEntry, disk: DiskEvaluationCache, stored: bool) -> None:
        """Record a pending write-back, or the caller as a holder of the one pending."""
        pending = self._dirty.get(key)
        if pending is None:
            self._dirty[key] = _Dirty(entry, disk, stored)
        else:
            pending.holders.add(threading.current_thread())

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
        dropped silently.  The calling thread is done with its pending
        entries; an entry another live thread took since it was registered
        stays pending until that thread flushes too (or ends: the pending
        writes of a thread that raised reach disk at a later flush).
        Returns the number of entries written.
        """
        with self._lock:
            return self._flush_locked()

    def _flush_locked(self) -> int:
        flushed = 0
        caller = threading.current_thread()
        for key, dirty in list(self._dirty.items()):
            dirty.holders.discard(caller)
            if any(thread.is_alive() for thread in dirty.holders):
                continue
            del self._dirty[key]
            if dirty.baseline is None:
                dirty.disk.put(key, dirty.entry)
                flushed += 1
            elif dirty.entry.evaluation.derived_signature() != dirty.baseline:
                dirty.disk.put(key, dirty.entry, replace=True)
                flushed += 1
        return flushed


_DEFAULT_CACHE = WorkloadEvaluationCache()


def default_cache() -> WorkloadEvaluationCache:
    """The process-wide cache used by ``SimulatorBase.simulate_workload``."""
    return _DEFAULT_CACHE


def clear_default_cache() -> None:
    """Reset the process-wide cache (used by cold-start benchmarks)."""
    _DEFAULT_CACHE.clear()


def _after_fork_in_child() -> None:
    """New locks, and no generation in flight, in a forked child.

    The parent may fork while another thread (a serial run's helper) holds a
    lock or generates; that thread does not exist in the child.  Before
    Python 3.12 each cached property of the evaluations holds a lock too.
    """
    _DEFAULT_CACHE._lock, _DEFAULT_CACHE._memory._lock = threading.RLock(), threading.RLock()
    _DEFAULT_CACHE._generating = {}
    for evaluation_type in EVALUATION_KINDS.values():
        for attribute in vars(evaluation_type).values():
            if isinstance(attribute, functools.cached_property) and hasattr(attribute, "lock"):
                attribute.lock = threading.RLock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_after_fork_in_child)
