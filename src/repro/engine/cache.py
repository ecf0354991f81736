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

Tier stack
----------
:class:`WorkloadEvaluationCache` orchestrates fingerprinting, generator
fast-forwarding and write-back over a stack of
:class:`~repro.engine.backend.CacheBackend` tiers: its own
:class:`~repro.engine.backend.MemoryBackend` LRU on top, then any **lower
tiers** -- the on-disk :class:`~repro.engine.DiskEvaluationCache` and/or a
network-addressed :class:`~repro.engine.backend.RemoteBackend` -- composed
with promote-on-hit by a :class:`~repro.engine.backend.TieredCache`.  A full
miss publishes the freshly generated tensors to every lower tier
immediately; once the simulators have *enriched* the evaluation (statistics
GEMMs, LIF outputs, compressions), :meth:`flush_writebacks` re-publishes the
entry so lower-tier hits skip that work too (the executor flushes after
every layer).

Generated tensors are marked non-writeable before they are shared, so a
misbehaving simulator cannot corrupt other simulators' results.
"""

from __future__ import annotations

import os
import threading

import numpy as np
import numpy.random  # noqa: F401 -- eager: numpy loads this lazily, and the
# first simulated workload should not pay the submodule-import cost.

from ..snn.workloads import LayerWorkload
from .backend import CacheBackend, CacheEntry, CacheStats, MemoryBackend, TieredCache
from .evaluation import LayerEvaluation

__all__ = [
    "ATTACHED_TIER",
    "CacheStats",
    "TENSOR_COUPLED_ARCH_FIELDS",
    "WorkloadEvaluationCache",
    "arch_tensor_fingerprint",
    "clear_default_cache",
    "default_cache",
    "generator_fingerprint",
    "workload_fingerprint",
]

#: Sentinel for :meth:`WorkloadEvaluationCache.evaluate`'s ``tiers``
#: parameter: consult whatever lower tiers are attached to the cache (the
#: default).  Callers that own tiers pass them explicitly instead of
#: attaching them to the process-wide cache -- an explicit stack is
#: thread-safe and cannot leak into unrelated runs.
ATTACHED_TIER = object()

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
    warm in-memory state, superseded artifacts included-out.
    """

    __slots__ = ("key", "entry", "lower", "baseline")

    def __init__(self, key, entry: CacheEntry, lower, baseline: tuple):
        self.key = key
        self.entry = entry
        self.lower = lower
        self.baseline = baseline


class WorkloadEvaluationCache:
    """LRU-topped tier stack of evaluations keyed by fingerprint.

    ``maxsize`` bounds the number of evaluations the in-process
    :class:`~repro.engine.backend.MemoryBackend` holds (the paper's three
    networks evaluated with and without fine-tuning need ~80 entries).
    The cache is thread-safe: the whole of :meth:`evaluate` -- lookup,
    fast-forward, generation and insertion -- runs under one internal lock,
    so concurrent callers sharing a cache (but not a generator) observe
    consistent entries and counters.  The coarse lock deliberately trades
    cross-thread concurrency for simplicity (generation work serialises);
    parallel sweeps scale across *processes* (:class:`repro.runner.SweepRunner`),
    each with its own cache, sharing evaluations through the lower tiers.

    **Lower tiers** (an on-disk
    :class:`~repro.engine.DiskEvaluationCache`, a network-addressed
    :class:`~repro.engine.backend.RemoteBackend`, or any
    :class:`~repro.engine.backend.CacheBackend`) attach with
    :meth:`attach_backends` (or the ``backends`` constructor argument): an
    in-memory miss consults them top-down with promote-on-hit, and a
    full miss publishes the freshly generated tensors back to all of them.
    """

    def __init__(self, maxsize: int = 128, backends=()):
        self._memory = MemoryBackend(maxsize)
        self._lock = threading.RLock()
        self._lower = tuple(backends)
        self._lower_pid = os.getpid()
        self._dirty: list[_Dirty] = []
        self.hits = 0
        self.misses = 0
        self.disk_hits = 0

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
        """The top (in-process LRU) tier."""
        return self._memory

    @property
    def lower_backends(self) -> tuple[CacheBackend, ...]:
        """The attached lower tiers, top-down (empty when none attached)."""
        with self._lock:
            return self._lower

    @property
    def disk_tier(self):
        """The first attached on-disk tier (``None`` when there is none)."""
        from .disk_cache import DiskEvaluationCache

        with self._lock:
            for backend in self._lower:
                if isinstance(backend, DiskEvaluationCache):
                    return backend
        return None

    @property
    def lower_attached_in_process(self) -> bool:
        """Whether the lower tiers were attached by *this* process.

        ``False`` means they arrived through a ``fork`` -- live backends
        hold locks and sockets that must not be shared across processes, so
        worker bootstrap (:func:`repro.runner.executor._ensure_backends`)
        rebuilds equivalent backends from specs instead of reusing them.
        """
        with self._lock:
            return self._lower_pid == os.getpid()

    def attach_backends(self, backends) -> None:
        """Replace the lower-tier stack (pass ``()`` to detach everything)."""
        with self._lock:
            self._lower = tuple(backends)
            self._lower_pid = os.getpid()

    def clear(self) -> None:
        """Drop every cached evaluation and reset the hit/miss counters.

        The lower tiers, if attached, keep their entries (they are the
        cross-process tiers; clear them explicitly via their own
        ``clear()``).
        """
        with self._lock:
            self._memory.clear()
            self._dirty.clear()
            self.hits = 0
            self.misses = 0
            self.disk_hits = 0

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

    # ------------------------------------------------------------------ #
    # Evaluation
    # ------------------------------------------------------------------ #
    def evaluate(
        self,
        workload: LayerWorkload,
        rng: np.random.Generator,
        finetuned: bool = False,
        tiers=ATTACHED_TIER,
    ) -> LayerEvaluation:
        """Return the (possibly cached) evaluation of ``workload``.

        On a cache hit the generator is advanced to the state it would have
        reached by regenerating, so callers sharing one generator across a
        sequence of layers observe bit-identical randomness either way.

        ``tiers`` selects the lower tiers for this call: the default
        :data:`ATTACHED_TIER` uses whatever :meth:`attach_backends`
        installed, an explicit backend or sequence of backends uses that
        stack without touching the attached one (so concurrent callers with
        different tiers cannot interfere), and ``None`` / ``()`` disables
        the lower tiers for this call.
        """
        try:
            key = (workload_fingerprint(workload, finetuned), generator_fingerprint(rng))
        except AttributeError:
            # Custom workload objects without shape/profile fingerprints fall
            # back to uncached generation.
            spikes, weights = workload.generate(rng=rng, finetuned=finetuned)
            return LayerEvaluation(spikes, weights)
        with self._lock:
            lower = self._resolve_lower(tiers)
            if len(self._dirty) >= _DIRTY_FLUSH_THRESHOLD:
                self._flush_locked()
            stack = TieredCache((self._memory,) + lower)
            entry, level = stack.get(key)
            if entry is not None:
                if level == 0:
                    self.hits += 1
                else:
                    self.disk_hits += 1
                    if lower:
                        # A lower-tier hit may carry less than the simulators
                        # are about to compute (a tensor-only entry, or one
                        # from a run that exercised fewer simulators);
                        # remember it so the write-back pass can
                        # upgrade the stored entry in place.
                        self._dirty.append(
                            _Dirty(key, entry, lower, entry.evaluation.derived_signature())
                        )
                rng.bit_generator.state = entry.state_after
                return entry.evaluation
            self.misses += 1
            spikes, weights = workload.generate(rng=rng, finetuned=finetuned)
            spikes.setflags(write=False)
            weights.setflags(write=False)
            entry = CacheEntry(LayerEvaluation(spikes, weights), rng.bit_generator.state)
            stack.put(key, entry)
            if lower:
                self._dirty.append(
                    _Dirty(key, entry, lower, entry.evaluation.derived_signature())
                )
            return entry.evaluation

    def _resolve_lower(self, tiers) -> tuple[CacheBackend, ...]:
        if tiers is ATTACHED_TIER:
            return self._lower
        if tiers is None:
            return ()
        if isinstance(tiers, (list, tuple)):
            return tuple(tiers)
        return (tiers,)

    # ------------------------------------------------------------------ #
    # Write-back
    # ------------------------------------------------------------------ #
    def flush_writebacks(self) -> int:
        """Re-publish enriched evaluations to their lower tiers.

        A full miss publishes tensors immediately, but the derived
        artifacts -- statistics GEMMs, LIF outputs, compressions,
        preprocessed children -- only exist after the simulators consumed
        the evaluation.  Calling this once they have (the sweep executor
        does so after every layer) refreshes the stored entries with the
        dehydrated derived state, which is what makes lower-tier-warm runs
        skip recomputation.  Entries whose evaluation gained nothing are
        dropped silently.  Returns the number of entries re-published.
        """
        with self._lock:
            return self._flush_locked()

    def _flush_locked(self) -> int:
        flushed = 0
        for dirty in self._dirty:
            if dirty.entry.evaluation.derived_signature() != dirty.baseline:
                for backend in dirty.lower:
                    backend.put(dirty.key, dirty.entry, replace=True)
                dirty.entry.packed_cache = None  # bytes shared across tiers only
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
