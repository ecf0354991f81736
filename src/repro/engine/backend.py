"""The in-process LRU level of the evaluation cache and the entry byte format.

* :class:`MemoryBackend` -- the LRU, bounded by entry count, the only level
  holding live :class:`CacheEntry` objects;
  :class:`~repro.engine.cache.WorkloadEvaluationCache` orchestrates
  fingerprinting, generator fast-forwarding and write-back over it and an
  optional :class:`~repro.engine.disk_cache.DiskEvaluationCache`.
* :func:`pack_entry` / :func:`unpack_entry` -- one :class:`CacheEntry` as
  self-contained bytes (the evaluation's ``dehydrate()`` under one
  :mod:`repro.engine.serde` envelope): the disk tier's entry-file format.
* :class:`CacheStats` -- the counter snapshot both levels report.
"""

from __future__ import annotations

import json
import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .evaluation import EVALUATION_KINDS, AnnLayerEvaluation, LayerEvaluation
from .serde import decode_state, encode_state, pack_payload, unpack_payload

__all__ = [
    "CacheEntry",
    "CacheStats",
    "MemoryBackend",
    "pack_entry",
    "unpack_entry",
]


@dataclass(frozen=True)
class CacheStats:
    """Counter snapshot of one cache level.

    Shared by the memory LRU, the disk tier and the orchestrating
    :class:`~repro.engine.cache.WorkloadEvaluationCache`; fields that do
    not apply to a level keep their defaults.

    Attributes
    ----------
    hits / misses:
        Lookups served from / absent from this level since the last reset.
    evictions:
        Entries dropped to respect the level's capacity bound (the LRU's
        ``maxsize``, the disk tier's ``max_bytes``).
    entries:
        Entries currently held.
    disk_hits:
        Evaluation-cache orchestrator only -- lookups absent from the LRU
        but served by the disk tier.  Counted separately from ``misses``
        (which only counts full misses that regenerated tensors), so total
        lookups are ``hits + disk_hits + misses``.
    maxsize:
        Memory LRU only -- the entry-count bound.
    stores:
        Disk tier only -- entries published since the last reset.
    refreshes:
        Disk tier only -- already-stored entries re-published with more
        derived artifacts by the write-back pass (a disk hit the
        simulators enriched; a full miss is stored once, enriched).
    corrupt_dropped:
        Disk tier only -- torn/corrupt entries deleted on load.
    total_bytes:
        Disk tier only -- sum of entry sizes currently held.
    """

    hits: int
    misses: int
    evictions: int
    entries: int
    disk_hits: int = 0
    maxsize: int | None = None
    stores: int = 0
    refreshes: int = 0
    corrupt_dropped: int = 0
    total_bytes: int | None = None

    def as_dict(self) -> dict[str, int]:
        """The populated counters as a plain dict (``None`` fields omitted)."""
        out = {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "entries": self.entries,
        }
        if self.maxsize is not None:
            out["disk_hits"] = self.disk_hits
            out["maxsize"] = self.maxsize
        if self.total_bytes is not None:
            out["stores"] = self.stores
            out["refreshes"] = self.refreshes
            out["corrupt_dropped"] = self.corrupt_dropped
            out["total_bytes"] = self.total_bytes
        return out


@dataclass
class CacheEntry:
    """The value one cache key addresses, in the LRU or on disk.

    ``evaluation`` carries the layer's tensors -- the packed spike words (or
    the ANN activations) and the weights -- plus whatever derived artifacts
    have been computed (see :meth:`LayerEvaluation.dehydrate`);
    ``state_after`` is the post-generation bit-generator state used to
    fast-forward the caller's generator on a hit.
    """

    evaluation: LayerEvaluation | AnnLayerEvaluation
    state_after: dict


def pack_entry(entry: CacheEntry) -> bytes:
    """One entry as self-contained bytes (the disk tier's entry file)."""
    arrays, meta = entry.evaluation.dehydrate()
    arrays = dict(arrays)
    arrays["state"] = np.frombuffer(
        json.dumps(encode_state(entry.state_after)).encode("utf-8"), dtype=np.uint8
    )
    return pack_payload(arrays, meta)


def unpack_entry(data) -> CacheEntry:
    """Inverse of :func:`pack_entry`, over ``bytes`` or a read-only ``mmap``.

    The evaluation keeps the entry's members and decodes each the first
    time something reads it (see :func:`~repro.engine.serde.unpack_payload`
    and :meth:`LayerEvaluation.hydrate`); only the generator ``state``
    member is decoded here.  Raises on a torn/corrupt container or on an
    entry of another schema; the meta ``kind`` picks the class.
    """
    arrays, meta = unpack_payload(data)
    state = decode_state(json.loads(bytes(arrays["state"]).decode("utf-8")))
    evaluation_type = EVALUATION_KINDS.get(meta.get("kind"), LayerEvaluation)
    return CacheEntry(evaluation_type.hydrate(arrays, meta), state)


class MemoryBackend:
    """The in-process LRU level, bounded by entry count.

    Thread-safe behind one lock.  This level alone stores live
    :class:`CacheEntry` objects (no serialisation), so a hit shares the very
    evaluation instance -- and all its memoised statistics -- across
    simulators.
    """

    def __init__(self, maxsize: int = 128):
        if maxsize < 1:
            raise ValueError("maxsize must be at least 1")
        self.maxsize = maxsize
        self._entries: "OrderedDict[tuple, CacheEntry]" = OrderedDict()
        self._lock = threading.RLock()
        self.evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key) -> bool:
        """Whether ``key`` is held; unlike :meth:`get`, the LRU order stays."""
        with self._lock:
            return key in self._entries

    def get(self, key) -> CacheEntry | None:
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
            return entry

    def put(self, key, entry: CacheEntry) -> None:
        with self._lock:
            self._entries[key] = entry
            self._entries.move_to_end(key)
            self._evict_overflow()

    def resize(self, maxsize: int) -> None:
        """Change the entry bound, evicting least-recently-used overflow now."""
        if maxsize < 1:
            raise ValueError("maxsize must be at least 1")
        with self._lock:
            self.maxsize = maxsize
            self._evict_overflow()

    def _evict_overflow(self) -> None:
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
            self.evictions += 1

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.evictions = 0
