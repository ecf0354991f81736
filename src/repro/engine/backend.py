"""Composable cache-backend stack below the evaluation LRU.

The evaluation cache used to be a hard-wired two-level arrangement (the
in-process LRU spilling to one ``DiskEvaluationCache``).  This module turns
the levels into interchangeable **backends** speaking one small protocol, so
a cache is now a *stack* -- memory over disk over a network-addressed remote
tier, or any subset -- composed by :class:`TieredCache`:

* :class:`CacheBackend` -- the protocol: ``get`` / ``put`` / ``stats`` /
  ``clear``, plus ``spec()`` (a picklable description worker processes use
  to reattach equivalent backends after ``fork``/``spawn``).
* :class:`MemoryBackend` -- the LRU level, extracted from
  ``WorkloadEvaluationCache`` (which now orchestrates fingerprinting,
  generator fast-forwarding and write-back *over* a stack of these).
* :class:`~repro.engine.disk_cache.DiskEvaluationCache` -- the on-disk
  entry-file tier, re-exported from :mod:`repro.engine`.
* :class:`RemoteBackend` -- a client of the evaluation-cache daemon
  (:mod:`repro.engine.server`), speaking the length-prefixed frame protocol
  from :mod:`repro.engine.serde`.  An unreachable daemon degrades the stack
  to the remaining tiers with a single warning instead of failing the sweep.
* :class:`TieredCache` -- ordered composition with promote-on-hit: a hit at
  tier *i* is re-published to every tier above it, write-through ``put``
  populates all tiers.

The value moving between tiers is a :class:`CacheEntry`; below the memory
level it is serialised with :func:`pack_entry` / :func:`unpack_entry`
(:meth:`LayerEvaluation.dehydrate` under one ``.npz`` envelope), the same
bytes on disk and on the wire.
"""

from __future__ import annotations

import json
import os
import socket
import threading
import warnings
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from .evaluation import LayerEvaluation
from .serde import (
    decode_state,
    encode_state,
    key_digest,
    pack_payload,
    read_frame,
    unpack_payload,
    write_frame,
)

__all__ = [
    "CacheBackend",
    "CacheEntry",
    "CacheStats",
    "MemoryBackend",
    "RemoteBackend",
    "TieredCache",
    "build_backends",
    "pack_entry",
    "unpack_entry",
]


@dataclass(frozen=True)
class CacheStats:
    """Counter snapshot of one cache tier.

    Shared by every backend (memory LRU, disk, remote daemon) and by the
    orchestrating :class:`~repro.engine.cache.WorkloadEvaluationCache`;
    fields that do not apply to a tier keep their defaults.

    Attributes
    ----------
    hits / misses:
        Lookups served from / absent from this tier since the last reset.
    evictions:
        Entries dropped to respect the tier's capacity bound (the LRU's
        ``maxsize``, the disk tier's / daemon's ``max_bytes``).
    entries:
        Entries currently held.
    disk_hits:
        Evaluation-cache orchestrator only -- lookups absent from the LRU
        but served by a lower tier (disk *or* remote).  Counted separately
        from ``misses`` (which only counts full misses that regenerated
        tensors), so total lookups are ``hits + disk_hits + misses``.
    maxsize:
        Memory LRU only -- the entry-count bound.
    stores:
        Persistent tiers only -- entries published since the last reset.
    refreshes:
        Persistent tiers only -- already-stored entries re-published with
        more derived artifacts by the write-back pass.
    corrupt_dropped:
        Persistent tiers only -- torn/corrupt entries deleted on load.
    total_bytes:
        Persistent tiers only -- sum of entry sizes currently held.
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
    """The value one cache key addresses, whichever tier holds it.

    ``evaluation`` carries the generated tensors plus whatever derived
    artifacts have been computed (see :meth:`LayerEvaluation.dehydrate`);
    ``state_after`` is the post-generation bit-generator state used to
    fast-forward the caller's generator on a hit.  ``packed_cache`` memoises
    the serialised form across the tiers of one write-through (see
    :func:`pack_entry`); :class:`TieredCache` drops it once the stack is
    served so entry bytes are not retained alongside the live evaluation.
    """

    evaluation: LayerEvaluation
    state_after: dict
    packed_cache: tuple | None = field(default=None, repr=False, compare=False)


def pack_entry(entry: CacheEntry) -> bytes:
    """One entry as self-contained bytes (disk file == wire payload).

    Write-through stacks serialise each entry once: the packed bytes are
    memoised on the entry keyed by the evaluation's derived-state
    signature, so a disk tier and a remote tier publishing the same entry
    share one ``pack_payload`` pass (bit-packing the dense tensors is the
    expensive step), while an evaluation enriched since the last pack --
    a write-back -- repacks.
    """
    signature = entry.evaluation.derived_signature()
    if entry.packed_cache is not None and entry.packed_cache[0] == signature:
        return entry.packed_cache[1]
    arrays, meta = entry.evaluation.dehydrate()
    arrays = dict(arrays)
    arrays["state"] = np.frombuffer(
        json.dumps(encode_state(entry.state_after)).encode("utf-8"), dtype=np.uint8
    )
    data = pack_payload(arrays, meta)
    # dehydrate() may have rebuilt pending children; re-sign so the memo
    # matches the evaluation's state as serialised.
    entry.packed_cache = (entry.evaluation.derived_signature(), data)
    return data


def unpack_entry(data: bytes) -> CacheEntry:
    """Inverse of :func:`pack_entry`; raises on a torn/corrupt container.

    The dense tensors are deferred (:class:`~repro.engine.serde.DeferredArray`):
    an enriched entry's consumers read the pre-seeded derived arrays, so the
    tensor bytes decode only if something actually touches them.  The entry
    keeps the received bytes as its ``packed_cache``, so promoting a remote
    hit into the disk tier re-publishes them verbatim instead of paying a
    full dehydrate/re-pack (:class:`TieredCache` drops the memo once the
    promotion is done).
    """
    arrays, meta = unpack_payload(data, defer={"spikes", "weights"})
    state = decode_state(json.loads(bytes(arrays.pop("state")).decode("utf-8")))
    entry = CacheEntry(LayerEvaluation.hydrate(arrays, meta), state)
    entry.packed_cache = (entry.evaluation.derived_signature(), data)
    return entry


class CacheBackend:
    """Protocol of one cache tier.

    Concrete backends implement:

    * ``get(key) -> CacheEntry | None`` -- a miss is ``None``; internal
      failures (torn entries, dead connections) degrade to a miss rather
      than raise, so a broken tier never fails the sweep.
    * ``put(key, entry, replace=False)`` -- publish an entry; with
      ``replace`` an existing entry is overwritten (the write-back pass uses
      this to enrich tensor-only entries with derived artifacts).
    * ``stats() -> CacheStats`` and ``clear()``.
    * ``spec()`` -- a picklable ``(kind, ...)`` tuple describing how to
      build an equivalent backend in another process (worker processes
      reattach their tiers from specs after ``fork``/``spawn``; live
      backends hold locks and sockets and must not cross process
      boundaries).  :func:`build_backends` is the inverse.

    Adding a backend is exactly these five methods -- see the "cache tiers"
    section of ``ROADMAP.md`` for the recipe.
    """

    def get(self, key) -> CacheEntry | None:
        raise NotImplementedError

    def put(self, key, entry: CacheEntry, replace: bool = False) -> None:
        raise NotImplementedError

    def stats(self) -> CacheStats:
        raise NotImplementedError

    def clear(self) -> None:
        raise NotImplementedError

    def spec(self) -> tuple:
        raise NotImplementedError


class MemoryBackend(CacheBackend):
    """The in-process LRU level, bounded by entry count.

    Thread-safe behind one lock.  This tier alone stores live
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
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, key) -> CacheEntry | None:
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self.hits += 1
            self._entries.move_to_end(key)
            return entry

    def put(self, key, entry: CacheEntry, replace: bool = False) -> None:
        with self._lock:
            if key in self._entries and not replace:
                self._entries.move_to_end(key)
                return
            self._entries[key] = entry
            self._entries.move_to_end(key)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
                self.evictions += 1

    def resize(self, maxsize: int) -> None:
        """Change the entry bound, evicting least-recently-used overflow now."""
        if maxsize < 1:
            raise ValueError("maxsize must be at least 1")
        with self._lock:
            self.maxsize = maxsize
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
                self.evictions += 1

    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(
                hits=self.hits,
                misses=self.misses,
                evictions=self.evictions,
                entries=len(self._entries),
                maxsize=self.maxsize,
            )

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0
            self.evictions = 0

    def spec(self) -> tuple:
        return ("memory", self.maxsize)


class RemoteBackend(CacheBackend):
    """Client of the network-addressed evaluation-cache daemon.

    Speaks the length-prefixed frame protocol of
    :mod:`repro.engine.server` over one persistent TCP connection (lazily
    opened, transparently re-opened once per operation on failure).  A dead
    or unreachable daemon does **not** fail the sweep: the backend emits a
    single :class:`RuntimeWarning`, marks itself down and answers every
    further lookup as a miss, so the stack degrades to the remaining tiers.

    ``url`` is ``host:port`` (optionally prefixed ``tcp://``); a bare
    ``host`` uses the daemon's default port.
    """

    #: Default daemon port (also used by ``python -m repro cache serve``).
    DEFAULT_PORT = 8737

    def __init__(self, url: str, timeout: float = 5.0):
        self.url = str(url)
        self.timeout = timeout
        self.host, self.port = self._parse(self.url)
        self._sock: socket.socket | None = None
        self._sock_pid: int | None = None
        self._lock = threading.RLock()
        self._down = False
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.refreshes = 0
        self.errors = 0

    def __str__(self) -> str:
        """The backend *is* its URL to string-consuming code (the same
        convention as ``DiskEvaluationCache.__str__`` for its directory)."""
        return self.url

    @staticmethod
    def _parse(url: str) -> tuple[str, int]:
        text = url
        for prefix in ("tcp://", "cache://"):
            if text.startswith(prefix):
                text = text[len(prefix) :]
        host, _, port = text.partition(":")
        if not host:
            raise ValueError("cache URL %r has no host" % (url,))
        return host, int(port) if port else RemoteBackend.DEFAULT_PORT

    @classmethod
    def coerce(cls, cache_url) -> "RemoteBackend | None":
        """``None`` stays ``None``, an existing backend keeps its counters
        and connection, a URL string builds a fresh client (the same triage
        rule as ``DiskEvaluationCache.coerce``)."""
        if cache_url is None:
            return None
        if isinstance(cache_url, cls):
            return cache_url
        return cls(cache_url)

    # ------------------------------------------------------------------ #
    # Connection plumbing
    # ------------------------------------------------------------------ #
    @property
    def alive(self) -> bool:
        """Whether the backend is still in service (not marked down)."""
        return not self._down

    def _connect(self) -> socket.socket:
        sock = socket.create_connection((self.host, self.port), timeout=self.timeout)
        sock.settimeout(self.timeout)
        return sock

    def _mark_down(self, error: BaseException) -> None:
        self._down = True
        self.errors += 1
        warnings.warn(
            "remote evaluation-cache tier %s is unreachable (%s: %s); "
            "continuing with the remaining cache tiers"
            % (self.url, type(error).__name__, error),
            RuntimeWarning,
            stacklevel=4,
        )

    def _request(self, op: bytes, payload: bytes) -> tuple[bytes, bytes] | None:
        """One round-trip; ``None`` when the tier is (or just went) down."""
        with self._lock:
            if self._down:
                return None
            if self._sock is not None and self._sock_pid != os.getpid():
                # A fork inherited this connection: two processes writing
                # interleaved frames on one TCP stream would cross-deliver
                # responses.  Drop the FD (without shutting the parent's
                # connection down) and dial fresh from this process.
                self._sock = None
            for attempt in (0, 1):
                try:
                    if self._sock is None:
                        self._sock = self._connect()
                        self._sock_pid = os.getpid()
                    write_frame(self._sock, op, payload)
                    return read_frame(self._sock)
                except (OSError, ValueError) as error:
                    # Broken pipe / half-open peer: drop the socket and retry
                    # once on a fresh connection before declaring the tier
                    # down (a daemon restart should not cost a whole run).
                    self.close()
                    if attempt:
                        self._mark_down(error)
            return None

    def close(self) -> None:
        """Drop the persistent connection (it re-opens lazily on next use)."""
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    # ------------------------------------------------------------------ #
    # Backend protocol
    # ------------------------------------------------------------------ #
    def get(self, key) -> CacheEntry | None:
        response = self._request(b"G", key_digest(key).encode("ascii"))
        if response is None or response[0] != b"H":
            self.misses += 1
            return None
        try:
            entry = unpack_entry(response[1])
        except Exception:
            # A corrupt frame body counts as a miss; the entry will be
            # regenerated and re-published over the torn one.
            self.misses += 1
            return None
        self.hits += 1
        return entry

    def put(self, key, entry: CacheEntry, replace: bool = False) -> None:
        payload = key_digest(key).encode("ascii") + pack_entry(entry)
        response = self._request(b"R" if replace else b"P", payload)
        if response is not None and response[0] == b"O":
            if replace:
                self.refreshes += 1
            else:
                self.stores += 1

    def server_stats(self) -> CacheStats | None:
        """The daemon's own counters, or ``None`` when unreachable."""
        response = self._request(b"S", b"")
        if response is None or response[0] != b"O":
            return None
        try:
            record = json.loads(response[1].decode("utf-8"))
            return CacheStats(**record)
        except (ValueError, TypeError):
            return None

    def stats(self) -> CacheStats:
        """Daemon-side counters when reachable, client-side ones otherwise."""
        remote = self.server_stats()
        if remote is not None:
            return remote
        return CacheStats(
            hits=self.hits,
            misses=self.misses,
            evictions=0,
            entries=0,
            stores=self.stores,
            refreshes=self.refreshes,
            total_bytes=0,
        )

    def clear(self) -> bool:
        """Ask the daemon to drop its entries; ``True`` when acknowledged.

        ``False`` means the clear never reached the daemon (unreachable or
        timed out) -- callers reporting an irreversible clear to a user
        must check, since a degraded tier swallows the request silently.
        """
        response = self._request(b"C", b"")
        return response is not None and response[0] == b"O"

    def spec(self) -> tuple:
        return ("remote", self.url, self.timeout)


class TieredCache:
    """An ordered stack of backends with promote-on-hit.

    ``get`` consults the tiers top-down and re-publishes a hit into every
    tier above the one that served it (so the next lookup is faster);
    ``put`` writes through to every tier.  Backends that fail internally
    answer as misses, so a degraded tier shrinks the stack instead of
    breaking it.
    """

    def __init__(self, backends):
        self.backends = tuple(backends)

    def __len__(self) -> int:
        return len(self.backends)

    def get(self, key) -> tuple[CacheEntry | None, int]:
        """``(entry, level)`` -- the hit's tier index, or ``(None, -1)``."""
        for level, backend in enumerate(self.backends):
            entry = backend.get(key)
            if entry is not None:
                for upper in self.backends[:level]:
                    upper.put(key, entry)
                entry.packed_cache = None  # bytes reuse ends with the promote
                return entry, level
        return None, -1

    def put(self, key, entry: CacheEntry, replace: bool = False) -> None:
        for backend in self.backends:
            backend.put(key, entry, replace=replace)
        entry.packed_cache = None  # bytes reuse ends with the write-through

    def stats(self) -> list[CacheStats]:
        return [backend.stats() for backend in self.backends]

    def clear(self) -> None:
        for backend in self.backends:
            backend.clear()

    def spec(self) -> tuple:
        return tuple(backend.spec() for backend in self.backends)


def build_backends(specs) -> tuple[CacheBackend, ...]:
    """Rebuild a backend stack from picklable ``spec()`` tuples.

    The inverse of ``[backend.spec() for backend in stack]``; worker
    processes call this after ``fork``/``spawn`` to attach tiers equivalent
    to the parent's (fresh locks, fresh connections).
    """
    from .disk_cache import DiskEvaluationCache  # local: disk_cache imports us

    backends: list[CacheBackend] = []
    for spec in specs:
        kind = spec[0]
        if kind == "memory":
            backends.append(MemoryBackend(maxsize=spec[1]))
        elif kind == "disk":
            backends.append(DiskEvaluationCache(spec[1], max_bytes=spec[2]))
        elif kind == "remote":
            backends.append(RemoteBackend(spec[1], timeout=spec[2]))
        else:
            raise ValueError("unknown cache-backend spec %r" % (spec,))
    return tuple(backends)
