"""On-disk evaluation-cache tier below the in-process LRU.

Worker processes and repeated CLI runs each start with an empty in-memory
:class:`~repro.engine.backend.MemoryBackend`, so without a shared tier every
process regenerates the same random tensors.  The :class:`DiskEvaluationCache`
is that shared tier: a directory of fingerprint-addressed entry files, one
per ``(workload fingerprint, generator fingerprint)`` cache key.  (The
``.npz`` file suffix is historical: entries are the flat
:mod:`repro.engine.serde` container.)

Entry schema
------------
* **3** (written today) -- ``A`` once, as its packed spike words, the
  weights, the post-generation bit-generator state *and* the other
  dehydrated derived artifacts of the evaluation (matches, full sums, the
  statistics-profile arrays, LIF output spikes, output compressions, one
  level of preprocessed children, each with its own packed words) via
  :meth:`~repro.engine.evaluation.LayerEvaluation.dehydrate`.  A disk-warm
  run therefore skips the matches/full-sums GEMM recomputation, not just
  tensor generation.  A generated entry is published once, by the
  cache's write-back pass after the simulators have enriched the
  evaluation; a disk hit that gains artifacts is **refreshed** (its file
  replaced by a new one).  The ``meta`` record also carries the scalar
  memos the cost models computed (wave-max and merge-round sums, spike and
  weight counts), so a hit recomputes none of them; they are not derived
  artifacts, so a hit that computes a new one is not refreshed.
  The join matrices are stored in their narrow unsigned dtype; entries
  written while they were float64 hydrate with equal values.  Since
  0.21.0 every mostly-zero integer member -- the weights, the packed
  words of parent and child, the compression words, the ANN activations
  -- is stored as a bit-packed non-zero mask plus its non-zero values
  (:mod:`repro.engine.serde`), which shrinks a scale-0.5 ``networks``
  tier from 32.9 to 10.1 MB; the header names each member's form, so
  entries written before (verbatim) hydrate with equal values and no
  schema bump was needed.
* **Older entries** -- schema 2 (which also stored a dense ``spikes``
  tensor) and legacy v1 ``np.savez`` archives -- no longer hydrate: each is
  dropped like any corrupt entry, so it reads as a miss once and the
  regenerated evaluation is re-published as schema 3.

Design constraints:

* **Bit-identity** -- everything is stored losslessly
  (:mod:`repro.engine.serde`), so a disk hit is indistinguishable from
  regeneration.
* **Atomicity** -- entries are written to a temporary file in the cache
  directory and published with :func:`os.replace`, so a concurrent reader
  never observes a partial entry.  An entry file is only ever renamed into
  place or deleted, never rewritten or truncated in place, which is what
  lets a hit map the file instead of reading it (see
  :meth:`DiskEvaluationCache.get`).  A corrupt entry (e.g. a torn write from
  a crashed process, or a container whose meta names artifacts it
  lacks) is deleted and treated as a miss; the workload is simply
  regenerated.
* **Bounded size** -- an optional ``max_bytes`` budget evicts the
  least-recently-used entries (entry files carry their last-hit time as
  mtime).
"""

from __future__ import annotations

import mmap
import os
import tempfile
from pathlib import Path

from .backend import CacheEntry, CacheStats, pack_entry, unpack_entry
from .serde import key_digest

__all__ = ["DiskEvaluationCache"]

_ENTRY_SUFFIX = ".npz"


class DiskEvaluationCache:
    """Keyed on-disk store of evaluated workloads.

    Parameters
    ----------
    directory:
        Where entries live; created if missing.  Safe to share between
        concurrent processes (writes are atomic, readers tolerate and drop
        torn entries).
    max_bytes:
        Optional budget for the sum of entry-file sizes.  When a store
        pushes the directory over the budget, the least-recently-used
        entries are deleted (the most recent entry is always kept, so a
        budget smaller than one entry still caches the current workload).
    """

    def __init__(self, directory: str | os.PathLike, max_bytes: int | None = None):
        if max_bytes is not None and max_bytes <= 0:
            raise ValueError("max_bytes must be positive when given")
        # The directory is created lazily on the first store: constructing a
        # tier (or reading its stats) is a read-only act, so e.g. a CLI
        # `cache stats --cache-dir typo` does not litter the filesystem.
        self.directory = Path(directory)
        if self.directory.exists() and not self.directory.is_dir():
            raise NotADirectoryError("cache directory %s is not a directory" % self.directory)
        self.max_bytes = max_bytes
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.refreshes = 0
        self.corrupt_dropped = 0
        self.evictions = 0

    @classmethod
    def coerce(cls, cache_dir, max_bytes: int | None = None) -> "DiskEvaluationCache | None":
        """The shared ``cache_dir`` triage: ``None`` stays ``None``, an
        existing tier keeps its own budget and counters, and a path builds a
        fresh tier under ``max_bytes``.  Used by every surface that accepts
        a ``cache_dir`` (``SweepRunner``, ``repro.api.Session``) so the
        rules cannot drift apart.
        """
        if cache_dir is None:
            return None
        if isinstance(cache_dir, cls):
            return cache_dir
        return cls(cache_dir, max_bytes=max_bytes)

    # ------------------------------------------------------------------ #
    # Addressing
    # ------------------------------------------------------------------ #
    def entry_path(self, key) -> Path:
        """File holding the entry for ``key`` (exists only after a store).

        The address is :func:`repro.engine.serde.key_digest`.
        """
        return self.directory / (key_digest(key) + _ENTRY_SUFFIX)

    # ------------------------------------------------------------------ #
    # Lookup / publication
    # ------------------------------------------------------------------ #
    def get(self, key) -> CacheEntry | None:
        """The hydrated entry for ``key``, or ``None`` on a miss.

        The entry file is mapped read-only, not read, and hydration decodes
        no member: the evaluation decodes each tensor or derived array the
        first time a cost model reads it (a verbatim member as a view of
        the mapping), so a member no cost model reads -- at a stored
        design point, the weights, the packed words, the compression words
        and the joins -- is never decoded, and its pages are never read.
        Each live hydrated entry holds the mapping, and so one file
        descriptor (the mapping's own duplicate), until the evaluation is
        released.

        Mapping is safe because the tier never changes an entry file in
        place: it writes a new file and renames it over the old one
        (:meth:`put`), or deletes it (:meth:`clear`, eviction, a corrupt
        entry), and a live mapping keeps the old file's pages either way.
        Nothing may truncate an entry file: reading a mapped page past the
        new end raises ``SIGBUS`` and kills the process.

        A corrupt, partially written, empty or older-schema entry counts as
        a miss: the file is deleted so the caller's regeneration can
        re-publish a clean one.  A tier whose directory became a file raises
        ``NotADirectoryError``: no store could succeed there.
        """
        path = self.entry_path(key)
        try:
            with open(path, "rb") as handle:
                # An empty file cannot be mapped (ValueError): a corrupt entry.
                data = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
            entry = unpack_entry(data)
        except FileNotFoundError:
            self.misses += 1
            return None
        except NotADirectoryError:
            raise
        except Exception:
            # Torn write / empty file / bad JSON / meta naming artifacts
            # the container lacks / an older schema: drop the entry.
            self.corrupt_dropped += 1
            self.misses += 1
            try:
                path.unlink()
            except OSError:
                pass
            return None
        self.hits += 1
        try:
            os.utime(path)  # record recency for the byte-budget eviction
        except OSError:
            pass
        return entry

    def put(self, key, entry: CacheEntry, replace: bool = False) -> None:
        """Atomically publish an entry (no-op if present, unless ``replace``)."""
        path = self.entry_path(key)
        if path.exists() and not replace:
            return
        refreshed = replace and path.exists()
        self._write_atomically(path, pack_entry(entry))
        if refreshed:
            self.refreshes += 1
        else:
            self.stores += 1
        if self.max_bytes is not None:
            self._evict_over_budget(keep=path)

    def _write_atomically(self, path: Path, payload: bytes) -> None:
        self.directory.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(payload)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise

    def __str__(self) -> str:
        return str(self.directory)

    # ------------------------------------------------------------------ #
    # Budget / inspection
    # ------------------------------------------------------------------ #
    def _entry_files(self) -> list[Path]:
        return [p for p in self.directory.glob("*" + _ENTRY_SUFFIX) if p.is_file()]

    def _evict_over_budget(self, keep: Path) -> None:
        entries = []
        for path in self._entry_files():
            try:
                stat = path.stat()
            except OSError:
                continue
            entries.append((stat.st_mtime_ns, stat.st_size, path))
        entries.sort()  # oldest first
        total = sum(size for _, size, _ in entries)
        for _, size, path in entries:
            if total <= self.max_bytes:
                break
            if path == keep:
                continue  # never evict the entry just stored
            try:
                path.unlink()
            except OSError:
                continue
            self.evictions += 1
            total -= size

    def total_bytes(self) -> int:
        """Sum of entry-file sizes currently on disk."""
        total = 0
        for path in self._entry_files():
            try:
                total += path.stat().st_size
            except OSError:
                pass
        return total

    def __len__(self) -> int:
        return len(self._entry_files())

    def clear(self) -> None:
        """Delete every entry and reset the counters."""
        for path in self._entry_files():
            try:
                path.unlink()
            except OSError:
                pass
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.refreshes = 0
        self.corrupt_dropped = 0
        self.evictions = 0

    def stats(self) -> CacheStats:
        """Snapshot of the counters plus on-disk occupancy.

        Entry count and byte total come from one directory walk (stats are
        read per run for provenance; two scans would double the cost on
        large tiers).
        """
        entries = 0
        total = 0
        for path in self._entry_files():
            try:
                total += path.stat().st_size
            except OSError:
                continue
            entries += 1
        return CacheStats(
            hits=self.hits,
            misses=self.misses,
            evictions=self.evictions,
            entries=entries,
            stores=self.stores,
            refreshes=self.refreshes,
            corrupt_dropped=self.corrupt_dropped,
            total_bytes=total,
        )

