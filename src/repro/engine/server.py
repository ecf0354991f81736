"""The network-addressed evaluation-cache daemon (the remote tier's server).

A tiny, dependency-free (stdlib ``socketserver``) cache service holding
packed evaluation entries in memory, so distributed sweeps across machines
-- or repeated CLI runs on one machine -- share a single warm cache without
a shared filesystem.  Start it with::

    python -m repro cache serve --port 8737

and point any surface at it: ``Session(cache_url="host:8737")`` or
``python -m repro run ... --cache-url``.

Protocol
--------
Length-prefixed frames (:func:`repro.engine.serde.read_frame` /
:func:`~repro.engine.serde.write_frame`): one opcode byte plus an 8-byte
big-endian payload length.  The server never interprets entry payloads --
they are the same opaque entry bytes the disk tier stores
(:func:`repro.engine.backend.pack_entry`), keyed by the same SHA-256 digest
(:func:`repro.engine.serde.key_digest`) -- so the daemon stays oblivious to
entry schema versions.

========  ==========================  ==================================
request   payload                     response
========  ==========================  ==================================
``G`` et  64-byte key digest          ``H`` + entry bytes, or ``M`` iss
``P`` ut  digest + entry bytes        ``O`` (stored; no-op if present)
``R`` e-put  digest + entry bytes     ``O`` (stored, overwriting)
``S`` tats   --                       ``O`` + JSON counter record
``C`` lear   --                       ``O``
``?`` ping   --                       ``O``
========  ==========================  ==================================

Unknown opcodes answer ``E`` and close the connection; a client speaking
garbage cannot wedge the daemon.  Entries are evicted least-recently-used
under the optional ``--max-bytes`` budget.
"""

from __future__ import annotations

import json
import socketserver
import sys
import threading
from collections import OrderedDict

from .backend import CacheStats
from .serde import read_frame, write_frame

__all__ = ["EvaluationCacheServer", "serve"]

_DIGEST_LENGTH = 64  # hex SHA-256


class _EntryStore:
    """Thread-safe LRU byte store with counters (the daemon's state)."""

    def __init__(self, max_bytes: int | None = None):
        if max_bytes is not None and max_bytes <= 0:
            raise ValueError("max_bytes must be positive when given")
        self.max_bytes = max_bytes
        self._entries: "OrderedDict[str, bytes]" = OrderedDict()
        self._total_bytes = 0  # running footprint: puts stay O(1), not O(entries)
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.refreshes = 0
        self.evictions = 0

    def get(self, digest: str) -> bytes | None:
        with self._lock:
            payload = self._entries.get(digest)
            if payload is None:
                self.misses += 1
                return None
            self.hits += 1
            self._entries.move_to_end(digest)
            return payload

    def put(self, digest: str, payload: bytes, replace: bool) -> None:
        with self._lock:
            held = self._entries.get(digest)
            if held is not None:
                if not replace:
                    self._entries.move_to_end(digest)
                    return
                self.refreshes += 1
                self._total_bytes -= len(held)
            else:
                self.stores += 1
            self._entries[digest] = payload
            self._entries.move_to_end(digest)
            self._total_bytes += len(payload)
            if self.max_bytes is not None:
                while self._total_bytes > self.max_bytes and len(self._entries) > 1:
                    _, dropped = self._entries.popitem(last=False)
                    self._total_bytes -= len(dropped)
                    self.evictions += 1

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._total_bytes = 0
            self.hits = 0
            self.misses = 0
            self.stores = 0
            self.refreshes = 0
            self.evictions = 0

    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(
                hits=self.hits,
                misses=self.misses,
                evictions=self.evictions,
                entries=len(self._entries),
                stores=self.stores,
                refreshes=self.refreshes,
                total_bytes=self._total_bytes,
            )


class _CacheRequestHandler(socketserver.BaseRequestHandler):
    """One connection: serve frames until the client hangs up."""

    def handle(self) -> None:  # pragma: no cover - exercised via the client
        self.request.settimeout(self.server.io_timeout)
        store: _EntryStore = self.server.store
        while True:
            try:
                op, payload = read_frame(self.request)
            except (ConnectionError, OSError, ValueError):
                return  # client gone or speaking garbage: drop the connection
            try:
                if op == b"G":
                    entry = store.get(payload.decode("ascii"))
                    if entry is None:
                        write_frame(self.request, b"M")
                    else:
                        write_frame(self.request, b"H", entry)
                elif op in (b"P", b"R"):
                    digest = payload[:_DIGEST_LENGTH].decode("ascii")
                    store.put(digest, payload[_DIGEST_LENGTH:], replace=op == b"R")
                    write_frame(self.request, b"O")
                elif op == b"S":
                    record = json.dumps(store.stats().as_dict()).encode("utf-8")
                    write_frame(self.request, b"O", record)
                elif op == b"C":
                    store.clear()
                    write_frame(self.request, b"O")
                elif op == b"?":
                    write_frame(self.request, b"O")
                else:
                    write_frame(self.request, b"E", b"unknown opcode")
                    return
            except OSError:
                return
            except Exception:
                # Garbage inside a well-framed request (e.g. a non-ASCII
                # digest): answer E and drop the connection instead of
                # letting the handler thread die with a traceback.
                try:
                    write_frame(self.request, b"E", b"malformed request")
                except OSError:
                    pass
                return


class EvaluationCacheServer(socketserver.ThreadingTCPServer):
    """The evaluation-cache daemon.

    One instance serves many concurrent clients (thread per connection).
    ``server_address`` follows :class:`socketserver.TCPServer`
    (``("", 0)`` binds an ephemeral port -- handy for tests, which read the
    bound port back from ``server.server_address``).
    """

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, server_address, max_bytes: int | None = None, io_timeout: float = 30.0):
        self.store = _EntryStore(max_bytes=max_bytes)
        self.io_timeout = io_timeout
        super().__init__(server_address, _CacheRequestHandler)

    @property
    def url(self) -> str:
        """The ``host:port`` clients should pass as ``cache_url``."""
        host, port = self.server_address[:2]
        return "%s:%d" % (host or "127.0.0.1", port)

    def start_background(self) -> threading.Thread:
        """Serve from a daemon thread (tests and embedded use)."""
        thread = threading.Thread(target=self.serve_forever, daemon=True)
        thread.start()
        return thread


def serve(
    host: str = "127.0.0.1",
    port: int | None = None,
    max_bytes: int | None = None,
    ready_message: bool = True,
) -> int:
    """Run the daemon in the foreground until interrupted (CLI entry).

    Prints a ``serving on host:port`` line to stderr once the socket is
    bound, so wrappers (CI jobs, launch scripts) can wait for readiness.
    """
    from .backend import RemoteBackend

    if port is None:
        port = RemoteBackend.DEFAULT_PORT
    with EvaluationCacheServer((host, port), max_bytes=max_bytes) as server:
        if ready_message:
            print("evaluation-cache daemon serving on %s" % server.url, file=sys.stderr, flush=True)
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            pass
    return 0
