"""Span tracing from outside the program: wrap each layer's entry points.

:class:`Tracer` patches the public functions and methods of the ``repro``
layers (including the ``cached_property`` stages of ``LayerEvaluation``)
with wrappers that record one span per call: name, start, end, the
enclosing span, the process and the benchmark request it served, plus a
few counters read around the call.  :meth:`Tracer.uninstall` puts every
original object back.

Forked pool workers inherit the wrappers.  Their spans are written to one
file per process (``spans-<pid>.jsonl`` under ``span_dir``) before each
task returns, and :meth:`Tracer.collect` merges them into the parent's.

:func:`per_layer` turns the spans into the per-layer metrics.  A span's
self time is its duration minus the part of it its children cover.  Worker
task spans are roots of their own process, so the self times of all spans
add up to the request's *tree time*: the parent's wall time plus the time
worker processes spent on its tasks.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from pathlib import Path

__all__ = ["PER_LAYER_UNITS", "Span", "Tracer", "per_layer", "request_totals", "self_times"]

#: The simulator cells of the ``networks`` scenario, by label.
SIM_LABELS = ("LoAS", "LoAS-FT", "SparTen-SNN", "GoSPA-SNN", "Gamma-SNN")

#: Evaluation stages timed per call (cached properties and memoised methods).
STAGES = (
    "packed_words", "matches", "full_sums", "statistics",
    "output_spikes", "compress_output", "preprocessed",
)

#: Spans whose self time is reported under ``<name>.self_s``; the self time
#: of any other span (the request root, worker task bootstrap) is the
#: unaccounted remainder.
SELF_TIMED = (
    ("snn.generate",)
    + tuple("engine.evaluation." + stage for stage in STAGES)
    + ("engine.evaluation.hydrate", "engine.evaluation.dehydrate",
       "engine.serde.pack_entry", "engine.serde.unpack_entry",
       "engine.disk.get", "engine.disk.put",
       "engine.cache.evaluate", "engine.cache.flush")
    + tuple("sim.%s.simulate_layer" % label for label in SIM_LABELS)
    + ("arch.resolve", "runner.plan", "runner.partition", "runner.pool", "api.run")
)

#: Spans whose per-request call count is reported under ``<name>.calls``.
COUNTED = (
    ("snn.generate",)
    + tuple("engine.evaluation." + stage for stage in STAGES)
    + ("engine.disk.get", "engine.disk.put", "engine.cache.evaluate")
    + tuple("sim.%s.simulate_layer" % label for label in SIM_LABELS)
    + ("arch.resolve",)
)

#: Every per-layer metric name with its unit, in report order.
PER_LAYER_UNITS = dict(
    [(name + ".self_s", "s") for name in SELF_TIMED]
    + [(name + ".calls", "count") for name in COUNTED]
    + [
        ("engine.evaluation.resident_mb", "MB"),
        ("engine.disk.hits", "count"),
        ("engine.disk.bytes_read", "MB"),
        ("engine.disk.bytes_written", "MB"),
        ("engine.disk.corrupt_dropped", "count"),
        ("engine.cache.lru_hits", "count"),
        ("engine.cache.lower_hits", "count"),
        ("engine.cache.misses", "count"),
        ("engine.cache.hit_ratio", "ratio"),
        ("engine.cache.refreshes", "count"),
        ("runner.partitions", "count"),
        ("runner.partition.busy_s", "s"),
        ("runner.pool.startup_s", "s"),
        ("runner.pool.queue_wait_s", "s"),
        ("runner.pool.critical_path_s", "s"),
        ("runner.pool.idle_frac", "ratio"),
        ("api.requests", "count"),
        ("api.failed", "count"),
        ("trace.requests", "count"),
        ("trace.request_s", "s"),
        ("trace.tree_s", "s"),
        ("trace.unaccounted_s", "s"),
        ("trace.overhead_frac", "ratio"),
    ]
)


class Span:
    """One timed call.  ``parent`` is the enclosing span's ``ident`` in the same process."""

    __slots__ = ("ident", "parent", "name", "start", "end", "pid", "request", "attrs")

    def __init__(self, ident, parent, name, start, end=None, pid=0, request=None, attrs=None):
        self.ident = ident
        self.parent = parent
        self.name = name
        self.start = start
        self.end = end
        self.pid = pid
        self.request = request
        self.attrs = attrs or {}

    def to_json(self) -> list:
        return [self.ident, self.parent, self.name, self.start, self.end,
                self.pid, self.request, self.attrs]

    @classmethod
    def from_json(cls, row) -> "Span":
        return cls(*row)


class Tracer:
    """Records spans around the ``repro`` layer entry points while installed.

    ``span_dir`` receives the per-process span files of forked workers; it
    must exist before the first pooled request.
    """

    def __init__(self, span_dir):
        self.span_dir = Path(span_dir)
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.request = None
        self.pid = os.getpid()
        self._next = 0
        self._patches: list[tuple[object, str, object]] = []
        self._cached: list[tuple[object, object]] = []

    # ------------------------------------------------------------------ #
    # Span recording
    # ------------------------------------------------------------------ #
    def open(self, name: str) -> Span:
        self._next += 1
        parent = self.stack[-1].ident if self.stack else None
        span = Span(self._next, parent, name, time.perf_counter(),
                    pid=self.pid, request=self.request)
        self.stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self.stack.pop()
        self.spans.append(span)

    def _enter_child_process(self) -> None:
        """First call in a forked worker: drop what the parent had recorded."""
        if os.getpid() != self.pid:
            self.pid = os.getpid()
            self.spans = []
            self.stack = []

    def export(self) -> None:
        """Append this process's finished spans to its span file."""
        path = self.span_dir / ("spans-%d.jsonl" % self.pid)
        with open(path, "a") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.to_json()) + "\n")
        self.spans = []

    def collect(self) -> list[Span]:
        """This process's spans plus every worker span file, which are consumed."""
        spans, self.spans = self.spans, []
        for path in sorted(self.span_dir.glob("spans-*.jsonl")):
            with open(path) as handle:
                spans.extend(Span.from_json(json.loads(line)) for line in handle)
            path.unlink()
        return spans

    # ------------------------------------------------------------------ #
    # Wrapping
    # ------------------------------------------------------------------ #
    def wrap(self, function, name, probe=None, worker_root=False):
        """A wrapper recording a span around ``function``.

        ``name`` is a string or a callable of the call's arguments.  A call
        nested directly in a span of the same name is folded into it.
        ``probe(args, kwargs)`` runs before the span opens and returns a
        callable of the result giving the span's counters, read after it
        closes.  A ``worker_root`` wrapper resets a forked worker's state
        and exports its spans after each call.
        """
        tracer = self

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            if worker_root:
                tracer._enter_child_process()
            label = name(*args, **kwargs) if callable(name) else name
            if tracer.stack and tracer.stack[-1].name == label:
                return function(*args, **kwargs)
            finish = probe(args, kwargs) if probe is not None else None
            span = tracer.open(label)
            try:
                result = function(*args, **kwargs)
            except BaseException:
                span.attrs["failed"] = 1
                raise
            finally:
                tracer.close(span)
                if worker_root:
                    tracer.export()
            if finish is not None:
                span.attrs.update(finish(result))
            return result

        return wrapper

    def _wrap_generator(self, function, name, attrs):
        tracer = self

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            span = tracer.open(name)
            span.attrs.update(attrs(*args, **kwargs))
            try:
                yield from function(*args, **kwargs)
            finally:
                tracer.close(span)

        return wrapper

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                              else getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _patch_method(self, cls, attr: str, name, probe=None) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            self._patch(cls, attr, classmethod(self.wrap(raw.__func__, name, probe)))
        else:
            self._patch(cls, attr, self.wrap(raw, name, probe))

    def _patch_function(self, module_name: str, attr: str, name, probe=None, **options) -> None:
        """Replace a function in its module and in every ``repro`` module importing it."""
        original = getattr(sys.modules[module_name], attr)
        wrapper = self.wrap(original, name, probe, **options)
        for mod_name, module in sorted(sys.modules.items()):
            if (mod_name == "repro" or mod_name.startswith("repro.")) and \
                    getattr(module, attr, None) is original:
                self._patch(module, attr, wrapper)

    def _patch_cached(self, cls, attr: str, name) -> None:
        descriptor = cls.__dict__[attr]
        self._cached.append((descriptor, descriptor.func))
        descriptor.func = self.wrap(descriptor.func, name)

    def install(self) -> None:
        """Wrap every layer entry point (``repro`` must be importable)."""
        if self._patches or self._cached:
            raise RuntimeError("tracer already installed")
        from repro.api.session import Session
        from repro.arch.spec import ArchSpec
        from repro.core.config import LoASConfig
        from repro.engine.cache import WorkloadEvaluationCache
        from repro.engine.disk_cache import DiskEvaluationCache
        from repro.engine.evaluation import LayerEvaluation
        from repro.runner import executor
        from repro.runner.scenario import SIMULATOR_FACTORIES, SweepPlan
        from repro.snn.workloads import LayerWorkload

        self._patch_method(LayerWorkload, "generate", "snn.generate")
        for stage in STAGES:
            if isinstance(LayerEvaluation.__dict__[stage], functools.cached_property):
                self._patch_cached(LayerEvaluation, stage, "engine.evaluation." + stage)
            else:
                self._patch_method(LayerEvaluation, stage, "engine.evaluation." + stage)
        self._patch_method(LayerEvaluation, "hydrate", "engine.evaluation.hydrate")
        self._patch_method(LayerEvaluation, "dehydrate", "engine.evaluation.dehydrate")
        self._patch_function("repro.engine.backend", "pack_entry", "engine.serde.pack_entry",
                             probe=lambda args, kwargs: lambda data: {"bytes": len(data)})
        self._patch_function("repro.engine.backend", "unpack_entry", "engine.serde.unpack_entry",
                             probe=lambda args, kwargs: lambda entry: {"bytes": len(args[0])})
        self._patch_method(DiskEvaluationCache, "get", "engine.disk.get",
                           probe=_counter_probe("hits", "corrupt_dropped"))
        self._patch_method(DiskEvaluationCache, "put", "engine.disk.put")
        self._patch_method(WorkloadEvaluationCache, "evaluate", "engine.cache.evaluate",
                           probe=_counter_probe("hits", "disk_hits", "misses"))
        self._patch_method(WorkloadEvaluationCache, "flush_writebacks", "engine.cache.flush",
                           probe=lambda args, kwargs: lambda flushed: {"refreshes": flushed})
        for key in ("SparTen-SNN", "GoSPA-SNN", "Gamma-SNN", "LoAS"):
            self._patch_method(SIMULATOR_FACTORIES[key], "simulate_layer", _simulator_span)
        self._patch_function("repro.arch.spec", "resolve_arch", "arch.resolve")
        self._patch_method(ArchSpec, "with_overrides", "arch.resolve")
        self._patch_method(LoASConfig, "__init__", "arch.resolve")
        self._patch_method(SweepPlan, "product", "runner.plan")
        self._patch_method(SweepPlan, "partitions", "runner.plan")
        self._patch_function("repro.runner.executor", "_execute_partition", "runner.partition")
        self._patch_function("repro.runner.executor", "_pool_task", "runner.task",
                             worker_root=True)
        self._patch(executor.SweepRunner, "_iter_pool", self._wrap_generator(
            executor.SweepRunner._iter_pool, "runner.pool",
            lambda runner, plan, partitions: {"processes": min(runner.workers, len(partitions))}))
        self._patch_method(Session, "run", "api.run")

    def uninstall(self) -> None:
        """Put back every patched attribute, newest first."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        for descriptor, function in reversed(self._cached):
            descriptor.func = function
        self._patches = []
        self._cached = []


def _counter_probe(*counters):
    """Probe recording how much each instance counter grew during the call."""

    def probe(args, kwargs):
        instance = args[0]
        before = [getattr(instance, counter) for counter in counters]
        return lambda result: {
            counter: getattr(instance, counter) - value
            for counter, value in zip(counters, before)
        }

    return probe


def _simulator_span(simulator, *args, **kwargs) -> str:
    suffix = "-FT" if kwargs.get("preprocess") else ""
    return "sim.%s%s.simulate_layer" % (simulator.name, suffix)


# ---------------------------------------------------------------------- #
# Arithmetic over recorded spans
# ---------------------------------------------------------------------- #
def _covered(intervals) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans) -> dict[tuple, float]:
    """Self time of every span, keyed by ``(pid, ident)``.

    A span's self time is its duration minus the union of its children's
    intervals clipped to it.
    """
    children: dict[tuple, list] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault((span.pid, span.parent), []).append(span)
    result = {}
    for span in spans:
        inner = [
            (max(child.start, span.start), min(child.end, span.end))
            for child in children.get((span.pid, span.ident), ())
            if child.end > span.start and child.start < span.end
        ]
        result[(span.pid, span.ident)] = (span.end - span.start) - _covered(inner)
    return result


def _pool_metrics(spans) -> dict[str, float]:
    """Pool start-up, queue wait, longest task and idle share of one request."""
    pools = [span for span in spans if span.name == "runner.pool"]
    if not pools:
        return {}
    pool = pools[0]
    tasks = [span for span in spans if span.name == "runner.task"]
    if not tasks:
        return {}
    wall = pool.end - pool.start
    busy = sum(task.end - task.start for task in tasks)
    processes = pool.attrs.get("processes", 1)
    return {
        "runner.pool.startup_s": min(task.start for task in tasks) - pool.start,
        "runner.pool.queue_wait_s": sum(task.start - pool.start for task in tasks) / len(tasks),
        "runner.pool.critical_path_s": max(task.end - task.start for task in tasks),
        "runner.pool.idle_frac": 1.0 - busy / (processes * wall) if wall > 0 else 0.0,
    }


def request_totals(spans) -> dict[str, float]:
    """Per-layer totals of one traced request from its spans (all processes).

    The spans must include the benchmark's ``request`` root.  The self
    times of the named spans plus ``trace.unaccounted_s`` equal
    ``trace.tree_s``.
    """
    totals = dict.fromkeys(PER_LAYER_UNITS, 0.0)
    selfs = self_times(spans)
    named = 0.0
    for span in spans:
        own = selfs[(span.pid, span.ident)]
        if span.name + ".self_s" in totals:
            totals[span.name + ".self_s"] += own
            named += own
        if span.name + ".calls" in totals:
            totals[span.name + ".calls"] += 1
    root = next(span for span in spans if span.name == "request")
    tree = sum(span.end - span.start for span in spans if span.parent is None)
    totals["trace.request_s"] = root.end - root.start
    totals["trace.tree_s"] = tree
    totals["trace.unaccounted_s"] = tree - named
    partitions = [span for span in spans if span.name == "runner.partition"]
    totals["runner.partitions"] = len(partitions)
    totals["runner.partition.busy_s"] = sum(span.end - span.start for span in partitions)
    api = [span for span in spans if span.name == "api.run"]
    totals["api.requests"] = len(api)
    totals["api.failed"] = sum(1 for span in api if span.attrs.get("failed"))
    for metric, name, attr, scale in (
        ("engine.disk.hits", "engine.disk.get", "hits", 1),
        ("engine.disk.corrupt_dropped", "engine.disk.get", "corrupt_dropped", 1),
        ("engine.disk.bytes_read", "engine.serde.unpack_entry", "bytes", 1e-6),
        ("engine.disk.bytes_written", "engine.serde.pack_entry", "bytes", 1e-6),
        ("engine.cache.lru_hits", "engine.cache.evaluate", "hits", 1),
        ("engine.cache.lower_hits", "engine.cache.evaluate", "disk_hits", 1),
        ("engine.cache.misses", "engine.cache.evaluate", "misses", 1),
        ("engine.cache.refreshes", "engine.cache.flush", "refreshes", 1),
    ):
        totals[metric] = scale * sum(
            span.attrs.get(attr, 0) for span in spans if span.name == name)
    totals.update(_pool_metrics(spans))
    totals["pooled"] = 1 if any(span.name == "runner.pool" for span in spans) else 0
    return totals


def per_layer(requests, resident_mb: float, overhead_frac: float) -> dict[str, float]:
    """Per-layer metrics from the :func:`request_totals` of each traced request.

    Times and counts are means per request (pool metrics per pooled
    request, 0 without one); ``hit_ratio`` is over all lookups;
    ``api.requests`` / ``api.failed`` count the traced ``Session.run``
    calls and those that raised.  ``trace.unaccounted_s`` is the tree time
    no named span's self time covers: the request root's own time and
    worker task bootstrap.
    """
    if not requests:
        raise ValueError("no traced requests")
    n = len(requests)
    pooled = sum(totals["pooled"] for totals in requests)
    metrics = {}
    for key in PER_LAYER_UNITS:
        value = sum(totals.get(key, 0.0) for totals in requests)
        if key.startswith("runner.pool."):
            metrics[key] = value / pooled if pooled else 0.0
        elif key in ("api.requests", "api.failed"):
            metrics[key] = value
        else:
            metrics[key] = value / n
    hits = sum(t["engine.cache.lru_hits"] + t["engine.cache.lower_hits"] for t in requests)
    lookups = hits + sum(t["engine.cache.misses"] for t in requests)
    metrics["engine.cache.hit_ratio"] = hits / lookups if lookups else 0.0
    metrics["engine.evaluation.resident_mb"] = resident_mb
    metrics["trace.overhead_frac"] = overhead_frac
    metrics["trace.requests"] = n
    return metrics
