"""The :class:`Session` façade: one object owning resources and policy.

A :class:`Session` configures ``workers`` / ``cache_dir`` / ``scale`` once
instead of threading them through every call.  It is the only source of
execution resources: its constructor is the one place that sets them,
every sweep-shaped scenario runs on the :class:`~repro.runner.SweepRunner`
the session builds, and a plan carries nothing but the work itself.

* **cache levels** -- the shared on-disk tier (``cache_dir`` +
  ``disk_max_bytes``) below the process-wide evaluation LRU (sized with
  ``default_cache().resize()``).  The session owns its
  :class:`~repro.engine.DiskEvaluationCache` instance, so its counters
  accumulate across runs and :meth:`cache_stats` reports real numbers.
* **execution policy** -- the worker-pool size (``workers``; ``None``/0/1 =
  serial) and the multiprocessing start method (``mp_context``).
* **workload defaults** -- a default ``scale`` applied to every scenario
  that declares one, so quick-look sessions shrink every sweep uniformly.

Per-call ``params`` always win over the session's ``scale``.  Bespoke
scenarios (training runs, static tables: no plan behind them) have no
runner to put the session's pool or disk tier on, so they run in-process
without them.

**Lifecycle.** A pooled session (``workers >= 2``) owns one worker pool.
Building the session forks nothing: the pool is forked at the first pooled
run and reused by every later one, so repeated runs skip the fork, the
worker set-up and the teardown.  :meth:`Session.close`, leaving a ``with
Session(...)`` block, the session's collection or interpreter exit ends
it.  A run that fails or a stream closed early ends it too (no task of
that run keeps running), and the next pooled run forks a fresh one.  A
stream that starts while another still streams on the pool gets a pool of
its own, ended with it.

Note the evaluation LRU itself is process-wide (simulators resolve it via
:func:`repro.engine.default_cache`), so sessions in one process share
cached tensors -- by design, that is the engine's cross-simulator sharing.
"""

from __future__ import annotations

import math
import numbers
from typing import Any, Iterable, Iterator, Mapping

from ..engine import CacheStats, DiskEvaluationCache, default_cache
from ..runner.executor import SweepResults, SweepRunner
from ..runner.scenario import Scenario, get_scenario, list_scenarios
from .result import PartitionResult, ScenarioResult

__all__ = ["ScenarioStream", "Session"]

#: Disk-tier counters a sweep run's provenance reports as deltas.
_DISK_COUNTERS = ("hits", "misses", "stores", "refreshes")


def _ensure_registry() -> None:
    """Populate the scenario registry (importing the experiment modules)."""
    from .. import experiments  # noqa: F401  -- import side effect registers


def _accepted_params(scenario: Scenario) -> set[str] | None:
    """Parameter names ``scenario`` accepts, or ``None`` when unbounded.

    The union of the declared defaults and the named parameters of the
    ``run``/``build`` callable; ``None`` (accept anything) when the
    callable takes ``**kwargs``.
    """
    import inspect

    function = scenario.run if scenario.run is not None else scenario.build
    try:
        signature = inspect.signature(function)
    except (TypeError, ValueError):
        return None
    names = set(dict(scenario.defaults))
    for parameter in signature.parameters.values():
        if parameter.kind is inspect.Parameter.VAR_KEYWORD:
            return None
        if parameter.kind in (
            inspect.Parameter.POSITIONAL_OR_KEYWORD,
            inspect.Parameter.KEYWORD_ONLY,
        ):
            names.add(parameter.name)
    return names


def _package_version() -> str:
    from .. import __version__

    return __version__


def _check_workload_params(params: Mapping[str, Any]) -> None:
    """Reject a ``scale`` that is not a finite real above 0 or a ``seed``
    that is not an integer of at least 0 (``bool`` refused for both).

    ``TypeError`` for a wrong type, ``ValueError`` for a value out of range,
    each naming the parameter, before any workload is generated.
    """
    if "scale" in params:
        scale = params["scale"]
        if isinstance(scale, bool) or not isinstance(scale, numbers.Real):
            raise TypeError("scale must be a real number, got %r" % (scale,))
        if not (math.isfinite(scale) and scale > 0):
            raise ValueError("scale must be finite and above 0, got %r" % (scale,))
    if "seed" in params:
        seed = params["seed"]
        if isinstance(seed, bool) or not isinstance(seed, numbers.Integral):
            raise TypeError("seed must be an int, got %r" % (seed,))
        if seed < 0:
            raise ValueError("seed must be at least 0, got %r" % (seed,))


#: How a tuple parameter's entry types are named in errors.
_ENTRY_TYPE_NAMES = {numbers.Integral: "int", numbers.Real: "float"}


def _entry_type(value) -> type:
    """The type a tuple parameter's entry is compared by (numbers by kind)."""
    if isinstance(value, bool):
        return bool
    for kind in _ENTRY_TYPE_NAMES:
        if isinstance(value, kind):
            return kind
    return type(value)


def _check_tuple_params(scenario: Scenario, params: Mapping[str, Any]) -> None:
    """Reject a bare string, or an entry of another type, where the default is a tuple.

    ``TypeError`` naming the parameter, before any plan is built: a string
    would be iterated by character (``networks="alexnet"`` asks for a
    network ``'a'``), and an entry of the wrong type fails deep in the run.
    Entries are checked against the default's entries: an ``int`` is a
    valid ``float`` entry, a ``bool`` is not a number.
    """
    for name, default in scenario.defaults:
        if name not in params or not isinstance(default, tuple):
            continue
        value = params[name]
        if isinstance(value, (str, bytes)) or not isinstance(value, Iterable):
            raise TypeError("%s must be a tuple, got %r" % (name, value))
        kinds = {_entry_type(entry) for entry in default}
        if len(kinds) != 1 or not isinstance(value, (tuple, list)):
            continue
        (kind,) = kinds
        for entry in value:
            if not isinstance(entry, kind) or (isinstance(entry, bool) and kind is not bool):
                raise TypeError(
                    "%s entries must be %s, got %r"
                    % (name, _ENTRY_TYPE_NAMES.get(kind, kind.__name__), entry)
                )


class ScenarioStream(Iterator[PartitionResult]):
    """Iterator over a sweep's partitions, finalising into a :class:`ScenarioResult`.

    Returned by :meth:`Session.stream`.  Yields one
    :class:`~repro.api.result.PartitionResult` per completed ``(workload,
    seed, finetuned, layer type)`` partition, in completion order (a worker
    pool, or a serial run's two threads, finish partitions in any order).
    Once exhausted, :attr:`result` holds the merged
    :class:`~repro.api.result.ScenarioResult`, bit-identical to what
    :meth:`Session.run` returns for the same arguments (results are slotted
    by cell index, so completion order is irrelevant).

    An abandoned stream leaves its partitions running (in the pool, or on a
    serial run's helper thread) until it is closed.  When abandoning a
    stream early, call :meth:`close` -- or iterate inside a ``with`` block
    -- to end them (and the worker pool) now instead of waiting for garbage
    collection.
    """

    def __init__(
        self,
        scenario_name: str,
        plan,
        partitions: list[list[int]],
        runner: SweepRunner,
        capture,
        finalise,
    ):
        self.plan = plan
        self._scenario_name = scenario_name
        self._total = len(partitions)
        self._iterator = runner.iter_partitions(plan, partitions)
        self._slots = [None] * len(plan.cells)
        self._capture = capture
        self._finalise = finalise
        self._result: ScenarioResult | None = None
        self._closed = False
        self._started = False

    def __iter__(self) -> "ScenarioStream":
        return self

    def __next__(self) -> PartitionResult:
        if not self._started:
            # Counter baselines are captured when execution actually starts
            # (the generator is lazy), so work interleaved between stream()
            # and the first partition doesn't pollute the provenance deltas.
            self._started = True
            self._capture()
        try:
            ordinal, indices, results = next(self._iterator)
        except StopIteration:
            # A closed stream's generator also raises StopIteration, but its
            # slots are only partially filled -- never finalise those.
            if self._result is None and not self._closed:
                self._result = self._finalise(SweepResults(self.plan, self._slots))
            raise
        for index, result in zip(indices, results):
            self._slots[index] = result
        return PartitionResult(
            scenario=self._scenario_name,
            index=ordinal,
            total=self._total,
            cells=tuple(self.plan.cells[i] for i in indices),
            results=tuple(results),
        )

    def close(self) -> None:
        """Stop early: end execution and shut the worker pool if one runs.

        A stream closed before exhaustion yields no further partitions and
        never produces a merged :attr:`result`; safe to call repeatedly, and
        harmless after exhaustion (the merged result stays available).
        """
        self._closed = True
        self._iterator.close()

    def __enter__(self) -> "ScenarioStream":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def result(self) -> ScenarioResult:
        """The merged result; available once every partition was consumed."""
        if self._result is None:
            if self._closed:
                raise RuntimeError(
                    "stream was closed before exhaustion; no merged result "
                    "exists (re-run via Session.run or a fresh stream)"
                )
            raise RuntimeError(
                "stream not exhausted; iterate every partition (or call "
                "collect()) before reading .result"
            )
        return self._result

    def collect(self) -> ScenarioResult:
        """Drain any remaining partitions and return the merged result."""
        for _ in self:
            pass
        return self.result


class Session:
    """Configured entry point to every registered scenario.

    Parameters
    ----------
    workers:
        Default worker-pool size for sweep execution (``None``/0/1 serial).
    cache_dir:
        Directory of the session's on-disk evaluation-cache tier; created on
        first use and shared with worker processes.
    scale:
        Default workload ``scale`` for every scenario declaring one (a
        finite real number above 0).
    disk_max_bytes:
        Byte budget of the on-disk tier (LRU eviction above it).  Applies
        only when ``cache_dir`` is a path: an already-constructed
        :class:`~repro.engine.DiskEvaluationCache` instance keeps its own
        budget.
    mp_context:
        Multiprocessing start method (``"fork"`` / ``"spawn"``).

    ``workers``, ``cache_dir``, ``disk_max_bytes`` and ``mp_context`` are
    fixed at construction (read-only attributes): they build the session's
    disk tier and size its pool (see the module docstring's
    **Lifecycle**); build another session for other resources.  The pool
    holds worker processes between runs, so close a pooled session when
    done, or use it as a context manager.

    Examples
    --------
    >>> with Session(workers=2, cache_dir=".eval-cache", scale=0.25) as session:
    ...     result = session.run("fig12-overall")
    ...     for partition in session.stream("fig13-traffic"):
    ...         print(partition.workload_label, partition.index, partition.total)
    >>> result.payload["vgg16"]["LoAS"]["speedup"]  # doctest: +SKIP
    """

    def __init__(
        self,
        workers: int | None = None,
        cache_dir=None,
        scale: float | None = None,
        disk_max_bytes: int | None = None,
        mp_context: str | None = None,
    ):
        if scale is not None:
            _check_workload_params({"scale": scale})
        self._workers = workers
        self._cache_dir = cache_dir
        self.scale = scale
        self._disk_max_bytes = disk_max_bytes
        self._mp_context = mp_context
        self._disk_tier = DiskEvaluationCache.coerce(cache_dir, max_bytes=disk_max_bytes)
        #: Runs every sweep; it forks its pool at the first pooled run, not
        #: here.
        self._runner = SweepRunner(workers=workers, cache_dir=self._disk_tier, mp_context=mp_context)

    def close(self) -> None:
        """End the session's worker pool, if one runs.

        Idempotent.  The session stays usable: a later pooled run forks a
        new pool.
        """
        self._runner.close()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    # The session's runner and tier are built from these at construction,
    # so they are read-only: assigning one later would change nothing.
    @property
    def workers(self) -> int | None:
        """The worker-pool size given at construction."""
        return self._workers

    @property
    def cache_dir(self):
        """The ``cache_dir`` given at construction."""
        return self._cache_dir

    @property
    def disk_max_bytes(self) -> int | None:
        """The disk tier's byte budget given at construction."""
        return self._disk_max_bytes

    @property
    def mp_context(self) -> str | None:
        """The multiprocessing start method given at construction."""
        return self._mp_context

    @property
    def disk_tier(self) -> DiskEvaluationCache | None:
        """The session-owned on-disk tier (``None`` without ``cache_dir``)."""
        return self._disk_tier

    def scenarios(self) -> list[str]:
        """Sorted names of every registered scenario."""
        _ensure_registry()
        return list_scenarios()

    def describe(self, name: str) -> Scenario:
        """The registered :class:`~repro.runner.Scenario` behind ``name``."""
        _ensure_registry()
        return get_scenario(name)

    def validate_run_options(
        self,
        scenario: Scenario,
        *,
        stream: bool = False,
        params: Mapping[str, Any] | None = None,
    ) -> None:
        """Raise if the params or the streaming request cannot be honoured.

        The single source of the parameter/scenario rules: each key of
        ``params`` must be accepted by the scenario's ``build``/``run``
        callable (declared defaults or a named parameter; ``TypeError``),
        a ``scale`` or ``seed`` must be well-formed (``TypeError`` /
        ``ValueError`` naming it), a parameter whose default is a tuple
        takes no bare string and no entry of another type (``TypeError``
        naming it), and a bespoke scenario cannot stream (``ValueError``).
        Used by :meth:`run` / :meth:`stream` and pre-flighted by the CLI.
        """
        if params:
            accepted = _accepted_params(scenario)
            if accepted is not None:
                for key in params:
                    if key not in accepted:
                        raise TypeError(
                            "scenario %r does not accept parameter %r "
                            "(accepted: %s)" % (scenario.name, key, sorted(accepted))
                        )
            _check_workload_params(params)
            _check_tuple_params(scenario, params)
        if stream and scenario.run is not None:
            raise ValueError(
                "scenario %r is bespoke (no sweep plan behind it); streaming "
                "requires a sweep-shaped scenario" % (scenario.name,)
            )

    def cache_stats(self) -> dict[str, CacheStats | None]:
        """``{"lru": ..., "disk": ...}`` snapshots of the two cache levels.

        LRU counters are process-wide; disk counters belong to the session's
        own tier object (``None`` without ``cache_dir``).  Pool runs
        accumulate their counters in the worker processes, so only serial
        activity is visible here (the disk tier's ``entries`` /
        ``total_bytes`` are shared facts either way).
        """
        return {
            "lru": default_cache().stats(),
            "disk": self._disk_tier.stats() if self._disk_tier is not None else None,
        }

    def clear_cache(self, disk: bool = False) -> None:
        """Reset the process-wide LRU; with ``disk=True`` also the session's disk tier."""
        default_cache().clear()
        if disk and self._disk_tier is not None:
            self._disk_tier.clear()

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def run(self, name: str, **params) -> ScenarioResult:
        """Execute scenario ``name`` and return its :class:`ScenarioResult`.

        ``params`` override the scenario's declared defaults; the
        execution resources are the session's.  Sweep-shaped scenarios run
        through :meth:`stream` internally, so batch and streaming results
        are one code path.
        """
        _ensure_registry()
        scenario = get_scenario(name)
        if scenario.run is not None:
            self.validate_run_options(scenario, params=params)
            return self._run_bespoke(scenario, params)
        return self.stream(name, **params).collect()

    def stream(self, name: str, **params) -> ScenarioStream:
        """Incremental execution: a :class:`ScenarioStream` over partitions.

        Only sweep-shaped scenarios stream (bespoke ones have no plan to
        partition -- ``ValueError``).  Partitions arrive in completion
        order, serially too.  The merged ``stream.result`` is bit-identical
        to :meth:`run` for equal arguments, in serial and pooled modes
        alike.
        """
        _ensure_registry()
        scenario = get_scenario(name)
        self.validate_run_options(scenario, stream=True, params=params)
        merged = self._merge_params(scenario, params)
        plan = scenario.build(**merged)
        partitions = plan.partitions()
        runner = self._runner
        baselines: dict[str, Any] = {"lru": None, "disk": None}

        def capture() -> None:
            baselines["lru"] = default_cache().stats()
            # The counters alone, off the tier object: stats() would also
            # walk every entry file.
            tier = runner.disk_tier
            baselines["disk"] = (
                {name: getattr(tier, name) for name in _DISK_COUNTERS}
                if tier is not None
                else None
            )

        def finalise(sweep_results: SweepResults) -> ScenarioResult:
            payload = (
                scenario.shape(sweep_results, **merged)
                if scenario.shape is not None
                else sweep_results
            )
            provenance = self._provenance(
                runner.disk_tier,
                runner.workers,
                baselines["lru"],
                baselines["disk"],
                pooled=runner.runs_pooled(partitions),
            )
            provenance["seeds"] = tuple(sorted({cell.seed for cell in plan.cells}))
            provenance["cells"] = len(plan.cells)
            provenance["partitions"] = len(partitions)
            return ScenarioResult(
                scenario=scenario.name,
                params=dict(merged),
                payload=payload,
                provenance=provenance,
            )

        return ScenarioStream(scenario.name, plan, partitions, runner, capture, finalise)

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _run_bespoke(self, scenario: Scenario, params) -> ScenarioResult:
        merged = self._merge_params(scenario, params)
        lru_before = default_cache().stats()
        payload = scenario.run(**merged)
        provenance = self._provenance(None, None, lru_before, None)
        if "seed" in merged:
            provenance["seeds"] = (merged["seed"],)
        return ScenarioResult(
            scenario=scenario.name,
            params=dict(merged),
            payload=payload,
            provenance=provenance,
        )

    def _merge_params(self, scenario: Scenario, params: Mapping[str, Any]) -> dict[str, Any]:
        merged = dict(scenario.defaults)
        if self.scale is not None and "scale" in merged and "scale" not in params:
            merged["scale"] = self.scale
        merged.update(params)
        return merged

    def _provenance(
        self,
        tier,
        workers,
        lru_before,
        disk_before,
        pooled: bool = False,
    ) -> dict[str, Any]:
        lru_after = default_cache().stats()
        cache: dict[str, Any] = {
            # Counters are per-process: a pooled run evaluates in worker
            # processes whose counters never reach the parent, so its deltas
            # here are legitimately ~0.  The scope marker keeps records
            # honest instead of letting zeros read as "fully cache-served".
            "scope": (
                "parent-process only (evaluation may have run in worker "
                "processes)"
                if pooled
                else "in-process"
            ),
            "lru_hits": lru_after.hits - lru_before.hits,
            "lru_misses": lru_after.misses - lru_before.misses,
            "lru_disk_hits": lru_after.disk_hits - lru_before.disk_hits,
            "lru_evictions": lru_after.evictions - lru_before.evictions,
        }
        if tier is not None and disk_before is not None:
            for name in _DISK_COUNTERS:
                cache["disk_" + name] = getattr(tier, name) - disk_before[name]
            cache["disk_entries"] = len(tier)
        provenance: dict[str, Any] = {
            "package_version": _package_version(),
            "workers": workers or None,
            "cache_dir": str(tier.directory) if tier is not None else None,
            "cache": cache,
        }
        return provenance

