"""The :class:`Session` façade: one object owning resources and policy.

A :class:`Session` configures ``workers`` / ``cache_dir`` / ``scale`` once
instead of threading them through every call.  It is the only source of
execution resources: every sweep-shaped scenario runs on the
:class:`~repro.runner.SweepRunner` the session builds, and a plan carries
nothing but the work itself.

* **cache levels** -- the size of the process-wide evaluation LRU
  (``lru_maxsize``) and the shared on-disk tier below it (``cache_dir`` +
  ``disk_max_bytes``).  The session owns its
  :class:`~repro.engine.DiskEvaluationCache` instance, so its counters
  accumulate across runs and :meth:`cache_stats` reports real numbers.
* **execution policy** -- the worker-pool size (``workers``; ``None``/0/1 =
  serial) and the multiprocessing start method (``mp_context``).
* **workload defaults** -- a default ``scale`` applied to every scenario
  that declares one, so quick-look sessions shrink every sweep uniformly.

Per-call keyword arguments always win over session defaults.  Bespoke
scenarios (training runs, static tables: no plan behind them) take no
runner options.  Session defaults are *soft*: a bespoke scenario simply
runs in-process without the session's pool or disk tier, whereas passing
``workers`` / ``cache_dir`` explicitly to :meth:`Session.run` for one raises
``TypeError`` (silently dropping an explicitly requested pool or tier would
misreport what ran).

**Lifecycle.** A pooled session (``workers >= 2``) owns one worker pool.
Building the session forks nothing: the pool is forked at the first pooled
run and reused by every later one, so repeated runs skip the fork, the
worker set-up and the teardown.  :meth:`Session.close`, leaving a ``with
Session(...)`` block, the session's collection or interpreter exit ends
it.  A run that fails or a stream closed early ends it too (no task of
that run keeps running), and the next pooled run forks a fresh one.  A
call that passes its own ``workers`` / ``cache_dir`` runs on a one-off
pool that ends with that call's stream.

Note the evaluation LRU itself is process-wide (simulators resolve it via
:func:`repro.engine.default_cache`), so sessions in one process share
cached tensors -- by design, that is the engine's cross-simulator sharing.
"""

from __future__ import annotations

from typing import Any, Iterator, Mapping

from ..engine import CacheStats, DiskEvaluationCache, default_cache
from ..runner.executor import SweepResults, SweepRunner
from ..runner.scenario import Scenario, get_scenario, list_scenarios
from .result import PartitionResult, ScenarioResult

__all__ = ["ScenarioStream", "Session"]


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


def _same_directory(a, b) -> bool:
    """Whether two directory spellings name the same place.

    Normalised (absolute, no trailing slash, symlinks resolved where the
    path exists) so ``"/tmp/tier/"`` and ``"/tmp/tier"`` compare equal.
    """
    from pathlib import Path

    return Path(a).expanduser().resolve() == Path(b).expanduser().resolve()


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
    collection.  A stream over a one-off runner (``owns_runner``) closes
    that runner when it ends.
    """

    def __init__(
        self,
        scenario_name: str,
        plan,
        runner: SweepRunner,
        capture,
        finalise,
        owns_runner: bool = False,
    ):
        self.plan = plan
        self._scenario_name = scenario_name
        self._total = len(plan.partitions())
        self._runner = runner if owns_runner else None
        self._iterator = runner.iter_partitions(plan)
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
            self._close_runner()
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
        self._close_runner()

    def _close_runner(self) -> None:
        if self._runner is not None:
            self._runner.close()

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
        Default workload ``scale`` for every scenario declaring one.
    lru_maxsize:
        Resize the process-wide evaluation LRU at construction.  The LRU is
        shared by every session in the process and the new bound persists
        beyond this session's lifetime -- shrinking it evicts entries other
        sessions may have warmed, so size it for the whole process, not one
        quick look.
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
    **Lifecycle**); pass ``workers=`` / ``cache_dir=`` per call instead.  The pool
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
        lru_maxsize: int | None = None,
        disk_max_bytes: int | None = None,
        mp_context: str | None = None,
    ):
        if workers is not None and workers < 0:
            raise ValueError("workers must be non-negative")
        self._workers = workers
        self._cache_dir = cache_dir
        self.scale = scale
        self._disk_max_bytes = disk_max_bytes
        self._mp_context = mp_context
        if lru_maxsize is not None:
            default_cache().resize(lru_maxsize)
        self._disk_tier = DiskEvaluationCache.coerce(cache_dir, max_bytes=disk_max_bytes)
        #: Runs every call without its own ``workers`` / ``cache_dir``; it
        #: forks its pool at the first pooled run, not here.
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
        workers=None,
        cache_dir=None,
        stream: bool = False,
        params: Mapping[str, Any] | None = None,
    ) -> None:
        """Raise if the explicit options/params cannot be honoured by ``scenario``.

        The single source of the option/scenario compatibility rules: a
        bespoke scenario cannot stream (``ValueError``) and takes no
        explicitly requested ``workers`` / ``cache_dir`` (``TypeError`` --
        silently dropping a requested pool or tier would misreport what
        ran).
        When ``params`` is given, each key must be accepted by the
        scenario's ``build``/``run`` callable (declared defaults or a named
        parameter).  Used by :meth:`run` / :meth:`stream` and pre-flighted
        by the CLI.
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
        if scenario.run is None:
            return
        if stream:
            raise ValueError(
                "scenario %r is bespoke (no sweep plan behind it); streaming "
                "requires a sweep-shaped scenario" % (scenario.name,)
            )
        for option, value in (("workers", workers), ("cache_dir", cache_dir)):
            if value is not None:
                raise TypeError(
                    "scenario %r does not support %r" % (scenario.name, option)
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
    def run(
        self,
        name: str,
        *,
        workers: int | None = None,
        cache_dir=None,
        **params,
    ) -> ScenarioResult:
        """Execute scenario ``name`` and return its :class:`ScenarioResult`.

        ``params`` override the scenario's declared defaults; ``workers`` /
        ``cache_dir`` override the session's execution policy for this
        call.  Sweep-shaped scenarios run through
        :meth:`stream` internally, so batch and streaming results are one
        code path.
        """
        _ensure_registry()
        scenario = get_scenario(name)
        if scenario.run is not None:
            self.validate_run_options(
                scenario, workers=workers, cache_dir=cache_dir, params=params
            )
            return self._run_bespoke(scenario, params)
        return self.stream(name, workers=workers, cache_dir=cache_dir, **params).collect()

    def stream(
        self,
        name: str,
        *,
        workers: int | None = None,
        cache_dir=None,
        **params,
    ) -> ScenarioStream:
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
        runner = self._runner
        if workers is not None or cache_dir is not None:
            runner = SweepRunner(
                workers=workers if workers is not None else self.workers,
                cache_dir=self._tier_for(cache_dir),
                mp_context=self.mp_context,
            )
        baselines: dict[str, Any] = {"lru": None, "disk": None}

        def capture() -> None:
            baselines["lru"] = default_cache().stats()
            baselines["disk"] = (
                runner.disk_tier.stats() if runner.disk_tier is not None else None
            )

        def finalise(sweep_results: SweepResults) -> ScenarioResult:
            payload = (
                scenario.shape(sweep_results, **merged)
                if scenario.shape is not None
                else sweep_results
            )
            # Mirror the executor's own fallback rule: a single-partition
            # plan runs serially even on a workers>=2 session, and the
            # record must say so.
            pooled = runner.workers >= 2 and len(plan.partitions()) > 1
            provenance = self._provenance(
                runner.disk_tier,
                runner.workers,
                baselines["lru"],
                baselines["disk"],
                pooled=pooled,
            )
            provenance["seeds"] = tuple(sorted({cell.seed for cell in plan.cells}))
            provenance["cells"] = len(plan.cells)
            provenance["partitions"] = len(plan.partitions())
            return ScenarioResult(
                scenario=scenario.name,
                params=dict(merged),
                payload=payload,
                provenance=provenance,
            )

        return ScenarioStream(
            scenario.name, plan, runner, capture, finalise, owns_runner=runner is not self._runner
        )

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

    def _tier_for(self, cache_dir) -> DiskEvaluationCache | None:
        if cache_dir is None:
            return self._disk_tier
        if isinstance(cache_dir, DiskEvaluationCache):
            return cache_dir
        if self._disk_tier is not None and _same_directory(
            self._disk_tier.directory, cache_dir
        ):
            return self._disk_tier
        # A per-call override names a directory the session does not own:
        # the session's disk_max_bytes budget must not evict entries some
        # other tool cached there.
        return DiskEvaluationCache(cache_dir)

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
            disk_after = tier.stats()
            cache["disk_hits"] = disk_after.hits - disk_before.hits
            cache["disk_misses"] = disk_after.misses - disk_before.misses
            cache["disk_stores"] = disk_after.stores - disk_before.stores
            cache["disk_refreshes"] = disk_after.refreshes - disk_before.refreshes
            cache["disk_entries"] = disk_after.entries
        provenance: dict[str, Any] = {
            "package_version": _package_version(),
            "workers": workers or None,
            "cache_dir": str(tier.directory) if tier is not None else None,
            "cache": cache,
        }
        return provenance

