"""A pooled ``Session`` keeps one worker pool between runs.

The pool is forked at the first pooled run, reused by later ones and ended
by ``close()``, a ``with`` block or the session's collection.  A failed or
abandoned run ends it, and a registry change recycles it.  Every check
here is by process ids and payloads, never by time.
"""

from __future__ import annotations

import gc
import json
import multiprocessing
import shutil

import pytest

from repro.api import Session
from repro.arch.spec import ARCH_PRESETS, DEFAULT_ARCH, default_arch
from repro.core import LoASSimulator
from repro.engine import clear_default_cache, default_cache
from repro.runner import SIMULATOR_FACTORIES, SimulatorSpec, SweepPlan, SweepRunner, WorkloadSpec
from repro.runner import executor

#: One network, both variants: two partitions, so a 2-worker session pools.
PARAMS = {"networks": ("alexnet",), "scale": 0.05, "seed": 1}


def payload_of(result) -> dict:
    return json.loads(result.to_json())["payload"]


def children() -> set[int]:
    return {process.pid for process in multiprocessing.active_children()}


@pytest.fixture
def workers():
    """Pids of the child processes a test started (those alive before are ignored)."""
    before = children()
    return lambda: children() - before


@pytest.fixture(scope="module")
def reference():
    clear_default_cache()
    return payload_of(Session().run("networks", **PARAMS))


class TestPoolLifetime:
    def test_two_pooled_runs_reuse_the_worker_processes(self, workers, reference):
        with Session(workers=2) as session:
            first = session.run("networks", **PARAMS)
            pids = workers()
            assert len(pids) == 2
            second = session.run("networks", **PARAMS)
            assert workers() == pids
        assert workers() == set()
        assert payload_of(first) == payload_of(second) == reference

    def test_a_session_forks_nothing_until_its_first_pooled_run(self, workers):
        with Session(workers=2) as session:
            assert workers() == set()
            # One partition runs serially even on a pooled session.
            session.run("layers", layers=("V-L8",), scale=PARAMS["scale"], seed=1)
            assert workers() == set()
        with Session() as session:
            session.run("networks", **PARAMS)
            assert workers() == set()

    def test_a_per_call_pool_ends_with_its_run(self, workers, reference):
        with Session() as session:
            result = session.run("networks", workers=2, **PARAMS)
            assert workers() == set()
            stream = session.stream("networks", workers=2, **PARAMS)
            next(stream)
            assert len(workers()) == 2
            assert payload_of(stream.collect()) == reference
            assert workers() == set()
        assert payload_of(result) == reference

    def test_a_failing_run_ends_its_pool_and_the_next_forks_afresh(
        self, tmp_path, workers, reference
    ):
        tier = tmp_path / "tier"
        with Session(workers=2, cache_dir=tier) as session:
            session.run("networks", **PARAMS)
            first = workers()
            # A file where the tier's directory should be: the workers'
            # first store fails.
            shutil.rmtree(tier)
            tier.write_text("not a directory")
            with pytest.raises(OSError):
                session.run("networks", **PARAMS)
            assert workers() == set()
            tier.unlink()
            result = session.run("networks", **PARAMS)
            second = workers()
            assert len(second) == 2 and not second & first
        assert payload_of(result) == reference

    def test_an_abandoned_stream_ends_its_pool(self, workers, reference):
        with Session(workers=2) as session:
            stream = session.stream("networks", **PARAMS)
            next(stream)
            assert len(workers()) == 2
            stream.close()
            assert workers() == set()
            # Dropped without close(): collecting it ends the pool as well.
            stream = session.stream("networks", **PARAMS)
            next(stream)
            gc.disable()
            try:
                del stream
                assert workers() == set()
            finally:
                gc.enable()
            result = session.run("networks", **PARAMS)
        assert payload_of(result) == reference

    def test_closing_the_session_under_a_stream_fails_that_stream(self, workers, reference):
        with Session(workers=2) as session:
            stream = session.stream("networks", **PARAMS)
            next(stream)
            session.close()
            assert workers() == set()
            # A terminated pool never delivers the rest: raise, do not hang.
            with pytest.raises(RuntimeError, match="closed"):
                next(stream)
            assert payload_of(session.run("networks", **PARAMS)) == reference

    def test_an_interleaved_stream_gets_a_pool_of_its_own(self, workers, reference):
        with Session(workers=2) as session:
            first = session.stream("networks", **PARAMS)
            next(first)
            shared = workers()
            second = session.stream("networks", **PARAMS)
            next(second)
            # Closing one stream does not end the other's tasks.
            second.close()
            assert workers() == shared
            assert payload_of(first.collect()) == reference
            assert workers() == shared

    def test_a_dropped_session_releases_its_workers_without_the_collector(self, workers):
        session = Session(workers=2)
        session.run("networks", **PARAMS)
        assert len(workers()) == 2
        gc.disable()
        try:
            del session
            assert workers() == set()
        finally:
            gc.enable()

    def test_a_closed_session_forks_again_when_used(self, workers, reference):
        session = Session(workers=2)
        session.run("networks", **PARAMS)
        session.close()
        session.close()
        assert workers() == set()
        assert payload_of(session.run("networks", **PARAMS)) == reference
        assert len(workers()) == 2
        session.close()
        assert workers() == set()


class TestRegistryChanges:
    """Forked workers hold the registries of their fork; a change recycles the pool."""

    @staticmethod
    def _plan(key: str) -> SweepPlan:
        return SweepPlan.product(
            "copy",
            (WorkloadSpec("network", "alexnet", scale=PARAMS["scale"]),),
            (SimulatorSpec(key), SimulatorSpec(key, label=key + "-FT", finetuned=True)),
            seeds=(1,),
        )

    def test_a_simulator_registered_after_the_first_run_reaches_the_workers(
        self, monkeypatch, workers
    ):
        with SweepRunner(workers=2) as runner:
            original = runner.run(self._plan("LoAS"))
            first = workers()
            monkeypatch.setitem(SIMULATOR_FACTORIES, "LoAS-copy", LoASSimulator)
            copied = runner.run(self._plan("LoAS-copy"))
            assert not workers() & first
        assert [result for _, result in copied] == [result for _, result in original]

    def test_a_replaced_default_preset_reaches_the_workers(self, monkeypatch, reference):
        slower = default_arch().with_overrides(**{"pe.task_overhead_cycles": 64})
        with Session(workers=2) as session:
            assert payload_of(session.run("networks", **PARAMS)) == reference
            monkeypatch.setitem(ARCH_PRESETS, DEFAULT_ARCH, slower)
            pooled = payload_of(session.run("networks", **PARAMS))
        clear_default_cache()
        assert pooled == payload_of(Session().run("networks", **PARAMS)) != reference


class TestEmptyWorkerLru:
    """Each pool task starts from an empty LRU, so each run stores into its own tier."""

    def test_a_task_stores_every_layer_into_a_fresh_tier(self, tmp_path):
        from repro.experiments.sweeps import network_sweep_plan

        plan = network_sweep_plan(("alexnet",), scale=PARAMS["scale"], seed=1)
        cells = tuple(plan.cells[i] for i in plan.partitions()[0])
        executor._worker_disk.cache_clear()
        try:
            for name in ("a", "b"):
                executor._pool_task((0, cells, (str(tmp_path / name), None)))
            first = executor.DiskEvaluationCache(tmp_path / "a")
            second = executor.DiskEvaluationCache(tmp_path / "b")
            assert len(first) == len(second) > 1
        finally:
            executor._worker_disk.cache_clear()
            clear_default_cache()

    def test_two_fresh_tiers_populated_by_one_session_hold_equal_entries(self, tmp_path):
        tier = tmp_path / "tier"
        with Session(workers=2, cache_dir=tier) as session:
            session.run("networks", **PARAMS)
            populated = len(session.disk_tier)
            session.clear_cache(disk=True)
            assert len(session.disk_tier) == 0
            session.run("networks", **PARAMS)
            assert len(session.disk_tier) == populated > 0


class TestEndingAPoolKillsNoWorker:
    """A pool is ended by its cancel flag, ``close()`` and ``join()``, never ``terminate()``.

    A worker killed while it sends a result keeps the result queue's lock
    held, and the pool's own teardown then waits on that lock for ever.
    """

    @staticmethod
    def _payloads(count: int):
        from repro.experiments.sweeps import network_sweep_plan

        plan = network_sweep_plan(("alexnet",), scale=PARAMS["scale"], seed=1)
        cells = tuple(plan.cells[i] for i in plan.partitions()[0])
        return [(ordinal, cells, None) for ordinal in range(count)]

    def test_a_task_of_a_cancelled_pool_runs_nothing(self, monkeypatch):
        import threading

        cancelled = threading.Event()
        cancelled.set()
        monkeypatch.setattr(executor, "_CANCELLED", cancelled)
        clear_default_cache()
        assert executor._pool_task(self._payloads(1)[0]) == (0, None)
        assert default_cache().stats().misses == 0

    def test_queued_tasks_of_a_cancelled_pool_return_without_running(self, workers):
        with SweepRunner(workers=2) as runner:
            pool, cancelled = runner._start_pool()
            try:
                cancelled.set()
                results = list(pool.imap_unordered(executor._pool_task, self._payloads(4)))
            finally:
                executor._end_pool(pool, cancelled)
        assert sorted(results) == [(ordinal, None) for ordinal in range(4)]
        assert workers() == set()

    def test_failed_and_abandoned_runs_end_the_pool_without_terminate(
        self, tmp_path, monkeypatch, workers, reference
    ):
        from multiprocessing.pool import Pool

        terminated = []
        original_terminate = Pool.terminate

        def recording_terminate(pool):
            terminated.append(pool)
            return original_terminate(pool)

        monkeypatch.setattr(Pool, "terminate", recording_terminate)
        tier = tmp_path / "tier"
        with Session(workers=2, cache_dir=tier) as session:
            session.run("networks", **PARAMS)
            shutil.rmtree(tier)
            tier.write_text("not a directory")
            with pytest.raises(NotADirectoryError):
                session.run("networks", **PARAMS)
            assert workers() == set()
            tier.unlink()
            stream = session.stream("networks", **PARAMS)
            next(stream)
            stream.close()
            assert workers() == set()
            assert payload_of(session.run("networks", **PARAMS)) == reference
        assert workers() == set()
        assert terminated == []


class TestConstructionAttributes:
    @pytest.mark.parametrize("name", ("workers", "cache_dir", "disk_max_bytes", "mp_context"))
    def test_assigning_one_raises(self, tmp_path, name):
        session = Session(workers=2, cache_dir=tmp_path / "tier", disk_max_bytes=1 << 20)
        before = getattr(session, name)
        with pytest.raises(AttributeError):
            setattr(session, name, 4 if name in ("workers", "disk_max_bytes") else "spawn")
        assert getattr(session, name) == before
        assert session.scale is None
        session.scale = 0.5  # a default for later calls, read per call

    def test_a_cache_dir_that_is_a_file_fails_at_construction(self, tmp_path):
        path = tmp_path / "not-a-directory"
        path.write_text("a file")
        with pytest.raises(NotADirectoryError):
            Session(cache_dir=path)

    def test_a_tier_whose_directory_became_a_file_raises_on_lookup(self, tmp_path):
        from repro.engine import DiskEvaluationCache

        tier = DiskEvaluationCache(tmp_path / "tier")
        (tmp_path / "tier").write_text("a file")
        with pytest.raises(NotADirectoryError):
            tier.get(("any", "key"))
        assert (tier.misses, tier.corrupt_dropped) == (0, 0)
