"""The serial path's helper thread: a second CPU runs whole partitions.

A serial run with a CPU to spare (``executor._usable_cpus``), at least two
partitions and some partition whose first layer no cache tier holds
shares its partitions with one helper thread.  Warm runs, one-CPU runs and
pool workers stay on one thread.  These tests pin what must not change
because of it -- payloads, counters, the write-once disk tier -- and that
no thread outlives a run.  They count threads and counters, never time.
"""

from __future__ import annotations

import gc
import json
import os
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.api import Session
from repro.engine import (
    DiskEvaluationCache,
    WorkloadEvaluationCache,
    clear_default_cache,
    default_cache,
    workload_fingerprint,
)
from repro.runner import SimulatorSpec, SweepPlan, SweepRunner, WorkloadSpec, executor
from repro.snn.network import LayerShape
from repro.snn.workloads import LayerWorkload, SparsityProfile

SCALE = 0.05
NETWORKS = ("alexnet", "vgg16")
SRC = Path(__file__).resolve().parents[1] / "src"
HELPER = "repro-partition-helper"


def make_workload(name="w", m=8, k=160, n=32, t=4) -> LayerWorkload:
    profile = SparsityProfile(0.88, 0.76, 0.87, 0.97)
    return LayerWorkload(LayerShape(name, m=m, k=k, n=n, t=t), profile)


@pytest.fixture
def spare_cpu(monkeypatch):
    """Force the executor's CPU gate open (``True``) or shut (``False``)."""

    def force(open_gate: bool) -> None:
        monkeypatch.setattr(executor, "_usable_cpus", lambda: 64 if open_gate else 1)

    return force


@pytest.fixture
def started(monkeypatch):
    """Names of the threads started from now on."""
    names: list[str] = []
    original_start = threading.Thread.start

    def counting_start(thread):
        names.append(thread.name)
        return original_start(thread)

    monkeypatch.setattr(threading.Thread, "start", counting_start)
    return names


@pytest.fixture(autouse=True)
def cold_cache():
    clear_default_cache()
    yield
    clear_default_cache()


def payload_of(result) -> str:
    return json.dumps(json.loads(result.to_json())["payload"], sort_keys=True)


def run_networks(session: Session, networks=NETWORKS):
    return session.run("networks", scale=SCALE, seed=1, networks=networks)


@pytest.fixture(scope="module")
def reference():
    """Serial, memory-only, on the caller's thread: the payload every regime must equal."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(executor, "_usable_cpus", lambda: 1)
        clear_default_cache()
        return payload_of(run_networks(Session()))


class TestPayloadIdentity:
    @pytest.mark.parametrize("open_gate", (True, False), ids=("spare-cpu", "no-spare-cpu"))
    def test_serial_pooled_and_disk_warm_runs_equal_the_reference(
        self, tmp_path, spare_cpu, reference, open_gate
    ):
        spare_cpu(open_gate)
        cold = run_networks(Session())
        assert payload_of(cold) == reference
        misses = cold.provenance["cache"]["lru_misses"]
        assert misses > 0 and cold.provenance["cache"]["lru_hits"] == 0

        clear_default_cache()
        assert payload_of(run_networks(Session(workers=2))) == reference

        tier = tmp_path / "tier"
        clear_default_cache()
        populate = run_networks(Session(cache_dir=tier))
        assert payload_of(populate) == reference
        assert populate.provenance["cache"]["disk_stores"] == misses
        assert populate.provenance["cache"]["disk_refreshes"] == 0
        clear_default_cache()
        disk_warm = run_networks(Session(cache_dir=tier))
        assert payload_of(disk_warm) == reference
        assert disk_warm.provenance["cache"]["lru_misses"] == 0

    def test_a_populate_with_the_helper_writes_each_entry_once_enriched(
        self, tmp_path, spare_cpu, started, reference
    ):
        spare_cpu(True)
        tier = tmp_path / "tier"
        populate = run_networks(Session(cache_dir=tier))
        assert started == [HELPER]
        cache = populate.provenance["cache"]
        assert cache["disk_stores"] == cache["lru_misses"] > 0
        assert cache["disk_refreshes"] == 0
        # A re-read in a fresh LRU finds every entry already enriched.
        clear_default_cache()
        reread = run_networks(Session(cache_dir=tier))
        assert payload_of(reread) == reference
        cache = reread.provenance["cache"]
        assert cache["lru_misses"] == 0 and cache["lru_disk_hits"] > 0
        assert cache["disk_stores"] == 0 and cache["disk_refreshes"] == 0
        assert started == [HELPER]

    def test_no_report_carries_a_lookahead_count(self, spare_cpu, capsys):
        from repro.api.cli import main as cli_main

        spare_cpu(True)
        result = run_networks(Session())
        assert "lru_lookahead_served" not in result.provenance["cache"]
        assert cli_main(["cache", "stats", "--json"]) == 0
        assert "lookahead_served" not in json.loads(capsys.readouterr().out)["lru"]


class TestWhenAHelperStarts:
    def test_a_cold_serial_run_starts_exactly_one_helper(self, spare_cpu, started, reference):
        spare_cpu(True)
        before = threading.active_count()
        cold = run_networks(Session())
        assert started == [HELPER]
        assert threading.active_count() == before
        assert payload_of(cold) == reference

    def test_warm_runs_start_no_thread(self, tmp_path, spare_cpu, started):
        spare_cpu(True)
        session = Session(cache_dir=tmp_path / "tier")
        run_networks(session)
        started.clear()
        lru_warm = run_networks(session)
        assert lru_warm.provenance["cache"]["lru_misses"] == 0
        clear_default_cache()
        disk_warm = run_networks(session)
        assert disk_warm.provenance["cache"]["lru_disk_hits"] > 0
        assert disk_warm.provenance["cache"]["lru_misses"] == 0
        assert started == []

    def test_one_cpu_starts_no_thread(self, spare_cpu, started, reference):
        spare_cpu(False)
        assert payload_of(run_networks(Session())) == reference
        assert started == []

    def test_a_single_partition_starts_no_thread(self, spare_cpu, started):
        spare_cpu(True)
        plan = SweepPlan.product(
            "one", (WorkloadSpec("network", "alexnet", scale=SCALE),), (SimulatorSpec("LoAS"),)
        )
        assert len(plan.partitions()) == 1
        SweepRunner().run(plan)
        assert default_cache().stats().misses > 0
        assert started == []

    def test_pool_workers_start_no_thread(self, monkeypatch, spare_cpu, started, reference):
        # Pool tasks run in this process, so a worker-side helper would show
        # here; with the gate forced open, none may start.
        from types import SimpleNamespace

        class InlinePool:
            def __init__(self, processes, initializer=None, initargs=()):
                pass

            def close(self):
                pass

            def join(self):
                pass

            def imap_unordered(self, task, payloads):
                return map(task, payloads)

        monkeypatch.setattr(
            executor,
            "multiprocessing",
            SimpleNamespace(
                get_all_start_methods=lambda: ["spawn"],
                get_context=lambda method=None: SimpleNamespace(
                    Pool=InlinePool, Event=threading.Event
                ),
            ),
        )
        spare_cpu(True)
        pooled = run_networks(Session(workers=2))
        assert pooled.provenance["cache"]["lru_misses"] > 0
        assert started == []
        assert payload_of(pooled) == reference

    def test_the_helper_runs_longest_first_and_yields_in_completion_order(self, spare_cpu):
        spare_cpu(True)
        plan = Session().describe("networks").build(scale=SCALE, seed=1, networks=NETWORKS)
        yielded = [ordinal for ordinal, _, _ in SweepRunner().iter_partitions(plan)]
        assert sorted(yielded) == list(range(len(plan.partitions())))
        # vgg16's two walks (ordinals 2 and 3) are the longest, so each
        # thread takes one first, and one of them completes first.
        assert yielded[0] in (2, 3)

    def test_fork_after_a_serial_cold_run_sees_one_thread(self):
        # In a fresh interpreter with the BLAS pools pinned to one thread, so
        # only this package's threads could make fork() multi-threaded (which
        # Python 3.12+ reports as a DeprecationWarning).
        script = textwrap.dedent(
            """
            import threading, warnings
            from repro.api import Session
            from repro.runner import executor

            executor._usable_cpus = lambda: 64
            networks = ("alexnet", "vgg16")
            started = []
            original_start = threading.Thread.start
            threading.Thread.start = lambda thread: (started.append(thread.name), original_start(thread))
            Session().run("networks", scale=0.05, seed=1, networks=networks)
            threading.Thread.start = original_start
            assert started == ["repro-partition-helper"], started
            assert threading.active_count() == 1, threading.enumerate()
            warnings.simplefilter("error", DeprecationWarning)
            Session(workers=2, mp_context="fork").run(
                "networks", scale=0.05, seed=2, networks=networks
            )
            print("ok")
            """
        )
        assert run_script(script).endswith("ok")

    @pytest.mark.skipif(executor._glibc("malloc_info") is None, reason="glibc malloc arenas")
    def test_the_helper_shares_one_malloc_arena_for_the_rest_of_the_process(self):
        # glibc reports one <heap> per arena.  Without the pin the helper
        # takes an arena of its own; with it, the helper and every later
        # thread share the main one, because glibc latches the limit.
        script = textwrap.dedent(
            """
            import ctypes, os, sys, tempfile, threading
            from repro.api import Session
            from repro.runner import executor

            libc = ctypes.CDLL(None)
            libc.fopen.restype = ctypes.c_void_p
            libc.fopen.argtypes = [ctypes.c_char_p, ctypes.c_char_p]
            libc.fclose.argtypes = [ctypes.c_void_p]
            libc.malloc_info.argtypes = [ctypes.c_int, ctypes.c_void_p]

            def arenas():
                handle, path = tempfile.mkstemp()
                os.close(handle)
                stream = libc.fopen(path.encode(), b"w")
                libc.malloc_info(0, stream)
                libc.fclose(stream)
                with open(path) as report:
                    text = report.read()
                os.unlink(path)
                return text.count("<heap nr=")

            executor._usable_cpus = lambda: 64
            if sys.argv[1] == "unpinned":
                executor._one_malloc_arena = lambda: None
            Session().run("networks", scale=0.05, seed=1, networks=("alexnet", "vgg16"))
            after_run = arenas()
            # A thread of the embedding program's own, started after the run.
            thread = threading.Thread(target=lambda: [bytes(100) for _ in range(20000)])
            thread.start()
            thread.join()
            print(after_run, arenas())
            """
        )
        assert run_script(script, "pinned") == "1 1"
        assert int(run_script(script, "unpinned").split()[0]) >= 2


def run_script(script: str, *args: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    done = subprocess.run(
        [sys.executable, "-c", script, *args], env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


class TestNoThreadOutlivesARun:
    @pytest.mark.parametrize("failing", ("MainThread", HELPER), ids=("caller", "helper"))
    def test_an_error_on_either_thread_reaches_the_caller(
        self, monkeypatch, spare_cpu, started, failing
    ):
        spare_cpu(True)
        original_generate = LayerWorkload.generate

        def failing_generate(workload, rng=None, finetuned=False):
            if threading.current_thread().name == failing:
                raise RuntimeError("generation failed on %s" % failing)
            return original_generate(workload, rng=rng, finetuned=finetuned)

        monkeypatch.setattr(LayerWorkload, "generate", failing_generate)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="generation failed on %s" % failing):
            run_networks(Session())
        assert started == [HELPER]
        assert threading.active_count() == before
        assert not default_cache()._generating

    def test_an_error_with_one_cpu_reaches_the_caller_and_stops_the_run(
        self, monkeypatch, spare_cpu, started
    ):
        spare_cpu(False)
        network = Session().describe("networks").build(scale=SCALE, seed=1, networks=("alexnet",))
        first, second = network.cells[0].workload.build().layers[:2]
        original_generate = LayerWorkload.generate

        def failing_generate(workload, rng=None, finetuned=False):
            if workload.name == second.name:
                raise RuntimeError("generation failed on %s" % workload.name)
            return original_generate(workload, rng=rng, finetuned=finetuned)

        monkeypatch.setattr(LayerWorkload, "generate", failing_generate)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="generation failed on %s" % second.name):
            Session().run("networks", scale=SCALE, seed=1, networks=("alexnet",))
        assert started == []
        assert threading.active_count() == before
        cache = default_cache()
        assert not cache._generating
        # The raising partition (LoAS, the plan's first variant) cached its
        # first layer; the LoAS-FT partition never started.
        layer_fingerprints = {key[0] for key in cache.memory_backend._entries}
        assert layer_fingerprints == {workload_fingerprint(first, False)}
        assert len(cache) == 1

    def test_an_abandoned_stream_joins_the_helper(self, spare_cpu, started):
        spare_cpu(True)
        before = threading.active_count()
        stream = Session().stream("networks", scale=SCALE, seed=1, networks=NETWORKS)
        next(stream)
        stream.close()
        assert threading.active_count() == before
        # Dropped without close(): collecting the stream joins it as well.
        clear_default_cache()
        stream = Session().stream("networks", scale=SCALE, seed=1, networks=NETWORKS)
        next(stream)
        gc.disable()
        try:
            del stream
            assert threading.active_count() == before
        finally:
            gc.enable()
        assert started == [HELPER, HELPER]

    def test_a_pool_forked_while_a_thread_holds_the_cache_lock_evaluates(self):
        # The fork happens while another thread holds the locks a generating
        # thread takes; the child must not inherit them held.
        script = textwrap.dedent(
            """
            import multiprocessing, os, threading
            from repro.engine import LayerEvaluation, default_cache
            from repro.runner import executor, SweepPlan, SimulatorSpec, WorkloadSpec

            held, release = threading.Event(), threading.Event()

            def hold():
                # Before Python 3.12 a cached property holds a lock while it computes.
                stage = getattr(LayerEvaluation.__dict__["matches"], "lock", threading.RLock())
                with default_cache()._lock, default_cache().memory_backend._lock, stage:
                    held.set()
                    release.wait()

            holder = threading.Thread(target=hold)
            holder.start()
            held.wait()
            plan = SweepPlan.product(
                "p", (WorkloadSpec("layer", "A-L4", scale=0.05),), (SimulatorSpec("LoAS"),), seeds=(1,)
            )
            payload = (0, tuple(plan.cells), None)
            pool = multiprocessing.get_context("fork").Pool(1)
            try:
                ordinal, results = pool.apply_async(executor._pool_task, (payload,)).get(timeout=60)
            except multiprocessing.TimeoutError:
                # The worker waits on an inherited lock; its pool cannot end.
                for child in multiprocessing.active_children():
                    child.kill()
                os._exit(3)
            pool.close()
            pool.join()
            release.set()
            holder.join()
            assert ordinal == 0 and len(results) == 1
            print("ok")
            """
        )
        assert run_script(script).endswith("ok")


class TestSharedKeys:
    def test_two_partitions_of_one_key_generate_it_once(self, monkeypatch, spare_cpu, started):
        # A-L4 runs at four timesteps, so naming them gives a second
        # partition with the same cache key.
        plan = SweepPlan.product(
            "shared",
            (
                WorkloadSpec("layer", "A-L4", scale=SCALE),
                WorkloadSpec("layer", "A-L4", scale=SCALE, timesteps=4),
            ),
            (SimulatorSpec("LoAS"), SimulatorSpec("SparTen-SNN")),
            seeds=(1,),
        )
        assert len(plan.partitions()) == 2
        spare_cpu(False)
        serial = SweepRunner().run(plan)
        clear_default_cache()
        original_generate = LayerWorkload.generate

        def slow_generate(workload, rng=None, finetuned=False):
            # Long enough that the other thread asks while this one generates.
            time.sleep(0.2)
            return original_generate(workload, rng=rng, finetuned=finetuned)

        monkeypatch.setattr(LayerWorkload, "generate", slow_generate)
        spare_cpu(True)
        threaded = SweepRunner().run(plan)
        assert started == [HELPER]
        stats = default_cache().stats()
        assert (stats.misses, stats.hits) == (1, 1)
        for (cell, got), (_, want) in zip(threaded, serial):
            assert got == want, cell

    def test_a_miss_on_a_key_in_flight_waits_and_takes_it_as_a_hit(self, monkeypatch):
        workload = make_workload("a")
        original_generate = LayerWorkload.generate
        generating = threading.Event()

        def slow_generate(self, rng=None, finetuned=False):
            generating.set()
            time.sleep(0.2)
            return original_generate(self, rng=rng, finetuned=finetuned)

        monkeypatch.setattr(LayerWorkload, "generate", slow_generate)
        cache = WorkloadEvaluationCache()
        owner_rng, waiter_rng = np.random.default_rng(4), np.random.default_rng(4)
        got = {}
        owner = threading.Thread(target=lambda: got.update(owner=cache.evaluate(workload, owner_rng)))
        owner.start()
        assert generating.wait(timeout=60)
        got["waiter"] = cache.evaluate(workload, waiter_rng)
        owner.join(timeout=60)
        assert not owner.is_alive()
        assert got["waiter"] is got["owner"]
        assert (cache.misses, cache.hits) == (1, 1)
        assert waiter_rng.bit_generator.state == owner_rng.bit_generator.state
        assert not cache._generating

    def test_a_failed_generation_leaves_the_key_to_the_next_caller(self, monkeypatch):
        workload = make_workload("a")
        original_generate = LayerWorkload.generate
        calls = []

        def failing_once(self, rng=None, finetuned=False):
            calls.append(1)
            if len(calls) == 1:
                raise RuntimeError("first generation fails")
            return original_generate(self, rng=rng, finetuned=finetuned)

        monkeypatch.setattr(LayerWorkload, "generate", failing_once)
        cache = WorkloadEvaluationCache()
        with pytest.raises(RuntimeError):
            cache.evaluate(workload, np.random.default_rng(4))
        assert not cache._generating and len(cache) == 0
        cache.evaluate(workload, np.random.default_rng(4))
        assert len(calls) == 2 and cache.misses == 2 and len(cache) == 1


class TestScopedWriteBack:
    @staticmethod
    def in_thread(function):
        outcome = []
        thread = threading.Thread(target=lambda: outcome.append(function()))
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive()
        return outcome[0]

    def test_a_flush_skips_entries_another_live_thread_registered(self, tmp_path):
        cache, tier = WorkloadEvaluationCache(), DiskEvaluationCache(tmp_path / "tier")
        registered, release = threading.Event(), threading.Event()
        flushed = []

        def partition():
            cache.evaluate(make_workload("a"), np.random.default_rng(4), disk=tier)
            registered.set()
            release.wait(timeout=60)
            flushed.append(cache.flush_writebacks())

        owner = threading.Thread(target=partition)
        owner.start()
        assert registered.wait(timeout=60)
        assert cache.flush_writebacks() == 0 and len(tier) == 0
        release.set()
        owner.join(timeout=60)
        assert not owner.is_alive()
        assert flushed == [1] and tier.stores == 1

    def test_a_thread_taking_a_pending_entry_holds_its_write(self, tmp_path):
        cache, tier = WorkloadEvaluationCache(), DiskEvaluationCache(tmp_path / "tier")
        taken, release = threading.Event(), threading.Event()
        cache.evaluate(make_workload("a"), np.random.default_rng(4), disk=tier)

        def enrich():
            cache.evaluate(make_workload("a"), np.random.default_rng(4), disk=tier)
            taken.set()
            release.wait(timeout=60)
            cache.flush_writebacks()

        other = threading.Thread(target=enrich)
        other.start()
        assert taken.wait(timeout=60)
        assert cache.flush_writebacks() == 0  # the other thread still enriches it
        release.set()
        other.join(timeout=60)
        assert not other.is_alive()
        assert tier.stores == 1

    def test_a_dead_thread_pending_writes_reach_disk_at_a_later_flush(self, tmp_path):
        cache, tier = WorkloadEvaluationCache(), DiskEvaluationCache(tmp_path / "tier")

        def raising_partition():
            cache.evaluate(make_workload("a"), np.random.default_rng(4), disk=tier)
            return "raised before its flush"

        self.in_thread(raising_partition)
        assert tier.stores == 0
        assert cache.flush_writebacks() == 1 and tier.stores == 1


class TestConcurrentCallers:
    def test_threads_sharing_one_cache_walk_bit_identical_layers(self):
        # More caller threads than cores under a short switch interval, with
        # generation outside the cache's lock: any lost or crossed update
        # would change some walk or some counter.
        layers = [make_workload("l%d" % i, m=4 + i, k=96 + 16 * i) for i in range(5)]

        def walk(cache, seed):
            rng = np.random.default_rng(seed)
            words = []
            for layer in layers:
                evaluation = cache.evaluate(layer, rng)
                words.append((evaluation.packed_words.copy(), evaluation.weights.copy()))
            return words, rng.bit_generator.state

        seeds = (1, 2, 1, 3, 2, 4)
        expected = {seed: walk(WorkloadEvaluationCache(), seed) for seed in set(seeds)}
        cache = WorkloadEvaluationCache()
        results: dict[int, tuple] = {}
        errors: list[BaseException] = []

        def worker(index, seed):
            try:
                results[index] = walk(cache, seed)
            except BaseException as exc:  # pragma: no cover - failure diagnostics
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=worker, args=(index, seed))
                for index, seed in enumerate(seeds)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        for index, seed in enumerate(seeds):
            (words, state), (want_words, want_state) = results[index], expected[seed]
            assert state == want_state
            for (got_a, got_b), (want_a, want_b) in zip(words, want_words):
                assert np.array_equal(got_a, want_a) and np.array_equal(got_b, want_b)
        assert cache.hits + cache.misses == len(seeds) * len(layers)
        # Equal seeds generate each key once, also when they ask at once.
        assert cache.misses == len(set(seeds)) * len(layers)
        assert not cache._generating
