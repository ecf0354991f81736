"""Lookahead generation: the next layer's tensors drawn on a background thread.

``WorkloadEvaluationCache.evaluate(..., next_workload=)`` starts generating
the caller's next workload after a full miss, from a copy of the caller's
generator; the serial sweep executor names the next layer only when the
process has a CPU to spare (``executor._usable_cpus``), and pool workers
never do.  These tests pin what must
not change because of it: payloads, counters, the caller's random stream,
and that no thread outlives a run.
"""

from __future__ import annotations

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
    WorkloadEvaluationCache,
    clear_default_cache,
    default_cache,
    generator_fingerprint,
    workload_fingerprint,
)
from repro.runner import executor
from repro.snn.network import LayerShape
from repro.snn.workloads import LayerWorkload, SparsityProfile

SCALE = 0.05
NETWORKS = ("alexnet", "vgg16")
SRC = Path(__file__).resolve().parents[1] / "src"


def make_workload(name="w", m=8, k=160, n=32, t=4) -> LayerWorkload:
    profile = SparsityProfile(0.88, 0.76, 0.87, 0.97)
    return LayerWorkload(LayerShape(name, m=m, k=k, n=n, t=t), profile)


class SlowWorkload(LayerWorkload):
    """A workload whose generation takes long enough to still be running."""

    def generate(self, rng=None, finetuned=False):
        time.sleep(0.2)
        return super().generate(rng=rng, finetuned=finetuned)


def slow_workload(name="slow", m=6) -> SlowWorkload:
    base = make_workload(name, m=m)
    return SlowWorkload(base.shape, base.profile, base.weight_bits)


@pytest.fixture
def spare_cpu(monkeypatch):
    """Force the executor's CPU gate open (``True``) or shut (``False``)."""

    def force(open_gate: bool) -> None:
        monkeypatch.setattr(executor, "_usable_cpus", lambda: 64 if open_gate else 1)

    return force


@pytest.fixture(autouse=True)
def cold_cache():
    clear_default_cache()
    yield
    clear_default_cache()


def payload_of(result) -> str:
    return json.dumps(json.loads(result.to_json())["payload"], sort_keys=True)


def run_networks(session: Session):
    return session.run("networks", scale=SCALE, seed=1, networks=NETWORKS)


@pytest.fixture(scope="module")
def reference():
    """Serial, memory-only, no lookahead: the payload every regime must equal."""
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
        # Every miss but each variant's first layer per partition (2 x 2).
        expected = misses - 2 * len(NETWORKS) if open_gate else 0
        assert cold.provenance["cache"]["lru_lookahead_served"] == expected

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
        assert disk_warm.provenance["cache"]["lru_lookahead_served"] == 0


class TestObservability:
    def test_every_report_carries_the_lookahead_count(self, spare_cpu, capsys):
        from repro.api.cli import main as cli_main

        spare_cpu(True)
        session = Session()
        result = run_networks(session)
        served = result.provenance["cache"]["lru_lookahead_served"]
        assert served == result.provenance["cache"]["lru_misses"] - 2 * len(NETWORKS)
        assert session.cache_stats()["lru"].lookahead_served == served
        assert cli_main(["cache", "stats", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["lru"]["lookahead_served"] == served
        decoded = type(result).from_json(result.to_json())
        assert decoded.provenance["cache"]["lru_lookahead_served"] == served


class TestNoStrayThreads:
    def test_warm_runs_start_no_thread(self, tmp_path, monkeypatch, spare_cpu):
        spare_cpu(True)
        session = Session(cache_dir=tmp_path / "tier")
        run_networks(session)
        started = []
        original_start = threading.Thread.start

        def counting_start(thread):
            started.append(thread.name)
            return original_start(thread)

        monkeypatch.setattr(threading.Thread, "start", counting_start)
        lru_warm = run_networks(session)
        assert lru_warm.provenance["cache"]["lru_misses"] == 0
        clear_default_cache()
        disk_warm = run_networks(session)
        assert disk_warm.provenance["cache"]["lru_disk_hits"] > 0
        assert disk_warm.provenance["cache"]["lru_misses"] == 0
        assert started == []

    def test_pool_workers_start_no_thread(self, monkeypatch, spare_cpu, reference):
        # Pool tasks run in this process, so a worker-side lookahead would
        # show here; with the gate forced open, none may start.
        from types import SimpleNamespace

        class InlinePool:
            def __init__(self, processes):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def imap_unordered(self, task, payloads):
                return map(task, payloads)

        monkeypatch.setattr(
            executor,
            "multiprocessing",
            SimpleNamespace(
                get_all_start_methods=lambda: ["spawn"],
                get_context=lambda method=None: SimpleNamespace(Pool=InlinePool),
            ),
        )
        spare_cpu(True)
        started = []
        original_start = threading.Thread.start

        def counting_start(thread):
            started.append(thread.name)
            return original_start(thread)

        monkeypatch.setattr(threading.Thread, "start", counting_start)
        pooled = run_networks(Session(workers=2))
        assert pooled.provenance["cache"]["lru_misses"] > 0
        assert pooled.provenance["cache"]["lru_lookahead_served"] == 0
        assert started == []
        assert payload_of(pooled) == reference

    def test_a_cold_run_starts_one_thread_per_partition(self, monkeypatch, spare_cpu):
        # One worker serves every lookahead of a partition, both variants
        # included, instead of one thread per lookahead.
        spare_cpu(True)
        started = []
        original_start = threading.Thread.start

        def counting_start(thread):
            started.append(thread.name)
            return original_start(thread)

        monkeypatch.setattr(threading.Thread, "start", counting_start)
        cold = run_networks(Session())
        assert cold.provenance["cache"]["lru_lookahead_served"] > 2 * len(NETWORKS)
        assert started == ["repro-lookahead"] * len(NETWORKS)

    def test_active_thread_count_is_restored_when_run_returns(self, spare_cpu):
        spare_cpu(True)
        before = threading.active_count()
        result = run_networks(Session())
        assert result.provenance["cache"]["lru_lookahead_served"] > 0
        assert threading.active_count() == before

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
            cold = Session().run("networks", scale=0.05, seed=1, networks=networks)
            assert cold.provenance["cache"]["lru_lookahead_served"] > 0
            assert threading.active_count() == 1, threading.enumerate()
            warnings.simplefilter("error", DeprecationWarning)
            Session(workers=2, mp_context="fork").run(
                "networks", scale=0.05, seed=2, networks=networks
            )
            print("ok")
            """
        )
        env = dict(os.environ, PYTHONPATH=str(SRC))
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = "1"
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip().endswith("ok")


class TestFailures:
    @pytest.mark.parametrize("open_gate", (True, False), ids=("spare-cpu", "no-spare-cpu"))
    def test_generation_error_on_the_second_layer_reaches_the_caller(
        self, monkeypatch, spare_cpu, open_gate
    ):
        spare_cpu(open_gate)
        network = Session().describe("networks").build(
            scale=SCALE, seed=1, networks=("alexnet",)
        )
        second = network.cells[0].workload.build().layers[1]
        original_generate = LayerWorkload.generate

        def failing_generate(workload, rng=None, finetuned=False):
            if workload.name == second.name:
                raise RuntimeError("generation failed on %s" % workload.name)
            return original_generate(workload, rng=rng, finetuned=finetuned)

        monkeypatch.setattr(LayerWorkload, "generate", failing_generate)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="generation failed"):
            Session().run("networks", scale=SCALE, seed=1, networks=("alexnet",))
        assert threading.active_count() == before
        cache = default_cache()
        assert not cache._lookaheads
        layer_fingerprints = {key[0] for key in cache.memory_backend._entries}
        assert workload_fingerprint(second, False) not in layer_fingerprints
        assert workload_fingerprint(second, True) not in layer_fingerprints
        assert len(cache) == 2  # the first layer, once per variant


class TestCacheLookahead:
    def test_a_matching_miss_takes_the_lookahead(self):
        first, second = make_workload("a"), make_workload("b", m=5)
        cache, rng = WorkloadEvaluationCache(), np.random.default_rng(4)
        cache.evaluate(first, rng, next_workload=second)
        (pending,) = cache._lookaheads.values()
        served = cache.evaluate(second, rng)
        assert cache.misses == 2 and cache.lookahead_served == 1
        # The cache keeps copies made on the caller's thread, not the
        # worker's arrays.
        assert pending.tensors is None
        assert cache.stats().lookahead_served == 1

        reference_rng = np.random.default_rng(4)
        reference = WorkloadEvaluationCache()
        reference.evaluate(first, reference_rng)
        expected = reference.evaluate(second, reference_rng)
        assert np.array_equal(served.packed_words, expected.packed_words)
        assert np.array_equal(served.weights, expected.weights)
        assert not served.weights.flags.writeable
        assert rng.bit_generator.state == reference_rng.bit_generator.state

    def test_the_caller_generator_is_left_at_the_post_generation_state(self):
        first, second = make_workload("a"), slow_workload()
        cache, rng = WorkloadEvaluationCache(), np.random.default_rng(4)
        cache.evaluate(first, rng, next_workload=second)
        state = rng.bit_generator.state
        cache.drop_lookahead(rng)  # joins the thread
        assert rng.bit_generator.state == state
        expected = np.random.default_rng(4)
        first.generate(rng=expected)
        assert state == expected.bit_generator.state

    def test_a_miss_on_another_key_regenerates(self):
        first, named, actual = make_workload("a"), make_workload("b", m=5), make_workload("c", m=7)
        cache, rng = WorkloadEvaluationCache(), np.random.default_rng(4)
        cache.evaluate(first, rng, next_workload=named)
        evaluation = cache.evaluate(actual, rng)
        assert cache.lookahead_served == 0 and not cache._lookaheads
        expected_rng = np.random.default_rng(4)
        first.generate(rng=expected_rng)
        spikes, weights = actual.generate(rng=expected_rng)
        assert np.array_equal(evaluation.packed_words, spikes.words)
        assert np.array_equal(evaluation.weights, weights)
        assert rng.bit_generator.state == expected_rng.bit_generator.state

    def test_a_hit_on_the_pending_key_joins_and_drops_it(self):
        first, second = make_workload("a"), slow_workload()
        cache = WorkloadEvaluationCache()
        rng = np.random.default_rng(4)
        cache.evaluate(first, rng, next_workload=second)
        (pending,) = cache._lookaheads.values()
        # Another generator at the same state puts the key in the LRU first,
        # through a fast workload of the same fingerprint.
        twin = np.random.default_rng(4)
        twin.bit_generator.state = rng.bit_generator.state
        expected = cache.evaluate(make_workload("fast twin", m=6), twin)
        # A third generator's lookahead keeps the worker running past the hit.
        other = np.random.default_rng(9)
        cache.evaluate(make_workload("o"), other, next_workload=slow_workload("o2", m=7))
        assert not pending.done.is_set()
        hit = cache.evaluate(second, rng)
        assert hit is expected and cache.hits == 1 and cache.lookahead_served == 0
        assert pending.done.is_set() and list(cache._lookaheads) == [id(other)]
        assert rng.bit_generator.state == twin.bit_generator.state
        cache.drop_lookahead(other)
        assert cache._worker is None

    def test_clear_joins_and_drops_every_pending_lookahead(self):
        cache = WorkloadEvaluationCache()
        generators = [np.random.default_rng(seed) for seed in (1, 2)]
        for rng in generators:
            cache.evaluate(make_workload("a"), rng, next_workload=slow_workload())
        pending = list(cache._lookaheads.values())
        assert len(pending) == 2
        cache.clear()
        assert not cache._lookaheads and cache._worker is None
        assert all(lookahead.done.is_set() for lookahead in pending)
        assert cache.stats().lookahead_served == 0

    def test_at_most_one_lookahead_is_pending_per_generator(self):
        cache, rng = WorkloadEvaluationCache(), np.random.default_rng(4)
        cache.evaluate(make_workload("a"), rng, next_workload=slow_workload("x"))
        (first,) = cache._lookaheads.values()
        cache.evaluate(make_workload("b", m=5), rng, next_workload=slow_workload("y", m=7))
        assert len(cache._lookaheads) == 1
        assert first.done.is_set()
        cache.drop_lookahead(rng)
        assert not cache._lookaheads and cache._worker is None

    def test_one_worker_runs_the_lookaheads_in_order_and_ends_when_none_is_pending(self):
        layers = [make_workload("l%d" % i, m=4 + i) for i in range(4)]
        generators = [np.random.default_rng(seed) for seed in (1, 2)]
        before = threading.active_count()
        cache = WorkloadEvaluationCache()
        seen = []
        for position, layer in enumerate(layers):
            upcoming = layers[position + 1] if position + 1 < len(layers) else None
            for rng in generators:
                cache.evaluate(layer, rng, next_workload=upcoming)
            seen.append(cache._worker)
        worker = seen[0]
        assert worker is not None and seen[:-1] == [worker] * (len(layers) - 1)
        assert seen[-1] is None and not worker.thread.is_alive()
        assert cache.lookahead_served == len(generators) * (len(layers) - 1)
        assert threading.active_count() == before

    def test_a_hit_starts_no_lookahead(self):
        cache = WorkloadEvaluationCache()
        layer, upcoming = make_workload("a"), make_workload("b")
        cache.evaluate(layer, np.random.default_rng(4))
        cache.evaluate(layer, np.random.default_rng(4), next_workload=upcoming)
        assert cache.hits == 1 and not cache._lookaheads

    def test_the_lookahead_key_is_the_next_call_key(self):
        first, second = make_workload("a"), make_workload("b", m=5)
        cache, rng = WorkloadEvaluationCache(), np.random.default_rng(4)
        cache.evaluate(first, rng, next_workload=second, finetuned=True)
        (pending,) = cache._lookaheads.values()
        assert pending.key == (workload_fingerprint(second, True), generator_fingerprint(rng))
        cache.drop_lookahead(rng)


class TestConcurrentCallers:
    def test_threads_sharing_one_cache_walk_bit_identical_layers(self):
        # More caller threads than cores, each walking layers with lookahead,
        # under a short switch interval: any lost or crossed update between a
        # lookahead and the cache's bookkeeping would change some walk.
        layers = [make_workload("l%d" % i, m=4 + i, k=96 + 16 * i) for i in range(5)]

        def walk(cache, seed):
            rng = np.random.default_rng(seed)
            words = []
            for position, layer in enumerate(layers):
                upcoming = layers[position + 1] if position + 1 < len(layers) else None
                evaluation = cache.evaluate(layer, rng, next_workload=upcoming)
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
        assert cache.misses == len(set(seeds)) * len(layers)
        assert not cache._lookaheads
