"""Disk evaluation-cache tier: bit-identity, atomicity, eviction, threading.

The on-disk tier must be indistinguishable from regeneration: a disk hit
returns bit-identical tensors *and* fast-forwards the caller's generator to
the exact post-generation state, so downstream randomness cannot diverge.
Torn writes (simulated by corrupting an entry file) must degrade to a miss,
and the byte budget must evict least-recently-used entries.
"""

from __future__ import annotations

import gc
import json
import mmap
import os
import re
import threading

import numpy as np
import pytest

from repro.api import Session
from repro.core import LoASSimulator
from repro.engine import (
    DiskEvaluationCache,
    LayerEvaluation,
    WorkloadEvaluationCache,
    clear_default_cache,
    default_cache,
)
from repro.engine.cache import generator_fingerprint, workload_fingerprint
from repro.runner import SIMULATOR_FACTORIES
from repro.snn.network import LayerShape
from repro.snn.workloads import LayerWorkload, SparsityProfile

from test_cache_backends import stored_record


def make_workload(name="tiny", m=8, k=160, n=32, t=4) -> LayerWorkload:
    profile = SparsityProfile(0.881, 0.765, 0.868, 0.968)
    return LayerWorkload(LayerShape(name, m=m, k=k, n=n, t=t), profile)


@pytest.fixture
def tier(tmp_path) -> DiskEvaluationCache:
    return DiskEvaluationCache(tmp_path / "evals")


def populate(tier, workload, rng, finetuned=False, cache=None):
    """A full miss over ``tier``, then the flush that writes its entry."""
    cache = cache if cache is not None else WorkloadEvaluationCache()
    evaluation = cache.evaluate(workload, rng, finetuned=finetuned, disk=tier)
    cache.flush_writebacks()
    return evaluation


class TestRoundTrip:
    def test_disk_hit_is_bit_identical_to_generation(self, tier):
        workload = make_workload()
        rng_gen = np.random.default_rng(3)
        generated = populate(tier, workload, rng_gen)
        assert tier.stores == 1

        cold_cache = WorkloadEvaluationCache()  # fresh process stand-in
        rng_disk = np.random.default_rng(3)
        loaded = cold_cache.evaluate(workload, rng_disk, disk=tier)
        assert cold_cache.disk_hits == 1 and cold_cache.misses == 0
        assert np.array_equal(generated.spikes, loaded.spikes)
        assert np.array_equal(generated.weights, loaded.weights)
        assert generated.spikes.dtype == loaded.spikes.dtype
        assert generated.weights.dtype == loaded.weights.dtype

    def test_disk_hit_fast_forwards_the_generator(self, tier):
        workload = make_workload()
        rng_gen = np.random.default_rng(3)
        populate(tier, workload, rng_gen)
        rng_disk = np.random.default_rng(3)
        WorkloadEvaluationCache().evaluate(workload, rng_disk, disk=tier)
        assert rng_gen.bit_generator.state == rng_disk.bit_generator.state
        # Downstream draws stay bit-identical.
        assert np.array_equal(rng_gen.integers(0, 1 << 30, 8), rng_disk.integers(0, 1 << 30, 8))

    def test_simulation_through_disk_tier_matches_generation(self, tier):
        workload = make_workload()
        populate(tier, workload, np.random.default_rng(3))

        cold_cache = WorkloadEvaluationCache()
        loaded = cold_cache.evaluate(workload, np.random.default_rng(3), disk=tier)
        via_disk = LoASSimulator().simulate_workload(workload, evaluation=loaded)
        spikes, weights = workload.generate(rng=np.random.default_rng(3))
        via_fresh = LoASSimulator().simulate_layer(
            LayerEvaluation(spikes, weights), name=workload.name
        )
        assert via_disk.cycles == via_fresh.cycles
        assert via_disk.dram.as_dict() == via_fresh.dram.as_dict()
        assert dict(via_disk.energy.entries) == dict(via_fresh.energy.entries)
        assert via_disk.ops == via_fresh.ops

    def test_loaded_tensors_are_read_only(self, tier):
        workload = make_workload()
        populate(tier, workload, np.random.default_rng(0))
        loaded = WorkloadEvaluationCache().evaluate(
            workload, np.random.default_rng(0), disk=tier
        )
        with pytest.raises(ValueError):
            loaded.spikes[0, 0, 0] = 1

    def test_finetuned_variant_has_its_own_entry(self, tier):
        workload = make_workload()
        cache = WorkloadEvaluationCache()
        populate(tier, workload, np.random.default_rng(2), cache=cache)
        populate(tier, workload, np.random.default_rng(2), finetuned=True, cache=cache)
        assert len(tier) == 2


class TestAtomicity:
    def test_corrupt_entry_is_dropped_and_regenerated(self, tier):
        workload = make_workload()
        generated = populate(tier, workload, np.random.default_rng(3))
        (entry,) = tier._entry_files()
        entry.write_bytes(b"torn write: not a zip archive")

        cache = WorkloadEvaluationCache()
        rng = np.random.default_rng(3)
        regenerated = cache.evaluate(workload, rng, disk=tier)
        assert tier.corrupt_dropped == 1
        assert cache.misses == 1 and cache.disk_hits == 0
        assert np.array_equal(generated.spikes, regenerated.spikes)
        assert np.array_equal(generated.weights, regenerated.weights)
        # The regeneration re-published a clean entry at the flush.
        cache.flush_writebacks()
        assert len(tier) == 1
        assert WorkloadEvaluationCache().evaluate(
            workload, np.random.default_rng(3), disk=tier
        ) is not None
        assert tier.hits == 1

    def test_truncated_entry_counts_as_miss(self, tier):
        workload = make_workload()
        populate(tier, workload, np.random.default_rng(3))
        (entry,) = tier._entry_files()
        payload = entry.read_bytes()
        entry.write_bytes(payload[: len(payload) // 2])
        assert tier.get(("nonexistent",)) is None  # plain miss path
        cache = WorkloadEvaluationCache()
        cache.evaluate(workload, np.random.default_rng(3), disk=tier)
        assert tier.corrupt_dropped == 1

    def test_no_temporary_files_left_behind(self, tier):
        workload = make_workload()
        populate(tier, workload, np.random.default_rng(1))
        assert len(tier) == 1
        leftovers = [p for p in tier.directory.iterdir() if not p.name.endswith(".npz")]
        assert leftovers == []


def snn_results(evaluation) -> list:
    """Every SNN cost model's ``as_dict()`` on ``evaluation``, and its tensors."""
    results = [np.array(evaluation.weights), evaluation.spikes]
    for key in ("LoAS", "SparTen-SNN", "GoSPA-SNN", "Gamma-SNN"):
        results.append(SIMULATOR_FACTORIES[key]().simulate_layer(evaluation).as_dict())
    results.append(LoASSimulator().simulate_layer(evaluation, preprocess=True).as_dict())
    return results


def assert_same(left, right):
    assert len(left) == len(right)
    for a, b in zip(left, right):
        if isinstance(a, np.ndarray):
            assert np.array_equal(a, b) and a.dtype == b.dtype
        else:
            assert a == b


def mapped_buffer(array):
    """The object at the bottom of ``array``'s base chain."""
    while isinstance(array, np.ndarray) and array.base is not None:
        array = array.base
    return array


def open_descriptors() -> int:
    return len(os.listdir("/proc/self/fd"))


class TestMappedEntries:
    """A hit maps its entry file; the tier only ever renames into place or deletes."""

    def test_a_hit_views_its_verbatim_members_in_the_mapped_file(self, tier):
        populate(tier, make_workload(), np.random.default_rng(3))
        (path,) = tier._entry_files()
        data = path.read_bytes()
        loaded = WorkloadEvaluationCache().evaluate(make_workload(), np.random.default_rng(3), disk=tier)
        members = loaded._members
        verbatim = {name for name in members if "stored" not in stored_record(data, name)}
        assert "state" in verbatim and "weights" not in verbatim
        for name in members:
            array = members[name]
            assert not array.flags.writeable
            assert isinstance(mapped_buffer(array), (mmap.mmap, memoryview)) == (name in verbatim)

    @pytest.mark.parametrize("how", ["clear", "evict", "replace"])
    def test_a_mapped_evaluation_outlives_its_file(self, tmp_path, how):
        workload = make_workload()
        budget = 16 if how == "evict" else None
        tier = DiskEvaluationCache(tmp_path / "evals", max_bytes=budget)
        generated = populate(tier, workload, np.random.default_rng(3))
        expected = snn_results(generated)
        (path,) = tier._entry_files()

        cache = WorkloadEvaluationCache()
        loaded = cache.evaluate(workload, np.random.default_rng(3), disk=tier)
        assert cache.disk_hits == 1
        if how == "clear":
            tier.clear()
        elif how == "evict":
            populate(tier, make_workload(name="other", m=9), np.random.default_rng(4))
            assert tier.evictions == 1
        else:
            key = (workload_fingerprint(workload), generator_fingerprint(np.random.default_rng(3)))
            tier.put(key, tier.get(key), replace=True)
            assert tier.refreshes == 1
        assert not path.exists() or how == "replace"
        assert_same(snn_results(loaded), expected)

    def test_an_empty_entry_file_is_a_corrupt_miss(self, tier):
        workload = make_workload()
        populate(tier, workload, np.random.default_rng(3))
        (path,) = tier._entry_files()
        path.write_bytes(b"")
        misses = tier.misses
        cache = WorkloadEvaluationCache()
        cache.evaluate(workload, np.random.default_rng(3), disk=tier)
        assert tier.corrupt_dropped == 1 and tier.misses == misses + 1 and tier.hits == 0
        assert cache.misses == 1 and not path.exists()

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    def test_live_mappings_hold_at_most_one_descriptor_each(self, tier):
        workloads = [make_workload(name="w%d" % m, m=m) for m in range(4, 12)]
        for workload in workloads:
            populate(tier, workload, np.random.default_rng(0))
        gc.collect()
        baseline = open_descriptors()
        cache = WorkloadEvaluationCache(maxsize=3)
        for workload in workloads:
            cache.evaluate(workload, np.random.default_rng(0), disk=tier)
            cache.flush_writebacks()
        assert tier.hits == len(workloads)
        gc.collect()
        assert open_descriptors() <= baseline + cache.maxsize + 2
        cache.clear()
        gc.collect()
        assert open_descriptors() == baseline


def decoded_kinds(cache) -> set[str]:
    """Which tensors and joins the LRU's hydrated evaluations decoded from their entries."""
    kinds = set()
    for entry in cache.memory_backend._entries.values():
        for name in entry.evaluation._members.decoded:
            member = re.sub(r"^pre\d+_", "", name)
            if member == "weights":
                kinds.add("weights")
            elif member == "d_packed_words":
                kinds.add("words")
            elif re.fullmatch(r"comp\d+", member):
                kinds.add("compression words")
            elif member in ("d_matches", "d_true_acs"):
                kinds.add("joins")
    return kinds


class TestLazyMembers:
    """A disk hit decodes a member only when a cost model reads it.

    Three disk-warm reruns of one tier: at the stored design point, at a
    new TPPE group size (new wave sums over the joins) and at a new
    compression chunk width (a new compression, which recomputes the full
    sums from ``A`` and ``B``).
    """

    PARAMS = {"scale": 0.05, "networks": ("alexnet",)}

    def rerun(self, session, overrides=()):
        clear_default_cache()
        result = session.run("networks", arch_overrides=overrides, **self.PARAMS)
        cache = result.provenance["cache"]
        assert cache["disk_hits"] > 0 and cache["lru_misses"] == cache["disk_stores"] == 0
        kinds = decoded_kinds(default_cache())
        clear_default_cache()
        memory = Session().run("networks", arch_overrides=overrides, **self.PARAMS)
        assert json.loads(result.to_json())["payload"] == json.loads(memory.to_json())["payload"]
        return cache, kinds

    def test_each_design_point_decodes_only_what_its_models_read(self, tmp_path):
        session = Session(cache_dir=tmp_path / "evals")
        clear_default_cache()
        session.run("networks", **self.PARAMS)

        cache, kinds = self.rerun(session)
        assert kinds == set() and cache["disk_refreshes"] == 0

        cache, kinds = self.rerun(session, (("pe.num_tppes", 8),))
        assert kinds == {"joins"} and cache["disk_refreshes"] == 0

        cache, kinds = self.rerun(session, (("pe.bitmask_chunk_bits", 64),))
        assert kinds == {"weights", "words", "compression words", "joins"}
        assert cache["disk_refreshes"] == cache["disk_hits"]
        clear_default_cache()


class TestEviction:
    def test_max_bytes_budget_evicts_oldest(self, tmp_path):
        first = make_workload(name="w0", m=6)
        entry_bytes = self._entry_size(tmp_path / "probe", first)
        tier = DiskEvaluationCache(tmp_path / "evals", max_bytes=int(entry_bytes * 2.5))
        cache = WorkloadEvaluationCache()
        workloads = [make_workload(name=f"w{m}", m=m) for m in (6, 7, 8)]
        paths = []
        for workload in workloads:
            populate(tier, workload, np.random.default_rng(0), cache=cache)
            newest = max(tier._entry_files(), key=lambda p: p.stat().st_mtime_ns)
            paths.append(newest)
        assert len(tier) == 2
        assert tier.total_bytes() <= tier.max_bytes
        assert not paths[0].exists()  # oldest entry evicted
        assert paths[1].exists() and paths[2].exists()

    def test_budget_smaller_than_one_entry_keeps_newest(self, tmp_path):
        tier = DiskEvaluationCache(tmp_path / "evals", max_bytes=16)
        cache = WorkloadEvaluationCache()
        populate(tier, make_workload(name="a", m=6), np.random.default_rng(0), cache=cache)
        populate(tier, make_workload(name="b", m=7), np.random.default_rng(0), cache=cache)
        assert len(tier) == 1  # the just-stored entry survives

    def test_rejects_non_positive_budget(self, tmp_path):
        with pytest.raises(ValueError):
            DiskEvaluationCache(tmp_path, max_bytes=0)

    @staticmethod
    def _entry_size(directory, workload) -> int:
        probe = DiskEvaluationCache(directory)
        populate(probe, workload, np.random.default_rng(0))
        return probe.total_bytes()


class TestThreadSafety:
    def test_concurrent_evaluations_share_one_entry(self):
        cache = WorkloadEvaluationCache()
        workload = make_workload()
        evaluations = []
        errors = []

        def worker():
            try:
                for _ in range(25):
                    evaluations.append(cache.evaluate(workload, np.random.default_rng(7)))
            except Exception as exc:  # pragma: no cover - failure diagnostics
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert errors == []
        assert len(cache) == 1
        assert cache.misses == 1
        assert cache.hits == 8 * 25 - 1
        first = evaluations[0]
        assert all(evaluation is first for evaluation in evaluations)

    def test_concurrent_distinct_workloads(self):
        cache = WorkloadEvaluationCache()
        workloads = [make_workload(name=f"w{i}", m=6 + i) for i in range(4)]
        errors = []

        def worker(workload):
            try:
                for _ in range(10):
                    cache.evaluate(workload, np.random.default_rng(1))
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(w,)) for w in workloads for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert len(cache) == len(workloads)
        assert cache.misses == len(workloads)
        assert cache.hits + cache.misses == len(workloads) * 2 * 10
