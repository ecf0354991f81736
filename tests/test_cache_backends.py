"""Tiered cache architecture: v2 entries, degradation, remote tier, identity.

The pluggable backend stack must be invisible to results: scenario sweeps
are bit-identical whether evaluations come from regeneration, the memory
LRU, a disk tier (tensor-only or enriched v2 entries), or the
network-addressed remote daemon -- serial and pooled alike.  Degraded tiers
(torn v2 payloads, legacy v1 entries, a dead daemon) must shrink the stack,
never fail the sweep.
"""

from __future__ import annotations

import io
import json
import socket
import warnings

import numpy as np
import pytest

from repro.core import LoASSimulator
from repro.engine import (
    DiskEvaluationCache,
    LayerEvaluation,
    MemoryBackend,
    RemoteBackend,
    TieredCache,
    WorkloadEvaluationCache,
    clear_default_cache,
)
from repro.engine.backend import CacheEntry, pack_entry, unpack_entry
from repro.engine.cache import generator_fingerprint, workload_fingerprint
from repro.engine.serde import encode_state, pack_payload, unpack_payload
from repro.engine.server import EvaluationCacheServer
from repro.snn.network import LayerShape
from repro.snn.workloads import LayerWorkload, SparsityProfile

from test_runner import assert_sweeps_identical, legacy_run_networks


def make_workload(name="tiny", m=8, k=160, n=32, t=4) -> LayerWorkload:
    profile = SparsityProfile(0.881, 0.765, 0.868, 0.968)
    return LayerWorkload(LayerShape(name, m=m, k=k, n=n, t=t), profile)


def assert_simulations_identical(a, b):
    assert a.cycles == b.cycles
    assert a.dram.as_dict() == b.dram.as_dict()
    assert dict(a.energy.entries) == dict(b.energy.entries)
    assert a.ops == b.ops


@pytest.fixture
def tier(tmp_path) -> DiskEvaluationCache:
    return DiskEvaluationCache(tmp_path / "evals")


@pytest.fixture
def cache_server():
    server = EvaluationCacheServer(("127.0.0.1", 0))
    server.start_background()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()


def consumed_evaluation(cache: WorkloadEvaluationCache, workload, seed=3, preprocess=True):
    """Evaluate and run a simulator over the result (enriching it)."""
    evaluation = cache.evaluate(workload, np.random.default_rng(seed))
    result = LoASSimulator().simulate_workload(workload, evaluation=evaluation)
    if preprocess:
        LoASSimulator().simulate_workload(
            workload, evaluation=evaluation, preprocess=True
        )
    return evaluation, result


# --------------------------------------------------------------------- #
# Dehydrate / hydrate round trip
# --------------------------------------------------------------------- #
class TestDehydration:
    def test_round_trip_is_bit_identical_and_preseeded(self, tiny_workload):
        cache = WorkloadEvaluationCache()
        evaluation, reference = consumed_evaluation(cache, tiny_workload)
        entry = CacheEntry(evaluation, np.random.default_rng(0).bit_generator.state)
        hydrated = unpack_entry(pack_entry(entry)).evaluation

        assert np.array_equal(hydrated.spikes, evaluation.spikes)
        assert hydrated.spikes.dtype == evaluation.spikes.dtype
        assert np.array_equal(hydrated.weights, evaluation.weights)
        assert hydrated.weights.dtype == evaluation.weights.dtype
        # The statistics GEMM outputs arrive pre-seeded, not recomputed.
        assert "matches" in hydrated.__dict__
        assert np.array_equal(hydrated.matches, evaluation.matches)
        assert hydrated.matches.dtype == evaluation.matches.dtype
        # Memoised compressions (and the preprocessed child's) survive; the
        # child itself rebuilds lazily (masking the dense spikes) on first
        # preprocessed() call, with its derived arrays served from the entry.
        assert set(hydrated._compressions) == set(evaluation._compressions)
        assert 1 in hydrated._pending_preprocessed and not hydrated._preprocessed
        child, reference_child = hydrated.preprocessed(1), evaluation._preprocessed[1]
        assert "matches" in child.__dict__  # seeded, not recomputed
        assert np.array_equal(child.matches, reference_child.matches)
        assert set(child._compressions) == set(reference_child._compressions)
        result = LoASSimulator().simulate_workload(tiny_workload, evaluation=hydrated)
        assert_simulations_identical(result, reference)

    def test_derived_signature_changes_with_derived_state(self, tiny_workload):
        cache = WorkloadEvaluationCache()
        evaluation = cache.evaluate(tiny_workload, np.random.default_rng(3))
        fresh = evaluation.derived_signature()
        evaluation.statistics
        assert evaluation.derived_signature() != fresh


def stored_record(data: bytes, name: str) -> dict:
    """The container header's record for array ``name``."""
    from repro.engine.serde import _HEADER_LENGTH, _MAGIC

    (length,) = _HEADER_LENGTH.unpack_from(data, len(_MAGIC))
    start = len(_MAGIC) + _HEADER_LENGTH.size
    header = json.loads(data[start : start + length].decode("utf-8"))
    return next(record for record in header["arrays"] if record["name"] == name)


class TestWeightStorage:
    """int8 weights round-trip verbatim; entries from int32 weights still load."""

    def test_int8_weights_are_stored_verbatim(self, tiny_workload):
        cache = WorkloadEvaluationCache()
        evaluation, _ = consumed_evaluation(cache, tiny_workload)
        assert evaluation.weights.dtype == np.int8
        data = pack_entry(CacheEntry(evaluation, np.random.default_rng(0).bit_generator.state))
        record = stored_record(data, "weights")
        assert record["dtype"] == "|i1" and "stored" not in record
        assert record["nbytes"] == evaluation.weights.size
        hydrated = unpack_entry(data).evaluation
        assert hydrated.weights.dtype == np.int8
        assert np.array_equal(hydrated.weights, evaluation.weights)

    def test_extreme_int8_values_survive_the_serde(self):
        weights = np.array([[-128, 127, 0], [1, -1, -128]], dtype=np.int8)
        arrays, _ = unpack_payload(pack_payload({"weights": weights}, {}))
        assert arrays["weights"].dtype == np.int8
        assert np.array_equal(arrays["weights"], weights)

    @pytest.mark.parametrize("consumed", (False, True), ids=("tensor-only", "enriched"))
    def test_int32_weight_entries_hydrate_with_equal_values(self, tiny_workload, consumed):
        cache = WorkloadEvaluationCache()
        evaluation, reference = consumed_evaluation(cache, tiny_workload)
        # An entry written before weights were narrowed: same values as int32.
        legacy = LayerEvaluation(evaluation.spikes, evaluation.weights.astype(np.int32))
        if consumed:
            LoASSimulator().simulate_workload(tiny_workload, evaluation=legacy)
            LoASSimulator().simulate_workload(tiny_workload, evaluation=legacy, preprocess=True)
        data = pack_entry(CacheEntry(legacy, np.random.default_rng(0).bit_generator.state))
        record = stored_record(data, "weights")
        assert record["dtype"] == "<i4" and record["stored"] == "|i1"
        hydrated = unpack_entry(data).evaluation
        assert hydrated.weights.dtype == np.int32
        assert np.array_equal(hydrated.weights, evaluation.weights)
        result = LoASSimulator().simulate_workload(tiny_workload, evaluation=hydrated)
        assert_simulations_identical(result, reference)
        child = hydrated.preprocessed(1)
        assert np.array_equal(child.full_sums, evaluation.preprocessed(1).full_sums)


# --------------------------------------------------------------------- #
# v2 disk entries
# --------------------------------------------------------------------- #
class TestDiskV2:
    def test_writeback_enriches_the_stored_entry(self, tier, tiny_workload):
        cache = WorkloadEvaluationCache(backends=(tier,))
        _, reference = consumed_evaluation(cache, tiny_workload)
        assert tier.stores == 1 and tier.refreshes == 0
        assert cache.flush_writebacks() == 1
        assert tier.refreshes == 1

        cold = WorkloadEvaluationCache(backends=(tier,))
        loaded = cold.evaluate(tiny_workload, np.random.default_rng(3))
        assert cold.disk_hits == 1 and cold.misses == 0
        assert "matches" in loaded.__dict__  # statistics served from disk
        assert loaded._compressions  # compression served from disk
        result = LoASSimulator().simulate_workload(tiny_workload, evaluation=loaded)
        assert_simulations_identical(result, reference)

    def test_unflushed_entries_stay_tensor_only_but_loadable(self, tier, tiny_workload):
        cache = WorkloadEvaluationCache(backends=(tier,))
        cache.evaluate(tiny_workload, np.random.default_rng(3))
        loaded = WorkloadEvaluationCache(backends=(tier,)).evaluate(
            tiny_workload, np.random.default_rng(3)
        )
        assert "matches" not in loaded.__dict__
        assert np.array_equal(
            loaded.matches,
            WorkloadEvaluationCache().evaluate(
                tiny_workload, np.random.default_rng(3)
            ).matches,
        )


# --------------------------------------------------------------------- #
# Degradation: v1 entries, torn payloads, dead remote
# --------------------------------------------------------------------- #
def write_v1_entry(tier: DiskEvaluationCache, workload, seed: int):
    """Publish a legacy (pre-refactor ``np.savez``) tensor-only entry."""
    rng = np.random.default_rng(seed)
    key = (workload_fingerprint(workload, False), generator_fingerprint(rng))
    packed, weights = workload.generate(rng=rng)
    payload = json.dumps(encode_state(rng.bit_generator.state)).encode("utf-8")
    buffer = io.BytesIO()
    np.savez(
        buffer,
        spikes=packed.to_dense(),
        weights=weights,
        state=np.frombuffer(payload, dtype=np.uint8),
    )
    path = tier.entry_path(key)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(buffer.getvalue())
    return key


class TestDegradation:
    def test_v1_entry_is_a_miss_rewritten_as_v2(self, tier, tiny_workload):
        key = write_v1_entry(tier, tiny_workload, seed=3)
        v1_bytes = tier.entry_path(key).read_bytes()
        assert v1_bytes.startswith(b"PK")  # zip (v1)
        with np.load(io.BytesIO(v1_bytes)) as v1:
            v1_spikes, v1_weights = v1["spikes"], v1["weights"]
        reference = LoASSimulator().simulate_workload(
            tiny_workload, rng=np.random.default_rng(3)
        )
        cache = WorkloadEvaluationCache(backends=(tier,))
        evaluation, result = consumed_evaluation(cache, tiny_workload, preprocess=False)
        # The v1 entry no longer decodes: it is dropped like a corrupt one.
        assert tier.corrupt_dropped == 1
        assert cache.misses == 1 and cache.disk_hits == 0
        # Regeneration is bit-identical to what the v1 entry held...
        assert np.array_equal(evaluation.spikes, v1_spikes)
        assert np.array_equal(evaluation.weights, v1_weights)
        assert_simulations_identical(result, reference)
        # ...and the entry is re-published, then enriched, as v2.
        assert tier.stores == 1
        assert cache.flush_writebacks() == 1
        assert not tier.entry_path(key).read_bytes().startswith(b"PK")  # flat (v2)
        loaded = WorkloadEvaluationCache(backends=(tier,)).evaluate(
            tiny_workload, np.random.default_rng(3)
        )
        assert "matches" in loaded.__dict__

    def test_torn_v2_statistics_payload_falls_back_to_recompute(self, tier, tiny_workload):
        cache = WorkloadEvaluationCache(backends=(tier,))
        _, reference = consumed_evaluation(cache, tiny_workload)
        cache.flush_writebacks()
        (entry_file,) = tier._entry_files()
        payload = entry_file.read_bytes()
        entry_file.write_bytes(payload[: int(len(payload) * 0.6)])  # torn write

        cold = WorkloadEvaluationCache(backends=(tier,))
        rng = np.random.default_rng(3)
        regenerated = cold.evaluate(tiny_workload, rng)
        assert tier.corrupt_dropped == 1
        assert cold.misses == 1 and cold.disk_hits == 0
        result = LoASSimulator().simulate_workload(tiny_workload, evaluation=regenerated)
        assert_simulations_identical(result, reference)
        # The regeneration re-published a clean entry over the torn one.
        assert len(tier) == 1

    def test_v2_meta_naming_missing_arrays_is_corrupt(self, tier, tiny_workload):
        cache = WorkloadEvaluationCache(backends=(tier,))
        evaluation, _ = consumed_evaluation(cache, tiny_workload)
        cache.flush_writebacks()
        (entry_file,) = tier._entry_files()
        # Rebuild the entry with meta claiming derived arrays the container
        # does not hold -- the hydration must treat it as corruption.
        arrays, meta = evaluation.dehydrate()
        arrays = {
            name: array for name, array in arrays.items() if not name.startswith("d_")
        }
        arrays["state"] = np.frombuffer(
            json.dumps(encode_state(np.random.default_rng(3).bit_generator.state)).encode(),
            dtype=np.uint8,
        )
        entry_file.write_bytes(pack_payload(arrays, meta))
        cold = WorkloadEvaluationCache(backends=(tier,))
        cold.evaluate(tiny_workload, np.random.default_rng(3))
        assert tier.corrupt_dropped == 1 and cold.misses == 1

    def test_dead_remote_degrades_with_a_single_warning(self, tmp_path, tiny_workload):
        # Grab a port that nothing listens on.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        dead_port = probe.getsockname()[1]
        probe.close()
        disk = DiskEvaluationCache(tmp_path / "evals")
        remote = RemoteBackend("127.0.0.1:%d" % dead_port, timeout=1.0)
        cache = WorkloadEvaluationCache(backends=(disk, remote))
        reference = WorkloadEvaluationCache().evaluate(
            tiny_workload, np.random.default_rng(3)
        )
        with pytest.warns(RuntimeWarning, match="unreachable"):
            first = cache.evaluate(tiny_workload, np.random.default_rng(3))
        assert not remote.alive
        assert np.array_equal(first.spikes, reference.spikes)
        assert disk.stores == 1  # the healthy lower tier still works
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a second warning would fail here
            cache.flush_writebacks()
            other = make_workload(name="other", m=6)
            cache.evaluate(other, np.random.default_rng(4))
        assert cache.misses == 2


# --------------------------------------------------------------------- #
# Remote tier (live daemon)
# --------------------------------------------------------------------- #
@pytest.mark.timeout(60)
class TestRemoteTier:
    def test_round_trip_through_the_daemon(self, cache_server, tiny_workload):
        remote = RemoteBackend(cache_server.url)
        cache = WorkloadEvaluationCache(backends=(remote,))
        _, reference = consumed_evaluation(cache, tiny_workload)
        cache.flush_writebacks()
        stats = remote.server_stats()
        assert stats.stores == 1 and stats.refreshes == 1 and stats.entries == 1

        cold = WorkloadEvaluationCache(backends=(RemoteBackend(cache_server.url),))
        rng = np.random.default_rng(3)
        loaded = cold.evaluate(tiny_workload, rng)
        assert cold.disk_hits == 1 and cold.misses == 0
        assert "matches" in loaded.__dict__  # enriched entry over the wire
        result = LoASSimulator().simulate_workload(tiny_workload, evaluation=loaded)
        assert_simulations_identical(result, reference)
        assert remote.server_stats().hits == 1

    def test_promote_on_hit_fills_the_tiers_above(self, cache_server, tmp_path, tiny_workload):
        warm = WorkloadEvaluationCache(backends=(RemoteBackend(cache_server.url),))
        consumed_evaluation(warm, tiny_workload)
        warm.flush_writebacks()
        disk = DiskEvaluationCache(tmp_path / "evals")
        stacked = WorkloadEvaluationCache(
            backends=(disk, RemoteBackend(cache_server.url))
        )
        stacked.evaluate(tiny_workload, np.random.default_rng(3))
        assert stacked.disk_hits == 1
        assert len(disk) == 1  # remote hit promoted into the disk tier
        assert len(stacked.memory_backend) == 1  # ... and into the LRU

    def test_clear_and_stats_over_the_wire(self, cache_server, tiny_workload):
        remote = RemoteBackend(cache_server.url)
        cache = WorkloadEvaluationCache(backends=(remote,))
        cache.evaluate(tiny_workload, np.random.default_rng(0))
        assert remote.server_stats().entries == 1
        remote.clear()
        assert remote.server_stats().entries == 0


# --------------------------------------------------------------------- #
# Bit-identity across every stack configuration (acceptance)
# --------------------------------------------------------------------- #
SCALE = 0.06
NETWORKS = ("alexnet", "vgg16")  # two (workload, seed) partitions: real pool
SEED = 1


@pytest.mark.timeout(300)
class TestTierStackEquivalence:
    @pytest.fixture(scope="class")
    def reference(self):
        return legacy_run_networks(networks=NETWORKS, scale=SCALE, seed=SEED)

    @staticmethod
    def run_stack(workers, tmp_path=None, cache_url=None, repeat=1):
        from repro.experiments.sweeps import network_sweep_plan
        from repro.runner import SweepRunner

        plan = network_sweep_plan(networks=NETWORKS, scale=SCALE, seed=SEED)
        runner = SweepRunner(
            workers=workers,
            cache_dir=None if tmp_path is None else tmp_path / "evals",
            cache_url=cache_url,
        )
        nested = None
        for _ in range(repeat):
            clear_default_cache()
            nested = runner.run(plan).nested()
        clear_default_cache()
        return nested

    @pytest.mark.parametrize("workers", [0, 2])
    def test_memory_only_matches_legacy(self, reference, workers):
        assert_sweeps_identical(reference, self.run_stack(workers))

    @pytest.mark.parametrize("workers", [0, 2])
    def test_memory_disk_matches_legacy(self, reference, workers, tmp_path):
        # repeat=2: the second run is served from v2 disk entries.
        assert_sweeps_identical(reference, self.run_stack(workers, tmp_path, repeat=2))

    @pytest.mark.parametrize("workers", [0, 2])
    def test_memory_disk_remote_matches_legacy(
        self, reference, workers, tmp_path, cache_server
    ):
        assert_sweeps_identical(
            reference,
            self.run_stack(workers, tmp_path, cache_url=cache_server.url, repeat=2),
        )

    def test_remote_only_warm_run_matches_legacy(self, reference, cache_server):
        # Populate the daemon, then serve a fresh process-shaped run from it.
        assert_sweeps_identical(
            reference, self.run_stack(0, cache_url=cache_server.url, repeat=2)
        )
        remote = RemoteBackend(cache_server.url)
        assert remote.server_stats().hits > 0


class TestSweepRegimeCounters:
    def test_cold_then_lru_warm_then_disk_warm(self, tmp_path, monkeypatch):
        """The networks sweep in each cache regime, asserted by counters only."""
        from repro.engine import default_cache
        from repro.engine.evaluation import LayerEvaluation
        from repro.experiments.sweeps import network_sweep_plan
        from repro.runner import SweepRunner

        computed = []
        for stage in ("matches", "full_sums"):
            descriptor = LayerEvaluation.__dict__[stage]

            def counting(evaluation, _compute=descriptor.func, _stage=stage):
                computed.append(_stage)
                return _compute(evaluation)

            monkeypatch.setattr(descriptor, "func", counting)

        tier = DiskEvaluationCache(tmp_path / "evals")
        runner = SweepRunner(cache_dir=tier)
        plan = network_sweep_plan(networks=NETWORKS, scale=SCALE, seed=SEED)
        cache = default_cache()

        clear_default_cache()
        runner.run(plan)
        cold = cache.stats()
        assert cold.misses > 0 and cold.hits == 0 and cold.disk_hits == 0
        assert set(computed) == {"matches", "full_sums"}
        assert tier.refreshes > 0  # the write-back enriched the stored entries

        runner.run(plan)
        lru_warm = cache.stats()
        assert lru_warm.hits > cold.hits
        assert lru_warm.misses == cold.misses and lru_warm.disk_hits == 0

        clear_default_cache()
        computed.clear()
        runner.run(plan)
        disk_warm = cache.stats()
        assert disk_warm.misses == 0 and disk_warm.disk_hits == cold.misses
        assert computed == []  # statistics came from the tier, not the GEMMs
        clear_default_cache()


class TestTieredCacheUnit:
    def test_promote_on_hit_and_write_through(self):
        upper, lower = MemoryBackend(4), MemoryBackend(4)
        stack = TieredCache((upper, lower))
        evaluation = WorkloadEvaluationCache().evaluate(
            make_workload(), np.random.default_rng(0)
        )
        entry = CacheEntry(evaluation, np.random.default_rng(0).bit_generator.state)
        stack.put("key", entry)
        assert len(upper) == 1 and len(lower) == 1
        upper.clear()
        found, level = stack.get("key")
        assert found is entry and level == 1
        assert len(upper) == 1  # promoted back into the top tier
        found, level = stack.get("key")
        assert level == 0

    def test_miss_returns_sentinel_level(self):
        stack = TieredCache((MemoryBackend(2),))
        entry, level = stack.get("absent")
        assert entry is None and level == -1
