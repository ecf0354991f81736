"""Two-level evaluation cache: v2 entries, degradation, promotion, identity.

The LRU over an optional disk tier must be invisible to results: scenario
sweeps are bit-identical whether evaluations come from regeneration, the
memory LRU or a disk tier (tensor-only or enriched v2 entries) -- serial
and pooled alike.  A damaged disk entry (torn or padded v2 payloads, legacy
v1 entries) must read as a miss and be rewritten, never fail the sweep.
"""

from __future__ import annotations

import io
import json
import tempfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines import (
    ANN_ACTIVATION_SPARSITY,
    AnnLayerWorkload,
    GammaANN,
    SparTenANN,
    generate_ann_activations,
)
from repro.core import LoASSimulator
from repro.engine import (
    AnnLayerEvaluation,
    DiskEvaluationCache,
    LayerEvaluation,
    WorkloadEvaluationCache,
    clear_default_cache,
    default_cache,
)
from repro.engine.backend import CacheEntry, pack_entry, unpack_entry
from repro.engine.cache import generator_fingerprint, workload_fingerprint
from repro.engine.serde import encode_state, pack_payload, unpack_payload
from repro.snn.network import LayerShape
from repro.snn.workloads import LayerWorkload, SparsityProfile

from test_runner import assert_sweeps_identical, legacy_run_networks
from test_wave_max_sum import run_every_model

#: The simulators that consume ``AnnLayerEvaluation``.
ANN_SIMULATORS = (SparTenANN, GammaANN)


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


def consumed_evaluation(
    cache: WorkloadEvaluationCache, workload, seed=3, preprocess=True, disk=None
):
    """Evaluate (over ``disk``) and run a simulator over the result (enriching it)."""
    evaluation = cache.evaluate(workload, np.random.default_rng(seed), disk=disk)
    result = LoASSimulator().simulate_workload(workload, evaluation=evaluation)
    if preprocess:
        LoASSimulator().simulate_workload(
            workload, evaluation=evaluation, preprocess=True
        )
    return evaluation, result


def stored_evaluation(cache: WorkloadEvaluationCache, workload, seed=3, disk=None):
    """A full miss over ``disk``, then the flush that writes its entry."""
    evaluation = cache.evaluate(workload, np.random.default_rng(seed), disk=disk)
    cache.flush_writebacks()
    return evaluation


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
        # The statistics GEMM outputs arrive stored (decoded on first read),
        # not recomputed.
        assert "matches" in hydrated.derived_signature()[0]
        assert np.array_equal(hydrated.matches, evaluation.matches)
        assert hydrated.matches.dtype == evaluation.matches.dtype
        # Memoised compressions survive, and the preprocessed child is built
        # at hydration from its stored words, its derived arrays seeded.
        assert set(hydrated._compressions) == set(evaluation._compressions)
        assert set(hydrated._preprocessed) == {1}
        child, reference_child = hydrated._preprocessed[1], evaluation._preprocessed[1]
        assert hydrated.preprocessed(1) is child
        assert np.array_equal(child.packed_words, reference_child.packed_words)
        assert "matches" in child.derived_signature()[0]  # stored, not recomputed
        assert np.array_equal(child.matches, reference_child.matches)
        assert child._compressions
        assert set(child._compressions) == set(reference_child._compressions)
        result = LoASSimulator().simulate_workload(tiny_workload, evaluation=hydrated)
        assert_simulations_identical(result, reference)

    def test_derived_signature_changes_with_derived_state(self, tiny_workload):
        cache = WorkloadEvaluationCache()
        evaluation = cache.evaluate(tiny_workload, np.random.default_rng(3))
        fresh = evaluation.derived_signature()
        evaluation.statistics
        assert evaluation.derived_signature() != fresh

    def test_ann_entries_hydrate_by_their_kind(self, tiny_workload):
        ann = AnnLayerWorkload(tiny_workload.shape, tiny_workload.profile)
        evaluation = WorkloadEvaluationCache().evaluate(ann, np.random.default_rng(3))
        assert isinstance(evaluation, AnnLayerEvaluation)
        reference = GammaANN().simulate_workload(ann, evaluation=evaluation)
        entry = CacheEntry(evaluation, np.random.default_rng(0).bit_generator.state)
        hydrated = unpack_entry(pack_entry(entry)).evaluation
        assert isinstance(hydrated, AnnLayerEvaluation)
        assert np.array_equal(hydrated.activations, evaluation.activations)
        assert hydrated.derived_signature() == evaluation.derived_signature()
        assert_simulations_identical(GammaANN().simulate_workload(ann, evaluation=hydrated), reference)
        # An SNN evaluation never hydrates from an ANN entry.
        with pytest.raises(ValueError, match="kind"):
            LayerEvaluation.hydrate(*evaluation.dehydrate())

    @pytest.mark.parametrize("schema", (2, 4, None))
    def test_hydrate_rejects_other_schemas(self, tiny_workload, schema):
        cache = WorkloadEvaluationCache()
        evaluation, _ = consumed_evaluation(cache, tiny_workload)
        arrays, meta = unpack_payload(pack_payload(*evaluation.dehydrate()))
        LayerEvaluation.hydrate(arrays, meta)  # the schema it writes loads
        with pytest.raises(ValueError, match="schema"):
            LayerEvaluation.hydrate(arrays, {**meta, "schema": schema})


def stored_record(data: bytes, name: str) -> dict:
    """The container header's record for array ``name``."""
    from repro.engine.serde import _HEADER_LENGTH, _MAGIC

    (length,) = _HEADER_LENGTH.unpack_from(data, len(_MAGIC))
    start = len(_MAGIC) + _HEADER_LENGTH.size
    header = json.loads(data[start : start + length].decode("utf-8"))
    return next(record for record in header["arrays"] if record["name"] == name)


class TestWeightStorage:
    """int8 weights round-trip as a bitmask plus non-zeros; int32 entries still load."""

    def test_int8_weights_are_stored_as_a_mask_and_their_non_zeros(self, tiny_workload):
        cache = WorkloadEvaluationCache()
        evaluation, _ = consumed_evaluation(cache, tiny_workload)
        assert evaluation.weights.dtype == np.int8
        data = pack_entry(CacheEntry(evaluation, np.random.default_rng(0).bit_generator.state))
        record = stored_record(data, "weights")
        assert record["dtype"] == "|i1" and record["stored"] == "sparse"
        assert record["values"] == "|i1"
        size = evaluation.weights.size
        assert record["nbytes"] == -(-size // 8) + np.count_nonzero(evaluation.weights) < size
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
        assert record["dtype"] == "<i4" and record["values"] == "|i1"
        hydrated = unpack_entry(data).evaluation
        assert hydrated.weights.dtype == np.int32
        assert np.array_equal(hydrated.weights, evaluation.weights)
        result = LoASSimulator().simulate_workload(tiny_workload, evaluation=hydrated)
        assert_simulations_identical(result, reference)
        child = hydrated.preprocessed(1)
        assert np.array_equal(child.full_sums, evaluation.preprocessed(1).full_sums)



def int32_ann_activations(m, k, rng, activation_sparsity=ANN_ACTIVATION_SPARSITY):
    """The int32 activation draw as it was before activations were narrowed."""
    activations = rng.integers(1, 2**8, size=(m, k), dtype=np.int32)
    activations[rng.random((m, k)) < activation_sparsity] = 0
    return activations


class TestAnnActivationStorage:
    """ANN activations are uint8 on the int32 stream; int32 entries still load."""

    def test_activations_are_uint8_on_the_int32_stream(self):
        narrow_rng, wide_rng = np.random.default_rng(5), np.random.default_rng(5)
        activations = generate_ann_activations(17, 300, rng=narrow_rng)
        reference = int32_ann_activations(17, 300, wide_rng)
        assert activations.dtype == np.uint8
        assert np.array_equal(activations, reference)
        assert narrow_rng.bit_generator.state == wide_rng.bit_generator.state

    @pytest.mark.parametrize("saturated", (False, True), ids=("drawn", "all-255"))
    def test_int32_activation_entries_hydrate_with_equal_values(self, tiny_workload, saturated):
        ann = AnnLayerWorkload(tiny_workload.shape, tiny_workload.profile)
        activations, weights = ann.generate(rng=np.random.default_rng(3))
        if saturated:
            # The uint8 edge, where an unwidened sum would wrap.
            activations = np.full_like(activations, 255)
            weights = np.where(weights != 0, np.int8(-128), weights).astype(np.int8)
        evaluation = AnnLayerEvaluation(activations, weights)
        references = [cls().simulate_workload(ann, evaluation=evaluation) for cls in ANN_SIMULATORS]
        # An entry written while activations were int32: same values.
        legacy = AnnLayerEvaluation(activations.astype(np.int32), weights)
        for cls in ANN_SIMULATORS:
            cls().simulate_workload(ann, evaluation=legacy)
        data = pack_entry(CacheEntry(legacy, np.random.default_rng(0).bit_generator.state))
        assert stored_record(data, "activations")["dtype"] == "<i4"
        hydrated = unpack_entry(data).evaluation
        # Narrowed on load to the dtype generation holds them in.
        assert hydrated.activations.dtype == np.uint8
        assert not hydrated.activations.flags.writeable
        assert np.array_equal(hydrated.activations, activations)
        for cls, reference in zip(ANN_SIMULATORS, references):
            assert_simulations_identical(cls().simulate_workload(ann, evaluation=hydrated), reference)
            fresh = cls().simulate_workload(ann, evaluation=AnnLayerEvaluation(activations, weights))
            assert_simulations_identical(fresh, reference)

    def test_a_tier_of_int32_activation_entries_serves_identical_fig18_payloads(self, tmp_path):
        from repro.api import Session

        params = dict(network="alexnet", scale=SCALE, seed=SEED)
        session = Session(cache_dir=tmp_path / "evals")
        clear_default_cache()
        cold = session.run("fig18-snn-vs-ann", **params)
        # Rewrite every ANN entry as one written while activations were int32.
        rewritten = 0
        for path in sorted((tmp_path / "evals").glob("*.npz")):
            arrays, meta = unpack_payload(path.read_bytes())
            if meta.get("kind") == "ann":
                arrays = dict(arrays, activations=arrays["activations"].astype(np.int32))
                path.write_bytes(pack_payload(arrays, meta))
                assert stored_record(path.read_bytes(), "activations")["dtype"] == "<i4"
                rewritten += 1
        assert rewritten > 0
        clear_default_cache()
        disk_warm = session.run("fig18-snn-vs-ann", **params)
        assert disk_warm.provenance["cache"]["lru_misses"] == 0
        assert json.loads(disk_warm.to_json())["payload"] == json.loads(cold.to_json())["payload"]
        held = [
            entry.evaluation.activations.dtype
            for entry in default_cache().memory_backend._entries.values()
            if entry.evaluation.kind == "ann"
        ]
        assert held and set(held) == {np.dtype(np.uint8)}
        clear_default_cache()


# --------------------------------------------------------------------- #
# v2 disk entries
# --------------------------------------------------------------------- #
class TestDiskV2:
    def test_writeback_enriches_the_stored_entry(self, tier, tiny_workload):
        cache = WorkloadEvaluationCache()
        _, reference = consumed_evaluation(cache, tiny_workload, disk=tier)
        assert tier.stores == 0  # a full miss is written by the flush only
        assert cache.flush_writebacks() == 1
        assert tier.stores == 1 and tier.refreshes == 0  # once, already enriched

        cold = WorkloadEvaluationCache()
        loaded = cold.evaluate(tiny_workload, np.random.default_rng(3), disk=tier)
        assert cold.disk_hits == 1 and cold.misses == 0
        assert "matches" in loaded.derived_signature()[0]  # statistics served from disk
        assert loaded._compressions  # compression served from disk
        result = LoASSimulator().simulate_workload(tiny_workload, evaluation=loaded)
        assert_simulations_identical(result, reference)

    def test_unflushed_entries_stay_tensor_only_but_loadable(self, tier, tiny_workload):
        # Flushed before any simulator enriched it: the entry holds tensors only.
        stored_evaluation(WorkloadEvaluationCache(), tiny_workload, disk=tier)
        assert tier.stores == 1
        loaded = WorkloadEvaluationCache().evaluate(
            tiny_workload, np.random.default_rng(3), disk=tier
        )
        assert "matches" not in loaded.__dict__
        assert np.array_equal(
            loaded.matches,
            WorkloadEvaluationCache().evaluate(
                tiny_workload, np.random.default_rng(3)
            ).matches,
        )


# --------------------------------------------------------------------- #
# Degradation: v1 entries, torn and padded payloads
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


@pytest.fixture(scope="module")
def enriched_entry(tmp_path_factory):
    """The bytes of one flushed (enriched) entry, its key and the clean run."""
    workload = make_workload()
    tier = DiskEvaluationCache(tmp_path_factory.mktemp("enriched"))
    cache = WorkloadEvaluationCache()
    consumed_evaluation(cache, workload, disk=tier)
    assert cache.flush_writebacks() == 1
    rng = np.random.default_rng(3)
    key = (workload_fingerprint(workload, False), generator_fingerprint(rng))
    clean = WorkloadEvaluationCache().evaluate(workload, rng)
    return SimpleNamespace(
        workload=workload,
        key=key,
        data=tier.entry_path(key).read_bytes(),
        full_sums=clean.full_sums,
        matches=clean.matches,
        state=rng.bit_generator.state,
    )


#: A consumed tiny-workload entry (seed 3) as version 0.20.0 wrote it, before
#: the sparse storage form: schema 3, every tensor member verbatim.
ENTRY_0_20_0 = Path(__file__).parent / "data" / "entry-0.20.0.bin"


class TestEarlierEntries:
    def test_a_schema3_entry_written_by_0_20_0_hydrates_with_equal_values(self, tiny_workload):
        data = ENTRY_0_20_0.read_bytes()
        assert "stored" not in stored_record(data, "weights")
        assert "stored" not in stored_record(data, "d_packed_words")
        entry = unpack_entry(data)
        rng = np.random.default_rng(3)
        fresh = WorkloadEvaluationCache().evaluate(tiny_workload, rng)
        assert entry.state_after == rng.bit_generator.state
        hydrated = entry.evaluation
        for name in ("weights", "packed_words", "spikes"):
            stored, computed = getattr(hydrated, name), getattr(fresh, name)
            assert np.array_equal(stored, computed) and stored.dtype == computed.dtype
        assert run_every_model(hydrated) == run_every_model(fresh)
        # Re-packed today it takes the sparse form, and reads back equal.
        repacked = pack_entry(entry)
        assert stored_record(repacked, "weights")["stored"] == "sparse"
        assert len(repacked) < len(data)
        assert run_every_model(unpack_entry(repacked).evaluation) == run_every_model(fresh)


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
        cache = WorkloadEvaluationCache()
        evaluation, result = consumed_evaluation(
            cache, tiny_workload, preprocess=False, disk=tier
        )
        # The v1 entry no longer decodes: it is dropped like a corrupt one.
        assert tier.corrupt_dropped == 1
        assert cache.misses == 1 and cache.disk_hits == 0
        # Regeneration is bit-identical to what the v1 entry held...
        assert np.array_equal(evaluation.spikes, v1_spikes)
        assert np.array_equal(evaluation.weights, v1_weights)
        assert_simulations_identical(result, reference)
        # ...and the entry is re-published, already enriched, as v2.
        assert tier.stores == 0
        assert cache.flush_writebacks() == 1
        assert tier.stores == 1 and tier.refreshes == 0
        assert not tier.entry_path(key).read_bytes().startswith(b"PK")  # flat (v2)
        loaded = WorkloadEvaluationCache().evaluate(
            tiny_workload, np.random.default_rng(3), disk=tier
        )
        assert "matches" in loaded.derived_signature()[0]

    def test_schema2_entry_is_a_miss_rewritten_as_schema3(self, tier, tiny_workload):
        # A schema-2 entry: a dense ``spikes`` member beside the words, and
        # no ``shape`` in its meta.
        rng = np.random.default_rng(3)
        key = (workload_fingerprint(tiny_workload, False), generator_fingerprint(rng))
        evaluation = WorkloadEvaluationCache().evaluate(tiny_workload, rng)
        arrays, meta = evaluation.dehydrate()
        arrays = {"spikes": evaluation.spikes, **arrays}
        meta = {name: value for name, value in meta.items() if name != "shape"}
        meta["schema"] = 2
        arrays["state"] = np.frombuffer(
            json.dumps(encode_state(rng.bit_generator.state)).encode(), dtype=np.uint8
        )
        path = tier.entry_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(pack_payload(arrays, meta))
        reference = LoASSimulator().simulate_workload(
            tiny_workload, rng=np.random.default_rng(3)
        )

        cache = WorkloadEvaluationCache()
        _, result = consumed_evaluation(cache, tiny_workload, preprocess=False, disk=tier)
        assert tier.corrupt_dropped == 1
        assert cache.misses == 1 and cache.disk_hits == 0
        assert_simulations_identical(result, reference)
        assert tier.stores == 0
        assert cache.flush_writebacks() == 1
        assert tier.stores == 1 and tier.refreshes == 0
        stored, stored_meta = unpack_payload(path.read_bytes())
        assert stored_meta["schema"] == 3 and "spikes" not in stored
        loaded = WorkloadEvaluationCache().evaluate(
            tiny_workload, np.random.default_rng(3), disk=tier
        )
        assert tier.corrupt_dropped == 1 and "matches" in loaded.derived_signature()[0]

    def test_torn_v2_statistics_payload_falls_back_to_recompute(self, tier, tiny_workload):
        cache = WorkloadEvaluationCache()
        _, reference = consumed_evaluation(cache, tiny_workload, disk=tier)
        cache.flush_writebacks()
        (entry_file,) = tier._entry_files()
        payload = entry_file.read_bytes()
        entry_file.write_bytes(payload[: int(len(payload) * 0.6)])  # torn write

        cold = WorkloadEvaluationCache()
        rng = np.random.default_rng(3)
        regenerated = cold.evaluate(tiny_workload, rng, disk=tier)
        assert tier.corrupt_dropped == 1
        assert cold.misses == 1 and cold.disk_hits == 0
        result = LoASSimulator().simulate_workload(tiny_workload, evaluation=regenerated)
        assert_simulations_identical(result, reference)
        # The regeneration re-published a clean entry over the torn one.
        assert cold.flush_writebacks() == 1
        assert len(tier) == 1

    def test_v2_meta_naming_missing_arrays_is_corrupt(self, tier, tiny_workload):
        cache = WorkloadEvaluationCache()
        evaluation, _ = consumed_evaluation(cache, tiny_workload, disk=tier)
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
        cold = WorkloadEvaluationCache()
        cold.evaluate(tiny_workload, np.random.default_rng(3), disk=tier)
        assert tier.corrupt_dropped == 1 and cold.misses == 1

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_truncated_or_padded_entry_is_a_miss_rewritten_clean(self, enriched_entry, data):
        clean = enriched_entry
        if data.draw(st.booleans(), label="truncate"):
            offset = data.draw(st.integers(0, len(clean.data) - 1), label="offset")
            damaged = clean.data[:offset]
        else:
            damaged = clean.data + data.draw(st.binary(min_size=1, max_size=64), label="pad")
        with tempfile.TemporaryDirectory() as directory:
            tier = DiskEvaluationCache(directory)
            path = tier.entry_path(clean.key)
            path.write_bytes(damaged)
            cache = WorkloadEvaluationCache()
            rng = np.random.default_rng(3)
            evaluation = cache.evaluate(clean.workload, rng, disk=tier)
            assert cache.misses == 1 and cache.disk_hits == 0
            assert tier.corrupt_dropped == 1
            # The damaged file was replaced by a freshly published entry.
            assert cache.flush_writebacks() == 1
            assert tier.stores == 1 and path.read_bytes() != damaged
            assert DiskEvaluationCache(directory).get(clean.key) is not None
            assert np.array_equal(evaluation.full_sums, clean.full_sums)
            assert np.array_equal(evaluation.matches, clean.matches)
            assert rng.bit_generator.state == clean.state


# --------------------------------------------------------------------- #
# The stored form of a flushed tier
# --------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def flushed_networks_tier(tmp_path_factory) -> DiskEvaluationCache:
    """A tier populated (and written back) by the ``networks`` scenario."""
    from repro.api import Session

    tier = DiskEvaluationCache(tmp_path_factory.mktemp("networks"))
    clear_default_cache()
    Session(cache_dir=tier).run("networks", scale=0.05)
    clear_default_cache()
    # Each entry is written once, at its layer's flush, already enriched.
    assert len(tier) > 0 and tier.stores == len(tier) and tier.refreshes == 0
    return tier


class TestStoredForm:
    def test_every_entry_round_trips_byte_identically(self, flushed_networks_tier):
        for path in flushed_networks_tier._entry_files():
            data = path.read_bytes()
            assert pack_entry(unpack_entry(data)) == data, path.name

    def test_each_evaluation_stores_one_form_of_a(self, flushed_networks_tier):
        children = 0
        for path in flushed_networks_tier._entry_files():
            arrays, meta = unpack_payload(path.read_bytes())
            m, k, t = meta["shape"]
            prefixes = [""] + ["pre%s_" % key for key in meta.get("preprocessed", {})]
            children += len(prefixes) - 1
            forms = [name for name in arrays if name.endswith(("spikes", "packed_words"))]
            assert sorted(forms) == sorted(prefix + "d_packed_words" for prefix in prefixes)
            for name in forms:
                assert arrays[name].shape == (m, k)
            # No dense (M, K, T) member either; with K == N the full sums
            # and LIF outputs share that shape without being A.
            dense = [
                name
                for name, array in arrays.items()
                if array.shape == (m, k, t) and "full_sums" not in name and "lif" not in name
            ]
            assert dense == []
        assert children > 0  # the preprocessed children were checked too


# --------------------------------------------------------------------- #
# Bit-identity across both cache shapes (acceptance)
# --------------------------------------------------------------------- #
SCALE = 0.06
NETWORKS = ("alexnet", "vgg16")  # four partitions (network x variant): real pool
SEED = 1


@pytest.mark.timeout(300)
class TestTierStackEquivalence:
    @pytest.fixture(scope="class")
    def reference(self):
        return legacy_run_networks(networks=NETWORKS, scale=SCALE, seed=SEED)

    @staticmethod
    def run_stack(workers, tmp_path=None, repeat=1):
        from repro.experiments.sweeps import network_sweep_plan
        from repro.runner import SweepRunner

        plan = network_sweep_plan(networks=NETWORKS, scale=SCALE, seed=SEED)
        runner = SweepRunner(
            workers=workers,
            cache_dir=None if tmp_path is None else tmp_path / "evals",
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
        # Each entry is written once, by the write-back, already enriched.
        assert tier.stores == cold.misses and tier.refreshes == 0

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


    def test_fig18_ann_cells_are_served_by_both_levels(self, tmp_path, monkeypatch):
        """fig18's ANN half is cached and counted like the SNN half."""
        from repro.api import Session
        from repro.snn.workloads import get_network_workload

        computed = []
        for stage in ("matches", "output_nnz"):
            descriptor = AnnLayerEvaluation.__dict__[stage]

            def counting(evaluation, _compute=descriptor.func, _stage=stage):
                computed.append(_stage)
                return _compute(evaluation)

            monkeypatch.setattr(descriptor, "func", counting)

        params = dict(network="alexnet", scale=SCALE, seed=SEED)
        layers = len(get_network_workload("alexnet").layers)
        session = Session(cache_dir=tmp_path / "evals")
        clear_default_cache()
        cold = session.run("fig18-snn-vs-ann", **params)
        assert cold.provenance["partitions"] == 2
        assert cold.provenance["cache"]["lru_misses"] == 2 * layers
        assert set(computed) == {"matches", "output_nnz"}

        warm = session.run("fig18-snn-vs-ann", **params).provenance["cache"]
        assert warm["lru_misses"] == 0 and warm["lru_hits"] == 2 * layers

        clear_default_cache()
        computed.clear()
        disk_warm = session.run("fig18-snn-vs-ann", **params)
        cache = disk_warm.provenance["cache"]
        assert cache["lru_misses"] == 0 and cache["lru_hits"] == 0
        assert cache["disk_hits"] == 2 * layers
        assert cache["disk_stores"] == 0 and cache["disk_refreshes"] == 0
        assert computed == []  # the ANN statistics came from the tier
        assert disk_warm.payload == cold.payload
        clear_default_cache()


class TestPromoteOnHit:
    def test_disk_hit_is_promoted_into_the_lru(self, tier, tiny_workload):
        stored_evaluation(WorkloadEvaluationCache(), tiny_workload, seed=0, disk=tier)
        cache = WorkloadEvaluationCache()
        first = cache.evaluate(tiny_workload, np.random.default_rng(0), disk=tier)
        assert cache.disk_hits == 1 and tier.hits == 1
        assert len(cache.memory_backend) == 1  # promoted into the LRU
        again = cache.evaluate(tiny_workload, np.random.default_rng(0), disk=tier)
        assert again is first
        assert cache.hits == 1 and cache.disk_hits == 1
        assert tier.hits == 1  # the LRU served it; the disk was not read


class TestTwoLevelEvaluate:
    """evaluate(): the LRU, then the tier named by the call, then generation."""

    def test_without_a_tier_nothing_is_stored_or_written_back(self, tier, tiny_workload):
        cache = WorkloadEvaluationCache()
        consumed_evaluation(cache, tiny_workload)
        assert cache.misses == 1 and cache.disk_hits == 0
        assert cache.flush_writebacks() == 0  # no tier, so nothing is pending
        assert len(tier) == 0 and tier.stores == 0 and tier.misses == 0

    def test_full_miss_publishes_to_the_lru_and_the_tier(self, tier, tiny_workload):
        # The LRU at once, the tier at the flush: each entry is written once.
        cache = WorkloadEvaluationCache()
        cache.evaluate(tiny_workload, np.random.default_rng(3), disk=tier)
        assert cache.misses == 1 and len(cache) == 1
        assert tier.misses == 1 and tier.stores == 0 and len(tier) == 0
        assert cache.flush_writebacks() == 1
        assert tier.stores == 1 and tier.refreshes == 0 and len(tier) == 1

    def test_lru_hit_does_not_read_the_tier(self, tier, tiny_workload):
        cache = WorkloadEvaluationCache()
        first = cache.evaluate(tiny_workload, np.random.default_rng(3), disk=tier)
        again = cache.evaluate(tiny_workload, np.random.default_rng(3), disk=tier)
        assert again is first and cache.hits == 1
        assert tier.hits == 0 and tier.misses == 1  # only the first lookup

    def test_each_call_names_its_own_tier(self, tmp_path, tiny_workload):
        first, second = (DiskEvaluationCache(tmp_path / name) for name in ("a", "b"))
        cache = WorkloadEvaluationCache()
        stored_evaluation(cache, tiny_workload, disk=first)
        cache.clear()
        stored_evaluation(cache, tiny_workload, disk=second)
        # The second tier was never told about the first one's entry.
        assert cache.misses == 1 and cache.disk_hits == 0
        assert first.stores == 1 and second.stores == 1
        assert first.hits == 0 and second.misses == 1

    def test_lru_eviction_falls_back_to_the_tier(self, tier):
        small, other = make_workload("small"), make_workload("other", m=4)
        cache = WorkloadEvaluationCache(maxsize=1)
        first = cache.evaluate(small, np.random.default_rng(3), disk=tier)
        cache.evaluate(other, np.random.default_rng(3), disk=tier)
        assert cache.evictions == 1
        cache.flush_writebacks()
        reloaded = cache.evaluate(small, np.random.default_rng(3), disk=tier)
        assert cache.misses == 2 and cache.disk_hits == 1
        assert np.array_equal(reloaded.packed_words, first.packed_words)
        assert np.array_equal(reloaded.weights, first.weights)

    def test_writeback_refreshes_the_tier_the_entry_came_from(self, tmp_path, tiny_workload):
        first, second = (DiskEvaluationCache(tmp_path / name) for name in ("a", "b"))
        other = make_workload("other", m=4)
        stored_evaluation(WorkloadEvaluationCache(), tiny_workload, disk=first)
        stored_evaluation(WorkloadEvaluationCache(), other, disk=second)
        cache = WorkloadEvaluationCache()
        consumed_evaluation(cache, tiny_workload, disk=first)
        cache.evaluate(other, np.random.default_rng(3), disk=second)
        assert cache.disk_hits == 2
        assert cache.flush_writebacks() == 1
        assert first.refreshes == 1 and second.refreshes == 0

    def test_disk_hit_registers_a_writeback(self, tier, tiny_workload):
        stored_evaluation(WorkloadEvaluationCache(), tiny_workload, disk=tier)
        cache = WorkloadEvaluationCache()
        consumed_evaluation(cache, tiny_workload, disk=tier)
        assert cache.disk_hits == 1 and tier.refreshes == 0
        assert cache.flush_writebacks() == 1
        assert tier.refreshes == 1 and tier.stores == 1

    def test_flush_without_enrichment_republishes_nothing(self, tier, tiny_workload):
        stored_evaluation(WorkloadEvaluationCache(), tiny_workload, disk=tier)
        cache = WorkloadEvaluationCache()
        cache.evaluate(tiny_workload, np.random.default_rng(3), disk=tier)
        assert cache.disk_hits == 1
        assert cache.flush_writebacks() == 0
        assert tier.stores == 1 and tier.refreshes == 0

    def test_flush_drains_the_pending_writebacks(self, tier, tiny_workload):
        cache = WorkloadEvaluationCache()
        consumed_evaluation(cache, tiny_workload, disk=tier)
        assert cache.flush_writebacks() == 1
        assert cache.flush_writebacks() == 0
        assert tier.stores == 1 and tier.refreshes == 0

    def test_pending_writebacks_flush_themselves_at_the_threshold(self, tier, monkeypatch):
        from repro.engine import cache as cache_module

        monkeypatch.setattr(cache_module, "_DIRTY_FLUSH_THRESHOLD", 2)
        cache = WorkloadEvaluationCache()
        for seed in (1, 2):
            evaluation = cache.evaluate(make_workload(), np.random.default_rng(seed), disk=tier)
            evaluation.matches
        assert tier.stores == 0
        # The third call finds two pending write-backs and flushes them first.
        cache.evaluate(make_workload(), np.random.default_rng(3), disk=tier)
        assert tier.stores == 2
        assert cache.flush_writebacks() == 1  # the third entry's one write

    def test_clear_keeps_the_tier_and_drops_pending_writebacks(self, tier, tiny_workload):
        cache = WorkloadEvaluationCache()
        stored_evaluation(cache, tiny_workload, disk=tier)  # tensors only
        cache.clear()
        consumed_evaluation(cache, tiny_workload, disk=tier)  # a pending refresh
        cache.clear()
        assert len(cache) == 0 and cache.misses == 0 and cache.disk_hits == 0
        assert cache.flush_writebacks() == 0 and tier.refreshes == 0
        assert len(tier) == 1
        cache.evaluate(tiny_workload, np.random.default_rng(3), disk=tier)
        assert cache.disk_hits == 1 and cache.misses == 0

    def test_clear_drops_an_unflushed_full_miss(self, tier, tiny_workload):
        cache = WorkloadEvaluationCache()
        cache.evaluate(tiny_workload, np.random.default_rng(3), disk=tier)
        cache.clear()
        assert cache.flush_writebacks() == 0
        assert len(tier) == 0 and tier.stores == 0

    def test_a_pending_first_write_survives_the_callers_exception(self, tier, tiny_workload):
        # The record lives in the cache, not in the caller: the next flush,
        # from whichever run, writes it.
        cache = WorkloadEvaluationCache()
        with pytest.raises(RuntimeError):
            cache.evaluate(tiny_workload, np.random.default_rng(3), disk=tier)
            raise RuntimeError("simulation failed before the flush")
        assert len(tier) == 0
        assert cache.flush_writebacks() == 1
        assert tier.stores == 1 and len(tier) == 1

    def test_stats_report_each_level(self, tier, tiny_workload):
        stored_evaluation(WorkloadEvaluationCache(), tiny_workload, disk=tier)
        cache = WorkloadEvaluationCache(maxsize=7)
        cache.evaluate(tiny_workload, np.random.default_rng(3), disk=tier)
        cache.evaluate(tiny_workload, np.random.default_rng(3), disk=tier)
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.disk_hits) == (1, 0, 1)
        assert stats.entries == 1 and stats.maxsize == 7


class TestDiskPut:
    def test_put_of_a_present_key_is_a_noop(self, tier, tiny_workload):
        evaluation = stored_evaluation(WorkloadEvaluationCache(), tiny_workload, disk=tier)
        key = (
            workload_fingerprint(tiny_workload, False),
            generator_fingerprint(np.random.default_rng(3)),
        )
        before = tier.entry_path(key).read_bytes()
        evaluation.matches
        tier.put(key, CacheEntry(evaluation, np.random.default_rng(0).bit_generator.state))
        assert tier.stores == 1 and tier.refreshes == 0
        assert tier.entry_path(key).read_bytes() == before

    def test_put_with_replace_refreshes_in_place(self, tier, tiny_workload):
        evaluation = stored_evaluation(WorkloadEvaluationCache(), tiny_workload, disk=tier)
        key = (
            workload_fingerprint(tiny_workload, False),
            generator_fingerprint(np.random.default_rng(3)),
        )
        before = tier.entry_path(key).read_bytes()
        evaluation.matches
        entry = CacheEntry(evaluation, np.random.default_rng(3).bit_generator.state)
        tier.put(key, entry, replace=True)
        assert tier.stores == 1 and tier.refreshes == 1 and len(tier) == 1
        assert tier.entry_path(key).read_bytes() != before
        assert "matches" in tier.get(key).evaluation.derived_signature()[0]
