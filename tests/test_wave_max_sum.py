"""The memoised integer sums the LoAS, SparTen and Gamma cost models charge.

Output neurons go to ``num_tppes`` parallel PEs a group of rows at a time,
one output column at a time, and each wave costs as much as its slowest
member.  A constant added to every task commutes with that maximum, so
``LayerEvaluation.wave_max_sum(join, g) + waves * c`` must equal the sum of
per-wave maxima of the widened task-cycle matrix ``c + join``, which
:func:`grouped_wave_cycles` (the cost models' former float64 reduction) still
computes here as the oracle.  Gamma-SNN's merge rounds
(``LayerEvaluation.merge_round_sum``) are checked the same way against the
float64 charges it used to compute (:func:`gamma_float_charges`).
"""

from __future__ import annotations

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.api import Session
from repro.arch import default_arch
from repro.baselines import GammaSNN
from repro.core import LoASSimulator
from repro.engine import (
    AnnLayerEvaluation,
    DiskEvaluationCache,
    LayerEvaluation,
    WorkloadEvaluationCache,
    clear_default_cache,
    default_cache,
)
from repro.engine import evaluation as evaluation_module
from repro.engine.backend import CacheEntry, pack_entry, unpack_entry
from repro.engine.serde import encode_state, pack_payload
from repro.runner import SIMULATOR_FACTORIES


def grouped_wave_cycles(task_cycles: np.ndarray, group_size: int) -> float:
    """Sum of per-wave maxima when rows are processed ``group_size`` at a time.

    ``task_cycles`` is an ``(M, N)`` array of per-output-neuron cycle
    counts; rows are dispatched to the parallel PEs in groups, one output
    column at a time, so each wave costs the maximum of its members.  A
    short last group is padded with zero-cycle rows.
    """
    task_cycles = np.asarray(task_cycles, dtype=np.float64)
    if task_cycles.ndim != 2:
        raise ValueError("task_cycles must be an (M, N) array")
    m, n = task_cycles.shape
    if group_size < 1:
        raise ValueError("group_size must be at least 1")
    groups = -(-m // group_size)
    padded = np.zeros((groups * group_size, n))
    padded[:m] = task_cycles
    return float(padded.reshape(groups, group_size, n).max(axis=1).sum())


def seeded_evaluation(matches: np.ndarray, true_acs: np.ndarray) -> LayerEvaluation:
    """An evaluation whose join matrices are ``matches`` / ``true_acs``.

    Seeded into the lazy slots the way a disk entry hydrates them, so the
    joins can take any dtype, the legacy float64 one included.
    """
    m, n = matches.shape
    evaluation = LayerEvaluation(np.zeros((m, 1, 1), dtype=np.uint8), np.zeros((1, n), dtype=np.int8))
    evaluation.__dict__["matches"] = matches
    evaluation.__dict__["true_acs"] = true_acs
    return evaluation


#: Join dtypes with their largest drawn value: the narrow stored dtypes and
#: the float64 of entries written before the join was narrowed.
JOIN_DTYPES = ((np.uint16, 2**16 - 1), (np.uint32, 2**32 - 1), (np.float64, 2**32))


@st.composite
def joins(draw):
    """A random ``(M, N)`` join, a group size in ``1..M+3`` and an offset."""
    dtype, largest = draw(st.sampled_from(JOIN_DTYPES))
    m = draw(st.integers(1, 40))
    n = draw(st.integers(1, 6))
    seed = draw(st.integers(0, 2**32 - 1))
    high = draw(st.sampled_from((1, 9, largest)))
    join = np.random.default_rng(seed).integers(0, high, size=(m, n), endpoint=True)
    group_size = draw(st.integers(1, m + 3))
    offset = draw(st.integers(0, 10**6))
    return join.astype(dtype), group_size, offset


class TestWaveMaxSum:
    @settings(max_examples=60, deadline=None)
    @given(case=joins())
    @example(case=(np.array([[1, 1], [9, 1], [3, 7]], dtype=np.uint16), 2, 5))
    def test_equals_the_widened_oracle_plus_the_offset_per_wave(self, case):
        join, group_size, offset = case
        m, n = join.shape
        waves = -(-m // group_size) * n
        evaluation = seeded_evaluation(join, join[::-1].copy())
        for name, matrix in (("matches", join), ("true_acs", join[::-1])):
            expected = grouped_wave_cycles(offset + matrix.astype(np.float64), group_size)
            total = evaluation.wave_max_sum(name, group_size)
            assert type(total) is int
            assert float(total + waves * offset) == expected

        ann = AnnLayerEvaluation(np.zeros((m, 1), dtype=np.uint8), np.zeros((1, n), dtype=np.int8))
        ann.__dict__["matches"] = join
        expected = grouped_wave_cycles(offset + join.astype(np.float64), group_size)
        assert float(ann.wave_max_sum("matches", group_size) + waves * offset) == expected

    def test_reduces_without_copying_the_join(self):
        join = np.random.default_rng(5).integers(0, 2**16, size=(1000, 256)).astype(np.uint16)
        evaluation = seeded_evaluation(join, join)
        expected = grouped_wave_cycles(join, 16)
        tracemalloc.start()
        try:
            total = evaluation.wave_max_sum("matches", 16)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert total == expected
        # The wave maxima are a (63, 256) uint16 array; a widened or padded
        # copy of the join would take 0.5 MB (uint16) or 2 MB (float64).
        assert peak < join.nbytes // 4

    @pytest.mark.parametrize("group_size", (0, -1))
    def test_rejects_a_group_size_below_one(self, group_size):
        ones = np.ones((3, 2), dtype=np.uint16)
        evaluation = seeded_evaluation(ones, ones)
        with pytest.raises(ValueError, match="group_size"):
            evaluation.wave_max_sum("matches", group_size)
        assert evaluation._wave_max_sums == {}

    def test_rejects_an_unknown_join(self):
        ones = np.ones((3, 2), dtype=np.uint16)
        evaluation = seeded_evaluation(ones, ones)
        with pytest.raises(ValueError, match="join"):
            evaluation.wave_max_sum("full_sums", 2)
        ann = AnnLayerEvaluation(np.ones((3, 2), dtype=np.uint8), np.ones((2, 2), dtype=np.int8))
        with pytest.raises(ValueError, match="join"):
            ann.wave_max_sum("true_acs", 2)


def counting_reducer(monkeypatch) -> list:
    """Record ``(id(join), group_size)`` for every call of the module reducer."""
    calls = []
    reducer = evaluation_module._wave_max_sum

    def counted(join, group_size):
        calls.append((id(join), group_size))
        return reducer(join, group_size)

    monkeypatch.setattr(evaluation_module, "_wave_max_sum", counted)
    return calls


class TestMemo:
    def test_each_join_and_group_reduces_once(self, monkeypatch, small_layer):
        calls = counting_reducer(monkeypatch)
        evaluation = LayerEvaluation(*small_layer)
        first = evaluation.wave_max_sum("matches", 4)
        assert evaluation.wave_max_sum("matches", 4) == first
        evaluation.wave_max_sum("matches", 16)
        evaluation.wave_max_sum("true_acs", 4)
        assert len(calls) == 3
        assert set(evaluation._wave_max_sums) == {("matches", 4), ("matches", 16), ("true_acs", 4)}

    def test_a_preprocessed_child_keeps_its_own_memo(self, small_layer):
        evaluation = LayerEvaluation(*small_layer)
        evaluation.wave_max_sum("matches", 16)
        child = evaluation.preprocessed(max_spikes=1)
        assert child._wave_max_sums == {}
        assert child.wave_max_sum("matches", 16) == grouped_wave_cycles(child.matches, 16)
        assert set(evaluation._wave_max_sums) == {("matches", 16)}

    def test_a_disk_hit_that_computes_the_memo_is_not_refreshed(self, tmp_path, tiny_workload):
        tier = DiskEvaluationCache(tmp_path / "evals")
        cold = WorkloadEvaluationCache()
        stored = cold.evaluate(tiny_workload, np.random.default_rng(3), disk=tier)
        for preprocess in (False, True):
            LoASSimulator().simulate_workload(tiny_workload, evaluation=stored, preprocess=preprocess)
        assert cold.flush_writebacks() == 1

        cache = WorkloadEvaluationCache()
        loaded = cache.evaluate(tiny_workload, np.random.default_rng(3), disk=tier)
        assert cache.disk_hits == 1
        # The hit arrives carrying the stored sums; a second design point
        # computes a group size the entry does not hold.
        assert loaded._wave_max_sums == stored._wave_max_sums
        assert set(loaded._wave_max_sums) == {("matches", 16)}
        signature = loaded.derived_signature()
        loas = LoASSimulator(default_arch().with_overrides(**{"pe.num_tppes": 8}))
        for preprocess in (False, True):
            loas.simulate_workload(tiny_workload, evaluation=loaded, preprocess=preprocess)
        assert ("matches", 8) in loaded._wave_max_sums
        assert ("matches", 8) in loaded.preprocessed(max_spikes=1)._wave_max_sums
        assert loaded.derived_signature() == signature
        assert cache.flush_writebacks() == 0
        assert tier.stores == 1 and tier.refreshes == 0

    def test_an_lru_warm_networks_request_reduces_nothing(self, monkeypatch):
        calls = counting_reducer(monkeypatch)
        clear_default_cache()
        session = Session()
        cold = session.run("networks", scale=0.05)
        assert calls and len(set(calls)) == len(calls)
        reduced = len(calls)
        misses = default_cache().misses

        warm = session.run("networks", scale=0.05)
        assert default_cache().misses == misses
        assert len(calls) == reduced
        assert warm.payload == cold.payload


def run_every_model(evaluation) -> dict:
    """``as_dict()`` of every registered cost model of ``evaluation``'s kind."""
    results = {}
    for key, cls in sorted(SIMULATOR_FACTORIES.items()):
        if EVALUATION_OF[cls.layer_type.kind] is not type(evaluation):
            continue
        variants = ({}, {"preprocess": True}) if cls is LoASSimulator else ({},)
        for kwargs in variants:
            result = cls().simulate_layer(evaluation, name="layer", **kwargs)
            results[(key, tuple(kwargs))] = result.as_dict()
    return results


EVALUATION_OF = {"snn": LayerEvaluation, "ann": AnnLayerEvaluation}


def stored_memos(evaluation) -> tuple:
    """What a hydration seeds: the sums dict, the cached scalars and the non-silent count."""
    scalars = {
        name: (type(evaluation.__dict__[name]), evaluation.__dict__[name])
        for name in evaluation.MEMO_SCALARS
        if name in evaluation.__dict__
    }
    return dict(evaluation._wave_max_sums), scalars, evaluation.__dict__.get("nonsilent_neurons")


class TestPersistedMemos:
    @settings(max_examples=25, deadline=None)
    @given(
        m=st.integers(1, 12),
        k=st.integers(1, 64),
        t=st.integers(1, 6),
        n=st.integers(1, 8),
        density=st.sampled_from((0.0, 0.3, 1.0)),
        seed=st.integers(0, 2**32 - 1),
        group_sizes=st.lists(st.integers(1, 20), min_size=1, max_size=3),
        radices=st.lists(st.integers(1, 9), min_size=1, max_size=3),
    )
    def test_a_hit_restores_what_a_fresh_evaluation_computes(
        self, m, k, t, n, density, seed, group_sizes, radices
    ):
        rng = np.random.default_rng(seed)
        spikes = (rng.random((m, k, t)) < density).astype(np.uint8)
        weights = rng.integers(-3, 4, size=(k, n)).astype(np.int8)
        activations = (rng.random((m, k)) < density).astype(np.uint8) * rng.integers(1, 256, (m, k))

        def touch(evaluation):
            for group_size in group_sizes:
                for join in evaluation.WAVE_JOINS:
                    evaluation.wave_max_sum(join, group_size)
            if isinstance(evaluation, LayerEvaluation):
                for radix in radices:
                    evaluation.merge_round_sum(radix)
                evaluation.spike_density
            return run_every_model(evaluation)

        for make in (
            lambda: LayerEvaluation(spikes, weights),
            lambda: AnnLayerEvaluation(activations.astype(np.uint8), weights),
        ):
            stored = make()
            touch(stored)
            hit = unpack_entry(pack_entry(CacheEntry(stored, {}))).evaluation
            fresh = make()
            warm = touch(fresh)
            levels = [(hit, fresh)]
            if isinstance(stored, LayerEvaluation):
                levels.append((hit._preprocessed[1], fresh.preprocessed(max_spikes=1)))
            for restored, computed in levels:
                # Read before any model runs on the hit: hydration seeded them.
                memos = stored_memos(restored)
                assert memos == stored_memos(computed)
                assert memos[0] and memos[1]
            assert run_every_model(hit) == warm == run_every_model(stored)

    def test_an_entry_without_memos_hydrates_and_repacks_to_its_bytes(self, small_layer):
        stored = LayerEvaluation(*small_layer)
        warm = run_every_model(stored)
        arrays, meta = stored.dehydrate()
        for record in (meta, *meta["preprocessed"].values()):
            assert {"sums", "scalars", "packed_nnz"} <= set(record)
            for key in ("sums", "scalars", "packed_nnz"):
                del record[key]
        state = json.dumps(encode_state({"seed": 1})).encode("utf-8")
        written = pack_payload(dict(arrays, state=np.frombuffer(state, dtype=np.uint8)), meta)

        entry = unpack_entry(written)
        assert pack_entry(entry) == written
        assert stored_memos(entry.evaluation) == ({}, {}, None)
        assert run_every_model(entry.evaluation) == warm

    def test_a_disk_hit_recomputes_no_sum_and_no_popcount(self, tmp_path, monkeypatch):
        params = {"scale": 0.05, "networks": ("alexnet",)}
        session = Session(cache_dir=tmp_path / "evals")
        clear_default_cache()
        cold = session.run("networks", **params)

        def recomputed(*args, **kwargs):
            raise AssertionError("a disk hit recomputed a stored memo")

        monkeypatch.setattr(evaluation_module, "_wave_max_sum", recomputed)
        monkeypatch.setattr(evaluation_module, "popcount", recomputed)
        clear_default_cache()
        warm = session.run("networks", **params)
        cache = warm.provenance["cache"]
        assert cache["disk_hits"] == cold.provenance["cache"]["disk_stores"] > 0
        assert cache["lru_misses"] == cache["disk_stores"] == cache["disk_refreshes"] == 0
        assert warm.payload == cold.payload
        clear_default_cache()


def gamma_float_charges(spikes_per_row_t, n, merger_radix, effective_merge_radix, psum_bytes):
    """Gamma-SNN's former float64 ``(remerged elements, partial-row traffic)``."""
    spikes = spikes_per_row_t.astype(np.float64)
    compute_rounds = np.ceil(np.maximum(spikes, 1.0) / merger_radix)
    remerged = float((np.maximum(compute_rounds - 1.0, 0.0) * float(n)).sum())
    merge_rounds = np.ceil(np.maximum(spikes, 1.0) / effective_merge_radix)
    traffic = 2.0 * float((merge_rounds * float(n) * psum_bytes).sum())
    return remerged, traffic


class TestGammaMergeRounds:
    @settings(max_examples=40, deadline=None)
    @given(
        m=st.integers(1, 24),
        k=st.integers(1, 300),
        t=st.integers(1, 6),
        n=st.integers(1, 12),
        density=st.sampled_from((0.0, 0.05, 0.5, 1.0)),
        seed=st.integers(0, 2**32 - 1),
        merger_radix=st.integers(1, 80),
        effective_merge_radix=st.integers(1, 9),
        psum_bytes=st.integers(1, 4),
    )
    def test_integer_charges_equal_the_float_oracle(
        self, m, k, t, n, density, seed, merger_radix, effective_merge_radix, psum_bytes
    ):
        rng = np.random.default_rng(seed)
        spikes = (rng.random((m, k, t)) < density).astype(np.uint8)
        weights = rng.integers(-3, 4, size=(k, n)).astype(np.int8)
        spec = default_arch().with_overrides(**{
            "baseline.merger_radix": merger_radix,
            "baseline.effective_merge_radix": effective_merge_radix,
            "baseline.psum_bytes": psum_bytes,
        })
        evaluation = LayerEvaluation(spikes, weights)
        result = GammaSNN(spec).simulate_layer(evaluation)

        remerged, traffic = gamma_float_charges(
            evaluation.spikes_per_row_t, n, merger_radix, effective_merge_radix, psum_bytes
        )
        assert result.ops["remerged_elements"] == remerged
        assert result.sram.as_dict()["psum"] == traffic + 2.0 * result.dram.as_dict()["psum"]
        assert {("spikes_per_row_t", merger_radix), ("spikes_per_row_t", effective_merge_radix)} <= set(
            evaluation._wave_max_sums
        )
        for radix in (merger_radix, effective_merge_radix):
            assert type(evaluation.merge_round_sum(radix)) is int

    def test_rejects_a_radix_below_one(self, small_layer):
        evaluation = LayerEvaluation(*small_layer)
        with pytest.raises(ValueError, match="radix"):
            evaluation.merge_round_sum(0)
        assert evaluation._wave_max_sums == {}
