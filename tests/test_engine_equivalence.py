"""Equivalence suite for the shared workload-evaluation engine.

Three families of guarantees are asserted here:

1. **Statistics equivalence** -- every vectorised quantity the engine
   computes (full sums, matches, true accumulations, activity profiles,
   packed-format accounting) is bit-identical to a straightforward
   loop-based reference that mirrors the seed implementation.
2. **Simulator equivalence** -- every accelerator produces a
   ``SimulationResult`` through the cached-engine path
   (``simulate_workload`` / ``simulate_network``) that is bit-identical to
   simulating a fresh ``LayerEvaluation`` of the very same tensors through
   ``simulate_layer``, and repeated cached evaluations replay the generator
   stream exactly.
3. **Inner-join oracle** -- the per-fiber :class:`InnerJoinUnit` (pseudo
   accumulation minus per-timestep corrections) reproduces the engine's
   full sums, matches and true accumulations for every output neuron,
   and, summed over a layer, LoAS's accumulation counts and compute cycles.
4. **Packed residency** -- an evaluation keeps ``A`` only as packed words
   and 8-bit weights as int8, and every quantity still equals the dense
   references, including at the int8 extreme ``-128``.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.baselines import (
    AnnLayerWorkload,
    GammaANN,
    GammaSNN,
    GoSPASNN,
    PTBSimulator,
    SparTenANN,
    SparTenSNN,
)
from repro.baselines.stellar import StellarSimulator
from repro.core import InnerJoinUnit, LoASConfig, LoASSimulator
from repro.api import Session
from repro.engine import (
    LayerEvaluation,
    WorkloadEvaluationCache,
    clear_default_cache,
    default_cache,
    workload_fingerprint,
)
from repro.engine import evaluation as evaluation_module
from repro.engine.serde import pack_payload, unpack_payload
from repro.snn.layers import spmspm_reference
from repro.snn.lif import lif_fire
from repro.snn.network import LayerShape
from repro.snn.workloads import LayerWorkload, SparsityProfile, get_layer_workload
from repro.sparse import matrix as matrix_module
from repro.sparse.fiber import Fiber
from repro.sparse.matrix import (
    mask_low_activity_neurons,
    random_spike_tensor,
    random_weight_matrix,
)

from test_wave_max_sum import grouped_wave_cycles

ALL_SNN_SIMULATORS = [
    LoASSimulator,
    SparTenSNN,
    GoSPASNN,
    GammaSNN,
    PTBSimulator,
    StellarSimulator,
]

REPRESENTATIVE_LAYERS = ("A-L4", "V-L8", "R-L19", "T-HFF")


# --------------------------------------------------------------------- #
# Loop-based references mirroring the seed implementation
# --------------------------------------------------------------------- #
def reference_full_sums(spikes, weights):
    """Per-timestep float64 GEMM loop (the seed ``full_sums`` computation)."""
    m, k, t = spikes.shape
    n = weights.shape[1]
    full_sums = np.zeros((m, n, t), dtype=np.float64)
    for ti in range(t):
        full_sums[:, :, ti] = spikes[:, :, ti].astype(np.float64) @ weights.astype(np.float64)
    return full_sums


def reference_statistics(spikes, weights):
    """Seed-style loop computation of the per-layer statistics."""
    m, k, t = spikes.shape
    n = weights.shape[1]
    weight_mask = (weights != 0).astype(np.float64)
    nonsilent = spikes.any(axis=2)
    matches = nonsilent.astype(np.float64) @ weight_mask
    true_acs = np.zeros((m, n), dtype=np.float64)
    true_acs_per_t = np.zeros(t, dtype=np.float64)
    active_columns = np.zeros(t, dtype=np.int64)
    active_row_weights = 0
    true_accumulations = 0.0
    for ti in range(t):
        spikes_t = spikes[:, :, ti].astype(np.float64)
        acs_t = spikes_t @ weight_mask
        true_acs += acs_t
        true_acs_per_t[ti] = acs_t.sum()
        active_columns[ti] = int(spikes[:, :, ti].any(axis=0).sum())
        active_row_weights += int(spikes[:, :, ti].any(axis=0) @ (weights != 0).sum(axis=1))
        true_accumulations += float(acs_t.sum())
    return {
        "nnz_weights": int(weight_mask.sum()),
        "nnz_spikes": int(spikes.sum()),
        "nonsilent_neurons": int(nonsilent.sum()),
        "matches": matches,
        "true_acs": true_acs,
        "true_acs_per_t": true_acs_per_t,
        "true_accumulations": true_accumulations,
        "active_columns_per_t": active_columns,
        "weight_row_nnz": (weights != 0).sum(axis=1).astype(np.int64),
        "spikes_per_row_t": spikes.sum(axis=1).astype(np.int64),
        "spikes_per_column_t": spikes.sum(axis=0).astype(np.int64),
        "active_column_mask": spikes.any(axis=0),
        "active_columns": int(spikes.any(axis=(0, 2)).sum()),
        "active_column_steps": int(active_columns.sum()),
        "active_row_weights": active_row_weights,
    }


def assert_statistics_match(evaluation, spikes, weights):
    """Every ``statistics`` field equals the loop reference over dense ``A``."""
    ref = reference_statistics(spikes, weights)
    stats = evaluation.statistics
    assert stats.nnz_weights == ref["nnz_weights"]
    assert stats.nnz_spikes == ref["nnz_spikes"]
    assert stats.nonsilent_neurons == ref["nonsilent_neurons"]
    assert np.array_equal(evaluation.matches, ref["matches"])
    assert np.array_equal(evaluation.true_acs, ref["true_acs"])
    assert np.array_equal(stats.true_acs_per_t, ref["true_acs_per_t"])
    assert np.array_equal(stats.active_columns_per_t, ref["active_columns_per_t"])
    assert np.array_equal(stats.weight_row_nnz, ref["weight_row_nnz"])
    assert np.array_equal(stats.spikes_per_row_t, ref["spikes_per_row_t"])
    assert np.array_equal(stats.spikes_per_column_t, ref["spikes_per_column_t"])
    assert np.array_equal(stats.active_column_mask, ref["active_column_mask"])
    assert stats.active_columns == ref["active_columns"]
    assert stats.active_column_steps == ref["active_column_steps"]
    assert stats.active_row_weights == ref["active_row_weights"]
    assert evaluation.true_accumulations == ref["true_accumulations"]


def assert_results_identical(a, b):
    """Field-by-field bit-exact comparison of two SimulationResults."""
    assert a.accelerator == b.accelerator
    assert a.workload == b.workload
    assert a.cycles == b.cycles
    assert a.compute_cycles == b.compute_cycles
    assert a.memory_cycles == b.memory_cycles
    assert a.dram.as_dict() == b.dram.as_dict()
    assert a.sram.as_dict() == b.sram.as_dict()
    assert dict(a.energy.entries) == dict(b.energy.entries)
    assert a.ops == b.ops
    assert a.sram_miss_rate == b.sram_miss_rate
    assert a.extra == b.extra


@pytest.fixture
def layer_pair(rng):
    spikes = random_spike_tensor(24, 320, 4, 0.8, silent_fraction=0.66, rng=rng)
    weights = random_weight_matrix(320, 48, 0.93, rng=rng)
    return spikes, weights


class TestStatisticsEquivalence:
    def test_full_sums_bit_identical_to_gemm_loop(self, layer_pair):
        spikes, weights = layer_pair
        evaluation = LayerEvaluation(spikes, weights)
        assert np.array_equal(evaluation.full_sums, reference_full_sums(spikes, weights))

    def test_output_spikes_match_lif_on_loop_sums(self, layer_pair):
        spikes, weights = layer_pair
        evaluation = LayerEvaluation(spikes, weights)
        expected = lif_fire(reference_full_sums(spikes, weights))
        assert np.array_equal(evaluation.output_spikes(), expected)

    def test_statistics_bit_identical_to_loop_reference(self, layer_pair):
        spikes, weights = layer_pair
        assert_statistics_match(LayerEvaluation(spikes, weights), spikes, weights)

    def test_preprocessed_matches_masking_helper(self, layer_pair):
        spikes, weights = layer_pair
        evaluation = LayerEvaluation(spikes, weights)
        derived = evaluation.preprocessed(max_spikes=1)
        masked = mask_low_activity_neurons(spikes, max_spikes=1)
        assert np.array_equal(derived.spikes, masked)
        assert np.array_equal(
            derived.packed_words, LayerEvaluation(masked, weights).packed_words
        )

    def test_packed_accounting_matches_per_fiber_sums(self, layer_pair):
        spikes, weights = layer_pair
        packed = LayerEvaluation(spikes, weights).packed
        assert packed.nnz == sum(f.nnz for f in packed.fibers)
        assert packed.payload_bits() == sum(f.payload_bits() for f in packed.fibers)
        assert packed.bitmask_bits() == sum(f.bitmask_bits() for f in packed.fibers)
        assert packed.storage_bits() == sum(f.storage_bits() for f in packed.fibers)
        assert packed.captured_spikes() == int(
            sum(int(bin(int(v)).count("1")) for f in packed.fibers for v in f.values)
        )

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            LayerEvaluation(np.zeros((2, 3)), np.zeros((3, 2)))
        with pytest.raises(ValueError):
            LayerEvaluation(np.zeros((2, 3, 4)), np.zeros((2, 2)))


def join_all_fibers(evaluation, unit=None):
    """``(M, N)`` grid of :class:`InnerJoinResult` for every fiber pair."""
    unit = unit or InnerJoinUnit()
    weights = evaluation.weights
    results = [[None] * evaluation.n for _ in range(evaluation.m)]
    for n in range(evaluation.n):
        column = weights[:, n]
        weight_fiber = Fiber(bitmask=column != 0, values=column[column != 0])
        for m in range(evaluation.m):
            results[m][n] = unit.join(evaluation.packed.fiber(m), weight_fiber)
    return results


def assert_inner_join_oracle(evaluation):
    """Join every ``(m, n)`` fiber pair and compare with the engine."""
    for m, row in enumerate(join_all_fibers(evaluation)):
        for n, result in enumerate(row):
            assert np.array_equal(result.per_timestep_sums, evaluation.full_sums[m, n])
            assert result.matches == evaluation.matches[m, n]
            corrected = result.matches * evaluation.t - result.correction_accumulations
            assert corrected == evaluation.true_acs[m, n]


class TestInnerJoinOracle:
    """The per-fiber inner-join unit is the oracle for the vectorised join."""

    # T = 1, 8 / 9 and 63 are the packing boundaries: single-bit words, the
    # last uint8 shift-or word, the first packbits int64 word, the widest.
    @settings(max_examples=40, deadline=None)
    @given(
        m=st.integers(1, 5),
        k=st.integers(1, 40),
        n=st.integers(1, 5),
        t=st.sampled_from((1, 2, 4, 8, 9, 16, 63)),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(m=3, k=24, n=2, t=1, seed=0)
    @example(m=3, k=24, n=2, t=8, seed=1)
    @example(m=3, k=24, n=2, t=9, seed=2)
    @example(m=3, k=24, n=2, t=63, seed=3)
    def test_join_matches_engine(self, m, k, n, t, seed):
        rng = np.random.default_rng(seed)
        spikes = random_spike_tensor(m, k, t, rng.uniform(0.3, 0.95), silent_fraction=0.4, rng=rng)
        weights = random_weight_matrix(k, n, rng.uniform(0.2, 0.9), rng=rng)
        evaluation = LayerEvaluation(spikes, weights)
        assert_inner_join_oracle(evaluation)
        assert_inner_join_oracle(evaluation.preprocessed())

    # Every byte boundary of the packed word: shift-or packing up to T = 8,
    # little-endian packbits bytes from T = 9 on, the widest word at 63.
    @pytest.mark.parametrize("t", (1, 2, 7, 8, 9, 15, 16, 17, 32, 33, 56, 57, 63))
    def test_join_matches_engine_at_packing_boundary(self, t):
        rng = np.random.default_rng(t)
        spikes = random_spike_tensor(6, 70, t, 0.6, silent_fraction=0.3, rng=rng)
        spikes[0, :5] = 1  # all-ones words: perfect predictions
        weights = random_weight_matrix(70, 4, 0.5, rng=rng)
        evaluation = LayerEvaluation(spikes, weights)
        assert_inner_join_oracle(evaluation)
        assert_inner_join_oracle(evaluation.preprocessed())

    def test_silent_spikes_or_zero_weights_join_to_nothing(self):
        rng = np.random.default_rng(0)
        spikes = random_spike_tensor(3, 20, 4, 0.5, rng=rng)
        weights = random_weight_matrix(20, 3, 0.5, rng=rng)
        for evaluation in (
            LayerEvaluation(np.zeros_like(spikes), weights),
            LayerEvaluation(spikes, np.zeros_like(weights)),
        ):
            assert_inner_join_oracle(evaluation)
            assert not evaluation.matches.any() and not evaluation.full_sums.any()

    def test_always_firing_neurons_need_no_corrections(self):
        rng = np.random.default_rng(2)
        spikes = np.ones((3, 30, 5), dtype=np.uint8)
        weights = random_weight_matrix(30, 4, 0.6, rng=rng)
        evaluation = LayerEvaluation(spikes, weights)
        assert_inner_join_oracle(evaluation)
        for row in join_all_fibers(evaluation):
            for result in row:
                assert result.correction_accumulations == 0
                assert result.perfect_predictions == result.matches
        assert np.array_equal(evaluation.true_acs, evaluation.matches * 5)

    def test_single_coordinate_fibers(self):
        spikes = np.array([[[1, 0, 1]], [[0, 0, 0]], [[0, 1, 0]]], dtype=np.uint8)
        weights = np.array([[3, 0, -2]], dtype=np.int8)
        evaluation = LayerEvaluation(spikes, weights)
        assert_inner_join_oracle(evaluation)
        assert evaluation.matches.tolist() == [[1, 0, 1], [0, 0, 0], [1, 0, 1]]
        assert evaluation.full_sums[0, 2].tolist() == [-2, 0, -2]


class TestInnerJoinOracleOnLoAS:
    """LoAS's analytical layer counts equal the sums of its per-fiber joins."""

    @pytest.mark.parametrize("preprocess", (False, True), ids=("plain", "preprocessed"))
    @pytest.mark.parametrize(
        "layer_name, scale",
        (("A-L4", 0.2), ("R-L19", 0.2), ("T-HFF", 0.05), ("V-L8", 0.2)),
    )
    def test_operation_counts_and_cycles_match_joined_fibers(self, layer_name, scale, preprocess):
        workload = get_layer_workload(layer_name).scaled(scale)
        spikes, weights = workload.generate(rng=np.random.default_rng(11), finetuned=preprocess)
        simulator = LoASSimulator(LoASConfig(num_tppes=4))
        result = simulator.simulate_layer(LayerEvaluation(spikes, weights), preprocess=preprocess)

        evaluation = LayerEvaluation(spikes, weights)
        if preprocess:
            evaluation = evaluation.preprocessed(max_spikes=1)
        joins = join_all_fibers(evaluation, InnerJoinUnit(simulator.config))
        flat = [join for row in joins for join in row]
        matches = sum(join.matches for join in flat)
        corrections = sum(join.correction_accumulations for join in flat)
        assert result.ops["pseudo_accumulations"] == sum(join.pseudo_accumulations for join in flat)
        assert result.ops["pseudo_accumulations"] == matches
        assert result.ops["correction_accumulations"] == corrections
        assert result.ops["true_accumulations"] == matches * evaluation.t - corrections

        task_cycles = np.array([[join.cycles for join in row] for row in joins])
        compression = evaluation.compress_output(
            simulator.compressor, simulator.lif, preprocess=preprocess
        )
        expected = grouped_wave_cycles(task_cycles, simulator.config.num_tppes)
        assert result.compute_cycles == expected + compression.cycles


def float_kn_arrays(evaluation):
    """Names of the floating ``(K, N)`` arrays an evaluation holds."""
    shape = (evaluation.k, evaluation.n)
    found = []

    def visit(name, value):
        if isinstance(value, np.ndarray):
            if value.shape == shape and np.issubdtype(value.dtype, np.floating):
                found.append(name)
        elif isinstance(value, (tuple, list)):
            for item in value:
                visit(name, item)
        elif isinstance(value, dict):
            for item in value.values():
                visit(name, item)

    for name, value in vars(evaluation).items():
        visit(name, value)
    return found


class TestResidentSet:
    """What a fully consumed evaluation keeps resident (counters only)."""

    def test_no_float_weight_mask_and_shared_row_counts(self, layer_pair):
        spikes, weights = layer_pair
        assert len({spikes.shape[0], *weights.shape}) == 3  # (K, N) is unambiguous
        evaluation = LayerEvaluation(spikes, weights)
        LoASSimulator().simulate_layer(evaluation)
        LoASSimulator().simulate_layer(evaluation, preprocess=True)
        for simulator_cls in (SparTenSNN, GoSPASNN, GammaSNN):
            simulator_cls().simulate_layer(evaluation)
        child = evaluation.preprocessed(max_spikes=1)
        assert "matches" in vars(evaluation) and "matches" in vars(child)
        assert float_kn_arrays(evaluation) == []
        assert float_kn_arrays(child) == []
        assert child.weight_row_nnz is evaluation.weight_row_nnz

    def test_networks_run_keeps_packed_spikes_and_int8_weights_only(self):
        clear_default_cache()
        Session().run("networks", scale=0.05, seed=1)
        entries = list(default_cache().memory_backend._entries.values())
        assert entries
        children = 0
        for entry in entries:
            evaluation = entry.evaluation
            for resident in (evaluation, *evaluation._preprocessed.values()):
                assert "packed_words" in vars(resident)
                assert dense_shaped_arrays(resident) == []
                assert resident.weights.dtype == np.int8
            children += len(evaluation._preprocessed)
        assert children  # the LoAS-FT cells built preprocessed children
        clear_default_cache()

    def test_cache_miss_neither_packs_nor_unpacks(self, tiny_workload, monkeypatch):
        """The generated words become the resident ``A`` as they are."""

        def dense_spikes_built(*args, **kwargs):
            raise AssertionError("a dense spike tensor was built on the miss path")

        monkeypatch.setattr(evaluation_module, "pack_spike_words", dense_spikes_built)
        monkeypatch.setattr(matrix_module, "unpack_spike_words", dense_spikes_built)
        cache = WorkloadEvaluationCache()
        evaluation = cache.evaluate(tiny_workload, np.random.default_rng(3))
        assert cache.misses == 1
        packed, _ = tiny_workload.generate(rng=np.random.default_rng(3))
        assert np.array_equal(evaluation.packed_words, packed.words)
        assert evaluation.packed_words.dtype == np.uint8


def dense_shaped_arrays(evaluation):
    """Reachable arrays of the evaluation's dense ``(M, K, T)`` shape (A's form).

    The ``(M, N, T)`` full sums and LIF outputs are skipped: with ``K == N``
    they share that shape without being ``A``.
    """
    shape = (evaluation.m, evaluation.k, evaluation.t)
    outputs = ("full_sums", "_output_spikes")
    pending = [value for name, value in vars(evaluation).items() if name not in outputs]
    found, seen = [], set()
    while pending:
        value = pending.pop()
        if id(value) in seen:
            continue
        seen.add(id(value))
        if isinstance(value, np.ndarray):
            if value.shape == shape:
                found.append(value)
        elif isinstance(value, dict):
            pending.extend(value.values())
        elif isinstance(value, (list, tuple)):
            pending.extend(value)
        elif hasattr(value, "__dict__") and not isinstance(value, (type, LayerEvaluation)):
            pending.extend(vars(value).values())
    return found


def assert_matches_dense_reference(evaluation, spikes, weights):
    """Packed-resident ``evaluation`` equals the dense references over ``spikes``."""
    assert np.array_equal(evaluation.spikes, spikes)
    assert evaluation.spikes.dtype == np.uint8
    assert not evaluation.spikes.flags.writeable
    assert evaluation.spikes is not evaluation.spikes  # unpacked per access
    assert_statistics_match(evaluation, spikes, weights)
    full_sums = reference_full_sums(spikes, weights)
    assert np.array_equal(evaluation.full_sums, full_sums)
    assert np.array_equal(evaluation.output_spikes(), lif_fire(full_sums))
    assert evaluation.spike_density == np.count_nonzero(spikes) / spikes.size
    assert dense_shaped_arrays(evaluation) == []


class TestPackedResidentEquivalence:
    """Packed words are the only resident ``A``; nothing observable moves."""

    # T = 8 is the last uint8 word, T = 9 the first int64 one.  K > N keeps
    # the (M, N, T) outputs a hydrated entry carries apart from A's shape.
    @settings(max_examples=30, deadline=None)
    @given(
        m=st.integers(1, 6),
        k=st.integers(6, 30),
        n=st.integers(1, 5),
        t=st.integers(1, 12),
        density=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(m=4, k=20, n=3, t=8, density=0.3, seed=0)
    @example(m=4, k=20, n=3, t=9, density=0.3, seed=1)
    def test_dense_references_child_and_round_trip(self, m, k, n, t, density, seed):
        rng = np.random.default_rng(seed)
        spikes = (rng.random((m, k, t)) < density).astype(np.uint8)
        weights = random_weight_matrix(k, n, 0.5, rng=rng)
        evaluation = LayerEvaluation(spikes, weights)
        assert evaluation.packed_words.dtype == (np.uint8 if t <= 8 else np.int64)
        assert_matches_dense_reference(evaluation, spikes, weights)
        masked = mask_low_activity_neurons(spikes, max_spikes=1)
        assert_matches_dense_reference(evaluation.preprocessed(1), masked, weights)

        arrays, meta = evaluation.dehydrate()
        # The packed words are the one stored form of A.
        assert "spikes" not in arrays
        assert np.array_equal(arrays["d_packed_words"], evaluation.packed_words)
        assert meta["shape"] == [m, k, t]
        hydrated = LayerEvaluation.hydrate(*unpack_payload(pack_payload(arrays, meta)))
        assert np.array_equal(hydrated.packed_words, evaluation.packed_words)
        assert_matches_dense_reference(hydrated, spikes, weights)
        assert_matches_dense_reference(hydrated.preprocessed(1), masked, weights)


class TestInt8Weights:
    """8-bit weights are held as int8; ``-128`` must not wrap anywhere."""

    def test_generated_weights_are_int8_with_the_int32_stream(self):
        weights = random_weight_matrix(64, 32, 0.5, rng=np.random.default_rng(5))
        assert weights.dtype == np.int8
        rng = np.random.default_rng(5)
        wide = rng.integers(-128, 128, size=(64, 32), dtype=np.int32)
        wide[wide == 0] = 1
        wide[rng.random((64, 32)) < 0.5] = 0
        assert np.array_equal(weights, wide)
        assert random_weight_matrix(4, 4, 0.5, weight_bits=12).dtype == np.int16
        assert random_weight_matrix(4, 4, 0.5, weight_bits=20).dtype == np.int32

    @settings(max_examples=30, deadline=None)
    @given(
        m=st.integers(1, 5),
        k=st.integers(1, 300),
        n=st.integers(1, 4),
        t=st.sampled_from((1, 4, 8, 9)),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(m=2, k=300, n=2, t=4, seed=0)
    def test_minimum_weights_match_every_oracle(self, m, k, n, t, seed):
        rng = np.random.default_rng(seed)
        spikes = random_spike_tensor(m, k, t, 0.5, silent_fraction=0.3, rng=rng)
        spikes[0] = 1  # one row fires everywhere: its sums reach -128 * k
        weights = random_weight_matrix(k, n, 0.3, rng=rng)
        weights[rng.random((k, n)) < 0.5] = -128
        weights[:, 0] = -128
        evaluation = LayerEvaluation(spikes, weights)
        full_sums = spmspm_reference(spikes, weights)
        assert full_sums[0, 0, 0] == -128 * k
        assert np.array_equal(evaluation.full_sums, full_sums)
        assert np.array_equal(evaluation.full_sums, reference_full_sums(spikes, weights))
        assert_statistics_match(evaluation, spikes, weights)
        if m * n * k <= 600:
            assert_inner_join_oracle(evaluation)
            assert_inner_join_oracle(evaluation.preprocessed())


class TestSimulatorEquivalence:
    """Cached-engine path == a fresh evaluation of the raw tensors, for every accelerator."""

    @pytest.mark.parametrize("simulator_cls", ALL_SNN_SIMULATORS)
    @pytest.mark.parametrize("layer_name", REPRESENTATIVE_LAYERS)
    def test_workload_path_matches_raw_tensor_path(self, simulator_cls, layer_name):
        workload = get_layer_workload(layer_name).scaled(0.05)
        spikes, weights = workload.generate(rng=np.random.default_rng(7))
        via_fresh = simulator_cls().simulate_layer(
            LayerEvaluation(spikes, weights), name=workload.name
        )
        via_engine = simulator_cls().simulate_workload(
            workload, rng=np.random.default_rng(7)
        )
        assert_results_identical(via_fresh, via_engine)

    @pytest.mark.parametrize("layer_name", REPRESENTATIVE_LAYERS)
    def test_loas_finetuned_preprocess_path(self, layer_name):
        workload = get_layer_workload(layer_name).scaled(0.05)
        spikes, weights = workload.generate(rng=np.random.default_rng(7), finetuned=True)
        via_fresh = LoASSimulator().simulate_layer(
            LayerEvaluation(spikes, weights), name=workload.name, preprocess=True
        )
        via_engine = LoASSimulator().simulate_workload(
            workload, rng=np.random.default_rng(7), finetuned=True, preprocess=True
        )
        assert_results_identical(via_fresh, via_engine)

    def test_cache_hits_are_bit_identical_across_simulators(self, tiny_workload):
        cache = default_cache()
        cache.clear()
        results = {}
        for simulator_cls in ALL_SNN_SIMULATORS:
            results[simulator_cls.name] = simulator_cls().simulate_workload(
                tiny_workload, rng=np.random.default_rng(3)
            )
        assert cache.misses == 1
        assert cache.hits == len(ALL_SNN_SIMULATORS) - 1
        # Fresh uncached runs reproduce every cached result exactly.
        for simulator_cls in ALL_SNN_SIMULATORS:
            spikes, weights = tiny_workload.generate(rng=np.random.default_rng(3))
            fresh = simulator_cls().simulate_layer(
                LayerEvaluation(spikes, weights), name=tiny_workload.name
            )
            assert_results_identical(fresh, results[simulator_cls.name])

    @pytest.mark.parametrize("simulator_cls", [SparTenANN, GammaANN])
    def test_ann_shared_evaluation_matches_raw_path(self, simulator_cls, rng):
        from repro.baselines import generate_ann_activations
        from repro.engine import AnnLayerEvaluation

        activations = generate_ann_activations(16, 128, rng=rng)
        weights = random_weight_matrix(128, 24, 0.9, rng=rng)
        fresh = simulator_cls().simulate_layer(AnnLayerEvaluation(activations, weights), name="ann")
        evaluation = AnnLayerEvaluation(activations, weights)
        simulator_cls().simulate_layer(evaluation, name="ann")
        # The second simulation reads the derived state the first computed.
        shared = simulator_cls().simulate_layer(evaluation, name="ann")
        assert_results_identical(fresh, shared)
        # The consumed evaluation through the disk tier's byte format: the
        # derived state arrives stored, and the results do not move.
        hydrated = AnnLayerEvaluation.hydrate(*unpack_payload(pack_payload(*evaluation.dehydrate())))
        assert hydrated.derived_signature() == evaluation.derived_signature()
        assert {"d_output_nnz", "d_matches"} <= set(hydrated._members)
        restored = simulator_cls().simulate_layer(hydrated, name="ann")
        assert_results_identical(fresh, restored)



class TestLayerKindBoundary:
    """``simulate_workload`` rejects a layer of the wrong kind before simulating."""

    @pytest.fixture
    def snn_layer(self):
        return get_layer_workload("V-L8").scaled(0.05)

    @pytest.mark.parametrize("simulator_cls", [SparTenANN, GammaANN])
    def test_ann_simulator_rejects_a_spiking_layer(self, simulator_cls, snn_layer):
        with pytest.raises(TypeError, match="'ann' layers, not a 'snn' LayerWorkload"):
            simulator_cls().simulate_workload(snn_layer, rng=np.random.default_rng(7))
        evaluation = default_cache().evaluate(snn_layer, np.random.default_rng(7))
        ann_layer = AnnLayerWorkload(snn_layer.shape, snn_layer.profile)
        with pytest.raises(TypeError, match="not a 'snn' LayerEvaluation"):
            simulator_cls().simulate_workload(ann_layer, evaluation=evaluation)

    @pytest.mark.parametrize("simulator_cls", ALL_SNN_SIMULATORS)
    def test_snn_simulator_rejects_an_ann_layer(self, simulator_cls, snn_layer):
        ann_layer = AnnLayerWorkload(snn_layer.shape, snn_layer.profile)
        misses = default_cache().misses
        with pytest.raises(TypeError, match="'snn' layers, not a 'ann' AnnLayerWorkload"):
            simulator_cls().simulate_workload(ann_layer, rng=np.random.default_rng(7))
        # Rejected at the boundary: nothing was generated.
        assert default_cache().misses == misses
        evaluation = default_cache().evaluate(ann_layer, np.random.default_rng(7))
        with pytest.raises(TypeError, match="not a 'ann' AnnLayerEvaluation"):
            simulator_cls().simulate_workload(snn_layer, evaluation=evaluation)

class TestCacheSemantics:
    def _workload(self, name="tiny", m=6, k=64, n=12, t=4):
        profile = SparsityProfile(0.8, 0.7, 0.75, 0.9)
        return LayerWorkload(LayerShape(name, m=m, k=k, n=n, t=t), profile)

    def test_hit_restores_generator_state(self):
        cache = WorkloadEvaluationCache()
        workload = self._workload()
        rng_a = np.random.default_rng(11)
        cache.evaluate(workload, rng_a)
        state_after_generation = rng_a.bit_generator.state
        rng_b = np.random.default_rng(11)
        cache.evaluate(workload, rng_b)
        assert rng_b.bit_generator.state == state_after_generation

    def test_sequences_cache_layer_by_layer(self):
        cache = WorkloadEvaluationCache()
        workload = self._workload()
        rng = np.random.default_rng(5)
        first = cache.evaluate(workload, rng)
        second = cache.evaluate(workload, rng)  # same workload, advanced state
        assert first is not second
        assert cache.misses == 2
        rng = np.random.default_rng(5)
        assert cache.evaluate(workload, rng) is first
        assert cache.evaluate(workload, rng) is second
        assert cache.hits == 2

    def test_finetuned_flag_is_part_of_the_key(self):
        cache = WorkloadEvaluationCache()
        workload = self._workload()
        plain = cache.evaluate(workload, np.random.default_rng(2))
        finetuned = cache.evaluate(workload, np.random.default_rng(2), finetuned=True)
        assert plain is not finetuned
        assert cache.misses == 2

    def test_fingerprint_ignores_name_but_not_shape(self):
        base = self._workload(name="a")
        renamed = self._workload(name="b")
        resized = self._workload(name="a", k=65)
        assert workload_fingerprint(base) == workload_fingerprint(renamed)
        assert workload_fingerprint(base) != workload_fingerprint(resized)

    def test_design_points_never_enter_the_cache_key(self):
        # Hardware design points are pure cost parameters: simulating one
        # workload on arbitrarily many archs shares a single evaluation,
        # and the evaluation object handed to each simulator is identical.
        from repro.arch import default_arch
        from repro.core import LoASSimulator

        cache = WorkloadEvaluationCache()
        workload = self._workload()
        evaluations = []
        for overrides in (
            {},
            {"pe.num_tppes": 4},
            {"memory.global_cache_bytes": 32 * 1024},
            {"energy.dram_per_byte": 10.0},
        ):
            spec = default_arch().with_overrides(**overrides)
            LoASSimulator(spec)  # arch construction must not touch the key
            evaluations.append(cache.evaluate(workload, np.random.default_rng(3)))
        assert cache.misses == 1
        assert cache.hits == len(evaluations) - 1
        assert all(evaluation is evaluations[0] for evaluation in evaluations)

    def test_simulation_on_shared_evaluation_reprices_costs_only(self, tiny_workload):
        # Two design points, one evaluation: the cost models read the same
        # tensors and statistics but charge them to different constants.
        from repro.arch import default_arch
        from repro.core import LoASSimulator

        default_cache().clear()
        rng_a = np.random.default_rng(4)
        rng_b = np.random.default_rng(4)
        baseline = LoASSimulator().simulate_workload(tiny_workload, rng=rng_a)
        cheap_dram = default_arch().with_overrides(**{"energy.dram_per_byte": 6.0})
        repriced = LoASSimulator(cheap_dram).simulate_workload(tiny_workload, rng=rng_b)
        assert default_cache().misses == 1 and default_cache().hits == 1
        # identical activity counts, traffic and cycles; energy re-priced
        assert repriced.cycles == baseline.cycles
        assert repriced.ops == baseline.ops
        assert repriced.dram.as_dict() == baseline.dram.as_dict()
        assert repriced.energy.entries["dram"] == pytest.approx(
            baseline.energy.entries["dram"] * 6.0 / 60.0
        )

    def test_lru_eviction(self):
        cache = WorkloadEvaluationCache(maxsize=2)
        workloads = [self._workload(m=m) for m in (4, 5, 6)]
        for workload in workloads:
            cache.evaluate(workload, np.random.default_rng(0))
        assert len(cache) == 2
        # The oldest entry was evicted: evaluating it again is a miss.
        misses = cache.misses
        cache.evaluate(workloads[0], np.random.default_rng(0))
        assert cache.misses == misses + 1

    def test_cached_tensors_are_read_only(self):
        cache = WorkloadEvaluationCache()
        evaluation = cache.evaluate(self._workload(), np.random.default_rng(0))
        with pytest.raises(ValueError):
            evaluation.spikes[0, 0, 0] = 1
        with pytest.raises(ValueError):
            evaluation.weights[0, 0] = 1

    def test_network_simulation_is_unchanged_by_cache_state(self, tiny_workload):
        from repro.snn.workloads import NetworkWorkload

        network = NetworkWorkload("net", [tiny_workload, tiny_workload])
        simulator = LoASSimulator()
        default_cache().clear()
        cold = simulator.simulate_network(network, rng=np.random.default_rng(9))
        warm = simulator.simulate_network(network, rng=np.random.default_rng(9))
        assert_results_identical(cold, warm)
