"""Unit tests for the core building blocks: config, the engine's FTP
functional path, inner join, compressor and scheduler."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.compressor import OutputCompressor
from repro.core.config import LoASConfig
from repro.core.inner_join import InnerJoinUnit
from repro.core.scheduler import Scheduler
from repro.engine import LayerEvaluation
from repro.snn.layers import SNNLinearLayer, spmspm_reference
from repro.snn.lif import LIFParameters, lif_fire
from repro.sparse.fiber import Fiber
from repro.sparse.matrix import random_spike_tensor, random_weight_matrix
from repro.sparse.packed import PackedSpikeMatrix


class TestLoASConfig:
    def test_table3_defaults(self):
        config = LoASConfig()
        assert config.num_tppes == 16
        assert config.timesteps == 4
        assert config.weight_bits == 8
        assert config.global_cache_bytes == 256 * 1024
        assert config.cache_banks == 16
        assert config.dram.bandwidth_gbps == 128.0
        assert config.clock_ghz == 0.8

    def test_laggy_latency_is_8_cycles(self):
        assert LoASConfig().laggy_latency_cycles == 8

    def test_bitmask_chunks(self):
        config = LoASConfig()
        assert config.bitmask_chunks(128) == 1
        assert config.bitmask_chunks(129) == 2
        assert config.bitmask_chunks(0) == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            LoASConfig(num_tppes=0)
        with pytest.raises(ValueError):
            LoASConfig(timesteps=0)
        with pytest.raises(ValueError):
            LoASConfig().bitmask_chunks(-1)


class TestFTPFunctional:
    """The engine's all-timesteps-at-once path against ``SNNLinearLayer``."""

    def test_matches_reference(self, small_layer):
        spikes, weights = small_layer
        full_sums = LayerEvaluation(spikes, weights).full_sums
        assert np.array_equal(full_sums, spmspm_reference(spikes, weights))

    def test_layer_matches_reference_pipeline(self, small_layer):
        spikes, weights = small_layer
        lif = LIFParameters(threshold=2.0, leak=0.75)
        reference = SNNLinearLayer(weights, lif).forward(spikes)
        evaluation = LayerEvaluation(spikes, weights)
        assert np.array_equal(evaluation.output_spikes(lif), reference.spikes)
        assert np.array_equal(evaluation.output_spikes(), lif_fire(reference.full_sums))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            LayerEvaluation(np.zeros((2, 3, 1)), np.zeros((4, 2)))
        with pytest.raises(ValueError):
            SNNLinearLayer(np.zeros((4, 2))).forward(np.zeros((2, 3, 1)))

    @settings(max_examples=20, deadline=None)
    @given(
        arrays(np.uint8, st.tuples(st.integers(1, 4), st.integers(1, 10), st.integers(1, 12)), elements=st.integers(0, 1)),
        st.integers(1, 5),
    )
    def test_ftp_equivalence_property(self, spikes, n):
        rng = np.random.default_rng(7)
        weights = rng.integers(-4, 5, size=(spikes.shape[1], n))
        weights[rng.random(weights.shape) < 0.5] = 0
        evaluation = LayerEvaluation(spikes, weights)
        reference = SNNLinearLayer(weights).forward(spikes)
        assert np.array_equal(evaluation.full_sums, reference.full_sums)
        assert np.array_equal(evaluation.output_spikes(), reference.spikes)


def _weight_fiber(weights, col):
    column = np.asarray(weights)[:, col]
    return Fiber(bitmask=column != 0, values=column[column != 0])


def _fibers_for(spikes, weights, row, col):
    return PackedSpikeMatrix.from_dense(spikes).fiber(row), _weight_fiber(weights, col)


class TestInnerJoin:
    def test_per_timestep_sums_are_exact(self, small_layer):
        spikes, weights = small_layer
        reference = spmspm_reference(spikes, weights)
        unit = InnerJoinUnit()
        for row in range(0, spikes.shape[0], 3):
            for col in range(0, weights.shape[1], 7):
                spike_fiber, weight_fiber = _fibers_for(spikes, weights, row, col)
                result = unit.join(spike_fiber, weight_fiber)
                assert np.array_equal(result.per_timestep_sums, reference[row, col, :])

    def test_pseudo_minus_corrections_identity(self, small_layer):
        spikes, weights = small_layer
        spike_fiber, weight_fiber = _fibers_for(spikes, weights, 0, 0)
        result = InnerJoinUnit().join(spike_fiber, weight_fiber)
        assert np.array_equal(result.per_timestep_sums, result.pseudo_sum - result.corrections)

    def test_match_count(self, small_layer):
        spikes, weights = small_layer
        spike_fiber, weight_fiber = _fibers_for(spikes, weights, 1, 2)
        result = InnerJoinUnit().join(spike_fiber, weight_fiber)
        expected = int(np.sum((spikes[1].sum(axis=1) > 0) & (weights[:, 2] != 0)))
        assert result.matches == expected
        assert result.pseudo_accumulations == expected

    def test_all_ones_words_need_no_correction(self):
        spikes = np.ones((1, 6, 4), dtype=np.uint8)
        weights = np.arange(1, 7).reshape(6, 1)
        spike_fiber, weight_fiber = _fibers_for(spikes, weights, 0, 0)
        result = InnerJoinUnit().join(spike_fiber, weight_fiber)
        assert result.correction_accumulations == 0
        assert result.perfect_predictions == result.matches == 6

    def test_correction_count_equals_zero_bits_of_matched_words(self, small_layer):
        spikes, weights = small_layer
        spike_fiber, weight_fiber = _fibers_for(spikes, weights, 2, 3)
        result = InnerJoinUnit().join(spike_fiber, weight_fiber)
        matched = (spikes[2].sum(axis=1) > 0) & (weights[:, 3] != 0)
        zero_bits = int((spikes[2][matched] == 0).sum())
        assert result.correction_accumulations == zero_bits

    def test_cycles_model(self):
        config = LoASConfig()
        spikes = np.zeros((1, 200, 4), dtype=np.uint8)
        spikes[0, :10, 0] = 1
        weights = np.zeros((200, 1), dtype=np.int32)
        weights[:10, 0] = 1
        spike_fiber, weight_fiber = _fibers_for(spikes, weights, 0, 0)
        result = InnerJoinUnit(config).join(spike_fiber, weight_fiber)
        assert result.chunks == config.bitmask_chunks(200)
        assert result.cycles == result.chunks + result.matches + config.task_overhead_cycles

    def test_length_mismatch_rejected(self):
        spikes = np.ones((1, 4, 4), dtype=np.uint8)
        weights = np.ones((8, 1), dtype=np.int32)
        with pytest.raises(ValueError):
            InnerJoinUnit().join(*_fibers_for(spikes, weights, 0, 0))

    def test_join_then_fire_matches_reference_layer(self, small_layer):
        # One TPPE's work for one output neuron: join the fibers, then fire
        # the LIF neuron on the T per-timestep sums.
        spikes, weights = small_layer
        reference = lif_fire(spmspm_reference(spikes, weights))
        unit = InnerJoinUnit()
        for row, col in [(0, 0), (3, 5), (7, 23)]:
            result = unit.join(*_fibers_for(spikes, weights, row, col))
            fired = lif_fire(result.per_timestep_sums[None, None, :])[0, 0]
            assert np.array_equal(fired, reference[row, col])

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1))
    def test_inner_join_property(self, seed):
        rng = np.random.default_rng(seed)
        spikes = random_spike_tensor(1, 40, 4, 0.7, silent_fraction=0.5, rng=rng)
        weights = random_weight_matrix(40, 1, 0.8, rng=rng)
        spike_fiber, weight_fiber = _fibers_for(spikes, weights, 0, 0)
        result = InnerJoinUnit().join(spike_fiber, weight_fiber)
        assert np.array_equal(result.per_timestep_sums, spmspm_reference(spikes, weights)[0, 0, :])


class TestCompressor:
    def test_roundtrip_without_preprocessing(self, rng):
        spikes = (rng.random((4, 40, 4)) > 0.8).astype(np.uint8)
        result = OutputCompressor().compress(spikes, preprocess=False)
        assert np.array_equal(result.packed.to_dense(), spikes)
        assert result.dropped_neurons == 0

    def test_preprocessing_drops_single_spike_neurons(self):
        spikes = np.zeros((1, 3, 4), dtype=np.uint8)
        spikes[0, 0, 0] = 1  # single spike -> dropped
        spikes[0, 1, 0] = 1
        spikes[0, 1, 1] = 1  # two spikes -> kept
        result = OutputCompressor().compress(spikes, preprocess=True)
        assert result.dropped_neurons == 1
        assert result.packed.nnz == 1

    def test_output_bytes_match_packed_storage(self, rng):
        spikes = (rng.random((4, 40, 4)) > 0.8).astype(np.uint8)
        config = LoASConfig()
        result = OutputCompressor(config).compress(spikes)
        assert result.output_bytes == pytest.approx(result.packed.storage_bytes(config.pointer_bits))

    def test_cycles_scale_with_rows_and_chunks(self):
        config = LoASConfig()
        spikes = np.zeros((8, 300, 4), dtype=np.uint8)
        result = OutputCompressor(config).compress(spikes)
        assert result.cycles == 8 * config.bitmask_chunks(300) * config.laggy_latency_cycles

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            OutputCompressor().compress(np.zeros((2, 2)))


class TestScheduler:
    def test_wave_count(self):
        scheduler = Scheduler(LoASConfig(num_tppes=16))
        assert scheduler.num_waves(32, 10) == 20
        assert scheduler.num_waves(17, 1) == 2
        assert scheduler.num_waves(0, 5) == 0

    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 64), st.integers(1, 200), st.integers(1, 40))
    def test_waves_cover_all_outputs(self, num_tppes, rows, columns):
        # Each wave holds at most num_tppes output neurons of one column, and
        # the schedule is as short as that allows: one wave fewer per column
        # could not hold every row.
        waves = Scheduler(LoASConfig(num_tppes=num_tppes)).num_waves(rows, columns)
        assert waves * num_tppes >= rows * columns
        assert waves % columns == 0
        assert (waves // columns - 1) * num_tppes < rows

    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 64), st.integers(1, 200), st.integers(1, 40))
    def test_wave_rows_bounded_by_tppes(self, num_tppes, rows, columns):
        scheduler = Scheduler(LoASConfig(num_tppes=num_tppes))
        utilization = scheduler.pe_utilization(rows, columns)
        assert 0.0 < utilization <= 1.0
        assert utilization == pytest.approx(
            rows * columns / (scheduler.num_waves(rows, columns) * num_tppes)
        )
        assert (utilization == 1.0) == (rows % num_tppes == 0)

    def test_pe_utilization(self):
        scheduler = Scheduler(LoASConfig(num_tppes=16))
        assert scheduler.pe_utilization(16, 4) == pytest.approx(1.0)
        assert scheduler.pe_utilization(8, 4) == pytest.approx(0.5)
        assert scheduler.pe_utilization(0, 0) == 0.0

    def test_negative_dimensions_rejected(self):
        with pytest.raises(ValueError):
            Scheduler().num_waves(-1, 2)
        with pytest.raises(ValueError):
            Scheduler().num_waves(2, -1)
