"""Unit tests for the CSR spike footprint and the random tensor generators."""

import math

import numpy as np
import pytest

from repro.sparse.csr import csr_storage_bits_for_spikes
from repro.sparse.matrix import (
    density,
    mask_low_activity_neurons,
    random_spike_tensor,
    random_weight_matrix,
    silent_neuron_fraction,
    silent_neuron_mask,
    sparsity,
)


class TestCSRForSpikes:
    def test_hand_computed_footprint(self):
        spikes = np.zeros((2, 3, 2), dtype=np.uint8)
        spikes[:, :, 0] = [[1, 0, 1], [0, 0, 0]]  # 2 spikes
        spikes[:, :, 1] = [[0, 1, 1], [1, 0, 0]]  # 3 spikes
        # Each of the 5 spikes stores 1 value bit + ceil(log2 3) = 2
        # coordinate bits; each of the 2 timesteps stores M + 1 = 3 row
        # pointers of 32 bits: 5 * 3 + 2 * 3 * 32 = 207.
        assert csr_storage_bits_for_spikes(spikes) == 207
        # 16-bit pointers: 5 * 3 + 2 * 3 * 16 = 111.
        assert csr_storage_bits_for_spikes(spikes, pointer_width=16) == 111

    @pytest.mark.parametrize("t", (1, 2, 4, 7, 8, 9, 16, 63))
    def test_matches_one_csr_per_timestep(self, t, rng):
        spikes = random_spike_tensor(5, 37, t, spike_sparsity=0.7, silent_fraction=0.3, rng=rng)
        coordinate_bits = max(1, math.ceil(math.log2(37)))
        expected = 0
        for step in range(t):
            matrix = spikes[:, :, step]
            indptr = np.concatenate([[0], np.cumsum(np.count_nonzero(matrix, axis=1))])
            indices = np.nonzero(matrix)[1]
            data = matrix[matrix != 0]
            expected += data.size * 1 + indices.size * coordinate_bits + indptr.size * 32
        assert csr_storage_bits_for_spikes(spikes) == expected

    # (K, ceil(log2 K) with a one-bit floor)
    @pytest.mark.parametrize(
        "k, coordinate_bits",
        ((1, 1), (2, 1), (3, 2), (4, 2), (5, 3), (256, 8), (257, 9)),
    )
    def test_coordinate_bits_per_spike(self, k, coordinate_bits):
        spikes = np.zeros((1, k, 1), dtype=np.uint8)
        spikes[0, k - 1, 0] = 1
        pointers = 2 * 32  # M + 1 row pointers for the single timestep
        assert csr_storage_bits_for_spikes(spikes) == 1 + coordinate_bits + pointers

    def test_silent_tensor_pays_only_row_pointers(self):
        spikes = np.zeros((3, 8, 4), dtype=np.uint8)
        assert csr_storage_bits_for_spikes(spikes, pointer_width=16) == 4 * (3 + 1) * 16

    def test_more_expensive_than_packed_for_multi_timestep_spikes(self, rng):
        spikes = random_spike_tensor(8, 64, 4, spike_sparsity=0.8, silent_fraction=0.6, rng=rng)
        from repro.sparse.packed import PackedSpikeMatrix

        csr_bits = csr_storage_bits_for_spikes(spikes)
        packed_bits = PackedSpikeMatrix.from_dense(spikes).storage_bits()
        assert csr_bits > 0
        assert packed_bits < csr_bits * 2  # packed is competitive

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            csr_storage_bits_for_spikes(np.zeros((2, 2)))


class TestSparsityHelpers:
    def test_sparsity_and_density(self):
        x = np.array([0, 1, 0, 2])
        assert sparsity(x) == pytest.approx(0.5)
        assert density(x) == pytest.approx(0.5)

    def test_sparsity_of_empty(self):
        assert sparsity(np.array([])) == 0.0


class TestRandomWeightMatrix:
    def test_shape_and_dtype(self, rng):
        weights = random_weight_matrix(50, 30, 0.9, rng=rng)
        assert weights.shape == (50, 30)
        assert np.issubdtype(weights.dtype, np.integer)

    def test_sparsity_close_to_target(self, rng):
        weights = random_weight_matrix(200, 200, 0.9, rng=rng)
        assert sparsity(weights) == pytest.approx(0.9, abs=0.02)

    def test_invalid_sparsity_rejected(self, rng):
        with pytest.raises(ValueError):
            random_weight_matrix(4, 4, 1.5, rng=rng)

    def test_values_within_bitwidth(self, rng):
        weights = random_weight_matrix(64, 64, 0.5, rng=rng, weight_bits=8)
        assert weights.max() <= 127 and weights.min() >= -128


class TestRandomSpikeTensor:
    def test_shape(self, rng):
        spikes = random_spike_tensor(4, 10, 3, 0.5, rng=rng)
        assert spikes.shape == (4, 10, 3)

    def test_unary_values(self, rng):
        spikes = random_spike_tensor(4, 10, 3, 0.5, rng=rng)
        assert set(np.unique(spikes)).issubset({0, 1})

    def test_sparsity_close_to_target_without_silent_control(self, rng):
        spikes = random_spike_tensor(40, 100, 4, 0.8, rng=rng)
        assert sparsity(spikes) == pytest.approx(0.8, abs=0.03)

    def test_silent_fraction_close_to_target(self, rng):
        spikes = random_spike_tensor(40, 100, 4, 0.8, silent_fraction=0.7, rng=rng)
        assert silent_neuron_fraction(spikes) == pytest.approx(0.7, abs=0.03)

    def test_sparsity_close_to_target_with_silent_control(self, rng):
        spikes = random_spike_tensor(40, 100, 4, 0.8, silent_fraction=0.7, rng=rng)
        assert sparsity(spikes) == pytest.approx(0.8, abs=0.03)

    def test_nonsilent_neurons_fire_at_least_once(self, rng):
        spikes = random_spike_tensor(20, 50, 4, 0.8, silent_fraction=0.6, rng=rng)
        silent = silent_neuron_mask(spikes)
        counts = spikes.sum(axis=2)
        assert np.all(counts[~silent] >= 1)

    def test_all_silent(self, rng):
        spikes = random_spike_tensor(4, 10, 4, 0.99, silent_fraction=1.0, rng=rng)
        assert spikes.sum() == 0

    def test_invalid_sparsity_rejected(self, rng):
        with pytest.raises(ValueError):
            random_spike_tensor(4, 4, 4, -0.1, rng=rng)

    def test_invalid_silent_fraction_rejected(self, rng):
        with pytest.raises(ValueError):
            random_spike_tensor(4, 4, 4, 0.5, silent_fraction=2.0, rng=rng)


class TestMaskingHelpers:
    def test_silent_neuron_mask_requires_3d(self):
        with pytest.raises(ValueError):
            silent_neuron_mask(np.zeros((2, 2)))

    def test_mask_low_activity_removes_single_spike_neurons(self):
        spikes = np.zeros((1, 3, 4), dtype=np.uint8)
        spikes[0, 0, 1] = 1  # fires once -> masked
        spikes[0, 1, 0] = 1
        spikes[0, 1, 2] = 1  # fires twice -> kept
        masked = mask_low_activity_neurons(spikes, max_spikes=1)
        assert masked[0, 0].sum() == 0
        assert masked[0, 1].sum() == 2

    def test_mask_low_activity_does_not_modify_input(self, rng):
        spikes = random_spike_tensor(4, 20, 4, 0.7, rng=rng)
        before = spikes.copy()
        mask_low_activity_neurons(spikes)
        assert np.array_equal(spikes, before)

    def test_mask_increases_silent_fraction(self, rng):
        spikes = random_spike_tensor(20, 100, 4, 0.8, silent_fraction=0.6, rng=rng)
        masked = mask_low_activity_neurons(spikes)
        assert silent_neuron_fraction(masked) >= silent_neuron_fraction(spikes)
