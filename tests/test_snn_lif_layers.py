"""Unit tests for LIF dynamics and the functional layer."""

import numpy as np
import pytest

from repro.snn.layers import SNNLinearLayer, spmspm_reference
from repro.snn.lif import LIFParameters, lif_fire, lif_step


class TestLIFParameters:
    def test_defaults(self):
        params = LIFParameters()
        assert params.threshold == 1.0
        assert 0 < params.leak <= 1

    def test_invalid_leak_rejected(self):
        with pytest.raises(ValueError):
            LIFParameters(leak=0.0)
        with pytest.raises(ValueError):
            LIFParameters(leak=1.5)


class TestLIFStep:
    def test_fires_above_threshold(self):
        spikes, membrane = lif_step(np.array([2.0]), np.array([0.0]), LIFParameters(threshold=1.0))
        assert spikes[0] == 1
        assert membrane[0] == 0.0  # hard reset

    def test_no_fire_below_threshold(self):
        spikes, membrane = lif_step(np.array([0.4]), np.array([0.0]), LIFParameters(threshold=1.0, leak=0.5))
        assert spikes[0] == 0
        assert membrane[0] == pytest.approx(0.2)

    def test_membrane_carry_over_triggers_fire(self):
        params = LIFParameters(threshold=1.0, leak=1.0)
        spikes, membrane = lif_step(np.array([0.6]), np.array([0.6]), params)
        assert spikes[0] == 1

    def test_exactly_at_threshold_does_not_fire(self):
        spikes, _ = lif_step(np.array([1.0]), np.array([0.0]), LIFParameters(threshold=1.0))
        assert spikes[0] == 0


class TestLIFFire:
    def test_output_shape_and_dtype(self):
        currents = np.zeros((3, 5, 4))
        spikes = lif_fire(currents)
        assert spikes.shape == (3, 5, 4)
        assert spikes.dtype == np.uint8

    def test_constant_super_threshold_input_fires_every_step(self):
        currents = np.full((1, 1, 4), 5.0)
        assert lif_fire(currents, LIFParameters(threshold=1.0)).sum() == 4

    def test_subthreshold_accumulation_with_no_leak(self):
        currents = np.full((1, 1, 4), 0.6)
        spikes = lif_fire(currents, LIFParameters(threshold=1.0, leak=1.0))
        # Fires on every second timestep: 0.6, 1.2->fire, 0.6, 1.2->fire.
        assert spikes[0, 0].tolist() == [0, 1, 0, 1]

    def test_zero_input_never_fires(self):
        assert lif_fire(np.zeros((2, 2, 3))).sum() == 0


class TestSpMspMReference:
    def test_matches_manual_matmul(self, rng):
        spikes = (rng.random((3, 7, 2)) > 0.5).astype(np.uint8)
        weights = rng.integers(-5, 5, size=(7, 4))
        expected = np.stack([spikes[:, :, t] @ weights for t in range(2)], axis=-1)
        assert np.array_equal(spmspm_reference(spikes, weights), expected)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            spmspm_reference(np.zeros((2, 3, 1)), np.zeros((4, 2)))

    def test_rejects_bad_ranks(self):
        with pytest.raises(ValueError):
            spmspm_reference(np.zeros((2, 3)), np.zeros((3, 2)))
        with pytest.raises(ValueError):
            spmspm_reference(np.zeros((2, 3, 1)), np.zeros((3,)))


class TestSNNLinearLayer:
    def test_forward_shapes(self, small_layer):
        spikes, weights = small_layer
        layer = SNNLinearLayer(weights)
        output = layer(spikes)
        assert output.full_sums.shape == (8, 24, 4)
        assert output.spikes.shape == (8, 24, 4)

    def test_spikes_are_unary(self, small_layer):
        spikes, weights = small_layer
        output = SNNLinearLayer(weights)(spikes)
        assert set(np.unique(output.spikes)).issubset({0, 1})

    def test_input_output_size_properties(self, small_layer):
        _, weights = small_layer
        layer = SNNLinearLayer(weights)
        assert layer.input_size == 96
        assert layer.output_size == 24

    def test_rejects_1d_weights(self):
        with pytest.raises(ValueError):
            SNNLinearLayer(np.zeros(4))

    def test_matches_reference_pipeline(self, small_layer):
        spikes, weights = small_layer
        layer = SNNLinearLayer(weights)
        output = layer(spikes)
        assert np.array_equal(output.spikes, lif_fire(spmspm_reference(spikes, weights), layer.lif))


class TestLIFNeuron:
    """A population of neurons stepped one timestep at a time."""

    def test_stateful_forward_matches_lif_fire(self):
        rng = np.random.default_rng(0)
        currents = rng.normal(size=(4, 6, 5))
        params = LIFParameters()
        membrane = np.zeros((4, 6))
        stepped = []
        for t in range(5):
            spikes, membrane = lif_step(currents[:, :, t], membrane, params)
            stepped.append(spikes)
        assert np.array_equal(np.stack(stepped, axis=-1), lif_fire(currents, params))

    def test_neurons_step_independently(self):
        spikes, membrane = lif_step(
            np.array([0.7, 0.2]), np.array([0.6, 0.6]), LIFParameters(threshold=1.0, leak=1.0)
        )
        assert spikes.tolist() == [1, 0]
        assert membrane.tolist() == [0.0, 0.8]
