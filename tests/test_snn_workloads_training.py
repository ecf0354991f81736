"""Unit tests for network shapes, Table II workloads, training, pruning and
the fine-tuned preprocessing."""

import numpy as np
import pytest

from repro.snn.network import (
    LayerShape,
    REPRESENTATIVE_LAYERS,
    alexnet_layers,
    resnet19_layers,
    vgg16_layers,
)
from repro.snn.preprocessing import apply_low_activity_mask, finetuned_preprocessing_experiment
from repro.snn.pruning import PruningConfig, lottery_ticket_prune, magnitude_prune_masks, weight_sparsity
from repro.snn.training import (
    SpikingMLP,
    TrainingConfig,
    evaluate_accuracy,
    make_synthetic_classification,
    train,
)
from repro.snn.workloads import (
    TABLE2_LAYER_PROFILES,
    TABLE2_NETWORK_PROFILES,
    get_layer_workload,
    get_network_workload,
    list_layer_names,
    list_network_names,
)
from repro.sparse.matrix import silent_neuron_fraction, sparsity


class TestNetworkShapes:
    def test_layer_counts_match_table2(self):
        assert len(alexnet_layers()) == 7
        assert len(vgg16_layers()) == 14
        assert len(resnet19_layers()) == 19

    def test_representative_layer_shapes_exact(self):
        assert REPRESENTATIVE_LAYERS["A-L4"] == LayerShape("A-L4", 64, 3456, 256, 4)
        assert REPRESENTATIVE_LAYERS["V-L8"] == LayerShape("V-L8", 16, 2304, 512, 4)
        assert REPRESENTATIVE_LAYERS["R-L19"] == LayerShape("R-L19", 16, 2304, 512, 4)
        assert REPRESENTATIVE_LAYERS["T-HFF"] == LayerShape("T-HFF", 784, 3072, 3072, 4)

    def test_networks_embed_their_representative_layer(self):
        assert any(s.m == 64 and s.k == 3456 and s.n == 256 for s in alexnet_layers())
        assert any(s.m == 16 and s.k == 2304 and s.n == 512 for s in vgg16_layers())
        assert any(s.m == 16 and s.k == 2304 and s.n == 512 for s in resnet19_layers())

    def test_representative_layer_lookup_error(self):
        with pytest.raises(KeyError):
            get_layer_workload("bogus")

    def test_macs_properties(self):
        shape = LayerShape("x", 2, 3, 4, 5)
        assert shape.macs == 24
        assert shape.total_macs == 120

    def test_scaled_shrinks_spatial_dims_only(self):
        shape = LayerShape("x", 100, 200, 300, 4).scaled(0.5)
        assert (shape.m, shape.k, shape.n, shape.t) == (50, 100, 150, 4)

    def test_scaled_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            LayerShape("x", 1, 1, 1, 1).scaled(0)

    def test_timesteps_parameter(self):
        assert all(s.t == 8 for s in vgg16_layers(timesteps=8))


class TestWorkloads:
    def test_profile_values_match_table2(self):
        assert TABLE2_NETWORK_PROFILES["alexnet"].spike_sparsity == pytest.approx(0.812)
        assert TABLE2_NETWORK_PROFILES["vgg16"].weight_sparsity == pytest.approx(0.982)
        assert TABLE2_NETWORK_PROFILES["resnet19"].silent_fraction == pytest.approx(0.596)
        assert TABLE2_LAYER_PROFILES["V-L8"].silent_fraction_finetuned == pytest.approx(0.868)

    def test_list_names(self):
        assert list_network_names() == ["alexnet", "resnet19", "vgg16"]
        assert set(list_layer_names()) == {"A-L4", "V-L8", "R-L19", "T-HFF"}

    def test_unknown_names_rejected(self):
        with pytest.raises(KeyError):
            get_network_workload("lenet")
        with pytest.raises(KeyError):
            get_layer_workload("Z-L1")

    def test_network_workload_structure(self):
        net = get_network_workload("alexnet")
        assert net.num_layers == 7
        assert net.profile.weight_sparsity == pytest.approx(0.982)
        assert net.total_macs() > 0

    def test_generated_tensors_match_profile(self, rng):
        workload = get_layer_workload("V-L8").scaled(0.25)
        packed, weights = workload.generate(rng=rng)
        spikes = packed.to_dense()
        assert sparsity(weights) == pytest.approx(0.968, abs=0.01)
        assert silent_neuron_fraction(spikes) == pytest.approx(0.765, abs=0.02)
        assert sparsity(spikes) == pytest.approx(0.881, abs=0.02)

    def test_finetuned_generation_has_more_silent_neurons(self, rng):
        workload = get_layer_workload("V-L8").scaled(0.25)
        spikes = workload.generate(rng=np.random.default_rng(0))[0].to_dense()
        spikes_ft = workload.generate(rng=np.random.default_rng(0), finetuned=True)[0].to_dense()
        assert silent_neuron_fraction(spikes_ft) > silent_neuron_fraction(spikes)

    def test_scaled_network(self):
        net = get_network_workload("vgg16").scaled(0.1)
        assert net.num_layers == 14
        assert net.layers[0].shape.m == 102

    def test_layer_timesteps_override(self):
        workload = get_layer_workload("A-L4", timesteps=8)
        assert workload.shape.t == 8


class TestTraining:
    @pytest.fixture
    def dataset(self, rng):
        return make_synthetic_classification(200, 16, 3, rng=rng)

    @pytest.fixture
    def model(self, rng):
        return SpikingMLP([16, 32, 3], timesteps=4, rng=rng)

    def test_dataset_shapes(self, dataset):
        inputs, labels = dataset
        assert inputs.shape == (200, 16)
        assert labels.shape == (200,)
        assert labels.max() < 3

    def test_forward_logits_shape(self, model, dataset):
        inputs, _ = dataset
        assert model.forward(inputs[:8]).shape == (8, 3)

    def test_training_reduces_loss(self, model, dataset, rng):
        inputs, labels = dataset
        losses = train(model, inputs, labels, TrainingConfig(epochs=6, learning_rate=0.1), rng=rng)
        assert losses[-1] < losses[0]

    def test_training_beats_chance(self, model, dataset, rng):
        inputs, labels = dataset
        train(model, inputs, labels, TrainingConfig(epochs=8, learning_rate=0.1), rng=rng)
        assert evaluate_accuracy(model, inputs, labels) > 1.0 / 3.0 + 0.1

    def test_model_requires_two_layers(self):
        with pytest.raises(ValueError):
            SpikingMLP([4])

    def test_hidden_spike_counts_shape(self, model, dataset):
        inputs, _ = dataset
        counts = model.hidden_spike_counts(inputs[:16])
        assert len(counts) == 1
        assert counts[0].shape == (32,)

    def test_predict_returns_labels(self, model, dataset):
        inputs, _ = dataset
        preds = model.predict(inputs[:10])
        assert preds.shape == (10,)
        assert preds.max() < 3


class TestPruning:
    @pytest.fixture
    def trained(self, rng):
        inputs, labels = make_synthetic_classification(150, 12, 3, rng=rng)
        model = SpikingMLP([12, 24, 3], timesteps=4, rng=rng)
        train(model, inputs, labels, TrainingConfig(epochs=3, learning_rate=0.1), rng=rng)
        return model, inputs, labels

    def test_magnitude_prune_reduces_density(self, trained):
        model, _, _ = trained
        masks = magnitude_prune_masks(model, 0.5)
        kept = sum(int(m.sum()) for m in masks)
        total = sum(m.size for m in masks)
        assert kept <= total * 0.55

    def test_magnitude_prune_zero_fraction_is_noop(self, trained):
        model, _, _ = trained
        masks = magnitude_prune_masks(model, 0.0)
        assert all(np.array_equal(a, b) for a, b in zip(masks, model.masks))

    def test_invalid_fraction_rejected(self, trained):
        model, _, _ = trained
        with pytest.raises(ValueError):
            magnitude_prune_masks(model, 1.0)

    def test_lottery_ticket_rounds_increase_sparsity(self, trained, rng):
        model, inputs, labels = trained
        config = PruningConfig(rounds=2, prune_fraction=0.4, training=TrainingConfig(epochs=2, learning_rate=0.1))
        history = lottery_ticket_prune(model, inputs, labels, config, rng=rng)
        assert len(history) == 3
        sparsities = [h.weight_sparsity for h in history]
        assert sparsities == sorted(sparsities)
        assert sparsities[-1] > 0.5

    def test_weight_sparsity_helper(self, trained):
        model, _, _ = trained
        assert weight_sparsity(model) == pytest.approx(0.0)


class TestPreprocessing:
    @pytest.fixture
    def trained(self, rng):
        inputs, labels = make_synthetic_classification(200, 16, 3, rng=rng)
        model = SpikingMLP([16, 48, 3], timesteps=4, rng=rng)
        train(model, inputs, labels, TrainingConfig(epochs=5, learning_rate=0.1), rng=rng)
        return model, inputs, labels

    def test_apply_low_activity_mask_returns_fraction(self, trained):
        model, inputs, _ = trained
        fraction = apply_low_activity_mask(model, inputs, max_spikes=1)
        assert 0.0 <= fraction <= 1.0

    def test_experiment_structure(self, trained, rng):
        model, inputs, labels = trained
        result = finetuned_preprocessing_experiment(
            model, inputs, labels, inputs, labels, finetune_epochs=(1, 3), rng=rng
        )
        assert set(result.finetuned_accuracy) == {1, 3}
        assert 0.0 <= result.masked_accuracy <= 1.0
        assert 0.0 <= result.original_accuracy <= 1.0

    def test_finetuning_recovers_accuracy(self, trained, rng):
        model, inputs, labels = trained
        result = finetuned_preprocessing_experiment(
            model, inputs, labels, inputs, labels, finetune_epochs=(5,),
            rng=rng,
        )
        # Fine-tuning should recover close to the pre-masking accuracy.
        assert result.finetuned_accuracy[5] >= result.masked_accuracy - 0.05
