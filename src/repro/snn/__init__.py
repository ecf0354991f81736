"""Spiking-neural-network substrate: neurons, layers, workloads and training.

This subpackage provides everything the accelerator models need from the
algorithm side of the paper:

* LIF neuron dynamics and the functional spMspM + LIF reference
  (:mod:`repro.snn.lif`, :mod:`repro.snn.layers`),
* the evaluated network shapes and Table II workload statistics
  (:mod:`repro.snn.network`, :mod:`repro.snn.workloads`), and
* a toy surrogate-gradient trainer, LTH pruner and the fine-tuned
  silent-neuron preprocessing (:mod:`repro.snn.training`,
  :mod:`repro.snn.pruning`, :mod:`repro.snn.preprocessing`).
"""

from .layers import LayerOutput, SNNLinearLayer, spmspm_reference
from .lif import LIFParameters, lif_fire, lif_step
from .network import (
    LayerShape,
    REPRESENTATIVE_LAYERS,
    alexnet_layers,
    resnet19_layers,
    vgg16_layers,
)
from .preprocessing import (
    PreprocessingResult,
    apply_low_activity_mask,
    finetuned_preprocessing_experiment,
)
from .pruning import (
    PruningConfig,
    PruningRoundResult,
    lottery_ticket_prune,
    magnitude_prune_masks,
    weight_sparsity,
)
from .training import (
    SpikingMLP,
    TrainingConfig,
    evaluate_accuracy,
    make_synthetic_classification,
    train,
)
from .workloads import (
    LayerWorkload,
    NetworkWorkload,
    SparsityProfile,
    TABLE2_LAYER_PROFILES,
    TABLE2_NETWORK_PROFILES,
    get_layer_workload,
    get_network_workload,
    list_layer_names,
    list_network_names,
)

__all__ = [
    "LIFParameters",
    "LayerOutput",
    "LayerShape",
    "LayerWorkload",
    "NetworkWorkload",
    "PreprocessingResult",
    "PruningConfig",
    "PruningRoundResult",
    "REPRESENTATIVE_LAYERS",
    "SNNLinearLayer",
    "SparsityProfile",
    "SpikingMLP",
    "TABLE2_LAYER_PROFILES",
    "TABLE2_NETWORK_PROFILES",
    "TrainingConfig",
    "alexnet_layers",
    "apply_low_activity_mask",
    "evaluate_accuracy",
    "finetuned_preprocessing_experiment",
    "get_layer_workload",
    "get_network_workload",
    "lif_fire",
    "lif_step",
    "list_layer_names",
    "list_network_names",
    "lottery_ticket_prune",
    "magnitude_prune_masks",
    "make_synthetic_classification",
    "resnet19_layers",
    "spmspm_reference",
    "train",
    "vgg16_layers",
    "weight_sparsity",
]
