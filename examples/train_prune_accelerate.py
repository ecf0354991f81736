"""End-to-end algorithm/hardware pipeline on a toy task.

Run with::

    python examples/train_prune_accelerate.py

The script walks the full pipeline the paper assumes on the algorithm side,
at laptop scale:

1. train a small spiking MLP with surrogate-gradient BPTT on synthetic data,
2. prune it with lottery-ticket iterative magnitude pruning,
3. apply the fine-tuned silent-neuron preprocessing (Figure 11),
4. export the resulting dual-sparse layer (spikes + pruned weights) and
   simulate it on LoAS versus SparTen-SNN.
"""

from __future__ import annotations

import numpy as np

from repro import LoASSimulator
from repro.baselines import SparTenSNN
from repro.engine import LayerEvaluation
from repro.metrics import format_table
from repro.snn.preprocessing import finetuned_preprocessing_experiment
from repro.snn.pruning import PruningConfig, lottery_ticket_prune, weight_sparsity
from repro.snn.training import SpikingMLP, TrainingConfig, make_synthetic_classification
from repro.sparse.matrix import silent_neuron_fraction


def main() -> None:
    rng = np.random.default_rng(7)
    inputs, labels = make_synthetic_classification(500, 48, 4, rng=rng)
    split = 400
    model = SpikingMLP([48, 96, 4], timesteps=4, rng=rng)

    print("Step 1-2: train + lottery-ticket pruning")
    history = lottery_ticket_prune(
        model,
        inputs[:split],
        labels[:split],
        PruningConfig(rounds=3, prune_fraction=0.5, training=TrainingConfig(epochs=6, learning_rate=0.1)),
        rng=rng,
    )
    rows = [[h.round_index, f"{h.weight_sparsity:.1%}", f"{h.accuracy:.1%}"] for h in history]
    print(format_table(["Round", "Weight sparsity", "Train accuracy"], rows))
    print(f"Final weight sparsity: {weight_sparsity(model):.1%}\n")

    print("Step 3: fine-tuned silent-neuron preprocessing (Figure 11 style)")
    outcome = finetuned_preprocessing_experiment(
        model, inputs[:split], labels[:split], inputs[split:], labels[split:],
        finetune_epochs=(1, 5), training=TrainingConfig(epochs=1, learning_rate=0.05), rng=rng,
    )
    print(f"  accuracy original={outcome.original_accuracy:.1%} "
          f"masked={outcome.masked_accuracy:.1%} "
          f"fine-tuned(5)={outcome.finetuned_accuracy[5]:.1%} "
          f"(masked {outcome.masked_fraction:.1%} of hidden neurons)\n")

    print("Step 4: export the hidden layer as a dual-sparse workload and accelerate it")
    # Input spikes of the hidden layer: the input currents presented over T
    # timesteps, thresholded by the first LIF population.
    logits, trace = model.forward(inputs[split:], record=True)
    hidden_spikes = np.stack(trace["spikes"][0], axis=-1).astype(np.uint8)  # (M, hidden, T)
    pruned_weights = np.round(model.effective_weights()[1] * 32).astype(np.int32)  # (hidden, classes)
    print(f"  spike tensor {hidden_spikes.shape}, silent neurons "
          f"{silent_neuron_fraction(hidden_spikes):.1%}, weight sparsity "
          f"{1.0 - np.count_nonzero(pruned_weights) / pruned_weights.size:.1%}")

    evaluation = LayerEvaluation(hidden_spikes, pruned_weights)
    loas = LoASSimulator().simulate_layer(evaluation, name="toy-hidden")
    sparten = SparTenSNN().simulate_layer(evaluation, name="toy-hidden")
    rows = [
        ["LoAS", f"{loas.cycles:,.0f}", f"{loas.energy_pj/1e3:.1f}"],
        ["SparTen-SNN", f"{sparten.cycles:,.0f}", f"{sparten.energy_pj/1e3:.1f}"],
    ]
    print(format_table(["Accelerator", "Cycles", "Energy (nJ)"], rows))
    print(f"  LoAS speedup over SparTen-SNN: {loas.speedup_over(sparten):.2f}x")


if __name__ == "__main__":
    main()
