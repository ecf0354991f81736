"""Figures 11, 18 and 19: preprocessing accuracy, SNN-vs-ANN, dense baselines.

* Figure 11 -- accuracy trajectory of the fine-tuned preprocessing: train a
  (toy) SNN, mask the low-activity neurons, fine-tune for 1 / 5 / 10 epochs.
* Figure 18 -- dual-sparse SNN on LoAS versus the dual-sparse ANN version of
  the same workload on SparTen and Gamma (energy and memory traffic).
* Figure 19 -- LoAS on the dual-sparse workload versus the dense SNN
  accelerators PTB and Stellar.

Figures 18 and 19 are declarative sweep scenarios whose shapers only
normalise: Figure 18's plan carries the LoAS-FT cell and the SparTen-ANN /
Gamma-ANN cells, which the executor walks as a second partition of ANN
layers (one shared ANN evaluation per layer, cached like any other).
Figure 11 is a bespoke (training) scenario.
"""

from __future__ import annotations

import numpy as np

from ..metrics.report import format_series, format_table
from ..runner import (
    Scenario,
    SimulatorSpec,
    SweepPlan,
    WorkloadSpec,
    register_scenario,
)
from ..snn.preprocessing import finetuned_preprocessing_experiment
from ..snn.training import (
    SpikingMLP,
    TrainingConfig,
    make_synthetic_classification,
    train,
)
from .sweeps import LOAS_FINETUNED

__all__ = [
    "format_fig11",
    "format_fig18",
    "format_fig19",
]


def _fig11_preprocessing(
    num_samples: int = 400,
    num_features: int = 32,
    num_classes: int = 4,
    hidden: int = 64,
    epochs: int = 12,
    finetune_epochs: tuple[int, ...] = (1, 5, 10),
    seed: int = 0,
) -> dict[str, float]:
    """Accuracy before masking, after masking and after fine-tuning (Figure 11)."""
    rng = np.random.default_rng(seed)
    inputs, labels = make_synthetic_classification(num_samples, num_features, num_classes, rng=rng)
    split = int(0.8 * num_samples)
    train_x, train_y = inputs[:split], labels[:split]
    test_x, test_y = inputs[split:], labels[split:]

    model = SpikingMLP([num_features, hidden, num_classes], timesteps=4, rng=rng)
    config = TrainingConfig(epochs=epochs, learning_rate=0.05)
    train(model, train_x, train_y, config, rng=rng)

    outcome = finetuned_preprocessing_experiment(
        model,
        train_x,
        train_y,
        test_x,
        test_y,
        finetune_epochs=finetune_epochs,
        training=TrainingConfig(epochs=1, learning_rate=0.05),
        rng=rng,
    )
    result = {
        "origin": outcome.original_accuracy,
        "mask": outcome.masked_accuracy,
        "masked_fraction": outcome.masked_fraction,
    }
    for epoch, accuracy in outcome.finetuned_accuracy.items():
        result[f"ft_e{epoch}"] = accuracy
    return result


register_scenario(
    Scenario(
        name="fig11-preprocessing",
        description="Figure 11: fine-tuned preprocessing accuracy trajectory",
        run=_fig11_preprocessing,
        defaults=(("seed", 0),),
    )
)


def format_fig11(payload) -> str:
    """ASCII rendition of a ``fig11-preprocessing`` payload."""
    rows = [[key, value] for key, value in payload.items()]
    return format_table(["Stage", "Accuracy"], rows, title="Figure 11: fine-tuned preprocessing accuracy")


def fig18_plan(
    network: str = "vgg16",
    scale: float = 1.0,
    seed: int = 1,
) -> SweepPlan:
    """LoAS-FT and the ANN baselines over one network: an SNN and an ANN partition."""
    return SweepPlan.product(
        "fig18",
        (WorkloadSpec("network", network, scale=scale),),
        (LOAS_FINETUNED, SimulatorSpec("SparTen-ANN"), SimulatorSpec("Gamma-ANN")),
        seeds=(seed,),
    )


def _shape_fig18(results, **_) -> dict[str, dict[str, float]]:
    """Dual-sparse SNN (LoAS) versus dual-sparse ANN (SparTen / Gamma), Figure 18."""
    (_, loas), *baselines = results
    everything = {
        "LoAS (SNN)": loas,
        **{f"{cell.simulator.label} (ANN)": result for cell, result in baselines},
    }
    reference_energy = loas.energy_pj or 1.0
    reference_dram = loas.dram_bytes or 1.0
    reference_sram = loas.sram_bytes or 1.0
    return {
        name: {
            "normalized_energy": result.energy_pj / reference_energy,
            "normalized_dram": result.dram_bytes / reference_dram,
            "normalized_sram": result.sram_bytes / reference_sram,
            "data_movement_fraction": result.energy.data_movement_fraction(),
        }
        for name, result in everything.items()
    }


register_scenario(
    Scenario(
        name="fig18-snn-vs-ann",
        description="Figure 18: dual-sparse SNN (LoAS) vs dual-sparse ANN baselines",
        build=fig18_plan,
        shape=_shape_fig18,
        defaults=(("network", "vgg16"), ("scale", 1.0), ("seed", 1)),
    )
)


def format_fig18(payload) -> str:
    """ASCII rendition of a ``fig18-snn-vs-ann`` payload."""
    return format_series(
        payload,
        title="Figure 18: dual-sparse SNN vs dual-sparse ANN (normalised to LoAS)",
    )


def fig19_plan(
    network: str = "vgg16",
    scale: float = 1.0,
    seed: int = 1,
) -> SweepPlan:
    """LoAS and the dense SNN accelerators over one network -- as data."""
    return SweepPlan.product(
        "fig19",
        (WorkloadSpec("network", network, scale=scale),),
        (SimulatorSpec("LoAS"), SimulatorSpec("PTB"), SimulatorSpec("Stellar")),
        seeds=(seed,),
    )


def _shape_fig19(results, network: str = "vgg16", **_) -> dict[str, dict[str, float]]:
    per_accel = results.nested()[network]
    loas, ptb = per_accel["LoAS"], per_accel["PTB"]
    return {
        name: {
            "speedup_vs_ptb": ptb.cycles / result.cycles,
            "normalized_energy": result.energy_pj / loas.energy_pj,
            "normalized_dram": result.dram_bytes / loas.dram_bytes,
            "normalized_sram": result.sram_bytes / loas.sram_bytes,
        }
        for name, result in per_accel.items()
    }


register_scenario(
    Scenario(
        name="fig19-dense-baselines",
        description="Figure 19: LoAS vs the dense SNN accelerators PTB and Stellar",
        build=fig19_plan,
        shape=_shape_fig19,
        defaults=(("network", "vgg16"), ("scale", 1.0), ("seed", 1)),
    )
)


def format_fig19(payload) -> str:
    """ASCII rendition of a ``fig19-dense-baselines`` payload."""
    return format_series(
        payload,
        title="Figure 19: LoAS vs dense SNN accelerators (normalised to LoAS)",
    )
