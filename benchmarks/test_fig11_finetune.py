"""Benchmark regenerating Figure 11: fine-tuned preprocessing accuracy."""

from repro.experiments import format_fig11

from conftest import run_once


def test_fig11_finetuned_preprocessing(benchmark):
    """Masking costs accuracy; a few fine-tuning epochs recover it."""
    data = run_once(
        benchmark,
        "fig11-preprocessing",
        num_samples=400,
        num_features=32,
        num_classes=4,
        hidden=64,
        epochs=12,
        finetune_epochs=(1, 5, 10),
        seed=0,
    )
    assert data["mask"] <= data["origin"] + 1e-9
    assert data["ft_e10"] >= data["mask"] - 0.02
    assert data["ft_e10"] >= data["origin"] - 0.10
    assert data["ft_e10"] >= data["ft_e1"] - 0.05
    print("\n" + format_fig11(data))
