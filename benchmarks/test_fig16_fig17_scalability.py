"""Benchmarks regenerating Figures 16 and 17: temporal and workload scalability."""

import pytest

from repro.experiments import format_fig16, format_fig17

from conftest import run_once


def test_fig16_temporal_scalability(benchmark):
    """Figure 16: TPPE cost grows mildly with T; silent neurons shrink with T."""
    data = run_once(benchmark, "fig16-temporal", timesteps=(4, 8, 16), scale=0.5, seed=0)
    assert data["tppe_area_ratio"]["T=16"] == pytest.approx(1.37, abs=0.02)
    assert data["tppe_power_ratio"]["T=16"] == pytest.approx(1.25, abs=0.02)
    assert data["silent_ratio_origin"]["T=8"] < data["silent_ratio_origin"]["T=4"]
    # The preprocessing keeps the silent ratio at T=8 close to the T=4 level.
    assert data["silent_ratio_finetuned"]["T=8"] > data["silent_ratio_origin"]["T=8"]
    print("\n" + format_fig16(data))


def test_fig17_scalability_sweeps(benchmark):
    """Figure 17: sensitivity to weight sparsity is strong, to timesteps mild."""
    data = run_once(benchmark, "fig17-scalability", scale=0.5, seed=1)
    sweep = data["weight_sparsity"]
    assert sweep["B=98.2%"] == pytest.approx(1.0)
    assert sweep["B=25.0%"] < sweep["B=68.4%"] < sweep["B=98.2%"]
    # Performance collapses by a large factor when B becomes dense-ish
    # (the paper reports roughly 88 % loss from 98.2 % to 25 % sparsity).
    assert sweep["B=25.0%"] < 0.5
    # Doubling the timesteps costs well under 2x (the paper reports ~14 %).
    assert data["timesteps"]["T=8"] > 0.6
    assert "T-HFF" in data["layer_size"]
    print("\n" + format_fig17(data))
