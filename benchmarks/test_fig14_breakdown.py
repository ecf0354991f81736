"""Benchmark regenerating Figure 14: off-chip traffic breakdown per layer."""

import pytest

from repro.experiments import format_fig14

from conftest import run_once


def test_fig14_traffic_breakdown(benchmark):
    """Figure 14: per-category off-chip traffic on A-L4, V-L8 and R-L19."""
    data = run_once(
        benchmark, "fig14-breakdown", layers=("A-L4", "V-L8", "R-L19"), scale=1.0, seed=1
    )
    for layer, per_accel in data.items():
        assert per_accel["LoAS"]["total"] == pytest.approx(1.0)
        # SparTen-SNN fetches the dense spike trains, so its input traffic
        # exceeds LoAS's packed fetch on every layer.
        assert per_accel["SparTen-SNN"]["input"] > per_accel["LoAS"]["input"], layer
        # GoSPA's per-spike CSR coordinates dominate its format traffic.
        assert per_accel["GoSPA-SNN"]["format"] > 0, layer
        # Only the outer-product baseline spills partial sums off chip.
        assert per_accel["GoSPA-SNN"]["psum"] >= per_accel["LoAS"]["psum"], layer
        assert per_accel["LoAS"]["psum"] == 0.0
    print("\n" + format_fig14(data))
