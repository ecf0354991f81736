"""Benchmark regenerating Figure 5: GoSPA psum off-chip traffic, T=1 vs T=4."""

from repro.experiments import format_fig5

from conftest import run_once


def test_fig5_psum_traffic(benchmark):
    """Four timesteps induce roughly 4x the partial-sum off-chip traffic."""
    data = run_once(benchmark, "fig5-psum-traffic", layers=("A-L4", "V-L8", "R-L19"), scale=1.0)
    for layer, series in data.items():
        assert series["T=4"] > series["T=1"], layer
        if series["T=1"] > 0:
            assert series["T=4"] / series["T=1"] >= 3.0, layer
    print("\n" + format_fig5(data))
