"""Benchmarks regenerating Figures 12 and 13: overall speedup, energy, traffic.

Both figures come from the same accelerator-by-network sweep; each benchmark
runs the sweep once at paper scale and checks the headline orderings: LoAS is
the fastest and most energy-efficient design on every network, the fine-tuned
preprocessing helps further, and LoAS moves less data on and off chip than
the inner-product baseline.
"""

from repro.experiments import format_fig12, format_fig13

from conftest import run_once

NETWORKS = ("alexnet", "vgg16", "resnet19")
BASELINES = ("SparTen-SNN", "GoSPA-SNN", "Gamma-SNN")


def test_fig12_speedup_and_energy(benchmark):
    """Figure 12: LoAS beats every dual-sparse SNN baseline on every network."""
    data = run_once(benchmark, "fig12-overall", networks=NETWORKS, scale=1.0, seed=1)
    for network, per_accel in data.items():
        loas = per_accel["LoAS"]
        loas_ft = per_accel["LoAS-FT"]
        for baseline in BASELINES:
            base = per_accel[baseline]
            assert loas["cycles"] < base["cycles"], (network, baseline)
            assert loas["energy_pj"] < base["energy_pj"], (network, baseline)
        # Speedups over SparTen-SNN land in the paper's ballpark (several x).
        assert 2.0 < loas["speedup"] < 12.0, network
        # The fine-tuned preprocessing helps (paper: ~20 % on average).
        assert loas_ft["speedup"] >= loas["speedup"]
    print("\n" + format_fig12(data))


def test_fig13_memory_traffic(benchmark):
    """Figure 13: LoAS has the least on-chip traffic; Gamma-SNN the most."""
    data = run_once(benchmark, "fig13-traffic", networks=NETWORKS, scale=0.5, seed=1)
    for network, per_accel in data.items():
        loas = per_accel["LoAS"]
        for baseline in BASELINES:
            assert loas["onchip_mb"] < per_accel[baseline]["onchip_mb"], (network, baseline)
        assert loas["offchip_kb"] < per_accel["SparTen-SNN"]["offchip_kb"], network
        # Gustavson suffers the most on-chip traffic once timesteps multiply
        # the partial-row working set (Section VI-A).
        assert per_accel["Gamma-SNN"]["onchip_mb"] > per_accel["SparTen-SNN"]["onchip_mb"], network
    print("\n" + format_fig13(data))
