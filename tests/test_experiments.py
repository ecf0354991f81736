"""Integration tests of the experiment modules (run at small scale).

These tests check structure and the qualitative claims each table / figure
makes, at a workload scale small enough to keep the suite fast; the
benchmarks regenerate the paper-scale numbers.
"""

import pytest

from repro.api import Session
from repro.experiments import (
    format_fig5,
    format_fig11,
    format_fig12,
    format_fig14,
    format_fig16,
    format_fig17,
    format_fig18,
    format_fig19,
    format_table1,
    format_table2,
    format_table4,
)


def scenario_payload(name, **params):
    return Session().run(name, **params).payload


SCALE = 0.2
NETWORKS = ("vgg16",)
LAYERS = ("V-L8",)


class TestTableExperiments:
    def test_table1_rows(self):
        data = scenario_payload("table1-capabilities")
        assert set(data) == {"SpinalFlow", "PTB", "Stellar", "LoAS"}
        assert data["LoAS"]["weight_sparsity"] is True
        assert data["SpinalFlow"]["weight_sparsity"] is False

    def test_table1_format(self):
        assert "LoAS" in format_table1(scenario_payload("table1-capabilities"))

    def test_table2_measured_close_to_published(self):
        data = scenario_payload("table2-workloads", scale=0.25, seed=0)
        for layer in ("A-L4", "V-L8", "R-L19"):
            stats = data[layer]
            assert stats["measured_spike_sparsity"] == pytest.approx(stats["target_spike_sparsity"], abs=0.03)
            assert stats["measured_silent_fraction"] == pytest.approx(stats["target_silent_fraction"], abs=0.03)
            assert stats["measured_weight_sparsity"] == pytest.approx(stats["target_weight_sparsity"], abs=0.02)

    def test_table2_includes_networks(self):
        data = scenario_payload("table2-workloads", scale=0.25)
        assert "alexnet" in data and "vgg16" in data and "resnet19" in data

    def test_table2_format(self):
        assert "AvSpA" in format_table2(scenario_payload("table2-workloads", scale=0.2))

    def test_table4_totals(self):
        data = scenario_payload("table4-area-power", num_tppes=16, timesteps=4)
        assert data["system_area_mm2"]["total"] == pytest.approx(2.08, abs=0.02)
        assert data["system_power_mw"]["total"] == pytest.approx(188.9, abs=0.5)

    def test_table4_fig15_fractions(self):
        data = scenario_payload("table4-area-power", num_tppes=16, timesteps=4)
        assert data["system_power_fraction"]["global_cache"] == pytest.approx(0.659, abs=0.01)
        assert data["tppe_power_fraction"]["fast_prefix"] == pytest.approx(0.518, abs=0.01)

    def test_table4_format(self):
        text = format_table4(scenario_payload("table4-area-power"))
        assert "Global" in text or "global" in text


class TestMotivationAndAblation:
    def test_fig5_psum_traffic_grows_with_t(self):
        # Full-size layer: the psum matrix must exceed GoSPA's psum buffer
        # for the spill (and hence the T scaling of Figure 5) to appear.
        data = scenario_payload("fig5-psum-traffic", layers=("V-L8",), scale=1.0)
        assert data["V-L8"]["T=4"] > data["V-L8"]["T=1"]

    def test_fig5_format(self):
        assert "psum" in format_fig5(scenario_payload("fig5-psum-traffic", scale=0.3)).lower()

    def test_fig16_area_power_scaling(self):
        data = scenario_payload("fig16-temporal")
        assert data["tppe_area_ratio"]["T=4"] == pytest.approx(1.0)
        assert data["tppe_area_ratio"]["T=16"] == pytest.approx(1.37, abs=0.02)
        assert data["tppe_power_ratio"]["T=16"] == pytest.approx(1.25, abs=0.02)

    def test_fig16_silent_ratio_declines_with_t(self):
        data = scenario_payload("fig16-temporal")
        assert data["silent_ratio_origin"]["T=16"] < data["silent_ratio_origin"]["T=4"]
        assert data["silent_ratio_finetuned"]["T=8"] >= data["silent_ratio_origin"]["T=8"]

    def test_fig16_format(self):
        assert "T=8" in format_fig16(scenario_payload("fig16-temporal"))

    def test_fig17_weight_sparsity_sensitivity(self):
        data = scenario_payload("fig17-scalability", scale=0.15)
        sweep = data["weight_sparsity"]
        assert sweep["B=98.2%"] == pytest.approx(1.0)
        assert sweep["B=25.0%"] < sweep["B=68.4%"] < sweep["B=98.2%"]

    def test_fig17_timestep_scaling_is_mild(self):
        data = scenario_payload("fig17-scalability", scale=0.15)
        assert data["timesteps"]["T=8"] > 0.6

    def test_fig17_has_layer_size_sweep(self):
        data = scenario_payload("fig17-scalability", scale=0.1)
        assert "T-HFF" in data["layer_size"]

    def test_fig17_format(self):
        assert "weight_sparsity" in format_fig17(scenario_payload("fig17-scalability", scale=0.1))


class TestComparisonExperiments:
    def test_fig11_accuracy_recovers(self):
        data = scenario_payload(
            "fig11-preprocessing", num_samples=240, epochs=6, finetune_epochs=(1, 4), seed=0
        )
        assert 0.0 <= data["mask"] <= data["origin"] + 1e-9
        assert data["ft_e4"] >= data["mask"] - 0.05
        assert data["ft_e4"] >= data["origin"] - 0.15

    def test_fig11_format(self):
        assert "Accuracy" in format_fig11(scenario_payload("fig11-preprocessing"))

    def test_fig12_loas_wins(self):
        data = scenario_payload("fig12-overall", networks=NETWORKS, scale=SCALE)
        per = data["vgg16"]
        assert per["LoAS"]["speedup"] > 1.0
        assert per["LoAS-FT"]["speedup"] >= per["LoAS"]["speedup"] * 0.99
        assert per["SparTen-SNN"]["speedup"] == pytest.approx(1.0)

    def test_fig13_structure(self):
        data = scenario_payload("fig13-traffic", networks=NETWORKS, scale=SCALE)
        per = data["vgg16"]
        for accel in ("LoAS", "SparTen-SNN", "GoSPA-SNN", "Gamma-SNN"):
            assert per[accel]["offchip_kb"] > 0
            assert per[accel]["onchip_mb"] > 0
        assert per["LoAS"]["onchip_mb"] < per["SparTen-SNN"]["onchip_mb"]

    def test_fig14_normalised_to_loas(self):
        data = scenario_payload("fig14-breakdown", layers=LAYERS, scale=0.4)
        per = data["V-L8"]
        assert per["LoAS"]["total"] == pytest.approx(1.0)
        assert per["LoAS"]["normalized_miss_rate"] == pytest.approx(1.0)
        for accel in per:
            assert per[accel]["total"] > 0

    def test_fig12_format(self):
        assert "speedup" in format_fig12(scenario_payload("fig12-overall", scale=0.15)).lower()

    def test_fig14_format(self):
        assert "breakdown" in format_fig14(scenario_payload("fig14-breakdown", scale=0.3)).lower()

    def test_fig18_snn_wins_energy(self):
        data = scenario_payload("fig18-snn-vs-ann", network="vgg16", scale=SCALE)
        assert data["LoAS (SNN)"]["normalized_energy"] == pytest.approx(1.0)
        assert data["SparTen-ANN (ANN)"]["normalized_energy"] > 1.0

    def test_fig18_format(self):
        assert "ANN" in format_fig18(scenario_payload("fig18-snn-vs-ann", scale=0.15))

    def test_fig19_loas_beats_dense_baselines(self):
        data = scenario_payload("fig19-dense-baselines", network="vgg16", scale=SCALE)
        assert data["LoAS"]["speedup_vs_ptb"] > 1.0
        assert data["Stellar"]["speedup_vs_ptb"] > 1.0
        assert data["PTB"]["normalized_energy"] > 1.0
        assert data["Stellar"]["normalized_energy"] > 1.0

    def test_fig19_format(self):
        assert "PTB" in format_fig19(scenario_payload("fig19-dense-baselines", scale=0.15))
