"""Unit tests for the hardware substrates (energy, area, memory)."""

import pytest

from repro.arch.area import (
    DEFAULT_AREA,
    loas_system_cost,
    system_power_breakdown,
    tppe_cost,
    tppe_power_breakdown,
    tppe_scaling,
)
from repro.arch.energy import EnergyAccount, EnergyModel
from repro.arch.memory import DRAMModel, SRAMModel, TrafficCounter


class TestEnergyAccount:
    def test_add_and_total(self):
        account = EnergyAccount()
        account.add("dram", 100.0)
        account.add("sram", 50.0)
        account.add("dram", 25.0)
        assert account.total() == pytest.approx(175.0)
        assert account.entries["dram"] == pytest.approx(125.0)

    def test_negative_energy_rejected(self):
        with pytest.raises(ValueError):
            EnergyAccount().add("dram", -1.0)

    def test_fraction(self):
        account = EnergyAccount({"dram": 75.0, "compute": 25.0})
        assert account.fraction("dram") == pytest.approx(0.75)
        assert account.fraction("missing") == 0.0

    def test_data_movement_fraction(self):
        account = EnergyAccount({"dram": 40.0, "sram": 20.0, "compute": 40.0})
        assert account.data_movement_fraction() == pytest.approx(0.6)

    def test_empty_total_is_zero(self):
        assert EnergyAccount().total() == 0.0
        assert EnergyAccount().data_movement_fraction() == 0.0

    def test_energy_model_orderings(self):
        model = EnergyModel()
        assert model.dram_per_byte > model.sram_per_byte > model.buffer_per_byte
        assert model.fast_prefix_sum > model.laggy_prefix_sum
        assert model.multiply_accumulate > model.accumulate


class TestAreaModel:
    def test_tppe_total_matches_table4(self):
        cost = tppe_cost(4)
        assert cost.area_mm2 == pytest.approx(0.06, abs=0.01)
        assert cost.power_mw == pytest.approx(2.82, abs=0.01)

    def test_tppe_scaling_matches_fig16(self):
        area_ratio, power_ratio = tppe_scaling(16)
        assert area_ratio == pytest.approx(1.37, abs=0.02)
        assert power_ratio == pytest.approx(1.25, abs=0.02)

    def test_tppe_scaling_monotone(self):
        ratios = [tppe_scaling(t)[0] for t in (4, 8, 16, 32)]
        assert ratios == sorted(ratios)

    def test_tppe_invalid_timesteps(self):
        with pytest.raises(ValueError):
            tppe_cost(0)

    def test_system_total_matches_table4(self):
        total = loas_system_cost()["total"]
        assert total.area_mm2 == pytest.approx(2.08, abs=0.02)
        assert total.power_mw == pytest.approx(188.9, abs=0.5)

    def test_global_cache_dominates_system_power(self):
        breakdown = system_power_breakdown()
        assert max(breakdown, key=breakdown.get) == "global_cache"
        assert breakdown["global_cache"] == pytest.approx(0.659, abs=0.01)

    def test_fast_prefix_dominates_tppe_power(self):
        breakdown = tppe_power_breakdown()
        assert max(breakdown, key=breakdown.get) == "fast_prefix"
        assert breakdown["fast_prefix"] == pytest.approx(0.518, abs=0.01)

    def test_breakdown_fractions_sum_to_one(self):
        assert sum(system_power_breakdown().values()) == pytest.approx(1.0)
        assert sum(tppe_power_breakdown().values()) == pytest.approx(1.0)

    def test_laggy_prefix_much_cheaper_than_fast(self):
        tppe = DEFAULT_AREA.tppe_table()
        assert tppe["laggy_prefix"].power_mw < tppe["fast_prefix"].power_mw / 3
        assert tppe["laggy_prefix"].area_mm2 < tppe["fast_prefix"].area_mm2 / 3

    def test_component_cost_arithmetic(self):
        system = DEFAULT_AREA.system_table()
        total = system["plifs"] + system["others"]
        assert total.area_mm2 == pytest.approx(0.32)
        scaled = system["plifs"].scaled(2)
        assert scaled.power_mw == pytest.approx(2.4)


class TestTrafficCounter:
    def test_add_and_total(self):
        counter = TrafficCounter()
        counter.add("input", 10)
        counter.add("weight", 5)
        counter.add("input", 2)
        assert counter.total() == 17
        assert counter.get("input") == 12
        assert counter.get("missing") == 0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            TrafficCounter().add("input", -1)


class TestDRAMAndSRAM:
    def test_dram_bytes_per_cycle(self):
        dram = DRAMModel(bandwidth_gbps=128.0, clock_ghz=0.8)
        assert dram.bytes_per_cycle == pytest.approx(160.0)

    def test_dram_cycles_for_bytes(self):
        dram = DRAMModel(bandwidth_gbps=128.0, clock_ghz=0.8)
        assert dram.cycles_for_bytes(1600) == pytest.approx(10.0)

    def test_dram_negative_bytes_rejected(self):
        with pytest.raises(ValueError):
            DRAMModel().cycles_for_bytes(-1)

    def test_sram_bandwidth(self):
        sram = SRAMModel(num_banks=16, bytes_per_bank_per_cycle=16)
        assert sram.bytes_per_cycle == 256
        assert sram.cycles_for_bytes(2560) == pytest.approx(10.0)

    def test_sram_fits(self):
        sram = SRAMModel(capacity_bytes=1024)
        assert sram.fits(1000)
        assert not sram.fits(2000)
