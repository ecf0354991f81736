"""Unit tests for the hardware substrates (energy, area, memory, circuits)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.arch.area import (
    DEFAULT_AREA,
    loas_system_cost,
    system_power_breakdown,
    tppe_cost,
    tppe_power_breakdown,
    tppe_scaling,
)
from repro.arch.cache import FiberCache
from repro.arch.crossbar import Crossbar
from repro.arch.energy import EnergyAccount, EnergyModel
from repro.arch.memory import CacheSimulator, DRAMModel, SRAMModel, TrafficCounter
from repro.arch.prefix_sum import FastPrefixSum, LaggyPrefixSum, exclusive_prefix_sum
from repro.arch.systolic import SystolicArray


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

    def test_merged_with(self):
        merged = EnergyAccount({"dram": 10.0}).merged_with(EnergyAccount({"dram": 5.0, "lif": 1.0}))
        assert merged.entries == {"dram": 15.0, "lif": 1.0}

    def test_total_microjoules(self):
        account = EnergyAccount({"dram": 2e6})
        assert account.total_microjoules() == pytest.approx(2.0)

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

    def test_merged_with(self):
        merged = TrafficCounter({"a": 1.0}).merged_with(TrafficCounter({"a": 2.0, "b": 3.0}))
        assert merged.as_dict() == {"a": 3.0, "b": 3.0}


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


class TestCacheSimulator:
    def test_hit_after_install(self):
        cache = CacheSimulator(capacity_bytes=1024, num_sets=1)
        assert cache.access("a", 100) is False
        assert cache.access("a", 100) is True
        assert cache.hits == 1 and cache.misses == 1

    def test_lru_eviction(self):
        cache = CacheSimulator(capacity_bytes=200, num_sets=1)
        cache.access("a", 100)
        cache.access("b", 100)
        cache.access("c", 100)  # evicts "a"
        assert cache.access("b", 100) is True
        assert cache.access("a", 100) is False

    def test_oversized_blocks_are_streamed(self):
        cache = CacheSimulator(capacity_bytes=100, num_sets=1)
        cache.access("big", 1000)
        assert cache.access("big", 1000) is False  # never resident

    def test_miss_rate(self):
        cache = CacheSimulator(capacity_bytes=1024, num_sets=2)
        cache.access("a", 10)
        cache.access("a", 10)
        cache.access("b", 10)
        assert cache.miss_rate == pytest.approx(2 / 3)

    def test_reset_statistics(self):
        cache = CacheSimulator(capacity_bytes=1024)
        cache.access("a", 10)
        cache.reset_statistics()
        assert cache.hits == 0 and cache.misses == 0
        assert cache.access("a", 10) is True  # contents preserved

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            CacheSimulator(0)


class TestFiberCache:
    def test_miss_then_hit_traffic(self):
        cache = FiberCache(capacity_bytes=4096, num_banks=1)
        cache.access_fiber("A", 0, 100)
        cache.access_fiber("A", 0, 100)
        assert cache.sram_traffic.total() == 200
        assert cache.dram_traffic.total() == 100
        assert cache.hits == 1 and cache.misses == 1

    def test_write_back(self):
        cache = FiberCache()
        cache.write_back(64)
        assert cache.dram_traffic.get("output") == 64
        assert cache.sram_traffic.get("output") == 64

    def test_category_override(self):
        cache = FiberCache()
        cache.access_fiber("A", 0, 10, category="format")
        assert cache.sram_traffic.get("format") == 10


class TestPrefixSumCircuits:
    def test_exclusive_prefix_sum_example(self):
        bitmask = np.array([1, 0, 1, 1, 0], dtype=bool)
        assert exclusive_prefix_sum(bitmask).tolist() == [0, 1, 1, 2, 3]

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.booleans(), min_size=1, max_size=200))
    def test_offsets_match_cumsum(self, bits):
        bitmask = np.array(bits, dtype=bool)
        fast = FastPrefixSum().offsets(bitmask)
        laggy = LaggyPrefixSum().offsets(bitmask)
        expected = np.concatenate(([0], np.cumsum(bitmask)[:-1]))
        assert np.array_equal(fast, expected)
        assert np.array_equal(laggy, expected)

    def test_fast_cycles(self):
        fast = FastPrefixSum(width=128, latency_cycles=1)
        assert fast.invocations(128) == 1
        assert fast.invocations(129) == 2
        assert fast.cycles(512) == 4

    def test_laggy_latency_matches_paper(self):
        laggy = LaggyPrefixSum(width=128, num_adders=16)
        assert laggy.latency_cycles == 8
        assert laggy.cycles(128) == 8
        assert laggy.cycles(256) == 16

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            FastPrefixSum().invocations(-1)
        with pytest.raises(ValueError):
            LaggyPrefixSum().invocations(-1)


class TestCrossbar:
    def test_unicast_energy(self):
        xbar = Crossbar(energy_per_byte=0.2)
        assert xbar.unicast_energy(100) == pytest.approx(20.0)

    def test_broadcast_energy_between_unicast_and_full(self):
        xbar = Crossbar(num_outputs=16, energy_per_byte=0.2)
        unicast = xbar.unicast_energy(100)
        broadcast = xbar.broadcast_energy(100)
        assert unicast < broadcast < unicast * 16

    def test_invalid_fanout(self):
        with pytest.raises(ValueError):
            Crossbar().broadcast_energy(10, fanout=0)

    def test_cycles(self):
        assert Crossbar(bytes_per_cycle=256).cycles_for_bytes(512) == pytest.approx(2.0)


class TestSystolicArray:
    def test_dense_gemm_cycles_scale_with_size(self):
        array = SystolicArray(rows=16, cols=4)
        small = array.dense_gemm(16, 128, 64)
        big = array.dense_gemm(32, 128, 64)
        assert big.cycles > small.cycles

    def test_spike_skipping_reduces_cycles(self):
        array = SystolicArray(rows=16, cols=4)
        dense = array.dense_gemm(16, 256, 64, activation_density=0.2, skip_zero_activations=False)
        skipped = array.dense_gemm(16, 256, 64, activation_density=0.2, skip_zero_activations=True)
        assert skipped.cycles < dense.cycles

    def test_utilization_bounded(self):
        estimate = SystolicArray().dense_gemm(8, 64, 8)
        assert 0.0 < estimate.utilization <= 1.0

    def test_invalid_dimensions_rejected(self):
        with pytest.raises(ValueError):
            SystolicArray().dense_gemm(0, 1, 1)
        with pytest.raises(ValueError):
            SystolicArray().dense_gemm(1, 1, 1, activation_density=1.5)

    def test_temporal_copies_multiply_cycles(self):
        array = SystolicArray()
        one = array.dense_gemm(16, 128, 64, temporal_copies=1)
        four = array.dense_gemm(16, 128, 64, temporal_copies=4)
        assert four.cycles == pytest.approx(one.cycles * 4)
