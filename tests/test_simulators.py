"""Tests for the LoAS simulator, the baselines and their relative behaviour.

The paper's headline claims are asserted as *shape* properties on moderately
sized synthetic layers: who wins, in which direction each traffic category
moves, and how quantities scale with the number of timesteps.
"""

import numpy as np
import pytest

from repro.baselines import (
    AnnLayerWorkload,
    GammaANN,
    GammaSNN,
    GoSPASNN,
    PTBSimulator,
    SparTenANN,
    SparTenSNN,
    StellarSimulator,
    TABLE1_CAPABILITIES,
    generate_ann_activations,
)
from repro.baselines.common import (
    bitmask_fiber_bytes,
    coordinate_bits,
    csr_bytes,
    streaming_refetch_factor,
)
from repro.core import LoASConfig, LoASSimulator
from repro.core.base import SimulatorBase
from repro.engine import AnnLayerEvaluation, LayerEvaluation, default_cache
from repro.metrics.results import SimulationResult, aggregate_results
from repro.runner import SIMULATOR_FACTORIES
from repro.snn.network import LayerShape
from repro.snn.workloads import LayerWorkload, SparsityProfile
from repro.sparse.matrix import sparsity

from test_wave_max_sum import grouped_wave_cycles


ALL_SNN_SIMULATORS = [LoASSimulator, SparTenSNN, GoSPASNN, GammaSNN, PTBSimulator, StellarSimulator]


def assert_malformed_layer_rejected(simulator, workload_cls, first_operand):
    """``simulator`` refuses a layer whose generator yields ``first_operand``.

    The shapes are checked where the workload cache builds the evaluation,
    so the cost model never sees them, and a failed generation leaves no
    entry behind: a second attempt is refused again instead of hanging on
    or reading a half-made entry.
    """

    class Malformed(workload_cls):
        def generate(self, rng=None, finetuned=False):
            return first_operand, np.zeros((3, 2))

    # A fingerprint no other test generates, so no cached entry answers it.
    workload = Malformed(
        LayerShape("malformed", m=2, k=3, n=2, t=7), SparsityProfile(0.5, 0.25, 0.125, 0.75)
    )
    for _ in range(2):
        with pytest.raises(ValueError):
            simulator.simulate_workload(workload, rng=np.random.default_rng(0))
    assert not default_cache().holds(workload, np.random.default_rng(0))


class TestCommonHelpers:
    def test_coordinate_bits(self):
        assert coordinate_bits(1) == 1
        assert coordinate_bits(128) == 7
        assert coordinate_bits(129) == 8

    def test_csr_bytes(self):
        assert csr_bytes(10, 128, 4, value_bits=8, pointer_bits=32) == pytest.approx((10 * 15 + 5 * 32) / 8)

    def test_bitmask_fiber_bytes(self):
        assert bitmask_fiber_bytes(128, 10, 4, 8, 32) == pytest.approx((4 * 160 + 80) / 8)

    def test_streaming_refetch_factor_fits(self):
        assert streaming_refetch_factor(100, 0, 1000, passes=10) == 1.0

    def test_streaming_refetch_factor_no_fit(self):
        assert streaming_refetch_factor(1000, 1000, 1000, passes=4) == pytest.approx(4.0)

    def test_streaming_refetch_factor_partial(self):
        factor = streaming_refetch_factor(1000, 500, 1000, passes=3)
        assert 1.0 < factor < 3.0

    def test_streaming_refetch_zero_byte_operand(self):
        # A zero-byte operand can never need refetching, whatever the
        # capacity pressure.
        assert streaming_refetch_factor(0, 1000, 100, passes=10) == 1.0
        assert streaming_refetch_factor(-1.0, 1000, 100, passes=10) == 1.0

    def test_streaming_refetch_single_pass_never_refetches(self):
        assert streaming_refetch_factor(1000, 1000, 100, passes=1) == 1.0
        assert streaming_refetch_factor(1000, 1000, 100, passes=0) == 1.0

    def test_streaming_refetch_zero_leftover_capacity(self):
        # Residents consume the whole SRAM: every pass re-fetches the full
        # operand, so the factor equals the pass count exactly.
        assert streaming_refetch_factor(500, 1000, 1000, passes=7) == pytest.approx(7.0)
        # Over-subscribed residents behave the same (leftover clamps at 0).
        assert streaming_refetch_factor(500, 2000, 1000, passes=7) == pytest.approx(7.0)

    def test_streaming_refetch_exact_fit_boundary(self):
        # The operand exactly fills the leftover capacity: still one fetch.
        assert streaming_refetch_factor(500, 500, 1000, passes=4) == 1.0
        # One byte over the leftover starts interpolating above 1.
        assert streaming_refetch_factor(501, 500, 1000, passes=4) > 1.0

    def test_layer_statistics(self, small_layer):
        spikes, weights = small_layer
        stats = LayerEvaluation(spikes, weights).statistics
        assert stats.nnz_spikes == int(spikes.sum())
        assert stats.nnz_weights == int(np.count_nonzero(weights))
        assert stats.matches.shape == (8, 24)
        assert stats.true_acs_per_t.shape == (4,)
        assert stats.true_acs.sum() == pytest.approx(stats.true_acs_per_t.sum())

    def test_statistics_reject_bad_shapes(self):
        with pytest.raises(ValueError):
            LayerEvaluation(np.zeros((2, 2)), np.zeros((2, 2)))
        with pytest.raises(ValueError):
            LayerEvaluation(np.zeros((2, 3, 2)), np.zeros((2, 2)))
        with pytest.raises(ValueError):
            AnnLayerEvaluation(np.zeros((2, 2, 2)), np.zeros((2, 2)))


class TestSimulatorBase:
    def test_simulate_layer_is_abstract(self, small_layer):
        with pytest.raises(NotImplementedError):
            SimulatorBase().simulate_layer(LayerEvaluation(*small_layer))

    @pytest.mark.parametrize("key", sorted(SIMULATOR_FACTORIES))
    def test_simulate_layer_rejects_raw_tensors(self, key, small_layer):
        # A cost model takes one evaluation; the old (spikes, weights) call
        # fails at the boundary instead of deep inside the model.
        spikes, weights = small_layer
        with pytest.raises(TypeError):
            SIMULATOR_FACTORIES[key]().simulate_layer(spikes, weights)

    def test_roofline_combines_compute_and_memory(self):
        base = SimulatorBase(LoASConfig())
        cycles, memory = base.roofline_cycles(100.0, 160000.0, 0.0)
        assert memory == pytest.approx(1000.0)
        assert cycles == pytest.approx(1000.0)
        cycles, _ = base.roofline_cycles(10000.0, 160.0, 0.0)
        assert cycles == pytest.approx(10000.0)

    def test_grouped_wave_cycles_captures_imbalance(self):
        task_cycles = np.array([[1.0, 1.0], [9.0, 1.0]])
        assert grouped_wave_cycles(task_cycles, group_size=2) == pytest.approx(10.0)
        assert grouped_wave_cycles(task_cycles, group_size=1) == pytest.approx(12.0)

    def test_grouped_wave_cycles_validation(self):
        with pytest.raises(ValueError):
            grouped_wave_cycles(np.zeros(3), 2)
        with pytest.raises(ValueError):
            grouped_wave_cycles(np.zeros((2, 2)), 0)

    def test_roofline_zero_byte_transfers_cost_nothing(self):
        base = SimulatorBase(LoASConfig())
        cycles, memory = base.roofline_cycles(123.0, 0.0, 0.0)
        assert memory == 0.0
        assert cycles == pytest.approx(123.0)

    def test_roofline_memory_bound_crossover(self):
        # At 160 B/cycle DRAM bandwidth, 160_000 bytes take exactly the
        # 1000 compute cycles: the regimes cross there.
        base = SimulatorBase(LoASConfig())
        at_crossover, memory = base.roofline_cycles(1000.0, 160_000.0, 0.0)
        assert memory == pytest.approx(1000.0)
        assert at_crossover == pytest.approx(1000.0)
        compute_bound, _ = base.roofline_cycles(1000.0, 159_840.0, 0.0)
        assert compute_bound == pytest.approx(1000.0)  # compute hides memory
        memory_bound, memory = base.roofline_cycles(1000.0, 160_160.0, 0.0)
        assert memory_bound == pytest.approx(memory) == pytest.approx(1001.0)

    def test_roofline_takes_the_slower_of_dram_and_sram(self):
        # 256 B/cycle SRAM vs 160 B/cycle DRAM: equal byte counts stress
        # DRAM harder, so it sets the memory bound.
        base = SimulatorBase(LoASConfig())
        _, memory = base.roofline_cycles(0.0, 160_000.0, 160_000.0)
        assert memory == pytest.approx(1000.0)
        _, sram_only = base.roofline_cycles(0.0, 0.0, 256_000.0)
        assert sram_only == pytest.approx(1000.0)

    def test_roofline_reads_the_injected_design_point(self):
        # Halving the DRAM bandwidth doubles the memory bound.
        from repro.arch import default_arch

        halved = default_arch().with_overrides(**{"memory.dram_bandwidth_gbps": 64.0})
        base = SimulatorBase(LoASConfig(halved))
        _, memory = base.roofline_cycles(0.0, 160_000.0, 0.0)
        assert memory == pytest.approx(2000.0)


@pytest.mark.parametrize("simulator_cls", ALL_SNN_SIMULATORS)
class TestAllSimulatorsBasicContract:
    def test_result_is_well_formed(self, simulator_cls, medium_layer):
        result = simulator_cls().simulate_layer(LayerEvaluation(*medium_layer), name="unit")
        assert isinstance(result, SimulationResult)
        assert result.cycles > 0
        assert result.compute_cycles > 0
        assert result.dram_bytes > 0
        assert result.sram_bytes > 0
        assert result.energy_pj > 0
        assert result.workload == "unit"

    def test_rejects_bad_shapes(self, simulator_cls):
        assert_malformed_layer_rejected(simulator_cls(), LayerWorkload, np.zeros((2, 3)))

    def test_workload_driver(self, simulator_cls, tiny_workload):
        result = simulator_cls().simulate_workload(tiny_workload, rng=np.random.default_rng(0))
        assert result.workload == "tiny"
        assert result.cycles > 0


class TestLoASSimulator:
    @pytest.fixture
    def result(self, medium_layer):
        return LoASSimulator().simulate_layer(LayerEvaluation(*medium_layer), name="layer")

    def test_traffic_categories_present(self, result):
        for category in ("input", "weight", "format", "output"):
            assert result.dram.get(category) > 0
            assert result.sram.get(category) > 0

    def test_no_psum_traffic(self, result):
        assert result.dram.get("psum") == 0.0

    def test_ops_bookkeeping_consistent(self, medium_layer, result):
        spikes, weights = medium_layer
        nonsilent = spikes.any(axis=2)
        matches = float((nonsilent.astype(float) @ (weights != 0)).sum())
        true_acs = sum(float((spikes[:, :, t].astype(float) @ (weights != 0)).sum()) for t in range(4))
        assert result.ops["pseudo_accumulations"] == pytest.approx(matches)
        assert result.ops["true_accumulations"] == pytest.approx(true_acs)
        assert result.ops["correction_accumulations"] == pytest.approx(matches * 4 - true_acs)

    def test_energy_categories(self, result):
        for category in ("dram", "sram", "compute", "prefix_sum", "lif"):
            assert result.energy.entries.get(category, 0.0) > 0

    def test_preprocessing_reduces_work(self, medium_layer):
        evaluation = LayerEvaluation(*medium_layer)
        plain = LoASSimulator().simulate_layer(evaluation)
        preprocessed = LoASSimulator().simulate_layer(evaluation, preprocess=True)
        assert preprocessed.ops["pseudo_accumulations"] <= plain.ops["pseudo_accumulations"]
        assert preprocessed.cycles <= plain.cycles
        assert preprocessed.extra["silent_fraction"] >= plain.extra["silent_fraction"]

    def test_functional_run_matches_reference(self, small_layer):
        from repro.snn.layers import spmspm_reference
        from repro.snn.lif import lif_fire

        spikes, weights = small_layer
        lif = LoASSimulator().lif
        output = LayerEvaluation(spikes, weights).output_spikes(lif)
        assert np.array_equal(output, lif_fire(spmspm_reference(spikes, weights), lif))

    def test_network_aggregation(self, tiny_workload):
        from repro.snn.workloads import NetworkWorkload

        network = NetworkWorkload("tiny-net", [tiny_workload, tiny_workload])
        result = LoASSimulator().simulate_network(network, rng=np.random.default_rng(0))
        single = LoASSimulator().simulate_workload(tiny_workload, rng=np.random.default_rng(0))
        assert result.workload == "tiny-net"
        assert result.cycles > single.cycles

    def test_more_timesteps_cost_little_latency(self, tiny_workload):
        from repro.snn.network import LayerShape
        from repro.snn.workloads import LayerWorkload

        base = LoASSimulator().simulate_workload(tiny_workload, rng=np.random.default_rng(0))
        shape8 = LayerShape("tiny", 8, 160, 32, 8)
        wl8 = LayerWorkload(shape8, tiny_workload.profile)
        result8 = LoASSimulator(LoASConfig(timesteps=8)).simulate_workload(wl8, rng=np.random.default_rng(0))
        # Doubling T should cost far less than doubling the cycles (FTP).
        assert result8.cycles < base.cycles * 1.6


class TestPaperShapeClaims:
    """Headline orderings of the evaluation, checked on a mid-size layer."""

    @pytest.fixture(scope="class")
    def results(self):
        rng = np.random.default_rng(5)
        from repro.sparse.matrix import random_spike_tensor, random_weight_matrix

        spikes = random_spike_tensor(64, 1024, 4, spike_sparsity=0.82, silent_fraction=0.72, rng=rng)
        weights = random_weight_matrix(1024, 128, weight_sparsity=0.97, rng=rng)
        simulators = [LoASSimulator(), SparTenSNN(), GoSPASNN(), GammaSNN(), PTBSimulator(), StellarSimulator()]
        evaluation = LayerEvaluation(spikes, weights)
        return {sim.name: sim.simulate_layer(evaluation, name="mid") for sim in simulators}

    def test_loas_is_fastest(self, results):
        loas = results["LoAS"]
        for name, result in results.items():
            if name != "LoAS":
                assert loas.cycles < result.cycles, name

    def test_loas_has_lowest_energy(self, results):
        loas = results["LoAS"]
        for name, result in results.items():
            if name != "LoAS":
                assert loas.energy_pj < result.energy_pj, name

    def test_sparten_snn_pays_roughly_t_times_more_sram(self, results):
        ratio = results["SparTen-SNN"].sram_bytes / results["LoAS"].sram_bytes
        assert 2.5 < ratio < 6.0

    def test_gamma_has_highest_sram_traffic(self, results):
        gamma = results["Gamma-SNN"].sram_bytes
        for name in ("LoAS", "SparTen-SNN", "GoSPA-SNN"):
            assert gamma > results[name].sram_bytes

    def test_gamma_dram_below_gospa(self, results):
        # Gustavson keeps partial rows on chip, so its off-chip traffic is
        # below the outer-product baseline's psum-spilling traffic.
        assert results["Gamma-SNN"].dram_bytes <= results["GoSPA-SNN"].dram_bytes

    def test_loas_dram_below_sparten(self, results):
        assert results["LoAS"].dram_bytes < results["SparTen-SNN"].dram_bytes

    def test_dense_ptb_is_slowest(self, results):
        ptb = results["PTB"].cycles
        for name, result in results.items():
            if name != "PTB":
                assert ptb > result.cycles, name

    def test_stellar_beats_ptb(self, results):
        assert results["Stellar"].cycles < results["PTB"].cycles

    def test_loas_speedup_over_ptb_is_large(self, results):
        assert results["LoAS"].speedup_over(results["PTB"]) > 10.0

    def test_miss_rates_are_valid_fractions(self, results):
        for result in results.values():
            assert 0.0 <= result.sram_miss_rate <= 1.0


class TestGoSPAPsumScaling:
    def test_psum_traffic_scales_by_timesteps(self, rng):
        from repro.sparse.matrix import random_spike_tensor, random_weight_matrix

        weights = random_weight_matrix(512, 256, 0.97, rng=rng)
        results = {}
        for t in (1, 4):
            spikes = random_spike_tensor(64, 512, t, 0.8, silent_fraction=0.7, rng=rng)
            results[t] = GoSPASNN().simulate_layer(LayerEvaluation(spikes, weights))
        psum_1 = results[1].dram.get("psum")
        psum_4 = results[4].dram.get("psum")
        assert psum_4 > 0
        assert psum_4 / max(psum_1, 1e-9) >= 3.0


class TestANNBaselines:
    def test_activation_generator_sparsity(self, rng):
        activations = generate_ann_activations(200, 200, 0.439, rng=rng)
        assert sparsity(activations) == pytest.approx(0.439, abs=0.02)

    def test_activation_generator_validation(self, rng):
        with pytest.raises(ValueError):
            generate_ann_activations(4, 4, 1.2, rng=rng)

    @pytest.mark.parametrize("simulator_cls", [SparTenANN, GammaANN])
    def test_ann_simulators_contract(self, simulator_cls, rng):
        activations = generate_ann_activations(32, 256, rng=rng)
        weights = np.where(rng.random((256, 64)) < 0.95, 0, rng.integers(1, 127, (256, 64)))
        result = simulator_cls().simulate_layer(AnnLayerEvaluation(activations, weights), name="ann")
        assert result.cycles > 0 and result.energy_pj > 0 and result.dram_bytes > 0

    @pytest.mark.parametrize("simulator_cls", [SparTenANN, GammaANN])
    def test_ann_simulators_reject_3d(self, simulator_cls):
        assert_malformed_layer_rejected(simulator_cls(), AnnLayerWorkload, np.zeros((2, 3, 2)))

    def test_snn_on_loas_beats_ann_on_sparten_energy(self, rng):
        """Figure 18 headline: the dual-sparse SNN is more energy efficient."""
        from repro.sparse.matrix import random_spike_tensor, random_weight_matrix

        weights = random_weight_matrix(1024, 128, 0.982, rng=rng)
        spikes = random_spike_tensor(64, 1024, 4, 0.823, silent_fraction=0.796, rng=rng)
        activations = generate_ann_activations(64, 1024, 0.439, rng=rng)
        snn = LoASSimulator().simulate_layer(LayerEvaluation(spikes, weights))
        ann = SparTenANN().simulate_layer(AnnLayerEvaluation(activations, weights))
        assert snn.energy_pj < ann.energy_pj
        assert snn.dram_bytes < ann.dram_bytes


class TestCapabilitiesTable:
    def test_only_loas_supports_dual_sparsity(self):
        dual = [name for name, c in TABLE1_CAPABILITIES.items() if c.spike_sparsity and c.weight_sparsity]
        assert dual == ["LoAS"]

    def test_loas_is_fully_temporal_parallel_with_lif(self):
        loas = TABLE1_CAPABILITIES["LoAS"]
        assert loas.parallelism == "S+fully-T"
        assert loas.neuron_model == "LIF"

    def test_stellar_uses_fs_neurons(self):
        assert TABLE1_CAPABILITIES["Stellar"].neuron_model == "FS"

    def test_ptb_is_partially_temporal_parallel(self):
        assert TABLE1_CAPABILITIES["PTB"].parallelism == "S+partial-T"


class TestMetricsResults:
    def test_speedup_and_efficiency(self):
        fast = SimulationResult("a", "w", cycles=100)
        slow = SimulationResult("b", "w", cycles=400)
        assert fast.speedup_over(slow) == pytest.approx(4.0)

    def test_aggregate_sums(self):
        a = SimulationResult("x", "l1", cycles=10)
        a.dram.add("input", 100)
        a.sram.add("a", 1.0)
        a.energy.add("dram", 10.0)
        b = SimulationResult("x", "l2", cycles=20)
        b.dram.add("input", 50)
        b.sram.add("a", 2.0)
        b.sram.add("b", 3.0)
        b.energy.add("dram", 5.0)
        b.energy.add("lif", 1.0)
        total = aggregate_results([a, b], "x", "net")
        assert total.cycles == 30
        assert total.dram.get("input") == 150
        # A category only the second layer has is added after the first's.
        assert list(total.sram.as_dict().items()) == [("a", 3.0), ("b", 3.0)]
        assert list(total.energy.as_dict().items()) == [("dram", 15.0), ("lif", 1.0)]
        # The layers' own ledgers are left as they were.
        assert a.sram.as_dict() == {"a": 1.0} and a.energy.as_dict() == {"dram": 10.0}

    def test_aggregate_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate_results([], "x", "net")

    def test_runtime_seconds(self):
        result = SimulationResult("a", "w", cycles=8e8)
        assert result.runtime_seconds(clock_ghz=0.8) == pytest.approx(1.0)
