"""Orchestration equivalence: the runner reproduces the serial loops exactly.

Every refactored experiment ``run(...)`` is checked field-by-field against a
hand-rolled serial reference that mirrors the pre-refactor implementation
(per-simulator network walks with fresh equal-seed generators), in both
serial and 2-worker modes.  Plan/partition structure and the scenario
registry are covered alongside.
"""

from __future__ import annotations

import threading

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
)
from repro.core import DEFAULT_RNG_SEED, LoASConfig, LoASSimulator
from repro.engine import AnnLayerEvaluation
from repro.api import Session
from repro.experiments import get_scenario, list_scenarios
from repro.metrics.results import aggregate_results
from repro.runner import (
    SIMULATOR_FACTORIES,
    SimulatorSpec,
    SweepPlan,
    SweepRunner,
    WorkloadSpec,
)
from repro.snn.network import LayerShape
from repro.snn.workloads import (
    LayerWorkload,
    SparsityProfile,
    get_layer_workload,
    get_network_workload,
)

SCALE = 0.06
NETWORKS = ("alexnet",)
LAYERS = ("V-L8",)
SEED = 1


def scenario_payload(name, **params):
    return Session().run(name, **params).payload


def assert_results_identical(a, b):
    """Field-by-field bit-exact comparison of two SimulationResults."""
    assert a.accelerator == b.accelerator
    assert a.workload == b.workload
    assert a.cycles == b.cycles
    assert a.compute_cycles == b.compute_cycles
    assert a.memory_cycles == b.memory_cycles
    assert a.dram.as_dict() == b.dram.as_dict()
    assert a.sram.as_dict() == b.sram.as_dict()
    assert dict(a.energy.entries) == dict(b.energy.entries)
    assert a.ops == b.ops
    assert a.sram_miss_rate == b.sram_miss_rate
    assert a.extra == b.extra


def assert_sweeps_identical(reference, actual):
    assert list(reference) == list(actual)
    for workload in reference:
        assert list(reference[workload]) == list(actual[workload])
        for accel in reference[workload]:
            assert_results_identical(reference[workload][accel], actual[workload][accel])


# --------------------------------------------------------------------- #
# Pre-refactor serial references (mirroring the seed implementation)
# --------------------------------------------------------------------- #
def legacy_run_networks(networks=NETWORKS, scale=SCALE, seed=SEED, include_finetuned=True):
    results = {}
    for name in networks:
        network = get_network_workload(name)
        if scale != 1.0:
            network = network.scaled(scale)
        per = {}
        for accel, cls in (
            ("SparTen-SNN", SparTenSNN),
            ("GoSPA-SNN", GoSPASNN),
            ("Gamma-SNN", GammaSNN),
            ("LoAS", LoASSimulator),
        ):
            per[accel] = cls().simulate_network(network, rng=np.random.default_rng(seed))
        if include_finetuned:
            per["LoAS-FT"] = LoASSimulator().simulate_network(
                network, rng=np.random.default_rng(seed), finetuned=True, preprocess=True
            )
        results[name] = per
    return results


def legacy_run_layers(layers=LAYERS, scale=SCALE, seed=SEED):
    results = {}
    for name in layers:
        workload = get_layer_workload(name)
        if scale != 1.0:
            workload = workload.scaled(scale)
        per = {}
        for accel, cls in (
            ("SparTen-SNN", SparTenSNN),
            ("GoSPA-SNN", GoSPASNN),
            ("Gamma-SNN", GammaSNN),
            ("LoAS", LoASSimulator),
        ):
            per[accel] = cls().simulate_workload(workload, rng=np.random.default_rng(seed))
        results[name] = per
    return results


def legacy_run_fig5(layers=("V-L8",), scale=SCALE, seed=SEED):
    results = {}
    for name in layers:
        per_t = {}
        for timesteps in (1, 4):
            workload = get_layer_workload(name, timesteps=timesteps)
            if scale != 1.0:
                workload = workload.scaled(scale)
            result = GoSPASNN().simulate_workload(workload, rng=np.random.default_rng(seed))
            per_t[f"T={timesteps}"] = result.dram.get("psum") / 1e3
        results[name] = per_t
    return results


def legacy_run_fig17(scale=0.1, seed=SEED, timesteps=(4, 8), weight_sparsities=(0.982, 0.684, 0.25)):
    results = {"weight_sparsity": {}, "timesteps": {}, "layer_size": {}}
    base = get_layer_workload("V-L8").scaled(scale)

    reference_cycles = None
    for level in weight_sparsities:
        profile = SparsityProfile(
            base.profile.spike_sparsity,
            base.profile.silent_fraction,
            base.profile.silent_fraction_finetuned,
            level,
        )
        workload = LayerWorkload(base.shape, profile)
        result = LoASSimulator().simulate_workload(workload, rng=np.random.default_rng(seed))
        if reference_cycles is None:
            reference_cycles = result.cycles
        results["weight_sparsity"][f"B={level:.1%}"] = reference_cycles / result.cycles

    reference_cycles = None
    for t in timesteps:
        shape = LayerShape(base.shape.name, base.shape.m, base.shape.k, base.shape.n, t)
        workload = LayerWorkload(shape, base.profile)
        config = LoASConfig(timesteps=t)
        result = LoASSimulator(config).simulate_workload(workload, rng=np.random.default_rng(seed))
        if reference_cycles is None:
            reference_cycles = result.cycles
        results["timesteps"][f"T={t}"] = reference_cycles / result.cycles

    for layer_name in ("V-L8", "T-HFF"):
        workload = get_layer_workload(layer_name).scaled(scale)
        result = LoASSimulator().simulate_workload(workload, rng=np.random.default_rng(seed))
        throughput = result.ops.get("true_accumulations", 0.0) / result.cycles if result.cycles else 0.0
        results["layer_size"][layer_name] = throughput
    reference = results["layer_size"]["V-L8"] or 1.0
    results["layer_size"] = {k: v / reference for k, v in results["layer_size"].items()}
    return results


def legacy_run_fig18(network="alexnet", scale=SCALE, seed=SEED):
    snn_network = get_network_workload(network).scaled(scale)
    loas = LoASSimulator().simulate_network(
        snn_network, rng=np.random.default_rng(seed), finetuned=True, preprocess=True
    )
    rng = np.random.default_rng(seed)
    evaluations = [
        (
            layer.name,
            AnnLayerEvaluation(
                *AnnLayerWorkload(layer.shape, layer.profile, layer.weight_bits).generate(rng=rng)
            ),
        )
        for layer in snn_network.layers
    ]
    ann_results = {}
    for simulator in (SparTenANN(), GammaANN()):
        layer_results = [
            simulator.simulate_layer(
                evaluation.activations, evaluation.weights, name=name, evaluation=evaluation
            )
            for name, evaluation in evaluations
        ]
        ann_results[simulator.name] = aggregate_results(
            layer_results, accelerator=simulator.name, workload=network
        )
    everything = {"LoAS (SNN)": loas, **{f"{k} (ANN)": v for k, v in ann_results.items()}}
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


def legacy_run_fig19(network="alexnet", scale=SCALE, seed=SEED):
    snn_network = get_network_workload(network).scaled(scale)
    loas = LoASSimulator().simulate_network(snn_network, rng=np.random.default_rng(seed))
    ptb = PTBSimulator().simulate_network(snn_network, rng=np.random.default_rng(seed))
    stellar = StellarSimulator().simulate_network(snn_network, rng=np.random.default_rng(seed))
    results = {"LoAS": loas, "PTB": ptb, "Stellar": stellar}
    return {
        name: {
            "speedup_vs_ptb": ptb.cycles / result.cycles,
            "normalized_energy": result.energy_pj / loas.energy_pj,
            "normalized_dram": result.dram_bytes / loas.dram_bytes,
            "normalized_sram": result.sram_bytes / loas.sram_bytes,
        }
        for name, result in results.items()
    }


# --------------------------------------------------------------------- #
# Equivalence: orchestrated == legacy serial, in serial and 2-worker modes
# --------------------------------------------------------------------- #
class TestSweepEquivalence:
    @pytest.mark.parametrize("workers", [None, 2])
    def test_run_networks_matches_legacy(self, workers):
        reference = legacy_run_networks()
        actual = scenario_payload("networks", networks=NETWORKS, scale=SCALE, seed=SEED, workers=workers)
        assert_sweeps_identical(reference, actual)

    @pytest.mark.parametrize("workers", [None, 2])
    def test_run_layers_matches_legacy(self, workers):
        reference = legacy_run_layers()
        actual = scenario_payload("layers", layers=LAYERS, scale=SCALE, seed=SEED, workers=workers)
        assert_sweeps_identical(reference, actual)

    def test_run_networks_without_finetuned(self):
        reference = legacy_run_networks(include_finetuned=False)
        actual = scenario_payload(
            "networks", networks=NETWORKS, scale=SCALE, seed=SEED, include_finetuned=False
        )
        assert_sweeps_identical(reference, actual)

    @pytest.mark.parametrize("workers", [None, 2])
    def test_networks_under_explicit_default_arch_match_legacy(self, workers):
        # Pinning every cell to the default ArchSpec -- by preset name or by
        # explicit spec -- must not move a single bit of any payload.
        from dataclasses import replace as dataclass_replace

        from repro.arch import default_arch
        from repro.experiments.sweeps import network_sweep_plan

        reference = legacy_run_networks()
        for arch in ("loas-32nm", default_arch()):
            plan = network_sweep_plan(NETWORKS, scale=SCALE, seed=SEED)
            pinned = SweepPlan(
                plan.name,
                tuple(
                    dataclass_replace(
                        cell, simulator=dataclass_replace(cell.simulator, arch=arch)
                    )
                    for cell in plan.cells
                ),
            )
            actual = SweepRunner(workers=workers).run(pinned).nested()
            assert_sweeps_identical(reference, actual)

    def test_networks_arch_parameter_default_is_bit_identical(self):
        reference = legacy_run_networks()
        actual = scenario_payload("networks", networks=NETWORKS, scale=SCALE, seed=SEED)
        via_arch = scenario_payload(
            "networks", networks=NETWORKS, scale=SCALE, seed=SEED, arch="loas-32nm"
        )
        assert_sweeps_identical(reference, actual)
        assert_sweeps_identical(reference, via_arch)


class TestExperimentEquivalence:
    @pytest.mark.parametrize("workers", [None, 2])
    def test_fig5_matches_legacy(self, workers):
        assert legacy_run_fig5() == scenario_payload(
            "fig5-psum-traffic", layers=("V-L8",), scale=SCALE, seed=SEED, workers=workers
        )

    def test_fig12_matches_legacy_formula(self):
        raw = legacy_run_networks()
        reference = {}
        for network, per in raw.items():
            ref = per["SparTen-SNN"]
            reference[network] = {
                accel: {
                    "speedup": ref.cycles / result.cycles,
                    "energy_efficiency": ref.energy_pj / result.energy_pj,
                    "cycles": result.cycles,
                    "energy_pj": result.energy_pj,
                }
                for accel, result in per.items()
            }
        assert reference == scenario_payload("fig12-overall", networks=NETWORKS, scale=SCALE, seed=SEED)

    def test_fig13_matches_legacy_formula(self):
        raw = legacy_run_networks()
        reference = {
            network: {
                accel: {
                    "offchip_kb": result.dram_bytes / 1e3,
                    "onchip_mb": result.sram_bytes / 1e6,
                }
                for accel, result in per.items()
            }
            for network, per in raw.items()
        }
        assert reference == scenario_payload("fig13-traffic", networks=NETWORKS, scale=SCALE, seed=SEED)

    def test_fig14_matches_legacy_formula(self):
        raw = legacy_run_layers()
        reference = {}
        for layer, per in raw.items():
            loas = per["LoAS"]
            loas_total = loas.dram_bytes or 1.0
            loas_miss = loas.sram_miss_rate or 1e-9
            reference[layer] = {}
            for accel, result in per.items():
                breakdown = result.dram.as_dict()
                reference[layer][accel] = {
                    "weight": breakdown.get("weight", 0.0) / loas_total,
                    "input": breakdown.get("input", 0.0) / loas_total,
                    "psum": breakdown.get("psum", 0.0) / loas_total,
                    "format": breakdown.get("format", 0.0) / loas_total,
                    "output": breakdown.get("output", 0.0) / loas_total,
                    "total": result.dram_bytes / loas_total,
                    "normalized_miss_rate": result.sram_miss_rate / loas_miss,
                }
        assert reference == scenario_payload("fig14-breakdown", layers=LAYERS, scale=SCALE, seed=SEED)

    @pytest.mark.parametrize("timesteps", [(4, 8), (4,), (8, 16)])
    @pytest.mark.parametrize("workers", [None, 2])
    def test_fig17_matches_legacy(self, workers, timesteps):
        # (4,) is one point at the preset's own T: the workload is not
        # re-timestepped, and the row is still keyed "T=4".
        assert legacy_run_fig17(timesteps=timesteps) == scenario_payload(
            "fig17-scalability", scale=0.1, seed=SEED, timesteps=timesteps, workers=workers
        )

    def test_fig18_matches_legacy(self):
        assert legacy_run_fig18() == scenario_payload(
            "fig18-snn-vs-ann", network="alexnet", scale=SCALE, seed=SEED
        )

    @pytest.mark.parametrize("workers", [None, 2])
    def test_fig19_matches_legacy(self, workers):
        assert legacy_run_fig19() == scenario_payload(
            "fig19-dense-baselines", network="alexnet", scale=SCALE, seed=SEED, workers=workers
        )


# --------------------------------------------------------------------- #
# Plans, partitions, registry
# --------------------------------------------------------------------- #
class TestPlanStructure:
    def test_product_order_and_count(self):
        plan = SweepPlan.product(
            "p",
            (WorkloadSpec("layer", "V-L8"), WorkloadSpec("layer", "A-L4")),
            (SimulatorSpec("LoAS"), SimulatorSpec("PTB")),
            seeds=(0, 1),
        )
        assert len(plan.cells) == 8
        # Workload-major, then seed, then simulator: cells of one
        # (workload, seed) partition are adjacent.
        assert [c.workload.name for c in plan.cells[:4]] == ["V-L8"] * 4
        assert [c.seed for c in plan.cells[:2]] == [0, 0]
        assert [c.simulator.key for c in plan.cells[:2]] == ["LoAS", "PTB"]

    def test_partitions_group_by_workload_and_seed(self):
        plan = SweepPlan.product(
            "p",
            (WorkloadSpec("layer", "V-L8"),),
            (SimulatorSpec("LoAS"), SimulatorSpec("PTB")),
            seeds=(0, 1),
        )
        partitions = plan.partitions()
        assert [len(p) for p in partitions] == [2, 2]
        assert partitions[0] == [0, 1]

    def test_partitions_split_fine_tuning_variants(self):
        loas_ft = SimulatorSpec("LoAS", label="LoAS-FT", finetuned=True)
        plan = SweepPlan.product(
            "p",
            (WorkloadSpec("layer", "V-L8"),),
            (SimulatorSpec("LoAS"), loas_ft, SimulatorSpec("PTB")),
            seeds=(0, 1),
        )
        # One partition per (workload, seed, variant), in order of first cell.
        assert plan.partitions() == [[0, 2], [1], [3, 5], [4]]

    def test_partitions_split_snn_and_ann_cells(self):
        plan = SweepPlan.product(
            "p",
            (WorkloadSpec("layer", "V-L8"),),
            (SimulatorSpec("LoAS"), SimulatorSpec("SparTen-ANN"), SimulatorSpec("PTB"),
             SimulatorSpec("Gamma-ANN")),
            seeds=(0,),
        )
        # The ANN cells walk AnnLayerWorkload layers: one generator apart
        # from the SNN cells of the same workload and seed.
        assert plan.partitions() == [[0, 2], [1, 3]]
        assert SIMULATOR_FACTORIES["Gamma-ANN"].layer_type is AnnLayerWorkload
        assert SIMULATOR_FACTORIES["PTB"].layer_type is LayerWorkload

    def test_simulator_spec_label_defaults_to_key(self):
        assert SimulatorSpec("LoAS").label == "LoAS"
        assert SimulatorSpec("LoAS", label="LoAS-FT").label == "LoAS-FT"

    def test_unknown_simulator_key_rejected(self):
        with pytest.raises(KeyError):
            SimulatorSpec("NoSuchAccelerator")

    def test_unknown_workload_kind_rejected(self):
        with pytest.raises(ValueError):
            WorkloadSpec("tile", "V-L8")

    def test_plan_concatenation_preserves_tags(self):
        first = SweepPlan.product(
            "p", (WorkloadSpec("layer", "V-L8"),), (SimulatorSpec("LoAS"),), tag="a"
        )
        second = SweepPlan.product(
            "q", (WorkloadSpec("layer", "A-L4"),), (SimulatorSpec("LoAS"),), tag="b"
        )
        combined = first + second
        assert combined.name == "p"
        assert [c.tag for c in combined.cells] == ["a", "b"]

    def test_results_addressable_by_cell_and_tag(self):
        plan = SweepPlan.product(
            "p",
            (WorkloadSpec("layer", "V-L8", scale=0.05),),
            (SimulatorSpec("LoAS"),),
            seeds=(3,),
            tag="only",
        )
        results = SweepRunner().run(plan)
        assert len(results) == 1
        (cell, result) = next(iter(results))
        assert results[cell] is result
        assert results.tagged("only") == [(cell, result)]
        assert results.tagged("other") == []
        assert results.nested() == {"V-L8": {"LoAS": result}}

    def test_nested_refuses_to_collapse_duplicate_labels(self):
        # Same layer at two timesteps, same simulator label: a nested dict
        # would silently keep only the last cell's result.
        plan = SweepPlan.product(
            "p",
            (
                WorkloadSpec("layer", "V-L8", scale=0.05, timesteps=1),
                WorkloadSpec("layer", "V-L8", scale=0.05, timesteps=4),
            ),
            (SimulatorSpec("LoAS"),),
            seeds=(1,),
        )
        results = SweepRunner().run(plan)
        with pytest.raises(ValueError):
            results.nested()
        assert len(list(results)) == 2  # per-cell access still covers everything


class TestScenarioRegistry:
    def test_every_figure_and_table_is_registered(self):
        names = list_scenarios()
        for expected in (
            "networks",
            "layers",
            "fig5-psum-traffic",
            "fig11-preprocessing",
            "fig12-overall",
            "fig13-traffic",
            "fig14-breakdown",
            "fig16-temporal",
            "fig17-scalability",
            "fig18-snn-vs-ann",
            "fig19-dense-baselines",
            "table1-capabilities",
            "table2-workloads",
            "table4-area-power",
        ):
            assert expected in names

    def test_run_scenario_matches_run_function(self):
        # Executing the registered build + shape by hand reproduces Session.run.
        scenario = get_scenario("fig13-traffic")
        params = dict(scenario.defaults, networks=NETWORKS, scale=SCALE, seed=SEED)
        via_registry = scenario.shape(SweepRunner().run(scenario.build(**params)), **params)
        assert via_registry == scenario_payload(
            "fig13-traffic", networks=NETWORKS, scale=SCALE, seed=SEED
        )

    def test_unknown_scenario_raises(self):
        with pytest.raises(KeyError):
            scenario_payload("fig99-does-not-exist")

    def test_bespoke_scenario_runs(self):
        data = scenario_payload("table1-capabilities")
        assert "LoAS" in data

    def test_bespoke_scenario_rejects_unsupported_runner_options(self):
        # fig16 has no sweep behind it: a requested pool or disk tier must
        # fail loudly instead of being silently dropped.
        with pytest.raises(TypeError):
            scenario_payload("fig16-temporal", workers=2)
        with pytest.raises(TypeError):
            scenario_payload("table1-capabilities", cache_dir="/tmp/nowhere")


class TestDefaultSeed:
    def test_implicit_rng_fallback_is_the_documented_constant(self, tiny_workload):
        implicit = LoASSimulator().simulate_workload(tiny_workload)
        explicit = LoASSimulator().simulate_workload(
            tiny_workload, rng=np.random.default_rng(DEFAULT_RNG_SEED)
        )
        assert_results_identical(implicit, explicit)


class TestRunnerCacheDir:
    def test_sweep_with_disk_tier_matches_plain_sweep(self, tmp_path):
        plain = scenario_payload("layers", layers=LAYERS, scale=SCALE, seed=SEED)
        plan_runner = SweepRunner(cache_dir=tmp_path / "tier")
        from repro.experiments.sweeps import layer_sweep_plan

        via_tier_cold = plan_runner.run(layer_sweep_plan(LAYERS, scale=SCALE, seed=SEED)).nested()
        # Second run: a fresh in-process LRU would miss, but the disk tier
        # serves the tensors; results must stay bit-identical.
        from repro.engine import clear_default_cache

        clear_default_cache()
        via_tier_warm = plan_runner.run(layer_sweep_plan(LAYERS, scale=SCALE, seed=SEED)).nested()
        assert_sweeps_identical(plain, via_tier_cold)
        assert_sweeps_identical(plain, via_tier_warm)
        assert (tmp_path / "tier").exists()


class TestPoolDispatchOrder:
    """The pool is handed partitions longest first; results do not move."""

    NETWORKS = ("alexnet", "vgg16", "resnet19")

    def _plan(self):
        from repro.experiments.sweeps import network_sweep_plan

        # Two seeds per network: equal-cost partitions test the tie order.
        return network_sweep_plan(self.NETWORKS, scale=0.05, seed=1) + network_sweep_plan(
            self.NETWORKS, scale=0.05, seed=2
        )

    @staticmethod
    def _cost(network):
        layers = get_network_workload(network).scaled(0.05).layers
        return sum(
            layer.shape.m * layer.shape.k * layer.shape.n * layer.shape.t for layer in layers
        )

    def _inline_pool(self, monkeypatch):
        """Replace the pool with one running tasks in-process in submission order."""
        import multiprocessing
        from types import SimpleNamespace

        from repro.runner import executor

        submitted = []
        self.initializers = []
        initializers = self.initializers

        class InlinePool:
            def __init__(self, processes, initializer=None, initargs=()):
                initializers.append(initializer)

            def close(self):
                pass

            def join(self):
                pass

            def imap_unordered(self, task, payloads):
                for payload in payloads:
                    submitted.append(payload[0])
                    yield task(payload)

        monkeypatch.setattr(
            executor,
            "multiprocessing",
            SimpleNamespace(
                get_all_start_methods=multiprocessing.get_all_start_methods,
                get_context=lambda method=None: SimpleNamespace(
                    Pool=InlinePool, Event=threading.Event
                ),
            ),
        )
        return submitted

    def test_pool_submits_longest_partition_first(self, monkeypatch):
        costs = [self._cost(network) for network in self.NETWORKS]
        assert costs[2] > costs[1] > costs[0]  # resnet19 > vgg16 > alexnet
        submitted = self._inline_pool(monkeypatch)
        plan = self._plan()
        pooled = list(SweepRunner(workers=2).run(plan))
        # Ordinals 0-5 are seed 1 and 6-11 seed 2, each network's LoAS
        # partition before its LoAS-FT one, in plan network order; equal
        # costs keep plan order, so both resnet19 walks go out first.
        assert submitted == [4, 5, 10, 11, 2, 3, 8, 9, 0, 1, 6, 7]

        serial = list(SweepRunner().run(plan))
        assert [cell for cell, _ in pooled] == [cell for cell, _ in serial]
        for (_, a), (_, b) in zip(pooled, serial):
            assert_results_identical(a, b)

    def test_serial_path_stays_in_plan_order(self, monkeypatch):
        from repro.runner import executor

        # Without a spare CPU no helper thread starts (see
        # tests/test_partition_helper.py for the order with one).
        monkeypatch.setattr(executor, "_usable_cpus", lambda: 1)
        plan = self._plan()
        ordinals = [ordinal for ordinal, _, _ in SweepRunner().iter_partitions(plan)]
        assert ordinals == list(range(len(plan.partitions())))

    def test_single_network_runs_on_the_pool_bit_identically(self):
        import json

        from repro.engine import clear_default_cache

        params = {"networks": NETWORKS, "scale": SCALE, "seed": SEED}
        serial = Session().run("networks", **params)
        clear_default_cache()
        pooled = Session(workers=2).run("networks", **params)
        # Its two variants are two partitions, so the pool runs them and the
        # parent evaluates nothing.
        assert pooled.provenance["partitions"] == 2
        assert pooled.provenance["cache"]["scope"].startswith("parent-process only")
        assert pooled.provenance["cache"]["lru_misses"] == 0
        assert json.dumps(json.loads(pooled.to_json())["payload"]) == json.dumps(
            json.loads(serial.to_json())["payload"]
        )


def _worker_lru_after_partition(payload):
    """Pool probe: run one partition task, then report the worker's LRU."""
    from repro.engine import default_cache
    from repro.runner import executor

    executor._pool_task(payload)
    stats = default_cache().stats()
    return stats.entries, stats.maxsize


class TestLeanWorkers:
    """Pool workers keep only the layer in hand; the parent's LRU is untouched."""

    def test_pool_is_built_with_the_lean_initializer(self, monkeypatch):
        from repro.experiments.sweeps import network_sweep_plan
        from repro.runner import executor

        fake = TestPoolDispatchOrder()
        fake._inline_pool(monkeypatch)
        SweepRunner(workers=2).run(network_sweep_plan(NETWORKS, scale=SCALE, seed=SEED))
        assert fake.initializers == [executor._lean_worker]

    def test_worker_holds_at_most_one_evaluation_after_a_partition(self):
        import multiprocessing

        from repro.engine import default_cache
        from repro.experiments.sweeps import network_sweep_plan
        from repro.runner import executor

        plan = network_sweep_plan(NETWORKS, scale=SCALE, seed=SEED)
        indices = plan.partitions()[0]
        layers = len(get_network_workload(NETWORKS[0]).layers)
        assert layers > 1
        payload = (0, tuple(plan.cells[i] for i in indices), None)
        parent_maxsize = default_cache().stats().maxsize
        method = "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
        context = multiprocessing.get_context(method)
        with context.Pool(processes=1, initializer=executor._lean_worker) as pool:
            (entries, maxsize), = pool.map(_worker_lru_after_partition, [payload])
        assert (entries, maxsize) == (1, 1)
        assert default_cache().stats().maxsize == parent_maxsize


class TestWorkerDiskTier:
    """Pool workers get ``(directory, max_bytes)`` and build one tier from it."""

    @staticmethod
    def _layer_cells():
        from repro.experiments.sweeps import layer_sweep_plan

        plan = layer_sweep_plan(("V-L8",), scale=SCALE, seed=SEED)
        (indices,) = plan.partitions()
        return tuple(plan.cells[i] for i in indices)

    @pytest.fixture
    def fresh_worker_state(self):
        from repro.engine import clear_default_cache
        from repro.runner import executor

        executor._worker_disk.cache_clear()
        clear_default_cache()
        yield executor
        executor._worker_disk.cache_clear()
        clear_default_cache()

    def test_worker_disk_is_reused_for_one_spec(self, tmp_path, fresh_worker_state):
        executor = fresh_worker_state
        tier = executor._worker_disk(str(tmp_path / "tier"), 1 << 20)
        assert executor._worker_disk(str(tmp_path / "tier"), 1 << 20) is tier
        assert tier.directory == tmp_path / "tier" and tier.max_bytes == 1 << 20

    def test_worker_disk_is_rebuilt_for_a_new_spec(self, tmp_path, fresh_worker_state):
        executor = fresh_worker_state
        first = executor._worker_disk(str(tmp_path / "a"), None)
        second = executor._worker_disk(str(tmp_path / "b"), None)
        assert second is not first and second.directory == tmp_path / "b"

    def test_pool_task_without_a_disk_spec_stays_in_memory(self, tmp_path, fresh_worker_state):
        executor = fresh_worker_state
        cells = self._layer_cells()
        ordinal, results = executor._pool_task((7, cells, None))
        assert ordinal == 7
        assert executor._worker_disk.cache_info().currsize == 0
        from repro.engine import clear_default_cache

        clear_default_cache()
        for a, b in zip(results, executor._execute_partition(cells)):
            assert_results_identical(a, b)

    def test_pool_task_publishes_to_the_named_directory(self, tmp_path, fresh_worker_state):
        executor = fresh_worker_state
        cells = self._layer_cells()
        _, results = executor._pool_task((0, cells, (str(tmp_path / "tier"), None)))
        tier = executor._worker_disk(str(tmp_path / "tier"), None)
        # Written once each, at the layer's flush.
        assert tier.stores >= 1 and tier.refreshes == 0 and len(tier) == tier.stores
        from repro.engine import clear_default_cache

        clear_default_cache()
        for a, b in zip(results, executor._execute_partition(cells)):
            assert_results_identical(a, b)

    @pytest.mark.parametrize("with_tier", (False, True), ids=("no-tier", "tier"))
    def test_pool_payload_carries_directory_and_budget(self, tmp_path, monkeypatch, with_tier):
        from repro.runner import executor

        TestPoolDispatchOrder()._inline_pool(monkeypatch)
        payloads = []
        run_task = executor._pool_task

        def recording_task(payload):
            payloads.append(payload)
            return run_task(payload)

        monkeypatch.setattr(executor, "_pool_task", recording_task)
        from repro.api import Session

        cache_dir = tmp_path / "tier" if with_tier else None
        session = Session(workers=2, cache_dir=cache_dir, disk_max_bytes=1 << 30)
        session.run("layers", layers=("V-L8", "A-L4"), scale=SCALE, seed=SEED)
        expected = (str(tmp_path / "tier"), 1 << 30) if with_tier else None
        assert len(payloads) == 2
        assert all(disk_spec == expected for _, _, disk_spec in payloads)
        executor._worker_disk.cache_clear()

    def test_serial_run_passes_the_runner_tier(self, tmp_path):
        from repro.engine import clear_default_cache, default_cache
        from repro.experiments.sweeps import layer_sweep_plan

        plan = layer_sweep_plan(("V-L8",), scale=SCALE, seed=SEED)
        runner = SweepRunner(cache_dir=tmp_path / "tier")
        clear_default_cache()
        runner.run(plan)
        assert runner.disk_tier.stores == default_cache().misses >= 1
        # A runner without a tier leaves the first one alone.
        clear_default_cache()
        SweepRunner().run(plan)
        assert runner.disk_tier.hits == 0 and runner.disk_tier.misses == runner.disk_tier.stores
        clear_default_cache()

    def test_runner_has_no_remote_option(self):
        with pytest.raises(TypeError):
            SweepRunner(cache_url="tcp://localhost:1")
