"""The ArchSpec layer: addressing, presets, the LoASConfig view, arch-axis
plans, evaluation-cache sharing across design points, and bit-identity of the
refactored consumers."""

import pickle

import numpy as np
import pytest

from repro.api import Session
from repro.arch import (
    ARCH_PRESETS,
    ArchSpec,
    AreaSpec,
    BaselineSpec,
    ComponentCost,
    DEFAULT_ARCH,
    MemorySpec,
    PESpec,
    arch_label,
    default_arch,
    get_arch_spec,
    list_arch_presets,
    register_arch_preset,
    resolve_arch,
    tppe_cost,
    tppe_power_breakdown,
)
from repro.core import LoASConfig, LoASSimulator
from repro.engine import (
    TENSOR_COUPLED_ARCH_FIELDS,
    arch_tensor_fingerprint,
    clear_default_cache,
    default_cache,
)
from repro.experiments.dse import dse_pe_plan, dse_sram_plan, dse_timestep_plan
from repro.runner import SimulatorSpec, SweepPlan, SweepRunner, WorkloadSpec


class TestArchSpecAddressing:
    def test_default_matches_table3(self):
        spec = default_arch()
        assert spec.name == DEFAULT_ARCH == "loas-32nm"
        assert spec.pe.num_tppes == 16
        assert spec.pe.timesteps == 4
        assert spec.memory.global_cache_bytes == 256 * 1024
        assert spec.memory.dram_bandwidth_gbps == 128.0
        assert spec.clock_ghz == 0.8
        assert spec.energy.dram_per_byte == 60.0

    def test_dotted_overrides(self):
        spec = default_arch().with_overrides(**{
            "pe.num_tppes": 32,
            "memory.global_cache_bytes": 512 * 1024,
            "energy.dram_per_byte": 48.0,
            "baseline.merger_radix": 32,
            "clock_ghz": 1.0,
        })
        assert spec.pe.num_tppes == 32
        assert spec.memory.global_cache_bytes == 512 * 1024
        assert spec.energy.dram_per_byte == 48.0
        assert spec.baseline.merger_radix == 32
        assert spec.clock_ghz == 1.0
        # the original is untouched (frozen copy semantics)
        assert default_arch().pe.num_tppes == 16

    def test_bare_names_resolve_across_groups(self):
        spec = default_arch().with_overrides(num_tppes=8, dram_per_byte=10.0)
        assert spec.pe.num_tppes == 8
        assert spec.energy.dram_per_byte == 10.0

    def test_whole_group_replacement(self):
        pe = PESpec(num_tppes=64)
        spec = default_arch().with_overrides(pe=pe)
        assert spec.pe is pe

    def test_whole_group_replacement_rejects_non_spec_values(self):
        # ``pe=8`` (user means pe.num_tppes) must fail at the override
        # site, not deep inside simulator construction.
        with pytest.raises(TypeError, match="replacing arch group 'pe'"):
            default_arch().with_overrides(pe=8)

    def test_unknown_keys_rejected(self):
        with pytest.raises(KeyError):
            default_arch().with_overrides(**{"pe.no_such_field": 1})
        with pytest.raises(KeyError):
            default_arch().with_overrides(**{"nosuchgroup.num_tppes": 1})
        with pytest.raises(KeyError):
            default_arch().with_overrides(no_such_field=1)

    def test_invalid_values_rejected_by_subspec(self):
        with pytest.raises(ValueError):
            default_arch().with_overrides(**{"pe.num_tppes": 0})
        with pytest.raises(ValueError):
            default_arch().with_overrides(**{"memory.cache_banks": 0})

    def test_get_and_flat_items_roundtrip(self):
        spec = default_arch()
        for path, value in spec.flat_items():
            assert spec.get(path) == value
        assert spec.get("pe.timesteps") == 4
        assert spec.get("num_tppes") == 16
        assert spec.get("pe") is spec.pe

    def test_hashable_and_picklable(self):
        spec = default_arch().with_overrides(**{"pe.num_tppes": 32})
        assert hash(spec) == hash(default_arch().with_overrides(**{"pe.num_tppes": 32}))
        assert pickle.loads(pickle.dumps(spec)) == spec

    def test_arch_label(self):
        assert arch_label("loas-32nm") == "loas-32nm"
        assert (
            arch_label("loas-32nm", (("pe.num_tppes", 8),))
            == "loas-32nm+pe.num_tppes=8"
        )


class TestPresets:
    def test_shipped_presets(self):
        names = list_arch_presets()
        assert "loas-32nm" in names
        assert "loas-32nm-small" in names
        assert "loas-32nm-large" in names
        assert get_arch_spec("loas-32nm-large").pe.num_tppes == 32

    def test_unknown_preset(self):
        with pytest.raises(KeyError):
            get_arch_spec("loas-7nm")

    def test_conflicting_registration_rejected(self):
        different = default_arch().with_overrides(**{"pe.num_tppes": 2})
        with pytest.raises(ValueError):
            register_arch_preset(different)
        # re-registering the identical spec is a no-op
        register_arch_preset(default_arch())
        assert ARCH_PRESETS[DEFAULT_ARCH] == default_arch()

    def test_resolve_arch_forms(self):
        assert resolve_arch() == default_arch()
        assert resolve_arch("loas-32nm-small").pe.num_tppes == 8
        spec = default_arch()
        assert resolve_arch(spec) is spec
        assert resolve_arch(None, {"pe.num_tppes": 2}).pe.num_tppes == 2
        with pytest.raises(TypeError):
            resolve_arch(42)


class TestLoASConfigView:
    def test_default_fields_match_table3(self):
        config = LoASConfig()
        assert config.num_tppes == 16
        assert config.timesteps == 4
        assert config.weight_bits == 8
        assert config.bitmask_chunk_bits == 128
        assert config.laggy_adders == 16
        assert config.global_cache_bytes == 256 * 1024
        assert config.cache_banks == 16
        assert config.clock_ghz == 0.8
        assert config.dram.bytes_per_cycle == pytest.approx(160.0)
        assert config.sram.bytes_per_cycle == pytest.approx(256.0)
        assert config.energy.dram_per_byte == 60.0

    def test_accepts_preset_name_and_spec(self):
        assert LoASConfig("loas-32nm-large").num_tppes == 32
        assert LoASConfig(get_arch_spec("loas-32nm-small")).num_tppes == 8

    def test_legacy_keyword_overrides(self):
        assert LoASConfig(timesteps=8).accumulators_per_tppe == 9
        assert LoASConfig(num_tppes=4).num_tppes == 4
        with pytest.raises(ValueError):
            LoASConfig(num_tppes=0)

    def test_legacy_model_kwargs(self):
        from repro.arch import DRAMModel, EnergyModel, SRAMModel

        assert LoASConfig(energy=EnergyModel(dram_per_byte=7.0)).energy.dram_per_byte == 7.0
        assert LoASConfig(dram=DRAMModel(64.0)).dram.bandwidth_gbps == 64.0
        config = LoASConfig(sram=SRAMModel(capacity_bytes=1024, num_banks=2))
        assert config.global_cache_bytes == 1024 and config.cache_banks == 2
        # The spec has one clock: a differently-clocked DRAMModel is rejected
        # loudly instead of being silently re-clocked.
        with pytest.raises(ValueError):
            LoASConfig(dram=DRAMModel(128.0, clock_ghz=1.6))
        # ... while matching the clock override explicitly is fine, and the
        # unified clock moves the DRAM service rate with it.
        config = LoASConfig(dram=DRAMModel(128.0, clock_ghz=1.6), clock_ghz=1.6)
        assert config.dram.bytes_per_cycle == pytest.approx(80.0)

    def test_equality_and_hash_follow_the_spec(self):
        assert LoASConfig() == LoASConfig(DEFAULT_ARCH)
        assert hash(LoASConfig()) == hash(LoASConfig(DEFAULT_ARCH))
        assert LoASConfig() != LoASConfig(num_tppes=4)

    def test_with_timesteps_only_touches_timesteps(self):
        config = LoASConfig(num_tppes=4).with_timesteps(8)
        assert config.timesteps == 8
        assert config.num_tppes == 4

    def test_simulator_accepts_spec_and_preset_name(self, tiny_workload):
        rng = np.random.default_rng(0)
        by_name = LoASSimulator("loas-32nm").simulate_workload(
            tiny_workload, rng=np.random.default_rng(0)
        )
        by_default = LoASSimulator().simulate_workload(tiny_workload, rng=rng)
        assert by_name.cycles == by_default.cycles
        assert by_name.energy_pj == by_default.energy_pj


class TestAreaSpecDriven:
    def test_default_area_matches_legacy_constants(self):
        from repro.arch.area import DEFAULT_AREA, ComponentCost

        assert AreaSpec() == DEFAULT_AREA
        # The published Table IV per-TPPE costs (32 nm, T = 4).
        assert DEFAULT_AREA.tppe_table() == {
            "accumulators": ComponentCost(2e-3, 0.16),
            "fast_prefix": ComponentCost(0.04, 1.46),
            "laggy_prefix": ComponentCost(5e-3, 0.32),
            "others": ComponentCost(0.013, 0.88),
        }

    def test_custom_table_changes_costs(self):
        doubled = AreaSpec(
            tppe_components=tuple(
                (name, cost.scaled(2.0)) for name, cost in AreaSpec().tppe_components
            )
        )
        assert tppe_cost(4, area=doubled).area_mm2 == pytest.approx(
            2 * tppe_cost(4).area_mm2
        )
        # fractions are scale-invariant
        assert tppe_power_breakdown(area=doubled) == tppe_power_breakdown()


class TestArchAxisPlans:
    def test_axis_expands_simulators_with_labels(self):
        plan = dse_pe_plan(scale=0.05, pe_counts=(4, 8))
        assert len(plan.cells) == 2
        labels = [cell.simulator.label for cell in plan.cells]
        assert labels == [
            "LoAS@loas-32nm+pe.num_tppes=4",
            "LoAS@loas-32nm+pe.num_tppes=8",
        ]
        # pure-cost points share one (workload, seed) partition
        assert plan.partitions() == [[0, 1]]

    def test_axis_accepts_presets_and_specs(self):
        plan = SweepPlan.product(
            "p",
            (WorkloadSpec("layer", "V-L8", scale=0.05),),
            (SimulatorSpec("LoAS"),),
            archs=("loas-32nm-small", get_arch_spec("loas-32nm-large")),
        )
        built = [cell.simulator.build() for cell in plan.cells]
        assert [sim.config.num_tppes for sim in built] == [8, 32]

    def test_timestep_override_couples_the_workload(self):
        plan = dse_timestep_plan(scale=0.05, timesteps=(4, 8))
        assert [cell.workload.timesteps for cell in plan.cells] == [4, 8]
        assert [cell.simulator.build().config.timesteps for cell in plan.cells] == [4, 8]
        # distinct tensors -> distinct partitions
        assert plan.partitions() == [[0], [1]]

    def test_pure_cost_override_does_not_touch_the_workload(self):
        plan = dse_sram_plan(scale=0.05, capacities_kb=(16, 256), simulators=("LoAS",))
        assert all(cell.workload.timesteps is None for cell in plan.cells)
        assert plan.partitions() == [[0, 1]]

    def test_tensor_coupled_fields_and_fingerprint(self):
        assert TENSOR_COUPLED_ARCH_FIELDS == ("pe.timesteps",)
        small = get_arch_spec("loas-32nm-small")
        assert arch_tensor_fingerprint(default_arch()) == arch_tensor_fingerprint(small)
        ablated = default_arch().with_overrides(**{"pe.timesteps": 8})
        assert arch_tensor_fingerprint(ablated) != arch_tensor_fingerprint(default_arch())

    def test_simulator_spec_validates_arch(self):
        with pytest.raises(KeyError):
            SimulatorSpec("LoAS", arch="loas-7nm")
        with pytest.raises(TypeError):
            SimulatorSpec("LoAS", arch=42)

    def test_preset_names_resolve_at_declaration(self):
        # The cell carries the full design point, so spawn-context workers
        # (fresh interpreters without user-registered presets) never consult
        # the registry.
        spec = SimulatorSpec("LoAS", arch="loas-32nm-small")
        assert isinstance(spec.arch, ArchSpec)
        assert spec.arch == get_arch_spec("loas-32nm-small")
        assert pickle.loads(pickle.dumps(spec)).arch.pe.num_tppes == 8

    def test_coupling_detected_by_value_not_override_spelling(self):
        # A whole-group replacement moves pe.timesteps without a literal
        # "timesteps" key; the coupling must still trigger.
        plan = SweepPlan.product(
            "p",
            (WorkloadSpec("layer", "V-L8", scale=0.05),),
            (SimulatorSpec("LoAS"),),
            archs=(
                ("loas-32nm", ()),
                ("loas-32nm", (("pe", PESpec(timesteps=8)),)),
            ),
        )
        assert [cell.workload.timesteps for cell in plan.cells] == [4, 8]

    def test_heterogeneous_preset_timesteps_couple_every_point(self):
        # Presets that disagree on pe.timesteps make the axis a timestep
        # ablation even with no overrides at all.
        ablated = default_arch().with_overrides(name="t8-anon", **{"pe.timesteps": 8})
        plan = SweepPlan.product(
            "p",
            (WorkloadSpec("layer", "V-L8", scale=0.05),),
            (SimulatorSpec("LoAS"),),
            archs=("loas-32nm", ablated),
        )
        assert [cell.workload.timesteps for cell in plan.cells] == [4, 8]
        assert plan.partitions() == [[0], [1]]

    def test_homogeneous_axis_leaves_workload_timesteps_alone(self):
        # Running a T=4 workload on uniformly T=8-provisioned hardware stays
        # a pure-cost sweep: the workload's own timesteps are not touched.
        plan = SweepPlan.product(
            "p",
            (WorkloadSpec("layer", "V-L8", scale=0.05),),
            (SimulatorSpec("LoAS"),),
            archs=(
                ("loas-32nm", (("pe.timesteps", 8), ("pe.num_tppes", 4))),
                ("loas-32nm", (("pe.timesteps", 8), ("pe.num_tppes", 16))),
            ),
        )
        assert [cell.workload.timesteps for cell in plan.cells] == [8, 8]

    def test_colliding_point_labels_are_deduplicated(self):
        # Distinct derived specs share their preset's name; labels must not
        # collapse (nested() would raise / shapers would drop points).
        points = (
            default_arch().with_overrides(**{"pe.num_tppes": 8}),
            default_arch().with_overrides(**{"pe.num_tppes": 32}),
        )
        plan = SweepPlan.product(
            "p",
            (WorkloadSpec("layer", "V-L8", scale=0.05),),
            (SimulatorSpec("LoAS"),),
            archs=points,
        )
        labels = [cell.simulator.label for cell in plan.cells]
        assert len(set(labels)) == 2
        results = SweepRunner().run(plan)
        assert set(results.nested()["V-L8"]) == set(labels)


class TestEvaluationSharingAcrossDesignPoints:
    """Acceptance: a pure-cost arch sweep over N design points performs
    exactly one evaluation miss per (layer, variant)."""

    def test_pure_cost_sweep_is_one_miss_per_layer(self):
        clear_default_cache()
        capacities = (16, 32, 64, 128, 256, 512)
        plan = dse_sram_plan(scale=0.1, capacities_kb=capacities)
        before = default_cache().stats()
        SweepRunner().run(plan)
        after = default_cache().stats()
        # one layer, one fine-tuning variant, N x simulators pure-cost cells
        assert after.misses - before.misses == 1
        assert after.hits - before.hits == 0

    def test_pure_cost_pe_sweep_via_session_provenance(self):
        clear_default_cache()
        session = Session()
        result = session.run("dse-pe-scaling", scale=0.1, pe_counts=(2, 4, 8, 16, 32))
        assert result.provenance["cache"]["lru_misses"] == 1
        assert len(result.payload) == 5

    def test_dse_scenarios_accept_mapping_overrides(self):
        # Mappings and pair-tuples are interchangeable for arch_overrides,
        # matching the networks/layers/table4 scenarios.
        session = Session()
        via_mapping = session.run(
            "dse-pe-scaling",
            scale=0.1,
            pe_counts=(4, 8),
            arch_overrides={"energy.dram_per_byte": 10.0},
        )
        via_pairs = session.run(
            "dse-pe-scaling",
            scale=0.1,
            pe_counts=(4, 8),
            arch_overrides=(("energy.dram_per_byte", 10.0),),
        )
        assert via_mapping.payload == via_pairs.payload

    def test_timestep_ablation_misses_once_per_timestep(self):
        clear_default_cache()
        timesteps = (2, 4, 8)
        plan = dse_timestep_plan(scale=0.1, timesteps=timesteps)
        before = default_cache().stats()
        SweepRunner().run(plan)
        after = default_cache().stats()
        assert after.misses - before.misses == len(timesteps)


class TestDesignSpaceScenarioShapes:
    def test_pe_scaling_is_monotone_nonincreasing(self):
        session = Session()
        payload = session.run("dse-pe-scaling", scale=0.25, pe_counts=(4, 8, 16)).payload
        cycles = [payload["PE=%d" % count]["cycles"] for count in (4, 8, 16)]
        assert cycles == sorted(cycles, reverse=True)
        assert cycles[0] > cycles[-1]

    def test_sram_sweep_offchip_monotone_nonincreasing(self):
        session = Session()
        capacities = (16, 64, 256)
        payload = session.run("dse-sram-sweep", scale=0.25, capacities_kb=capacities).payload
        for simulator in ("SparTen-SNN", "Gamma-SNN", "LoAS"):
            offchip = [
                payload["SRAM=%dKB" % kb][simulator]["offchip_kb"] for kb in capacities
            ]
            assert offchip == sorted(offchip, reverse=True), simulator

    def test_timestep_ablation_at_base_preset_t(self):
        # A point whose T equals the base preset's never re-timesteps the
        # workload (cell.workload.timesteps stays None); the shaper must
        # fall back to the resolved design point instead of crashing.
        session = Session()
        payload = session.run("dse-timestep-ablation", scale=0.1, timesteps=(4,)).payload
        assert set(payload) == {"T=4"}
        assert payload["T=4"]["relative_performance"] == pytest.approx(1.0)

    def test_duplicate_axis_points_keep_distinct_rows(self):
        # Rows are keyed by the swept value, so duplicated points must pick
        # up the same #<n> suffix the plan layer gives their labels instead
        # of silently overwriting each other.
        session = Session()
        pe = session.run("dse-pe-scaling", scale=0.1, pe_counts=(16, 16)).payload
        assert set(pe) == {"PE=16", "PE=16#2"}
        assert pe["PE=16"] == pe["PE=16#2"]
        sram = session.run(
            "dse-sram-sweep", scale=0.1, capacities_kb=(16, 16), simulators=("LoAS",)
        ).payload
        assert set(sram) == {"SRAM=16KB", "SRAM=16KB#2"}
        assert sram["SRAM=16KB"] == sram["SRAM=16KB#2"]

    def test_timestep_ablation_reports_fig16a_ratios(self):
        session = Session()
        payload = session.run("dse-timestep-ablation", scale=0.1, timesteps=(4, 16)).payload
        assert payload["T=4"]["tppe_area_ratio"] == pytest.approx(1.0)
        assert payload["T=16"]["tppe_area_ratio"] == pytest.approx(1.37, abs=0.02)
        assert payload["T=16"]["tppe_power_ratio"] == pytest.approx(1.25, abs=0.02)
        # FTP headline: doubling T twice costs only a few percent latency
        assert payload["T=16"]["relative_performance"] > 0.8


class TestDefaultArchBitIdentity:
    """Acceptance: pre-existing scenarios are bit-identical under the
    default ArchSpec (pinning the spec explicitly changes nothing)."""

    def test_explicit_default_arch_matches_unpinned_cells(self):
        from repro.experiments.sweeps import layer_sweep_plan
        from test_runner import assert_results_identical

        plan = layer_sweep_plan(("V-L8",), scale=0.06, seed=1)
        pinned = SweepPlan(
            plan.name,
            tuple(
                type(cell)(
                    cell.workload,
                    SimulatorSpec(
                        cell.simulator.key,
                        label=cell.simulator.label,
                        finetuned=cell.simulator.finetuned,
                        kwargs=cell.simulator.kwargs,
                        config_timesteps=cell.simulator.config_timesteps,
                        arch=DEFAULT_ARCH,
                    ),
                    cell.seed,
                    cell.tag,
                )
                for cell in plan.cells
            ),
        )
        runner = SweepRunner()
        reference = runner.run(plan).nested()
        via_arch = runner.run(pinned).nested()
        assert list(reference) == list(via_arch)
        for workload in reference:
            for label in reference[workload]:
                assert_results_identical(
                    reference[workload][label], via_arch[workload][label]
                )

    def test_networks_scenario_accepts_arch_parameter(self):
        session = Session()
        default = session.run("networks", networks=("alexnet",), scale=0.05)
        pinned = session.run(
            "networks", networks=("alexnet",), scale=0.05, arch=DEFAULT_ARCH
        )
        for accel in default.payload["alexnet"]:
            assert (
                default.payload["alexnet"][accel].cycles
                == pinned.payload["alexnet"][accel].cycles
            )

    def test_networks_rejects_config_and_arch_together(self):
        session = Session()
        with pytest.raises(ValueError):
            session.run(
                "networks",
                networks=("alexnet",),
                scale=0.05,
                config=LoASConfig(),
                arch=DEFAULT_ARCH,
            )

    def test_table4_defaults_unchanged_and_arch_aware(self):
        session = Session()
        default = session.run("table4-area-power").payload
        assert default["system_area_mm2"]["total"] == pytest.approx(2.08, abs=0.02)
        # an arch with double the TPPEs doubles the TPPE group's area
        scaled = session.run(
            "table4-area-power", arch_overrides=(("pe.num_tppes", 32),)
        ).payload
        assert scaled["system_area_mm2"]["tppes"] == pytest.approx(
            2 * default["system_area_mm2"]["tppes"]
        )


class TestBaselineSpecKnobs:
    def test_baseline_models_read_the_injected_spec(self):
        from repro.baselines import GammaSNN, GoSPASNN, PTBSimulator, SparTenSNN

        spec = default_arch().with_overrides(**{
            "baseline.merger_radix": 8,
            "baseline.psum_buffer_bytes": 1024,
            "baseline.per_timestep_overhead_cycles": 99,
            "baseline.systolic_rows": 4,
            "baseline.systolic_cols": 2,
            "baseline.window_capacity": 32,
        })
        assert GammaSNN(spec).merger_radix == 8
        assert GoSPASNN(spec).psum_buffer_bytes == 1024
        assert SparTenSNN(spec).per_timestep_overhead_cycles == 99
        ptb = PTBSimulator(spec)
        assert (ptb.array.rows, ptb.array.cols) == (4, 2)
        assert ptb.window_capacity == 32

    def test_defaults_equal_published_values(self):
        from repro.baselines import GammaSNN, GoSPASNN, PTBSimulator, SparTenSNN

        assert GammaSNN().merger_radix == 64
        assert GammaSNN().effective_merge_radix == 2
        assert GoSPASNN().psum_buffer_bytes == 8 * 1024
        assert SparTenSNN().per_timestep_overhead_cycles == 12
        assert (PTBSimulator().array.rows, PTBSimulator().array.cols) == (16, 4)

    def test_smaller_gospa_psum_buffer_spills_more(self, rng):
        from repro.baselines import GoSPASNN
        from repro.sparse.matrix import random_spike_tensor, random_weight_matrix

        spikes = random_spike_tensor(32, 256, 4, 0.8, silent_fraction=0.7, rng=rng)
        weights = random_weight_matrix(256, 128, 0.9, rng=rng)
        big = GoSPASNN(
            default_arch().with_overrides(**{"baseline.psum_buffer_bytes": 1 << 20})
        ).simulate_layer(spikes, weights)
        small = GoSPASNN(
            default_arch().with_overrides(**{"baseline.psum_buffer_bytes": 512})
        ).simulate_layer(spikes, weights)
        assert small.dram.get("psum") > big.dram.get("psum")


class TestArchCli:
    def test_run_with_arch_flag_and_dotted_set(self, capsys):
        from repro.api.cli import main
        from repro.api.result import ScenarioResult

        code = main(
            [
                "run",
                "dse-pe-scaling",
                "--arch",
                "loas-32nm",
                "--scale",
                "0.25",
                "--set",
                "pe_counts=(4,8,16)",
                "--set",
                "arch.memory.global_cache_bytes=131072",
                "--json",
            ]
        )
        assert code == 0
        result = ScenarioResult.from_json(capsys.readouterr().out)
        cycles = [result.payload["PE=%d" % count]["cycles"] for count in (4, 8, 16)]
        assert cycles == sorted(cycles, reverse=True)
        assert result.params["arch"] == "loas-32nm"
        assert result.params["arch_overrides"] == (
            ("memory.global_cache_bytes", 131072),
        )

    def test_arch_flag_collides_with_set(self):
        from repro.api.cli import main

        assert (
            main(
                [
                    "run",
                    "dse-pe-scaling",
                    "--arch",
                    "loas-32nm",
                    "--set",
                    "arch=loas-32nm",
                ]
            )
            == 2
        )

    def test_arch_flag_rejected_for_scenarios_without_arch(self):
        from repro.api.cli import main

        assert main(["run", "fig16-temporal", "--arch", "loas-32nm"]) == 2
