"""Public API: Session façade, streaming, JSON schema, CLI, registry errors.

The acceptance contract of the API redesign:

* ``Session.stream()`` yields partitions incrementally and order-
  independently; the merged result is bit-identical to ``Session.run()``
  and to executing the registered plan directly, for sweep scenarios in
  both serial and 2-worker modes,
* ``ScenarioResult.to_json()`` -> ``from_json()`` round-trips (including
  payloads of raw ``SimulationResult`` dataclasses),
* registry error paths (unknown scenario, duplicate registration, unknown
  simulator key) raise clear ``KeyError`` / ``ValueError`` messages.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

import repro
from repro.api import (
    SCHEMA_VERSION,
    PartitionResult,
    ScenarioResult,
    Session,
)
from repro.api.cli import main as cli_main
from repro.engine import (
    CacheEntry,
    CacheStats,
    DiskEvaluationCache,
    LayerEvaluation,
    WorkloadEvaluationCache,
    default_cache,
)
from repro.runner import Scenario, SimulatorSpec, SweepRunner, get_scenario, register_scenario
from repro.runner.scenario import _SCENARIOS
from repro.snn.workloads import LayerWorkload, SparsityProfile
from repro.snn.network import LayerShape

SCALE = 0.06
SEED = 1

#: Two sweep-shaped scenarios with >= 2 partitions each (so the 2-worker
#: pool genuinely interleaves), one returning raw SimulationResults and one
#: returning plain floats.
SWEEP_CASES = (
    ("layers", {"layers": ("V-L8", "A-L4"), "scale": SCALE, "seed": SEED}),
    ("fig5-psum-traffic", {"layers": ("V-L8", "A-L4"), "scale": SCALE, "seed": SEED}),
)


# --------------------------------------------------------------------- #
# Streaming == batch == direct plan execution, serial and pooled
# --------------------------------------------------------------------- #
class TestStreamingEquivalence:
    @pytest.mark.parametrize("name,params", SWEEP_CASES)
    @pytest.mark.parametrize("workers", [None, 2])
    def test_stream_matches_run_and_legacy(self, name, params, workers):
        with Session(workers=workers) as session:
            batch = session.run(name, **params)

            stream = session.stream(name, **params)
            partitions = list(stream)

        # Incremental: one PartitionResult per plan partition, each seen
        # exactly once whatever order the pool completed them in.
        assert all(isinstance(p, PartitionResult) for p in partitions)
        total = partitions[0].total
        assert len(partitions) == total
        assert sorted(p.index for p in partitions) == list(range(total))
        assert total >= 2
        for partition in partitions:
            assert partition.scenario == name
            assert partition.seed == SEED
            assert len(partition.results) == len(partition.cells)

        # Merged payload is bit-identical to the batch call...
        assert stream.result.payload == batch.payload
        assert stream.result.params == batch.params

        # ...and to executing the registered build + shape directly.
        scenario = get_scenario(name)
        merged = dict(scenario.defaults, **params)
        plan = scenario.build(**merged)
        direct = scenario.shape(SweepRunner(workers=workers).run(plan), **merged)
        assert direct == batch.payload

    def test_stream_result_requires_exhaustion(self):
        session = Session()
        stream = session.stream("fig5-psum-traffic", layers=("V-L8",), scale=SCALE)
        with pytest.raises(RuntimeError):
            stream.result
        assert stream.collect().payload == session.run(
            "fig5-psum-traffic", layers=("V-L8",), scale=SCALE
        ).payload

    def test_stream_rejects_bespoke_scenarios(self):
        with pytest.raises(ValueError, match="bespoke"):
            Session().stream("table1-capabilities")


# --------------------------------------------------------------------- #
# Session policy: defaults, overrides, resources fixed at construction
# --------------------------------------------------------------------- #
class TestSessionPolicy:
    def test_session_scale_default_applies_to_declaring_scenarios(self):
        configured = Session(scale=SCALE)
        explicit = Session()
        assert (
            configured.run("layers", layers=("V-L8",), seed=SEED).payload
            == explicit.run("layers", layers=("V-L8",), scale=SCALE, seed=SEED).payload
        )

    def test_per_call_scale_beats_session_default(self):
        session = Session(scale=0.5)
        result = session.run("table2-workloads", scale=0.05)
        assert result.params["scale"] == 0.05

    def test_session_workers_default_is_soft_for_bespoke(self):
        # A session-level pool is a default, not a per-scenario request:
        # bespoke scenarios that cannot honour it run serially.
        payload = Session(workers=2).run("table1-capabilities").payload
        assert "LoAS" in payload

    def test_execution_resources_are_set_only_at_construction(self, tmp_path):
        # A run or a stream takes scenario parameters only: a pool or a
        # disk tier asked for per call fails loudly, naming the argument.
        with pytest.raises(TypeError, match="does not accept parameter 'workers'"):
            Session().run("networks", workers=2)
        with pytest.raises(TypeError, match="does not accept parameter 'cache_dir'"):
            Session().stream("networks", cache_dir=tmp_path / "tier")
        with pytest.raises(TypeError, match="lru_maxsize"):
            Session(lru_maxsize=4)
        assert not (tmp_path / "tier").exists()

    def test_fig18_runs_on_the_session_resources(self, tmp_path):
        session = Session(workers=2, cache_dir=tmp_path / "tier")
        result = session.run("fig18-snn-vs-ann", network="alexnet", scale=SCALE, seed=SEED)
        # Provenance reports what actually ran, and the record stays
        # serialisable even though the session was given a pathlib.Path.
        assert result.provenance["workers"] == 2
        assert result.provenance["cache_dir"] == str(tmp_path / "tier")
        assert ScenarioResult.from_json(result.to_json()) == result
        plain = Session().run("fig18-snn-vs-ann", network="alexnet", scale=SCALE, seed=SEED)
        assert result.payload == plain.payload

    def test_single_partition_records_in_process_counters(self):
        # One (workload, seed, finetuned, layer type) partition never pools,
        # so the LRU counters the record carries are complete.
        result = Session(workers=2).run("fig19-dense-baselines", network="alexnet", scale=0.05)
        assert result.provenance["cache"]["scope"] == "in-process"
        assert result.provenance["partitions"] == 1
        streamed = Session().stream("fig19-dense-baselines", network="alexnet", scale=0.05)
        assert result.payload == streamed.collect().payload
        # fig18's ANN cells walk ANN layers: a partition of their own.
        fig18 = Session().run("fig18-snn-vs-ann", network="alexnet", scale=0.05)
        assert fig18.provenance["partitions"] == 2

    def test_abandoned_stream_releases_disk_tier_on_close(self, tmp_path):
        session = Session(cache_dir=tmp_path / "tier")
        stream = session.stream("fig5-psum-traffic", layers=("V-L8", "A-L4"), scale=SCALE)
        next(stream)  # start it, then abandon mid-sweep
        stream.close()
        # An unrelated tier-less run does not write into the dir.
        before = len(session.disk_tier)
        Session().run("fig5-psum-traffic", layers=("V-L8",), scale=0.05)
        assert len(session.disk_tier) == before
        # A closed, partially consumed stream refuses to hand out a merged
        # result instead of finalising over half-filled slots.
        with pytest.raises(RuntimeError, match="closed before exhaustion"):
            stream.collect()

    def test_stream_usable_as_context_manager(self):
        with Session().stream("fig5-psum-traffic", layers=("V-L8",), scale=SCALE) as stream:
            partitions = list(stream)
        assert len(partitions) == 2
        assert stream.result.scenario == "fig5-psum-traffic"

    def test_interleaved_streams_share_the_disk_tier_correctly(self, tmp_path):
        session = Session(cache_dir=tmp_path / "tier")
        reference = Session().run("fig5-psum-traffic", layers=("V-L8", "A-L4"), scale=SCALE)
        first = session.stream("fig5-psum-traffic", layers=("V-L8", "A-L4"), scale=SCALE)
        second = session.stream("fig5-psum-traffic", layers=("V-L8", "A-L4"), scale=SCALE)
        next(first)
        next(second)
        assert first.collect().payload == reference.payload
        assert second.collect().payload == reference.payload

    def test_session_mp_context_reaches_the_pool(self, monkeypatch):
        import multiprocessing
        from types import SimpleNamespace

        from repro.runner import executor

        methods = []

        def get_context(method=None):
            methods.append(method)
            return multiprocessing.get_context(method)

        monkeypatch.setattr(
            executor,
            "multiprocessing",
            SimpleNamespace(
                get_all_start_methods=multiprocessing.get_all_start_methods,
                get_context=get_context,
            ),
        )
        # Two networks x two variants -> four partitions, so the pool
        # genuinely starts.
        params = {"networks": ("alexnet", "vgg16"), "scale": 0.05, "seed": SEED}
        result = Session(workers=2, mp_context="spawn").run("fig13-traffic", **params)
        assert methods == ["spawn"]
        assert result.provenance["partitions"] == 4
        reference = Session().run("fig13-traffic", **params)
        assert result.payload == reference.payload  # policy changes nothing numeric

    def test_experiment_module_reload_is_harmless(self):
        import importlib

        import repro.experiments.tables as tables

        importlib.reload(tables)  # re-registers table1/2/4: must not raise
        assert "table2-workloads" in Session().scenarios()

    def test_fig18_uses_the_session_owned_tier(self, tmp_path):
        from repro.engine import clear_default_cache

        session = Session(cache_dir=tmp_path / "tier", disk_max_bytes=50_000_000)
        clear_default_cache()
        session.run("fig18-snn-vs-ann", network="alexnet", scale=SCALE, seed=SEED)
        # The run went through the session's own DiskEvaluationCache object
        # (not a rebuilt one), so its counters saw the stores.
        assert session.disk_tier.stats().stores >= 1

    def test_stream_provenance_ignores_work_before_first_partition(self):
        session = Session()
        session.run("fig5-psum-traffic", layers=("V-L8",), scale=SCALE)  # warm up
        expected = session.run("fig5-psum-traffic", layers=("V-L8",), scale=SCALE)
        stream = session.stream("fig5-psum-traffic", layers=("V-L8",), scale=SCALE)
        # Interleave an unrelated run between stream() and consumption: its
        # cache activity must not leak into the stream's counter deltas
        # (baselines are captured at first __next__, not at stream()).
        session.run("layers", layers=("A-L4",), scale=SCALE, seed=SEED)
        assert stream.collect().provenance["cache"] == expected.provenance["cache"]

    def test_provenance_scope_reflects_actual_execution_mode(self):
        session = Session(workers=2)
        # One partition: the executor falls back to serial, and the record
        # must say the in-process counters are complete.
        single = session.run("layers", layers=("V-L8",), scale=SCALE, seed=SEED)
        assert single.provenance["cache"]["scope"] == "in-process"
        # Two partitions: genuinely pooled, counters live in the workers.
        pooled = session.run("layers", layers=("V-L8", "A-L4"), scale=SCALE, seed=SEED)
        assert "worker processes" in pooled.provenance["cache"]["scope"]

    def test_cache_stats_is_read_only(self, tmp_path, capsys):
        missing = tmp_path / "never-created"
        assert cli_main(["cache", "stats", "--cache-dir", str(missing)]) == 0
        capsys.readouterr()
        assert not missing.exists()  # inspecting stats must not mkdir

    def test_session_accepts_a_tier_instance_without_rewrapping(self, tmp_path):
        tier = DiskEvaluationCache(tmp_path / "tier", max_bytes=1_000_000)
        session = Session(cache_dir=tier)
        assert session.disk_tier is tier  # budget and counters preserved

    @pytest.mark.parametrize(
        "name, base",
        (("networks", {"networks": ("alexnet",), "scale": 0.05}), ("table2-workloads", {"scale": 0.05})),
    )
    @pytest.mark.parametrize(
        "key, value, error",
        (
            ("scale", float("nan"), ValueError),
            ("scale", float("inf"), ValueError),
            ("scale", 0.0, ValueError),
            ("scale", "0.5", TypeError),
            ("scale", True, TypeError),
            ("seed", 1.5, TypeError),
            ("seed", True, TypeError),
            ("seed", -1, ValueError),
        ),
        ids=("nan-scale", "inf-scale", "zero-scale", "str-scale", "bool-scale",
             "float-seed", "bool-seed", "negative-seed"),
    )
    def test_malformed_scale_or_seed_fails_before_any_work(self, name, base, key, value, error):
        misses = default_cache().stats().misses
        with pytest.raises(error, match=key):
            Session().run(name, **{**base, key: value})
        assert default_cache().stats().misses == misses  # nothing was generated

    @pytest.mark.parametrize("scale", (float("nan"), -0.5, "0.5", True))
    def test_session_scale_is_checked_when_built(self, scale):
        with pytest.raises((TypeError, ValueError), match="scale"):
            Session(scale=scale)

    def test_unknown_param_rejected_with_clear_message_in_api(self):
        with pytest.raises(TypeError, match="does not accept parameter 'bogus'"):
            Session().run("table2-workloads", bogus=1)
        with pytest.raises(TypeError, match="does not accept parameter 'bogus'"):
            Session().stream("fig5-psum-traffic", bogus=1)

    def test_disk_tier_duck_types_as_a_path(self, tmp_path):
        from pathlib import Path

        tier = DiskEvaluationCache(tmp_path / "tier")
        # The tier prints as its directory but is not a path: code that
        # needs the directory reads ``tier.directory``.
        assert str(tier) == str(tmp_path / "tier")
        with pytest.raises(TypeError):
            Path(tier)

    def test_session_has_no_remote_option(self):
        with pytest.raises(TypeError):
            Session(cache_url="tcp://localhost:1")
        with pytest.raises(TypeError):
            Session().run("layers", layers=("V-L8",), scale=SCALE, cache_url="tcp://localhost:1")

    def test_provenance_cache_record_names_two_levels(self, tmp_path):
        result = Session(cache_dir=tmp_path / "tier").run(
            "layers", layers=("V-L8",), scale=SCALE, seed=SEED
        )
        assert "cache_url" not in result.provenance
        cache = result.provenance["cache"]
        assert not any("remote" in key for key in cache)
        assert "disk_hits" in cache and "lru_hits" in cache

    def test_provenance_records_version_seeds_and_cache(self):
        result = Session().run("layers", layers=("V-L8",), scale=SCALE, seed=SEED)
        assert result.provenance["package_version"] == repro.__version__
        assert result.provenance["seeds"] == (SEED,)
        assert result.provenance["cells"] == 4
        assert result.provenance["partitions"] == 1
        cache = result.provenance["cache"]
        assert cache["lru_hits"] + cache["lru_misses"] >= 1


# --------------------------------------------------------------------- #
# ScenarioResult JSON schema
# --------------------------------------------------------------------- #
class TestScenarioResultSchema:
    def test_round_trip_with_simulation_result_payload(self):
        result = Session().run("layers", layers=("V-L8",), scale=SCALE, seed=SEED)
        decoded = ScenarioResult.from_json(result.to_json())
        assert decoded == result
        # The payload really is reconstructed dataclasses, not dicts.
        restored = decoded.payload["V-L8"]["LoAS"]
        assert restored.dram.as_dict() == result.payload["V-L8"]["LoAS"].dram.as_dict()
        assert restored.energy.total() == result.payload["V-L8"]["LoAS"].energy.total()

    def test_round_trip_preserves_tuples_in_params(self):
        result = Session().run("fig5-psum-traffic", layers=("V-L8",), scale=SCALE)
        decoded = ScenarioResult.from_json(result.to_json())
        assert decoded.params["layers"] == ("V-L8",)
        assert isinstance(decoded.params["layers"], tuple)
        assert decoded.provenance["seeds"] == result.provenance["seeds"]

    def test_bespoke_payload_round_trip(self):
        result = Session().run("table2-workloads", scale=0.05)
        assert ScenarioResult.from_json(result.to_json()) == result

    def test_unknown_schema_version_rejected(self):
        result = Session().run("table1-capabilities")
        document = json.loads(result.to_json())
        document["schema_version"] = SCHEMA_VERSION + 1
        with pytest.raises(ValueError, match="schema version"):
            ScenarioResult.from_json(json.dumps(document))

    def test_unserialisable_payload_raises_cleanly(self):
        record = ScenarioResult(scenario="x", params={}, payload=object())
        with pytest.raises(TypeError, match="cannot serialise"):
            record.to_json()

    def test_numpy_scalars_inside_simulation_results_are_coerced(self):
        result = Session().run("layers", layers=("V-L8",), scale=SCALE, seed=SEED)
        target = result.payload["V-L8"]["LoAS"]
        target.extra["probe"] = np.int64(3)  # simulators assign raw np values
        try:
            decoded = ScenarioResult.from_json(result.to_json())
        finally:
            del target.extra["probe"]
        assert decoded.payload["V-L8"]["LoAS"].extra["probe"] == 3

    def test_non_string_dict_keys_rejected_not_coerced(self):
        # Coercing 1 -> "1" would silently break from_json(to_json()) == x.
        record = ScenarioResult(scenario="x", params={}, payload={1: 2.0})
        with pytest.raises(TypeError, match="dict key"):
            record.to_json()


# --------------------------------------------------------------------- #
# Registry error paths
# --------------------------------------------------------------------- #
class TestRegistryErrors:
    def test_unknown_scenario_name_raises_keyerror_with_candidates(self):
        with pytest.raises(KeyError, match="unknown scenario 'fig99-nope'"):
            Session().run("fig99-nope")

    def test_duplicate_registration_raises(self):
        scenario = Scenario(name="test-api-duplicate", run=lambda **_: {})
        register_scenario(scenario)
        try:
            # The identical object re-registers silently, and so does the
            # reload-equivalent form (same module/qualname fresh function
            # objects, as importlib.reload produces)...
            register_scenario(scenario)
            register_scenario(Scenario(name="test-api-duplicate", run=lambda **_: {}))
            # ...but a genuinely different scenario under the same name is
            # an error.
            with pytest.raises(ValueError, match="already registered"):
                register_scenario(
                    Scenario(
                        name="test-api-duplicate",
                        description="a different experiment",
                        run=lambda **_: {},
                    )
                )

            def other_run(**_):
                return {"v": 2}

            with pytest.raises(ValueError, match="already registered"):
                register_scenario(Scenario(name="test-api-duplicate", run=other_run))
            # replace=True overrides on purpose.
            replacement = Scenario(name="test-api-duplicate", run=other_run)
            register_scenario(replacement, replace=True)
            assert _SCENARIOS["test-api-duplicate"] is replacement
        finally:
            del _SCENARIOS["test-api-duplicate"]

    def test_unknown_simulator_key_raises_keyerror_with_candidates(self):
        with pytest.raises(KeyError, match="unknown simulator 'Imaginary'"):
            SimulatorSpec("Imaginary")


# --------------------------------------------------------------------- #
# Cache stats
# --------------------------------------------------------------------- #
class TestCacheStats:
    def _workload(self, k: int) -> LayerWorkload:
        profile = SparsityProfile(0.881, 0.765, 0.868, 0.968)
        return LayerWorkload(LayerShape("tiny", m=8, k=k, n=16, t=4), profile)

    def test_lru_stats_report_hits_misses_and_evictions(self):
        cache = WorkloadEvaluationCache(maxsize=1)
        rng = np.random.default_rng(0)
        cache.evaluate(self._workload(96), rng)
        cache.evaluate(self._workload(128), rng)  # evicts the first entry
        stats = cache.stats()
        assert isinstance(stats, CacheStats)
        assert stats.misses == 2
        assert stats.evictions == 1
        assert stats.entries == 1
        assert stats.maxsize == 1

    def test_lru_resize_trims_and_counts_evictions(self):
        cache = WorkloadEvaluationCache(maxsize=4)
        rng = np.random.default_rng(0)
        for k in (96, 128, 160):
            cache.evaluate(self._workload(k), rng)
        cache.resize(1)
        assert len(cache) == 1
        assert cache.stats().evictions == 2

    def test_disk_stats_report_occupancy_and_evictions(self, tmp_path):
        tier = DiskEvaluationCache(tmp_path, max_bytes=1)  # one-entry budget
        state = {"state": 0}
        spikes = np.ones((4, 8, 2), dtype=np.uint8)
        weights = np.ones((8, 4), dtype=np.int8)
        tier.put(("a",), CacheEntry(LayerEvaluation(spikes, weights), state))
        tier.put(("b",), CacheEntry(LayerEvaluation(spikes, weights), state))  # pushes "a" out
        stats = tier.stats()
        assert stats.stores == 2
        assert stats.evictions >= 1
        assert stats.entries == 1
        assert stats.total_bytes > 0

    def test_session_cache_stats_shape(self, tmp_path):
        from repro.engine import clear_default_cache

        session = Session(cache_dir=tmp_path / "tier")
        clear_default_cache()  # force a miss so the run spills to the tier
        session.run("layers", layers=("V-L8",), scale=SCALE, seed=SEED)
        snapshot = session.cache_stats()
        assert isinstance(snapshot["lru"], CacheStats)
        assert isinstance(snapshot["disk"], CacheStats)
        assert snapshot["disk"].entries >= 1  # the serial run spilled tensors

    def test_a_run_walks_its_tier_once(self, tmp_path, monkeypatch):
        from repro.engine import clear_default_cache

        walks = []
        entry_files = DiskEvaluationCache._entry_files

        def counted(tier):
            walks.append(tier)
            return entry_files(tier)

        monkeypatch.setattr(DiskEvaluationCache, "_entry_files", counted)
        session = Session(cache_dir=tmp_path / "tier")
        for _ in range(2):  # a cold populate, then a disk-warm re-read
            clear_default_cache()
            walks.clear()
            result = session.run("layers", layers=("V-L8", "A-L4"), scale=SCALE, seed=SEED)
            assert len(walks) == 1  # provenance's disk_entries, not its counters
        monkeypatch.undo()
        cache = result.provenance["cache"]
        assert cache["disk_entries"] == session.cache_stats()["disk"].entries == 2
        assert (cache["disk_hits"], cache["disk_misses"], cache["disk_stores"]) == (2, 0, 0)
        assert cache["disk_refreshes"] == 0


# --------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------- #
class TestCli:
    def test_list_names_every_scenario(self, capsys):
        assert cli_main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("fig13-traffic", "table2-workloads", "networks"):
            assert name in out

    def test_describe_shows_defaults_and_streaming(self, capsys):
        assert cli_main(["describe", "fig13-traffic"]) == 0
        out = capsys.readouterr().out
        assert "sweep scenario" in out
        assert "networks = ('alexnet', 'vgg16', 'resnet19')" in out
        assert "--stream" in out

    def test_run_json_emits_a_decodable_record(self, capsys):
        assert cli_main(["run", "table2-workloads", "--scale", "0.05", "--json"]) == 0
        out = capsys.readouterr().out
        record = ScenarioResult.from_json(out)
        assert record.scenario == "table2-workloads"
        assert record.params["scale"] == 0.05
        assert record.provenance["package_version"] == repro.__version__

    def test_run_stream_reports_partitions_on_stderr(self, capsys):
        code = cli_main(
            [
                "run",
                "fig5-psum-traffic",
                "--scale",
                str(SCALE),
                "--set",
                "layers=('V-L8',)",
                "--stream",
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "[2/2]" in captured.err
        payload = json.loads(captured.out)
        assert "V-L8" in payload

    def test_run_stream_tells_a_networks_variants_apart(self, capsys):
        code = cli_main(
            ["run", "networks", "--scale", "0.05", "--set", "networks=('alexnet',)", "--stream"]
        )
        assert code == 0
        lines = capsys.readouterr().err.splitlines()
        # The counter runs in completion order, whichever partition ends first.
        assert [line.split(" ", 1)[0] for line in lines] == ["[1/2]", "[2/2]"]
        assert sorted(line.split(" ", 1)[1] for line in lines) == [
            "partition 0: alexnet @ seed 1: SparTen-SNN, GoSPA-SNN, Gamma-SNN, LoAS",
            "partition 1: alexnet @ seed 1: LoAS-FT",
        ]

    def test_run_payload_matches_session(self, capsys):
        assert cli_main(["run", "fig5-psum-traffic", "--scale", str(SCALE)]) == 0
        cli_payload = json.loads(capsys.readouterr().out)
        session_payload = Session().run("fig5-psum-traffic", scale=SCALE).payload
        assert cli_payload == session_payload

    def test_unknown_scenario_exits_2_with_message(self, capsys):
        assert cli_main(["run", "fig99-nope"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_reserved_set_keys_exit_2(self, capsys):
        assert cli_main(["run", "fig18-snn-vs-ann", "--set", "workers=2"]) == 2
        assert "--workers flag" in capsys.readouterr().err

    def test_unsupported_option_on_bespoke_exits_2(self, capsys):
        assert cli_main(["run", "table1-capabilities", "--workers", "2"]) == 2
        assert "does not support" in capsys.readouterr().err
        assert cli_main(["run", "table1-capabilities", "--stream"]) == 2
        assert "bespoke" in capsys.readouterr().err

    def test_unknown_scenario_param_exits_2(self, capsys):
        assert cli_main(["run", "fig5-psum-traffic", "--set", "no_such_param=1"]) == 2
        assert "does not accept parameter 'no_such_param'" in capsys.readouterr().err
        # Bespoke scenarios with undeclared-but-accepted params still work.
        assert cli_main(["run", "table2-workloads", "--seed", "3", "--scale", "0.05"]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize(
        "argv, message",
        (
            (["--set", "arch.pe.task_overhead_cycles=2.5"], "error: task_overhead_cycles must be an int, got 2.5"),
            (["--arch", "no-such-preset"], "unknown arch preset 'no-such-preset'"),
            (["--set", "arch.pe.no_such_field=3"], "unknown field 'no_such_field'"),
        ),
        ids=("fractional-field", "unknown-preset", "unknown-field"),
    )
    def test_a_rejected_design_point_exits_2_with_one_line(self, argv, message, capsys, monkeypatch):
        # Rejected before any partition runs: nothing is evaluated.
        monkeypatch.setattr(Session, "stream", lambda *args, **kwargs: pytest.fail("the run started"))
        assert cli_main(["run", "networks", "--scale", str(SCALE), *argv]) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize(
        "argv, name",
        ((["--scale", "nan"], "scale"), (["--seed", "-1"], "seed"), (["--workers", "-1"], "workers")),
    )
    def test_a_malformed_scale_or_seed_exits_2_with_one_line(self, argv, name, capsys, monkeypatch):
        monkeypatch.setattr(Session, "stream", lambda *args, **kwargs: pytest.fail("the run started"))
        assert cli_main(["run", "networks", *argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: %s must be" % name) and "Traceback" not in err
        assert len(err.strip().splitlines()) == 1

    def test_library_errors_keep_their_traceback(self):
        # A well-named param with a nonsense value fails inside the plan
        # builder: that is a real exception with a traceback, not a
        # flattened exit-2 one-liner.
        with pytest.raises(TypeError):
            cli_main(["run", "fig5-psum-traffic", "--set", "layers=3"])

    @pytest.mark.parametrize(
        "argv",
        (
            ["cache", "serve"],
            ["run", "table2-workloads", "--cache-url", "tcp://localhost:1"],
            ["cache", "stats", "--cache-url", "tcp://localhost:1"],
        ),
        ids=("cache-serve", "run-cache-url", "stats-cache-url"),
    )
    def test_remote_cache_commands_are_usage_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli_main(argv)
        assert exit_info.value.code == 2
        assert "usage:" in capsys.readouterr().err

    def test_cache_stats_json_has_two_levels(self, tmp_path, capsys):
        assert cli_main(["cache", "stats", "--cache-dir", str(tmp_path / "tier"), "--json"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert set(record) == {"lru", "disk"}
        assert record["disk"]["entries"] == 0

    def test_cache_stats_and_clear(self, tmp_path, capsys):
        tier = str(tmp_path / "tier")
        assert cli_main(["cache", "stats", "--cache-dir", tier]) == 0
        out = capsys.readouterr().out
        assert "lru (this process):" in out
        assert "total_bytes" in out
        assert cli_main(["cache", "clear", "--cache-dir", tier]) == 0
        assert "removed 0 disk entries" in capsys.readouterr().out
        # Without a disk tier there is nothing a fresh process could clear.
        assert cli_main(["cache", "clear"]) == 2
        assert "nothing to clear" in capsys.readouterr().err
