"""Tests of the benchmark's own code: span arithmetic, statistics, inputs, names."""

from __future__ import annotations

import functools
import json
import re
from pathlib import Path

import pytest

from perfbench import run, spans, stats, streams
from perfbench.spans import Span

BENCHMARK = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _span(ident, parent, name, start, end, pid=1, **attrs):
    return Span(ident, parent, name, start, end, pid=pid, request=1, attrs=attrs)


def test_self_time_subtracts_children_once():
    nested = [
        _span(1, None, "request", 0.0, 10.0),
        _span(2, 1, "api.run", 1.0, 4.0),
        _span(3, 1, "api.run", 5.0, 9.0),
        _span(4, 3, "runner.plan", 6.0, 7.0),
        # Overlapping children of one span are covered once.
        _span(5, 3, "arch.resolve", 6.5, 8.0),
    ]
    selfs = spans.self_times(nested)
    assert selfs[(1, 1)] == pytest.approx(3.0)
    assert selfs[(1, 2)] == pytest.approx(3.0)
    assert selfs[(1, 3)] == pytest.approx(2.0)
    assert selfs[(1, 4)] == pytest.approx(1.0)
    assert sum(selfs.values()) == pytest.approx(10.0 + 0.5)


def test_request_totals_account_for_the_whole_tree():
    tree = [
        _span(1, None, "request", 0.0, 10.0),
        _span(2, 1, "api.run", 0.5, 9.5, failed=1),
        _span(3, 2, "runner.pool", 1.0, 9.0, processes=2),
        # Two worker processes, each with its own root task span.
        _span(1, None, "runner.task", 2.0, 8.0, pid=7),
        _span(2, 1, "runner.partition", 2.5, 7.5, pid=7),
        _span(3, 2, "engine.cache.evaluate", 3.0, 4.0, pid=7, hits=0, disk_hits=1, misses=0),
        _span(1, None, "runner.task", 3.0, 6.0, pid=8),
        _span(2, 1, "snn.generate", 3.5, 5.5, pid=8),
    ]
    totals = spans.request_totals(tree)
    named = sum(value for key, value in totals.items()
                if key.endswith(".self_s") and key != "runner.partition.busy_s")
    assert totals["trace.request_s"] == pytest.approx(10.0)
    assert totals["trace.tree_s"] == pytest.approx(10.0 + 6.0 + 3.0)
    assert named + totals["trace.unaccounted_s"] == pytest.approx(totals["trace.tree_s"])
    # Unaccounted: the request root's own 1 s plus the tasks' bootstrap 1 s + 1 s.
    assert totals["trace.unaccounted_s"] == pytest.approx(3.0)
    assert totals["runner.pool.startup_s"] == pytest.approx(1.0)
    assert totals["runner.pool.critical_path_s"] == pytest.approx(6.0)
    assert totals["runner.pool.idle_frac"] == pytest.approx(1 - 9.0 / 16.0)
    assert totals["engine.cache.lower_hits"] == 1
    assert totals["api.failed"] == 1

    metrics = spans.per_layer([totals, totals], resident_mb=1.0, overhead_frac=0.1)
    assert set(metrics) == set(spans.PER_LAYER_UNITS)
    assert metrics["engine.cache.hit_ratio"] == 1.0
    assert metrics["api.requests"] == 2


@pytest.mark.parametrize(
    "count, rank, expected_rank, expected_value",
    [
        (40, 75.0, 75.0, 29),    # exactly ten samples beyond p75
        (39, 75.0, 50.0, 19),    # nine beyond p75: fall back down the ladder
        (850, 95.0, 95.0, 807),
        (5000, 95.0, 95.0, 4749),  # more samples never raise the fixed rank
        (12, 95.0, 50.0, 5),     # too few for any ladder rank: the median
    ],
)
def test_tail_leaves_ten_samples_beyond(count, rank, expected_rank, expected_value):
    values = list(range(count))[::-1]
    value, used, beyond = stats.tail(values, rank)
    assert (used, value) == (expected_rank, expected_value)
    assert beyond == sum(1 for v in values if v > value)
    assert beyond >= stats.TAIL_BEYOND or used == stats.LADDER[-1]


def test_request_generators_are_seed_deterministic():
    first = [point for point, _ in zip(streams.dse_stream(3), range(200))]
    again = [point for point, _ in zip(streams.dse_stream(3), range(200))]
    other = [point for point, _ in zip(streams.dse_stream(4), range(200))]
    assert first == again != other
    assert streams.scenario_seeds("paper-cold", 3, 8) == streams.scenario_seeds("paper-cold", 3, 8)
    assert streams.scenario_seeds("paper-cold", 3, 8) != streams.scenario_seeds("paper-cold", 4, 8)
    assert len(set(streams.scenario_seeds("tiered-pool", 3, 50))) == 50


def test_design_points_are_pure_cost_and_distinct():
    points = streams.design_points()
    assert len(points) == len(set(points)) == 192
    for preset, overrides in points:
        assert preset in streams.PRESETS
        assert "pe.timesteps" not in dict(overrides)
        groups = [path.split(".")[0] for path, _ in overrides]
        assert len(groups) == len(set(groups))


def test_benchmark_json_follows_the_contract():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    assert BENCHMARK["paths"] == ["perfbench"]
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(streams.WORKLOADS)
    names = [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    names += [w["name"] for w in BENCHMARK["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for metric in BENCHMARK["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert UNIT.match(metric["unit"]) and 0 < metric["bound"] <= 0.25
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == spans.PER_LAYER_UNITS
    for metric in BENCHMARK["per_layer"]:
        assert set(metric) == {"name", "unit", "better"} and UNIT.match(metric["unit"])


def _current(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_tracer_records_and_unwraps_cleanly(tmp_path):
    pytest.importorskip("repro")
    import numpy as np
    from repro.engine import LayerEvaluation
    from repro.snn.network import LayerShape
    from repro.snn.workloads import LayerWorkload, SparsityProfile

    workload = LayerWorkload(LayerShape("L", 8, 16, 8, 4), SparsityProfile(0.8, 0.5, 0.6, 0.7))
    tracer = spans.Tracer(tmp_path)
    tracer.install()
    patches = list(tracer._patches)
    cached = list(tracer._cached)
    try:
        assert len(patches) > 20 and len(cached) == 4
        assert all(_current(owner, attr) is not original for owner, attr, original in patches)
        tracer.request = 1
        root = tracer.open("request")
        evaluation = LayerEvaluation(*workload.generate(rng=np.random.default_rng(0)))
        evaluation.matches
        evaluation.matches
        tracer.close(root)
    finally:
        tracer.uninstall()
    for owner, attr, original in patches:
        assert _current(owner, attr) is original, (owner, attr)
    for descriptor, function in cached:
        assert descriptor.func is function
        assert isinstance(LayerEvaluation.__dict__[descriptor.attrname], functools.cached_property)
    names = [span.name for span in tracer.collect()]
    assert names.count("snn.generate") == 1
    assert names.count("engine.evaluation.matches") == 1
    # Calls after uninstalling record nothing.
    LayerEvaluation(*workload.generate(rng=np.random.default_rng(1))).matches
    assert tracer.collect() == []


def test_a_failing_call_is_recorded_and_reraised(tmp_path):
    tracer = spans.Tracer(tmp_path)

    def failing():
        raise KeyError("missing")

    wrapped = tracer.wrap(failing, "api.run", probe=lambda args, kwargs: lambda out: {"n": len(out)})
    with pytest.raises(KeyError):
        wrapped()
    [span] = tracer.collect()
    assert span.attrs == {"failed": 1}
    assert not tracer.stack
