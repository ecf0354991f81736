"""Benchmarks regenerating Table I (capabilities) and Table II (workloads)."""

import pytest

from repro.experiments import format_table1, format_table2

from conftest import run_once


def test_table1_capabilities(benchmark):
    """Table I: only LoAS supports dual sparsity with full temporal parallelism."""
    data = run_once(benchmark, "table1-capabilities")
    assert data["LoAS"]["weight_sparsity"] and data["LoAS"]["spike_sparsity"]
    assert data["LoAS"]["parallelism"] == "S+fully-T"
    assert not data["PTB"]["weight_sparsity"]
    print("\n" + format_table1(data))


def test_table2_workload_statistics(benchmark):
    """Table II: generated workloads reproduce the published sparsity numbers."""
    data = run_once(benchmark, "table2-workloads", scale=0.5, seed=0)
    for layer in ("A-L4", "V-L8", "R-L19", "T-HFF"):
        stats = data[layer]
        assert stats["measured_spike_sparsity"] == pytest.approx(stats["target_spike_sparsity"], abs=0.02)
        assert stats["measured_silent_fraction"] == pytest.approx(stats["target_silent_fraction"], abs=0.02)
        assert stats["measured_weight_sparsity"] == pytest.approx(stats["target_weight_sparsity"], abs=0.01)
        assert stats["measured_silent_fraction_ft"] > stats["measured_silent_fraction"]
    print("\n" + format_table2(data))
