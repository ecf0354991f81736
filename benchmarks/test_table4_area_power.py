"""Benchmark regenerating Table IV and Figure 15: area and power breakdown."""

import pytest

from repro.experiments import format_table4

from conftest import run_once


def test_table4_and_fig15_area_power(benchmark):
    """Table IV / Figure 15: published component costs and power breakups."""
    data = run_once(benchmark, "table4-area-power", num_tppes=16, timesteps=4)
    assert data["system_area_mm2"]["total"] == pytest.approx(2.08, abs=0.02)
    assert data["system_power_mw"]["total"] == pytest.approx(188.9, abs=0.5)
    assert data["system_power_fraction"]["global_cache"] == pytest.approx(0.659, abs=0.01)
    assert data["system_power_fraction"]["tppes"] == pytest.approx(0.239, abs=0.01)
    assert data["tppe_power_fraction"]["fast_prefix"] == pytest.approx(0.518, abs=0.01)
    assert data["tppe_power_fraction"]["laggy_prefix"] == pytest.approx(0.114, abs=0.01)
    assert data["tppe_area_mm2"]["fast_prefix"] == pytest.approx(0.04)
    print("\n" + format_table4(data))
