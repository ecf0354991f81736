"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest


def pytest_configure(config: pytest.Config) -> None:
    # The pool-backed cache tests carry `timeout` marks enforced by
    # pytest-timeout (a [test] extra, installed in CI) so a wedged worker
    # pool cannot hang the suite.  Registering the marker keeps the suite
    # clean on environments without the plugin, where the marks are inert.
    config.addinivalue_line(
        "markers",
        "timeout(seconds): per-test time limit, enforced when pytest-timeout "
        "is installed",
    )

from repro.snn.workloads import LayerWorkload, SparsityProfile
from repro.snn.network import LayerShape
from repro.sparse.matrix import random_spike_tensor, random_weight_matrix


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic random generator for reproducible tests."""
    return np.random.default_rng(1234)


@pytest.fixture
def small_layer(rng) -> tuple[np.ndarray, np.ndarray]:
    """A small dual-sparse layer: spikes (8, 96, 4) and weights (96, 24)."""
    spikes = random_spike_tensor(8, 96, 4, spike_sparsity=0.8, silent_fraction=0.65, rng=rng)
    weights = random_weight_matrix(96, 24, weight_sparsity=0.9, rng=rng)
    return spikes, weights


@pytest.fixture
def medium_layer(rng) -> tuple[np.ndarray, np.ndarray]:
    """A medium dual-sparse layer: spikes (16, 512, 4) and weights (512, 64)."""
    spikes = random_spike_tensor(16, 512, 4, spike_sparsity=0.82, silent_fraction=0.7, rng=rng)
    weights = random_weight_matrix(512, 64, weight_sparsity=0.95, rng=rng)
    return spikes, weights


@pytest.fixture
def tiny_workload() -> LayerWorkload:
    """A tiny named layer workload reusing the V-L8 sparsity profile."""
    profile = SparsityProfile(0.881, 0.765, 0.868, 0.968)
    return LayerWorkload(LayerShape("tiny", m=8, k=160, n=32, t=4), profile)
