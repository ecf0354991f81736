"""The inner-join matrices in their narrow dtype.

``LayerEvaluation.matches`` and ``.true_acs`` are stored in
``join_dtype(K, T)``, the narrowest unsigned dtype covering ``K * T``
(uint16 at paper scale).  Under NEP 50 ``uint16 + int`` stays uint16, so
every consumer widens first; these tests run the consumers at the dtype's
edges, where an unwidened sum would wrap, against a float64 join.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines import SparTenSNN
from repro.core import LoASSimulator
from repro.engine import LayerEvaluation
from repro.engine.evaluation import join_dtype
from repro.engine.serde import pack_payload, unpack_payload
from repro.runner import SIMULATOR_FACTORIES
from repro.snn.network import LayerShape
from repro.snn.workloads import LayerWorkload, SparsityProfile
from repro.sparse.matrix import random_spike_tensor, random_weight_matrix

#: The simulators that read the (M, N) join matrices.
JOIN_CONSUMERS = (LoASSimulator, SparTenSNN)


def float64_join(evaluation: LayerEvaluation) -> tuple[np.ndarray, np.ndarray]:
    """Matches and true accumulations from dense float64 arithmetic."""
    spikes = evaluation.spikes.astype(np.float64)
    weight_mask = (evaluation.weights != 0).astype(np.float64)
    return (spikes.max(axis=2, initial=0) @ weight_mask, spikes.sum(axis=2) @ weight_mask)


def with_float64_join(evaluation: LayerEvaluation) -> LayerEvaluation:
    """The same layer with a float64 join seeded, as the older entries hydrate."""
    reference = LayerEvaluation(evaluation.packed, evaluation.weights)
    reference.__dict__["matches"], reference.__dict__["true_acs"] = float64_join(evaluation)
    return reference


def assert_simulations_identical(a, b):
    assert a.cycles == b.cycles
    assert a.dram.as_dict() == b.dram.as_dict()
    assert dict(a.energy.entries) == dict(b.energy.entries)
    assert a.ops == b.ops


def saturated_layer(k: int, t: int, m: int = 2, n: int = 3) -> LayerEvaluation:
    """Every neuron fires at every timestep and every weight is non-zero.

    Each true-accumulation count is then exactly ``K * T`` and each match
    count ``K``: the join dtype's largest value at its edge (with ``T = 1``
    for the matches).
    """
    return LayerEvaluation(np.ones((m, k, t), dtype=np.uint8), np.ones((k, n), dtype=np.int8))


class TestJoinDtype:
    @pytest.mark.parametrize(
        "k, t, dtype",
        (
            (13107, 5, np.uint16),
            (65535, 1, np.uint16),
            (16384, 4, np.uint32),
            (0, 4, np.uint8),
            (160, 0, np.uint8),
        ),
        ids=("KT=65535", "K=65535", "KT=65536", "K=0", "T=0"),
    )
    def test_the_join_takes_the_narrowest_dtype_covering_k_times_t(self, k, t, dtype):
        assert join_dtype(k, t) == dtype
        evaluation = saturated_layer(k, t)
        assert evaluation.matches.dtype == dtype and evaluation.true_acs.dtype == dtype
        assert int(evaluation.true_acs.max()) == k * t
        matches, true_acs = float64_join(evaluation)
        assert np.array_equal(evaluation.matches, matches)
        assert np.array_equal(evaluation.true_acs, true_acs)

    @pytest.mark.parametrize(
        "k, t",
        ((13107, 5), (65535, 1), (16384, 4), (0, 4)),
        ids=("KT=65535", "K=65535", "KT=65536", "K=0"),
    )
    @pytest.mark.parametrize("simulator", JOIN_CONSUMERS, ids=lambda cls: cls.__name__)
    def test_consumers_equal_a_float64_join_at_the_edges(self, k, t, simulator):
        narrow = saturated_layer(k, t)
        reference = with_float64_join(narrow)
        assert narrow.total_matches == reference.total_matches
        assert narrow.true_accumulations == reference.true_accumulations
        assert narrow.true_accumulations == float(2 * 3 * k * t)
        assert_simulations_identical(
            simulator().simulate_layer(*narrow.tensors, evaluation=narrow),
            simulator().simulate_layer(*reference.tensors, evaluation=reference),
        )


class TestOlderEntries:
    def test_an_entry_with_a_float_join_hydrates_to_identical_results(self):
        profile = SparsityProfile(0.881, 0.765, 0.868, 0.968)
        workload = LayerWorkload(LayerShape("tiny", m=8, k=160, n=32, t=4), profile)
        spikes, weights = workload.generate(rng=np.random.default_rng(5))

        def simulate_all(evaluation):
            results = [
                factory().simulate_workload(workload, evaluation=evaluation)
                for factory in SIMULATOR_FACTORIES.values()
            ]
            preprocessed = LoASSimulator().simulate_workload(
                workload, evaluation=evaluation, preprocess=True
            )
            return results + [preprocessed]

        fresh = LayerEvaluation(spikes, weights)
        expected = simulate_all(fresh)
        arrays, meta = fresh.dehydrate()
        widened = [name for name in arrays if name.endswith(("d_matches", "d_true_acs"))]
        assert len(widened) == 4  # the parent's and the preprocessed child's
        for name in widened:
            arrays[name] = arrays[name].astype(np.float64)
        hydrated = LayerEvaluation.hydrate(*unpack_payload(pack_payload(arrays, meta)))
        assert hydrated.matches.dtype == np.float64
        assert hydrated.preprocessed(1).true_acs.dtype == np.float64
        for got, want in zip(simulate_all(hydrated), expected):
            assert_simulations_identical(got, want)


class TestJoinBounds:
    @settings(max_examples=30, deadline=None)
    @given(
        m=st.integers(1, 6),
        k=st.integers(1, 64),
        n=st.integers(1, 6),
        t=st.integers(1, 10),
        spike_sparsity=st.floats(0.0, 0.95),
        silent_fraction=st.floats(0.0, 0.9),
        weight_sparsity=st.floats(0.0, 0.95),
        seed=st.integers(0, 2**16),
    )
    def test_matches_bound_true_accumulations(
        self, m, k, n, t, spike_sparsity, silent_fraction, weight_sparsity, seed
    ):
        rng = np.random.default_rng(seed)
        spikes = random_spike_tensor(m, k, t, spike_sparsity, silent_fraction, rng=rng)
        weights = random_weight_matrix(k, n, weight_sparsity, rng=rng)
        parent = LayerEvaluation(spikes, weights)
        for evaluation in (parent, parent.preprocessed(1)):
            assert evaluation.matches.dtype == join_dtype(k, t)
            matches = evaluation.matches.astype(np.int64)
            true_acs = evaluation.true_acs.astype(np.int64)
            assert np.all(matches <= true_acs)
            assert np.all(true_acs <= t * matches)
