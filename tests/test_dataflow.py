"""Unit tests for the dataflow loop-nest analysis and t-placement."""

from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dataflow.loopnest import OPERAND_INDICES, LoopNest, all_orders, dataflow_base_order
from repro.dataflow.temporal import best_placement, enumerate_t_placements, ftp_loopnest
from repro.snn.layers import spmspm_reference

BOUNDS = {"m": 8, "n": 16, "k": 32, "t": 4}

#: Small bounds for executing a nest scalar by scalar; all distinct and at
#: least 2, so a loop wrapping around always changes the element it indexes.
EXEC_BOUNDS = {"m": 2, "n": 3, "k": 5, "t": 4}


def execute_loop_nest(nest, spikes, weights):
    """Run ``nest`` scalar by scalar; return ``C`` and the accesses per operand.

    Each operand has a one-element register per spatial lane (lanes that do
    not index it share one, a broadcast); loading a new element is an access.
    """
    temporal = nest.temporal_order()
    spatial = tuple(d for d in nest.order if d in nest.spatial)
    output = np.zeros((nest.bounds["m"], nest.bounds["n"], nest.bounds["t"]), dtype=np.int64)
    registers, accesses = {}, dict.fromkeys(OPERAND_INDICES, 0)
    for outer in product(*(range(nest.bounds[d]) for d in temporal)):
        for lane in product(*(range(nest.bounds[d]) for d in spatial)):
            index = dict(zip(temporal, outer)) | dict(zip(spatial, lane))
            for operand, dims in OPERAND_INDICES.items():
                lane_key = tuple(i for d, i in zip(spatial, lane) if d in dims)
                element = tuple(index[d] for d in sorted(dims))
                if registers.get((operand, lane_key)) != element:
                    registers[(operand, lane_key)] = element
                    accesses[operand] += 1
            m, n, k, t = (index[d] for d in ("m", "n", "k", "t"))
            output[m, n, t] += int(spikes[m, k, t]) * int(weights[k, n])
    return output, accesses


def random_layer(bounds, seed):
    rng = np.random.default_rng(seed)
    spikes = (rng.random((bounds["m"], bounds["k"], bounds["t"])) < 0.4).astype(np.uint8)
    weights = rng.integers(-4, 5, size=(bounds["k"], bounds["n"]))
    return spikes, weights


class TestLoopNest:
    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            LoopNest(order=("m", "n", "k"), bounds=BOUNDS)

    def test_rejects_missing_bounds(self):
        with pytest.raises(ValueError):
            LoopNest(order=("m", "n", "k", "t"), bounds={"m": 2})

    def test_rejects_unknown_spatial(self):
        with pytest.raises(ValueError):
            LoopNest(order=("m", "n", "k", "t"), bounds=BOUNDS, spatial=frozenset({"z"}))

    def test_iteration_space(self):
        nest = LoopNest(order=("m", "n", "k", "t"), bounds=BOUNDS)
        assert nest.iteration_space() == 8 * 16 * 32 * 4

    def test_operand_footprints(self):
        nest = LoopNest(order=("m", "n", "k", "t"), bounds=BOUNDS)
        assert nest.operand_footprint("A") == 8 * 32 * 4
        assert nest.operand_footprint("B") == 32 * 16
        assert nest.operand_footprint("C") == 8 * 16 * 4

    def test_classic_inner_product_refetch(self):
        # ANN IP (no t): A refetched N times, B refetched M times, C touched once.
        nest = LoopNest(order=("m", "n", "k", "t"), bounds={**BOUNDS, "t": 1})
        assert nest.refetch_factor("A") == pytest.approx(BOUNDS["n"])
        assert nest.refetch_factor("B") == pytest.approx(BOUNDS["m"])

    def test_ftp_t_innermost_spatial_keeps_ann_refetch(self):
        nest = ftp_loopnest(BOUNDS)
        # Spatially unrolling t keeps the same refetch factors as the ANN IP.
        assert nest.refetch_factor("A") == pytest.approx(BOUNDS["n"])
        assert nest.refetch_factor("B") == pytest.approx(BOUNDS["m"])

    def test_sequential_t_above_k_multiplies_b_refetch(self):
        # t between n and k: B is re-fetched T more times than the ANN IP.
        nest = LoopNest(order=("m", "n", "t", "k"), bounds=BOUNDS)
        assert nest.refetch_factor("B") == pytest.approx(BOUNDS["m"] * BOUNDS["t"])

    def test_latency_iterations_spatial_t(self):
        sequential = LoopNest(order=("m", "n", "k", "t"), bounds=BOUNDS)
        parallel = ftp_loopnest(BOUNDS)
        assert sequential.latency_iterations() == parallel.latency_iterations() * BOUNDS["t"]

    def test_depth_and_t_position(self):
        nest = LoopNest(order=("m", "t", "n", "k"), bounds=BOUNDS)
        assert nest.depth("t") == 1
        assert nest.t_position() == 1
        assert not nest.is_t_innermost()

    def test_all_orders_counts(self):
        assert len(all_orders()) == 24
        assert len(all_orders(include_t=False)) == 6

    def test_dataflow_base_orders(self):
        assert dataflow_base_order("IP") == ("m", "n", "k")
        assert dataflow_base_order("OP") == ("k", "m", "n")
        assert dataflow_base_order("Gust") == ("m", "k", "n")
        with pytest.raises(KeyError):
            dataflow_base_order("XYZ")


class TestTemporalPlacement:
    def test_enumeration_size(self):
        placements = enumerate_t_placements("IP", BOUNDS)
        # 4 insertion positions + 1 spatial variant at the innermost slot.
        assert len(placements) == 5

    def test_ftp_is_the_best_ip_placement_for_latency(self):
        placements = enumerate_t_placements("IP", BOUNDS)
        ftp = best_placement(BOUNDS)
        assert ftp.latency_iterations == min(p.latency_iterations for p in placements)

    def test_ftp_minimises_a_refetch_among_ip_placements(self):
        placements = [p for p in enumerate_t_placements("IP", BOUNDS) if not p.t_spatial]
        ftp = best_placement(BOUNDS)
        assert ftp.a_refetch <= min(p.a_refetch for p in placements)
        assert ftp.b_refetch <= min(p.b_refetch for p in placements)

    def test_op_always_multiplies_partial_sums_by_t(self):
        # Observation 2: OP generates >= T times the ANN partial sums for any
        # sequential t placement.
        ann = LoopNest(order=("k", "m", "n", "t"), bounds={**BOUNDS, "t": 1}).partial_sum_writes()
        for placement in enumerate_t_placements("OP", BOUNDS, include_spatial=False):
            assert placement.partial_sums >= ann * BOUNDS["t"]

    def test_sequential_t_always_multiplies_latency(self):
        # Observation 3: any sequential t placement pays T times the latency.
        for dataflow in ("IP", "OP", "Gust"):
            for placement in enumerate_t_placements(dataflow, BOUNDS, include_spatial=False):
                assert placement.latency_iterations == BOUNDS["m"] * BOUNDS["n"] * BOUNDS["k"] * BOUNDS["t"]

    def test_spatial_variant_recovers_ann_latency(self):
        spatial = [p for p in enumerate_t_placements("IP", BOUNDS) if p.t_spatial]
        assert len(spatial) == 1
        assert spatial[0].latency_iterations == BOUNDS["m"] * BOUNDS["n"] * BOUNDS["k"]


class TestFunctionalDataflows:
    """Executing a nest computes Equation (1) in any loop order, and the
    register-reuse access count of the execution is the analytical model."""

    def test_all_dataflows_match_reference(self):
        # Includes the FTP nest: IP with t innermost and spatially unrolled.
        spikes, weights = random_layer(EXEC_BOUNDS, seed=0)
        reference = spmspm_reference(spikes, weights)
        for dataflow in ("IP", "OP", "Gust"):
            for placement in enumerate_t_placements(dataflow, EXEC_BOUNDS):
                nest = LoopNest(
                    order=placement.order,
                    bounds=EXEC_BOUNDS,
                    spatial=frozenset({"t"}) if placement.t_spatial else frozenset(),
                )
                output, accesses = execute_loop_nest(nest, spikes, weights)
                assert np.array_equal(output, reference)
                assert accesses["A"] == placement.a_accesses
                assert accesses["B"] == placement.b_accesses
                assert accesses["C"] == placement.partial_sums

    @pytest.mark.parametrize("order", all_orders(), ids="-".join)
    def test_executed_order_matches_access_model(self, order):
        nest = LoopNest(order=order, bounds=EXEC_BOUNDS)
        spikes, weights = random_layer(EXEC_BOUNDS, seed=1)
        output, accesses = execute_loop_nest(nest, spikes, weights)
        assert np.array_equal(output, spmspm_reference(spikes, weights))
        for operand in OPERAND_INDICES:
            assert accesses[operand] == nest.operand_accesses(operand)
        assert accesses["C"] == nest.partial_sum_writes()

    @settings(max_examples=30, deadline=None)
    @given(
        order=st.sampled_from(all_orders()),
        sizes=st.tuples(*(st.integers(2, 4) for _ in range(4))),
        spatial_t=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equivalence_property(self, order, sizes, spatial_t, seed):
        bounds = dict(zip(("m", "n", "k", "t"), sizes))
        nest = LoopNest(
            order=order, bounds=bounds, spatial=frozenset({"t"}) if spatial_t else frozenset()
        )
        spikes, weights = random_layer(bounds, seed)
        output, accesses = execute_loop_nest(nest, spikes, weights)
        assert np.array_equal(output, spmspm_reference(spikes, weights))
        for operand in OPERAND_INDICES:
            assert accesses[operand] == nest.operand_accesses(operand)
        assert nest.latency_iterations() * (bounds["t"] if spatial_t else 1) == nest.iteration_space()
