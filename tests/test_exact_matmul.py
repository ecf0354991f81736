"""The exact-GEMM guard behind every engine contraction.

``exact_matmul`` runs in float32 only when the operand bound proves every
partial sum stays below ``2**24``; these tests pin that the float32 path
is exact below the bound, that sums the float32 path would round take the
float64 path, and that the bound itself cannot overflow.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from repro.baselines.ann import generate_ann_activations
from repro.engine import AnnLayerEvaluation, LayerEvaluation
from repro.engine.evaluation import (
    FLOAT32_EXACT_LIMIT,
    _product_bound,
    exact_matmul,
    gemm_dtype,
    integer_bound,
    join_dtype,
)
from repro.sparse.matrix import random_weight_matrix

INT32_MIN = np.iinfo(np.int32).min


def float64_reference(lhs, rhs):
    return lhs.astype(np.float64) @ rhs.astype(np.float64)


@st.composite
def operand_pairs(draw):
    m, k, n = draw(st.integers(1, 6)), draw(st.integers(0, 40)), draw(st.integers(1, 6))
    lhs = draw(arrays(np.int32, (m, k), elements=st.integers(-255, 255)))
    rhs = draw(arrays(np.int8, (k, n)))
    return lhs, rhs


class TestExactMatmul:
    @settings(max_examples=100, deadline=None)
    @given(operand_pairs())
    def test_float32_path_equals_float64_reference_below_the_bound(self, pair):
        lhs, rhs = pair
        bound = lhs.shape[1] * integer_bound(lhs) * integer_bound(rhs)
        assert bound < FLOAT32_EXACT_LIMIT
        assert gemm_dtype(bound) is np.float32
        product = exact_matmul(lhs, rhs, bound)
        assert product.dtype == np.float64
        assert np.array_equal(product, float64_reference(lhs, rhs))
        assert np.array_equal(product, lhs.astype(np.int64) @ rhs.astype(np.int64))

    def test_odd_sum_above_the_limit_takes_the_float64_path(self):
        lhs = np.array([[1, 1]], dtype=np.int64)
        rhs = np.array([[FLOAT32_EXACT_LIMIT], [1]], dtype=np.int64)
        expected = FLOAT32_EXACT_LIMIT + 1
        # float32 cannot hold the sum: this is what the guard protects.
        assert float(np.float32(FLOAT32_EXACT_LIMIT) + np.float32(1)) != expected
        bound = 2 * integer_bound(lhs) * integer_bound(rhs)
        assert gemm_dtype(bound) is np.float64
        assert exact_matmul(lhs, rhs, bound)[0, 0] == expected

    def test_leading_axes_and_vectors(self):
        rng = np.random.default_rng(3)
        lhs = rng.integers(0, 2, size=(3, 4, 5), dtype=np.uint8)
        rhs = rng.integers(-8, 8, size=(5, 2), dtype=np.int32)
        product = exact_matmul(lhs, rhs, 5 * 8)
        assert product.shape == (3, 4, 2)
        assert np.array_equal(product, np.einsum("abk,kn->abn", lhs.astype(np.int64), rhs))
        vector = exact_matmul(np.ones(3, dtype=np.uint8), lhs.reshape(3, 20), 3)
        assert np.array_equal(vector, lhs.reshape(3, 20).sum(axis=0))

    def test_unbounded_operands_take_the_float64_path(self):
        assert integer_bound(np.array([0.5, 1.5])) is None
        assert gemm_dtype(None) is np.float64
        lhs = np.array([[0.1, 0.2]])
        rhs = np.array([[0.3], [0.7]])
        assert np.array_equal(exact_matmul(lhs, rhs, None), lhs @ rhs)


class TestIntegerBound:
    def test_int32_min_does_not_overflow(self):
        weights = np.array([[INT32_MIN, 1], [5, -7]], dtype=np.int32)
        # np.abs wraps INT32_MIN back to itself; the guard must not.
        assert np.abs(weights).min() == INT32_MIN
        assert integer_bound(weights) == 2**31
        assert gemm_dtype(2 * integer_bound(weights)) is np.float64

    def test_int32_min_weight_keeps_full_sums_exact(self):
        spikes = np.ones((1, 2, 1), dtype=np.uint8)
        weights = np.array([[INT32_MIN], [1]], dtype=np.int32)
        full_sums = LayerEvaluation(spikes, weights).full_sums
        # INT32_MIN + 1 is odd and far above 2**24: float32 would round it.
        assert full_sums[0, 0, 0] == INT32_MIN + 1

    def test_int8_min_does_not_wrap(self):
        weights = np.array([[-128, 127], [3, -1]], dtype=np.int8)
        assert np.abs(weights).min() == -128  # np.abs wraps in int8 too
        assert integer_bound(weights) == 128
        assert _product_bound(300, np.ones(2, dtype=np.uint8), weights) == 300 * 128
        assert gemm_dtype(300 * 128) is np.float32

    def test_int8_min_weights_keep_full_sums_exact(self):
        spikes = np.ones((2, 300, 3), dtype=np.uint8)
        weights = np.full((300, 2), -128, dtype=np.int8)
        full_sums = LayerEvaluation(spikes, weights).full_sums
        # An int8 (or int16) accumulator would wrap long before -38400.
        assert np.all(full_sums == -128 * 300)

    def test_bool_and_empty(self):
        assert integer_bound(np.array([True, False])) == 1
        assert integer_bound(np.zeros((0, 3), dtype=np.int64)) == 0


class TestAnnEvaluation:
    @pytest.mark.parametrize("k", (16, 600))
    def test_eight_bit_activations_equal_float64_reference(self, k):
        rng = np.random.default_rng(k)
        activations = generate_ann_activations(12, k, 0.5, rng=rng)
        weights = random_weight_matrix(k, 9, 0.6, rng=rng)
        bound = k * integer_bound(activations) * integer_bound(weights)
        # k=16 exercises the float32 path, k=600 the float64 fallback.
        assert (bound < FLOAT32_EXACT_LIMIT) == (k == 16)
        evaluation = AnnLayerEvaluation(activations, weights)
        expected = np.maximum(float64_reference(activations, weights), 0)
        assert evaluation.output_nnz == np.count_nonzero(expected)
        masks = float64_reference(activations != 0, weights != 0)
        assert evaluation.matches.dtype == join_dtype(k, 1)
        assert np.array_equal(evaluation.matches, masks)
