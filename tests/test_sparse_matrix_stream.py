"""Exact-stream oracles for the random workload generators.

The workload cache keys evaluations by the generator state and fast-forwards
it on a hit, and the reference digests are computed from generated
workloads, so the generators must keep both their output and the random
stream they consume.  The references below are the dense, unchunked
generators the packed ones replaced, kept verbatim.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.sparse import matrix
from repro.sparse.matrix import (
    random_spike_tensor,
    random_spike_words,
    random_weight_matrix,
    silent_neuron_fraction,
)
from repro.sparse.packed import PackedSpikeMatrix, pack_spike_words


def reference_spike_tensor(m, k, t, spike_sparsity, silent_fraction, rng):
    """The dense generator: an ``(M, K, T)`` tensor on the same random stream."""
    spikes = np.zeros((m, k, t), dtype=np.uint8)
    silent = rng.random((m, k)) < silent_fraction
    active = ~silent
    n_active = int(active.sum())
    if n_active == 0:
        return spikes

    # Total spikes needed to achieve the requested overall sparsity.
    total_spikes = int(round((1.0 - spike_sparsity) * m * k * t))
    # Every non-silent neuron fires at least once.
    total_spikes = max(total_spikes, n_active)
    total_spikes = min(total_spikes, n_active * t)

    # Guarantee one spike per active neuron at a random timestep.  All
    # indexing runs on the flat (m*k, t) view: flat neuron index i = row*k +
    # col enumerates active neurons in the same row-major order np.nonzero
    # would, without materialising the 2-D coordinate arrays.
    flat_spikes = spikes.reshape(m * k, t)
    active_flat = np.flatnonzero(active)
    first_spike_t = rng.integers(0, t, size=n_active)
    flat_spikes[active_flat, first_spike_t] = 1

    remaining = total_spikes - n_active
    if remaining > 0:
        # Candidate slots: all (active neuron, timestep) pairs not yet used.
        # Slot i*t + ti maps to (active neuron i, timestep ti) in the same
        # C-order a dense (neuron, timestep) enumeration would use.
        free = flat_spikes[active_flat] == 0  # (n_active, t)
        free_idx = np.flatnonzero(free)
        chosen = rng.choice(free_idx, size=min(remaining, free_idx.size), replace=False)
        flat_spikes[active_flat[chosen // t], chosen % t] = 1
    return spikes


def reference_weight_matrix(k, n, weight_sparsity, rng, weight_bits=8):
    """The unchunked weight draw: whole-matrix int32 values, then a float64 mask."""
    lo = -(2 ** (weight_bits - 1))
    hi = 2 ** (weight_bits - 1) - 1
    dtype = np.int8 if weight_bits <= 8 else np.int16 if weight_bits <= 16 else np.int32
    weights = rng.integers(lo, hi + 1, size=(k, n), dtype=np.int32).astype(dtype)
    weights[weights == 0] = 1
    mask = rng.random((k, n)) < weight_sparsity
    weights[mask] = 0
    return weights


def _twin_generators(seed):
    return np.random.default_rng(seed), np.random.default_rng(seed)


FRACTIONS = st.one_of(st.sampled_from((0.0, 1.0)), st.floats(0.0, 1.0))


class TestSpikeWordStream:
    @settings(max_examples=150, deadline=None)
    @given(
        m=st.integers(0, 6),
        k=st.integers(0, 24),
        t=st.integers(1, 12),
        spike_sparsity=FRACTIONS,
        silent_fraction=FRACTIONS,
        seed=st.integers(0, 2**32 - 1),
    )
    # Every neuron fires once and only once: remaining == 0.
    @example(m=3, k=9, t=5, spike_sparsity=1.0, silent_fraction=0.0, seed=1)
    # Every neuron fires at every timestep: the free pool is exhausted.
    @example(m=3, k=9, t=12, spike_sparsity=0.0, silent_fraction=0.0, seed=2)
    # Every neuron is silent: no draw after the silent mask.
    @example(m=3, k=9, t=8, spike_sparsity=0.5, silent_fraction=1.0, seed=3)
    # Word-width boundary, and the one-timestep case with no free slot.
    @example(m=4, k=7, t=9, spike_sparsity=0.6, silent_fraction=0.3, seed=4)
    @example(m=4, k=7, t=1, spike_sparsity=0.2, silent_fraction=0.3, seed=5)
    def test_words_and_state_match_dense_reference(
        self, m, k, t, spike_sparsity, silent_fraction, seed
    ):
        ours, theirs = _twin_generators(seed)
        words = random_spike_words(m, k, t, spike_sparsity, silent_fraction, ours)
        reference = reference_spike_tensor(m, k, t, spike_sparsity, silent_fraction, theirs)
        expected = pack_spike_words(reference)
        assert words.dtype == (np.uint8 if t <= 8 else np.int64)
        assert words.dtype == expected.dtype
        assert np.array_equal(words, expected)
        assert ours.bit_generator.state == theirs.bit_generator.state

    @pytest.mark.parametrize(
        "m, k, t, spike_sparsity, silent_fraction",
        [
            # Over 10,000 free slots with few chosen: numpy's choice takes
            # its set-based (Floyd) branch instead of a full permutation.
            (64, 256, 4, 0.87, 0.5),
            # A paper-like layer (V-L8 profile) at T = 4 and T = 16.
            (48, 300, 4, 0.823, 0.741),
            (48, 300, 16, 0.823, 0.741),
        ],
    )
    def test_large_pools_match_dense_reference(self, m, k, t, spike_sparsity, silent_fraction):
        ours, theirs = _twin_generators(7)
        words = random_spike_words(m, k, t, spike_sparsity, silent_fraction, ours)
        reference = reference_spike_tensor(m, k, t, spike_sparsity, silent_fraction, theirs)
        assert np.array_equal(words, pack_spike_words(reference))
        assert ours.bit_generator.state == theirs.bit_generator.state

    def test_dense_tensor_is_the_unpacked_words(self):
        ours, theirs = _twin_generators(11)
        dense = random_spike_tensor(5, 40, 6, 0.7, silent_fraction=0.4, rng=ours)
        words = random_spike_words(5, 40, 6, 0.7, 0.4, theirs)
        assert dense.dtype == np.uint8
        assert np.array_equal(pack_spike_words(dense), words)

    def test_rejects_bad_fractions(self):
        with pytest.raises(ValueError):
            random_spike_words(2, 2, 4, 1.5, 0.5)
        with pytest.raises(ValueError):
            random_spike_words(2, 2, 4, 0.5, -0.1)


class TestWeightStream:
    @pytest.mark.parametrize("weight_bits", (4, 8, 12, 20))
    @pytest.mark.parametrize(
        "k, n",
        [
            (0, 7),
            (7, 0),
            (13, 11),
            # More than one full chunk, and not a multiple of the chunk size.
            (1031, 1021),
        ],
    )
    def test_values_dtype_and_state_match_unchunked_draw(self, k, n, weight_bits):
        assert (k * n) % matrix._WEIGHT_CHUNK or k * n == 0
        assert k * n < 200 or k * n > matrix._WEIGHT_CHUNK
        ours, theirs = _twin_generators(k * 1000 + n + weight_bits)
        weights = random_weight_matrix(k, n, 0.6, rng=ours, weight_bits=weight_bits)
        expected = reference_weight_matrix(k, n, 0.6, theirs, weight_bits=weight_bits)
        assert weights.dtype == expected.dtype
        assert weights.shape == (k, n)
        assert np.array_equal(weights, expected)
        assert ours.bit_generator.state == theirs.bit_generator.state

    @settings(max_examples=60, deadline=None)
    @given(
        k=st.integers(0, 40),
        n=st.integers(0, 40),
        chunk=st.integers(1, 64),
        weight_bits=st.sampled_from((4, 8, 12, 20)),
        weight_sparsity=FRACTIONS,
        seed=st.integers(0, 2**32 - 1),
    )
    def test_any_chunk_size_keeps_the_stream(self, k, n, chunk, weight_bits, weight_sparsity, seed):
        ours, theirs = _twin_generators(seed)
        with mock.patch.object(matrix, "_WEIGHT_CHUNK", chunk):
            weights = random_weight_matrix(k, n, weight_sparsity, rng=ours, weight_bits=weight_bits)
        expected = reference_weight_matrix(k, n, weight_sparsity, theirs, weight_bits=weight_bits)
        assert weights.dtype == expected.dtype
        assert np.array_equal(weights, expected)
        assert ours.bit_generator.state == theirs.bit_generator.state


class TestSilentFractionAgreement:
    @settings(max_examples=80, deadline=None)
    @given(
        m=st.integers(0, 9),
        k=st.integers(0, 60),
        t=st.integers(1, 12),
        silent_fraction=FRACTIONS,
        seed=st.integers(0, 2**32 - 1),
    )
    def test_packed_silent_fraction_equals_dense_bit_for_bit(self, m, k, t, silent_fraction, seed):
        spikes = random_spike_tensor(
            m, k, t, 0.7, silent_fraction=silent_fraction, rng=np.random.default_rng(seed)
        )
        packed = PackedSpikeMatrix.from_dense(spikes)
        assert packed.silent_fraction == silent_neuron_fraction(spikes)
