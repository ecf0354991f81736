"""Unit tests for the FTP-friendly packed-temporal spike compression."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from repro.sparse.packed import PackedSpikeMatrix, pack_spike_words, unpack_spike_words


def reference_pack(spikes):
    """Loop reference: bit ``t`` of the int64 word is ``spikes[..., t] != 0``."""
    spikes = np.asarray(spikes)
    words = np.zeros(spikes.shape[:-1], dtype=np.int64)
    for t in range(spikes.shape[-1]):
        words |= (spikes[..., t] != 0).astype(np.int64) << t
    return words


class TestPackUnpack:
    def test_pack_example_from_paper(self):
        # a00 fires at t0 and t2 -> word 0b0101 = 5 (LSB = t0).
        spikes = np.array([1, 0, 1, 0])
        assert pack_spike_words(spikes) == 5

    def test_unpack_example(self):
        assert unpack_spike_words(np.array(5), 4).tolist() == [1, 0, 1, 0]

    def test_pack_all_ones(self):
        assert pack_spike_words(np.ones(4, dtype=np.uint8)) == 15

    def test_pack_silent(self):
        assert pack_spike_words(np.zeros(4, dtype=np.uint8)) == 0

    def test_pack_rejects_too_many_timesteps(self):
        with pytest.raises(ValueError):
            pack_spike_words(np.zeros(64, dtype=np.uint8))

    @settings(max_examples=40, deadline=None)
    @given(arrays(np.uint8, st.tuples(st.integers(1, 5), st.integers(1, 9), st.integers(1, 8)), elements=st.integers(0, 1)))
    def test_pack_unpack_roundtrip(self, spikes):
        t = spikes.shape[-1]
        words = pack_spike_words(spikes)
        assert np.array_equal(unpack_spike_words(words, t), spikes)


class TestUnpackWordDtypes:
    """``unpack_spike_words`` over both word dtypes, without widening them."""

    @pytest.mark.parametrize("t", (1, 5, 8, 9, 12, 33, 63))
    def test_both_word_dtypes_round_trip(self, t):
        spikes = np.random.default_rng(t).integers(0, 2, size=(4, 6, t), dtype=np.uint8)
        words = pack_spike_words(spikes)
        assert words.dtype == (np.uint8 if t <= 8 else np.int64)
        unpacked = unpack_spike_words(words, t)
        assert unpacked.dtype == np.uint8
        assert np.array_equal(unpacked, spikes)
        planes = unpack_spike_words(words, t, dtype=np.float32, axis=1)
        assert planes.dtype == np.float32
        assert np.array_equal(planes, spikes.transpose(0, 2, 1))

    @pytest.mark.parametrize("t", (8, 12))
    def test_peak_memory_stays_near_the_output(self, t):
        # Widening (M, K) uint8 words to int64 and shifting a broadcast
        # (M, K, T) int64 temporary costs ~16x the uint8 output; shifting
        # plane by plane in the words' own dtype needs one (M, K) scratch.
        import tracemalloc

        spikes = np.random.default_rng(0).integers(0, 2, size=(200, 500, t), dtype=np.uint8)
        words = pack_spike_words(spikes)
        tracemalloc.start()
        try:
            unpacked = unpack_spike_words(words, t)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(unpacked, spikes)
        assert peak < unpacked.nbytes + 2 * words.nbytes


class TestPackMatchesReference:
    """``pack_spike_words`` equals the loop reference for every ``T``."""

    @pytest.mark.parametrize("t", range(1, 64))
    def test_every_timestep_count(self, t):
        spikes = np.random.default_rng(t).integers(0, 4, size=(5, 7, t), dtype=np.uint8)
        words = pack_spike_words(spikes)
        assert words.dtype == (np.uint8 if t <= 8 else np.int64)
        assert words.shape == (5, 7)
        assert np.array_equal(words, reference_pack(spikes))

    @pytest.mark.parametrize("t", (1, 4, 8, 9, 63))
    def test_uint8_values_above_one_pack_as_spikes(self, t):
        spikes = np.full((3, t), 7, dtype=np.uint8)
        spikes[1] = 0
        spikes[2, ::2] = 255
        spikes[2, 1::2] = 0
        assert np.array_equal(pack_spike_words(spikes), reference_pack(spikes))
        assert int(pack_spike_words(spikes)[0]) == 2**t - 1

    @pytest.mark.parametrize("t", (3, 12))
    def test_non_contiguous_input(self, t):
        spikes = np.random.default_rng(0).integers(0, 2, size=(t, 6, 5), dtype=np.uint8)
        view = spikes.transpose(2, 1, 0)
        assert np.array_equal(pack_spike_words(view), reference_pack(view))

    @settings(max_examples=200, deadline=None)
    @given(
        data=st.data(),
        t=st.integers(1, 63),
        dtype=st.sampled_from([np.bool_, np.uint8, np.int8, np.int64]),
        lead=st.lists(st.integers(1, 4), max_size=2),
    )
    def test_property(self, data, t, dtype, lead):
        spikes = data.draw(arrays(dtype, tuple(lead) + (t,)))
        words = pack_spike_words(spikes)
        assert isinstance(words, np.ndarray)
        assert words.shape == tuple(lead)  # a 1-D input packs to a 0-d array
        assert words.dtype == (np.uint8 if t <= 8 else np.int64)
        assert np.array_equal(words, reference_pack(spikes))


class TestPackedSpikeMatrix:
    @pytest.fixture
    def spikes(self, rng):
        spikes = (rng.random((6, 32, 4)) > 0.8).astype(np.uint8)
        spikes[:, :10, :] = 0  # guarantee some silent neurons
        return spikes

    def test_roundtrip(self, spikes):
        packed = PackedSpikeMatrix.from_dense(spikes)
        assert np.array_equal(packed.to_dense(), spikes)

    def test_rejects_2d_input(self):
        with pytest.raises(ValueError):
            PackedSpikeMatrix.from_dense(np.zeros((4, 4)))

    def test_shape_properties(self, spikes):
        packed = PackedSpikeMatrix.from_dense(spikes)
        assert packed.num_rows == 6
        assert packed.num_neurons == 32
        assert packed.timesteps == 4

    def test_nnz_counts_nonsilent_neurons(self, spikes):
        packed = PackedSpikeMatrix.from_dense(spikes)
        assert packed.nnz == int((spikes.sum(axis=2) > 0).sum())

    def test_silent_fraction(self, spikes):
        packed = PackedSpikeMatrix.from_dense(spikes)
        expected = float((spikes.sum(axis=2) == 0).mean())
        assert packed.silent_fraction == pytest.approx(expected)

    def test_nonsilent_matches_dense(self, spikes):
        packed = PackedSpikeMatrix.from_dense(spikes)
        assert np.array_equal(packed.nonsilent, spikes.sum(axis=2) > 0)

    def test_payload_bits(self, spikes):
        packed = PackedSpikeMatrix.from_dense(spikes)
        assert packed.payload_bits() == packed.nnz * 4

    def test_bitmask_bits(self, spikes):
        packed = PackedSpikeMatrix.from_dense(spikes)
        assert packed.bitmask_bits() == 6 * 32

    def test_dense_bits(self, spikes):
        packed = PackedSpikeMatrix.from_dense(spikes)
        assert packed.dense_bits() == spikes.size

    def test_captured_spikes_equals_total_spikes(self, spikes):
        packed = PackedSpikeMatrix.from_dense(spikes)
        assert packed.captured_spikes() == int(spikes.sum())

    def test_compression_efficiency_silent_tensor(self):
        packed = PackedSpikeMatrix.from_dense(np.zeros((2, 4, 4), dtype=np.uint8))
        assert packed.compression_efficiency() == float("inf")

    def test_compression_efficiency_definition(self, spikes):
        packed = PackedSpikeMatrix.from_dense(spikes)
        expected = packed.captured_spikes() / packed.payload_bits()
        assert packed.compression_efficiency() == pytest.approx(expected)

    def test_fiber_accessor(self, spikes):
        packed = PackedSpikeMatrix.from_dense(spikes)
        fiber = packed.fiber(0)
        assert fiber.length == 32
        assert fiber.value_bits == 4

    def test_storage_smaller_than_dense_plus_bitmask_for_sparse_input(self):
        spikes = np.zeros((8, 128, 4), dtype=np.uint8)
        spikes[:, 0, 0] = 1  # one non-silent neuron per row
        packed = PackedSpikeMatrix.from_dense(spikes)
        # Payload is tiny (one word per row); the bitmask dominates.
        assert packed.payload_bits() == 8 * 4
        assert packed.storage_bits() < spikes.size + 8 * 64

    @settings(max_examples=25, deadline=None)
    @given(arrays(np.uint8, st.tuples(st.integers(1, 5), st.integers(1, 16), st.integers(1, 6)), elements=st.integers(0, 1)))
    def test_roundtrip_property(self, spikes):
        packed = PackedSpikeMatrix.from_dense(spikes)
        assert np.array_equal(packed.to_dense(), spikes)
        assert packed.nnz + int((spikes.sum(axis=2) == 0).sum()) == spikes.shape[0] * spikes.shape[1]
