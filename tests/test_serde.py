"""Entry container serde: value-exact compaction, read-only decoding.

``pack_payload`` compacts each array into the narrowest value-exact form
(0/1 arrays bit-packed, integers downcast within their kind or stored as a
non-zero mask plus the non-zero values, integer-valued float64 stored as an
integer); ``unpack_payload`` must hand back every value and dtype exactly,
as read-only arrays, and an entry this version writes must re-pack to its
own bytes.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.engine import AnnLayerEvaluation, LayerEvaluation
from repro.engine.backend import CacheEntry, pack_entry, unpack_entry
from repro.engine.serde import pack_payload, unpack_payload

from test_cache_backends import stored_record
from test_wave_max_sum import run_every_model

#: Values at and just past the edges of every narrower integer dtype.
INT_EDGES = (
    -(2**31) - 1, -(2**31), -32769, -32768, -129, -128, -1, 0, 1, 2,
    127, 128, 255, 256, 32767, 32768, 65535, 65536, 2**31 - 1, 2**31,
)
INT_DTYPES = ("int8", "int16", "int32", "int64", "uint8", "uint16", "uint32", "uint64")
FLOAT_EDGES = (0.0, 1.0, -1.0, 0.5, 2.0**31 - 1, -(2.0**31 - 1), 2.0**31, -(2.0**31))
SHAPES = hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=6)


def round_trip(array: np.ndarray) -> tuple[np.ndarray, dict]:
    """``array`` through the container, with its stored header record."""
    data = pack_payload({"x": array}, {})
    arrays, meta = unpack_payload(data)
    assert meta == {}
    return arrays["x"], stored_record(data, "x")


def expected_storage(array: np.ndarray) -> str:
    """The stored dtype (or codec) the compaction must pick for ``array``."""
    if array.size == 0:
        return array.dtype.str
    if array.dtype.kind == "f":
        if (
            array.dtype.itemsize != 8
            or not np.all(np.isfinite(array))
            or not np.all(np.abs(array) <= 2**31 - 1)
            or not np.all(array == np.trunc(array))
        ):
            return array.dtype.str
        candidates = ("int8", "int16", "int32")
    else:
        if int(array.min()) >= 0 and int(array.max()) <= 1:
            return "bits"
        if array.dtype.kind == "b":
            return array.dtype.str
        kin = "int" if array.dtype.kind == "i" else "uint"
        candidates = [kin + str(bits) for bits in (8, 16, 32) if bits < 8 * array.dtype.itemsize]
        narrow = narrowest(array, candidates)
        sparse_bytes = math.ceil(array.size / 8) + np.count_nonzero(array) * narrow.itemsize
        if sparse_bytes < array.size * narrow.itemsize:
            return "sparse"
        return narrow.str
    return narrowest(array, candidates).str


def narrowest(array: np.ndarray, candidates) -> np.dtype:
    """The first candidate dtype holding every value of ``array``, else its own."""
    low, high = int(array.min()), int(array.max())
    for candidate in candidates:
        info = np.iinfo(candidate)
        if info.min <= low and high <= info.max:
            return np.dtype(candidate)
    return array.dtype


def assert_exact(array: np.ndarray) -> None:
    decoded, record = round_trip(array)
    assert decoded.dtype == array.dtype
    assert decoded.shape == array.shape
    assert np.array_equal(decoded, array, equal_nan=array.dtype.kind == "f")
    assert not decoded.flags.writeable
    assert record.get("stored", array.dtype.str) == expected_storage(array)


@st.composite
def integer_arrays(draw):
    dtype = np.dtype(draw(st.sampled_from(INT_DTYPES)))
    info = np.iinfo(dtype)
    edges = [value for value in INT_EDGES if info.min <= value <= info.max]
    elements = st.one_of(st.sampled_from(edges), st.integers(int(info.min), int(info.max)))
    return draw(hnp.arrays(dtype, SHAPES, elements=elements))


@st.composite
def binary_arrays(draw):
    dtype = np.dtype(draw(st.sampled_from(("bool",) + INT_DTYPES)))
    return draw(hnp.arrays(dtype, SHAPES, elements=st.integers(0, 1).map(dtype.type)))


@st.composite
def float_arrays(draw):
    width = draw(st.sampled_from((32, 64)))
    integral = st.integers(-(2**31), 2**31).map(float)
    anything = st.floats(allow_nan=True, allow_infinity=True, width=width)
    elements = st.one_of(st.sampled_from(FLOAT_EDGES), integral, anything)
    return draw(hnp.arrays(np.dtype("float%d" % width), SHAPES, elements=elements))


class TestValueExactness:
    @settings(max_examples=120, deadline=None)
    @given(array=st.one_of(binary_arrays(), integer_arrays(), float_arrays()))
    @example(array=np.array([-32768, 32767], dtype=np.int16))
    @example(array=np.array([0, 255], dtype=np.uint16))
    @example(array=np.array([0, 256], dtype=np.uint16))
    @example(array=np.array([255, 2], dtype=np.uint8))
    @example(array=np.array([2.0**31 - 1, -(2.0**31 - 1)]))
    @example(array=np.array([1.5, np.nan, np.inf, -np.inf]))
    @example(array=np.zeros((0, 3), dtype=np.int64))
    @example(array=np.array(7, dtype=np.int64))
    @example(array=np.array(1, dtype=np.uint8))
    @example(array=np.array(3.0))
    def test_values_and_dtype_survive(self, array):
        assert_exact(array)

    def test_non_integral_floats_stay_verbatim_bit_for_bit(self):
        array = np.array([0.25, np.nan, np.inf, -np.inf, -0.0, 1e300])
        decoded, record = round_trip(array)
        assert "stored" not in record
        assert decoded.tobytes() == array.tobytes()


class TestReadOnlyDecoding:
    @pytest.mark.parametrize(
        "array, storage",
        [
            (np.array([[0, 1], [1, 0]], dtype=np.uint8), "bits"),
            (np.array([True, False, True]), "bits"),
            (np.array([-3, 200], dtype=np.int64), "<i2"),
            (np.array([-3.0, 200.0]), "<i2"),
            (np.array([-3, 100], dtype=np.int8), "|i1"),
            (np.array([0.5, 1.5]), "<f8"),
            (np.array([0, 0, 0, 0, 0, 0, 0, 0, 300, 0]), "sparse"),
        ],
        ids=(
            "bits", "bits-bool", "int-downcast", "float-to-int", "verbatim-int", "verbatim-float",
            "sparse",
        ),
    )
    def test_every_codec_decodes_read_only(self, array, storage):
        decoded, record = round_trip(array)
        assert record.get("stored", record["dtype"]) == storage
        assert np.array_equal(decoded, array) and decoded.dtype == array.dtype
        assert not decoded.flags.writeable
        with pytest.raises(ValueError):
            decoded[0] = 0


@st.composite
def masked_arrays(draw):
    """``(array, width, count)``: an int8, uint8, int64 or bool array of any density.

    The ``count`` non-zero values of an integer array need exactly
    ``width`` bytes (one of them sits at the edge of that width), so the
    size crossover of the sparse form -- the count from which the mask
    plus the values stop being smaller than the downcast array -- is
    known, and counts at and around it are drawn as often as all-zero,
    all-non-zero and arbitrary ones.
    """
    dtype = np.dtype(draw(st.sampled_from(("int8", "uint8", "int64", "bool"))))
    shape = draw(SHAPES)
    size = math.prod(shape)
    if dtype.kind == "b":
        width, values = 1, st.just(True)
    else:
        width = draw(st.sampled_from((1, 2, 4, 8))) if dtype.itemsize == 8 else 1
        info = np.iinfo(dtype if dtype.itemsize == 1 else "int%d" % (8 * width))
        values = st.integers(int(info.min), int(info.max)).filter(bool)
    crossover = math.ceil(size - math.ceil(size / 8) / width)
    count = draw(
        st.one_of(
            st.sampled_from((0, size)),
            st.integers(0, size),
            st.integers(max(0, crossover - 1), min(size, crossover + 1)),
        )
    )
    chosen = draw(st.permutations(range(size)))[:count]
    drawn = draw(st.lists(values, min_size=count, max_size=count))
    if count and dtype.kind != "b":
        drawn[0] = int(info.max)
    flat = np.zeros(size, dtype=dtype)
    flat[chosen] = drawn
    return flat.reshape(shape), width, count


class TestSparseForm:
    """The non-zero mask plus the non-zero values: exact, and chosen only when smaller."""

    @settings(max_examples=150, deadline=None)
    @given(drawn=masked_arrays())
    @example(drawn=(np.zeros((4, 5), dtype=np.int8), 1, 0))
    @example(drawn=(np.full((4, 5), -7, dtype=np.int8), 1, 20))
    @example(drawn=(np.array(0, dtype=np.int64), 1, 0))
    @example(drawn=(np.array(-9, dtype=np.int64), 1, 1))
    @example(drawn=(np.zeros(0, dtype=np.uint8), 1, 0))
    @example(drawn=(np.array([[0, 0, 200, 0, 0, 0, 0, 0, 0, 0]], dtype=np.uint8), 1, 1))
    @example(drawn=(np.array([True, False, False, False, False, False, False, False, False]), 1, 1))
    def test_values_and_dtype_survive_on_either_side_of_the_crossover(self, drawn):
        array, width, count = drawn
        assert_exact(array)
        _, record = round_trip(array)
        smaller = math.ceil(array.size / 8) + count * width < array.size * width
        sparse = array.dtype.kind != "b" and count > 0 and smaller
        assert (record.get("stored") == "sparse") == sparse
        if sparse:
            assert np.dtype(record["values"]).itemsize == width
            assert record["nbytes"] == math.ceil(array.size / 8) + count * width

    def test_a_corrupt_mask_is_refused_on_read(self):
        array = np.zeros(64, dtype=np.int8)
        array[[3, 40]] = (5, -6)
        data = bytearray(pack_payload({"x": array}, {}))
        record = stored_record(bytes(data), "x")
        assert record["stored"] == "sparse"
        data[len(data) - record["nbytes"]] ^= 0x01  # one more mask bit than values
        arrays, _ = unpack_payload(bytes(data))
        with pytest.raises(ValueError, match="mask"):
            arrays["x"]

    def test_a_byte_count_its_shape_cannot_hold_is_refused_on_open(self):
        data = pack_payload({"x": np.arange(1, 9, dtype=np.int16) * 300}, {})
        header = stored_record(data, "x")
        assert "stored" not in header
        forged = data.replace(b'"shape": [8]', b'"shape": [9]')
        with pytest.raises(ValueError, match="bytes"):
            unpack_payload(forged)


class TestEntryRoundTrip:
    @settings(max_examples=25, deadline=None)
    @given(
        m=st.integers(1, 10),
        k=st.integers(1, 80),
        t=st.integers(1, 10),
        n=st.integers(1, 8),
        spike_density=st.sampled_from((0.0, 0.05, 0.4, 1.0)),
        weight_density=st.sampled_from((0.0, 0.03, 0.5, 1.0)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_an_entry_this_version_writes_repacks_to_its_bytes(
        self, m, k, t, n, spike_density, weight_density, seed
    ):
        rng = np.random.default_rng(seed)
        weights = rng.integers(-128, 128, size=(k, n)).astype(np.int8)
        weights[rng.random((k, n)) >= weight_density] = 0
        spikes = (rng.random((m, k, t)) < spike_density).astype(np.uint8)
        activations = rng.integers(0, 256, size=(m, k)).astype(np.uint8)
        activations[rng.random((m, k)) >= spike_density] = 0
        state = rng.bit_generator.state
        for evaluation in (LayerEvaluation(spikes, weights), AnnLayerEvaluation(activations, weights)):
            for consumed in (False, True):
                if consumed:
                    run_every_model(evaluation)
                data = pack_entry(CacheEntry(evaluation, state))
                entry = unpack_entry(data)
                assert entry.state_after == state
                assert pack_entry(entry) == data
