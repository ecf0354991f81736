"""Entry container serde: value-exact compaction, read-only decoding.

``pack_payload`` compacts each array into the narrowest value-exact form
(0/1 arrays bit-packed, integers downcast within their kind, integer-valued
float64 stored as an integer); ``unpack_payload`` must hand back every
value and dtype exactly, as read-only arrays.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.engine.serde import pack_payload, unpack_payload

from test_cache_backends import stored_record

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
    low, high = int(array.min()), int(array.max())
    for candidate in candidates:
        info = np.iinfo(candidate)
        if info.min <= low and high <= info.max:
            return np.dtype(candidate).str
    return array.dtype.str


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
        ],
        ids=("bits", "bits-bool", "int-downcast", "float-to-int", "verbatim-int", "verbatim-float"),
    )
    def test_every_codec_decodes_read_only(self, array, storage):
        decoded, record = round_trip(array)
        assert record.get("stored", record["dtype"]) == storage
        assert np.array_equal(decoded, array) and decoded.dtype == array.dtype
        assert not decoded.flags.writeable
        with pytest.raises(ValueError):
            decoded[0] = 0
