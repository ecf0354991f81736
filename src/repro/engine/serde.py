"""Byte format of the disk tier's evaluation-cache entries.

A cache entry holds the weights, the packed spike words, the
post-generation bit-generator state and the other dehydrated derived
artifacts; this module owns how those become bytes:

* :func:`encode_state` / :func:`decode_state` -- the JSON round-trip of a
  ``numpy`` bit-generator state (arbitrary-precision integers natively,
  ndarray-valued fields -- e.g. Philox keys -- via a base64 envelope).
* :func:`pack_payload` / :func:`unpack_payload` -- an ``{name: ndarray}``
  mapping plus a JSON ``meta`` record as one byte string.  The v2 container
  is flat (one JSON header, then the raw C-order array blobs): an entry
  holds a dozen-plus derived arrays and ``np.savez``'s per-member
  zipfile machinery costs more than the GEMMs the entry exists to skip,
  whereas the flat layout decodes from one buffer -- ``bytes`` or a
  read-only ``mmap`` of the entry file -- by ``np.frombuffer`` views, so a
  verbatim member whose bytes nobody reads is never read from disk.
  Anything else -- including a legacy v1 ``.npz`` entry -- fails to
  decode, which the disk tier treats as a miss.
* :func:`key_digest` -- the stable cross-process address of a cache key
  (the SHA-256 of the fingerprint tuple's ``repr``), used as the disk
  entry file name.
"""

from __future__ import annotations

import base64
import hashlib
import json
import struct

import numpy as np

__all__ = [
    "decode_state",
    "encode_state",
    "key_digest",
    "pack_payload",
    "unpack_payload",
]

_NDARRAY_TAG = "__ndarray__"

#: Reserved array name: the v2 header stores the meta record under it.
META_MEMBER = "meta"


# --------------------------------------------------------------------- #
# Bit-generator state <-> JSON
# --------------------------------------------------------------------- #
def encode_state(value):
    """JSON-encodable copy of a bit-generator state (ndarrays via base64)."""
    if isinstance(value, dict):
        return {key: encode_state(entry) for key, entry in value.items()}
    if isinstance(value, np.ndarray):
        payload = base64.b64encode(np.ascontiguousarray(value).tobytes()).decode("ascii")
        return {_NDARRAY_TAG: [value.dtype.str, list(value.shape), payload]}
    if isinstance(value, (list, tuple)):
        return [encode_state(entry) for entry in value]
    if isinstance(value, np.integer):
        return int(value)
    return value


def decode_state(value):
    """Inverse of :func:`encode_state`."""
    if isinstance(value, dict):
        if set(value) == {_NDARRAY_TAG}:
            dtype, shape, payload = value[_NDARRAY_TAG]
            raw = np.frombuffer(base64.b64decode(payload), dtype=np.dtype(dtype))
            return raw.reshape(tuple(shape)).copy()
        return {key: decode_state(entry) for key, entry in value.items()}
    if isinstance(value, list):
        return [decode_state(entry) for entry in value]
    return value


# --------------------------------------------------------------------- #
# Addressing
# --------------------------------------------------------------------- #
def key_digest(key) -> str:
    """Stable cross-process address of a cache key.

    Keys are the hashable fingerprint tuples the in-memory LRU uses;
    ``repr`` of those tuples is deterministic (ints, floats, bools, strings
    and byte strings only), so its SHA-256 is a stable address across
    processes, runs and machines.
    """
    return hashlib.sha256(repr(key).encode("utf-8")).hexdigest()


# --------------------------------------------------------------------- #
# Entry payload <-> bytes
# --------------------------------------------------------------------- #
#: v2 flat-container magic.
_MAGIC = b"RPRC\x02\n"
_HEADER_LENGTH = struct.Struct(">Q")

_INT_DOWNCASTS = {
    "i": (np.int8, np.int16, np.int32),
    "u": (np.uint8, np.uint16, np.uint32),
}


#: Storage-codec marker for bit-packed binary arrays (``np.packbits``).
_BITS_CODEC = "bits"


def _storage_form(array: np.ndarray) -> tuple[np.ndarray, str]:
    """``(storage array, stored dtype str or codec)`` -- value-exact compaction.

    The derived counts are small-valued integers living in wide dtypes
    (int64 activity profiles, float64 GEMM outputs, boolean masks, 0/1 LIF
    output spikes): storing them verbatim makes entry IO, not the skipped
    GEMMs, the disk-warm bottleneck.  Three value-exact forms apply:

    * a **binary** integer/bool array (values 0/1 only) is bit-packed
      8-to-a-byte (``np.packbits``),
    * an integer array whose range fits a narrower kin dtype is downcast,
    * an integer-*valued* float64 array within int32 range is stored int32.

    :func:`unpack_payload` reverses the form and casts back to the recorded
    original dtype, so the round-trip reproduces every value (and the
    dtype) exactly.  Arrays that do not qualify are stored verbatim.
    """
    array = np.ascontiguousarray(array)
    dtype = array.dtype
    if array.size == 0:
        return array, dtype.str
    if dtype.kind in ("b", "i", "u"):
        low, high = int(array.min()), int(array.max())
        if 0 <= low and high <= 1:
            return np.packbits(array.astype(np.uint8, copy=False).ravel()), _BITS_CODEC
        if dtype.kind in _INT_DOWNCASTS and dtype.itemsize > 1:
            for candidate in _INT_DOWNCASTS[dtype.kind]:
                info = np.iinfo(candidate)
                if np.dtype(candidate).itemsize >= dtype.itemsize:
                    break
                if info.min <= low and high <= info.max:
                    return array.astype(candidate), np.dtype(candidate).str
    elif dtype.kind == "f" and dtype.itemsize == 8:
        bound = float(np.iinfo(np.int32).max)
        with np.errstate(invalid="ignore"):
            exact = bool(
                np.all(np.isfinite(array))
                and np.all(np.abs(array) <= bound)
                and np.all(array == np.trunc(array))
            )
        if exact:
            low, high = int(array.min()), int(array.max())
            for candidate in (np.int8, np.int16, np.int32):
                info = np.iinfo(candidate)
                if info.min <= low and high <= info.max:
                    return array.astype(candidate), np.dtype(candidate).str
    return array, dtype.str


def pack_payload(arrays: dict, meta: dict) -> bytes:
    """Serialise ``arrays`` plus a JSON ``meta`` record into entry bytes.

    The container is flat: magic, one JSON header (the caller's ``meta``
    under ``"meta"`` plus each array's name/dtype/shape/byte-count under
    ``"arrays"``), then the raw C-order array blobs back to back.  Every
    value round-trips exactly (see :func:`_storage_form` for the
    value-exact dtype compaction).
    """
    if META_MEMBER in arrays:
        raise ValueError("array name %r is reserved" % (META_MEMBER,))
    blobs = []
    index = []
    for name, array in arrays.items():
        array = np.asarray(array)
        stored, stored_dtype = _storage_form(array)
        blob = stored.tobytes()
        record = {
            "name": name,
            "dtype": array.dtype.str,
            "shape": [int(dim) for dim in array.shape],
            "nbytes": len(blob),
        }
        if stored_dtype != array.dtype.str:
            record["stored"] = stored_dtype
        index.append(record)
        blobs.append(blob)
    header = json.dumps({"meta": meta, "arrays": index}).encode("utf-8")
    return b"".join([_MAGIC, _HEADER_LENGTH.pack(len(header)), header] + blobs)


def _decode_array(data, record: dict, offset: int) -> np.ndarray:
    dtype = np.dtype(record["dtype"])
    stored = record.get("stored", record["dtype"])
    shape = tuple(record["shape"])
    nbytes = int(record["nbytes"])
    if stored == _BITS_CODEC:
        packed = np.frombuffer(data, dtype=np.uint8, count=nbytes, offset=offset)
        size = int(np.prod(shape, dtype=np.int64)) if shape else 1
        array = np.unpackbits(packed, count=size).reshape(shape)
        if dtype != array.dtype:
            array = array.astype(dtype)
    else:
        stored_dtype = np.dtype(stored)
        array = np.frombuffer(
            data, dtype=stored_dtype, count=nbytes // stored_dtype.itemsize, offset=offset
        ).reshape(shape)
        if stored_dtype != dtype:
            array = array.astype(dtype)
    array.setflags(write=False)
    return array


def unpack_payload(data) -> tuple[dict, dict]:
    """Inverse of :func:`pack_payload`: ``(arrays, meta)``.

    ``data`` is any read-only buffer of the container: ``bytes``, or an
    ``mmap`` of an entry file.  Every decoded array is read-only (entries
    are shared read-only): a verbatim member is an ``np.frombuffer`` view
    over ``data`` (no copy; over a mapping, its pages are read only when
    the array is), a bit-packed or downcast one a fresh array in its
    original dtype.  A view keeps ``data`` alive.  Raises on a torn or
    corrupt container, or on anything without the v2 magic such as a
    legacy v1 ``.npz`` entry (callers treat that as a miss).
    """
    if data[: len(_MAGIC)] != _MAGIC:
        raise ValueError("not a v2 entry container")
    offset = len(_MAGIC)
    (header_length,) = _HEADER_LENGTH.unpack_from(data, offset)
    offset += _HEADER_LENGTH.size
    if header_length > len(data):
        raise ValueError("entry header overruns the container")
    record = json.loads(data[offset : offset + header_length].decode("utf-8"))
    offset += header_length
    arrays = {}
    for entry in record["arrays"]:
        nbytes = int(entry["nbytes"])
        if offset + nbytes > len(data):
            raise ValueError("entry array %r overruns the container" % (entry["name"],))
        arrays[entry["name"]] = _decode_array(data, entry, offset)
        offset += nbytes
    if offset != len(data):
        raise ValueError("entry container has trailing bytes")
    return arrays, record["meta"]
