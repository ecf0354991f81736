"""Byte format of the disk tier's evaluation-cache entries.

A cache entry holds the weights, the packed spike words, the
post-generation bit-generator state and the other dehydrated derived
artifacts; this module owns how those become bytes:

* :func:`encode_state` / :func:`decode_state` -- the JSON round-trip of a
  ``numpy`` bit-generator state (arbitrary-precision integers natively,
  ndarray-valued fields -- e.g. Philox keys -- via a base64 envelope).
* :func:`pack_payload` / :func:`unpack_payload` -- an ``{name: ndarray}``
  mapping plus a JSON ``meta`` record as one byte string.  The v2 container
  is flat (one JSON header, then each array's blob in its most compact
  value-exact form: verbatim, bit-packed, downcast, or a bit-packed
  non-zero mask plus the non-zero values -- see :func:`_storage_form`):
  an entry holds a dozen-plus derived arrays and ``np.savez``'s per-member
  zipfile machinery costs more than the GEMMs the entry exists to skip,
  whereas the flat layout decodes from one buffer -- ``bytes`` or a
  read-only ``mmap`` of the entry file.  :func:`unpack_payload` checks the
  header and returns an :class:`EntryMembers` mapping that decodes a
  member the first time it is read, so a member nobody reads is never
  decoded nor, over a mapping, read from disk.  Anything else --
  including a legacy v1 ``.npz`` entry -- fails to open, which the disk
  tier treats as a miss.  The header names each member's form, so an
  entry written before a form existed still decodes.
* :func:`key_digest` -- the stable cross-process address of a cache key
  (the SHA-256 of the fingerprint tuple's ``repr``), used as the disk
  entry file name.
"""

from __future__ import annotations

import base64
import hashlib
import json
import math
import struct
from collections import Counter
from collections.abc import Iterator, Mapping

import numpy as np

__all__ = [
    "EntryMembers",
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
#: Storage-codec marker for a non-zero mask plus the non-zero values.
_SPARSE_CODEC = "sparse"


def _downcast(dtype: np.dtype, low: int, high: int) -> np.dtype:
    """The narrowest kin integer dtype holding ``[low, high]`` (``dtype`` if none is narrower)."""
    for candidate in _INT_DOWNCASTS.get(dtype.kind, ()):
        candidate = np.dtype(candidate)
        if candidate.itemsize >= dtype.itemsize:
            break
        info = np.iinfo(candidate)
        if info.min <= low and high <= info.max:
            return candidate
    return dtype


def _storage_form(array: np.ndarray) -> tuple[bytes, dict]:
    """``(blob, header fields)`` of ``array``'s most compact value-exact form.

    The derived counts are small-valued integers living in wide dtypes
    (int64 activity profiles, float64 GEMM outputs, boolean masks, 0/1 LIF
    output spikes), and the tensors are mostly zero (the weights, the
    packed spike words of silent neurons): storing them verbatim makes
    entry IO, not the skipped GEMMs, the disk-warm bottleneck.  Four
    value-exact forms apply:

    * a **binary** integer/bool array (values 0/1 only) is bit-packed
      8-to-a-byte (``np.packbits``; ``stored: "bits"``),
    * an integer array whose range fits a narrower kin dtype is downcast
      (``stored`` names the dtype),
    * an integer array is stored **sparse** -- its non-zero mask
      bit-packed, then its non-zero values in C order, downcast like the
      whole array (``stored: "sparse"``, ``values`` names their dtype) --
      when that is strictly smaller than the form above, the way LoAS
      stores its operands as a bitmask plus the non-zero payload,
    * an integer-*valued* float64 array within int32 range is stored int32.

    :func:`unpack_payload` reverses the form and casts back to the recorded
    original dtype, so the round-trip reproduces every value (and the
    dtype) exactly.  Arrays that do not qualify are stored verbatim (no
    header fields).
    """
    array = np.ascontiguousarray(array)
    dtype = array.dtype
    if array.size == 0:
        return array.tobytes(), {}
    if dtype.kind in ("b", "i", "u"):
        low, high = int(array.min()), int(array.max())
        if 0 <= low and high <= 1:
            bits = np.packbits(array.astype(np.uint8, copy=False).ravel())
            return bits.tobytes(), {"stored": _BITS_CODEC}
        narrow = _downcast(dtype, low, high)
        mask_bytes = -(-array.size // 8)
        nonzero = np.count_nonzero(array)
        if mask_bytes + nonzero * narrow.itemsize < array.size * narrow.itemsize:
            flat = array.ravel()
            mask = flat != 0
            values = np.compress(mask, flat).astype(narrow, copy=False)
            blob = np.packbits(mask).tobytes() + values.tobytes()
            return blob, {"stored": _SPARSE_CODEC, "values": narrow.str}
        if narrow != dtype:
            return array.astype(narrow).tobytes(), {"stored": narrow.str}
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
                    return array.astype(candidate).tobytes(), {"stored": np.dtype(candidate).str}
    return array.tobytes(), {}


def pack_payload(arrays: Mapping, meta: dict) -> bytes:
    """Serialise ``arrays`` plus a JSON ``meta`` record into entry bytes.

    The container is flat: magic, one JSON header (the caller's ``meta``
    under ``"meta"`` plus each array's name/dtype/shape/byte-count -- and
    its storage form, when not verbatim -- under ``"arrays"``), then the
    stored array blobs back to back.  Every value round-trips exactly (see
    :func:`_storage_form` for the value-exact compaction).
    """
    if META_MEMBER in arrays:
        raise ValueError("array name %r is reserved" % (META_MEMBER,))
    blobs = []
    index = []
    for name, array in arrays.items():
        array = np.asarray(array)
        blob, form = _storage_form(array)
        index.append(
            {
                "name": name,
                "dtype": array.dtype.str,
                "shape": [int(dim) for dim in array.shape],
                "nbytes": len(blob),
                **form,
            }
        )
        blobs.append(blob)
    header = json.dumps({"meta": meta, "arrays": index}).encode("utf-8")
    return b"".join([_MAGIC, _HEADER_LENGTH.pack(len(header)), header] + blobs)


def _check_record(record: dict) -> None:
    """Raise unless the record's byte count fits its shape and storage form.

    Decoding is deferred to the first read, so a container whose byte
    counts disagree with its shapes must be refused when it is opened,
    where the disk tier treats the error as a corrupt miss.
    """
    size = math.prod(record["shape"])
    nbytes = int(record["nbytes"])
    stored = record.get("stored", record["dtype"])
    if stored == _BITS_CODEC:
        valid = nbytes == -(-size // 8)
    elif stored == _SPARSE_CODEC:
        values = nbytes - -(-size // 8)
        itemsize = np.dtype(record["values"]).itemsize
        valid = 0 <= values <= size * itemsize and values % itemsize == 0
    else:
        valid = nbytes == size * np.dtype(stored).itemsize
    if not valid:
        raise ValueError("entry array %r holds %d bytes, not its shape's" % (record["name"], nbytes))


def _decode_array(data, record: dict, offset: int) -> np.ndarray:
    dtype = np.dtype(record["dtype"])
    stored = record.get("stored", record["dtype"])
    shape = tuple(record["shape"])
    nbytes = int(record["nbytes"])
    size = math.prod(shape)
    if stored == _BITS_CODEC:
        packed = np.frombuffer(data, dtype=np.uint8, count=nbytes, offset=offset)
        array = np.unpackbits(packed, count=size).reshape(shape)
        if dtype != array.dtype:
            array = array.astype(dtype)
    elif stored == _SPARSE_CODEC:
        mask_bytes = -(-size // 8)
        mask = np.frombuffer(data, dtype=np.uint8, count=mask_bytes, offset=offset)
        mask = np.unpackbits(mask, count=size).view(np.bool_)
        values_dtype = np.dtype(record["values"])
        values = np.frombuffer(
            data,
            dtype=values_dtype,
            count=(nbytes - mask_bytes) // values_dtype.itemsize,
            offset=offset + mask_bytes,
        )
        if np.count_nonzero(mask) != values.size:
            raise ValueError("entry array %r: mask and values disagree" % (record["name"],))
        array = np.zeros(size, dtype=dtype)
        np.place(array, mask, values)
        array = array.reshape(shape)
    else:
        stored_dtype = np.dtype(stored)
        array = np.frombuffer(
            data, dtype=stored_dtype, count=nbytes // stored_dtype.itemsize, offset=offset
        ).reshape(shape)
        if stored_dtype != dtype:
            array = array.astype(dtype)
    array.setflags(write=False)
    return array


class EntryMembers(Mapping):
    """The arrays of one entry container, each decoded the first time it is read.

    A read-only ``{name: ndarray}`` mapping over the container buffer.
    Indexing a member decodes it (a verbatim member is an
    ``np.frombuffer`` view of the buffer, any other form a fresh read-only
    array in its original dtype) and keeps the result, so a member is
    decoded at most once and every reader shares one array; a member
    nobody reads is never decoded (over a mapped file, its pages are never
    read).  :meth:`shape` answers from the header without decoding.  The
    mapping keeps the buffer alive.
    """

    def __init__(self, data, records: dict[str, tuple[dict, int]]):
        self._data = data
        self._records = records
        self._arrays: dict[str, np.ndarray] = {}
        #: Decodes per member name (at most one each, barring two threads
        #: decoding the same member at once): which members were read.
        self.decoded: Counter = Counter()

    def __getitem__(self, name: str) -> np.ndarray:
        array = self._arrays.get(name)
        if array is None:
            record, offset = self._records[name]
            array = _decode_array(self._data, record, offset)
            self._arrays[name] = array
            self.decoded[name] += 1
        return array

    def __contains__(self, name) -> bool:
        return name in self._records

    def __iter__(self) -> Iterator[str]:
        return iter(self._records)

    def __len__(self) -> int:
        return len(self._records)

    def shape(self, name: str) -> tuple[int, ...]:
        """The recorded shape of member ``name``, without decoding it."""
        return tuple(self._records[name][0]["shape"])


def unpack_payload(data) -> tuple[EntryMembers, dict]:
    """Inverse of :func:`pack_payload`: ``(arrays, meta)``.

    ``data`` is any read-only buffer of the container: ``bytes``, or an
    ``mmap`` of an entry file.  ``arrays`` is an :class:`EntryMembers`
    mapping that decodes each member on its first read, as a read-only
    array (entries are shared read-only).  The header and every member's
    byte count are checked here, so a torn or corrupt container, or
    anything without the v2 magic such as a legacy v1 ``.npz`` entry,
    raises now (callers treat that as a miss).
    """
    if data[: len(_MAGIC)] != _MAGIC:
        raise ValueError("not a v2 entry container")
    offset = len(_MAGIC)
    (header_length,) = _HEADER_LENGTH.unpack_from(data, offset)
    offset += _HEADER_LENGTH.size
    if header_length > len(data):
        raise ValueError("entry header overruns the container")
    header = json.loads(data[offset : offset + header_length].decode("utf-8"))
    offset += header_length
    records = {}
    for record in header["arrays"]:
        nbytes = int(record["nbytes"])
        if offset + nbytes > len(data):
            raise ValueError("entry array %r overruns the container" % (record["name"],))
        _check_record(record)
        records[record["name"]] = (record, offset)
        offset += nbytes
    if offset != len(data):
        raise ValueError("entry container has trailing bytes")
    return EntryMembers(data, records), header["meta"]
