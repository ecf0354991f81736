"""Shared serialisation for the evaluation-cache tiers.

Every tier below the in-process LRU moves the same value around -- a cache
entry holding the generated tensors, the post-generation bit-generator state
and the dehydrated derived artifacts -- so the byte format lives here, in one
place, and is reused verbatim by the on-disk tier (entry *files*) and the
network tier (entry *frames*):

* :func:`encode_state` / :func:`decode_state` -- the JSON round-trip of a
  ``numpy`` bit-generator state (arbitrary-precision integers natively,
  ndarray-valued fields -- e.g. Philox keys -- via a base64 envelope).
  Shared so the disk entry format and the remote wire format cannot drift
  apart.
* :func:`pack_payload` / :func:`unpack_payload` -- an ``{name: ndarray}``
  mapping plus a JSON ``meta`` record as one byte string.  v2 entries use a
  flat container (one JSON header, then the raw C-order array blobs): a v2
  entry holds a dozen-plus derived arrays and ``np.savez``'s per-member
  zipfile machinery costs more than the GEMMs the entry exists to skip,
  whereas the flat layout decodes with one read and ``np.frombuffer``
  slices.  Anything else -- including a legacy v1 ``.npz`` entry -- fails
  to decode, which every tier treats as a miss.
* :func:`key_digest` -- the stable cross-process address of a cache key
  (the SHA-256 of the fingerprint tuple's ``repr``), used both as the disk
  entry file name and as the wire key of the remote tier.
* :func:`write_frame` / :func:`read_frame` -- the length-prefixed framing
  of the remote tier's socket protocol (one opcode byte, an 8-byte
  big-endian payload length, the payload).
"""

from __future__ import annotations

import base64
import hashlib
import json
import socket
import struct

import numpy as np

__all__ = [
    "DeferredArray",
    "decode_state",
    "encode_state",
    "key_digest",
    "pack_payload",
    "read_frame",
    "unpack_payload",
    "write_frame",
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

    The generated tensors and derived counts are small-valued integers
    living in wide dtypes (int64 weights, float64 GEMM outputs, 0/1 byte
    spike tensors): storing them verbatim makes entry IO, not the skipped
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


class DeferredArray:
    """A not-yet-decoded array slice of an entry container.

    :func:`unpack_payload` hands these out for the names in its ``defer``
    set: the caller gets the ``shape`` / ``dtype`` / ``ndim`` immediately
    (enough to build evaluation shells and validate dimensions) and pays
    the decode -- bit-unpacking, dtype widening, the memory traffic -- only
    if the array is actually read.  On the statistics-warm path the dense
    tensors usually never are: every consumer reads the pre-seeded derived
    arrays instead.
    """

    __slots__ = ("_data", "_record", "_offset", "shape", "dtype")

    def __init__(self, data: bytes, record: dict, offset: int):
        self._data = data
        self._record = record
        self._offset = offset
        self.shape = tuple(record["shape"])
        self.dtype = np.dtype(record["dtype"])

    @property
    def ndim(self) -> int:
        return len(self.shape)

    def materialise(self) -> np.ndarray:
        """Decode the slice (read-only, exactly as the eager path would)."""
        array = _decode_array(self._data, self._record, self._offset)
        array.setflags(write=False)
        return array


def _decode_array(data: bytes, record: dict, offset: int) -> np.ndarray:
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
    return array


def unpack_payload(data: bytes, defer=frozenset()) -> tuple[dict, dict]:
    """Inverse of :func:`pack_payload`: ``(arrays, meta)``.

    Decoded arrays are read-only ``np.frombuffer`` views over ``data`` (no
    copy; entries are shared read-only anyway).  Names listed in ``defer``
    come back as :class:`DeferredArray` handles instead of decoded arrays.
    Raises on a torn or corrupt container, or on anything without the v2
    magic such as a legacy v1 ``.npz`` entry (callers treat that as a miss).
    """
    if not data.startswith(_MAGIC):
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
        if entry["name"] in defer:
            arrays[entry["name"]] = DeferredArray(data, entry, offset)
        else:
            arrays[entry["name"]] = _decode_array(data, entry, offset)
        offset += nbytes
    if offset != len(data):
        raise ValueError("entry container has trailing bytes")
    return arrays, record["meta"]


# --------------------------------------------------------------------- #
# Wire framing (remote tier)
# --------------------------------------------------------------------- #
_FRAME_HEADER = struct.Struct(">cQ")

#: Upper bound on a single frame's payload; a frame claiming more is treated
#: as protocol corruption (protects both sides from allocating on garbage).
MAX_FRAME_BYTES = 1 << 32


def write_frame(sock: socket.socket, op: bytes, payload: bytes = b"") -> None:
    """Send one ``op`` frame (a single opcode byte plus its payload)."""
    if len(op) != 1:
        raise ValueError("frame opcode must be a single byte")
    sock.sendall(_FRAME_HEADER.pack(op, len(payload)) + payload)


def _recv_exact(sock: socket.socket, count: int) -> bytes:
    chunks = []
    remaining = count
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            raise ConnectionError("peer closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def read_frame(sock: socket.socket) -> tuple[bytes, bytes]:
    """Receive one frame: ``(op, payload)``.

    Raises :class:`ConnectionError` when the peer closes mid-frame and
    :class:`ValueError` on a corrupt header -- both make the remote tier
    degrade to the tiers below it rather than fail the sweep.
    """
    header = _recv_exact(sock, _FRAME_HEADER.size)
    op, length = _FRAME_HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ValueError("frame length %d exceeds protocol bound" % (length,))
    return op, _recv_exact(sock, length)
