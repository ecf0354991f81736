"""FTP-friendly packed-temporal spike compression (Section IV-A of LoAS).

The key idea: instead of compressing the unary spike matrix per timestep with
multi-bit coordinates (CSR/CSC), LoAS packs the spikes of one pre-synaptic
neuron across *all* timesteps into a single ``T``-bit word.  A neuron whose
packed word is all zeros (it never fires) is a **silent neuron** and is not
stored at all.  Each row of the spike matrix then becomes a fiber: a
``K``-bit bitmask marking the non-silent neurons, a pointer, and the packed
``T``-bit words of the non-silent neurons in coordinate order.

The compression efficiency therefore scales with the *silent-neuron* density
rather than with the per-timestep spike sparsity, and memory accesses along
the temporal dimension are contiguous -- exactly what the fully
temporal-parallel dataflow needs.

The matrix is stored array-backed (one ``(M, K)`` word matrix; the
non-silent mask is derived from it on every use): construction, spike
accounting and the aggregate storage footprint are fully vectorised / O(1),
and the per-row :class:`Fiber` objects -- needed only by the fiber-level
units such as the inner join -- are materialised lazily on first access.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fiber import Fiber

__all__ = [
    "pack_spike_words",
    "unpack_spike_words",
    "popcount",
    "PackedSpikeMatrix",
]

_POPCOUNT_TABLE = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)


def popcount(words: np.ndarray) -> np.ndarray:
    """Per-element population count of a non-negative integer array."""
    words = np.asarray(words)
    if hasattr(np, "bitwise_count"):
        return np.bitwise_count(words)
    # Fallback for numpy < 2.0: table lookup over the byte view.
    flat = np.ascontiguousarray(words, dtype=np.uint64)
    return _POPCOUNT_TABLE[flat.view(np.uint8)].reshape(flat.shape + (8,)).sum(axis=-1)


def pack_spike_words(spikes: np.ndarray) -> np.ndarray:
    """Pack an ``... x T`` unary spike array into integer words.

    Bit ``t`` (LSB = timestep 0) of the output word is the spike at timestep
    ``t``; any non-zero entry counts as a spike.  The output has the input
    shape without the trailing ``T`` axis.  For ``T <= 8`` the word is a
    uint8 built by shift-or over the ``T`` bit planes (``np.packbits`` pays
    a per-row overhead on so short an axis); larger ``T`` packs through
    ``np.packbits`` and assembles an int64 word byte by byte.
    """
    spikes = np.asarray(spikes)
    t = spikes.shape[-1]
    if t > 63:
        raise ValueError("packing supports at most 63 timesteps")
    if t == 0:
        return np.zeros(spikes.shape[:-1], dtype=np.int64)
    if spikes.dtype != np.bool_:
        spikes = spikes != 0
    if t <= 8:
        bits = spikes.view(np.uint8)
        words = bits[..., 0].copy()
        plane = np.empty_like(words)
        for i in range(1, t):
            np.left_shift(bits[..., i], i, out=plane)
            words |= plane
        return words
    packed_bytes = np.packbits(spikes, axis=-1, bitorder="little")
    words = packed_bytes[..., 0].astype(np.int64)
    for i in range(1, packed_bytes.shape[-1]):
        words |= packed_bytes[..., i].astype(np.int64) << (8 * i)
    return words


def unpack_spike_words(
    words: np.ndarray, timesteps: int, dtype=np.uint8, axis: int = -1
) -> np.ndarray:
    """Inverse of :func:`pack_spike_words`: the 0/1 bit planes of ``words``.

    Bit ``t`` of every word lands at index ``t`` of a new ``axis`` of the
    result (the trailing one by default, giving the ``... x T`` spike
    array).  Each plane is shifted out in the words' own dtype -- uint8
    words are never widened -- and written straight into the ``dtype``
    output, so the engine can build its float GEMM operands from the words
    without an intermediate dense tensor.
    """
    words = np.asarray(words)
    if words.dtype.kind not in "iu":
        words = words.astype(np.int64)
    shape = list(words.shape)
    shape.insert(axis % (words.ndim + 1), timesteps)
    out = np.empty(shape, dtype=dtype)
    planes = np.moveaxis(out, axis, 0)
    shifted = np.empty_like(words)
    for t in range(timesteps):
        np.right_shift(words, t, out=shifted)
        np.bitwise_and(shifted, 1, out=planes[t, ...], casting="unsafe")
    return out


@dataclass
class PackedSpikeMatrix:
    """The LoAS compressed representation of a spike tensor ``A``.

    Parameters
    ----------
    words:
        ``(M, K)`` integer matrix of packed ``T``-bit spike words (zero for
        silent neurons, which are not stored; uint8 for ``T <= 8``, int64
        otherwise).
    shape:
        Original dense shape ``(M, K, T)``.
    """

    words: np.ndarray
    shape: tuple[int, int, int]
    _fibers: list[Fiber] | None = field(default=None, init=False, repr=False, compare=False)
    _nnz: int | None = field(default=None, init=False, repr=False, compare=False)

    @classmethod
    def from_dense(cls, spikes: np.ndarray) -> "PackedSpikeMatrix":
        """Compress an ``M x K x T`` unary spike tensor (fully vectorised)."""
        spikes = np.asarray(spikes)
        if spikes.ndim != 3:
            raise ValueError("expected an M x K x T spike tensor")
        return cls(words=pack_spike_words(spikes), shape=spikes.shape)

    # ------------------------------------------------------------------ #
    # Properties
    # ------------------------------------------------------------------ #
    @property
    def nonsilent(self) -> np.ndarray:
        """Boolean ``(M, K)`` mask of non-silent neurons (the fiber bitmasks).

        A neuron is silent exactly when its packed word is zero; the
        read-only mask is rebuilt from the words on every access, so it is
        never resident beside them.
        """
        mask = self.words != 0
        mask.setflags(write=False)
        return mask

    @property
    def timesteps(self) -> int:
        """Number of timesteps packed into each stored word."""
        return self.shape[2]

    @property
    def num_rows(self) -> int:
        """Number of rows (``M``) in the spike matrix."""
        return self.shape[0]

    @property
    def num_neurons(self) -> int:
        """Number of pre-synaptic neurons per row (``K``)."""
        return self.shape[1]

    @property
    def nnz(self) -> int:
        """Total number of stored (non-silent) neurons (computed once)."""
        if self._nnz is None:
            self._nnz = int(np.count_nonzero(self.words))
        return self._nnz

    @property
    def silent_fraction(self) -> float:
        """Fraction of neurons that are silent and therefore not stored.

        One rounded division of the silent count, so it equals
        :func:`~repro.sparse.matrix.silent_neuron_fraction` of the dense
        tensor bit for bit.
        """
        total = self.num_rows * self.num_neurons
        if total == 0:
            return 0.0
        return (total - self.nnz) / total

    @property
    def fibers(self) -> list[Fiber]:
        """One fiber per row, materialised lazily from the backing arrays."""
        if self._fibers is None:
            nonsilent = self.nonsilent
            counts = nonsilent.sum(axis=1)
            pointers = np.zeros(self.num_rows, dtype=np.int64)
            if self.num_rows:
                pointers[1:] = np.cumsum(counts)[:-1]
            payload = self.words[nonsilent]  # row-major = coordinate order
            self._fibers = [
                Fiber(
                    bitmask=nonsilent[i],
                    values=payload[pointers[i] : pointers[i] + counts[i]],
                    pointer=int(pointers[i]),
                    value_bits=self.timesteps,
                )
                for i in range(self.num_rows)
            ]
        return self._fibers

    def fiber(self, row: int) -> Fiber:
        """Return the compressed fiber for row ``row``."""
        return self.fibers[row]

    # ------------------------------------------------------------------ #
    # Storage accounting (O(1) aggregates)
    # ------------------------------------------------------------------ #
    def payload_bits(self) -> int:
        """Bits spent on packed spike words (one ``T``-bit word per stored neuron)."""
        return self.nnz * self.timesteps

    def bitmask_bits(self) -> int:
        """Bits spent on the non-silent bitmasks (one bit per neuron)."""
        return self.num_rows * self.num_neurons

    def storage_bits(self, pointer_width: int = 32) -> int:
        """Total compressed footprint in bits."""
        return self.bitmask_bits() + self.payload_bits() + self.num_rows * pointer_width

    def storage_bytes(self, pointer_width: int = 32) -> float:
        """Total compressed footprint in bytes."""
        return self.storage_bits(pointer_width) / 8.0

    def dense_bits(self) -> int:
        """Footprint of the uncompressed unary spike tensor in bits."""
        m, k, t = self.shape
        return m * k * t

    def compression_efficiency(self) -> float:
        """Spike bits captured per stored payload bit.

        This is the metric of the worked example around Figure 8: the number
        of original single-bit spikes (ones) represented, divided by the bits
        spent storing them.  Coordinate-per-spike formats such as CSR pay
        several coordinate bits per spike (25 % in the paper's example),
        whereas the packed format amortises one ``T``-bit word over all the
        spikes of a non-silent neuron.
        """
        payload = self.payload_bits()
        if payload == 0:
            return float("inf")
        return self.captured_spikes() / payload

    def captured_spikes(self) -> int:
        """Number of original single-bit spikes (value 1) captured.

        One vectorised popcount over the word matrix (silent words are zero
        and contribute nothing) instead of a Python-level ``bin(...).count``
        per stored word.
        """
        if self.words.size == 0:
            return 0
        return int(popcount(self.words).sum(dtype=np.int64))

    # ------------------------------------------------------------------ #
    # Reconstruction
    # ------------------------------------------------------------------ #
    def to_dense(self) -> np.ndarray:
        """Reconstruct the dense ``M x K x T`` unary spike tensor."""
        return unpack_spike_words(self.words, self.timesteps)
