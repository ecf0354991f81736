"""Fiber abstraction shared by all compressed sparse formats in LoAS.

A *fiber* is the unit of compressed storage used throughout the paper: one
row (of the spike matrix ``A``) or one column (of the weight matrix ``B``)
compressed into

* a **bitmask** with one bit per coordinate along the fiber (1 = a non-zero /
  non-silent element is stored, 0 = nothing stored), and
* a dense array of the **payload values** for the positions whose bitmask bit
  is set, stored in coordinate order, plus
* a **pointer** locating the payload in the backing store (modelled here as a
  plain integer offset).

The same abstraction backs both the FTP-friendly packed-spike rows
(Section IV-A of the paper) and the SparTen-style bitmask weight columns that
the inner-join unit consumes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Fiber"]


@dataclass
class Fiber:
    """One compressed row or column.

    Parameters
    ----------
    bitmask:
        Boolean array of length equal to the uncompressed fiber length.
        ``bitmask[i]`` is ``True`` when a payload value is stored for
        coordinate ``i``.
    values:
        Payload values for the set bitmask positions, in coordinate order.
        The dtype is caller-defined: packed spike words for matrix ``A``
        fibers, integer weights for matrix ``B`` fibers.
    pointer:
        Offset of ``values`` in the backing store.  Purely informational for
        the simulator; ``0`` when the fiber is self-contained.
    value_bits:
        Number of bits used to store one payload value (e.g. ``T`` for packed
        spikes, ``8`` for weights).  Used by the traffic model to convert a
        fiber into bytes.
    """

    bitmask: np.ndarray
    values: np.ndarray
    pointer: int = 0
    value_bits: int = 8

    def __post_init__(self) -> None:
        self.bitmask = np.asarray(self.bitmask, dtype=bool)
        self.values = np.asarray(self.values)
        if self.values.shape[0] != int(self.bitmask.sum()):
            raise ValueError(
                "number of payload values (%d) does not match the number of "
                "set bitmask bits (%d)" % (self.values.shape[0], int(self.bitmask.sum()))
            )

    # ------------------------------------------------------------------ #
    # Basic properties
    # ------------------------------------------------------------------ #
    @property
    def length(self) -> int:
        """Uncompressed length of the fiber (number of coordinates)."""
        return int(self.bitmask.shape[0])

    @property
    def nnz(self) -> int:
        """Number of stored (non-zero / non-silent) elements."""
        return int(self.bitmask.sum())

    @property
    def density(self) -> float:
        """Fraction of coordinates that carry a stored element."""
        if self.length == 0:
            return 0.0
        return self.nnz / self.length

    @property
    def coordinates(self) -> np.ndarray:
        """Integer coordinates of the stored elements, ascending."""
        return np.flatnonzero(self.bitmask)

    # ------------------------------------------------------------------ #
    # Storage accounting
    # ------------------------------------------------------------------ #
    def bitmask_bits(self) -> int:
        """Bits used by the bitmask portion of the fiber."""
        return self.length

    def payload_bits(self) -> int:
        """Bits used by the payload values."""
        return self.nnz * self.value_bits

    def pointer_bits(self, pointer_width: int = 32) -> int:
        """Bits used by the pointer following the bitmask."""
        return pointer_width

    def storage_bits(self, pointer_width: int = 32) -> int:
        """Total storage footprint of the fiber in bits."""
        return self.bitmask_bits() + self.payload_bits() + self.pointer_bits(pointer_width)

    def storage_bytes(self, pointer_width: int = 32) -> float:
        """Total storage footprint of the fiber in bytes."""
        return self.storage_bits(pointer_width) / 8.0

    # ------------------------------------------------------------------ #
    # Reconstruction
    # ------------------------------------------------------------------ #
    def decompress(self, fill_value=0) -> np.ndarray:
        """Expand the fiber back to its dense representation."""
        dense = np.full(self.length, fill_value, dtype=self.values.dtype)
        dense[self.bitmask] = self.values
        return dense

    def value_at(self, coordinate: int):
        """Return the stored value at ``coordinate`` or ``None`` if absent."""
        if not self.bitmask[coordinate]:
            return None
        position = int(self.bitmask[:coordinate].sum())
        return self.values[position]

    def __len__(self) -> int:
        return self.length

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Fiber):
            return NotImplemented
        return (
            bool(np.array_equal(self.bitmask, other.bitmask))
            and bool(np.array_equal(self.values, other.values))
            and self.value_bits == other.value_bits
        )
