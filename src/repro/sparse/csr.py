"""CSR footprint of a spike tensor, the baseline of the packed format.

GoSPA and other ANN spMspM accelerators store sparse operands in compressed
sparse row (CSR) form, paying ``log2(dim)`` coordinate bits per non-zero.
Section IV-A of the LoAS paper argues this is wasteful for single-bit
spikes; :func:`csr_storage_bits_for_spikes` quantifies exactly that overhead.
"""

from __future__ import annotations

import numpy as np

__all__ = ["csr_storage_bits_for_spikes"]


def csr_storage_bits_for_spikes(spikes: np.ndarray, pointer_width: int = 32) -> int:
    """CSR footprint of an ``M x K x T`` spike tensor, one CSR per timestep.

    This is the baseline the packed format is compared against in
    Section IV-A: each timestep's ``M x K`` spike matrix is stored
    independently with per-spike coordinates.  Every spike costs one value
    bit (spikes are unary) plus ``ceil(log2 K)`` coordinate bits (at least
    one), and every timestep pays ``M + 1`` row pointers::

        nnz(A) * (1 + max(1, ceil(log2 K))) + T * (M + 1) * pointer_width
    """
    spikes = np.asarray(spikes)
    if spikes.ndim != 3:
        raise ValueError("expected an M x K x T spike tensor")
    m, k, t = spikes.shape
    coordinate_bits = max(1, (k - 1).bit_length())  # ceil(log2 k), exact
    return int(np.count_nonzero(spikes)) * (1 + coordinate_bits) + t * (m + 1) * pointer_width
