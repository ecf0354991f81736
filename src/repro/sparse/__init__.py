"""Sparse compression substrate used by LoAS and the baseline accelerators.

The subpackage provides

* :mod:`repro.sparse.packed` -- the FTP-friendly packed-temporal spike format,
* :mod:`repro.sparse.csr` -- the closed-form per-timestep CSR footprint the
  packed format is compared against,
* :mod:`repro.sparse.fiber` -- the bitmask + payload :class:`Fiber` that the
  packed rows and the weight columns of the inner-join unit share,

plus random generators for dual-sparse workload tensors.
"""

from .csr import csr_storage_bits_for_spikes
from .fiber import Fiber
from .matrix import (
    density,
    mask_low_activity_neurons,
    random_spike_tensor,
    random_spike_words,
    random_weight_matrix,
    silent_neuron_fraction,
    silent_neuron_mask,
    sparsity,
)
from .packed import PackedSpikeMatrix, pack_spike_words, unpack_spike_words

__all__ = [
    "Fiber",
    "PackedSpikeMatrix",
    "csr_storage_bits_for_spikes",
    "density",
    "mask_low_activity_neurons",
    "pack_spike_words",
    "random_spike_tensor",
    "random_spike_words",
    "random_weight_matrix",
    "silent_neuron_fraction",
    "silent_neuron_mask",
    "sparsity",
    "unpack_spike_words",
]
