"""Dense matrix helpers and random dual-sparse workload tensors.

The LoAS evaluation never needs trained weights per se -- the hardware cost
model only depends on the *shape* and the *sparsity structure* of the input
spike tensor ``A`` (``M x K x T``, unary) and the weight matrix ``B``
(``K x N``, integer).  This module provides generators that produce tensors
with controlled sparsity so every experiment in the paper can be regenerated
from synthetic data that matches Table II.
"""

from __future__ import annotations

import numpy as np

from .packed import pack_spike_words, unpack_spike_words

__all__ = [
    "sparsity",
    "density",
    "random_weight_matrix",
    "random_spike_tensor",
    "random_spike_words",
    "silent_neuron_mask",
    "silent_neuron_fraction",
    "mask_low_activity_neurons",
]


def sparsity(array: np.ndarray) -> float:
    """Fraction of zero elements in ``array``."""
    if array.size == 0:
        return 0.0
    return float(np.count_nonzero(array == 0) / array.size)


def density(array: np.ndarray) -> float:
    """Fraction of non-zero elements in ``array``."""
    return 1.0 - sparsity(array)


_WEIGHT_CHUNK = 1 << 20
"""Entries per weight-draw chunk (an 8 MiB float64 block)."""


def random_weight_matrix(
    k: int,
    n: int,
    weight_sparsity: float,
    rng: np.random.Generator | None = None,
    weight_bits: int = 8,
) -> np.ndarray:
    """Generate a ``K x N`` integer weight matrix with the given sparsity.

    Non-zero weights are drawn uniformly from the signed range implied by
    ``weight_bits`` (excluding zero so the realised sparsity matches the
    request exactly in expectation).  The matrix is held in the narrowest
    signed dtype covering the range (int8 for 8-bit weights).

    The draws are an int32 ``integers`` pass over all ``K * N`` entries,
    then a float64 ``random`` pass for the pruning mask.  Both run in chunks
    of :data:`_WEIGHT_CHUNK` entries written straight into the result, so
    no full-size int32 or float64 temporary is allocated.  Chunking leaves
    the random stream unchanged: the bit generator keeps any spare 32-bit
    half-word in its own state, so a split request draws the same values.
    """
    if not 0.0 <= weight_sparsity <= 1.0:
        raise ValueError("weight_sparsity must lie in [0, 1]")
    rng = np.random.default_rng() if rng is None else rng
    lo = -(2 ** (weight_bits - 1))
    hi = 2 ** (weight_bits - 1) - 1
    dtype = np.int8 if weight_bits <= 8 else np.int16 if weight_bits <= 16 else np.int32
    weights = np.empty((k, n), dtype=dtype)
    flat = weights.reshape(-1)
    chunks = [flat[i : i + _WEIGHT_CHUNK] for i in range(0, flat.size, _WEIGHT_CHUNK)]
    for chunk in chunks:
        chunk[...] = rng.integers(lo, hi + 1, size=chunk.size, dtype=np.int32)
        chunk += chunk == 0
    for chunk in chunks:
        chunk *= rng.random(chunk.size) >= weight_sparsity
    return weights


def random_spike_words(
    m: int,
    k: int,
    t: int,
    spike_sparsity: float,
    silent_fraction: float,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Generate the packed ``(M, K)`` spike words of a random ``M x K x T`` tensor.

    Bit ``t`` of each word is the spike at timestep ``t``, as in
    :func:`~repro.sparse.packed.pack_spike_words` (uint8 words for
    ``T <= 8``, int64 otherwise); the dense tensor is never built.

    Parameters
    ----------
    spike_sparsity:
        Target fraction of zero entries across the whole tensor (the
        "AvSpA-origin" column of Table II).
    silent_fraction:
        Target fraction of *silent* pre-synaptic neurons, i.e. ``(m, k)``
        positions that never fire in any timestep (the "AvSpA-packed" column
        of Table II).

    The generator first decides which neurons are silent, then distributes
    spikes over the remaining (non-silent) neurons so that the overall spike
    sparsity matches the request.  Every non-silent neuron is guaranteed to
    fire at least once, mirroring the definition in the paper.  It draws,
    in order, the silent mask, one first-spike timestep per active neuron,
    and the extra spikes as a choice without replacement among the
    ``n_active * (T - 1)`` free ``(neuron, timestep)`` slots.
    """
    if not 0.0 <= spike_sparsity <= 1.0:
        raise ValueError("spike_sparsity must lie in [0, 1]")
    if not 0.0 <= silent_fraction <= 1.0:
        raise ValueError("silent_fraction must lie in [0, 1]")
    rng = np.random.default_rng() if rng is None else rng

    dtype = np.uint8 if t <= 8 else np.int64
    words = np.zeros((m, k), dtype=dtype)
    active_flat = np.flatnonzero(rng.random((m, k)) >= silent_fraction)
    n_active = active_flat.size
    if n_active == 0:
        return words

    # Total spikes needed to achieve the requested overall sparsity.
    total_spikes = int(round((1.0 - spike_sparsity) * m * k * t))
    # Every non-silent neuron fires at least once.
    total_spikes = max(total_spikes, n_active)
    total_spikes = min(total_spikes, n_active * t)

    # One spike per active neuron at a random timestep.
    first = rng.integers(0, t, size=n_active).astype(dtype, copy=False)
    values = np.ones(n_active, dtype=dtype) << first

    remaining = total_spikes - n_active
    if remaining > 0:
        # Each active neuron has exactly T - 1 free timesteps, enumerated in
        # (neuron, timestep) order, so chosen slot j is free position
        # j % (T - 1) of active neuron j // (T - 1): pack the chosen slots
        # as (T - 1)-bit words, then move the bits at or above each neuron's
        # first spike up by one to make room for it.
        free = np.zeros(n_active * (t - 1), dtype=bool)
        free[rng.choice(free.size, size=remaining, replace=False)] = True
        extra = pack_spike_words(free.reshape(n_active, t - 1)).astype(dtype, copy=False)
        below = extra & (values - 1)
        values |= below
        values |= (extra ^ below) << 1
    # Flat indices enumerate the active neurons in row-major order, like
    # the boolean mask would, but scatter several times faster.
    words.reshape(-1)[active_flat] = values
    return words


def random_spike_tensor(
    m: int,
    k: int,
    t: int,
    spike_sparsity: float,
    silent_fraction: float | None = None,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Generate an ``M x K x T`` unary spike tensor.

    With ``silent_fraction`` this is :func:`random_spike_words` unpacked.
    When ``None`` the spikes are i.i.d. Bernoulli at ``spike_sparsity``, and
    the silent fraction falls out of that process.
    """
    if not 0.0 <= spike_sparsity <= 1.0:
        raise ValueError("spike_sparsity must lie in [0, 1]")
    rng = np.random.default_rng() if rng is None else rng
    if silent_fraction is None:
        return (rng.random((m, k, t)) >= spike_sparsity).astype(np.uint8)
    words = random_spike_words(m, k, t, spike_sparsity, silent_fraction, rng)
    return unpack_spike_words(words, t)


def silent_neuron_mask(spikes: np.ndarray) -> np.ndarray:
    """Boolean ``M x K`` mask of neurons that never fire across timesteps."""
    if spikes.ndim != 3:
        raise ValueError("expected an M x K x T spike tensor")
    return spikes.sum(axis=2) == 0


def silent_neuron_fraction(spikes: np.ndarray) -> float:
    """Fraction of pre-synaptic neurons that are silent (never fire)."""
    mask = silent_neuron_mask(spikes)
    return float(mask.mean()) if mask.size else 0.0


def mask_low_activity_neurons(spikes: np.ndarray, max_spikes: int = 1) -> np.ndarray:
    """Zero out neurons firing at most ``max_spikes`` times (preprocessing).

    This is the fine-tuned preprocessing step from Section V of the paper:
    pre-synaptic neurons with only one output spike throughout all timesteps
    are masked, increasing the silent-neuron density that the packed
    compression exploits.  Returns a new tensor; the input is not modified.
    """
    if spikes.ndim != 3:
        raise ValueError("expected an M x K x T spike tensor")
    counts = spikes.sum(axis=2)
    masked = spikes.copy()
    masked[(counts > 0) & (counts <= max_spikes)] = 0
    return masked
