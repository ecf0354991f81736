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

__all__ = [
    "sparsity",
    "density",
    "random_weight_matrix",
    "random_spike_tensor",
    "silent_neuron_mask",
    "silent_neuron_fraction",
    "spike_sparsity_per_timestep",
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
    request exactly in expectation).  The draw is always int32, which fixes
    the random stream; the matrix is then held in the narrowest signed
    dtype covering the range (int8 for 8-bit weights).
    """
    if not 0.0 <= weight_sparsity <= 1.0:
        raise ValueError("weight_sparsity must lie in [0, 1]")
    rng = np.random.default_rng() if rng is None else rng
    lo = -(2 ** (weight_bits - 1))
    hi = 2 ** (weight_bits - 1) - 1
    dtype = np.int8 if weight_bits <= 8 else np.int16 if weight_bits <= 16 else np.int32
    weights = rng.integers(lo, hi + 1, size=(k, n), dtype=np.int32).astype(dtype)
    weights[weights == 0] = 1
    mask = rng.random((k, n)) < weight_sparsity
    weights[mask] = 0
    return weights


def random_spike_tensor(
    m: int,
    k: int,
    t: int,
    spike_sparsity: float,
    silent_fraction: float | None = None,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Generate an ``M x K x T`` unary spike tensor.

    Parameters
    ----------
    spike_sparsity:
        Target fraction of zero entries across the whole tensor (the
        "AvSpA-origin" column of Table II).
    silent_fraction:
        Target fraction of *silent* pre-synaptic neurons, i.e. ``(m, k)``
        positions that never fire in any timestep (the "AvSpA-packed" column
        of Table II).  When ``None`` the silent fraction falls out of the
        i.i.d. Bernoulli process implied by ``spike_sparsity``.

    The generator first decides which neurons are silent, then distributes
    spikes over the remaining (non-silent) neurons so that the overall spike
    sparsity matches the request.  Every non-silent neuron is guaranteed to
    fire at least once, mirroring the definition in the paper.
    """
    if not 0.0 <= spike_sparsity <= 1.0:
        raise ValueError("spike_sparsity must lie in [0, 1]")
    rng = np.random.default_rng() if rng is None else rng

    if silent_fraction is None:
        # Independent Bernoulli spikes.
        spikes = (rng.random((m, k, t)) >= spike_sparsity).astype(np.uint8)
        return spikes

    if not 0.0 <= silent_fraction <= 1.0:
        raise ValueError("silent_fraction must lie in [0, 1]")

    spikes = np.zeros((m, k, t), dtype=np.uint8)
    silent = rng.random((m, k)) < silent_fraction
    active = ~silent
    n_active = int(active.sum())
    if n_active == 0:
        return spikes

    # Total spikes needed to achieve the requested overall sparsity.
    total_spikes = int(round((1.0 - spike_sparsity) * m * k * t))
    # Every non-silent neuron fires at least once.
    total_spikes = max(total_spikes, n_active)
    total_spikes = min(total_spikes, n_active * t)

    # Guarantee one spike per active neuron at a random timestep.  All
    # indexing runs on the flat (m*k, t) view: flat neuron index i = row*k +
    # col enumerates active neurons in the same row-major order np.nonzero
    # would, without materialising the 2-D coordinate arrays.
    flat_spikes = spikes.reshape(m * k, t)
    active_flat = np.flatnonzero(active)
    first_spike_t = rng.integers(0, t, size=n_active)
    flat_spikes[active_flat, first_spike_t] = 1

    remaining = total_spikes - n_active
    if remaining > 0:
        # Candidate slots: all (active neuron, timestep) pairs not yet used.
        # Slot i*t + ti maps to (active neuron i, timestep ti) in the same
        # C-order a dense (neuron, timestep) enumeration would use.
        free = flat_spikes[active_flat] == 0  # (n_active, t)
        free_idx = np.flatnonzero(free)
        chosen = rng.choice(free_idx, size=min(remaining, free_idx.size), replace=False)
        flat_spikes[active_flat[chosen // t], chosen % t] = 1
    return spikes


def silent_neuron_mask(spikes: np.ndarray) -> np.ndarray:
    """Boolean ``M x K`` mask of neurons that never fire across timesteps."""
    if spikes.ndim != 3:
        raise ValueError("expected an M x K x T spike tensor")
    return spikes.sum(axis=2) == 0


def silent_neuron_fraction(spikes: np.ndarray) -> float:
    """Fraction of pre-synaptic neurons that are silent (never fire)."""
    mask = silent_neuron_mask(spikes)
    return float(mask.mean()) if mask.size else 0.0


def spike_sparsity_per_timestep(spikes: np.ndarray) -> np.ndarray:
    """Per-timestep spike sparsity, shape ``(T,)``."""
    if spikes.ndim != 3:
        raise ValueError("expected an M x K x T spike tensor")
    t = spikes.shape[2]
    return np.array([sparsity(spikes[:, :, ti]) for ti in range(t)])


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
