"""Dual-sparse ANN workload helpers for the SNN-vs-ANN comparison (Figure 18).

The ANN version of VGG16 used in the paper has 8-bit weights (98.2 % sparse,
the same lottery-ticket weights as the SNN) and 8-bit activations at 43.9 %
sparsity.  The helpers here generate matching activation matrices so the
SparTen-ANN / Gamma-ANN baselines can be driven with the same layer shapes as
the SNN workload.
"""

from __future__ import annotations

import numpy as np

from ..snn.workloads import LayerWorkload

__all__ = ["ANN_ACTIVATION_SPARSITY", "generate_ann_activations", "ann_layer_tensors"]

#: Activation sparsity of the ANN VGG16 reported in Section VI-B.
ANN_ACTIVATION_SPARSITY = 0.439


def generate_ann_activations(
    m: int,
    k: int,
    activation_sparsity: float = ANN_ACTIVATION_SPARSITY,
    rng: np.random.Generator | None = None,
    activation_bits: int = 8,
) -> np.ndarray:
    """Generate an ``(M, K)`` 8-bit ReLU-style activation matrix."""
    if not 0.0 <= activation_sparsity <= 1.0:
        raise ValueError("activation_sparsity must lie in [0, 1]")
    rng = np.random.default_rng() if rng is None else rng
    activations = rng.integers(1, 2 ** activation_bits, size=(m, k), dtype=np.int32)
    mask = rng.random((m, k)) < activation_sparsity
    activations[mask] = 0
    return activations


def ann_layer_tensors(
    layer: LayerWorkload,
    rng: np.random.Generator | None = None,
    activation_sparsity: float = ANN_ACTIVATION_SPARSITY,
) -> tuple[np.ndarray, np.ndarray]:
    """ANN ``(activations, weights)`` pair matching an SNN layer workload.

    The weights reuse the layer's weight-sparsity profile; the activations
    replace the spike tensor with an 8-bit matrix at the ANN sparsity.
    """
    rng = np.random.default_rng() if rng is None else rng
    _, weights = layer.generate(rng=rng)
    activations = generate_ann_activations(
        layer.shape.m, layer.shape.k, activation_sparsity, rng=rng
    )
    return activations, weights
