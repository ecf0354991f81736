"""Dual-sparse ANN workload helpers for the SNN-vs-ANN comparison (Figure 18).

The ANN version of VGG16 used in the paper has 8-bit weights (98.2 % sparse,
the same lottery-ticket weights as the SNN) and 8-bit activations at 43.9 %
sparsity.  :class:`AnnLayerWorkload` is the ANN twin of an SNN layer (same
shape and weights, 8-bit activations in place of the spikes), the
``layer_type`` of the SparTen-ANN / Gamma-ANN baselines.
"""

from __future__ import annotations

import numpy as np

from ..snn.workloads import LayerWorkload

__all__ = ["ANN_ACTIVATION_SPARSITY", "AnnLayerWorkload", "generate_ann_activations"]

#: Activation sparsity of the ANN VGG16 reported in Section VI-B.
ANN_ACTIVATION_SPARSITY = 0.439


def generate_ann_activations(
    m: int,
    k: int,
    activation_sparsity: float = ANN_ACTIVATION_SPARSITY,
    rng: np.random.Generator | None = None,
    activation_bits: int = 8,
) -> np.ndarray:
    """Generate an ``(M, K)`` 8-bit ReLU-style activation matrix.

    The values are drawn as int32, which fixes the random stream, and held
    in the narrowest unsigned dtype covering ``activation_bits`` (uint8 by
    default).
    """
    if not 0.0 <= activation_sparsity <= 1.0:
        raise ValueError("activation_sparsity must lie in [0, 1]")
    rng = np.random.default_rng() if rng is None else rng
    activations = rng.integers(1, 2 ** activation_bits, size=(m, k), dtype=np.int32)
    activations = activations.astype(np.min_scalar_type(2 ** activation_bits - 1))
    activations[rng.random((m, k)) < activation_sparsity] = 0
    return activations


class AnnLayerWorkload(LayerWorkload):
    """The dual-sparse ANN version of an SNN layer, evaluated to an ``AnnLayerEvaluation``."""

    kind = "ann"

    def generate(
        self,
        rng: np.random.Generator | None = None,
        finetuned: bool = False,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Generate ``(activations, weights)``; ``finetuned`` does not apply.

        The weights are the SNN layer's, drawn (after its spikes) from the
        same stream, and the activations replace the spike tensor with an
        8-bit ``(M, K)`` matrix at the ANN sparsity.
        """
        rng = np.random.default_rng() if rng is None else rng
        _, weights = super().generate(rng=rng)
        activations = generate_ann_activations(self.shape.m, self.shape.k, rng=rng)
        return activations, weights
