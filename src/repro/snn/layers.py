"""Functional SNN layer: dual-sparse spMspM followed by LIF firing.

This module is the *golden reference* for everything the accelerators
compute.  ``spmspm_reference`` implements Equation (1) with plain NumPy, and
:class:`SNNLinearLayer` chains it with the LIF dynamics of
:mod:`repro.snn.lif` to produce the output spike tensor ``C``.

The test suite checks two models against these functions: the full sums
and LIF output spikes of :class:`repro.engine.LayerEvaluation` (the
functional path every simulator reads), and the per-fiber inner join of
:class:`repro.core.inner_join.InnerJoinUnit`.  The simulators' cycle,
traffic and energy figures are analytical and have no functional
counterpart here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .lif import LIFParameters, lif_fire

__all__ = ["spmspm_reference", "SNNLinearLayer", "LayerOutput"]


def spmspm_reference(spikes: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Dense reference of Equation (1): ``O[m, n, t] = sum_k A[m, k, t] B[k, n]``.

    Parameters
    ----------
    spikes:
        Unary input spike tensor ``A`` with shape ``(M, K, T)``.
    weights:
        Weight matrix ``B`` with shape ``(K, N)``.

    Returns
    -------
    The full-sum tensor ``O`` with shape ``(M, N, T)``.
    """
    spikes = np.asarray(spikes)
    weights = np.asarray(weights)
    if spikes.ndim != 3:
        raise ValueError("spikes must have shape (M, K, T)")
    if weights.ndim != 2:
        raise ValueError("weights must have shape (K, N)")
    if spikes.shape[1] != weights.shape[0]:
        raise ValueError(
            "contraction dimension mismatch: spikes K=%d, weights K=%d"
            % (spikes.shape[1], weights.shape[0])
        )
    # einsum contracts over k; the temporal axis rides along untouched.
    return np.einsum("mkt,kn->mnt", spikes.astype(np.int64), weights.astype(np.int64))


@dataclass
class LayerOutput:
    """Result of running one SNN layer.

    Attributes
    ----------
    full_sums:
        The accumulated currents ``O`` of shape ``(M, N, T)``.
    spikes:
        The output spike tensor ``C`` of shape ``(M, N, T)``.
    """

    full_sums: np.ndarray
    spikes: np.ndarray


@dataclass
class SNNLinearLayer:
    """A fully-connected (GEMM-lowered) SNN layer.

    Convolutions in the evaluated networks are lowered to GEMM, so a single
    linear layer with shape ``(K, N)`` covers every layer type the paper
    evaluates.

    Attributes
    ----------
    weights:
        Weight matrix ``B`` of shape ``(K, N)``.
    lif:
        LIF neuron parameters applied to the accumulated currents.
    """

    weights: np.ndarray
    lif: LIFParameters = field(default_factory=LIFParameters)

    def __post_init__(self) -> None:
        self.weights = np.asarray(self.weights)
        if self.weights.ndim != 2:
            raise ValueError("weights must be a 2-D (K, N) matrix")

    @property
    def input_size(self) -> int:
        """Contraction dimension ``K``."""
        return int(self.weights.shape[0])

    @property
    def output_size(self) -> int:
        """Number of output neurons ``N``."""
        return int(self.weights.shape[1])

    def forward(self, spikes: np.ndarray) -> LayerOutput:
        """Run the layer on an ``(M, K, T)`` spike tensor."""
        full_sums = spmspm_reference(spikes, self.weights)
        out_spikes = lif_fire(full_sums, self.lif)
        return LayerOutput(full_sums=full_sums, spikes=out_spikes)

    def __call__(self, spikes: np.ndarray) -> LayerOutput:
        return self.forward(spikes)
