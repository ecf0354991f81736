"""Synthetic dual-sparse workloads matching Table II of the LoAS paper.

The accelerator results in the paper depend only on the layer shapes and on
three sparsity statistics per workload:

* ``AvSpA-origin`` -- average spike sparsity across timesteps,
* ``AvSpA-packed`` -- density of *silent* neurons (neurons that never fire),
  with and without the fine-tuned preprocessing, and
* ``AvSpB`` -- weight sparsity after lottery-ticket pruning.

This module records those statistics exactly as published and generates
random tensors that reproduce them, so every hardware experiment can be run
without the original trained checkpoints.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..sparse.matrix import random_spike_words, random_weight_matrix
from ..sparse.packed import PackedSpikeMatrix
from .network import (
    LayerShape,
    REPRESENTATIVE_LAYERS,
    alexnet_layers,
    resnet19_layers,
    vgg16_layers,
)

__all__ = [
    "SparsityProfile",
    "LayerWorkload",
    "NetworkWorkload",
    "TABLE2_NETWORK_PROFILES",
    "TABLE2_LAYER_PROFILES",
    "get_network_workload",
    "get_layer_workload",
    "list_network_names",
    "list_layer_names",
]


@dataclass(frozen=True)
class SparsityProfile:
    """Sparsity statistics of one workload (one row of Table II).

    All values are fractions in ``[0, 1]`` (the paper reports percentages).

    Attributes
    ----------
    spike_sparsity:
        ``AvSpA-origin``: fraction of zero entries in the spike tensor.
    silent_fraction:
        ``AvSpA-packed``: fraction of pre-synaptic neurons that never fire.
    silent_fraction_finetuned:
        ``AvSpA-packed (+FT)``: silent fraction after the fine-tuned
        preprocessing that masks neurons firing only once.
    weight_sparsity:
        ``AvSpB``: fraction of pruned (zero) weights.
    """

    spike_sparsity: float
    silent_fraction: float
    silent_fraction_finetuned: float
    weight_sparsity: float

    def silent(self, finetuned: bool) -> float:
        """Silent-neuron fraction with or without preprocessing."""
        return self.silent_fraction_finetuned if finetuned else self.silent_fraction


TABLE2_NETWORK_PROFILES: dict[str, SparsityProfile] = {
    "alexnet": SparsityProfile(0.812, 0.713, 0.767, 0.982),
    "vgg16": SparsityProfile(0.823, 0.741, 0.796, 0.982),
    "resnet19": SparsityProfile(0.686, 0.596, 0.661, 0.968),
}
"""Network-level sparsity statistics (Table II, top half)."""


TABLE2_LAYER_PROFILES: dict[str, SparsityProfile] = {
    "A-L4": SparsityProfile(0.758, 0.632, 0.697, 0.989),
    "V-L8": SparsityProfile(0.881, 0.765, 0.868, 0.968),
    "R-L19": SparsityProfile(0.579, 0.514, 0.557, 0.991),
    # The paper leaves the origin / non-FT columns of T-HFF blank; the
    # fine-tuned silent fraction (86.8 %) and weight sparsity (96.8 %) are
    # published, the remaining values reuse the V-L8 statistics, which share
    # the same published numbers.
    "T-HFF": SparsityProfile(0.881, 0.765, 0.868, 0.968),
}
"""Representative-layer sparsity statistics (Table II, bottom half)."""


@dataclass
class LayerWorkload:
    """One GEMM-lowered layer plus its sparsity statistics.

    :meth:`generate` materialises random tensors that match the profile so
    the accelerator models can be driven end to end.
    """

    shape: LayerShape
    profile: SparsityProfile
    weight_bits: int = 8

    #: Picks the evaluation the cache builds (``"snn"``: ``LayerEvaluation``).
    kind = "snn"

    @property
    def name(self) -> str:
        """Layer name, e.g. ``"V-L8"``."""
        return self.shape.name

    def scaled(self, scale: float) -> "LayerWorkload":
        """Proportionally smaller copy (same sparsity profile) for quick runs."""
        return type(self)(self.shape.scaled(scale), self.profile, self.weight_bits)

    def total_macs(self) -> int:
        """Dense MAC count of the layer across all timesteps."""
        return self.shape.total_macs

    def generate(
        self,
        rng: np.random.Generator | None = None,
        finetuned: bool = False,
    ) -> tuple[PackedSpikeMatrix, np.ndarray]:
        """Generate ``(spikes A, weights B)`` matching the profile.

        ``A`` is born packed: a :class:`~repro.sparse.packed.PackedSpikeMatrix`
        over the ``(M, K)`` words (``.to_dense()`` gives the ``M x K x T``
        tensor); ``B`` is the ``K x N`` weight matrix.

        Parameters
        ----------
        rng:
            Source of randomness; a fresh default generator when ``None``.
        finetuned:
            Use the fine-tuned (preprocessed) silent-neuron fraction.
        """
        rng = np.random.default_rng() if rng is None else rng
        s = self.shape
        words = random_spike_words(
            s.m,
            s.k,
            s.t,
            spike_sparsity=self.profile.spike_sparsity,
            silent_fraction=self.profile.silent(finetuned),
            rng=rng,
        )
        weights = random_weight_matrix(
            s.k, s.n, self.profile.weight_sparsity, rng=rng, weight_bits=self.weight_bits
        )
        return PackedSpikeMatrix(words, (s.m, s.k, s.t)), weights


@dataclass
class NetworkWorkload:
    """A full SNN workload: a list of layers sharing one sparsity profile."""

    name: str
    layers: list[LayerWorkload] = field(default_factory=list)

    @property
    def profile(self) -> SparsityProfile:
        """The shared sparsity profile of the network's layers."""
        return self.layers[0].profile

    @property
    def num_layers(self) -> int:
        """Number of layers in the network."""
        return len(self.layers)

    def scaled(self, scale: float) -> "NetworkWorkload":
        """Proportionally smaller copy of every layer, for quick runs."""
        return NetworkWorkload(self.name, [layer.scaled(scale) for layer in self.layers])

    def total_macs(self) -> int:
        """Dense MAC count of the whole network across all timesteps."""
        return sum(layer.shape.total_macs for layer in self.layers)


_NETWORK_LAYER_FACTORIES = {
    "alexnet": alexnet_layers,
    "vgg16": vgg16_layers,
    "resnet19": resnet19_layers,
}


def list_network_names() -> list[str]:
    """Names of the full-network workloads of Table II."""
    return sorted(_NETWORK_LAYER_FACTORIES)


def list_layer_names() -> list[str]:
    """Names of the representative single-layer workloads of Table II."""
    return sorted(TABLE2_LAYER_PROFILES)


def get_network_workload(
    name: str, timesteps: int = 4, weight_bits: int = 8
) -> NetworkWorkload:
    """Build the full-network workload (``alexnet``, ``vgg16``, ``resnet19``)."""
    key = name.lower()
    if key not in _NETWORK_LAYER_FACTORIES:
        raise KeyError(
            "unknown network %r (expected one of %s)" % (name, list_network_names())
        )
    profile = TABLE2_NETWORK_PROFILES[key]
    shapes = _NETWORK_LAYER_FACTORIES[key](timesteps)
    layers = [LayerWorkload(shape, profile, weight_bits) for shape in shapes]
    return NetworkWorkload(name=key, layers=layers)


def get_layer_workload(name: str, timesteps: int | None = None, weight_bits: int = 8) -> LayerWorkload:
    """Build a representative single-layer workload (``A-L4``, ``V-L8``, ...)."""
    if name not in TABLE2_LAYER_PROFILES:
        raise KeyError(
            "unknown layer %r (expected one of %s)" % (name, list_layer_names())
        )
    shape = REPRESENTATIVE_LAYERS[name]
    if timesteps is not None:
        shape = LayerShape(shape.name, shape.m, shape.k, shape.n, timesteps)
    return LayerWorkload(shape, TABLE2_LAYER_PROFILES[name], weight_bits)
