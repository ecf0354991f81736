"""Baseline accelerator models LoAS is evaluated against.

* :class:`SparTenSNN` / :class:`GoSPASNN` / :class:`GammaSNN` -- ANN spMspM
  accelerators (inner-product, outer-product, Gustavson) naively running a
  dual-sparse SNN with sequential timesteps (Section V "Baseline").
* :class:`SparTenANN` / :class:`GammaANN` -- the original designs on a
  dual-sparse ANN (Figure 18), over :class:`AnnLayerWorkload` layers.
* :class:`PTBSimulator` / :class:`StellarSimulator` -- dense SNN systolic
  accelerators (Figure 19).
* :data:`TABLE1_CAPABILITIES` -- the qualitative capability matrix (Table I).
"""

from .ann import ANN_ACTIVATION_SPARSITY, AnnLayerWorkload, generate_ann_activations
from .capabilities import AcceleratorCapabilities, TABLE1_CAPABILITIES
from .gamma import GammaANN, GammaSNN
from .gospa import GoSPASNN
from .ptb import PTBSimulator
from .sparten import SparTenANN, SparTenSNN
from .stellar import StellarSimulator

__all__ = [
    "ANN_ACTIVATION_SPARSITY",
    "AcceleratorCapabilities",
    "AnnLayerWorkload",
    "GammaANN",
    "GammaSNN",
    "GoSPASNN",
    "PTBSimulator",
    "SparTenANN",
    "SparTenSNN",
    "StellarSimulator",
    "TABLE1_CAPABILITIES",
    "generate_ann_activations",
]
