"""GEMM-lowered layer shapes of the evaluated SNN workloads.

The LoAS evaluation uses three CIFAR-scale SNNs (AlexNet with 7 layers,
VGG16 with 14 layers, ResNet19 with 19 layers), three representative single
layers (A-L4, V-L8, R-L19) and the hidden feed-forward layer of a Spike
Transformer (T-HFF).  Table II of the paper gives the representative layer
shapes exactly; the remaining per-layer shapes are reconstructed from the
standard CIFAR versions of each network with convolutions lowered to GEMM
(``M`` = output spatial positions, ``K`` = input channels x kernel area,
``N`` = output channels).

Only shapes live here -- sparsity statistics and tensor generation live in
:mod:`repro.snn.workloads`.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "LayerShape",
    "alexnet_layers",
    "vgg16_layers",
    "resnet19_layers",
    "REPRESENTATIVE_LAYERS",
]


@dataclass(frozen=True)
class LayerShape:
    """Shape of one GEMM-lowered SNN layer.

    Attributes
    ----------
    name:
        Human-readable layer name (e.g. ``"A-L4"``).
    m:
        Number of rows of the input spike matrix (output spatial positions,
        or batch size for fully-connected layers).
    k:
        Contraction dimension (input channels x kernel area).
    n:
        Number of output neurons (output channels).
    t:
        Number of timesteps.
    """

    name: str
    m: int
    k: int
    n: int
    t: int = 4

    @property
    def macs(self) -> int:
        """Dense multiply-accumulate count for one timestep."""
        return self.m * self.k * self.n

    @property
    def total_macs(self) -> int:
        """Dense multiply-accumulate count across all timesteps."""
        return self.macs * self.t

    def scaled(self, scale: float) -> "LayerShape":
        """Return a proportionally smaller shape for quick tests.

        ``m``, ``k`` and ``n`` are multiplied by ``scale`` (minimum 1);
        ``t`` is unchanged so temporal behaviour is preserved.
        """
        if scale <= 0:
            raise ValueError("scale must be positive")
        return LayerShape(
            name=self.name,
            m=max(1, int(round(self.m * scale))),
            k=max(1, int(round(self.k * scale))),
            n=max(1, int(round(self.n * scale))),
            t=self.t,
        )


def alexnet_layers(timesteps: int = 4) -> list[LayerShape]:
    """The 7 GEMM-lowered layers of the CIFAR AlexNet SNN.

    Layer 4 matches the A-L4 representative layer of Table II exactly
    (``M=64, N=256, K=3456``).
    """
    shapes = [
        ("A-L1", 1024, 27, 96),
        ("A-L2", 256, 864, 256),
        ("A-L3", 64, 2304, 384),
        ("A-L4", 64, 3456, 256),
        ("A-L5", 64, 2304, 256),
        ("A-L6", 1, 4096, 1024),
        ("A-L7", 1, 1024, 10),
    ]
    return [LayerShape(name, m, k, n, timesteps) for name, m, k, n in shapes]


def vgg16_layers(timesteps: int = 4) -> list[LayerShape]:
    """The 14 GEMM-lowered layers of the CIFAR VGG16 SNN.

    Layer 8 matches the V-L8 representative layer of Table II exactly
    (``M=16, N=512, K=2304``).
    """
    shapes = [
        ("V-L1", 1024, 27, 64),
        ("V-L2", 1024, 576, 64),
        ("V-L3", 256, 576, 128),
        ("V-L4", 256, 1152, 128),
        ("V-L5", 64, 1152, 256),
        ("V-L6", 64, 2304, 256),
        ("V-L7", 64, 2304, 256),
        ("V-L8", 16, 2304, 512),
        ("V-L9", 16, 4608, 512),
        ("V-L10", 16, 4608, 512),
        ("V-L11", 4, 4608, 512),
        ("V-L12", 4, 4608, 512),
        ("V-L13", 4, 4608, 512),
        ("V-L14", 1, 512, 10),
    ]
    return [LayerShape(name, m, k, n, timesteps) for name, m, k, n in shapes]


def resnet19_layers(timesteps: int = 4) -> list[LayerShape]:
    """The 19 GEMM-lowered layers of the CIFAR ResNet19 SNN.

    Layer 19 matches the R-L19 representative layer of Table II exactly
    (``M=16, N=512, K=2304``).
    """
    shapes = [
        ("R-L1", 1024, 27, 128),
        ("R-L2", 1024, 1152, 128),
        ("R-L3", 1024, 1152, 128),
        ("R-L4", 1024, 1152, 128),
        ("R-L5", 1024, 1152, 128),
        ("R-L6", 1024, 1152, 128),
        ("R-L7", 256, 1152, 256),
        ("R-L8", 256, 2304, 256),
        ("R-L9", 256, 2304, 256),
        ("R-L10", 256, 2304, 256),
        ("R-L11", 256, 2304, 256),
        ("R-L12", 256, 2304, 256),
        ("R-L13", 64, 2304, 512),
        ("R-L14", 64, 4608, 512),
        ("R-L15", 64, 4608, 512),
        ("R-L16", 64, 4608, 512),
        ("R-L17", 64, 4608, 512),
        ("R-L18", 16, 4608, 512),
        ("R-L19", 16, 2304, 512),
    ]
    return [LayerShape(name, m, k, n, timesteps) for name, m, k, n in shapes]


REPRESENTATIVE_LAYERS: dict[str, LayerShape] = {
    "A-L4": LayerShape("A-L4", m=64, k=3456, n=256, t=4),
    "V-L8": LayerShape("V-L8", m=16, k=2304, n=512, t=4),
    "R-L19": LayerShape("R-L19", m=16, k=2304, n=512, t=4),
    "T-HFF": LayerShape("T-HFF", m=784, k=3072, n=3072, t=4),
}
"""The four representative single-layer workloads of Table II."""
