"""Leaky-Integrate-and-Fire (LIF) neuron dynamics.

Implements Equations (1)-(3) of the LoAS paper with the hard-reset scheme the
paper focuses on:

* Step 1: matrix multiplication produces the per-timestep input current
  ``O[m, n, t]``.
* Step 2: the membrane potential ``X[t] = O[t] + U[t-1]`` is compared against
  the threshold ``v_th`` and a spike ``C[t] = 1`` is emitted when it exceeds
  the threshold.
* Step 3: the membrane potential is updated with a leak factor ``tau`` and a
  hard reset: ``U[t] = tau * X[t] * (1 - C[t])``.

The functions are written to operate on whole output tensors at once so the
functional reference can be compared bit-for-bit against every hardware model
in this repository.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["LIFParameters", "lif_fire", "lif_step"]


@dataclass(frozen=True)
class LIFParameters:
    """Parameters of the LIF neuron model.

    Attributes
    ----------
    threshold:
        Firing threshold ``v_th``.
    leak:
        Leak factor ``tau`` in ``(0, 1]`` applied to the retained membrane
        potential after each timestep.
    """

    threshold: float = 1.0
    leak: float = 0.5

    def __post_init__(self) -> None:
        if self.leak <= 0.0 or self.leak > 1.0:
            raise ValueError("leak factor must lie in (0, 1]")


def lif_step(
    current: np.ndarray,
    membrane: np.ndarray,
    params: LIFParameters,
) -> tuple[np.ndarray, np.ndarray]:
    """Advance the LIF dynamics by one timestep.

    Parameters
    ----------
    current:
        Input current ``O[..., t]`` for this timestep.
    membrane:
        Membrane potential carried over from the previous timestep
        (``U[t-1]``), same shape as ``current``.
    params:
        Neuron parameters.

    Returns
    -------
    spikes, new_membrane:
        The emitted unary spikes ``C[t]`` and the updated potential ``U[t]``.
    """
    potential = current + membrane
    spikes = (potential > params.threshold).astype(np.uint8)
    new_membrane = params.leak * potential * (1 - spikes)
    return spikes, new_membrane


def lif_fire(currents: np.ndarray, params: LIFParameters | None = None) -> np.ndarray:
    """Run the LIF dynamics over a full ``... x T`` current tensor.

    The trailing axis is the temporal axis.  Returns the unary spike tensor
    of the same shape.  The membrane potential starts at zero, matching the
    per-layer reset used in direct-coded SNN inference.
    """
    params = params or LIFParameters()
    currents = np.asarray(currents, dtype=np.float64)
    timesteps = currents.shape[-1]
    spikes = np.zeros_like(currents, dtype=np.uint8)
    membrane = np.zeros(currents.shape[:-1], dtype=np.float64)
    for t in range(timesteps):
        spikes[..., t], membrane = lif_step(currents[..., t], membrane, params)
    return spikes
