"""Output spike compressor (Section IV-D).

After the P-LIF units generate the output spikes of a group of output
neurons, the compressor packs them into the FTP-friendly format for the next
layer: silent output neurons are dropped, the surviving packed words are
stored contiguously and a bitmask + pointer marks their positions.  LoAS
uses an *inverted laggy* prefix-sum circuit for this step because, unlike the
inner join, compression is not on the critical path.

When the fine-tuned preprocessing is enabled the compressor additionally
discards output neurons that fire only once across all timesteps (the
masking the next layer was fine-tuned for).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..sparse.packed import PackedSpikeMatrix, pack_spike_words, popcount
from .config import LoASConfig

__all__ = ["CompressorResult", "OutputCompressor"]


@dataclass
class CompressorResult:
    """Outcome of compressing one layer's output spikes.

    Attributes
    ----------
    packed:
        The compressed output (input format of the next layer).
    cycles:
        Cycles spent by the inverted laggy prefix-sum circuit.
    output_bytes:
        Compressed bytes written back to the global cache / DRAM.
    dropped_neurons:
        Output neurons discarded by the preprocessing rule (0 when
        preprocessing is disabled).
    silent_output_neurons:
        Output neurons that were silent *before* the preprocessing rule.
    """

    packed: PackedSpikeMatrix
    cycles: float
    output_bytes: float
    dropped_neurons: int
    silent_output_neurons: int = 0


@dataclass
class OutputCompressor:
    """The output-spike compression unit."""

    config: LoASConfig = field(default_factory=LoASConfig)

    def compress(self, output_spikes: np.ndarray, preprocess: bool = False) -> CompressorResult:
        """Compress an ``(M, N, T)`` output spike tensor.

        Parameters
        ----------
        output_spikes:
            Output spikes produced by the P-LIF units.
        preprocess:
            Apply the fine-tuned preprocessing rule: neurons with zero or one
            spike across all timesteps are treated as silent.
        """
        output_spikes = np.asarray(output_spikes)
        if output_spikes.ndim != 3:
            raise ValueError("expected an (M, N, T) output spike tensor")
        m, n, t = output_spikes.shape
        # Work directly on the packed words: the preprocessing rule (mask
        # neurons firing at most once) zeroes exactly the words whose
        # popcount is <= 1, so no dense masked tensor is ever materialised.
        words = pack_spike_words(output_spikes)
        counts = popcount(words)
        before_silent = int((counts == 0).sum())
        if preprocess:
            words = np.where(counts <= 1, 0, words)
        packed = PackedSpikeMatrix(words=words, shape=(m, n, t))
        after_silent = words.size - packed.nnz

        # One inverted laggy prefix-sum pass per output-row bitmask chunk.
        chunks_per_row = self.config.bitmask_chunks(n)
        cycles = m * chunks_per_row * self.config.laggy_latency_cycles
        output_bytes = packed.storage_bytes(self.config.pointer_bits)
        return CompressorResult(
            packed=packed,
            cycles=float(cycles),
            output_bytes=float(output_bytes),
            dropped_neurons=after_silent - before_silent,
            silent_output_neurons=before_silent,
        )
