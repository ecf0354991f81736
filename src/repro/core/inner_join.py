"""FTP-friendly inner-join unit (Section IV-C, Figures 9 and 10).

The inner join finds the positions where a spike fiber (matrix ``A``) and a
weight fiber (matrix ``B``) are both non-zero.  Conventional designs
(SparTen) pay for two fast prefix-sum circuits so both payload offsets are
available at full rate.  LoAS exploits the unary nature of spikes:

* the **fast** prefix-sum circuit produces the offset of the matched weight
  each cycle, and the weight is *optimistically* accumulated into the
  pseudo-accumulator as if the pre-synaptic neuron fired at every timestep;
* the **laggy** prefix-sum circuit produces the spike-word offset several
  cycles later; when the packed spike word turns out not to be all ones, the
  weight is replayed into the per-timestep **correction accumulators** for
  the timesteps whose spike bit is zero;
* the final per-timestep sum is ``pseudo - correction[t]``, which is exactly
  the true dot product (silent neurons are never stored, so every matched
  weight is accumulated at least once legitimately).

The model below works one fiber pair at a time: the sums are exact and it
also counts matches, corrections, chunks and cycles.  The simulators read the
same quantities for a whole layer from the vectorised
:class:`repro.engine.LayerEvaluation`; the test suite uses this unit as the
oracle for them (``tests/test_engine_equivalence.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..sparse.fiber import Fiber
from ..sparse.packed import unpack_spike_words
from .config import LoASConfig

__all__ = ["InnerJoinResult", "InnerJoinUnit"]


@dataclass
class InnerJoinResult:
    """Outcome of joining one spike fiber with one weight fiber.

    Attributes
    ----------
    per_timestep_sums:
        Exact dot product of the fiber pair for every timestep (length ``T``).
    pseudo_sum:
        Content of the pseudo-accumulator (sum of all matched weights).
    corrections:
        Per-timestep correction-accumulator contents.
    matches:
        Number of matched (non-silent, non-zero-weight) positions.
    pseudo_accumulations:
        Additions performed by the pseudo-accumulator (= ``matches``).
    correction_accumulations:
        Additions performed by the correction accumulators (one per matched
        position per zero spike bit).
    perfect_predictions:
        Matched positions whose packed spike word was all ones (no
        correction needed -- the optimistic accumulation was already right).
    chunks:
        Bitmask chunks scanned (fast and laggy prefix-sum invocations).
    cycles:
        Cycle estimate for the join: one cycle per bitmask chunk to produce
        the AND result, one cycle per match through the fast prefix-sum /
        priority-encoder path, plus the trailing laggy-prefix drain.
    """

    per_timestep_sums: np.ndarray
    pseudo_sum: int
    corrections: np.ndarray
    matches: int
    pseudo_accumulations: int
    correction_accumulations: int
    perfect_predictions: int
    chunks: int
    cycles: int


@dataclass
class InnerJoinUnit:
    """One FTP-friendly inner-join unit (one per TPPE)."""

    config: LoASConfig = field(default_factory=LoASConfig)

    def join(self, spike_fiber: Fiber, weight_fiber: Fiber) -> InnerJoinResult:
        """Join a packed spike fiber with a bitmask weight fiber.

        Parameters
        ----------
        spike_fiber:
            Fiber of matrix ``A``: bitmask of non-silent neurons, payload of
            packed ``T``-bit spike words.
        weight_fiber:
            Fiber of matrix ``B``: bitmask of non-zero weights, payload of
            weight values.
        """
        if spike_fiber.length != weight_fiber.length:
            raise ValueError(
                "fiber lengths differ: %d vs %d" % (spike_fiber.length, weight_fiber.length)
            )
        timesteps = spike_fiber.value_bits
        and_result = spike_fiber.bitmask & weight_fiber.bitmask
        matched_positions = np.flatnonzero(and_result)
        matches = int(matched_positions.size)

        # Payload offsets: what the fast (weights) and laggy (spikes)
        # prefix-sum circuits compute.
        weight_offsets = np.cumsum(weight_fiber.bitmask) - 1
        spike_offsets = np.cumsum(spike_fiber.bitmask) - 1

        # Gather the matched payloads and unpack all spike words at once;
        # perfect (all-ones) words have no zero bits, so they naturally
        # contribute nothing to the corrections.
        all_ones = (1 << timesteps) - 1
        matched_weights = (
            np.asarray(weight_fiber.values)[weight_offsets[matched_positions]].astype(np.int64)
        )
        matched_words = (
            np.asarray(spike_fiber.values)[spike_offsets[matched_positions]].astype(np.int64)
        )
        pseudo_sum = int(matched_weights.sum())
        zero_bits = unpack_spike_words(matched_words, timesteps) == 0  # (matches, T)
        corrections = (matched_weights[:, None] * zero_bits).sum(axis=0, dtype=np.int64)
        correction_accumulations = int(zero_bits.sum())
        perfect = int((matched_words == all_ones).sum())

        per_timestep = pseudo_sum - corrections
        chunks = self.config.bitmask_chunks(spike_fiber.length)
        cycles = chunks + matches + self.config.task_overhead_cycles
        return InnerJoinResult(
            per_timestep_sums=per_timestep,
            pseudo_sum=pseudo_sum,
            corrections=corrections,
            matches=matches,
            pseudo_accumulations=matches,
            correction_accumulations=correction_accumulations,
            perfect_predictions=perfect,
            chunks=chunks,
            cycles=cycles,
        )
