"""SparTen-SNN and SparTen-ANN baselines (inner-product dataflow).

SparTen [Gondimalla et al., MICRO'19] is an inner-product spMspM accelerator
with bitmask compression and prefix-sum-based inner joins.  The paper's
SparTen-SNN baseline runs a dual-sparse SNN on that design by processing the
timesteps sequentially in the innermost loop:

* the spike train of each timestep is used directly as the bitmask (no
  compression gain on ``A``: every spike bit -- 0 or 1 -- is fetched),
* one inner-join pass (bitmask scan + matched accumulations) is paid per
  timestep per output neuron,
* membrane potentials must be carried between the per-timestep passes.

SparTen-ANN (used in Figure 18) is the original design on a dual-sparse ANN:
8-bit activations compressed with bitmask fibers, multiply-accumulate
compute, two fast prefix-sum circuits and no temporal loop.
"""

from __future__ import annotations

import numpy as np

from ..core.base import SimulatorBase
from ..engine import AnnLayerEvaluation, LayerEvaluation
from ..metrics.results import SimulationResult
from .common import bitmask_fiber_bytes, streaming_refetch_factor

__all__ = ["SparTenSNN", "SparTenANN"]


class SparTenSNN(SimulatorBase):
    """SparTen running a dual-sparse SNN with sequential timesteps."""

    name = "SparTen-SNN"

    @property
    def per_timestep_overhead_cycles(self) -> int:
        """Extra cycles per (output neuron, timestep) for restarting the inner
        join pipeline, reloading the spike-train chunk buffers and updating
        the membrane potential between the sequential timestep passes."""
        return self.arch.baseline.per_timestep_overhead_cycles

    def simulate_layer(
        self,
        spikes: np.ndarray,
        weights: np.ndarray,
        name: str = "layer",
        evaluation: LayerEvaluation | None = None,
        **kwargs,
    ) -> SimulationResult:
        """Simulate one dual-sparse SNN layer on SparTen-SNN."""
        cfg = self.config
        energy_model = cfg.energy
        if evaluation is None:
            evaluation = LayerEvaluation(spikes, weights)
        stats = evaluation.statistics
        m, k, n, t = stats.m, stats.k, stats.n, stats.t
        result = SimulationResult(accelerator=self.name, workload=name)

        # ---------------- compute cycles ---------------- #
        chunks = cfg.bitmask_chunks(k)
        # Widened: the join is stored in a narrow unsigned dtype.
        task_cycles = (
            t * chunks + stats.true_acs.astype(np.float64) + t * self.per_timestep_overhead_cycles
        )
        compute_cycles = self.grouped_wave_cycles(task_cycles, cfg.num_tppes)

        # ---------------- traffic ---------------- #
        dense_a_bytes = m * k * t / 8.0
        b_payload_bytes = stats.nnz_weights * cfg.weight_bits / 8.0
        b_format_bytes = (k * n + n * cfg.pointer_bits) / 8.0
        output_bytes = m * n * t / 8.0
        row_groups = -(-m // cfg.num_tppes)

        # Dense spike trains may have to be re-streamed from DRAM when the
        # per-layer working set exceeds the global cache (one pass per output
        # column group).
        a_refetch = streaming_refetch_factor(
            dense_a_bytes,
            b_payload_bytes + b_format_bytes,
            cfg.global_cache_bytes,
            passes=max(1, n // cfg.num_tppes),
        )
        result.dram.add("input", dense_a_bytes * a_refetch)
        result.dram.add("weight", b_payload_bytes)
        result.dram.add("format", b_format_bytes)
        result.dram.add("output", output_bytes)

        # One bitmask scan of A and B per output neuron per timestep; matched
        # weights fetched per genuine accumulation; weight fibers broadcast
        # per row group per timestep.
        total_true_acs = evaluation.true_accumulations
        sram_a = m * n * t * k / 8.0
        sram_b_bitmask = row_groups * n * t * k / 8.0
        sram_b_payload = row_groups * t * b_payload_bytes
        result.sram.add("input", sram_a)
        result.sram.add("format", sram_b_bitmask)
        result.sram.add("weight", sram_b_payload)
        result.sram.add("output", output_bytes)

        fiber_accesses = m * n * t + row_groups * n * t
        fiber_misses = (m * t) * a_refetch + n
        result.sram_miss_rate = fiber_misses / fiber_accesses if fiber_accesses else 0.0

        # ---------------- energy ---------------- #
        dram_bytes = result.dram.total()
        sram_bytes = result.sram.total()
        result.energy.add("dram", dram_bytes * energy_model.dram_per_byte)
        result.energy.add("sram", sram_bytes * energy_model.sram_per_byte)
        # Membrane potentials are read and written per output neuron per
        # timestep (2 bytes each way).
        membrane_bytes = m * n * t * 4.0
        result.energy.add("buffer", (total_true_acs + membrane_bytes) * energy_model.buffer_per_byte)
        result.energy.add("compute", total_true_acs * energy_model.accumulate)
        prefix_invocations = m * n * t * chunks
        result.energy.add("prefix_sum", prefix_invocations * energy_model.fast_prefix_sum)
        result.energy.add("lif", m * n * t * energy_model.lif_update)

        cycles, memory_cycles = self.roofline_cycles(compute_cycles, dram_bytes, sram_bytes)
        result.compute_cycles = compute_cycles
        result.memory_cycles = memory_cycles
        result.cycles = cycles
        result.add_ops("true_accumulations", total_true_acs)
        result.add_ops("prefix_sum_invocations", prefix_invocations)
        result.add_ops("lif_updates", m * n * t)
        result.extra["input_refetch_factor"] = a_refetch
        return result


class SparTenANN(SimulatorBase):
    """The original SparTen design running a dual-sparse ANN layer."""

    name = "SparTen-ANN"

    def simulate_layer(
        self,
        activations: np.ndarray,
        weights: np.ndarray,
        name: str = "layer",
        evaluation: AnnLayerEvaluation | None = None,
        **kwargs,
    ) -> SimulationResult:
        """Simulate one dual-sparse ANN layer (``activations`` is ``(M, K)``)."""
        if evaluation is None:
            evaluation = AnnLayerEvaluation(activations, weights)
        cfg = self.config
        energy_model = cfg.energy
        m, k, n = evaluation.m, evaluation.k, evaluation.n
        result = SimulationResult(accelerator=self.name, workload=name)

        matches = evaluation.matches
        total_matches = evaluation.total_matches
        nnz_act = evaluation.nnz_activations
        nnz_w = evaluation.nnz_weights

        chunks = cfg.bitmask_chunks(k)
        task_cycles = chunks + matches + cfg.task_overhead_cycles
        compute_cycles = self.grouped_wave_cycles(task_cycles, cfg.num_tppes)

        activation_bits = 8
        a_bytes = bitmask_fiber_bytes(k, nnz_act, m, activation_bits, cfg.pointer_bits)
        b_bytes = bitmask_fiber_bytes(k, nnz_w, n, cfg.weight_bits, cfg.pointer_bits)
        output_nnz = evaluation.output_nnz
        output_bytes = bitmask_fiber_bytes(n, output_nnz, m, activation_bits, cfg.pointer_bits)
        row_groups = -(-m // cfg.num_tppes)

        result.dram.add("input", nnz_act * activation_bits / 8.0)
        result.dram.add("weight", nnz_w * cfg.weight_bits / 8.0)
        result.dram.add("format", a_bytes + b_bytes - (nnz_act * activation_bits + nnz_w * cfg.weight_bits) / 8.0)
        result.dram.add("output", output_bytes)

        result.sram.add("input", m * n * k / 8.0 + total_matches * activation_bits / 8.0)
        result.sram.add("format", row_groups * n * k / 8.0)
        result.sram.add("weight", row_groups * nnz_w * cfg.weight_bits / 8.0)
        result.sram.add("output", output_bytes)

        dram_bytes = result.dram.total()
        sram_bytes = result.sram.total()
        result.energy.add("dram", dram_bytes * energy_model.dram_per_byte)
        result.energy.add("sram", sram_bytes * energy_model.sram_per_byte)
        result.energy.add("compute", total_matches * energy_model.multiply_accumulate)
        # Two fast prefix-sum circuits (activations and weights).
        prefix_invocations = m * n * chunks
        result.energy.add("prefix_sum", 2 * prefix_invocations * energy_model.fast_prefix_sum)

        cycles, memory_cycles = self.roofline_cycles(compute_cycles, dram_bytes, sram_bytes)
        result.compute_cycles = compute_cycles
        result.memory_cycles = memory_cycles
        result.cycles = cycles
        result.add_ops("multiply_accumulates", total_matches)
        result.add_ops("prefix_sum_invocations", 2 * prefix_invocations)
        return result
