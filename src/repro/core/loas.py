"""LoAS accelerator simulator: cycles, memory traffic and energy.

The model is analytical but exact with respect to the workload's sparsity
structure: all match / correction / operation counts are computed from the
actual tensors (not from expected densities), the wave schedule captures
load imbalance across the 16 TPPEs exactly, and the memory model charges the
compressed fiber bytes that the dataflow actually touches.

Modelled behaviour (Sections III and IV of the paper):

* FTP dataflow: each TPPE computes one output neuron for *all* timesteps;
  rows of ``A`` are processed in groups of ``num_tppes`` per output column.
* Compression: matrix ``A`` is stored in the packed-temporal format (silent
  neurons dropped), matrix ``B`` in column-wise bitmask fibers.
* Inner join: one cycle per 128-bit bitmask chunk plus one cycle per matched
  position through the fast prefix-sum, with a fixed per-fiber drain for the
  laggy circuit and pipeline hand-off.
* Memory: compressed ``A``, ``B`` and the compressed output cross DRAM once;
  the SRAM streams each TPPE's bitmask chunks per output column, broadcasts
  the weight fiber once per row group and delivers matched payload bytes.
* Energy: per-byte DRAM/SRAM/buffer constants plus per-operation costs for
  accumulations, prefix-sum invocations and LIF updates.
"""

from __future__ import annotations

from ..engine import LayerEvaluation
from ..metrics.results import SimulationResult
from ..snn.lif import LIFParameters
from .base import SimulatorBase
from .compressor import OutputCompressor
from .config import LoASConfig
from .scheduler import Scheduler

__all__ = ["LoASSimulator"]


class LoASSimulator(SimulatorBase):
    """Analytical simulator of the LoAS architecture."""

    name = "LoAS"

    def __init__(self, config: LoASConfig | None = None, lif: LIFParameters | None = None):
        super().__init__(config)
        self.lif = lif or LIFParameters()
        self.scheduler = Scheduler(self.config)
        self.compressor = OutputCompressor(self.config)

    # ------------------------------------------------------------------ #
    # Analytical cost model
    # ------------------------------------------------------------------ #
    def simulate_layer(
        self,
        evaluation: LayerEvaluation,
        *,
        name: str = "layer",
        preprocess: bool = False,
        **kwargs,
    ) -> SimulationResult:
        """Simulate one layer of a dual-sparse SNN on LoAS.

        Parameters
        ----------
        evaluation:
            Evaluation of the layer's ``(A, B)`` pair: input spikes ``A`` of
            shape ``(M, K, T)`` and weights ``B`` of shape ``(K, N)``.  The
            workload cache hands out shared ones; wrap raw tensors as
            ``LayerEvaluation(spikes, weights)``.
        name:
            Workload name recorded in the result.
        preprocess:
            Apply the fine-tuned preprocessing (mask input neurons firing
            only once, and drop such neurons from the produced output).
        """
        cfg = self.config
        energy_model = cfg.energy

        if preprocess:
            evaluation = evaluation.preprocessed(max_spikes=1)

        m_dim, k_dim, t_dim = evaluation.m, evaluation.k, evaluation.t
        n_dim = evaluation.n
        result = SimulationResult(accelerator=self.name, workload=name)

        # A is stored in the packed-temporal format: one T-bit word per
        # non-silent neuron, one bitmask bit per neuron.
        nonsilent = evaluation.nonsilent_neurons
        neurons = m_dim * k_dim
        nnz_weights = evaluation.nnz_weights

        # Matched positions (non-silent spike AND non-zero weight) are the
        # work each TPPE performs per output neuron.
        total_matches = evaluation.total_matches

        # True accumulations and the output full sums come from the shared
        # evaluation (single tensordot over k, exact integer arithmetic).
        true_accumulations = evaluation.true_accumulations
        corrections = total_matches * t_dim - true_accumulations

        compression = evaluation.compress_output(self.compressor, self.lif, preprocess=preprocess)

        # ---------------- compute cycles ---------------- #
        # A task costs one cycle per bitmask chunk and per matched position
        # plus a fixed overhead; each of the row_groups x N waves costs its
        # slowest task, and the constant part commutes with that maximum.
        chunks = cfg.bitmask_chunks(k_dim)
        row_groups = -(-m_dim // cfg.num_tppes)
        compute_cycles = float(
            evaluation.wave_max_sum("matches", cfg.num_tppes)
            + row_groups * n_dim * (chunks + cfg.task_overhead_cycles)
        )
        compute_cycles += compression.cycles

        # ---------------- traffic ---------------- #
        a_payload_bytes = nonsilent * t_dim / 8.0
        a_bitmask_bytes = (neurons + m_dim * cfg.pointer_bits) / 8.0
        b_payload_bytes = nnz_weights * cfg.weight_bits / 8.0
        b_bitmask_bytes = (k_dim * n_dim + n_dim * cfg.pointer_bits) / 8.0

        # Off-chip: each compressed operand crosses DRAM once; the compressed
        # output is written back once.
        result.dram.add("input", a_payload_bytes)
        result.dram.add("weight", b_payload_bytes)
        result.dram.add("format", a_bitmask_bytes + b_bitmask_bytes)
        result.dram.add("output", compression.output_bytes)

        # On-chip: spike bitmasks are re-streamed into the TPPEs once per
        # output column; the weight fiber is broadcast once per row group;
        # matched spike payload words are fetched on demand.
        sram_a_bitmask = m_dim * n_dim * k_dim / 8.0
        sram_b_bitmask = row_groups * n_dim * k_dim / 8.0
        sram_a_payload = total_matches * t_dim / 8.0
        sram_b_payload = row_groups * b_payload_bytes
        result.sram.add("input", sram_a_payload)
        result.sram.add("weight", sram_b_payload)
        result.sram.add("format", sram_a_bitmask + sram_b_bitmask)
        result.sram.add("output", compression.output_bytes)

        # Fiber-level miss statistics: every distinct fiber is fetched from
        # DRAM exactly once, while SRAM serves one spike fiber per output
        # column and one weight fiber per row group.
        fiber_accesses = m_dim * n_dim + row_groups * n_dim
        fiber_misses = m_dim + n_dim
        result.sram_miss_rate = fiber_misses / fiber_accesses if fiber_accesses else 0.0

        # ---------------- energy ---------------- #
        dram_bytes = result.dram.total()
        sram_bytes = result.sram.total()
        result.energy.add("dram", dram_bytes * energy_model.dram_per_byte)
        result.energy.add("sram", sram_bytes * energy_model.sram_per_byte)
        result.energy.add(
            "buffer",
            (sram_a_payload + sram_b_payload) * energy_model.buffer_per_byte,
        )
        result.energy.add(
            "compute", (total_matches + corrections) * energy_model.accumulate
        )
        prefix_invocations = m_dim * n_dim * chunks
        result.energy.add(
            "prefix_sum",
            prefix_invocations * (energy_model.fast_prefix_sum + energy_model.laggy_prefix_sum),
        )
        result.energy.add("lif", m_dim * n_dim * t_dim * energy_model.lif_update)
        result.energy.add(
            "crossbar", row_groups * b_payload_bytes * energy_model.crossbar_per_byte
        )

        # ---------------- roofline ---------------- #
        cycles, memory_cycles = self.roofline_cycles(compute_cycles, dram_bytes, sram_bytes)
        result.compute_cycles = compute_cycles
        result.memory_cycles = memory_cycles
        result.cycles = cycles

        # ---------------- bookkeeping ---------------- #
        result.add_ops("pseudo_accumulations", total_matches)
        result.add_ops("correction_accumulations", corrections)
        result.add_ops("true_accumulations", true_accumulations)
        result.add_ops("lif_updates", m_dim * n_dim * t_dim)
        result.add_ops("prefix_sum_invocations", prefix_invocations)
        result.extra["silent_fraction"] = (neurons - nonsilent) / neurons if neurons else 0.0
        result.extra["pe_utilization"] = self.scheduler.pe_utilization(m_dim, n_dim)
        result.extra["output_silent_fraction"] = (
            compression.silent_output_neurons / (m_dim * n_dim) if m_dim * n_dim else 0.0
        )
        result.extra["dropped_output_neurons"] = float(compression.dropped_neurons)
        return result
