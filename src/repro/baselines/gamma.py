"""Gamma-SNN and Gamma-ANN baselines (Gustavson's dataflow).

Gamma [Zhang et al., ASPLOS'21] uses Gustavson's row-wise product: for every
non-zero of an input row, the corresponding weight row is fetched from the
fiber cache and merged into the growing output row by a high-radix merger.
Its strength is off-chip traffic -- partial output rows stay on chip -- and
its weakness when running SNNs sequentially over timesteps is on-chip
traffic: every timestep re-streams weight rows and re-merges partial output
rows, multiplying the SRAM traffic by roughly ``T`` (Section VI-A).

Gamma-ANN (Figure 18) is the original design on a dual-sparse ANN with 8-bit
activations and a single temporal pass.
"""

from __future__ import annotations

import numpy as np

from ..core.base import SimulatorBase
from ..engine import AnnLayerEvaluation, LayerEvaluation
from ..metrics.results import SimulationResult
from .ann import AnnLayerWorkload
from .common import bitmask_fiber_bytes, coordinate_bits

__all__ = ["GammaSNN", "GammaANN"]


class GammaSNN(SimulatorBase):
    """Gamma running a dual-sparse SNN with sequential timesteps.

    The microparameters below read the injected design point
    (``config.arch.baseline``) instead of hard-wired class attributes, so a
    design-space sweep moves them like any other hardware knob.
    """

    name = "Gamma-SNN"

    @property
    def merger_radix(self) -> int:
        """Radix of the on-chip merger (how many scaled rows merge per pass)."""
        return self.arch.baseline.merger_radix

    @property
    def effective_merge_radix(self) -> int:
        """Effective merge radix when running SNNs with sequential timesteps:
        the per-timestep passes fragment the merge schedule, so partial output
        rows bounce through the fiber cache after merging only a couple of
        scaled rows instead of a full radix-64 group (this is the mechanism
        behind the "t-dim enlarges the partial row traffic" observation of
        Section VI-A)."""
        return self.arch.baseline.effective_merge_radix

    @property
    def psum_bytes(self) -> int:
        """Bytes per partial-sum element held in partial output rows."""
        return self.arch.baseline.psum_bytes

    @property
    def merge_throughput(self) -> float:
        """Elements the merge pipeline retires per cycle across all PEs."""
        return self.arch.baseline.merge_throughput

    def simulate_layer(
        self, evaluation: LayerEvaluation, *, name: str = "layer", **kwargs
    ) -> SimulationResult:
        """Simulate one dual-sparse SNN layer on Gamma-SNN."""
        cfg = self.config
        energy_model = cfg.energy
        stats = evaluation.statistics
        m, k, n, t = stats.m, stats.k, stats.n, stats.t
        result = SimulationResult(accelerator=self.name, workload=name)
        total_true_acs = evaluation.true_accumulations

        # ---------------- compute cycles ---------------- #
        # Each genuine accumulation flows through the merger once; partial
        # output rows that need several radix-limited merge rounds flow
        # through again on every extra round (every (m, t) row makes at
        # least one round, so the extra rounds are the total minus M * T).
        remerged_elements = float(n * (evaluation.merge_round_sum(self.merger_radix) - m * t))
        compute_cycles = (total_true_acs + remerged_elements) / self.merge_throughput

        # ---------------- traffic ---------------- #
        # Inputs: spike rows stored per timestep with per-spike coordinates.
        a_coord_bits = coordinate_bits(k)
        a_payload_bytes = 0.0  # unary spikes carry no payload
        a_format_bytes = stats.nnz_spikes * a_coord_bits / 8.0 + m * t * cfg.pointer_bits / 8.0
        b_payload_bytes = stats.nnz_weights * cfg.weight_bits / 8.0
        b_format_bytes = stats.nnz_weights * coordinate_bits(n) / 8.0 + k * cfg.pointer_bits / 8.0
        output_bytes = m * n * t / 8.0 + m * t * cfg.pointer_bits / 8.0

        result.dram.add("input", a_payload_bytes)
        result.dram.add("format", a_format_bytes + b_format_bytes)
        result.dram.add("weight", b_payload_bytes)
        result.dram.add("output", output_bytes)
        # The fiber cache keeps partial rows on chip; with the extra t-dim the
        # working set of in-flight partial rows grows T-fold, and whatever
        # does not fit must make a round trip to DRAM.
        partial_row_working_set = m * t * n * self.psum_bytes
        spill_fraction = (
            max(0.0, 1.0 - cfg.global_cache_bytes / partial_row_working_set)
            if partial_row_working_set
            else 0.0
        )
        psum_dram = 2.0 * partial_row_working_set * spill_fraction
        result.dram.add("psum", psum_dram)

        # On-chip: every non-zero spike pulls a weight row from the fiber
        # cache, so the elements fetched are the genuine accumulations;
        # every merge round reads and writes the partial row.  The
        # sequential timestep passes fragment the merge into much smaller
        # groups, so partial rows make many more fiber-cache round trips
        # than the compute-side radix suggests.
        sram_b = total_true_acs * (cfg.weight_bits + coordinate_bits(n)) / 8.0
        partial_row_traffic = 2.0 * float(
            n * self.psum_bytes * evaluation.merge_round_sum(self.effective_merge_radix)
        )
        result.sram.add("weight", sram_b)
        result.sram.add("psum", partial_row_traffic + 2.0 * psum_dram)
        result.sram.add("input", a_format_bytes)
        result.sram.add("output", output_bytes)

        fiber_accesses = float(stats.nnz_spikes) + m * t
        fiber_misses = float(stats.active_columns) + m * t
        result.sram_miss_rate = fiber_misses / fiber_accesses if fiber_accesses else 0.0

        # ---------------- energy ---------------- #
        dram_bytes = result.dram.total()
        sram_bytes = result.sram.total()
        result.energy.add("dram", dram_bytes * energy_model.dram_per_byte)
        result.energy.add("sram", sram_bytes * energy_model.sram_per_byte)
        result.energy.add("compute", total_true_acs * energy_model.accumulate)
        result.energy.add(
            "merger", (total_true_acs + remerged_elements) * energy_model.merger_per_element
        )
        result.energy.add("lif", m * n * t * energy_model.lif_update)

        cycles, memory_cycles = self.roofline_cycles(compute_cycles, dram_bytes, sram_bytes)
        result.compute_cycles = compute_cycles
        result.memory_cycles = memory_cycles
        result.cycles = cycles
        result.add_ops("true_accumulations", total_true_acs)
        result.add_ops("remerged_elements", remerged_elements)
        return result


class GammaANN(SimulatorBase):
    """The original Gamma design running a dual-sparse ANN layer."""

    name = "Gamma-ANN"
    layer_type = AnnLayerWorkload

    @property
    def merger_radix(self) -> int:
        """Radix of the on-chip merger."""
        return self.arch.baseline.merger_radix

    @property
    def psum_bytes(self) -> int:
        """Bytes per partial-sum element held in partial output rows."""
        return self.arch.baseline.psum_bytes

    @property
    def merge_throughput(self) -> float:
        """Elements the merge pipeline retires per cycle across all PEs."""
        return self.arch.baseline.merge_throughput

    def simulate_layer(
        self, evaluation: AnnLayerEvaluation, *, name: str = "layer", **kwargs
    ) -> SimulationResult:
        """Simulate one dual-sparse ANN layer (``evaluation.activations`` is ``(M, K)``)."""
        cfg = self.config
        energy_model = cfg.energy
        m, k, n = evaluation.m, evaluation.k, evaluation.n
        result = SimulationResult(accelerator=self.name, workload=name)

        weight_row_nnz = evaluation.weight_row_nnz
        true_macs = evaluation.total_matches
        nnz_act = evaluation.nnz_activations
        nnz_w = evaluation.nnz_weights
        activation_bits = 8

        nnz_per_row = np.count_nonzero(evaluation.activations, axis=1)
        merge_rounds = np.ceil(np.maximum(nnz_per_row, 1.0) / self.merger_radix)
        remerged = float((np.maximum(merge_rounds - 1.0, 0.0) * n).sum())
        compute_cycles = (true_macs + remerged) / self.merge_throughput

        a_bytes = bitmask_fiber_bytes(k, nnz_act, m, activation_bits, cfg.pointer_bits)
        b_payload = nnz_w * cfg.weight_bits / 8.0
        b_format = nnz_w * coordinate_bits(n) / 8.0 + k * cfg.pointer_bits / 8.0
        output_bytes = bitmask_fiber_bytes(n, evaluation.output_nnz, m, activation_bits, cfg.pointer_bits)

        result.dram.add("input", nnz_act * activation_bits / 8.0)
        result.dram.add("format", a_bytes - nnz_act * activation_bits / 8.0 + b_format)
        result.dram.add("weight", b_payload)
        result.dram.add("output", output_bytes)

        weight_row_bytes = weight_row_nnz * (cfg.weight_bits + coordinate_bits(n)) / 8.0
        sram_b = float((np.count_nonzero(evaluation.activations, axis=0) * weight_row_bytes).sum())
        partial_row_traffic = 2.0 * float((merge_rounds * n * self.psum_bytes).sum())
        result.sram.add("weight", sram_b)
        result.sram.add("psum", partial_row_traffic)
        result.sram.add("input", a_bytes)
        result.sram.add("output", output_bytes)

        dram_bytes = result.dram.total()
        sram_bytes = result.sram.total()
        result.energy.add("dram", dram_bytes * energy_model.dram_per_byte)
        result.energy.add("sram", sram_bytes * energy_model.sram_per_byte)
        result.energy.add("compute", true_macs * energy_model.multiply_accumulate)
        result.energy.add("merger", (true_macs + remerged) * energy_model.merger_per_element)

        cycles, memory_cycles = self.roofline_cycles(compute_cycles, dram_bytes, sram_bytes)
        result.compute_cycles = compute_cycles
        result.memory_cycles = memory_cycles
        result.cycles = cycles
        result.add_ops("multiply_accumulates", true_macs)
        return result
