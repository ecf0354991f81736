"""GoSPA-SNN baseline (outer-product dataflow).

GoSPA [Deng et al., ISCA'21] is an outer-product spMspM accelerator: each
non-zero activation is joined with the corresponding weight row, producing
rank-1 partial-sum updates that are merged in a small on-chip psum memory.
Running a dual-sparse SNN on it with sequential timesteps multiplies the
partial-sum working set by ``T``: each timestep produces its own psum matrix
(Section II-D, Figure 5), and whatever does not fit in the psum memory must
be spilled to DRAM and read back for the final reduction.

The input spikes are stored per-timestep in CSR, paying multi-bit
coordinates per unary spike -- the compressed-format overhead called out in
Figure 14.
"""

from __future__ import annotations

from ..core.base import SimulatorBase
from ..engine import LayerEvaluation
from ..metrics.results import SimulationResult
from .common import coordinate_bits, csr_bytes

__all__ = ["GoSPASNN"]


class GoSPASNN(SimulatorBase):
    """GoSPA running a dual-sparse SNN with sequential timesteps."""

    name = "GoSPA-SNN"

    @property
    def psum_buffer_bytes(self) -> int:
        """Bytes of the dedicated on-chip partial-sum memory.  GoSPA provisions
        a small psum scratchpad; with the ``T`` extra psum matrices of an SNN
        it overflows on most layers (Figure 5)."""
        return self.arch.baseline.psum_buffer_bytes

    @property
    def psum_bytes(self) -> int:
        """Bytes per partial-sum element (16-bit accumulators)."""
        return self.arch.baseline.psum_bytes

    @property
    def psum_access_bytes(self) -> float:
        """Bytes moved per psum update (read-modify-write at line granularity
        of the banked psum memory)."""
        return self.arch.baseline.psum_access_bytes

    @property
    def psum_update_throughput(self) -> float:
        """Partial-sum updates the banked psum memory can absorb per cycle."""
        return self.arch.baseline.psum_update_throughput

    def simulate_layer(
        self, evaluation: LayerEvaluation, *, name: str = "layer", **kwargs
    ) -> SimulationResult:
        """Simulate one dual-sparse SNN layer on GoSPA-SNN."""
        cfg = self.config
        energy_model = cfg.energy
        stats = evaluation.statistics
        m, k, n, t = stats.m, stats.k, stats.n, stats.t
        result = SimulationResult(accelerator=self.name, workload=name)
        total_true_acs = evaluation.true_accumulations

        # ---------------- compute cycles ---------------- #
        # The multiplier-free update stream is bounded by how many psum
        # updates the banked psum memory accepts per cycle; streaming the
        # non-zero spikes through the intersection units adds a second bound.
        compute_cycles = max(
            total_true_acs / self.psum_update_throughput,
            stats.nnz_spikes / cfg.num_tppes,
        )

        # ---------------- psum spills ---------------- #
        psum_matrix_bytes = m * n * self.psum_bytes
        spill_fraction = max(0.0, 1.0 - self.psum_buffer_bytes / psum_matrix_bytes) if psum_matrix_bytes else 0.0
        psum_dram_bytes = 2.0 * t * psum_matrix_bytes * spill_fraction
        # Spilled psums are merged back at the psum update throughput.
        compute_cycles += psum_dram_bytes / self.psum_bytes / self.psum_update_throughput

        # ---------------- traffic ---------------- #
        a_coord_bits = coordinate_bits(k)
        a_csr_bytes = csr_bytes(stats.nnz_spikes, k, m * t, value_bits=0, pointer_bits=cfg.pointer_bits)
        a_format_bytes = stats.nnz_spikes * a_coord_bits / 8.0 + (m * t) * cfg.pointer_bits / 8.0
        b_payload_bytes = stats.nnz_weights * cfg.weight_bits / 8.0
        b_format_bytes = stats.nnz_weights * coordinate_bits(n) / 8.0 + k * cfg.pointer_bits / 8.0
        output_bytes = csr_bytes(
            float(stats.nnz_spikes) * n / max(k, 1),  # rough output nnz proxy, refined below
            n,
            m * t,
            value_bits=0,
            pointer_bits=cfg.pointer_bits,
        )
        # Outputs: unary spikes written per timestep in CSR as well.
        output_bytes = m * n * t / 8.0 + (m * t) * cfg.pointer_bits / 8.0

        result.dram.add("input", a_csr_bytes - a_format_bytes)
        result.dram.add("format", a_format_bytes + b_format_bytes)
        result.dram.add("weight", b_payload_bytes)
        result.dram.add("psum", psum_dram_bytes)
        result.dram.add("output", output_bytes)

        # On-chip: the input stream is read once; every active column of A
        # pulls the corresponding weight row once per timestep; every psum
        # update reads and writes the psum memory.
        sram_b = stats.active_row_weights * (cfg.weight_bits + coordinate_bits(n)) / 8.0
        sram_psum = total_true_acs * self.psum_access_bytes + 2.0 * psum_dram_bytes
        result.sram.add("input", a_csr_bytes)
        result.sram.add("weight", sram_b)
        result.sram.add("psum", sram_psum)
        result.sram.add("output", output_bytes)

        # Output-stationary streaming keeps the miss rate low: inputs and
        # weights are each fetched once, psum spills are the only re-reads.
        fiber_accesses = m * t + float(stats.active_column_steps)
        fiber_misses = m * t + float(stats.active_columns)
        result.sram_miss_rate = fiber_misses / (fiber_accesses + 2 * m * t) if fiber_accesses else 0.0

        # ---------------- energy ---------------- #
        dram_bytes = result.dram.total()
        sram_bytes = result.sram.total()
        result.energy.add("dram", dram_bytes * energy_model.dram_per_byte)
        result.energy.add("sram", sram_bytes * energy_model.sram_per_byte)
        result.energy.add("compute", total_true_acs * energy_model.accumulate)
        result.energy.add("merger", total_true_acs * energy_model.merger_per_element)
        result.energy.add("lif", m * n * t * energy_model.lif_update)

        cycles, memory_cycles = self.roofline_cycles(compute_cycles, dram_bytes, sram_bytes)
        result.compute_cycles = compute_cycles
        result.memory_cycles = memory_cycles
        result.cycles = cycles
        result.add_ops("true_accumulations", total_true_acs)
        result.add_ops("psum_spill_bytes", psum_dram_bytes)
        result.extra["psum_spill_fraction"] = spill_fraction
        return result
