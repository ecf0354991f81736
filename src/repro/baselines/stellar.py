"""Stellar baseline: dense FS-neuron SNN accelerator (fully temporal parallel).

Stellar [Mao et al., HPCA'24] processes all timesteps in parallel with
Few-Spikes (FS) neurons, whose accumulate and fire stages are decoupled, and
uses a spatiotemporal row-stationary dataflow with spike skipping: zero
spikes do not occupy compute cycles.  It does not support weight sparsity,
so every weight is fetched and streamed densely.  In Figure 19 Stellar beats
PTB clearly but LoAS retains a ~7x speedup and ~2.5x energy advantage on the
dual-sparse workload thanks to weight sparsity and compressed spike fetch.
"""

from __future__ import annotations

from ..arch.systolic import SystolicArray
from ..core.base import SimulatorBase
from ..engine import LayerEvaluation
from ..metrics.results import SimulationResult

__all__ = ["StellarSimulator"]


class StellarSimulator(SimulatorBase):
    """Analytical model of Stellar running a (weight-dense) SNN workload."""

    name = "Stellar"

    def __init__(self, config=None, array: SystolicArray | None = None):
        super().__init__(config)
        baseline = self.arch.baseline
        self.array = array or SystolicArray(
            rows=baseline.systolic_rows, cols=baseline.systolic_cols
        )

    def simulate_layer(
        self, evaluation: LayerEvaluation, *, name: str = "layer", **kwargs
    ) -> SimulationResult:
        """Simulate one SNN layer on Stellar (spike skipping, dense weights)."""
        cfg = self.config
        energy_model = cfg.energy
        m, k, t = evaluation.m, evaluation.k, evaluation.t
        n = evaluation.n
        result = SimulationResult(accelerator=self.name, workload=name)

        spike_density = evaluation.spike_density
        # Fully temporal-parallel: all T timesteps of an output are produced
        # in one pass and the decoupled FS accumulate stage skips zero spikes
        # in each temporal lane independently, so the streamed reduction
        # length shrinks to the non-zero spike density.  Weight sparsity is
        # not exploited.
        output_folds = -(-n // self.array.rows)
        compute_cycles = float(
            output_folds * (m * k * spike_density + self.array.rows + self.array.cols)
        )
        peak = compute_cycles * self.array.num_pes
        array_utilization = (float(m) * k * n * t * spike_density) / peak if peak else 0.0

        dense_weight_bytes = k * n * cfg.weight_bits / 8.0
        spike_bytes = m * k * t / 8.0
        output_bytes = m * n * t / 8.0
        result.dram.add("weight", dense_weight_bytes)
        result.dram.add("input", spike_bytes)
        result.dram.add("output", output_bytes)

        row_folds = -(-n // self.array.rows)
        col_folds = -(-m // self.array.cols)
        # Row-stationary reuse: weights re-streamed per output-row fold only,
        # spikes per column fold; FS accumulation keeps psums in registers.
        result.sram.add("weight", dense_weight_bytes * max(1, col_folds // 2))
        result.sram.add("input", spike_bytes * row_folds)
        result.sram.add("output", output_bytes)

        dram_bytes = result.dram.total()
        sram_bytes = result.sram.total()
        result.energy.add("dram", dram_bytes * energy_model.dram_per_byte)
        result.energy.add("sram", sram_bytes * energy_model.sram_per_byte)
        skipped_acs = float(m) * k * n * t * spike_density
        result.energy.add("compute", skipped_acs * energy_model.accumulate)
        result.energy.add("lif", m * n * t * energy_model.lif_update)

        cycles, memory_cycles = self.roofline_cycles(compute_cycles, dram_bytes, sram_bytes)
        result.compute_cycles = compute_cycles
        result.memory_cycles = memory_cycles
        result.cycles = cycles
        result.add_ops("accumulations", skipped_acs)
        result.extra["array_utilization"] = min(1.0, array_utilization)
        return result
