"""PTB baseline: dense systolic-array SNN accelerator (partially temporal parallel).

PTB [Lee et al., HPCA'22] maps *time-windows* (groups of contiguous
timesteps) to the columns of a systolic array and LIF neurons to its rows.
Timesteps inside a window are processed sequentially, and the design does not
exploit spike or weight sparsity -- every weight and every (zero or one)
spike flows through the array.  The paper configures a 16x4 array so that 16
full-sum outputs for 4 timesteps are produced in parallel, matching LoAS's
output rate, and still reports a ~47x speedup for LoAS on the dual-sparse
VGG16 workload.
"""

from __future__ import annotations

from ..arch.systolic import SystolicArray
from ..core.base import SimulatorBase
from ..engine import LayerEvaluation
from ..metrics.results import SimulationResult

__all__ = ["PTBSimulator"]


class PTBSimulator(SimulatorBase):
    """Analytical model of PTB running a (dense) SNN workload."""

    name = "PTB"

    @property
    def window_capacity(self) -> int:
        """Nominal number of timesteps one time-window column is designed for.
        PTB targets long event-stream workloads (window >> 4); with only 4
        timesteps per window slot the temporal lanes are under-utilised."""
        return self.arch.baseline.window_capacity

    def __init__(self, config=None, array: SystolicArray | None = None):
        super().__init__(config)
        baseline = self.arch.baseline
        self.array = array or SystolicArray(
            rows=baseline.systolic_rows, cols=baseline.systolic_cols
        )

    def simulate_layer(
        self, evaluation: LayerEvaluation, *, name: str = "layer", **kwargs
    ) -> SimulationResult:
        """Simulate one SNN layer (processed densely) on PTB."""
        cfg = self.config
        energy_model = cfg.energy
        m, k, t = evaluation.m, evaluation.k, evaluation.t
        n = evaluation.n
        result = SimulationResult(accelerator=self.name, workload=name)

        # Array rows hold LIF neurons (output channels), array columns hold
        # time-windows.  With T <= columns every timestep runs in parallel
        # (the 16x4 configuration of Figure 19); larger T repeats the pass.
        # The input rows and the (dense) reduction dimension stream through
        # sequentially -- PTB exploits neither spike nor weight sparsity.
        timesteps_per_column = -(-t // self.array.cols)
        output_folds = -(-n // self.array.rows)
        compute_cycles = float(
            output_folds
            * (m * k + self.array.rows + self.array.cols)
            * timesteps_per_column
        )
        dense_acs_cycles = compute_cycles * self.array.num_pes
        array_utilization = (float(m) * k * n * t) / dense_acs_cycles if dense_acs_cycles else 0.0

        # Dense traffic: all weights, all spike bits, all output spikes.
        dense_weight_bytes = k * n * cfg.weight_bits / 8.0
        dense_spike_bytes = m * k * t / 8.0
        output_bytes = m * n * t / 8.0
        result.dram.add("weight", dense_weight_bytes)
        result.dram.add("input", dense_spike_bytes)
        result.dram.add("output", output_bytes)

        # On-chip: weights are re-streamed once per input-row tile (the small
        # array cannot keep the layer's weights stationary) and the spikes
        # once per output fold; psums circulate between PEs.
        row_folds = -(-n // self.array.rows)
        col_folds = -(-m // self.array.cols)
        result.sram.add("weight", dense_weight_bytes * col_folds)
        result.sram.add("input", dense_spike_bytes * row_folds)
        result.sram.add("psum", m * n * t * 2.0)
        result.sram.add("output", output_bytes)

        dram_bytes = result.dram.total()
        sram_bytes = result.sram.total()
        result.energy.add("dram", dram_bytes * energy_model.dram_per_byte)
        result.energy.add("sram", sram_bytes * energy_model.sram_per_byte)
        dense_acs = float(m) * k * n * t
        result.energy.add("compute", dense_acs * energy_model.accumulate)
        result.energy.add("lif", m * n * t * energy_model.lif_update)

        cycles, memory_cycles = self.roofline_cycles(compute_cycles, dram_bytes, sram_bytes)
        result.compute_cycles = compute_cycles
        result.memory_cycles = memory_cycles
        result.cycles = cycles
        result.add_ops("dense_accumulations", dense_acs)
        result.extra["array_utilization"] = min(1.0, array_utilization)
        result.extra["temporal_lane_utilization"] = min(1.0, t / self.array.cols)
        return result
