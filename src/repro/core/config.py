"""LoAS hardware configuration: a view over an :class:`~repro.arch.ArchSpec`.

A thin, frozen view over one :class:`~repro.arch.spec.ArchSpec` design
point -- the single source of every hardware parameter -- exposing the
Table III field surface (``config.num_tppes``, ``config.energy``, ...) the
simulators and tests read.  Construction takes a design point plus flat
overrides (see :meth:`ArchSpec.with_overrides`)::

    LoASConfig()                          # the paper's Table III machine
    LoASConfig(timesteps=8)               # a field override
    LoASConfig("loas-32nm-large")         # a registered preset by name
    LoASConfig(spec)                      # an explicit ArchSpec
"""

from __future__ import annotations

from dataclasses import dataclass

from ..arch.energy import EnergyModel
from ..arch.memory import DRAMModel, SRAMModel
from ..arch.spec import ArchSpec, resolve_arch

__all__ = ["LoASConfig"]


@dataclass(frozen=True, init=False)
class LoASConfig:
    """Configuration of the LoAS accelerator and its memory system.

    Defaults follow Table III: 16 TPPEs with 8-bit weights, one inner-join
    unit per TPPE (one fast + one laggy prefix-sum circuit over 128-bit
    bitmask chunks, 16 adders in the laggy circuit), a 256 KB 16-bank global
    cache and a 128 GB/s HBM interface at 800 MHz.

    The only stored state is the :class:`~repro.arch.spec.ArchSpec` design
    point (``config.arch``); every historical field is a read-only view of
    it.  Two configurations are equal exactly when their specs are.

    The spec has a **single clock**: ``config.dram`` is derived from the
    spec's bandwidth *and* clock, so a ``clock_ghz`` override moves the DRAM
    bytes-per-cycle with it.
    """

    arch: ArchSpec

    def __init__(self, arch=None, **overrides):
        object.__setattr__(self, "arch", resolve_arch(arch, overrides))

    # ------------------------------------------------------------------ #
    # Historical field surface (views over the spec)
    # ------------------------------------------------------------------ #
    @property
    def num_tppes(self) -> int:
        """Number of temporal-parallel processing elements."""
        return self.arch.pe.num_tppes

    @property
    def timesteps(self) -> int:
        """Number of timesteps ``T`` the datapath is provisioned for."""
        return self.arch.pe.timesteps

    @property
    def weight_bits(self) -> int:
        """Bit width of the weights of matrix ``B``."""
        return self.arch.pe.weight_bits

    @property
    def bitmask_chunk_bits(self) -> int:
        """Width of the bitmask chunk processed per prefix-sum invocation."""
        return self.arch.pe.bitmask_chunk_bits

    @property
    def laggy_adders(self) -> int:
        """Number of adders in the laggy prefix-sum circuit."""
        return self.arch.pe.laggy_adders

    @property
    def fifo_depth(self) -> int:
        """Depth of the matched-position / matched-weight FIFOs."""
        return self.arch.pe.fifo_depth

    @property
    def weight_buffer_bytes(self) -> int:
        """Per-TPPE buffer holding the current fiber-B non-zero weights."""
        return self.arch.pe.weight_buffer_bytes

    @property
    def pointer_bits(self) -> int:
        """Width of the pointer stored after each fiber bitmask."""
        return self.arch.pe.pointer_bits

    @property
    def task_overhead_cycles(self) -> int:
        """Fixed per-output-neuron pipeline overhead."""
        return self.arch.pe.task_overhead_cycles

    @property
    def global_cache_bytes(self) -> int:
        """Global SRAM (fiber cache) capacity."""
        return self.arch.memory.global_cache_bytes

    @property
    def cache_banks(self) -> int:
        """Global SRAM banking."""
        return self.arch.memory.cache_banks

    @property
    def clock_ghz(self) -> float:
        """Accelerator clock frequency."""
        return self.arch.clock_ghz

    @property
    def dram(self) -> DRAMModel:
        """Off-chip memory timing model derived from the spec."""
        return self.arch.dram_model()

    @property
    def sram(self) -> SRAMModel:
        """Banked global-SRAM timing model derived from the spec."""
        return self.arch.sram_model()

    @property
    def energy(self) -> EnergyModel:
        """Per-event energy constants of the design point."""
        return self.arch.energy

    # ------------------------------------------------------------------ #
    # Derived quantities
    # ------------------------------------------------------------------ #
    @property
    def laggy_latency_cycles(self) -> int:
        """Cycles the laggy prefix-sum needs per bitmask chunk."""
        return -(-self.bitmask_chunk_bits // self.laggy_adders)

    def bitmask_chunks(self, fiber_length: int) -> int:
        """Number of bitmask chunks needed to cover a fiber of ``fiber_length``."""
        if fiber_length < 0:
            raise ValueError("fiber length must be non-negative")
        return -(-fiber_length // self.bitmask_chunk_bits)
