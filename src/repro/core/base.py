"""Shared simulator interface for LoAS and every baseline accelerator.

All accelerator models implement ``simulate_layer(evaluation, *, name)``,
which charges one layer's :class:`~repro.engine.evaluation.LayerEvaluation`
(or :class:`~repro.engine.evaluation.AnnLayerEvaluation`) and returns a
:class:`~repro.metrics.results.SimulationResult`.  This base class adds the
common plumbing on top of that single method:

* evaluating a :class:`~repro.snn.workloads.LayerWorkload` through the
  shared workload-evaluation engine and simulating it
  (``simulate_workload``) -- evaluations come from the
  process-wide :class:`~repro.engine.cache.WorkloadEvaluationCache`, so
  several simulators sweeping the same workloads share one evaluation,
* iterating a :class:`~repro.snn.workloads.NetworkWorkload` layer by layer
  and aggregating the results (``simulate_network``), and
* the roofline-style combination of compute cycles with DRAM / SRAM
  bandwidth bounds used by every analytical cost model.
"""

from __future__ import annotations

import numpy as np

from ..engine import LayerEvaluation, default_cache
from ..metrics.results import SimulationResult, aggregate_results
from ..snn.workloads import LayerWorkload, NetworkWorkload
from .config import LoASConfig

__all__ = ["DEFAULT_RNG_SEED", "SimulatorBase"]

#: Seed of the generator used when ``simulate_workload`` /
#: ``simulate_network`` are called without an explicit ``rng``.  This used
#: to be a silent ``default_rng(0)`` fallback buried in the drivers; it is
#: surfaced here so callers can reproduce the implicit stream explicitly
#: (``np.random.default_rng(DEFAULT_RNG_SEED)``).  The sweep orchestrator
#: (:mod:`repro.runner`) never relies on it -- the planner threads explicit
#: per-cell generators through every evaluation.
DEFAULT_RNG_SEED = 0


class SimulatorBase:
    """Common driver logic shared by all accelerator simulators.

    Every simulator charges cycles, traffic and energy to one injected
    hardware design point: ``config`` accepts a :class:`LoASConfig`, a raw
    :class:`~repro.arch.spec.ArchSpec` or a registered preset name
    (``"loas-32nm"``), all normalised to a :class:`LoASConfig` view.
    """

    #: Human-readable accelerator name; subclasses override.
    name: str = "abstract"

    #: The layer workload class whose evaluation ``simulate_layer`` takes;
    #: the sweep executor walks a cell's network as layers of this type.
    layer_type: type = LayerWorkload

    def __init__(self, config: LoASConfig | None = None):
        if config is None:
            config = LoASConfig()
        elif not isinstance(config, LoASConfig):
            config = LoASConfig(config)  # an ArchSpec or a preset name
        self.config = config

    @property
    def arch(self):
        """The :class:`~repro.arch.spec.ArchSpec` design point being modelled."""
        return self.config.arch

    # ------------------------------------------------------------------ #
    # Interface implemented by subclasses
    # ------------------------------------------------------------------ #
    def simulate_layer(self, evaluation, *, name: str = "layer", **kwargs) -> SimulationResult:
        """Simulate one evaluated layer.  Must be overridden.

        ``evaluation`` is a :class:`~repro.engine.evaluation.LayerEvaluation`
        (or an :class:`~repro.engine.evaluation.AnnLayerEvaluation` for an
        ANN model); callers holding raw tensors build one themselves.
        """
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # Workload / network drivers
    # ------------------------------------------------------------------ #
    def simulate_workload(
        self,
        workload: LayerWorkload,
        rng: np.random.Generator | None = None,
        finetuned: bool = False,
        evaluation: LayerEvaluation | None = None,
        **kwargs,
    ) -> SimulationResult:
        """Evaluate the workload through the shared engine and simulate it.

        The tensors (and every derived statistic) come from the process-wide
        workload-evaluation cache: simulating the same workload fingerprint
        with an equal generator state reuses the existing evaluation instead
        of regenerating.  Pass ``evaluation`` to simulate a pre-computed
        evaluation directly.

        Raises ``TypeError`` when the workload's or the evaluation's
        ``kind`` is not that of :attr:`layer_type` (an ANN simulator given
        a spiking layer, or the reverse); an object without a ``kind`` is
        spiking, as the cache and the disk entries read it.
        """
        for given in (workload, evaluation):
            kind = getattr(given, "kind", "snn")
            if given is not None and kind != self.layer_type.kind:
                raise TypeError(
                    "%s simulates %r layers, not a %r %s"
                    % (self.name, self.layer_type.kind, kind, type(given).__name__)
                )
        if evaluation is None:
            rng = np.random.default_rng(DEFAULT_RNG_SEED) if rng is None else rng
            evaluation = default_cache().evaluate(workload, rng, finetuned=finetuned)
        return self.simulate_layer(evaluation, name=workload.name, **kwargs)

    def simulate_network(
        self,
        network: NetworkWorkload,
        rng: np.random.Generator | None = None,
        finetuned: bool = False,
        **kwargs,
    ) -> SimulationResult:
        """Simulate every layer of a network and aggregate the results."""
        rng = np.random.default_rng(DEFAULT_RNG_SEED) if rng is None else rng
        results = [
            self.simulate_workload(layer, rng=rng, finetuned=finetuned, **kwargs)
            for layer in network.layers
        ]
        return aggregate_results(results, accelerator=self.name, workload=network.name)

    # ------------------------------------------------------------------ #
    # Shared modelling helpers
    # ------------------------------------------------------------------ #
    def roofline_cycles(self, compute_cycles: float, dram_bytes: float, sram_bytes: float) -> tuple[float, float]:
        """Combine compute cycles with memory bandwidth bounds.

        Returns ``(total_cycles, memory_cycles)`` where ``memory_cycles`` is
        the larger of the DRAM and SRAM service times and ``total_cycles``
        is the roofline maximum of compute and memory -- the same
        overlapped-transfer assumption the paper's analytical simulator uses.
        """
        dram_cycles = self.config.dram.cycles_for_bytes(dram_bytes)
        sram_cycles = self.config.sram.cycles_for_bytes(sram_bytes)
        memory_cycles = max(dram_cycles, sram_cycles)
        return max(compute_cycles, memory_cycles), memory_cycles
