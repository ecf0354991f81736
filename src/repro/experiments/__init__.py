"""One experiment module per table / figure of the LoAS evaluation.

============  ==========================================  =========================
Paper item    What it shows                               Scenario
============  ==========================================  =========================
Table I       accelerator capability matrix               ``table1-capabilities``
Table II      workload sparsity statistics                ``table2-workloads``
Figure 5      GoSPA psum traffic, T=1 vs T=4              ``fig5-psum-traffic``
Figure 11     fine-tuned preprocessing accuracy           ``fig11-preprocessing``
Figure 12     speedup & energy vs SNN baselines           ``fig12-overall``
Figure 13     off-chip / on-chip traffic                  ``fig13-traffic``
Figure 14     traffic breakdown + SRAM miss rate          ``fig14-breakdown``
Table IV      area / power breakdown                      ``table4-area-power``
Figure 15     power breakup pies                          ``table4-area-power``
Figure 16     temporal scalability                        ``fig16-temporal``
Figure 17     sparsity / timestep / size scalability      ``fig17-scalability``
Figure 18     dual-sparse SNN vs dual-sparse ANN          ``fig18-snn-vs-ann``
Figure 19     LoAS vs dense SNN accelerators              ``fig19-dense-baselines``
(sweeps)      every accelerator x networks / layers       ``networks`` / ``layers``
(DSE)         ArchSpec design-point sweeps                ``dse-*``
============  ==========================================  =========================

The ``dse-*`` scenarios (:mod:`repro.experiments.dse`) go beyond the paper:
they sweep :class:`~repro.arch.ArchSpec` hardware design points (TPPE
counts, SRAM capacities, timestep provisioning) through the same registry.

Most scenarios accept a ``scale`` parameter that proportionally shrinks the
workload dimensions while preserving the sparsity profiles, so the whole
suite can be exercised quickly by the tests and benchmarks; ``scale=1.0``
reproduces the paper-sized workloads.

Importing this package populates the :mod:`repro.runner` registry, after
which any figure or table runs through the public API::

    from repro.api import Session
    from repro.experiments import format_fig13
    session = Session(workers=2, scale=0.25)
    result = session.run("fig13-traffic")        # ScenarioResult
    print(format_fig13(result.payload))          # ASCII rendition
    for partition in session.stream("fig13-traffic"):
        ...                                      # PartitionResult as it lands

Each ``format_*`` function renders the payload of its scenario; none of
them runs anything.
"""

from .ablations import format_fig5, format_fig16, format_fig17
from .comparisons import format_fig11, format_fig18, format_fig19
from .performance import format_fig12, format_fig13, format_fig14
from ..runner import get_scenario, list_scenarios
from .dse import dse_pe_plan, dse_sram_plan, dse_timestep_plan
from .sweeps import (
    DEFAULT_LAYERS,
    DEFAULT_NETWORKS,
    layer_sweep_plan,
    network_sweep_plan,
)
from .tables import format_table1, format_table2, format_table4

__all__ = [
    "DEFAULT_LAYERS",
    "DEFAULT_NETWORKS",
    "dse_pe_plan",
    "dse_sram_plan",
    "dse_timestep_plan",
    "format_fig5",
    "format_fig11",
    "format_fig12",
    "format_fig13",
    "format_fig14",
    "format_fig16",
    "format_fig17",
    "format_fig18",
    "format_fig19",
    "format_table1",
    "format_table2",
    "format_table4",
    "get_scenario",
    "layer_sweep_plan",
    "list_scenarios",
    "network_sweep_plan",
]
