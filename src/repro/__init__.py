"""Reproduction of *LoAS: Fully Temporal-Parallel Dataflow for Dual-Sparse
Spiking Neural Networks* (MICRO 2024).

The package is organised bottom-up:

* :mod:`repro.sparse` -- the FTP-friendly packed-temporal spike format, its
  fibers and the CSR footprint it is compared against,
* :mod:`repro.snn` -- LIF neurons, the functional spMspM + LIF reference,
  Table II workloads, a toy surrogate-gradient trainer, LTH pruning and the
  fine-tuned silent-neuron preprocessing,
* :mod:`repro.arch` -- hardware design points, energy/area models, memory
  hierarchy and the systolic-array substrate,
* :mod:`repro.dataflow` -- loop-nest analysis of spMspM dataflows with a
  temporal dimension,
* :mod:`repro.engine` -- the shared workload-evaluation engine: per-layer
  tensors and statistics computed once and cached across simulators,
* :mod:`repro.core` -- the LoAS accelerator simulator and the per-fiber
  FTP-friendly inner join,
* :mod:`repro.baselines` -- SparTen/GoSPA/Gamma "-SNN" baselines, the ANN
  originals, and the dense PTB / Stellar baselines,
* :mod:`repro.experiments` -- one scenario per paper table / figure,
* :mod:`repro.api` -- the public surface: :class:`Session`, typed
  :class:`ScenarioResult` records and the ``python -m repro`` CLI.

Quick start -- configure resources once, then run or stream any scenario::

    from repro import Session

    session = Session(workers=2, cache_dir=".eval-cache", scale=0.25)
    result = session.run("fig12-overall")          # ScenarioResult
    print(result.payload["vgg16"]["LoAS"]["speedup"])
    print(result.provenance["cache"])              # hit/miss counters

    stream = session.stream("fig13-traffic")       # partitions as they land
    for partition in stream:
        print(f"{partition.workload_label}: {partition.index + 1}/{partition.total}")
    merged = stream.result                         # == session.run(...), bit-for-bit

    print(session.run("table2-workloads").to_json(indent=2))

The same surface is scriptable from a shell::

    python -m repro list
    python -m repro run fig13-traffic --scale 0.25 --workers 2 --stream

Low-level access stays available for single workloads::

    from repro import LoASSimulator, get_layer_workload

    sim = LoASSimulator()
    result = sim.simulate_workload(get_layer_workload("V-L8"))
    print(result.cycles, result.dram_bytes, result.energy_pj)
"""

__version__ = "0.20.0"

from .api import PartitionResult, ScenarioResult, Session
from .core import LoASConfig, LoASSimulator
from .engine import LayerEvaluation, WorkloadEvaluationCache, default_cache
from .snn import (
    LIFParameters,
    get_layer_workload,
    get_network_workload,
    lif_fire,
    spmspm_reference,
)
from .sparse import PackedSpikeMatrix

__all__ = [
    "LIFParameters",
    "LayerEvaluation",
    "LoASConfig",
    "LoASSimulator",
    "PackedSpikeMatrix",
    "PartitionResult",
    "ScenarioResult",
    "Session",
    "WorkloadEvaluationCache",
    "__version__",
    "default_cache",
    "get_layer_workload",
    "get_network_workload",
    "lif_fire",
    "spmspm_reference",
]
