"""Quickstart: the public API in one sitting -- Session, run, stream, JSON.

Run with::

    python examples/quickstart.py

The script configures one :class:`repro.Session`, checks the engine's
functional path (the FTP full sums and LIF outputs every simulator reads)
against the dense LIF reference, runs the representative-layer sweep
(Figure 14's workloads) through ``session.run``, streams the Figure 13
traffic sweep partition by partition, and round-trips a result record
through the versioned JSON schema.
"""

from __future__ import annotations

import numpy as np

from repro import LayerEvaluation, LoASSimulator, ScenarioResult, Session, get_layer_workload
from repro.metrics import format_table
from repro.snn.layers import spmspm_reference
from repro.snn.lif import lif_fire


def main() -> None:
    # Functional check of the FTP dataflow on a small slice of V-L8.
    workload = get_layer_workload("V-L8")
    spikes, weights = workload.generate(rng=np.random.default_rng(0))
    loas = LoASSimulator()
    spike_slice, weight_slice = spikes.to_dense()[:4, :256], weights[:256, :16]
    slice_output = LayerEvaluation(spike_slice, weight_slice).output_spikes(loas.lif)
    reference = lif_fire(spmspm_reference(spike_slice, weight_slice), loas.lif)
    assert np.array_equal(slice_output, reference)
    print("FTP dataflow matches the dense LIF reference on a sample slice.\n")

    # One Session owns the policy every call below shares: workload scale,
    # worker-pool size and (optionally) the on-disk evaluation-cache tier.
    # Its worker pool is forked by the first pooled run (the stream below),
    # kept for any later one, and ended when the block exits.
    with Session(scale=0.25, workers=2) as session:
        # Batch mode: one call, a typed result record with provenance.
        result = session.run("layers", layers=("V-L8",), seed=1)
        per_accel = result.payload["V-L8"]
        reference_result = per_accel["SparTen-SNN"]  # the paper's normalisation point
        rows = [
            [
                name,
                f"{res.cycles:,.0f}",
                f"{reference_result.cycles / res.cycles:.2f}x",
                f"{res.dram_bytes / 1e3:.1f}",
                f"{res.sram_bytes / 1e6:.2f}",
                f"{res.energy_pj / 1e6:.1f}",
            ]
            for name, res in per_accel.items()
        ]
        print(
            format_table(
                ["Accelerator", "Cycles", "Speedup vs SparTen-SNN", "DRAM (KB)", "SRAM (MB)", "Energy (uJ)"],
                rows,
                title="V-L8 on LoAS and the dual-sparse SNN baselines",
            )
        )
        print(f"\nProvenance: repro {result.provenance['package_version']}, "
              f"seeds {result.provenance['seeds']}, cache {result.provenance['cache']}")

        # Streaming mode: partitions arrive as the runner completes them; the
        # merged result is bit-identical to the batch call.
        print("\nStreaming the Figure 13 traffic sweep:")
        stream = session.stream("fig13-traffic", networks=("alexnet", "vgg16"), seed=1)
        for done, partition in enumerate(stream, start=1):
            # Partitions arrive in completion order over a pool; count arrivals
            # rather than printing partition.index (the stable plan position).
            print(f"  [{done}/{partition.total}] {partition.workload_label} "
                  f"@ seed {partition.seed}: {', '.join(partition.simulator_labels)}")
        merged = stream.result

    # Every record serialises under a versioned schema and decodes back
    # to an equal record -- SimulationResults included.
    decoded = ScenarioResult.from_json(merged.to_json())
    assert decoded == merged
    print("\nScenarioResult JSON round-trip OK; "
          f"alexnet LoAS off-chip traffic: {merged.payload['alexnet']['LoAS']['offchip_kb']:.1f} KB")


if __name__ == "__main__":
    main()
