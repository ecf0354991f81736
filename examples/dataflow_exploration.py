"""Design-space exploration: loop placements, then hardware design points.

Run with::

    python examples/dataflow_exploration.py

Part 1 reproduces the Section III analysis: for each base spMspM dataflow
(inner product, outer product, Gustavson) it enumerates every placement of
the timestep loop and reports operand re-fetch factors, partial-sum counts
and sequential latency, showing why the FTP choice (inner product, ``t``
innermost and spatially unrolled) is the only placement that avoids every
penalty.

Part 2 quantifies the compression argument of Figure 8: packed-temporal
storage versus per-timestep CSR versus dense unary storage on a real spike
tensor.

Part 3 explores the *hardware* axis the same way the figures explore the
workload axis: the registered ``dse-*`` scenarios sweep
:class:`repro.arch.ArchSpec` design points -- TPPE counts, global-SRAM
capacities and timestep provisioning -- through the public
:class:`repro.api.Session`.  Because design points are pure cost parameters,
every point of a sweep reuses one cached workload evaluation per layer (the
sweeps below evaluate their layer exactly once, however many points they
price).
"""

from __future__ import annotations

from repro.api import Session
from repro.dataflow import best_placement, enumerate_t_placements
from repro.metrics import format_table


def temporal_placement_analysis() -> None:
    bounds = {"m": 64, "n": 256, "k": 3456, "t": 4}  # the A-L4 layer shape
    print("Temporal-placement analysis on the A-L4 layer shape")
    for dataflow in ("IP", "OP", "Gust"):
        rows = []
        for placement in enumerate_t_placements(dataflow, bounds):
            rows.append(
                [
                    "->".join(placement.order) + (" (parallel t)" if placement.t_spatial else ""),
                    f"{placement.a_refetch:.0f}",
                    f"{placement.b_refetch:.0f}",
                    f"{placement.partial_sums:,}",
                    f"{placement.latency_iterations:,}",
                ]
            )
        print()
        print(
            format_table(
                ["Loop order", "A refetch", "B refetch", "Partial sums", "Sequential iterations"],
                rows,
                title=f"{dataflow} dataflow",
            )
        )

    ftp = best_placement(bounds)
    print(f"\nFTP choice: {'->'.join(ftp.order)} with t spatially unrolled "
          f"(A refetch {ftp.a_refetch:.0f}, B refetch {ftp.b_refetch:.0f}, "
          f"{ftp.latency_iterations:,} sequential iterations)\n")


def compression_argument() -> None:
    # Compression argument of Figure 8: packed-temporal vs per-timestep CSR.
    import numpy as np

    from repro.snn.workloads import get_layer_workload
    from repro.sparse import csr_storage_bits_for_spikes

    workload = get_layer_workload("A-L4").scaled(0.5)
    packed, _ = workload.generate(rng=np.random.default_rng(0))
    csr_bits = csr_storage_bits_for_spikes(packed.to_dense())
    print("Spike compression on a half-scale A-L4 spike tensor:")
    print(f"  dense unary storage : {packed.dense_bits() / 8e3:.1f} KB")
    print(f"  per-timestep CSR    : {csr_bits / 8e3:.1f} KB")
    print(f"  packed (LoAS)       : {packed.storage_bits() / 8e3:.1f} KB "
          f"(silent neurons: {packed.silent_fraction:.1%}, "
          f"compression efficiency: {packed.compression_efficiency():.2f} spikes/bit)")
    print()


def design_point_exploration(session: Session) -> None:
    print("Hardware design-space exploration (ArchSpec sweeps)")

    pe = session.run("dse-pe-scaling")
    rows = [
        [point, f"{row['cycles']:,.0f}", f"{row['speedup_vs_first']:.2f}x",
         f"{row['energy_pj'] / 1e6:.2f}"]
        for point, row in pe.payload.items()
    ]
    print()
    print(format_table(
        ["Design point", "Cycles", "Speedup vs smallest", "Energy (uJ)"],
        rows,
        title="dse-pe-scaling: LoAS across TPPE counts",
    ))

    sram = session.run("dse-sram-sweep")
    simulators = list(next(iter(sram.payload.values())))
    rows = [
        [point] + [f"{per_sim[name]['offchip_kb']:.1f}" for name in simulators]
        for point, per_sim in sram.payload.items()
    ]
    print()
    print(format_table(
        ["Design point"] + [f"{name} off-chip KB" for name in simulators],
        rows,
        title="dse-sram-sweep: off-chip traffic across SRAM capacities",
    ))

    ablation = session.run("dse-timestep-ablation")
    rows = [
        [point, f"{row['relative_performance']:.3f}",
         f"{row['tppe_area_ratio']:.2f}x", f"{row['tppe_power_ratio']:.2f}x"]
        for point, row in ablation.payload.items()
    ]
    print()
    print(format_table(
        ["Design point", "Relative performance", "TPPE area", "TPPE power"],
        rows,
        title="dse-timestep-ablation: the paper's timestep ablation on the arch axis",
    ))

    cache = pe.provenance["cache"]
    print(
        "\nPure-cost sweep economics: the PE sweep priced %d design points "
        "from %d workload evaluation(s)."
        % (len(pe.payload), cache["lru_misses"] + cache["lru_hits"])
    )


def main() -> None:
    temporal_placement_analysis()
    compression_argument()
    # No session-level scale override: the dse scenarios default to the
    # half-scale A-L4 layer, large enough for the SRAM capacity points to
    # actually engage the refetch/spill penalties.
    design_point_exploration(Session())


if __name__ == "__main__":
    main()
