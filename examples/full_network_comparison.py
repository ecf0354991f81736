"""Full-network comparison: regenerate the Figure 12 / 13 sweep for one network.

Run with::

    python examples/full_network_comparison.py [alexnet|vgg16|resnet19] [scale] [workers]

The script drives the public API (``repro.Session``) over the chosen
Table II network: LoAS (with and without the fine-tuned preprocessing) and
the SparTen / GoSPA / Gamma "-SNN" baselines, printing speedups, energy
efficiency and memory traffic exactly as the paper's overall-performance
figures report them.  Each layer is evaluated once and shared by every
simulator; pass ``workers >= 2`` to spread independent sweep cells over a
process pool (results are bit-identical to the serial run).
"""

from __future__ import annotations

import sys

from repro import Session
from repro.metrics import format_table


def main() -> None:
    network_name = sys.argv[1] if len(sys.argv) > 1 else "vgg16"
    scale = float(sys.argv[2]) if len(sys.argv) > 2 else 1.0
    workers = int(sys.argv[3]) if len(sys.argv) > 3 else None
    print(
        f"Simulating {network_name} (scale={scale}, "
        f"{'serial' if not workers or workers < 2 else f'{workers} workers'}) ...\n"
    )

    with Session(workers=workers, scale=scale) as session:
        results = session.run("networks", networks=(network_name,), seed=1).payload[network_name]

    reference = results["SparTen-SNN"]
    rows = []
    for name, result in results.items():
        rows.append(
            [
                name,
                f"{reference.cycles / result.cycles:.2f}x",
                f"{reference.energy_pj / result.energy_pj:.2f}x",
                f"{result.dram_bytes / 1e6:.2f}",
                f"{result.sram_bytes / 1e6:.1f}",
                f"{result.runtime_seconds() * 1e3:.3f}",
            ]
        )
    print(
        format_table(
            ["Accelerator", "Speedup", "Energy eff.", "DRAM (MB)", "SRAM (MB)", "Runtime (ms)"],
            rows,
            title=f"{network_name}: normalised to SparTen-SNN (Figure 12 / 13 style)",
        )
    )


if __name__ == "__main__":
    main()
