"""Figures 5, 16 and 17: motivation and ablation studies.

* Figure 5 -- off-chip partial-sum traffic of GoSPA (outer-product) running
  SNN layers with 1 vs 4 timesteps, the motivating observation that the
  temporal dimension multiplies psum traffic.
* Figure 16 -- (a) TPPE area / power scaling with the number of timesteps and
  (b) the silent-neuron ratio of VGG16 as the number of timesteps grows,
  with and without the fine-tuned preprocessing.
* Figure 17 -- LoAS scalability across weight sparsity levels, timesteps and
  layer size (V-L8 vs the SpikeTransformer hidden feed-forward layer).

Figures 5 and 17 are declarative sweep scenarios (``fig5-psum-traffic``,
``fig17-scalability``) executed by the orchestrator; Figure 16 is a bespoke
scenario (it measures the workload *generator*, not an accelerator).
"""

from __future__ import annotations

import numpy as np

from ..arch.area import tppe_scaling
from ..arch.spec import DEFAULT_ARCH
from ..metrics.report import format_series, format_table
from ..runner import (
    Scenario,
    SimulatorSpec,
    SweepPlan,
    WorkloadSpec,
    register_scenario,
)
from ..snn.workloads import TABLE2_LAYER_PROFILES, get_layer_workload
from ..sparse.matrix import random_spike_words
from ..sparse.packed import PackedSpikeMatrix, popcount

__all__ = [
    "format_fig5",
    "format_fig16",
    "format_fig17",
]

_FIG5_LAYERS = ("A-L4", "V-L8", "R-L19")
_FIG5_TIMESTEPS = (1, 4)


def fig5_plan(
    layers: tuple[str, ...] = _FIG5_LAYERS,
    scale: float = 1.0,
    seed: int = 1,
    timesteps: tuple[int, ...] = _FIG5_TIMESTEPS,
) -> SweepPlan:
    """GoSPA-SNN over every (layer, T) pair -- the Figure 5 sweep as data."""
    gospa = SimulatorSpec("GoSPA-SNN")
    workloads = tuple(
        WorkloadSpec("layer", name, scale=scale, timesteps=t)
        for name in layers
        for t in timesteps
    )
    return SweepPlan.product("fig5", workloads, (gospa,), seeds=(seed,))


def _shape_fig5(results, **_) -> dict[str, dict[str, float]]:
    output: dict[str, dict[str, float]] = {}
    for cell, result in results:
        per_t = output.setdefault(cell.workload.name, {})
        per_t[f"T={cell.workload.timesteps}"] = result.dram.get("psum") / 1e3
    return output


register_scenario(
    Scenario(
        name="fig5-psum-traffic",
        description="Figure 5: GoSPA-SNN off-chip psum traffic at T=1 vs T=4",
        build=fig5_plan,
        shape=_shape_fig5,
        defaults=(
            ("layers", _FIG5_LAYERS),
            ("scale", 1.0),
            ("seed", 1),
            ("timesteps", _FIG5_TIMESTEPS),
        ),
    )
)


def format_fig5(payload) -> str:
    """ASCII rendition of a ``fig5-psum-traffic`` payload."""
    return format_series(
        payload,
        title="Figure 5: off-chip psum traffic (KB) on GoSPA-SNN",
    )


def _fig16_temporal(
    timesteps: tuple[int, ...] = (4, 8, 16),
    scale: float = 0.25,
    seed: int = 0,
) -> dict[str, dict[str, float]]:
    """TPPE scaling and silent-neuron ratio versus timesteps (Figure 16)."""
    area: dict[str, float] = {}
    power: dict[str, float] = {}
    for t in timesteps:
        area_ratio, power_ratio = tppe_scaling(t)
        area[f"T={t}"] = area_ratio
        power[f"T={t}"] = power_ratio

    # Silent-neuron scaling on the VGG16 (V-L8) sparsity profile: more
    # timesteps mean more chances to fire, so the silent fraction decays; the
    # preprocessing recovers part of it.
    profile = TABLE2_LAYER_PROFILES["V-L8"]
    base_shape = get_layer_workload("V-L8").shape.scaled(scale)
    silent_origin: dict[str, float] = {}
    silent_ft: dict[str, float] = {}
    rng = np.random.default_rng(seed)
    reference = None
    for t in timesteps:
        per_timestep_fire = (1.0 - profile.silent_fraction) / 4.0
        silent_target = max(0.05, 1.0 - per_timestep_fire * t)
        words = random_spike_words(
            base_shape.m,
            base_shape.k,
            t,
            spike_sparsity=profile.spike_sparsity,
            silent_fraction=silent_target,
            rng=rng,
        )
        origin = PackedSpikeMatrix(words, (base_shape.m, base_shape.k, t)).silent_fraction
        # The preprocessing masks every neuron firing at most once.
        finetuned = np.count_nonzero(popcount(words) <= 1) / words.size
        if reference is None:
            reference = origin
        silent_origin[f"T={t}"] = origin / reference
        silent_ft[f"T={t}"] = finetuned / reference
    return {
        "tppe_area_ratio": area,
        "tppe_power_ratio": power,
        "silent_ratio_origin": silent_origin,
        "silent_ratio_finetuned": silent_ft,
    }


register_scenario(
    Scenario(
        name="fig16-temporal",
        description="Figure 16: TPPE scaling + silent-neuron ratio vs timesteps",
        run=_fig16_temporal,
        defaults=(("timesteps", (4, 8, 16)), ("scale", 0.25), ("seed", 0)),
    )
)


def format_fig16(payload) -> str:
    """ASCII rendition of a ``fig16-temporal`` payload."""
    return format_series(
        payload,
        title="Figure 16: temporal scalability",
    )


def fig17_plan(
    scale: float = 0.25,
    seed: int = 1,
    timesteps: tuple[int, ...] = (4, 8),
    weight_sparsities: tuple[float, ...] = (0.982, 0.684, 0.25),
) -> SweepPlan:
    """The three Figure 17 sub-sweeps as one tagged plan."""
    loas = SimulatorSpec("LoAS")
    weight_cells = SweepPlan.product(
        "fig17",
        tuple(
            WorkloadSpec(
                "layer", "V-L8", scale=scale, profile_overrides=(("weight_sparsity", level),)
            )
            for level in weight_sparsities
        ),
        (loas,),
        seeds=(seed,),
        tag="weight_sparsity",
    )
    # Hardware and workload re-provisioned together: each design point moves
    # pe.timesteps, which re-timesteps the workload (tensor coupling).
    timestep_cells = SweepPlan.product(
        "fig17",
        (WorkloadSpec("layer", "V-L8", scale=scale),),
        (loas,),
        seeds=(seed,),
        tag="timesteps",
        archs=tuple((DEFAULT_ARCH, (("pe.timesteps", t),)) for t in timesteps),
    )
    size_cells = SweepPlan.product(
        "fig17",
        tuple(WorkloadSpec("layer", name, scale=scale) for name in ("V-L8", "T-HFF")),
        (loas,),
        seeds=(seed,),
        tag="layer_size",
    )
    return weight_cells + timestep_cells + size_cells


def _shape_fig17(results, **_) -> dict[str, dict[str, float]]:
    output: dict[str, dict[str, float]] = {
        "weight_sparsity": {},
        "timesteps": {},
        "layer_size": {},
    }

    reference_cycles = None
    for cell, result in results.tagged("weight_sparsity"):
        if reference_cycles is None:
            reference_cycles = result.cycles
        level = dict(cell.workload.profile_overrides)["weight_sparsity"]
        output["weight_sparsity"][f"B={level:.1%}"] = reference_cycles / result.cycles

    reference_cycles = None
    for cell, result in results.tagged("timesteps"):
        if reference_cycles is None:
            reference_cycles = result.cycles
        # A single point at the preset's own T leaves the workload alone
        # (no coupling); its T then lives only on the design point.
        t = cell.workload.timesteps or cell.simulator.resolve_arch().pe.timesteps
        # Relative performance (inverse latency); the paper reports only a
        # ~14 % loss when the number of timesteps doubles.
        output["timesteps"][f"T={t}"] = reference_cycles / result.cycles

    for cell, result in results.tagged("layer_size"):
        throughput = (
            result.ops.get("true_accumulations", 0.0) / result.cycles if result.cycles else 0.0
        )
        output["layer_size"][cell.workload.name] = throughput
    reference = output["layer_size"]["V-L8"] or 1.0
    output["layer_size"] = {k: v / reference for k, v in output["layer_size"].items()}
    return output


register_scenario(
    Scenario(
        name="fig17-scalability",
        description="Figure 17: LoAS sensitivity to weight sparsity, T and layer size",
        build=fig17_plan,
        shape=_shape_fig17,
        defaults=(
            ("scale", 0.25),
            ("seed", 1),
            ("timesteps", (4, 8)),
            ("weight_sparsities", (0.982, 0.684, 0.25)),
        ),
    )
)


def format_fig17(payload) -> str:
    """ASCII rendition of a ``fig17-scalability`` payload."""
    blocks = []
    for sweep, values in payload.items():
        rows = [[label, value] for label, value in values.items()]
        blocks.append(format_table(["Setting", "Relative performance"], rows, title=f"Figure 17: {sweep}"))
    return "\n\n".join(blocks)
