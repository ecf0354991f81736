"""Area / power model of LoAS (Table IV, Figure 15, Figure 16a).

The paper synthesises the key components in RTL (32 nm, 800 MHz) and reports
the component-level area and power in Table IV.  Re-running synthesis is out
of scope for a Python reproduction, so this module encodes the published
component costs as *data* -- an :class:`AreaSpec` held by every
:class:`~repro.arch.spec.ArchSpec` design point -- and exposes:

* the system-level and TPPE-level breakdowns (Table IV / Figure 15), and
* an analytical scaling model of the TPPE with the number of timesteps
  (Figure 16a): only the correction accumulators and the packed-spike input
  buffer grow with ``T``; everything else (bitmask buffers, prefix-sum
  circuits, control) is timestep-agnostic.

Every function accepts an ``area`` keyword selecting the cost table; the
default is the published 32 nm table (:data:`DEFAULT_AREA`); read it through
``DEFAULT_AREA.tppe_table()`` / ``DEFAULT_AREA.system_table()``.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "AreaSpec",
    "ComponentCost",
    "tppe_cost",
    "loas_system_cost",
    "tppe_scaling",
    "system_power_breakdown",
    "tppe_power_breakdown",
]


@dataclass(frozen=True)
class ComponentCost:
    """Area (mm^2) and power (mW) of one hardware component."""

    area_mm2: float
    power_mw: float

    def scaled(self, factor: float) -> "ComponentCost":
        """Return the cost multiplied by ``factor`` (e.g. instance count)."""
        return ComponentCost(self.area_mm2 * factor, self.power_mw * factor)

    def __add__(self, other: "ComponentCost") -> "ComponentCost":
        return ComponentCost(self.area_mm2 + other.area_mm2, self.power_mw + other.power_mw)


@dataclass(frozen=True)
class AreaSpec:
    """The component cost tables and scaling fractions of one design point.

    The default values are the published 32 nm / 800 MHz synthesis results
    (Table IV) and the Figure 16a scaling fractions.  Component tables are
    stored as ``(name, ComponentCost)`` tuples so the whole spec stays
    hashable; use :meth:`tppe_table` / :meth:`system_table` for dict views.

    Attributes
    ----------
    tppe_components:
        Per-TPPE component costs at the reference configuration.
    system_components:
        System-level component costs at the reference configuration.
    timestep_scaled_area_fraction / timestep_scaled_power_fraction:
        Fraction of the TPPE cost that scales linearly with the number of
        timesteps at the reference point (Figure 16a): the correction
        accumulators and the packed-spike input buffer.
    reference_timesteps / reference_tppes:
        The configuration the tables were synthesised at.
    """

    tppe_components: tuple[tuple[str, ComponentCost], ...] = (
        ("accumulators", ComponentCost(2e-3, 0.16)),
        ("fast_prefix", ComponentCost(0.04, 1.46)),
        ("laggy_prefix", ComponentCost(5e-3, 0.32)),
        ("others", ComponentCost(0.013, 0.88)),
    )
    system_components: tuple[tuple[str, ComponentCost], ...] = (
        ("tppes", ComponentCost(0.96, 45.1)),
        ("plifs", ComponentCost(0.02, 1.2)),
        ("global_cache", ComponentCost(0.80, 124.5)),
        ("others", ComponentCost(0.30, 18.1)),
    )
    timestep_scaled_area_fraction: float = 0.125
    timestep_scaled_power_fraction: float = 0.084
    reference_timesteps: int = 4
    reference_tppes: int = 16

    def tppe_table(self) -> dict[str, ComponentCost]:
        """Per-TPPE component costs as a dict."""
        return dict(self.tppe_components)

    def system_table(self) -> dict[str, ComponentCost]:
        """System-level component costs as a dict."""
        return dict(self.system_components)


#: The published 32 nm cost table used when no explicit ``area`` is passed.
DEFAULT_AREA = AreaSpec()


def tppe_cost(timesteps: int = 4, area: AreaSpec | None = None) -> ComponentCost:
    """Area / power of one TPPE configured for ``timesteps`` timesteps.

    Follows the Figure 16a model: a fixed portion plus a portion linear in
    ``T``.  At ``T = 4`` this reproduces the Table IV TPPE totals; at
    ``T = 16`` the area grows by ~1.37x and power by ~1.25x as reported.
    """
    if timesteps < 1:
        raise ValueError("timesteps must be at least 1")
    area = area if area is not None else DEFAULT_AREA
    base = sum((cost for _, cost in area.tppe_components), ComponentCost(0.0, 0.0))
    area_per_t = base.area_mm2 * area.timestep_scaled_area_fraction / area.reference_timesteps
    power_per_t = base.power_mw * area.timestep_scaled_power_fraction / area.reference_timesteps
    fixed_area = base.area_mm2 * (1.0 - area.timestep_scaled_area_fraction)
    fixed_power = base.power_mw * (1.0 - area.timestep_scaled_power_fraction)
    return ComponentCost(fixed_area + area_per_t * timesteps, fixed_power + power_per_t * timesteps)


def tppe_scaling(
    timesteps: int, reference_timesteps: int | None = None, area: AreaSpec | None = None
) -> tuple[float, float]:
    """Area and power of a TPPE at ``timesteps`` relative to the reference."""
    area = area if area is not None else DEFAULT_AREA
    if reference_timesteps is None:
        reference_timesteps = area.reference_timesteps
    current = tppe_cost(timesteps, area=area)
    reference = tppe_cost(reference_timesteps, area=area)
    return current.area_mm2 / reference.area_mm2, current.power_mw / reference.power_mw


def loas_system_cost(
    num_tppes: int = 16, timesteps: int = 4, area: AreaSpec | None = None
) -> dict[str, ComponentCost]:
    """System-level breakdown of LoAS (Table IV left) plus the total.

    The global cache and miscellaneous logic are configuration-independent in
    the published table; the TPPE and P-LIF groups scale with instance count
    and timesteps.
    """
    area = area if area is not None else DEFAULT_AREA
    system = area.system_table()
    per_tppe = tppe_cost(timesteps, area=area)
    reference_tppe = tppe_cost(area.reference_timesteps, area=area)
    tppe_scale = num_tppes / area.reference_tppes * (per_tppe.area_mm2 / reference_tppe.area_mm2)
    tppe_power_scale = num_tppes / area.reference_tppes * (per_tppe.power_mw / reference_tppe.power_mw)
    breakdown = {
        "tppes": ComponentCost(
            system["tppes"].area_mm2 * tppe_scale,
            system["tppes"].power_mw * tppe_power_scale,
        ),
        "plifs": system["plifs"].scaled(
            num_tppes / area.reference_tppes * timesteps / area.reference_timesteps
        ),
        "global_cache": system["global_cache"],
        "others": system["others"],
    }
    breakdown["total"] = sum(breakdown.values(), ComponentCost(0.0, 0.0))
    return breakdown


def system_power_breakdown(
    num_tppes: int = 16, timesteps: int = 4, area: AreaSpec | None = None
) -> dict[str, float]:
    """Fraction of on-chip power per system component (Figure 15 left)."""
    breakdown = loas_system_cost(num_tppes, timesteps, area=area)
    total = breakdown["total"].power_mw
    return {
        name: cost.power_mw / total
        for name, cost in breakdown.items()
        if name != "total"
    }


def tppe_power_breakdown(area: AreaSpec | None = None) -> dict[str, float]:
    """Fraction of TPPE power per component (Figure 15 right)."""
    area = area if area is not None else DEFAULT_AREA
    total = sum(cost.power_mw for _, cost in area.tppe_components)
    return {name: cost.power_mw / total for name, cost in area.tppe_components}
