"""``ArchSpec``: one frozen, hashable description of a hardware design point.

Every hardware knob the cost models read -- TPPE provisioning, memory
capacities and bandwidths, the clock, the per-event energy constants, the
Table IV area tables and the baseline-accelerator microparameters -- lives in
one dataclass tree:

* :class:`PESpec` -- the temporal-parallel processing elements (count,
  provisioned timesteps, bitmask chunking, prefix-sum adders, FIFOs),
* :class:`MemorySpec` -- global SRAM capacity / banking / port width and the
  off-chip (HBM) bandwidth,
* :class:`~repro.arch.energy.EnergyModel` -- per-access / per-operation
  energies,
* :class:`~repro.arch.area.AreaSpec` -- the synthesis-derived component cost
  tables and timestep-scaling fractions,
* :class:`BaselineSpec` -- the published microarchitectural parameters of
  the baseline accelerators (systolic array shape, merger radix, psum
  scratchpad size, ...), so a design-space sweep moves *every* simulator's
  knobs through one addressing scheme.

An :class:`ArchSpec` is immutable and hashable, so it can ride inside
:class:`~repro.runner.SimulatorSpec` cells, be pickled to worker processes
and key result dictionaries.  Design points derive from named **presets**
(``"loas-32nm"`` is the paper's Table III machine) via
:meth:`ArchSpec.with_overrides`, which accepts flat ``"group.field"`` paths
as well as unambiguous bare field names::

    spec = get_arch_spec("loas-32nm").with_overrides(**{
        "pe.num_tppes": 32,
        "memory.global_cache_bytes": 512 * 1024,
        "dram_per_byte": 48.0,          # bare name, unique across groups
    })

Hardware design points are pure *cost* parameters: the workload tensors the
evaluation engine caches depend only on the workload (shape including ``T``,
sparsity profile, weight bits) and the generator state, never on the arch.
The one knob with a tensor-side twin is ``pe.timesteps`` -- sweep builders
couple it into ``WorkloadSpec.timesteps`` (where it joins the workload
fingerprint; see :data:`repro.engine.TENSOR_COUPLED_ARCH_FIELDS`) and
nothing else, so pure-cost sweeps (PE counts, SRAM capacity, energy
constants) share one cached evaluation per (layer, variant).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields as dataclass_fields, replace
from typing import Iterable, Mapping

from .area import AreaSpec
from .energy import EnergyModel
from .memory import DRAMModel, SRAMModel

__all__ = [
    "ARCH_PRESETS",
    "ArchSpec",
    "BaselineSpec",
    "DEFAULT_ARCH",
    "MemorySpec",
    "PESpec",
    "arch_label",
    "default_arch",
    "get_arch_spec",
    "list_arch_presets",
    "normalize_overrides",
    "register_arch_preset",
    "resolve_arch",
]

#: Name of the paper's Table III machine, the default design point.
DEFAULT_ARCH = "loas-32nm"


def _check_int_field(spec, name: str, minimum: int = 0) -> None:
    """Reject a field that is not an ``int`` of at least ``minimum``.

    ``bool`` is refused although it subclasses ``int``.  The cost models
    charge the PE count, the per-task cycle overheads, the weight width and
    Gamma's merger radices and partial-sum width as exact integers (the
    wave costs through :meth:`repro.engine.LayerEvaluation.wave_max_sum`,
    the merge rounds through ``merge_round_sum``, the weight-fetch bytes as
    integer counts times the element width), so a float or a negative
    value fails here instead of deep inside a cost model.
    """
    value = getattr(spec, name)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError("%s must be an int, got %r" % (name, value))
    if value < minimum:
        raise ValueError("%s must be at least %d, got %r" % (name, minimum, value))


@dataclass(frozen=True)
class PESpec:
    """Provisioning of the temporal-parallel processing elements.

    Attributes
    ----------
    num_tppes:
        Number of temporal-parallel processing elements.
    timesteps:
        Number of timesteps ``T`` the datapath is provisioned for (one
        pseudo-accumulator plus ``T`` correction accumulators per TPPE).
    weight_bits:
        Bit width of the weights of matrix ``B``.
    bitmask_chunk_bits:
        Width of the bitmask chunk processed per prefix-sum invocation.
    laggy_adders:
        Number of adders in the laggy prefix-sum circuit (latency =
        ``bitmask_chunk_bits / laggy_adders`` cycles).
    fifo_depth:
        Depth of the matched-position / matched-weight FIFOs.
    weight_buffer_bytes:
        Per-TPPE buffer holding the non-zero weights of the current fiber-B.
    pointer_bits:
        Width of the pointer stored after each fiber bitmask.
    task_overhead_cycles:
        Fixed per-output-neuron pipeline overhead (fiber hand-off, P-LIF
        hand-off, laggy-prefix drain at the end of a fiber).
    """

    num_tppes: int = 16
    timesteps: int = 4
    weight_bits: int = 8
    bitmask_chunk_bits: int = 128
    laggy_adders: int = 16
    fifo_depth: int = 8
    weight_buffer_bytes: int = 128
    pointer_bits: int = 32
    task_overhead_cycles: int = 8

    def __post_init__(self) -> None:
        _check_int_field(self, "num_tppes", minimum=1)
        _check_int_field(self, "task_overhead_cycles")
        _check_int_field(self, "weight_bits", minimum=1)
        if self.timesteps < 1:
            raise ValueError("timesteps must be at least 1")
        if self.bitmask_chunk_bits < 1:
            raise ValueError("bitmask_chunk_bits must be at least 1")
        if self.laggy_adders < 1:
            raise ValueError("laggy_adders must be at least 1")


@dataclass(frozen=True)
class MemorySpec:
    """Global SRAM and off-chip DRAM provisioning.

    Attributes
    ----------
    global_cache_bytes:
        Global SRAM (fiber cache) capacity (256 KB in the paper).
    cache_banks:
        Number of independently accessible SRAM banks (16 in the paper).
    sram_bytes_per_bank_per_cycle:
        Bytes each bank delivers per cycle (a 128-bit port by default).
    dram_bandwidth_gbps:
        Peak off-chip (HBM) bandwidth in GB/s (128 GB/s in the paper).
    """

    global_cache_bytes: int = 256 * 1024
    cache_banks: int = 16
    sram_bytes_per_bank_per_cycle: float = 16.0
    dram_bandwidth_gbps: float = 128.0

    def __post_init__(self) -> None:
        if self.global_cache_bytes < 1:
            raise ValueError("global_cache_bytes must be at least 1")
        if self.cache_banks < 1:
            raise ValueError("cache_banks must be at least 1")
        if self.dram_bandwidth_gbps < 0:
            raise ValueError("dram_bandwidth_gbps must be non-negative")


@dataclass(frozen=True)
class BaselineSpec:
    """Published microparameters of the baseline accelerator models.

    These used to live as class attributes inside the individual models;
    collecting them here makes a design point sweep *every* simulator's
    hardware through one addressing scheme.  The defaults are the values the
    baseline papers publish (and the old class attributes carried).

    Attributes
    ----------
    systolic_rows / systolic_cols:
        Shape of the dense baselines' systolic array (PTB / Stellar use a
        16x4 array so 16 outputs x 4 timesteps match LoAS's output rate).
    merger_radix:
        Radix of Gamma's on-chip merger (scaled rows merged per pass).
    effective_merge_radix:
        Effective merge radix of Gamma-SNN under sequential timesteps (the
        per-timestep passes fragment the merge schedule).
    merge_throughput:
        Elements the merge pipeline retires per cycle across all PEs.
    psum_bytes:
        Bytes per partial-sum element (16-bit accumulators).
    psum_buffer_bytes:
        GoSPA's dedicated on-chip partial-sum scratchpad capacity.
    psum_access_bytes:
        Bytes moved per psum update (read-modify-write at line granularity).
    psum_update_throughput:
        Partial-sum updates GoSPA's banked psum memory absorbs per cycle.
    per_timestep_overhead_cycles:
        SparTen-SNN's extra cycles per (output neuron, timestep) for
        restarting the inner-join pipeline between sequential passes.
    window_capacity:
        Timesteps one PTB time-window column is nominally designed for.
    """

    systolic_rows: int = 16
    systolic_cols: int = 4
    merger_radix: int = 64
    effective_merge_radix: int = 2
    merge_throughput: float = 16.0
    psum_bytes: int = 2
    psum_buffer_bytes: int = 8 * 1024
    psum_access_bytes: float = 12.0
    psum_update_throughput: float = 4.0
    per_timestep_overhead_cycles: int = 12
    window_capacity: int = 16

    def __post_init__(self) -> None:
        if self.systolic_rows < 1 or self.systolic_cols < 1:
            raise ValueError("systolic array dimensions must be at least 1")
        _check_int_field(self, "merger_radix", minimum=1)
        _check_int_field(self, "effective_merge_radix", minimum=1)
        _check_int_field(self, "psum_bytes", minimum=1)
        _check_int_field(self, "per_timestep_overhead_cycles")


@dataclass(frozen=True)
class ArchSpec:
    """One complete hardware design point (see the module docstring)."""

    name: str = DEFAULT_ARCH
    clock_ghz: float = 0.8
    pe: PESpec = field(default_factory=PESpec)
    memory: MemorySpec = field(default_factory=MemorySpec)
    energy: EnergyModel = field(default_factory=EnergyModel)
    area: AreaSpec = field(default_factory=AreaSpec)
    baseline: BaselineSpec = field(default_factory=BaselineSpec)

    #: The sub-spec groups addressable through ``"group.field"`` paths.
    GROUPS = ("pe", "memory", "energy", "area", "baseline")
    #: Top-level scalar fields addressable by bare name.
    SCALARS = ("name", "clock_ghz")

    # ------------------------------------------------------------------ #
    # Derived models
    # ------------------------------------------------------------------ #
    def dram_model(self) -> DRAMModel:
        """The off-chip bandwidth model at this spec's clock."""
        return DRAMModel(
            bandwidth_gbps=self.memory.dram_bandwidth_gbps, clock_ghz=self.clock_ghz
        )

    def sram_model(self) -> SRAMModel:
        """The banked global-SRAM model."""
        return SRAMModel(
            capacity_bytes=self.memory.global_cache_bytes,
            num_banks=self.memory.cache_banks,
            bytes_per_bank_per_cycle=self.memory.sram_bytes_per_bank_per_cycle,
        )

    # ------------------------------------------------------------------ #
    # Flat addressing
    # ------------------------------------------------------------------ #
    def get(self, path: str):
        """Value behind a flat path: ``"pe.num_tppes"``, ``"clock_ghz"``, ...

        Bare field names are resolved across the groups when unambiguous,
        exactly like :meth:`with_overrides`.
        """
        group, field_name = self._resolve_key(path)
        if group is None:
            return getattr(self, field_name)
        if field_name is None:
            return getattr(self, group)
        return getattr(getattr(self, group), field_name)

    def flat_items(self) -> tuple[tuple[str, object], ...]:
        """Every scalar knob as ordered ``("group.field", value)`` pairs.

        Composite values (the area component tables) are skipped -- they are
        addressable via :meth:`get`/:meth:`with_overrides` but have no
        scalar rendition.
        """
        items: list[tuple[str, object]] = [
            (scalar, getattr(self, scalar)) for scalar in self.SCALARS
        ]
        for group in self.GROUPS:
            sub = getattr(self, group)
            for spec_field in dataclass_fields(sub):
                value = getattr(sub, spec_field.name)
                if isinstance(value, (int, float, str, bool)):
                    items.append(("%s.%s" % (group, spec_field.name), value))
        return tuple(items)

    def with_overrides(self, **overrides) -> "ArchSpec":
        """Copy of the spec with flat-addressed fields replaced.

        Keys are ``"group.field"`` paths, bare field names (resolved across
        the groups; an unknown or ambiguous name raises ``KeyError``), bare
        group names replacing a whole sub-spec, or the top-level scalars
        ``name`` / ``clock_ghz``.  Values are validated by the sub-spec
        constructors (e.g. ``num_tppes`` must stay >= 1).
        """
        if not overrides:
            return self
        top: dict[str, object] = {}
        grouped: dict[str, dict[str, object]] = {}
        for key, value in overrides.items():
            group, field_name = self._resolve_key(key)
            if group is None:
                top[field_name] = value
            elif field_name is None:
                # A bare group name replaces the whole sub-spec; anything
                # else (e.g. ``pe=8`` meaning ``pe.num_tppes``) would build
                # a broken spec whose failure surfaces far from here.
                current = getattr(self, group)
                if not isinstance(value, type(current)):
                    raise TypeError(
                        "replacing arch group %r takes a %s, got %r"
                        % (group, type(current).__name__, value)
                    )
                top[group] = value
            else:
                grouped.setdefault(group, {})[field_name] = value
        for group, changes in grouped.items():
            base = top.get(group, getattr(self, group))
            top[group] = replace(base, **changes)
        return replace(self, **top)

    def _resolve_key(self, key: str) -> tuple[str | None, str | None]:
        """Map a flat key to ``(group, field)`` (``None`` marks top level)."""
        if "." in key:
            group, _, field_name = key.partition(".")
            if group not in self.GROUPS:
                raise KeyError(
                    "unknown arch group %r in %r (expected one of %s)"
                    % (group, key, list(self.GROUPS))
                )
            names = {spec_field.name for spec_field in dataclass_fields(getattr(self, group))}
            if field_name not in names:
                raise KeyError(
                    "unknown field %r in arch group %r (expected one of %s)"
                    % (field_name, group, sorted(names))
                )
            return group, field_name
        if key in self.SCALARS:
            return None, key
        if key in self.GROUPS:
            return key, None
        matches = [
            group
            for group in self.GROUPS
            if any(
                spec_field.name == key
                for spec_field in dataclass_fields(getattr(self, group))
            )
        ]
        if len(matches) == 1:
            return matches[0], key
        if matches:
            raise KeyError(
                "arch field %r is ambiguous across groups %s; use a "
                "'group.field' path" % (key, matches)
            )
        raise KeyError(
            "unknown arch field %r (valid paths: %s, group names %s, scalars %s)"
            % (
                key,
                ", ".join(path for path, _ in self.flat_items()[:6]) + ", ...",
                list(self.GROUPS),
                list(self.SCALARS),
            )
        )


# --------------------------------------------------------------------- #
# Preset registry
# --------------------------------------------------------------------- #
#: Named design points addressable from sweeps and the CLI (``--arch``).
ARCH_PRESETS: dict[str, ArchSpec] = {}


def register_arch_preset(spec: ArchSpec, replace_existing: bool = False) -> ArchSpec:
    """Add ``spec`` to the preset registry under ``spec.name``.

    Registering a *different* spec under a taken name raises ``ValueError``
    (a silent overwrite would re-price every sweep naming the preset); pass
    ``replace_existing=True`` to overwrite on purpose.  Re-registering an
    equal spec is a harmless no-op.
    """
    existing = ARCH_PRESETS.get(spec.name)
    if existing is not None and not replace_existing and existing != spec:
        raise ValueError(
            "arch preset %r is already registered; pass replace_existing=True "
            "to overwrite it" % (spec.name,)
        )
    ARCH_PRESETS[spec.name] = spec
    return spec


def get_arch_spec(name: str) -> ArchSpec:
    """Look up a registered preset by name."""
    try:
        return ARCH_PRESETS[name]
    except KeyError as exc:
        raise KeyError(
            "unknown arch preset %r (expected one of %s)"
            % (name, list_arch_presets())
        ) from exc


def list_arch_presets() -> list[str]:
    """Sorted names of every registered design-point preset."""
    return sorted(ARCH_PRESETS)


def default_arch() -> ArchSpec:
    """The default design point (the paper's Table III machine)."""
    return ARCH_PRESETS[DEFAULT_ARCH]


def normalize_overrides(overrides) -> tuple[tuple[str, object], ...]:
    """Coerce a mapping / pair-iterable of overrides into a hashable tuple."""
    if not overrides:
        return ()
    if isinstance(overrides, Mapping):
        return tuple(overrides.items())
    return tuple((str(key), value) for key, value in overrides)


def resolve_arch(arch=None, overrides: Iterable = ()) -> ArchSpec:
    """Materialise a design point from a preset name / spec plus overrides.

    ``arch`` may be ``None`` (the default preset), a preset name or an
    :class:`ArchSpec` instance; ``overrides`` is a mapping or pair-iterable
    of flat-addressed replacements (see :meth:`ArchSpec.with_overrides`).
    """
    if arch is None:
        spec = default_arch()
    elif isinstance(arch, ArchSpec):
        spec = arch
    elif isinstance(arch, str):
        spec = get_arch_spec(arch)
    else:
        raise TypeError(
            "arch must be None, a preset name or an ArchSpec, got %r" % (arch,)
        )
    pairs = normalize_overrides(overrides)
    if pairs:
        spec = spec.with_overrides(**dict(pairs))
    return spec


def arch_label(arch=None, overrides: Iterable = ()) -> str:
    """Short human-readable label of a design point (for sweep cell labels)."""
    if isinstance(arch, ArchSpec):
        base = arch.name
    else:
        base = arch if arch is not None else DEFAULT_ARCH
    pairs = normalize_overrides(overrides)
    if not pairs:
        return base
    return base + "+" + ",".join("%s=%s" % (key, value) for key, value in pairs)


# The shipped presets: the paper's machine plus scaled variants giving the
# design-space scenarios obvious anchor points.
register_arch_preset(ArchSpec())
register_arch_preset(
    ArchSpec().with_overrides(
        name="loas-32nm-small",
        **{
            "pe.num_tppes": 8,
            "memory.global_cache_bytes": 128 * 1024,
            "memory.cache_banks": 8,
            "memory.dram_bandwidth_gbps": 64.0,
        },
    )
)
register_arch_preset(
    ArchSpec().with_overrides(
        name="loas-32nm-large",
        **{
            "pe.num_tppes": 32,
            "memory.global_cache_bytes": 512 * 1024,
            "memory.cache_banks": 32,
            "memory.dram_bandwidth_gbps": 256.0,
        },
    )
)
