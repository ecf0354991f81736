"""Declarative experiment plans: workload/simulator specs and scenarios.

Every figure in the paper is a sweep -- accelerators x workloads x config
overrides x seeds.  This module turns those sweeps into *data*:

* :class:`WorkloadSpec` / :class:`SimulatorSpec` declare one workload (a
  named network or representative layer, possibly rescaled, re-timestepped
  or with sparsity-profile overrides) and one simulator job (an accelerator
  from the registry, possibly with the fine-tuned preprocessing, over the
  hardware design point its ``arch`` names),
* :class:`SweepCell` is the atom of work -- one workload simulated by one
  simulator at one seed -- and :class:`SweepPlan` is an ordered tuple of
  cells, the whole description of the work,
* :class:`Scenario` names a plan builder plus a result shaper, and the
  registry (:func:`register_scenario` / :func:`get_scenario`) makes every
  paper figure a named, composable entry point instead of a bespoke
  ``run(...)`` function.

Execution lives in :mod:`repro.runner.executor`; all the classes here are
plain frozen dataclasses, hashable and picklable, so a plan can be
partitioned and shipped to worker processes verbatim.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, replace as dataclass_replace
from typing import Callable, Iterable, Mapping

from ..arch.spec import (
    ArchSpec,
    arch_label,
    get_arch_spec,
    normalize_overrides,
    resolve_arch,
)
from ..baselines import (
    GammaANN,
    GammaSNN,
    GoSPASNN,
    PTBSimulator,
    SparTenANN,
    SparTenSNN,
    StellarSimulator,
)
from ..core import LoASSimulator
from ..engine import TENSOR_COUPLED_ARCH_FIELDS
from ..snn.workloads import (
    LayerWorkload,
    NetworkWorkload,
    get_layer_workload,
    get_network_workload,
)

__all__ = [
    "SIMULATOR_FACTORIES",
    "Scenario",
    "SimulatorSpec",
    "SweepCell",
    "SweepPlan",
    "WorkloadSpec",
    "get_scenario",
    "list_scenarios",
    "register_scenario",
]


#: Accelerator registry the :class:`SimulatorSpec` keys resolve through.
SIMULATOR_FACTORIES: dict[str, type] = {
    "SparTen-SNN": SparTenSNN,
    "GoSPA-SNN": GoSPASNN,
    "Gamma-SNN": GammaSNN,
    "LoAS": LoASSimulator,
    "PTB": PTBSimulator,
    "Stellar": StellarSimulator,
    "SparTen-ANN": SparTenANN,
    "Gamma-ANN": GammaANN,
}


@dataclass(frozen=True)
class WorkloadSpec:
    """Declaration of one workload: a named network or representative layer.

    Attributes
    ----------
    kind:
        ``"network"`` (Table II full network) or ``"layer"`` (representative
        single layer).
    name:
        Registry name, e.g. ``"vgg16"`` or ``"V-L8"``.
    scale:
        Proportional shrink factor applied after construction (1.0 = paper
        size), exactly as the experiment modules always applied it.
    timesteps:
        Override of the temporal dimension ``T`` (applied at construction,
        before scaling; scaling never touches ``T``).
    profile_overrides:
        ``(("field", value), ...)`` replacements on the sparsity profile
        (e.g. ``(("weight_sparsity", 0.25),)`` for the Figure 17 sweep),
        applied after scaling.
    """

    kind: str
    name: str
    scale: float = 1.0
    timesteps: int | None = None
    profile_overrides: tuple[tuple[str, float], ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in ("network", "layer"):
            raise ValueError("kind must be 'network' or 'layer', got %r" % (self.kind,))

    @property
    def label(self) -> str:
        """Result-dictionary key for this workload (its registry name)."""
        return self.name

    def build(self) -> NetworkWorkload | LayerWorkload:
        """Materialise the declared workload."""
        if self.kind == "network":
            workload = (
                get_network_workload(self.name)
                if self.timesteps is None
                else get_network_workload(self.name, timesteps=self.timesteps)
            )
            if self.scale != 1.0:
                workload = workload.scaled(self.scale)
            if self.profile_overrides:
                profile = dataclass_replace(workload.profile, **dict(self.profile_overrides))
                workload = NetworkWorkload(
                    workload.name,
                    [
                        LayerWorkload(layer.shape, profile, layer.weight_bits)
                        for layer in workload.layers
                    ],
                )
            return workload
        workload = get_layer_workload(self.name, timesteps=self.timesteps)
        if self.scale != 1.0:
            workload = workload.scaled(self.scale)
        if self.profile_overrides:
            profile = dataclass_replace(workload.profile, **dict(self.profile_overrides))
            workload = LayerWorkload(workload.shape, profile, workload.weight_bits)
        return workload


@dataclass(frozen=True)
class SimulatorSpec:
    """Declaration of one simulator job.

    Attributes
    ----------
    key:
        Name in :data:`SIMULATOR_FACTORIES` (``"LoAS"``, ``"SparTen-SNN"``...).
    label:
        Result-dictionary key for the job; defaults to ``key``.  Distinct
        labels let one accelerator appear several times in a plan (e.g.
        ``"LoAS"`` and ``"LoAS-FT"``).
    finetuned:
        Evaluate the workload with the fine-tuned preprocessing profile.
    kwargs:
        Extra ``(("name", value), ...)`` keyword arguments forwarded to
        ``simulate_layer`` (e.g. ``(("preprocess", True),)``).
    arch:
        Hardware design point the simulator is built over -- the one channel
        a cell has for it: a registered :class:`~repro.arch.spec.ArchSpec`
        preset name (``"loas-32nm"``) or an explicit spec.  ``None`` (the
        default) means the Table III machine.  Preset names are resolved to their spec **at declaration**: the cell
        then carries the full design point, so worker processes (including
        ``spawn``-context ones, whose fresh interpreters only know the
        shipped presets) never consult the preset registry.
    arch_overrides:
        Flat ``(("group.field", value), ...)`` replacements applied to the
        resolved ``arch`` (see :meth:`ArchSpec.with_overrides`); an arch
        axis built by :meth:`SweepPlan.product` lands here.
    """

    key: str
    label: str = ""
    finetuned: bool = False
    kwargs: tuple[tuple[str, object], ...] = ()
    arch: object = None
    arch_overrides: tuple[tuple[str, object], ...] = ()

    def __post_init__(self) -> None:
        if self.key not in SIMULATOR_FACTORIES:
            raise KeyError(
                "unknown simulator %r (expected one of %s)"
                % (self.key, sorted(SIMULATOR_FACTORIES))
            )
        if not self.label:
            object.__setattr__(self, "label", self.key)
        object.__setattr__(self, "arch_overrides", normalize_overrides(self.arch_overrides))
        if isinstance(self.arch, str):
            # Resolve at declaration: unknown presets fail here, and the
            # cell becomes self-contained for cross-process shipping.
            object.__setattr__(self, "arch", get_arch_spec(self.arch))
        elif self.arch is not None and not isinstance(self.arch, ArchSpec):
            raise TypeError(
                "arch must be None, a preset name or an ArchSpec, got %r"
                % (self.arch,)
            )

    def resolve_arch(self) -> ArchSpec | None:
        """The fully-resolved design point (``None`` when the spec has none)."""
        if self.arch is None and not self.arch_overrides:
            return None
        return resolve_arch(self.arch, self.arch_overrides)

    def build(self):
        """Instantiate the simulator over its design point."""
        return SIMULATOR_FACTORIES[self.key](self.resolve_arch())


@dataclass(frozen=True)
class _ArchPoint:
    """One resolved point of a design-space axis (see ``SweepPlan.product``)."""

    arch: object
    overrides: tuple[tuple[str, object], ...]
    label: str
    #: ``pe.timesteps`` when the point moves it -- the one arch knob that
    #: must re-timestep the workload (tensor coupling).
    workload_timesteps: int | None
    #: The fully-resolved spec (base arch + overrides).
    resolved: object = None

    def apply(self, simulator: SimulatorSpec) -> SimulatorSpec:
        """The simulator spec pinned to this design point."""
        return dataclass_replace(
            simulator,
            arch=self.arch,
            arch_overrides=self.overrides,
            label="%s@%s" % (simulator.label, self.label),
        )

    def couple_workload(self, workload: WorkloadSpec) -> WorkloadSpec:
        """Re-timestep the workload when the point overrides ``pe.timesteps``."""
        if self.workload_timesteps is None:
            return workload
        return dataclass_replace(workload, timesteps=self.workload_timesteps)


def _coerce_arch_point(point) -> _ArchPoint:
    """Normalise one ``archs=`` axis entry (see ``SweepPlan.product``)."""
    if isinstance(point, (tuple, list)):
        if len(point) != 2:
            raise ValueError(
                "an arch point pair must be (arch, overrides), got %r" % (point,)
            )
        arch, overrides = point
    else:
        arch, overrides = point, ()
    overrides = normalize_overrides(overrides)
    base = resolve_arch(arch)
    resolved = resolve_arch(arch, overrides)  # validates preset names and paths
    # Coupling is decided by *values*, not override spelling: any override
    # that moves a tensor-coupled field (dotted path, bare name or a whole
    # pe=PESpec(...) replacement) re-timesteps the workload.  The coupling
    # channel is WorkloadSpec.timesteps, so only pe.timesteps can ride it;
    # the unpacking fails loudly if a second tensor-coupled field is ever
    # added without growing its own channel here.
    (timesteps_path,) = TENSOR_COUPLED_ARCH_FIELDS
    workload_timesteps = None
    if resolved.get(timesteps_path) != base.get(timesteps_path):
        workload_timesteps = resolved.get(timesteps_path)
    return _ArchPoint(
        arch=arch,
        overrides=overrides,
        label=arch_label(arch, overrides),
        workload_timesteps=workload_timesteps,
        resolved=resolved,
    )


def _normalize_arch_points(archs) -> tuple[_ArchPoint, ...]:
    """Coerce an ``archs=`` axis, enforcing coupling and distinct labels.

    Two whole-axis rules live here rather than per point:

    * **heterogeneous timesteps couple everywhere** -- when the resolved
      points disagree on a tensor-coupled field (e.g. two presets
      provisioned for different ``pe.timesteps``), every point re-timesteps
      its workload, however the value was spelled.  An axis whose points all
      agree leaves workloads alone (running a T=4 workload on T=8-provisioned
      hardware is legitimate and stays a pure-cost sweep).
    * **labels are de-duplicated** -- distinct :class:`ArchSpec` instances
      can share a ``name``; colliding labels get a ``#<ordinal>`` suffix so
      per-label result addressing (``nested()``) never collapses points.
    """
    points = [_coerce_arch_point(point) for point in archs]
    (timesteps_path,) = TENSOR_COUPLED_ARCH_FIELDS
    if len({point.resolved.get(timesteps_path) for point in points}) > 1:
        points = [
            dataclass_replace(
                point, workload_timesteps=point.resolved.get(timesteps_path)
            )
            for point in points
        ]
    seen: dict[str, int] = {}
    unique: list[_ArchPoint] = []
    for point in points:
        ordinal = seen.get(point.label, 0)
        seen[point.label] = ordinal + 1
        unique.append(
            point
            if ordinal == 0
            else dataclass_replace(point, label="%s#%d" % (point.label, ordinal + 1))
        )
    return tuple(unique)


@dataclass(frozen=True)
class SweepCell:
    """One unit of sweep work: ``workload`` x ``simulator`` x ``seed``.

    ``tag`` groups cells of one plan into sub-sweeps (e.g. the three
    Figure 17 panels) so a result shaper can slice them without guessing.
    """

    workload: WorkloadSpec
    simulator: SimulatorSpec
    seed: int = 0
    tag: str = ""


@dataclass(frozen=True)
class SweepPlan:
    """An ordered, partitionable set of sweep cells.

    Cells sharing ``(workload, seed, finetuned, layer type)`` form one
    *partition*: the executor evaluates the workload once per partition, as
    layers of the simulators' ``layer_type``, and drives every simulator of
    the partition off the shared evaluation, layer by layer.  Partitions are
    independent and may run in separate worker processes.
    """

    name: str
    cells: tuple[SweepCell, ...]

    @classmethod
    def product(
        cls,
        name: str,
        workloads: Iterable[WorkloadSpec],
        simulators: Iterable[SimulatorSpec],
        seeds: Iterable[int] = (0,),
        tag: str = "",
        archs: Iterable | None = None,
    ) -> "SweepPlan":
        """Cartesian plan: every workload x every seed x every simulator.

        ``archs`` adds a **hardware design-point axis**: each point is a
        preset name, an :class:`~repro.arch.spec.ArchSpec`, or an
        ``(arch, overrides)`` pair whose overrides are flat
        ``"group.field"`` replacements.  Every simulator is replicated per
        point (labels suffixed ``"@<arch label>"`` so results stay
        addressable), and the point's arch travels in the cell -- **not** in
        the evaluation cache key, so all points of one ``(workload, seed,
        finetuned)`` partition share a single cached evaluation per layer.
        The one exception is the tensor-coupled fields
        (:data:`repro.engine.TENSOR_COUPLED_ARCH_FIELDS`): a point that
        overrides ``pe.timesteps`` also re-timesteps the workload, putting
        the value into the workload fingerprint exactly because it changes
        the generated tensors.
        """
        workloads = tuple(workloads)
        simulators = tuple(simulators)
        seeds = tuple(seeds)
        if archs is None:
            cells = tuple(
                SweepCell(workload, simulator, seed, tag)
                for workload in workloads
                for seed in seeds
                for simulator in simulators
            )
            return cls(name=name, cells=cells)
        points = _normalize_arch_points(archs)
        cells = tuple(
            SweepCell(
                point.couple_workload(workload),
                point.apply(simulator),
                seed,
                tag,
            )
            for workload in workloads
            for seed in seeds
            for point in points
            for simulator in simulators
        )
        return cls(name=name, cells=cells)

    def __add__(self, other: "SweepPlan") -> "SweepPlan":
        """Concatenate two plans (the first plan's name wins)."""
        return SweepPlan(self.name, self.cells + other.cells)

    def partitions(self) -> list[list[int]]:
        """Cell-index groups sharing ``(workload, seed, finetuned, layer type)``, in plan order."""
        groups: OrderedDict[tuple, list[int]] = OrderedDict()
        for index, cell in enumerate(self.cells):
            layer_type = SIMULATOR_FACTORIES[cell.simulator.key].layer_type
            key = (cell.workload, cell.seed, cell.simulator.finetuned, layer_type)
            groups.setdefault(key, []).append(index)
        return list(groups.values())


# --------------------------------------------------------------------- #
# Scenario registry
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class Scenario:
    """A named, parameterised experiment.

    Sweep-shaped scenarios declare ``build`` (``(**params) -> SweepPlan``)
    plus ``shape`` (``(results, **params) -> dict``); the plan describes the
    whole work and :class:`repro.api.Session` supplies the execution
    resources (pool, cache tiers).  Bespoke scenarios (training runs, static
    tables) declare ``run`` (``(**params) -> dict``) instead and take no
    runner options.  ``defaults`` are the parameter defaults merged under
    the caller's overrides by :meth:`repro.api.Session.run`.
    """

    name: str
    description: str = ""
    build: Callable[..., SweepPlan] | None = None
    shape: Callable[..., Mapping] | None = None
    run: Callable[..., Mapping] | None = None
    defaults: tuple[tuple[str, object], ...] = ()

    def __post_init__(self) -> None:
        if (self.run is None) == (self.build is None):
            raise ValueError("a scenario declares either build(+shape) or run")


_SCENARIOS: dict[str, Scenario] = {}


def _scenario_signature(scenario: Scenario) -> tuple:
    """Identity of a scenario that survives ``importlib.reload``.

    Function objects are compared by ``(module, qualname)`` rather than
    identity: reloading an experiment module re-creates its functions and
    lambdas, and those re-registrations must not read as conflicts.
    """

    def function_id(fn):
        if fn is None:
            return None
        return (getattr(fn, "__module__", None), getattr(fn, "__qualname__", None))

    return (
        scenario.name,
        scenario.description,
        scenario.defaults,
        function_id(scenario.build),
        function_id(scenario.shape),
        function_id(scenario.run),
    )


def register_scenario(scenario: Scenario, replace: bool = False) -> Scenario:
    """Add ``scenario`` to the registry.

    Registering a *different* scenario under an already-taken name raises
    ``ValueError`` (a silent overwrite would make one figure's entry point
    run another figure's sweep); pass ``replace=True`` to overwrite on
    purpose.  Re-registering the same scenario -- including the fresh
    function objects an ``importlib.reload`` of its module produces -- is a
    harmless no-op.
    """
    existing = _SCENARIOS.get(scenario.name)
    if (
        existing is not None
        and not replace
        and _scenario_signature(existing) != _scenario_signature(scenario)
    ):
        raise ValueError(
            "scenario %r is already registered; pass replace=True to "
            "overwrite it" % (scenario.name,)
        )
    _SCENARIOS[scenario.name] = scenario
    return scenario


def get_scenario(name: str) -> Scenario:
    """Look up a registered scenario by name."""
    try:
        return _SCENARIOS[name]
    except KeyError as exc:
        raise KeyError(
            "unknown scenario %r (expected one of %s)" % (name, list_scenarios())
        ) from exc


def list_scenarios() -> list[str]:
    """Sorted names of every registered scenario."""
    return sorted(_SCENARIOS)

