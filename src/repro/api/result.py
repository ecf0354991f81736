"""Typed result records of the public API and their versioned JSON schema.

A :class:`ScenarioResult` is what :meth:`repro.api.Session.run` returns: the
scenario's shaped payload plus provenance (scenario name, fully merged
parameters, seeds, package version, execution policy and cache hit/miss
counters).  :class:`PartitionResult` is the streaming twin -- one completed
``(workload, seed, finetuned, layer type)`` partition yielded by
:meth:`repro.api.Session.stream`.

Serialisation
-------------
``ScenarioResult.to_json()`` / ``from_json()`` round-trip the record through
a **versioned** schema (``SCHEMA_VERSION``).  Payloads may contain raw
:class:`~repro.metrics.results.SimulationResult` objects (the ``networks`` /
``layers`` scenarios return them unshaped); those -- and their
:class:`~repro.arch.memory.TrafficCounter` / :class:`~repro.arch.energy.EnergyAccount`
ledgers -- are encoded as ``{"__kind__": ...}``-tagged objects and decoded
back to the original dataclasses, so a decoded record compares equal to the
one that was encoded.  Tuples are tagged too (JSON has only arrays), keeping
parameter values like ``networks=("alexnet",)`` exact across the trip.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..metrics.results import SimulationResult
from ..runner.scenario import SweepCell

__all__ = ["SCHEMA_VERSION", "PartitionResult", "ScenarioResult"]

#: Version of the ``to_json`` schema; bumped on any incompatible change.
SCHEMA_VERSION = 1

_KIND = "__kind__"


def _encode(value: Any) -> Any:
    """Recursively convert a payload value into JSON-encodable form."""
    if isinstance(value, SimulationResult):
        # The field values recurse through _encode too: ledgers and the
        # free-form ops/extra dicts may hold numpy scalars, which must get
        # the same coercion (and string-key check) as the rest of the tree.
        fields = value.as_dict()
        return {_KIND: "SimulationResult", **{key: _encode(entry) for key, entry in fields.items()}}
    if isinstance(value, dict):
        for key in value:
            # JSON objects only have string keys; coercing here would break
            # the decoded == encoded contract silently, so refuse instead.
            if not isinstance(key, str):
                raise TypeError(
                    "cannot serialise dict key %r (type %s) into the "
                    "ScenarioResult schema; only string keys survive a "
                    "JSON round-trip" % (key, type(key).__name__)
                )
        return {key: _encode(entry) for key, entry in value.items()}
    if isinstance(value, tuple):
        return {_KIND: "tuple", "items": [_encode(entry) for entry in value]}
    if isinstance(value, list):
        return [_encode(entry) for entry in value]
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.bool_):
        return bool(value)
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise TypeError(
        "cannot serialise %r (type %s) into the ScenarioResult schema"
        % (value, type(value).__name__)
    )


def _decode(value: Any) -> Any:
    """Inverse of :func:`_encode`."""
    if isinstance(value, dict):
        kind = value.get(_KIND)
        if kind == "tuple":
            return tuple(_decode(entry) for entry in value["items"])
        if kind == "SimulationResult":
            return SimulationResult.from_dict(
                {key: _decode(entry) for key, entry in value.items() if key != _KIND}
            )
        return {key: _decode(entry) for key, entry in value.items()}
    if isinstance(value, list):
        return [_decode(entry) for entry in value]
    return value


@dataclass(frozen=True)
class PartitionResult:
    """One completed ``(workload, seed, finetuned, layer type)`` partition of a streaming run.

    Yielded by :meth:`repro.api.Session.stream` the moment the partition
    finishes; over a worker pool partitions arrive in completion order, so
    ``index`` (the partition's ordinal in ``plan.partitions()``) is the
    stable identity, not the arrival position.
    """

    scenario: str
    index: int
    total: int
    cells: tuple[SweepCell, ...]
    results: tuple[SimulationResult, ...]

    @property
    def workload_label(self) -> str:
        """Label of the partition's shared workload."""
        return self.cells[0].workload.label

    @property
    def seed(self) -> int:
        """Seed of the partition's generators."""
        return self.cells[0].seed

    @property
    def simulator_labels(self) -> tuple[str, ...]:
        """Simulator labels in partition (plan) order."""
        return tuple(cell.simulator.label for cell in self.cells)


@dataclass
class ScenarioResult:
    """Shaped payload of one scenario run plus its provenance.

    Attributes
    ----------
    scenario:
        Registered scenario name.
    params:
        The fully merged parameter dict the scenario actually ran with
        (declared defaults overlaid with the caller's overrides).
    payload:
        The scenario's shaped result (what its ``shape`` or ``run``
        callable returned).
    provenance:
        Execution record: ``package_version``, ``workers``, ``cache_dir``
        and the evaluation-cache counter deltas observed in this process
        (``cache``); sweep runs add ``seeds`` and cell/partition counts,
        bespoke runs add ``seeds`` when they declare a ``seed`` parameter.
        (The JSON document's ``schema_version`` lives at the top level of
        :meth:`to_json`, not in this dict.)
    """

    scenario: str
    params: dict[str, Any]
    payload: Any
    provenance: dict[str, Any] = field(default_factory=dict)

    def to_json(self, indent: int | None = None) -> str:
        """Serialise the record under the versioned schema."""
        document = {
            "schema_version": SCHEMA_VERSION,
            "scenario": self.scenario,
            "params": _encode(self.params),
            "payload": _encode(self.payload),
            "provenance": _encode(self.provenance),
        }
        return json.dumps(document, indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioResult":
        """Decode a record serialised by :meth:`to_json`."""
        document = json.loads(text)
        version = document.get("schema_version")
        if version != SCHEMA_VERSION:
            raise ValueError(
                "unsupported ScenarioResult schema version %r (this build reads %d)"
                % (version, SCHEMA_VERSION)
            )
        return cls(
            scenario=document["scenario"],
            params=_decode(document["params"]),
            payload=_decode(document["payload"]),
            provenance=_decode(document["provenance"]),
        )
