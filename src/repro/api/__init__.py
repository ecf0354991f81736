"""Public, versioned API of the LoAS reproduction.

Everything a caller needs lives behind three names:

* :class:`Session` -- configure resources once (disk cache tier, worker pool,
  default workload scale), then :meth:`~Session.run` any registered scenario
  or :meth:`~Session.stream` its partitions as they complete,
* :class:`ScenarioResult` -- the typed record a run returns: shaped payload
  plus provenance (merged params, seeds, package version, cache counters),
  with a versioned :meth:`~ScenarioResult.to_json` /
  :meth:`~ScenarioResult.from_json` schema,
* :class:`PartitionResult` -- one streamed ``(workload, seed, finetuned,
  layer type)`` partition.

The same surface is scriptable from a shell via ``python -m repro``
(:mod:`repro.api.cli`): ``list``, ``describe``, ``run`` and ``cache``
subcommands.
"""

from .result import SCHEMA_VERSION, PartitionResult, ScenarioResult
from .session import ScenarioStream, Session

__all__ = [
    "SCHEMA_VERSION",
    "PartitionResult",
    "ScenarioResult",
    "ScenarioStream",
    "Session",
]
