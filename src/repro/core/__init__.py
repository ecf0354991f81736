"""The paper's contribution: FTP dataflow and the LoAS accelerator model.

Public entry points:

* :class:`repro.core.loas.LoASSimulator` -- the full analytical simulator
  producing cycles, traffic and energy for any dual-sparse SNN workload,
* :class:`repro.core.inner_join.InnerJoinUnit` -- the per-fiber model of
  the FTP-friendly inner join (pseudo / correction accumulation); the test
  suite uses it as the oracle for the vectorised engine's join statistics.
"""

from .base import DEFAULT_RNG_SEED, SimulatorBase
from .compressor import CompressorResult, OutputCompressor
from .config import LoASConfig
from .inner_join import InnerJoinResult, InnerJoinUnit
from .loas import LoASSimulator
from .scheduler import Scheduler

__all__ = [
    "CompressorResult",
    "DEFAULT_RNG_SEED",
    "InnerJoinResult",
    "InnerJoinUnit",
    "LoASConfig",
    "LoASSimulator",
    "OutputCompressor",
    "Scheduler",
    "SimulatorBase",
]
