"""Exact per-layer sparsity statistics shared by every accelerator model.

:class:`LayerStatistics` is the value object the baseline simulators consume:
every count in it is computed from the *actual* tensors of a layer (not from
expected densities), so the cost models stay exact with respect to the
workload's sparsity structure.  The statistics are produced once per layer by
:class:`repro.engine.evaluation.LayerEvaluation` and shared by all
simulators.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["LayerStatistics"]


@dataclass
class LayerStatistics:
    """Exact sparsity statistics of one ``(A, B)`` layer pair.

    Attributes
    ----------
    m, k, n, t:
        Layer dimensions.
    nnz_weights:
        Non-zero weights in ``B``.
    nnz_spikes:
        Non-zero spikes in ``A`` (across all timesteps).
    nonsilent_neurons:
        ``(m, k)`` positions that fire at least once.
    matches:
        ``(M, N)`` array of non-silent x non-zero-weight matched positions,
        in :func:`repro.engine.evaluation.join_dtype` ``(K, T)`` (uint16 at
        paper scale).  Widen before arithmetic: under NEP 50
        ``matches + 1`` stays in that dtype and wraps silently.
    true_acs:
        ``(M, N)`` array of genuine accumulate operations (spike = 1 and
        weight != 0, summed over timesteps), in the same narrow dtype as
        ``matches``; widen it too before arithmetic.
    true_acs_per_t:
        Total genuine accumulations per timestep, shape ``(T,)``.
    active_columns_per_t:
        Number of ``k`` columns of ``A`` with at least one spike, per
        timestep (drives outer-product B-row fetches).
    weight_row_nnz:
        Non-zeros per row of ``B``, shape ``(K,)``.
    spikes_per_row_t:
        Non-zero spikes per ``(m, t)`` pair, shape ``(M, T)``.
    active_column_mask:
        Boolean ``(K, T)`` mask of ``k`` columns with at least one spike in
        each timestep (``active_columns_per_t`` is its per-timestep sum).
    spikes_per_column_t:
        Non-zero spikes per ``(k, t)`` pair, shape ``(K, T)`` (drives
        Gustavson weight-row fetch counts).

    The remaining attributes are integers derived from the ones above when
    the bundle is built, once per evaluation, so the cost models do not
    reduce the same arrays again on every call:

    active_columns:
        Number of ``k`` columns with a spike at any timestep.
    active_column_steps:
        Number of active ``(k, t)`` pairs (the sum of
        ``active_columns_per_t``).
    active_row_weights:
        Non-zero weights in the rows of ``B`` that the active ``(k, t)``
        pairs select, summed over timesteps (the weight elements an
        outer-product dataflow fetches).
    """

    m: int
    k: int
    n: int
    t: int
    nnz_weights: int
    nnz_spikes: int
    nonsilent_neurons: int
    matches: np.ndarray
    true_acs: np.ndarray
    true_acs_per_t: np.ndarray
    active_columns_per_t: np.ndarray
    weight_row_nnz: np.ndarray
    spikes_per_row_t: np.ndarray
    active_column_mask: np.ndarray
    spikes_per_column_t: np.ndarray
    active_columns: int = field(init=False)
    active_column_steps: int = field(init=False)
    active_row_weights: int = field(init=False)

    def __post_init__(self) -> None:
        steps_per_column = self.active_column_mask.sum(axis=1, dtype=np.int64)  # (K,)
        self.active_columns = int(np.count_nonzero(steps_per_column))
        self.active_column_steps = int(steps_per_column.sum())
        self.active_row_weights = int(steps_per_column @ self.weight_row_nnz)
