"""Exact per-layer sparsity statistics shared by every accelerator model.

:class:`LayerStatistics` is the value object the baseline simulators consume:
every count in it is computed from the *actual* tensors of a layer (not from
expected densities), so the cost models stay exact with respect to the
workload's sparsity structure.  The statistics are produced once per layer by
:class:`repro.engine.evaluation.LayerEvaluation` and shared by all
simulators; :func:`repro.baselines.common.collect_layer_statistics` remains
as a thin compatibility wrapper.
"""

from __future__ import annotations

from dataclasses import dataclass

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
