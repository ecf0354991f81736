"""Single-computation evaluation of one dual-sparse layer.

:class:`LayerEvaluation` is the shared substrate of every accelerator model
in this repository: it owns the ``(spikes A, weights B)`` tensor pair of one
layer and computes -- lazily, and exactly once -- every derived quantity a
simulator may ask for:

* the packed-temporal compression of ``A`` (the packed words are the only
  form of ``A`` an evaluation keeps: the dense tensor is packed on
  construction and released; the non-silent mask and the per-neuron spike
  counts are rebuilt from the words whenever they are asked for),
* the ``(M, N)`` matched-position and true-accumulation matrices of the
  inner join, held in the narrowest unsigned dtype their ``K * T`` bound
  fits (:func:`join_dtype`), and their per-wave maxima summed over the
  PE schedule (:meth:`LayerEvaluation.wave_max_sum`, memoised per group
  size),
* the full-sum tensor ``O`` (one GEMM over ``k`` instead of a per-timestep
  GEMM loop) and the LIF output spikes derived from it,
* per-accelerator true-accumulation counts and the per-timestep / per-row /
  per-column activity profiles the baseline dataflows charge traffic for,
* the compressed output footprint of the next layer.

Every operand is integer-valued, and every contraction runs through
:func:`exact_matmul`: in float32 when a bound taken from the operands
proves each partial sum stays below ``2**24`` (where float32 holds every
integer exactly), in float64 otherwise.  Either way each intermediate is an
exact integer, so the results are bit-identical to the loop-based seed
implementations regardless of summation order, and they are returned as
float64 whichever path ran.

Every simulator's ``simulate_layer`` takes one evaluation (a
``LayerEvaluation``, or an ``AnnLayerEvaluation`` for an ANN model) and
nothing else.  Evaluations from the workload cache (:mod:`repro.engine.cache`)
share the heavy statistics across *all* simulators evaluating the same
workload; a caller holding raw tensors wraps them as
``LayerEvaluation(spikes, weights)``.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from ..snn.lif import LIFParameters, lif_fire
from ..sparse.packed import PackedSpikeMatrix, pack_spike_words, popcount, unpack_spike_words
from .serde import EntryMembers
from .statistics import LayerStatistics

__all__ = [
    "LayerEvaluation",
    "AnnLayerEvaluation",
    "EVALUATION_KINDS",
    "FLOAT32_EXACT_LIMIT",
    "integer_bound",
    "gemm_dtype",
    "exact_matmul",
    "join_dtype",
]

#: float32 represents every integer of magnitude up to ``2**24`` exactly.
FLOAT32_EXACT_LIMIT = 2**24


def _readonly(array: np.ndarray) -> np.ndarray:
    """Mark a derived array read-only before it is shared across simulators."""
    array.setflags(write=False)
    return array


def integer_bound(array) -> int | None:
    """Largest ``|x|`` over an integer or boolean array, as a Python int.

    ``None`` for any other dtype: its values carry no integer bound.  The
    extremes are converted to Python ints before negating, so an
    ``INT32_MIN`` entry cannot wrap the way ``np.abs`` would.
    """
    array = np.asarray(array)
    if array.dtype != np.bool_ and not np.issubdtype(array.dtype, np.integer):
        return None
    if array.size == 0:
        return 0
    return max(int(array.max()), -int(array.min()))


def gemm_dtype(bound: int | None) -> type:
    """float32 when ``bound`` keeps every partial sum exact in it, else float64."""
    if bound is not None and bound < FLOAT32_EXACT_LIMIT:
        return np.float32
    return np.float64


def exact_matmul(lhs, rhs, bound: int | None) -> np.ndarray:
    """``lhs @ rhs`` over integer-valued operands, exact, returned as float64.

    ``bound`` must bound the sum of ``|lhs[i, k] * rhs[k, j]|`` over ``k``
    for every output element (``K * max|lhs| * max|rhs|`` always does):
    every partial sum a GEMM forms, in any order, is then at most
    ``bound`` in magnitude.  Below :data:`FLOAT32_EXACT_LIMIT` the product
    runs in float32, otherwise (or with ``bound=None``) in float64.  Any
    leading axes of ``lhs`` are flattened into one GEMM.
    """
    dtype = gemm_dtype(bound)
    lhs = np.asarray(lhs, dtype=dtype, order="C")
    rhs = np.asarray(rhs, dtype=dtype)
    product = lhs.reshape(math.prod(lhs.shape[:-1]), lhs.shape[-1]) @ rhs
    return product.reshape(lhs.shape[:-1] + rhs.shape[1:]).astype(np.float64, copy=False)


def join_dtype(k: int, t: int) -> np.dtype:
    """Dtype of the join matrices: the narrowest unsigned one covering ``K * T``.

    A match count is at most ``K`` and a true-accumulation count at most
    ``K * T``, so one dtype holds both (uint16 at paper scale).  Consumers
    widen before arithmetic: under NEP 50, ``uint16 + int`` stays uint16
    and would wrap.
    """
    return np.min_scalar_type(k * t)


def _wave_max_sum(join: np.ndarray, group_size: int) -> int:
    """Sum over waves of the largest entry of each wave of an ``(M, N)`` join.

    Rows are dispatched ``group_size`` at a time, one output column at a
    time: wave ``(g, n)`` holds rows ``g * group_size`` up to the next
    group and costs the maximum of its members.  A short last group is
    reduced on its own, which equals padding it with zeros because every
    join count is non-negative.  The maxima are taken in the join's own
    dtype and summed in int64, so no float temporary is built; a legacy
    float64 join holds exact integers and sums to the same value.
    """
    if group_size < 1:
        raise ValueError("group_size must be at least 1")
    m, n = join.shape
    full = m - m % group_size
    waves = join[:full].reshape(full // group_size, group_size, n).max(axis=1)
    total = int(waves.sum(dtype=np.int64))
    if full < m:
        total += int(join[full:].max(axis=0).sum(dtype=np.int64))
    return total


class _entry_property(cached_property):
    """A cached property a hydrated evaluation reads from its entry before computing it.

    On first access the evaluation's entry members are asked for
    ``<prefix>d_<name>`` (see :meth:`_Evaluation._stored`); only when the
    entry lacks it does the wrapped function compute the value.  Either
    way the value lands in the instance ``__dict__`` like any cached
    property's, so later reads skip this descriptor.
    """

    def __get__(self, instance, owner=None):
        if instance is not None and self.attrname not in instance.__dict__:
            value = instance._stored(self.attrname)
            if value is not None:
                instance.__dict__[self.attrname] = value
                return value
        return super().__get__(instance, owner)


class _Evaluation:
    """What both evaluation kinds share: entry members and scalar memos.

    **Entry members.**  A hydrated evaluation keeps the
    :class:`~repro.engine.serde.EntryMembers` of its entry (``_members``,
    ``None`` on a generated one) and reads each tensor and derived array
    from it the first time something asks: ``weights`` here, the
    :class:`_entry_property` artifacts, and on :class:`LayerEvaluation`
    the packed words and the compression words.  A member no cost model
    reads is never decoded.  A preprocessed child shares its parent's
    members under its own ``pre<n>_`` prefix (``_prefix``), and reads the
    parent's ``weights`` member.

    **Scalar memos.**  The sums of :func:`_wave_max_sum` over the joins
    (and, on :class:`LayerEvaluation`, the merge-round sums) live in a plain
    per-instance dict rather than a cached property: before Python 3.12
    those take a class-wide lock.  Two threads that miss the same key both
    reduce and store the same value, so the dict needs no lock of its own.

    :meth:`_dehydrate_memos` writes that dict and every computed scalar of
    :attr:`MEMO_SCALARS` into the entry's ``meta`` record, and
    :meth:`_hydrate_memos` seeds them back, so a disk hit recomputes none
    of them.  They are not derived artifacts: they stay out of
    ``derived_signature()``, so a disk hit that computes a new one is not
    rewritten.  Each key is written only when non-empty, so an entry
    written before the memos were persisted hydrates (and computes them
    lazily) and re-packs to the same bytes.
    """

    #: The ``(M, N)`` join attributes :meth:`wave_max_sum` reduces.
    WAVE_JOINS: tuple[str, ...] = ()
    #: Cached scalar properties persisted in ``meta``, each with its type.
    MEMO_SCALARS: dict[str, type] = {}
    #: Cached properties :meth:`dehydrate` persists as ``d_<name>`` members.
    DEHYDRATED: tuple[str, ...] = ()

    def _bind(self, n: int, members=None, prefix: str = "") -> None:
        """Set the per-instance state every constructor path shares."""
        self._n = n
        self._members = members
        self._prefix = prefix
        self._wave_max_sums: dict[tuple[str, int], int] = {}

    @cached_property
    def weights(self) -> np.ndarray:
        """Weight matrix ``B`` (a hydrated evaluation decodes it on first read)."""
        return self._members["weights"]

    @property
    def n(self) -> int:
        """Number of output neurons (columns of ``B``)."""
        return self._n

    def _stored(self, name: str):
        """Entry member ``d_<name>`` of this level, or ``None`` when not stored.

        A 0-d member is a count and reads as a Python int.
        """
        key = self._prefix + "d_" + name
        if self._members is None or key not in self._members:
            return None
        value = self._members[key]
        return value if value.ndim else int(value)

    def _has(self, name: str) -> bool:
        """Whether derived artifact ``name`` is computed or stored."""
        if name in self.__dict__:
            return True
        return self._members is not None and self._prefix + "d_" + name in self._members

    def _present(self) -> tuple[str, ...]:
        """The :attr:`DEHYDRATED` artifacts computed or stored, in order."""
        return tuple(name for name in self.DEHYDRATED if self._has(name))

    def _check_stored(self, derived) -> None:
        """Raise ``KeyError`` unless every artifact ``derived`` names is a member."""
        for name in derived:
            if name not in self.DEHYDRATED or not self._has(name):
                raise KeyError("unknown or missing derived artifact %r" % (name,))

    def _dehydrate_memos(self, meta: dict) -> None:
        sums = list(self._wave_max_sums.items())
        if sums:
            meta["sums"] = [[join, size, total] for (join, size), total in sums]
        scalars = {name: self.__dict__[name] for name in self.MEMO_SCALARS if name in self.__dict__}
        if scalars:
            meta["scalars"] = scalars

    def _hydrate_memos(self, meta: dict) -> None:
        for join, size, total in meta.get("sums", ()):
            self._wave_max_sums[(join, int(size))] = int(total)
        for name, value in meta.get("scalars", {}).items():
            if name not in self.MEMO_SCALARS:
                raise KeyError("unknown scalar memo %r" % (name,))
            self.__dict__[name] = self.MEMO_SCALARS[name](value)

    def wave_max_sum(self, join: str, group_size: int) -> int:
        """Sum of the per-wave maxima of the ``join`` matrix, as a Python int.

        Output neurons go to ``group_size`` parallel PEs a group of rows at
        a time, and each wave costs as much as its slowest member.  A cost
        constant added to every task commutes with the maximum, so a cost
        model charges ``wave_max_sum(join, g) + waves * constant`` with
        ``waves = ceil(M / g) * N`` instead of widening the join.
        """
        key = (join, group_size)
        total = self._wave_max_sums.get(key)
        if total is None:
            if join not in self.WAVE_JOINS:
                raise ValueError(
                    "join must be one of %s, got %r" % (list(self.WAVE_JOINS), join)
                )
            total = _wave_max_sum(getattr(self, join), group_size)
            self._wave_max_sums[key] = total
        return total


def _product_bound(k: int, *operands) -> int | None:
    """``k`` times the product of the operands' integer bounds (``None`` if any is)."""
    bound = k
    for operand in operands:
        operand_bound = integer_bound(operand)
        if operand_bound is None:
            return None
        bound *= operand_bound
    return bound


#: Schema of the ``meta`` record :meth:`LayerEvaluation.dehydrate` writes;
#: :meth:`LayerEvaluation.hydrate` rejects any other.
_SCHEMA = 3


def _check_entry(meta: dict, kind: str) -> None:
    """Reject a meta record of another schema or kind (no ``kind``: an SNN entry)."""
    if meta.get("schema") != _SCHEMA or meta.get("kind", "snn") != kind:
        raise ValueError(
            "unsupported entry (schema %r, kind %r)" % (meta.get("schema"), meta.get("kind"))
        )


class LayerEvaluation(_Evaluation):
    """Lazily-computed, shareable evaluation of one ``(A, B)`` layer pair.

    Parameters
    ----------
    spikes:
        Unary input spike tensor ``A`` of shape ``(M, K, T)`` (any non-zero
        entry is a spike), or ``A`` already packed as a
        :class:`~repro.sparse.packed.PackedSpikeMatrix`.
    weights:
        Weight matrix ``B`` of shape ``(K, N)``.

    ``A`` is held only as its packed words: a dense tensor is packed on
    construction and not referenced afterwards, and :attr:`spikes` unpacks
    a read-only copy on demand.  The instance is read-only: one evaluation
    may be shared by many simulators, so every derived array is marked
    non-writeable as it is computed, and the workload cache additionally
    marks the generated ``weights`` non-writeable.
    """

    kind = "snn"
    WAVE_JOINS = ("matches", "true_acs")
    MEMO_SCALARS = {
        "nnz_spikes": int,
        "nnz_weights": int,
        "total_matches": float,
        "true_accumulations": float,
        "spike_density": float,
    }
    #: Everything here is a pure array-valued function of ``(spikes,
    #: weights)``, stored losslessly, so hydration is bit-identical to
    #: recomputation.  The packed words are always present: they are the
    #: stored form of ``A``.  The non-silent mask and the spike counts are
    #: not cached at all: they rebuild from the words on every access.
    DEHYDRATED = (
        "packed_words",
        "matches",
        "true_acs",
        "true_acs_per_t",
        "active_columns_per_t",
        "weight_row_nnz",
        "spikes_per_row_t",
        "spikes_per_column_t",
        "active_column_mask",
        "full_sums",
    )

    def __init__(self, spikes, weights):
        if not isinstance(spikes, PackedSpikeMatrix):
            spikes = np.asarray(spikes)
        weights = np.asarray(weights)
        shape = tuple(int(dim) for dim in spikes.shape)
        if len(shape) != 3 or weights.ndim != 2:
            raise ValueError("expected spikes (M, K, T) and weights (K, N)")
        if shape[1] != weights.shape[0]:
            raise ValueError("contraction dimension mismatch")
        self._bind_layer(shape, weights.shape[1])
        self.weights = weights
        if isinstance(spikes, PackedSpikeMatrix):
            self.__dict__["packed"] = spikes
            self.__dict__["packed_words"] = _readonly(spikes.words)
        else:
            #: The dense ``A`` until :attr:`packed_words` packs and drops it.
            self._dense = spikes
            self.packed_words  # pack now; the dense tensor is released

    def _bind_layer(self, shape: tuple, n: int, members=None, prefix: str = "") -> None:
        self._bind(n, members, prefix)
        self._shape = shape
        self._output_spikes: dict[tuple, np.ndarray] = {}
        self._compressions: dict[tuple, object] = {}
        self._preprocessed: dict[int, "LayerEvaluation"] = {}

    @property
    def spikes(self) -> np.ndarray:
        """Input spike tensor ``A``, unpacked from :attr:`packed_words`.

        A read-only 0/1 uint8 copy, rebuilt on every access and never
        cached: the words stay the only resident form of ``A``.
        """
        return _readonly(unpack_spike_words(self.packed_words, self.t))

    # ------------------------------------------------------------------ #
    # Dimensions
    # ------------------------------------------------------------------ #
    @property
    def m(self) -> int:
        """Number of rows of ``A`` (output spatial positions)."""
        return self._shape[0]

    @property
    def k(self) -> int:
        """Contraction dimension."""
        return self._shape[1]

    @property
    def t(self) -> int:
        """Number of timesteps."""
        return self._shape[2]

    # ------------------------------------------------------------------ #
    # Compression and masks
    # ------------------------------------------------------------------ #
    @_entry_property
    def packed_words(self) -> np.ndarray:
        """``(M, K)`` matrix of packed ``T``-bit spike words, the resident ``A``.

        uint8 for ``T <= 8``, int64 otherwise.  Packing releases the dense
        tensor, so it is never held beside the words.
        """
        dense, self._dense = self._dense, None
        return _readonly(pack_spike_words(dense))

    @cached_property
    def packed(self) -> PackedSpikeMatrix:
        """``A`` compressed into the FTP-friendly packed-temporal format."""
        return PackedSpikeMatrix(words=self.packed_words, shape=self._shape)

    @property
    def nonsilent(self) -> np.ndarray:
        """Boolean ``(M, K)`` mask of neurons firing at least once.

        The packed matrix's mask, rebuilt from the words on every access (a
        neuron is silent exactly when its packed word is zero).
        """
        return self.packed.nonsilent

    @cached_property
    def nonsilent_neurons(self) -> int:
        """Number of ``(m, k)`` neurons firing at least once (the stored words).

        Persisted in the entry's ``meta`` (as ``packed_nnz``), so a hit at a
        stored design point charges the packed format without the words.
        """
        return self.packed.nnz

    @cached_property
    def nnz_weights(self) -> int:
        """Number of non-zero weights in ``B``."""
        return int(self.weight_row_nnz.sum())

    @property
    def spike_counts_int(self) -> np.ndarray:
        """``(M, K)`` per-neuron spike counts (popcount of the packed words).

        Rebuilt on every access and never cached, like :attr:`nonsilent`.
        """
        return _readonly(popcount(self.packed_words))

    @cached_property
    def nnz_spikes(self) -> int:
        """Number of non-zero spikes in ``A`` across all timesteps."""
        return int(self.spike_counts_int.sum(dtype=np.int64))

    @cached_property
    def spike_density(self) -> float:
        """Fraction of non-zero entries in ``A``."""
        size = self.m * self.k * self.t
        if size == 0:
            return 0.0
        return float(self.nnz_spikes / size)

    # ------------------------------------------------------------------ #
    # Inner-join statistics
    # ------------------------------------------------------------------ #
    @cached_property
    def _join_products(self) -> tuple[np.ndarray, np.ndarray]:
        """Matches and true accumulations from one stacked GEMM.

        Both are ``X @ (B != 0)`` products: stacking the non-silent mask on
        the per-neuron spike counts halves the GEMM dispatch overhead
        without changing any value.  A count is at most ``T``, so ``K * T``
        bounds every sum; the weight mask exists only for this product and
        is never cached.  Both results are stored in :func:`join_dtype`.
        """
        stacked = np.concatenate([self.nonsilent, self.spike_counts_int], axis=0)
        bound = self.k * max(self.t, 1)
        product = exact_matmul(stacked, self.weights != 0, bound)
        dtype = join_dtype(self.k, self.t)
        return (
            _readonly(product[: self.m].astype(dtype)),
            _readonly(product[self.m :].astype(dtype)),
        )

    @_entry_property
    def matches(self) -> np.ndarray:
        """``(M, N)`` matched (non-silent x non-zero-weight) positions.

        In :func:`join_dtype` (an entry written before the join was narrowed
        hydrates it as float64): widen before arithmetic.
        """
        return self._join_products[0]

    @cached_property
    def total_matches(self) -> float:
        """Total matched positions across all output neurons."""
        return float(self.matches.sum(dtype=np.int64))

    @_entry_property
    def true_acs(self) -> np.ndarray:
        """``(M, N)`` genuine accumulations, summed over timesteps (dtype as :attr:`matches`)."""
        return self._join_products[1]

    @cached_property
    def true_accumulations(self) -> float:
        """Total genuine accumulate operations of the layer."""
        return float(self.true_acs.sum(dtype=np.int64))

    @_entry_property
    def true_acs_per_t(self) -> np.ndarray:
        """Total genuine accumulations per timestep, shape ``(T,)``."""
        per_column = self.spikes_per_column_t  # (K, T)
        bound = _product_bound(self.k, per_column, self.weight_row_nnz)
        return _readonly(exact_matmul(per_column.T, self.weight_row_nnz, bound))

    # ------------------------------------------------------------------ #
    # Activity profiles (baseline dataflow traffic drivers)
    # ------------------------------------------------------------------ #
    @_entry_property
    def active_column_mask(self) -> np.ndarray:
        """Boolean ``(K, T)`` mask of columns with at least one spike."""
        return _readonly(self.spikes_per_column_t > 0)

    @_entry_property
    def active_columns_per_t(self) -> np.ndarray:
        """Active ``k`` columns per timestep, shape ``(T,)`` (int64)."""
        return _readonly(self.active_column_mask.sum(axis=0, dtype=np.int64))

    @_entry_property
    def weight_row_nnz(self) -> np.ndarray:
        """Non-zero weights per row of ``B``, shape ``(K,)`` (int64)."""
        return _readonly(np.count_nonzero(self.weights, axis=1).astype(np.int64, copy=False))

    def _bit_planes(self, bound: int | None) -> np.ndarray:
        """``A`` as ``(M, T, K)`` 0/1 planes in the GEMM dtype ``bound`` selects.

        Unpacked straight from the packed words into the GEMM operand's
        layout and dtype: no dense ``(M, K, T)`` tensor, no transpose copy.
        The planes are a per-call temporary, never cached.
        """
        return unpack_spike_words(self.packed_words, self.t, dtype=gemm_dtype(bound), axis=1)

    @cached_property
    def _spike_sums(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-``(m, t)`` and per-``(k, t)`` spike sums of ``A``.

        Both are matrix-vector products over the ``(M, T, K)`` bit planes --
        with a ones vector over ``k`` for the rows, over ``m`` for the
        columns -- because numpy's integer reductions are several times
        slower.  A spike is 0 or 1, so ``K`` (rows) and ``M`` (columns)
        bound every sum; one dtype covering both serves the two products.
        """
        m, k, t = self.m, self.k, self.t
        planes = self._bit_planes(max(k, m))
        rows = exact_matmul(planes, np.ones(k, dtype=np.uint8), k)
        columns = exact_matmul(np.ones(m, dtype=np.uint8), planes.reshape(m, t * k), m)
        return (
            _readonly(rows.astype(np.int64)),
            _readonly(columns.reshape(t, k).T.astype(np.int64, order="C")),
        )

    @_entry_property
    def spikes_per_row_t(self) -> np.ndarray:
        """Spikes per ``(m, t)`` pair, shape ``(M, T)`` (int64)."""
        return self._spike_sums[0]

    @_entry_property
    def spikes_per_column_t(self) -> np.ndarray:
        """Spikes per ``(k, t)`` pair, shape ``(K, T)`` (int64)."""
        return self._spike_sums[1]

    def merge_round_sum(self, radix: int) -> int:
        """``sum(ceil(max(spikes_per_row_t, 1) / radix))`` as a Python int.

        The merge rounds of a radix-``radix`` merger over every ``(m, t)``
        partial output row (at least one round each), summed in int64.
        Memoised per radix in the :meth:`wave_max_sum` dict, so an LRU-warm
        request does not rebuild the ``(M, T)`` rounds.
        """
        key = ("spikes_per_row_t", radix)
        total = self._wave_max_sums.get(key)
        if total is None:
            if radix < 1:
                raise ValueError("radix must be at least 1")
            rows = np.maximum(self.spikes_per_row_t, 1)
            total = int(((rows + (radix - 1)) // radix).sum(dtype=np.int64))
            self._wave_max_sums[key] = total
        return total

    @cached_property
    def statistics(self) -> LayerStatistics:
        """The full statistics bundle the baseline models consume."""
        return LayerStatistics(
            m=self.m,
            k=self.k,
            n=self.n,
            t=self.t,
            nnz_weights=self.nnz_weights,
            nnz_spikes=self.nnz_spikes,
            nonsilent_neurons=self.nonsilent_neurons,
            true_acs_per_t=self.true_acs_per_t,
            active_columns_per_t=self.active_columns_per_t,
            weight_row_nnz=self.weight_row_nnz,
            spikes_per_row_t=self.spikes_per_row_t,
            active_column_mask=self.active_column_mask,
            spikes_per_column_t=self.spikes_per_column_t,
        )

    # ------------------------------------------------------------------ #
    # Functional outputs
    # ------------------------------------------------------------------ #
    @_entry_property
    def full_sums(self) -> np.ndarray:
        """Full-sum tensor ``O`` of shape ``(M, N, T)`` (float64, exact).

        One contraction over ``k`` for all timesteps at once, with the
        spikes' bit planes laid out as one ``(M*T, K)`` matrix.
        ``K * max|A| * max|B|`` bounds every partial sum; with unary spikes
        and 8-bit weights that is ``K * 128``, below ``2**24`` for every
        ``K < 131072``, so the GEMM runs in float32 and is still
        bit-identical to a per-timestep float64 GEMM loop.  Larger bounds
        fall back to float64.
        """
        spike_bound = 1 if self.nnz_spikes else 0
        bound = _product_bound(self.k * spike_bound, self.weights)
        sums = exact_matmul(self._bit_planes(bound), self.weights, bound)  # (M, T, N)
        return _readonly(sums.transpose(0, 2, 1))

    def output_spikes(self, params: LIFParameters | None = None) -> np.ndarray:
        """LIF output spikes for ``full_sums`` (memoised per parameter set)."""
        params = params or LIFParameters()
        key = (params.threshold, params.leak)
        spikes = self._output_spikes.get(key)
        if spikes is None:
            spikes = _readonly(lif_fire(self.full_sums, params))
            self._output_spikes[key] = spikes
        return spikes

    def compress_output(self, compressor, params: LIFParameters | None = None, preprocess: bool = False):
        """Compressed next-layer footprint of the output spikes.

        ``compressor`` is an :class:`repro.core.compressor.OutputCompressor`
        (typed loosely to keep the engine free of core imports); the result
        is memoised on the compressor-config attributes the compression
        actually depends on, so simulators sharing one evaluation also share
        the packing work.
        """
        params = params or LIFParameters()
        cfg = compressor.config
        key = (
            params.threshold,
            params.leak,
            bool(preprocess),
            cfg.pointer_bits,
            cfg.bitmask_chunk_bits,
            cfg.laggy_adders,
        )
        compression = self._compressions.get(key)
        if compression is None:
            compression = compressor.compress(self.output_spikes(params), preprocess=preprocess)
            self._compressions[key] = compression
            # The full-sum and output-spike tensors are the largest derived
            # arrays and no cost model reads them once the compression is
            # memoised; drop them so cached evaluations stay light.  They
            # are lazily recomputed if a caller asks again.
            self._output_spikes.pop((params.threshold, params.leak), None)
            self.__dict__.pop("full_sums", None)
        return compression

    def preprocessed(self, max_spikes: int = 1) -> "LayerEvaluation":
        """Evaluation of the fine-tuned preprocessed copy of this layer.

        Neurons firing at most ``max_spikes`` times are masked (treated as
        silent); the derived evaluation is memoised so the preprocessed
        statistics are also computed only once.
        """
        derived = self._preprocessed.get(max_spikes)
        if derived is None:
            # Same semantics as sparse.matrix.mask_low_activity_neurons:
            # masking a neuron zeroes exactly its packed word, so the child
            # is built from the parent's words and spike counts.
            counts = self.spike_counts_int
            dropped = (counts > 0) & (counts <= max_spikes)
            derived = self._add_child(max_spikes)
            derived.__dict__["packed_words"] = _readonly(np.where(dropped, 0, self.packed_words))
            # Same per-row counts: share the parent's array if it has one.
            # Computing it here would add an artifact to the parent's
            # stored entry that no simulator asked for.
            if "weight_row_nnz" in self.__dict__:
                derived.weight_row_nnz = self.weight_row_nnz
        return derived

    def _add_child(self, max_spikes: int) -> "LayerEvaluation":
        """Memoise the preprocessed child of ``max_spikes``; the caller sets its words.

        The child has the parent's shape and weights (shared when the
        parent holds them, else read from the same entry member) and reads
        its own stored artifacts under the ``pre<max_spikes>_`` prefix.
        """
        child = LayerEvaluation.__new__(LayerEvaluation)
        child._bind_layer(self._shape, self._n, self._members, "pre%d_" % max_spikes)
        if "weights" in self.__dict__:
            child.weights = self.weights
        self._preprocessed[max_spikes] = child
        return child

    # ------------------------------------------------------------------ #
    # Dehydration (disk-tier persistence)
    # ------------------------------------------------------------------ #
    def dehydrate(self) -> tuple[dict[str, np.ndarray], dict]:
        """The evaluation as ``(arrays, meta)`` for the disk cache tier.

        Captures the weights plus every derived artifact **already
        computed** (or stored, on a hydrated evaluation, which decodes
        them to re-pack) -- the packed words (the one stored form of ``A``),
        the other persisted cached properties
        (:attr:`DEHYDRATED`), the memoised LIF output spikes and
        output compressions, and one level of memoised preprocessed child
        evaluations (each with its own derived artifacts).  Each level's
        ``meta`` also carries its scalar memos (see :class:`_Evaluation`)
        and, once counted, its non-silent neuron count.  Nothing is
        force-computed: dehydrating a fresh evaluation yields the weights
        and packed words only, dehydrating one that simulators have consumed
        yields exactly the warm in-memory state, so a hydrated entry skips
        the same work a warm LRU hit skips.

        The mapping is consumed by :func:`repro.engine.serde.pack_payload`;
        :meth:`hydrate` is the inverse.
        """
        arrays: dict[str, np.ndarray] = {"weights": self.weights}
        meta: dict = {"schema": _SCHEMA, "kind": self.kind, "shape": list(self._shape)}
        self._dehydrate_derived(arrays, meta, prefix="")
        preprocessed: dict[str, dict] = {}
        for max_spikes, child in self._preprocessed.items():
            child_meta: dict = {}
            child._dehydrate_derived(arrays, child_meta, prefix="pre%d_" % max_spikes)
            preprocessed[str(max_spikes)] = child_meta
        if preprocessed:
            meta["preprocessed"] = preprocessed
        return arrays, meta

    def _dehydrate_derived(self, arrays: dict, meta: dict, prefix: str) -> None:
        derived = list(self._present())
        for name in derived:
            arrays[prefix + "d_" + name] = getattr(self, name)
        meta["derived"] = derived
        lif = []
        for index, ((threshold, leak), spikes) in enumerate(self._output_spikes.items()):
            arrays[prefix + "lif%d" % index] = spikes
            lif.append([float(threshold), float(leak)])
        meta["lif"] = lif
        compressions = []
        for index, (key, result) in enumerate(self._compressions.items()):
            arrays[prefix + "comp%d" % index] = result.packed.words
            compressions.append(
                {
                    "key": list(key),
                    "shape": [int(dim) for dim in result.packed.shape],
                    "cycles": float(result.cycles),
                    "output_bytes": float(result.output_bytes),
                    "dropped_neurons": int(result.dropped_neurons),
                    "silent_output_neurons": int(result.silent_output_neurons),
                }
            )
        meta["compressions"] = compressions
        self._dehydrate_memos(meta)
        if "nonsilent_neurons" in self.__dict__:
            meta["packed_nnz"] = self.nonsilent_neurons

    def derived_signature(self) -> tuple:
        """Hashable fingerprint of which derived artifacts are present.

        Two equal signatures mean :meth:`dehydrate` would emit the same
        member set; the cache's write-back pass re-publishes an entry only
        when its signature moved (a disk hit that gained nothing is not
        rewritten).
        """
        children = sorted(
            (max_spikes, child.derived_signature())
            for max_spikes, child in self._preprocessed.items()
        )
        return (
            self._present(),
            tuple(self._output_spikes),
            tuple(self._compressions),
            tuple(children),
        )

    @classmethod
    def hydrate(cls, arrays: EntryMembers, meta: dict) -> "LayerEvaluation":
        """Rebuild an evaluation from the members and meta of an entry.

        ``arrays`` is what :func:`~repro.engine.serde.unpack_payload`
        returns.  Hydration decodes no tensor, join or profile (only the
        LIF output spikes an entry rarely holds): the evaluation and each
        preprocessed child keep ``arrays`` and read a tensor or derived
        array from it the first time something asks (see
        :class:`_Evaluation`), and the scalar memos are seeded from
        ``meta``, so a hydrated evaluation never recomputes what the entry
        carries -- the matches / full-sums GEMMs, and the popcounts and
        wave reductions behind the scalars -- and never decodes what no
        cost model reads.  Raises ``ValueError`` on a meta record of
        another schema or kind, or shapes that disagree, and ``KeyError``
        on an entry whose meta names artifacts the container lacks (a torn
        write); the disk tier treats either as corruption and falls back to
        recomputation.
        """
        _check_entry(meta, cls.kind)
        shape = tuple(int(dim) for dim in meta["shape"])
        weights = arrays.shape("weights")
        if len(shape) != 3 or len(weights) != 2 or shape[1] != weights[0]:
            raise ValueError("entry shapes %r and %r disagree" % (shape, weights))
        evaluation = cls.__new__(cls)
        evaluation._bind_layer(shape, weights[1], arrays)
        evaluation._hydrate_derived(meta)
        for key, child_meta in meta.get("preprocessed", {}).items():
            evaluation._add_child(int(key))._hydrate_derived(child_meta)
        return evaluation

    def _hydrate_derived(self, meta: dict) -> None:
        self._check_stored(("packed_words",) + tuple(meta.get("derived", ())))
        prefix, members = self._prefix, self._members
        for index, (threshold, leak) in enumerate(meta.get("lif", ())):
            self._output_spikes[(threshold, leak)] = members[prefix + "lif%d" % index]
        for index, record in enumerate(meta.get("compressions", ())):
            self._compressions[tuple(record["key"])] = _StoredCompression(
                members, prefix + "comp%d" % index, record
            )
        self._hydrate_memos(meta)
        if "packed_nnz" in meta:
            self.__dict__["nonsilent_neurons"] = int(meta["packed_nnz"])


class _StoredCompression:
    """A memoised output compression read back from an entry.

    Carries the :class:`~repro.core.compressor.CompressorResult` fields;
    its ``packed`` matrix is built from the entry's words member the first
    time it is read (the cost models read only the scalars).
    """

    def __init__(self, members: EntryMembers, name: str, record: dict):
        self._members = members
        self._name = name
        self._shape = tuple(record["shape"])
        self.cycles = record["cycles"]
        self.output_bytes = record["output_bytes"]
        self.dropped_neurons = record["dropped_neurons"]
        self.silent_output_neurons = record["silent_output_neurons"]
        if name not in members:
            raise KeyError("missing compression words %r" % (name,))

    @cached_property
    def packed(self) -> PackedSpikeMatrix:
        """The compressed output (input format of the next layer)."""
        return PackedSpikeMatrix(words=self._members[self._name], shape=self._shape)


class AnnLayerEvaluation(_Evaluation):
    """Shared evaluation of one dual-sparse ANN ``(activations, weights)`` pair.

    The ANN counterpart of :class:`LayerEvaluation` for the SNN-vs-ANN
    comparison (Figure 18): the SparTen-ANN and Gamma-ANN baselines consume
    the same matched-position matrix and output count, so one evaluation
    drives both models.  The workload cache builds it for ``"ann"`` layers.
    """

    kind = "ann"
    WAVE_JOINS = ("matches",)
    MEMO_SCALARS = {"nnz_activations": int, "nnz_weights": int, "total_matches": float}
    DEHYDRATED = ("matches", "weight_row_nnz", "output_nnz")

    def __init__(self, activations: np.ndarray, weights: np.ndarray):
        activations = np.asarray(activations)
        weights = np.asarray(weights)
        if activations.ndim != 2 or weights.ndim != 2:
            raise ValueError("expected activations (M, K) and weights (K, N)")
        if activations.shape[1] != weights.shape[0]:
            raise ValueError("contraction dimension mismatch")
        self._bind(weights.shape[1])
        self._shape = activations.shape
        self.activations = activations
        self.weights = weights

    @cached_property
    def activations(self) -> np.ndarray:
        """Activation matrix ``A`` of shape ``(M, K)`` (decoded on first read on a hit).

        Activations of an entry written while they were int32 are narrowed
        to uint8 when every value fits, as generation holds them.
        """
        activations = self._members["activations"]
        if activations.dtype.kind in "iu" and activations.dtype.itemsize > 1 and (
            activations.size == 0 or (activations.min() >= 0 and activations.max() <= 255)
        ):
            activations = _readonly(activations.astype(np.uint8))
        return activations

    @property
    def m(self) -> int:
        """Number of activation rows."""
        return self._shape[0]

    @property
    def k(self) -> int:
        """Contraction dimension."""
        return self._shape[1]

    @cached_property
    def nnz_activations(self) -> int:
        """Number of non-zero activations."""
        return int(np.count_nonzero(self.activations))

    @cached_property
    def nnz_weights(self) -> int:
        """Number of non-zero weights."""
        return int(np.count_nonzero(self.weights))

    @_entry_property
    def weight_row_nnz(self) -> np.ndarray:
        """Non-zero weights per row of ``B``, shape ``(K,)`` (int64)."""
        return _readonly(np.count_nonzero(self.weights, axis=1).astype(np.int64, copy=False))

    @_entry_property
    def matches(self) -> np.ndarray:
        """``(M, N)`` matched (non-zero x non-zero) pairs, in ``join_dtype(K, 1)``."""
        product = exact_matmul(self.activations != 0, self.weights != 0, self.k)
        return _readonly(product.astype(join_dtype(self.k, 1)))

    @cached_property
    def total_matches(self) -> float:
        """Total matched positions (genuine multiply-accumulates)."""
        return float(self.matches.sum(dtype=np.int64))

    @_entry_property
    def output_nnz(self) -> int:
        """Number of non-zero ReLU outputs ``max(A @ B, 0)``; the product is not kept.

        With 8-bit activations the bound ``K * 255 * max|B|`` exceeds
        ``2**24`` for all but the smallest ``K``, so it usually takes the
        float64 path.
        """
        bound = _product_bound(self.k, self.activations, self.weights)
        return int(np.count_nonzero(exact_matmul(self.activations, self.weights, bound) > 0))

    # ------------------------------------------------------------------ #
    # Dehydration (disk-tier persistence)
    # ------------------------------------------------------------------ #
    def dehydrate(self) -> tuple[dict[str, np.ndarray], dict]:
        """The tensors, every derived artifact already computed (the count
        0-d) and, in ``meta``, the scalar memos."""
        derived = list(self.derived_signature())
        arrays = {"activations": self.activations, "weights": self.weights}
        arrays.update(("d_" + name, np.asarray(getattr(self, name))) for name in derived)
        meta = {"schema": _SCHEMA, "kind": self.kind, "derived": derived}
        self._dehydrate_memos(meta)
        return arrays, meta

    def derived_signature(self) -> tuple:
        """Which derived artifacts are present (see :meth:`LayerEvaluation.derived_signature`)."""
        return self._present()

    @classmethod
    def hydrate(cls, arrays: EntryMembers, meta: dict) -> "AnnLayerEvaluation":
        """Inverse of :meth:`dehydrate`; decodes nothing and raises like
        :meth:`LayerEvaluation.hydrate`."""
        _check_entry(meta, cls.kind)
        activations, weights = arrays.shape("activations"), arrays.shape("weights")
        if len(activations) != 2 or len(weights) != 2 or activations[1] != weights[0]:
            raise ValueError("entry shapes %r and %r disagree" % (activations, weights))
        evaluation = cls.__new__(cls)
        evaluation._bind(weights[1], arrays)
        evaluation._shape = activations
        evaluation._check_stored(meta["derived"])
        evaluation._hydrate_memos(meta)
        return evaluation


#: The evaluation class of each workload ``kind`` (``LayerWorkload.kind``).
EVALUATION_KINDS = {cls.kind: cls for cls in (LayerEvaluation, AnnLayerEvaluation)}
