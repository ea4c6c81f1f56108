"""Common interface for every range-sum method in the library.

The paper compares four ways of answering range-sum queries over the same
logical d-dimensional array ``A``: the naive array, the prefix sum array
(HAMS97), the relative prefix sum structure (GAES99), and the (Basic)
Dynamic Data Cube.  All of them expose the same small contract, defined
here, so that the OLAP layer, the benchmarks, and the cross-equivalence
property tests can treat them interchangeably:

* ``prefix_sum(cell)`` — ``SUM(A[0,...,0] : A[cell])``, both ends
  inclusive (the "target region" of Section 3.2);
* ``range_sum(low, high)`` — an arbitrary inclusive range, derived from
  prefix sums via the inclusion-exclusion identity of Figure 4;
* ``prefix_sum_many`` / ``range_sum_many`` — batch forms of the two
  queries.  A production OLAP front end issues queries in batches, and
  real-world throughput is dominated by how much work those batches can
  share; every method therefore gets a batch entry point it can
  specialise (vectorised gathers for the flat arrays, path-sharing
  traversal for the trees).  The default ``range_sum_many`` decomposes
  the whole batch into one *deduplicated* ``prefix_sum_many`` call over
  the queries' 2^d corner cells, so overlapping ranges share corner
  evaluations even under the scalar fallback;
* ``get`` / ``set`` / ``add`` / ``add_many`` — point reads and updates
  of ``A``, singly or batched;
* ``memory_cells()`` and ``stats`` — the storage and operation-count
  metrics the paper's evaluation is stated in.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import ClassVar, Sequence

import numpy as np

from .. import geometry
from ..counters import OpCounter
from ..geometry import Cell, Shape
from ..obs import NULL_OBS

__all__ = ["RangeSumMethod", "masked_path_gather"]


def masked_path_gather(
    tree: np.ndarray,
    axis_paths: Sequence[tuple[np.ndarray, np.ndarray]],
    count: int,
    dtype: np.dtype,
) -> np.ndarray:
    """Sum ``tree`` cells over the cross product of per-axis index paths.

    ``axis_paths`` holds, per axis, an ``(indices, mask)`` pair of
    ``(count, width)`` arrays: row ``q`` of ``indices`` lists the tree
    coordinates query ``q`` must visit along that axis, padded to
    ``width`` with zeros, and ``mask`` marks the valid slots.  The
    per-axis paths are folded into one flat index tensor of shape
    ``(count, prod(widths))`` — every (query, level-combination) pair at
    once — so the whole batch costs a single fancy-index gather plus a
    masked row reduction, with no Python-level loop over level
    combinations at all.  (An earlier revision looped over the
    ``O(log^d n)`` combinations with one small gather each; the loop's
    constant dominated at moderate batch sizes.)
    """
    strides = []
    stride = 1
    for size in reversed(tree.shape):
        strides.append(stride)
        stride *= size
    strides.reverse()
    flat_index: np.ndarray | None = None
    valid: np.ndarray | None = None
    for axis, (indices, mask) in enumerate(axis_paths):
        scaled = indices.astype(np.intp, copy=False) * strides[axis]
        if flat_index is None or valid is None:
            flat_index = scaled
            valid = mask
        else:
            flat_index = (
                flat_index[:, :, None] + scaled[:, None, :]
            ).reshape(count, -1)
            valid = (valid[:, :, None] & mask[:, None, :]).reshape(count, -1)
    if flat_index is None or valid is None:
        return np.zeros(count, dtype=dtype)
    gathered = tree.reshape(-1)[flat_index]
    return np.where(valid, gathered, 0).sum(axis=1, dtype=dtype)


class RangeSumMethod(ABC):
    """Abstract base for range-sum structures over a logical array ``A``.

    Args:
        shape: logical size of each dimension (``n_1, ..., n_d``).
        dtype: numpy dtype for stored values; must support exact addition
            and subtraction (the paper requires an invertible operator).
    """

    #: Registry name of the method (e.g. ``"ps"``); set by subclasses.
    name: ClassVar[str] = "abstract"

    #: Batches strictly smaller than this take the scalar path.  The
    #: shared-work machinery (vectorised gathers, path-sharing descents)
    #: has per-call setup costs that a tiny batch never amortises.  1
    #: means "always batch"; each method commits its own constant,
    #: measured once offline (``docs/algorithms.md`` §8 has the table and
    #: its provenance), so which path a batch takes — and what it counts
    #: — is a pure function of the class and the batch size.  A test or
    #: bench forces the batch path by pinning ``batch_crossover = 1`` on
    #: the instance.
    batch_crossover: int = 1

    #: Observability wiring (see :attr:`obs`): unwired, a structure pays
    #: one predicate check per instrumented operation.
    _obs = NULL_OBS

    def __init__(self, shape: Sequence[int], dtype=np.int64) -> None:
        self.shape: Shape = geometry.normalize_shape(shape)
        self.dims = len(self.shape)
        self.dtype = np.dtype(dtype)
        self.stats = OpCounter()
        #: Which path the most recent ``*_many`` call took: ``"batch"``
        #: (shared-work machinery) or ``"scalar"`` (per-query fallback,
        #: chosen below :attr:`batch_crossover`).  Benchmarks record it.
        self.last_batch_path: str = "batch"

    @property
    def obs(self):
        """The :class:`~repro.obs.Observability` facade reported to;
        assigning one binds the label children the hot paths use."""
        return self._obs

    @obs.setter
    def obs(self, obs) -> None:
        self._obs = obs
        self._bind_instruments(obs)

    def _bind_instruments(self, obs) -> None:
        """Bind this method's children of the shared method families
        (used only while a facade is assigned and enabled)."""
        self._obs_query_seconds = obs.method_query_seconds.labels(method=self.name)
        self._obs_query_ops = obs.method_query_ops.labels(method=self.name)
        self._obs_batch_path = {
            path: obs.batch_path_total.labels(method=self.name, path=path)
            for path in ("batch", "scalar")
        }

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def from_array(cls, array: np.ndarray, **kwargs) -> "RangeSumMethod":
        """Build a structure holding the contents of ``array``.

        The default implementation performs a point update per non-zero
        cell; subclasses override it with vectorised bulk builds.
        """
        array = np.asarray(array)
        method = cls(array.shape, dtype=kwargs.pop("dtype", array.dtype), **kwargs)
        for cell in np.argwhere(array != 0):
            method.add(tuple(int(c) for c in cell), array[tuple(cell)])
        return method

    # ------------------------------------------------------------------
    # Point access
    # ------------------------------------------------------------------

    def get(self, cell: Sequence[int] | int):
        """Current value of ``A[cell]``.

        Default implementation: a degenerate one-cell range sum (methods
        that store ``A`` directly override this with an O(1) read).
        """
        cell = geometry.normalize_cell(cell, self.shape)
        return self.range_sum(cell, cell)

    def set(self, cell: Sequence[int] | int, value) -> None:
        """Replace ``A[cell]`` with ``value`` (read-modify-write)."""
        cell = geometry.normalize_cell(cell, self.shape)
        old = self.get(cell)
        delta = value - old
        if delta != 0:
            self.add(cell, delta)

    @abstractmethod
    def add(self, cell: Sequence[int] | int, delta) -> None:
        """Add ``delta`` to ``A[cell]`` — the paper's point update."""

    def add_many(self, updates: Sequence[tuple]) -> None:
        """Apply a batch of ``(cell, delta)`` updates.

        The paper observes that "most analysis systems are oriented
        towards batch updates"; this entry point lets each method apply
        a batch the cheapest way it can.  The default combines deltas
        that hit the same cell (one structural update per distinct cell)
        and applies them sequentially; the prefix-sum family overrides
        it with a single vectorised pass whose cost is independent of
        the batch size.
        """
        for cell, delta in self._combined_updates(updates):
            self.add(cell, delta)

    def _combined_updates(self, updates: Sequence[tuple]) -> list[tuple[Cell, object]]:
        """Normalise a batch: validate cells, merge duplicates, drop zeros."""
        combined: dict[Cell, object] = {}
        for cell, delta in updates:
            cell = geometry.normalize_cell(cell, self.shape)
            if cell in combined:
                combined[cell] = combined[cell] + delta
            else:
                combined[cell] = delta
        return [(cell, delta) for cell, delta in combined.items() if delta != 0]

    def _delta_array(self, updates: Sequence[tuple]) -> np.ndarray:
        """A dense array holding the combined deltas of a batch."""
        deltas = np.zeros(self.shape, dtype=self.dtype)
        for cell, delta in self._combined_updates(updates):
            deltas[cell] += delta
        return deltas

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @abstractmethod
    def prefix_sum(self, cell: Sequence[int] | int):
        """``SUM(A[0,...,0] : A[cell])`` with ``cell`` included."""

    def range_sum(self, low: Sequence[int] | int, high: Sequence[int] | int):
        """``SUM(A[low] : A[high])``, all bounds inclusive.

        Uses the inclusion-exclusion identity of Figure 4: the sum of the
        region is an alternating combination of at most ``2^d`` prefix
        sums anchored at ``A[0,...,0]``.

        This is the library's method-dispatch point for range queries,
        so it is where per-method observability lives: with a live
        :mod:`repro.obs` facade wired in, each call opens a
        ``method.range_sum`` span and feeds the per-method latency and
        op-count histograms.  Disabled (the default), the cost is one
        predicate check.
        """
        obs = self._obs
        if not obs.enabled:
            return self._range_sum_corners(low, high)
        before = self.stats.snapshot()
        start = obs.clock.now()
        with obs.span("method.range_sum", method=self.name) as span:
            result = self._range_sum_corners(low, high)
            delta = self.stats.diff(before)
            span.set(
                node_visits=delta.node_visits,
                cell_reads=delta.cell_reads,
                cell_writes=delta.cell_writes,
            )
        self._obs_query_seconds.observe(obs.clock.now() - start)
        self._obs_query_ops.observe(delta.total_cell_ops)
        return result

    def _range_sum_corners(
        self, low: Sequence[int] | int, high: Sequence[int] | int
    ):
        """The uninstrumented Figure 4 corner combination."""
        low_cell, high_cell = geometry.normalize_range(low, high, self.shape)
        result = self._zero()
        for sign, corner in geometry.inclusion_exclusion_corners(low_cell, high_cell):
            if corner is None:
                continue
            term = self.prefix_sum(corner)
            result = result + term if sign > 0 else result - term
        return result

    # ------------------------------------------------------------------
    # Batch queries
    # ------------------------------------------------------------------

    def _use_batch_path(self, count: int) -> bool:
        """Decide batch vs scalar for a ``count``-query batch.

        Records the decision in :attr:`last_batch_path` so benchmark rows
        can report which path actually ran, and — with observability
        wired — counts it in ``repro_method_batch_path_total`` so a
        serving run shows live how often batches fall below the
        crossover.  Overrides call this first and fall back to the
        scalar loop (with an explanatory ``noqa: REP006``) when it
        returns False.
        """
        use_batch = count >= self.batch_crossover
        self.last_batch_path = "batch" if use_batch else "scalar"
        if self._obs.enabled:
            self._obs_batch_path[self.last_batch_path].inc()
        return use_batch

    def prefix_sum_many(self, cells: Sequence) -> list:
        """Batch form of :meth:`prefix_sum`: one result per input cell.

        The default is the sanctioned scalar loop; flat methods override
        it with vectorised gathers whose per-query cost is O(1), and the
        tree methods override it with a path-sharing traversal that
        descends each distinct root-to-leaf path once for the whole
        batch.
        """
        self.last_batch_path = "scalar"
        return [self.prefix_sum(cell) for cell in cells]

    def range_sum_many(self, ranges: Sequence) -> list:
        """Batch form of :meth:`range_sum`: one result per input range.

        Accepts ``(low, high)`` pairs or objects with ``low`` / ``high``
        attributes (e.g. :class:`~repro.workloads.RangeQuery`).  The
        default decomposes every range into its inclusion-exclusion
        corner cells (Figure 4), deduplicates corners across the whole
        batch, answers them with a single :meth:`prefix_sum_many` call,
        and recombines with signs — so every method inherits corner
        sharing for free, on top of whatever batching its
        ``prefix_sum_many`` provides.
        """
        queries = [self._query_bounds(item) for item in ranges]
        corner_order: dict[Cell, int] = {}
        per_query_terms: list[list[tuple[int, int]]] = []
        for low_cell, high_cell in queries:
            terms: list[tuple[int, int]] = []
            for sign, corner in geometry.inclusion_exclusion_corners(
                low_cell, high_cell
            ):
                if corner is None:
                    continue
                position = corner_order.setdefault(corner, len(corner_order))
                terms.append((sign, position))
            per_query_terms.append(terms)
        values = self.prefix_sum_many(list(corner_order)) if corner_order else []
        results = []
        for terms in per_query_terms:
            acc = self._zero()
            for sign, position in terms:
                term = values[position]
                acc = acc + term if sign > 0 else acc - term
            results.append(acc)
        return results

    def _query_bounds(self, item) -> tuple[Cell, Cell]:
        """Normalise one batch-query item: a pair or a RangeQuery-alike."""
        low = getattr(item, "low", None)
        high = getattr(item, "high", None)
        if low is None or high is None:
            low, high = item
        return geometry.normalize_range(low, high, self.shape)

    def total(self):
        """Sum of the entire cube."""
        return self.prefix_sum(tuple(s - 1 for s in self.shape))

    def _zero(self):
        """Additive identity in this structure's value domain."""
        return self.dtype.type(0)

    # ------------------------------------------------------------------
    # Diagnostics
    # ------------------------------------------------------------------

    @abstractmethod
    def memory_cells(self) -> int:
        """Number of value cells the structure currently stores."""

    def to_dense(self) -> np.ndarray:
        """Materialise the logical array ``A`` (testing / small cubes only)."""
        dense = np.zeros(self.shape, dtype=self.dtype)
        origin = (0,) * self.dims
        top = tuple(s - 1 for s in self.shape)
        for cell in geometry.iter_cells(origin, top):
            dense[cell] = self.get(cell)
        return dense

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(shape={self.shape}, dtype={self.dtype})"
