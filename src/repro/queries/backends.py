"""Query supports, the cell→query column view, and support construction.

The PMW multiplicative update touches only the joint-domain cells where the
selected query is non-zero, so the evaluator hands it each query's support
as a CSR-style ``(flat indices, values)`` pair.  :class:`EvaluatorContext`
builds those supports: a product query is non-zero only inside a box (per
axis, the values on which every relation holding that attribute has a
non-zero weight), so only that box is scanned, in slabs of at most
``chunk_size`` box cells, and the result is byte-equal to ``flatnonzero``
over the dense joint vector.

:class:`ColumnView` is the workload CSR transposed once: which queries read
each cell.  With it the answer change of a support update, ``M[:, S]·Δh_S``,
costs the stored entries in the columns ``S`` instead of a full workload
evaluation.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.queries.workload import Workload
from repro.relational.join import _letters_for, expand_to_joint

#: The slab length (in box cells) of support builds.
_DEFAULT_CHUNK_SIZE = 1 << 18


class EvaluatorContext:
    """Workload-derived support machinery of one evaluator.

    Owns the exact support-size measurement (an einsum over the non-zero
    indicators of the per-relation weights — the joint domain is never
    materialised) and support construction, which scans only each query's
    non-zero box in slabs of at most ``chunk_size`` box cells.
    """

    def __init__(self, workload: Workload, chunk_size: int = _DEFAULT_CHUNK_SIZE):
        if chunk_size <= 0:
            raise ValueError(f"chunk_size must be positive, got {chunk_size}")
        self.workload = workload
        self.chunk_size = int(chunk_size)
        self.join_query = workload.join_query
        self.shape = self.join_query.shape
        self.domain_size = self.join_query.joint_domain_size
        self._support_sizes: dict[int, int] = {}
        self._chunk_plans: dict[int, tuple[tuple[tuple[int, ...], np.ndarray], ...]] = {}

    @property
    def num_queries(self) -> int:
        return len(self.workload)

    # ------------------------------------------------------------------ #
    # support sizes
    # ------------------------------------------------------------------ #
    def support_size(self, index: int) -> int:
        """Exact number of joint-domain cells where query ``index`` is non-zero."""
        cached = self._support_sizes.get(index)
        if cached is not None:
            return cached
        letters = _letters_for(self.join_query)
        operands = []
        terms = []
        for schema, table_query in zip(
            self.join_query.relations, self.workload[index].table_queries
        ):
            operands.append((table_query.weights != 0.0).astype(np.int64))
            terms.append("".join(letters[name] for name in schema.attribute_names))
        subscript = ",".join(terms) + "->"
        # A contraction path sums relation by relation instead of sweeping
        # every index combination of the joint domain; the integers agree.
        size = int(np.einsum(subscript, *operands, optimize=True))
        self._support_sizes[index] = size
        return size

    def note_support_size(self, index: int, size: int) -> None:
        """Record a support size observed as a by-product of a support build."""
        self._support_sizes.setdefault(index, size)

    def total_support_size(self) -> int:
        """``Σ_q nnz(q)``: the number of entries the workload CSR stores."""
        return sum(self.support_size(index) for index in range(self.num_queries))

    # ------------------------------------------------------------------ #
    # support construction
    # ------------------------------------------------------------------ #
    def chunk_plan(self, index: int) -> tuple[tuple[tuple[int, ...], np.ndarray], ...]:
        """Per-relation ``(joint axes, weights)`` gather plan, all-one factors elided."""
        cached = self._chunk_plans.get(index)
        if cached is not None:
            return cached
        plan: list[tuple[tuple[int, ...], np.ndarray]] = []
        for schema, table_query in zip(
            self.join_query.relations, self.workload[index].table_queries
        ):
            if table_query.is_all_one():
                continue
            axes = tuple(self.join_query.axis_of(name) for name in schema.attribute_names)
            plan.append((axes, table_query.weights))
        result = tuple(plan)
        self._chunk_plans[index] = result
        return result

    def build_support(self, index: int) -> tuple[np.ndarray, np.ndarray]:
        """Construct the ``(flat indices, values)`` support of one query.

        Only the query's non-zero box is scanned (:meth:`_support_box`).
        The box-restricted weights are multiplied in the order of
        :meth:`ProductQuery.joint_values` (``1·w_1·w_2…`` through
        :func:`expand_to_joint`, all-one factors elided), so every value is
        bit-identical to the dense vector's.  The box is walked in row-major
        slabs of at most ``chunk_size`` box cells whose non-zeros map to
        ascending flat indices, so the memory beyond the result is bounded
        by the chunk size at any ``|D|``.
        """
        box = self._support_box(index)
        index_parts: list[np.ndarray] = []
        value_parts: list[np.ndarray] = []
        if box is not None:
            for indices, values in self._support_slabs(index, box):
                if indices.size:
                    index_parts.append(indices)
                    value_parts.append(values)
        if len(index_parts) == 1:
            support = (index_parts[0], value_parts[0])
        elif index_parts:
            support = (np.concatenate(index_parts), np.concatenate(value_parts))
        else:
            support = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64))
        self.note_support_size(index, int(support[0].size))
        return support

    def _support_box(self, index: int) -> list[np.ndarray | None] | None:
        """Per-axis joint-domain values outside which query ``index`` is zero.

        A product query is non-zero only where every factor is, so an axis
        keeps the values at which every relation holding that attribute has
        some non-zero weight.  ``None`` marks an axis the box keeps whole;
        the result is ``None`` when an axis keeps no value at all.
        """
        keep: list[np.ndarray | None] = [None] * len(self.shape)
        for axes, weights in self.chunk_plan(index):
            nonzero = weights != 0.0
            for position, axis in enumerate(axes):
                others = tuple(other for other in range(nonzero.ndim) if other != position)
                used = nonzero.any(axis=others)
                keep[axis] = used if keep[axis] is None else keep[axis] & used
        box: list[np.ndarray | None] = []
        for used in keep:
            if used is None or used.all():
                box.append(None)
            elif not used.any():
                return None
            else:
                box.append(np.flatnonzero(used))
        return box

    def _support_slabs(
        self, index: int, box: list[np.ndarray | None]
    ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """``(flat indices, values)`` of the non-zeros of each slab of ``box``.

        A slab fixes the box coordinates before a split axis and takes a run
        of consecutive box rows along it; the split axis is the first one
        whose trailing box fits ``chunk_size`` cells.
        """
        shape, names = self.shape, self.join_query.attribute_names
        ndim = len(shape)
        extents = tuple(size if kept is None else kept.size for size, kept in zip(shape, box))
        strides = [int(np.prod(shape[axis + 1 :])) for axis in range(ndim)]
        inner = [int(np.prod(extents[axis + 1 :])) for axis in range(ndim)]
        split = next(axis for axis, cells in enumerate(inner) if cells <= self.chunk_size)
        step = self.chunk_size // inner[split]
        # The flat offset of each kept coordinate, per axis.
        offsets = [
            (np.arange(size, dtype=np.int64) if kept is None else kept) * stride
            for size, kept, stride in zip(shape, box, strides)
        ]
        # The flat offset of each trailing-box cell; ``None`` when the trailing
        # box is the whole trailing domain, where it is just 0, 1, 2, ...
        tail = None
        if any(kept is not None for kept in box[split + 1 :]):
            tail = np.zeros((), dtype=np.int64)
            for axis in range(split + 1, ndim):
                tail = np.add.outer(tail, offsets[axis])
            tail = tail.reshape(-1)
        factors = []
        for axes, weights in self.chunk_plan(index):
            for position, axis in enumerate(axes):
                if box[axis] is not None:
                    weights = np.take(weights, box[axis], axis=position)
            factors.append(
                expand_to_joint(self.join_query, weights, [names[axis] for axis in axes])
            )
        rows = offsets[split]
        for prefix in np.ndindex(*extents[:split]):
            base = sum(int(offsets[axis][position]) for axis, position in enumerate(prefix))
            for first in range(0, extents[split], step):
                last = min(first + step, extents[split])
                slab = (last - first,) + extents[split + 1 :]
                values = None
                for factor in factors:
                    # A factor has extent 1 on the axes it does not span.
                    selection = tuple(
                        position if factor.shape[axis] > 1 else 0
                        for axis, position in enumerate(prefix)
                    ) + (slice(first, last) if factor.shape[split] > 1 else slice(None),)
                    values = factor[selection] if values is None else values * factor[selection]
                if values is None:
                    values = np.ones(int(np.prod(slab)), dtype=np.float64)
                else:
                    values = np.broadcast_to(values, slab).reshape(-1)
                local = np.flatnonzero(values).astype(np.int64, copy=False)
                picked = values[local]
                consecutive = rows[last - 1] - rows[first] == (last - 1 - first) * strides[split]
                if tail is None and consecutive:
                    # Consecutive rows of whole trailing domains: the slab is
                    # one contiguous flat range.
                    local += base + int(rows[first])
                    yield local, picked
                else:
                    row, column = np.divmod(local, inner[split])
                    flat = rows[first:last][row]
                    flat += base
                    flat += column if tail is None else tail[column]
                    yield flat, picked


_UNSET = object()
_scipy_sparse_module = _UNSET


def _scipy_sparse():
    """The :mod:`scipy.sparse` module, or ``None`` when unavailable.

    Import failures are cached; tests set ``_scipy_sparse_module`` to
    ``None`` to run without scipy.
    """
    global _scipy_sparse_module
    if _scipy_sparse_module is _UNSET:
        try:
            from scipy import sparse

            _scipy_sparse_module = sparse
        except Exception:
            _scipy_sparse_module = None
    return _scipy_sparse_module


class ColumnView:
    """The workload matrix by columns: which queries read each joint-domain cell.

    Wraps the workload CSR transposed once (scipy ``tocsc()``), so the
    answer change of a support update, ``M[:, S]·Δh_S``, costs the stored
    entries in the columns ``S`` instead of a whole-workload evaluation.
    """

    def __init__(self, columns):
        self._columns = columns
        self._half = columns.nnz / 2

    @classmethod
    def from_csr(
        cls, indptr: np.ndarray, indices: np.ndarray, values: np.ndarray, domain_size: int
    ) -> "ColumnView | None":
        """The view of a concatenated query CSR, or ``None`` without scipy."""
        sparse = _scipy_sparse()
        if sparse is None:
            return None
        rows = sparse.csr_matrix(
            (values, indices, indptr), shape=(indptr.size - 1, int(domain_size))
        )
        return cls(rows.tocsc())

    def arrays(self) -> tuple[np.ndarray, ...]:
        """The resident arrays: values, row indices, column pointers."""
        return (self._columns.data, self._columns.indices, self._columns.indptr)

    def narrow(self, indices: np.ndarray) -> bool:
        """Whether the columns ``indices`` hold at most half the stored entries.

        Past half (the counting query, full-domain ±1 queries) a full
        evaluation costs about as much as :meth:`answer_change`.
        """
        # Two gathers summed one at a time: a counting query's check then
        # holds one |D|-length temporary, not three.
        indptr = self._columns.indptr
        touched = int(indptr[1:][indices].sum()) - int(indptr[indices].sum())
        return touched <= self._half

    def answer_change(self, indices: np.ndarray, delta: np.ndarray) -> np.ndarray:
        """``M[:, indices] @ delta``: how every answer moves when cells ``indices`` move by ``delta``."""
        return self._columns[:, indices] @ delta
