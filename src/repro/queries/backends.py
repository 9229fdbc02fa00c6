"""Query supports as non-zero boxes of the joint-shaped histogram.

The PMW multiplicative update touches only the joint-domain cells where the
selected query is non-zero.  A product query ``Π_R w_R`` is non-zero only
inside a box: per axis, the values at which every relation holding that
attribute has some non-zero weight.  :class:`EvaluatorContext` hands the
update that box as an index into the joint-shaped histogram — a slice on
each axis whose kept values form one run (a whole axis, a single value or a
range), and an ``np.ix_`` index otherwise — together with the query's
values on it, zeros included.  A zero weight gives the update a factor of
``exp(0) = 1``, so those cells stay bitwise unchanged.  Slices read and
write the histogram through views; an ``np.ix_`` box gathers and scatters.

Per query the context keeps only what builds the values: the box index,
the box shape and the box-restricted weights of each relation whose
weights are not all one (views of the workload's weights where the box
slices them, copies where it gathers), which is ``O(Σ_R |box_R|)`` per
query.  The values themselves are built on every call, into a fresh array
the caller owns: a copy of the first factor, multiplied in place by each
further one (a fill with ones when there is none).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.queries.workload import Workload
from repro.relational.join import _letters_for, expand_to_joint


def box_index(parts: list[slice | np.ndarray]) -> tuple:
    """The index of a box given per axis as a slice or an array of kept values.

    A tuple of slices when every axis is one, so that indexing gives views;
    otherwise an ``np.ix_`` index over every axis.
    """
    if all(isinstance(part, slice) for part in parts):
        return tuple(parts)
    return np.ix_(
        *(
            np.arange(part.start, part.stop) if isinstance(part, slice) else part
            for part in parts
        )
    )


@dataclass(frozen=True)
class _Box:
    """One query's box and what its values there are built from.

    ``factors`` are the box-restricted weights of the relations whose
    weights are not all one, in relation order, each with one axis per
    joint attribute (extent one where the relation does not hold it).
    ``owned`` is the bytes of those that are copies, made where the box
    gathers; the others are views of the workload's weights.
    """

    index: tuple
    shape: tuple[int, ...]
    factors: tuple[np.ndarray, ...]
    owned: int


class EvaluatorContext:
    """Workload-derived support machinery of one evaluator.

    Owns the exact support-size measurement (an einsum over the non-zero
    indicators of the per-relation weights — the joint domain is never
    materialised) and each query's support: its non-zero box, whose factors
    it keeps once built, and its values there, which it builds per call.
    """

    def __init__(self, workload: Workload):
        self.workload = workload
        self.join_query = workload.join_query
        self.shape = self.join_query.shape
        self.domain_size = self.join_query.joint_domain_size
        self._support_sizes: dict[int, int] = {}
        self._boxes: dict[int, _Box] = {}

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

    def total_support_size(self) -> int:
        """``Σ_q nnz(q)``: the joint-domain cells the workload's queries are non-zero on."""
        return sum(self.support_size(index) for index in range(self.num_queries))

    # ------------------------------------------------------------------ #
    # supports
    # ------------------------------------------------------------------ #
    def _factors(self, index: int) -> list[tuple[tuple[int, ...], np.ndarray]]:
        """Per-relation ``(joint axes, weights)`` of query ``index``, all-one factors elided."""
        return [
            (tuple(map(self.join_query.axis_of, schema.attribute_names)), table_query.weights)
            for schema, table_query in zip(
                self.join_query.relations, self.workload[index].table_queries
            )
            if not table_query.is_all_one()
        ]

    def _support_box(self, index: int) -> list[slice | np.ndarray] | None:
        """Per axis, the joint-domain values outside which query ``index`` is zero.

        A product query is non-zero only where every factor is, so an axis
        keeps the values at which every relation holding that attribute has
        some non-zero weight.  An axis whose kept values form one run (the
        whole axis, a single value or a range) is a slice, any other an
        array of its kept values; the result is ``None`` when an axis keeps
        no value at all.
        """
        keep: list[np.ndarray | None] = [None] * len(self.shape)
        for axes, weights in self._factors(index):
            nonzero = weights != 0.0
            for position, axis in enumerate(axes):
                others = tuple(other for other in range(nonzero.ndim) if other != position)
                used = nonzero.any(axis=others)
                keep[axis] = used if keep[axis] is None else keep[axis] & used
        box: list[slice | np.ndarray] = []
        for used, size in zip(keep, self.shape):
            if used is None:
                box.append(slice(0, size))
                continue
            kept = np.flatnonzero(used)
            if not kept.size:
                return None
            first, last = int(kept[0]), int(kept[-1])
            box.append(slice(first, last + 1) if last - first == kept.size - 1 else kept)
        return box

    def _box(self, index: int) -> _Box:
        """Query ``index``'s box and its factors there, built on first use."""
        box = self._boxes.get(index)
        if box is not None:
            return box
        parts = self._support_box(index)
        if parts is None:
            parts = [slice(0, 0)] * len(self.shape)
        names = self.join_query.attribute_names
        factors, owned = [], 0
        for axes, weights in self._factors(index):
            restricted = weights[box_index([parts[axis] for axis in axes])]
            factor = expand_to_joint(self.join_query, restricted, [names[axis] for axis in axes])
            factors.append(factor)
            if not np.may_share_memory(factor, weights):
                owned += factor.nbytes
        shape = tuple(
            part.stop - part.start if isinstance(part, slice) else part.size for part in parts
        )
        box = self._boxes[index] = _Box(box_index(parts), shape, tuple(factors), owned)
        return box

    def box_bytes(self) -> int:
        """Bytes the boxes built so far hold beyond the workload's weights: their copies."""
        return sum(box.owned for box in self._boxes.values())

    def support(self, index: int) -> tuple[tuple, np.ndarray]:
        """Query ``index``'s non-zero box (:func:`box_index`) and its values there.

        An empty box is ``slice(0, 0)`` on every axis.  The values are a
        fresh array the caller owns, built from the box factors in
        :meth:`~repro.queries.linear.ProductQuery.joint_values`' order, so
        every value is bit-identical to the dense array's on the box.
        """
        box = self._box(index)
        values = np.empty(box.shape)
        if not box.factors:
            values.fill(1.0)
            return box.index, values
        np.copyto(values, box.factors[0])
        for factor in box.factors[1:]:
            values *= factor
        return box.index, values
