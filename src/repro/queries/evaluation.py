"""Exact workload evaluation and error reporting.

A workload query is a product ``q(x) = Π_R w_R(x_R)`` of one weight array
per relation, so a workload is one weight stack per relation and every
answer — on an instance or on a released histogram — is one contraction of
those stacks.  :class:`WorkloadEvaluator` is built on that:

Stacks and groups
    Queries are grouped by the set of relations whose weights are not all
    one, and each group stacks those relations' weights across its queries
    into ``|Q_g| × dom(R)`` arrays.  The counting query (no such relation)
    is ``h.sum()``.  A group's answers on a histogram ``h`` are one
    ``np.einsum`` of its stacks with ``h`` summed down to the group's
    attributes: ``qab,ab->q`` for marginals on ``R1(A, B)`` of a two-table
    join, ``qab,qbc,abc->q`` for ±1 queries over both relations.
Contraction paths and query blocks
    Each group's path is found once by numpy's greedy search with no size
    cap: under numpy's default cap (the largest operand) the search gives
    up and contracts all operands at once, sweeping every index
    combination.  The path then runs over blocks of the group's queries,
    sized so that a block's temporaries — every intermediate twice, plus
    its operand slices — stay within ``_BLOCK_CELLS``·|D| float64 cells.
Instances
    :meth:`~WorkloadEvaluator.answers_on_instance` contracts the same
    stacks, times their relations' frequencies, with the other relations'
    frequencies.  Integer frequencies times 0/±1 weights sum exactly, so
    those answers are bitwise the per-query reference,
    :meth:`~repro.queries.linear.ProductQuery.evaluate`.
Supports
    :meth:`~WorkloadEvaluator.query_support` builds one query's
    ``(flat indices, values)`` over its non-zero box
    (:class:`~repro.queries.backends.EvaluatorContext`) and caches it while
    the cached entries fit ``_SPARSE_CELL_BUDGET``.
The column view
    A session answers a support update through the
    :class:`~repro.queries.backends.ColumnView` when a full evaluation
    sweeps more than ``_MATRIX_CELL_BUDGET`` matrix cells (``|Q|·|D|``)
    while every support fits ``_SPARSE_CELL_BUDGET`` entries, and scipy
    imports.  The view is built on first use from a workload CSR that is
    allocated once at ``Σ_q nnz(q)`` entries and filled query by query; the
    cached supports become zero-copy slices of it.  Without the view the
    PMW loop evaluates the workload in full every round.
Memory
    Resident: the stacks, the cached supports (the CSR once built) and the
    view.  :meth:`~WorkloadEvaluator.estimated_memory` sums exactly those
    arrays.

Iterated evaluation goes through a :class:`HistogramSession`, an operation
protocol (``answers``, ``scale_support``, ``scale``, ``fill``, ``total``,
``accumulate``/``averaged_slices``, ``close``) behind which the histogram's
storage — a scale times a cell array, so that a PMW round costs its
support and not the domain — is private to this package.
:func:`shared_evaluator` memoises one evaluator on the workload object
itself, so repeated releases over the same workload reuse its stacks,
supports and view, and the cache dies with the workload.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import Iterator

import numpy as np

from repro.queries.backends import ColumnView, EvaluatorContext, _scipy_sparse
from repro.queries.workload import Workload
from repro.relational.instance import Instance
from repro.relational.join import _EINSUM_LETTERS, _letters_for

#: Above this many matrix cells (``|Q|·|D|``) a full evaluation is costly
#: enough that sessions answer support updates through the column view.
_MATRIX_CELL_BUDGET = 60_000_000

#: The column view is built only while ``Σ_q nnz(q)`` fits this many
#: entries, and the support cache holds at most this many.
_SPARSE_CELL_BUDGET = 30_000_000

#: A query block's temporaries stay within this many multiples of ``|D|``
#: float64 cells.
_BLOCK_CELLS = 4

#: A histogram session rebases once its scale leaves ``[2^-8, 2^8]``...
_REBASE_SCALE = 2.0**8

#: ...or once its running weight passes this many times its scale.
_REBASE_WEIGHT = 2.0**20


@dataclass(frozen=True)
class ErrorReport:
    """Per-workload error summary between true and released answers."""

    max_abs_error: float
    mean_abs_error: float
    root_mean_squared_error: float
    worst_query: str
    num_queries: int

    @classmethod
    def from_answers(
        cls, true_answers: np.ndarray, released_answers: np.ndarray, names: tuple[str, ...]
    ) -> "ErrorReport":
        true_answers = np.asarray(true_answers, dtype=float)
        released_answers = np.asarray(released_answers, dtype=float)
        if true_answers.shape != released_answers.shape:
            raise ValueError("answer vectors must have the same shape")
        if names and len(names) != true_answers.size:
            raise ValueError(
                f"got {len(names)} query names for {true_answers.size} answers; "
                "names must be empty or match the answer vector length"
            )
        errors = np.abs(true_answers - released_answers)
        worst_index = int(np.argmax(errors)) if errors.size else 0
        return cls(
            max_abs_error=float(errors.max()) if errors.size else 0.0,
            mean_abs_error=float(errors.mean()) if errors.size else 0.0,
            root_mean_squared_error=float(np.sqrt(np.mean(errors**2))) if errors.size else 0.0,
            worst_query=names[worst_index] if names else "",
            num_queries=int(errors.size),
        )

    def __str__(self) -> str:
        return (
            f"ErrorReport(max={self.max_abs_error:.3f}, mean={self.mean_abs_error:.3f}, "
            f"rmse={self.root_mean_squared_error:.3f}, worst={self.worst_query!r}, "
            f"|Q|={self.num_queries})"
        )


@dataclass(frozen=True)
class _Contraction:
    """One einsum: its subscripts, a path found once, and its query-block length."""

    subscripts: str
    path: list
    block: int

    @classmethod
    def plan(
        cls, terms: list[str], output: str, shapes: list[tuple[int, ...]], domain_size: int
    ) -> "_Contraction":
        subscripts = ",".join(terms) + "->" + output
        # The path needs only the shapes; no size cap (see the module docstring).
        placeholders = [np.broadcast_to(np.empty(()), shape) for shape in shapes]
        path = np.einsum_path(subscripts, *placeholders, optimize=("greedy", 1 << 62))[0]
        extents = {
            label: extent
            for term, shape in zip(terms, shapes)
            for label, extent in zip(term, shape)
        }

        def per_query(labels) -> int:
            return prod(extents[label] for label in labels if label not in output)

        cells = sum(per_query(term) for term in terms if output and output in term)
        live = [set(term) for term in terms]
        for positions in path[1:]:
            merged = set().union(*(live.pop(position) for position in sorted(positions)[::-1]))
            kept = merged & set(output).union(*live)
            live.append(kept)
            cells += 2 * per_query(kept)
        return cls(subscripts, path, max(1, _BLOCK_CELLS * domain_size // max(1, cells)))

    def run(
        self,
        answers: np.ndarray,
        rows: np.ndarray,
        stacks: tuple[np.ndarray, ...],
        others: tuple[np.ndarray, ...],
        factors: tuple[np.ndarray, ...] = (),
    ) -> None:
        """``answers[rows] = einsum(*stacks, *others)``, one query block at a time.

        Each stack's block is multiplied by its entry of ``factors``, when
        given (the relation frequencies of an instance).
        """
        for lo in range(0, rows.size, self.block):
            block = [stack[lo : lo + self.block] for stack in stacks]
            if factors:
                block = [weights * factor for weights, factor in zip(block, factors)]
            answers[rows[lo : lo + self.block]] = np.einsum(
                self.subscripts, *block, *others, optimize=self.path
            )


@dataclass(frozen=True)
class _Group:
    """The queries whose non-all-one weights sit on one set of relations."""

    rows: np.ndarray
    relations: tuple[int, ...]
    stacks: tuple[np.ndarray, ...]
    summed: tuple[int, ...]
    on_histogram: _Contraction | None
    on_instance: _Contraction


def _stack(workload: Workload) -> tuple[_Group, ...]:
    """Stack the workload's weights, one group per set of non-all-one relations."""
    join = workload.join_query
    names = join.attribute_names
    if len(names) >= len(_EINSUM_LETTERS):
        raise ValueError(f"queries with {len(names)} attributes leave no einsum label free")
    letters = _letters_for(join)
    label = _EINSUM_LETTERS[len(names)]  # the first letter no attribute uses
    terms = ["".join(letters[name] for name in schema.attribute_names) for schema in join.relations]
    members: dict[tuple[int, ...], list[int]] = {}
    for index, query in enumerate(workload):
        key = tuple(
            position
            for position, table_query in enumerate(query.table_queries)
            if not table_query.is_all_one()
        )
        members.setdefault(key, []).append(index)
    domain_size = join.joint_domain_size
    groups = []
    for relations, rows in members.items():
        stacks = tuple(
            np.stack([workload[index].table_queries[position].weights for index in rows])
            for position in relations
        )
        others = [position for position in range(len(terms)) if position not in relations]
        stack_terms = [label + terms[position] for position in relations]
        shapes = [stack.shape for stack in stacks]
        attributes = {
            name for position in relations for name in join.relations[position].attribute_names
        }
        kept = sorted(join.axis_of(name) for name in attributes)
        summed = tuple(axis for axis in range(len(names)) if axis not in kept)
        output = label if relations else ""
        on_histogram = None
        if relations:
            on_histogram = _Contraction.plan(
                stack_terms + ["".join(letters[names[axis]] for axis in kept)],
                output,
                shapes + [tuple(join.shape[axis] for axis in kept)],
                domain_size,
            )
        on_instance = _Contraction.plan(
            stack_terms + [terms[position] for position in others],
            output,
            shapes + [join.relations[position].shape for position in others],
            domain_size,
        )
        groups.append(
            _Group(np.array(rows), relations, stacks, summed, on_histogram, on_instance)
        )
    return tuple(groups)


class HistogramSession:
    """The mutable histogram the PMW loop drives, held lazily as ``h = c·g``.

    The loop owns one session for its whole run: instead of handing the
    evaluator a fresh histogram every round, it applies in-place deltas
    through these ops and re-asks for answers.  Callers never see the
    backing storage (a static-analysis rule, DPA103, keeps it private to
    the queries package).  The session owns its cells outright — the seed
    histogram is copied — and allocates its accumulator on the first
    :meth:`accumulate`.

    The histogram is a scalar ``c`` times the cell array ``g``, with a
    running ``Σg``, so that a round costs the selected support ``S`` and
    not all of ``|D|``.  The average of the iterates is kept the way sparse
    averaged SGD keeps it: ``accumulate`` adds ``c`` to a running weight
    ``W``, and each cell's share, ``g(x)·(W − W_last(x))``, is added to the
    accumulator only when the cell is flushed — the cells of ``S`` before
    their update, every cell before a whole-domain update, a ``fill``, a
    rebase and in ``averaged_slices``.  The ops and their cost:

    ``answers()``
        The workload answers against the current contents: always a full
        evaluation, of ``g``, times ``c``.
    ``scale_support(indices, factors)``
        Multiply the cells at sorted ``indices`` by ``factors``, the PMW
        support delta: O(|S|), and ``Σg`` moves by the delta's sum.  A
        whole-domain support (the counting query, ±1 queries) instead
        flushes every cell, rescales ``g`` in place and recomputes ``Σg``
        exactly, with no ``|D|``-length temporary.  Returns the change in
        every answer, ``M[:, indices]·(new − old)``, when the evaluator
        holds a column view and the touched columns hold at most half its
        entries; otherwise ``None``, and the caller must call ``answers()``.
    ``scale(factor)`` / ``total()``
        Uniform rescale (``c`` moves) and total mass (``c·Σg``): O(1).
    ``fill(value)``
        Reset every cell to ``value``: O(|D|).
    ``accumulate()``
        Add the current contents to the running average: O(1).
    ``averaged_slices(divisor)``
        Yield ``(start, stop, cells)`` of the accumulated sum divided by
        ``divisor``: one whole-domain slice, after a final flush.
    ``close()``
        Release per-session resources.

    **Rebase.**  When ``|log2 c| > 8`` or ``W > 2^20·c``, the session
    flushes every cell, folds ``c`` into ``g``, recomputes ``Σg`` and
    restarts ``W``: O(|D|), counted in :attr:`rebases`.  (Every flush of
    the whole domain restarts ``W``.)  The rules bound the two roundings
    the lazy form adds: the running ``Σg`` drifts only by updates made at a
    scale within ``2^8`` of the current one, and a flushed share
    ``W − W_last`` loses at most ``2^20`` ulps of ``c`` per round.  Over
    3000 rounds mixing marginals, ±1 queries, counting-query rounds that
    move ``c`` past ``2^±8`` both ways, a reset and a stretch that moves
    ``c`` by ``2^±100`` through one marginal, every total and answer stays
    within 8.4e-14 relative of an eager float64 histogram and the average
    within 1.5e-15 (the tests allow 1e-9); rebasing only near overflow
    (``|log2 c| > 64``), the same run ends 8.5 % off.  The benchmark
    workloads rebase 0, 0 and 1 times per release.
    """

    def __init__(self, evaluator: "WorkloadEvaluator", cells: np.ndarray):
        self._evaluator = evaluator
        self._cells = cells
        self._scale = 1.0
        self._cells_total = float(cells.sum())
        self._weight = 0.0
        self._flushed: np.ndarray | None = None  # W at each cell's last flush
        self._accumulator: np.ndarray | None = None
        #: Rebases so far (see the class docstring).
        self.rebases = 0

    def answers(self) -> np.ndarray:
        """Answers of every query against the current histogram contents."""
        return self._evaluator._answers(self._cells) * self._scale

    def scale_support(self, indices: np.ndarray, factors: np.ndarray) -> np.ndarray | None:
        """Multiply the cells at sorted ``indices`` by ``factors`` (a support delta).

        Returns the change in every answer, or ``None`` when the session
        did not compute it.
        """
        cells = self._cells
        if indices.size == cells.size:  # sorted and unique: every cell
            self._flush_all()
            cells *= factors
            self._cells_total = float(cells.sum())
            return None  # its columns hold every entry, past the view's half
        old = cells[indices]
        if self._accumulator is not None:
            self._accumulator[indices] += old * (self._weight - self._flushed[indices])
            self._flushed[indices] = self._weight
        new = old * factors
        cells[indices] = new
        delta = new - old
        self._cells_total += float(delta.sum())
        columns = self._evaluator.column_view()
        if columns is None or not columns.narrow(indices):
            return None
        return columns.answer_change(indices, delta) * self._scale

    def scale(self, factor: float) -> None:
        """Multiply every cell by ``factor`` (renormalisation)."""
        self._scale *= factor
        if not 1.0 / _REBASE_SCALE <= self._scale <= _REBASE_SCALE:
            self._rebase()

    def fill(self, value: float) -> None:
        """Reset every cell to ``value``."""
        self._flush_all()
        self._cells.fill(value)
        self._scale = 1.0
        self._cells_total = float(self._cells.sum())

    def total(self) -> float:
        """The total mass of the current histogram contents."""
        return self._scale * self._cells_total

    def accumulate(self) -> None:
        """Add the current contents to the session's running average."""
        if self._accumulator is None:
            self._accumulator = np.zeros_like(self._cells)
            self._flushed = np.zeros_like(self._cells)
        self._weight += self._scale
        if self._weight > _REBASE_WEIGHT * self._scale:
            self._rebase()

    def averaged_slices(self, divisor: float) -> Iterator[tuple[int, int, np.ndarray]]:
        """Yield ``(start, stop, cells)`` of the accumulated sum divided by ``divisor``.

        One slice covering the whole domain; zeros before any
        :meth:`accumulate`.
        """
        if self._accumulator is None:
            yield 0, self._cells.size, np.zeros(self._cells.size, dtype=np.float64)
        else:
            self._flush_all()
            yield 0, self._accumulator.size, self._accumulator / float(divisor)

    def close(self) -> None:
        """Release per-session resources (nothing is held beyond the arrays)."""

    def _flush_all(self) -> None:
        """Add every cell's pending share to the accumulator and restart ``W``.

        In place: the flushed-weight array holds ``W − W_last``, then the
        shares, before it is zeroed.
        """
        if self._accumulator is None:
            return
        pending = self._flushed
        np.subtract(self._weight, pending, out=pending)
        pending *= self._cells
        self._accumulator += pending
        pending.fill(0.0)
        self._weight = 0.0

    def _rebase(self) -> None:
        """Fold ``c`` into ``g``: flush, rescale, and recompute ``Σg`` exactly."""
        self._flush_all()
        self._cells *= self._scale
        self._scale = 1.0
        self._cells_total = float(self._cells.sum())
        self.rebases += 1


class WorkloadEvaluator:
    """Evaluate a workload against instances and joint-domain histograms.

    See the module docstring for the stacks, the query blocks, the support
    cache and the column-view rule.  ``mode`` and ``engine`` name the one
    evaluation path (``"factored"``, ``None``) for callers that record them.
    """

    mode = "factored"
    engine = None

    def __init__(self, workload: Workload):
        self._workload = workload
        self._context = EvaluatorContext(workload)
        self._shape = workload.join_query.shape
        self._stacked: tuple[_Group, ...] | None = None
        self._supports: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._cached_entries = 0
        self._csr: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        self._columns: ColumnView | None = None
        self._columns_decided = False

    # ------------------------------------------------------------------ #
    # accessors
    # ------------------------------------------------------------------ #
    @property
    def workload(self) -> Workload:
        return self._workload

    @property
    def num_queries(self) -> int:
        return len(self._workload)

    @property
    def domain_size(self) -> int:
        return self._context.domain_size

    def _groups(self) -> tuple[_Group, ...]:
        if self._stacked is None:
            self._stacked = _stack(self._workload)
        return self._stacked

    def support_size(self, index: int) -> int:
        """Exact number of joint-domain cells where query ``index`` is non-zero.

        Computed by an einsum over the non-zero indicators of the per-relation
        weight arrays — the joint domain is never materialised.
        """
        return self._context.support_size(index)

    def total_support_size(self) -> int:
        """``Σ_q nnz(q)``: the number of entries the workload CSR stores."""
        return self._context.total_support_size()

    def estimated_memory(self) -> int:
        """Resident bytes: the stacks, the cached supports or CSR, and the view."""
        arrays = [stack for group in self._groups() for stack in group.stacks]
        if self._csr is not None:
            arrays += self._csr
        else:
            arrays += [array for support in self._supports.values() for array in support]
        if self._columns is not None:
            arrays += self._columns.arrays()
        return sum(array.nbytes for array in arrays)

    # ------------------------------------------------------------------ #
    # query supports and the column view
    # ------------------------------------------------------------------ #
    def query_support(self, index: int) -> tuple[np.ndarray, np.ndarray]:
        """CSR-style ``(flat indices, values)`` support of one query.

        Built over the query's non-zero box and cached while the cached
        entries fit the support budget; the PMW multiplicative update
        touches only these cells (its factor is exactly 1 everywhere else).
        """
        cached = self._supports.get(index)
        if cached is not None:
            return cached
        support = self._context.build_support(index)
        size = int(support[0].size)
        if self._cached_entries + size <= _SPARSE_CELL_BUDGET:
            self._supports[index] = support
            self._cached_entries += size
        return support

    def query_values(self, index: int) -> np.ndarray:
        """Flattened joint-domain value vector of one query (dense)."""
        return self._workload[index].joint_values().reshape(-1)

    def _ensure_csr(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(indptr, indices, values)`` of every support, filled in place.

        Allocated once at ``Σ_q nnz(q)`` entries; the support cache is then
        re-pointed at zero-copy slices, so the two share storage.
        """
        if self._csr is None:
            sizes = [self.support_size(index) for index in range(self.num_queries)]
            indptr = np.zeros(len(sizes) + 1, dtype=np.int64)
            np.cumsum(sizes, out=indptr[1:])
            indices = np.empty(int(indptr[-1]), dtype=np.int64)
            values = np.empty(int(indptr[-1]), dtype=np.float64)
            for index in range(len(sizes)):
                lo, hi = int(indptr[index]), int(indptr[index + 1])
                support = self._supports.get(index) or self._context.build_support(index)
                indices[lo:hi], values[lo:hi] = support
                self._supports[index] = (indices[lo:hi], values[lo:hi])
            self._cached_entries = int(indptr[-1])
            self._csr = (indptr, indices, values)
        return self._csr

    def column_view(self) -> ColumnView | None:
        """The cell→query view sessions answer support updates with, or ``None``.

        Decided and built on first use: only where ``|Q|·|D|`` exceeds the
        matrix budget while ``Σ_q nnz(q)`` fits the support budget, and
        scipy imports.
        """
        if not self._columns_decided:
            self._columns_decided = True
            if (
                self.num_queries * self.domain_size > _MATRIX_CELL_BUDGET
                and _scipy_sparse() is not None
                and self.total_support_size() <= _SPARSE_CELL_BUDGET
            ):
                self._columns = ColumnView.from_csr(*self._ensure_csr(), self.domain_size)
        return self._columns

    # ------------------------------------------------------------------ #
    # evaluation
    # ------------------------------------------------------------------ #
    def answers_on_instance(self, instance: Instance) -> np.ndarray:
        """Exact answers ``q(I)`` for every workload query.

        Each group's stacks, times their relations' frequencies, contracted
        with the other relations' frequencies; the join is never
        materialised.
        """
        if instance.query is not self._workload.join_query:
            self._workload.require_compatible(instance.query)
        frequencies = [relation.frequencies for relation in instance.relations]
        answers = np.empty(self.num_queries, dtype=np.float64)
        for group in self._groups():
            others = tuple(
                frequency
                for position, frequency in enumerate(frequencies)
                if position not in group.relations
            )
            if not group.relations:
                contraction = group.on_instance
                answers[group.rows] = float(
                    np.einsum(contraction.subscripts, *others, optimize=contraction.path)
                )
                continue
            group.on_instance.run(
                answers,
                group.rows,
                group.stacks,
                others,
                tuple(frequencies[position] for position in group.relations),
            )
        return answers

    def _validated_flat(self, histogram: np.ndarray) -> np.ndarray:
        flat = np.asarray(histogram, dtype=float).reshape(-1)
        if flat.size != self.domain_size:
            raise ValueError(f"histogram has {flat.size} cells, expected {self.domain_size}")
        return flat

    def _answers(self, flat: np.ndarray) -> np.ndarray:
        histogram = flat.reshape(self._shape)
        answers = np.empty(self.num_queries, dtype=np.float64)
        for group in self._groups():
            if group.on_histogram is None:
                answers[group.rows] = histogram.sum()
                continue
            marginal = histogram.sum(axis=group.summed) if group.summed else histogram
            group.on_histogram.run(answers, group.rows, group.stacks, (marginal,))
        return answers

    def answers_on_histogram(self, histogram: np.ndarray) -> np.ndarray:
        """Answers ``q(F)`` for every query against a joint-domain histogram."""
        return self._answers(self._validated_flat(histogram))

    def histogram_session(self, initial: np.ndarray) -> HistogramSession:
        """Open a mutable histogram session on a copy of ``initial``.

        The PMW inner loop uses this instead of re-submitting the histogram
        every round: it applies in-place deltas (the selected query's
        support rescale and the renormalisation) through the session's op
        protocol and re-asks for answers.
        """
        return HistogramSession(self, np.array(self._validated_flat(initial), dtype=np.float64))


def shared_evaluator(workload: Workload) -> WorkloadEvaluator:
    """The one evaluator of ``workload``, built on first use.

    PMW, the baselines and :class:`~repro.core.result.ReleaseResult` all
    ask this for the workload's evaluator, so repeated releases over the
    same workload — uniformized per-bucket runs, trial sweeps, error
    reports — share its stacks, cached supports and column view.  It lives
    in the workload's one evaluator slot, so it dies with the workload; a
    fresh :class:`~repro.queries.workload.Workload` over the same queries
    starts without one.
    """
    if workload._evaluator is None:
        workload._evaluator = WorkloadEvaluator(workload)
    return workload._evaluator
