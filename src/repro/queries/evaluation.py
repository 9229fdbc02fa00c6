"""Exact workload evaluation and error reporting.

A workload query is a product ``q(x) = Π_R w_R(x_R)`` of one weight array
per relation, so a workload is one weight stack per relation and every
answer — on an instance or on a released histogram — is one contraction of
those stacks.  :class:`WorkloadEvaluator` is built on that:

Stacks and groups
    Queries are grouped by the relations whose weights are not all one
    and, per relation, the axes its weights are held on: those they are
    not broadcast along (:attr:`~repro.queries.linear.TableQuery.held_axes`).
    Each group stacks those weights over their held axes alone, so a
    one-way marginal's stack row has ``|dom(attribute)|`` cells, not
    ``|dom(R)|``.  The counting query (no such relation) is ``h.sum()``.
    A group's answers on a histogram ``h`` contract its stacks, along a
    plan built once with them, with ``h`` summed in two stages: onto the
    group's relations' attributes, once per call for every group over the
    same relations, then onto its held axes (numpy sums an ``8^5`` array
    onto its first axis in 8 µs, onto its last in 71 µs).  Each stack is
    stored once, in the axis order its step of the plan reads, and filled
    query by query; the group's ``|Q_g| × held`` stacks are transposed
    views of those arrays.
The plan and query blocks
    Step one takes the relation with the largest private part ``P`` (the
    attributes no other relation of the group holds) and contracts it as
    one batched ``np.matmul`` over its shared attributes ``S``: its stack
    is ``|S| × |Q_g| × |P|``, and the marginal is read through one
    transpose as ``|S| × |P| × |O|``, ``O`` being the group's other
    attributes.  Each remaining relation, picked by the same rule among
    those left, is one two-operand ``np.einsum(..., optimize=False)`` of the
    running intermediate with its stack, which is stored in the
    intermediate's axis order; the step sums out the attributes no later
    relation holds.  For ±1 queries over ``R1(A, B) ⋈ R2(B, C)`` that is
    ``(B, Q, A) @ (B, A, C)`` then ``bqc,bqc->q``; a one-relation group (a
    marginal) is step one alone.  A numpy einsum over all the stacks would
    instead copy every operand into batched-matmul order on every call.
    Where the transpose is not the identity, step one copies the
    transposed marginal into one contiguous array: OpenBLAS's batched
    matmul runs slower on the strided view.  The plan runs over blocks of
    the group's queries, sized so that a block's temporaries — the
    largest input plus output of one step, plus that copy — stay within
    ``_BLOCK_CELLS``·|D| float64 cells; on a carried answer change, which
    also holds the box's change and the zero-padded marginal, within two
    ``|D|`` fewer.
Instances
    :meth:`~WorkloadEvaluator.answers_on_instance` sums the join in the
    same two stages, the first one einsum over the relation frequencies
    per relation set, whose path numpy's greedy search finds once with no
    size cap (under numpy's default cap, the largest operand, the search
    sweeps every index combination at once), and runs each group's plan on
    the result.  Integer frequencies times 0/±1 weights sum exactly, so
    those answers are bitwise :meth:`~repro.queries.linear.ProductQuery.evaluate`'s.
Supports
    A product query is non-zero only inside a box: per axis, the values at
    which every relation holding that attribute has some non-zero weight.
    :meth:`~WorkloadEvaluator.query_support` hands the PMW update that box
    as an index into the joint-shaped histogram — a slice on each axis
    whose kept values form one run (a whole axis, a single value or a
    range), an ``np.ix_`` index otherwise — and the query's values on it,
    zeros included, over only the axes some relation's weights are held
    on: extent one on every other axis, so that they broadcast onto the
    box.  A one-way marginal's values are one cell; a ±1 query over two
    relations fills its box.  A zero weight gives the update a factor of
    ``exp(0) = 1``, so those cells stay bitwise unchanged.  Slices read and
    write the histogram through views; an ``np.ix_`` box gathers and
    scatters.  Per query the evaluator keeps, once built, only the box
    index, the values' shape and, for each relation whose weights are not
    all one, its held weights restricted to the box on the held axes
    (restricted before any gather, so a gather copies no broadcast axis).
    The values are built on every call from them, into a fresh array the
    caller may overwrite: a copy of the first factor, multiplied in place
    by each further one (a fill with ones when there is none), so each
    cell takes the same float operations as over the whole box.
Carried answers
    Where a full evaluation sweeps more than ``_MATRIX_CELL_BUDGET`` = 2^20
    matrix cells (``|Q|·|D|``; see the constant for the measured
    crossover), a session's support update also returns how every answer
    moves, group by group, from the box's change ``Δ``: ``ΣΔ`` for the
    counting query, and for every other group its plan run on ``Δ`` summed
    in the same two stages onto the group's held axes and zero-padded
    outside the box.  A whole-domain box (every part of its index
    ``slice(0, n)``) returns no change, and the PMW loop then evaluates the
    workload in full, as it does every round below the budget, in round
    one and after a renormalisation reset.  On the release benchmark,
    ``two_table_marginals`` and ``chain_residual`` carry; ``uniformize_zipf``
    is over the budget too, but its ±1 boxes are the whole domain.
    Carried answers drift from a full evaluation only by rounding, without
    growing: at most 5.1e-15 of the largest answer over 3000 rounds on the
    release benchmark's 321 marginals at ``|D| = 2^20``, and 4.1e-15 over
    the drift test's 1200 rounds, which mix in ±1 queries over two
    relations and ``np.ix_`` boxes, against the 1e-9 the tests allow; no
    periodic refresh is needed.
Memory
    Resident: the stacks (one copy each) and the box factors of each query
    whose support was asked for (``O(Σ_R |box_R|)`` per query).  A box
    factor is a view of the workload's weights where the box slices them
    and a copy where it gathers; :meth:`~WorkloadEvaluator.estimated_memory`
    sums the stacks and those copies, none of them ``|D|``-sized per query.
    The release benchmark's 321 one-way marginals over ``|D| = 2^20``
    stack 0.28 MiB (20 MiB with relation-wide stacks).

Iterated evaluation goes through a :class:`HistogramSession`, an operation
protocol (``answers``, ``scale_support``, ``scale``, ``fill``, ``total``,
``accumulate``/``averaged_slices``, ``close``) behind which the histogram's
storage — a scale times a cell array, so that a PMW round costs its
support and not the domain — is private to this package.
:func:`shared_evaluator` memoises one evaluator on the workload object
itself, so repeated releases over the same workload reuse its stacks and
box factors, and they die with the workload.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import Iterator

import numpy as np

from repro.queries.workload import Workload
from repro.relational.instance import Instance
from repro.relational.join import _EINSUM_LETTERS, _letters_for, expand_to_joint

#: Above this many matrix cells (``|Q|·|D|``) sessions return the answer
#: change of each support update instead of leaving the PMW loop to evaluate
#: the workload in full.  ``python tests/carried_crossover.py`` times both
#: over a grid of shapes.  The largest on which a full evaluation was faster
#: in either of two runs is the evaluator tests' 17-attribute chain with
#: random predicates (786,432 cells, ``np.ix_`` boxes; 2,227 against
#: 2,429 µs in one run, 1,368 against 1,325 µs in the other), and this is
#: the smallest power of two above it.  Below it lie ``np.ix_`` boxes and
#: tiny domains; above it every shape on the grid carried no slower in
#: both runs, ``chain_query([8] * 5)``'s one-way marginals in under half
#: the time.  The 60,000,000 this replaced came from the dense/sparse cost
#: model the factored evaluator retired and was never measured against
#: carrying.
_MATRIX_CELL_BUDGET = 2**20

#: A query block's temporaries stay within this many multiples of ``|D|``
#: float64 cells.
_BLOCK_CELLS = 4

#: A histogram session rebases once its scale leaves ``[2^-8, 2^8]``...
_REBASE_SCALE = 2.0**8

#: ...or once its running weight passes this many times its scale.
_REBASE_WEIGHT = 2.0**20

#: A session folds its running weight into its accumulator this many cells
#: at a time.
_FOLD_CELLS = 2**14


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
    weights are not all one, in relation order, each over the axes its
    weights are held on and with one axis per joint attribute (extent one
    on every other).  ``values_shape`` is the shape of their broadcast,
    which broadcasts onto the box.  ``owned`` is the bytes of the factors
    that are copies, made where the box gathers; the others are views of
    the workload's weights.
    """

    index: tuple
    values_shape: tuple[int, ...]
    factors: tuple[np.ndarray, ...]
    owned: int


@dataclass(frozen=True)
class _Plan:
    """A group's histogram answers: one batched matmul, then one einsum per relation.

    ``first`` is the first relation's stack viewed as ``|S| × |Q_g| × |P|``
    (its shared and private attributes); the marginal, transposed by
    ``order`` into one contiguous copy (``None``: it is in that order
    already) and viewed as ``matrices`` (``|S| × |P| × |O|``), is its right
    operand.  Each of ``steps`` is ``(subscripts, stack, query axis)``: the
    running intermediate times a stack stored in the intermediate's axis
    order.  Queries run in blocks of ``block``, or of ``carried_block`` for
    a carried answer change.
    """

    order: tuple[int, ...] | None
    matrices: tuple[int, int, int]
    first: np.ndarray
    unflatten: tuple[tuple[int, ...], tuple[int, ...]]
    steps: tuple[tuple[str, np.ndarray, int], ...]
    block: int
    carried_block: int

    def run(
        self, answers: np.ndarray, rows: np.ndarray, marginal: np.ndarray, *, carried: bool = False
    ) -> None:
        """``answers[rows]`` against ``marginal``, the histogram summed to the group's axes."""
        if self.order is not None:  # OpenBLAS's batched matmul is slower on a strided view
            marginal = np.ascontiguousarray(marginal.transpose(self.order))
        transposed = marginal.reshape(self.matrices)
        shared, others = self.unflatten
        block = self.carried_block if carried else self.block
        for lo in range(0, rows.size, block):
            queries = slice(lo, lo + block)
            running = np.matmul(self.first[:, queries], transposed)
            running = running.reshape(shared + running.shape[1:2] + others)
            for subscripts, stack, axis in self.steps:
                part = stack[(slice(None),) * axis + (queries,)]
                running = np.einsum(subscripts, running, part, optimize=False)
            answers[rows[queries]] = running


def _plan(
    axes_of: dict[int, tuple[int, ...]],
    extents: tuple[int, ...],
    letters: str,
    weights: dict[int, list[np.ndarray]],
    domain_size: int,
) -> tuple[_Plan, dict[int, np.ndarray]]:
    """The plan of one group, and each relation's stack as a ``|Q_g| × held`` view.

    ``axes_of`` maps each relation to its held joint axes in schema order,
    ``letters`` labels the joint axes and then the query axis, and
    ``weights`` holds each relation's held weights, one array per query.
    Every step takes the pending relation with the largest private part
    (the axes no other pending relation holds), which the step sums out.
    Each stack is filled once, in the layout its step reads.
    """
    query = len(extents)  # the query axis's label
    size = len(next(iter(weights.values())))
    kept = sorted(set().union(*axes_of.values()))

    def volume(axes) -> int:
        return prod(extents[axis] for axis in axes if axis != query)

    def take(pending: list[int]) -> tuple[int, set[int]]:
        def private(position: int) -> list[int]:
            elsewhere = {axis for other in pending if other != position for axis in axes_of[other]}
            return [axis for axis in axes_of[position] if axis not in elsewhere]

        position = max(pending, key=lambda candidate: volume(private(candidate)))
        pending.remove(position)
        return position, {axis for other in pending for axis in axes_of[other]}

    def fill(position: int, layout: list[int]) -> tuple[np.ndarray, np.ndarray]:
        stored = np.empty(tuple(size if axis == query else extents[axis] for axis in layout))
        view = stored.transpose([layout.index(axis) for axis in (query,) + axes_of[position]])
        for row, array in enumerate(weights[position]):
            view[row] = array
        return stored, view

    pending = list(axes_of)
    position, later = take(pending)
    shared = [axis for axis in kept if axis in axes_of[position] and axis in later]
    private = [axis for axis in kept if axis in axes_of[position] and axis not in later]
    others = [axis for axis in kept if axis not in axes_of[position]]
    stored, view = fill(position, shared + [query] + private)
    stacks = {position: view}
    first = stored.reshape(volume(shared), size, volume(private))
    labels = shared + [query] + others
    # A step's temporaries per query: its input and its output.  Step one's
    # input is the transposed marginal, which the budget charges once.
    cells = volume(shared) * volume(others)
    steps = []
    while pending:
        position, later = take(pending)
        layout = [axis for axis in labels if axis == query or axis in axes_of[position]]
        output = [axis for axis in labels if axis == query or axis in later]
        stored, stacks[position] = fill(position, layout)
        subscripts = "".join(letters[axis] for axis in labels) + ","
        subscripts += "".join(letters[axis] for axis in layout) + "->"
        subscripts += "".join(letters[axis] for axis in output)
        steps.append((subscripts, stored, layout.index(query)))
        cells = max(cells, volume(labels) + volume(output))
        labels = output
    order = tuple(kept.index(axis) for axis in shared + private + others)
    copied = order != tuple(range(len(kept)))
    budget = _BLOCK_CELLS * domain_size - (volume(kept) if copied else 0)
    plan = _Plan(
        order=order if copied else None,
        matrices=(volume(shared), volume(private), volume(others)),
        first=first,
        unflatten=(
            tuple(extents[axis] for axis in shared),
            tuple(extents[axis] for axis in others),
        ),
        steps=tuple(steps),
        block=max(1, budget // cells),
        carried_block=max(1, (budget - 2 * domain_size) // cells),
    )
    return plan, stacks


def _sum(array: np.ndarray, axes: tuple[int, ...]) -> np.ndarray:
    """``array`` summed over ``axes``, or ``array`` itself when there are none."""
    return array.sum(axis=axes) if axes else array


@dataclass(frozen=True)
class _Group:
    """The queries weighted on one set of relations, each held on one set of axes.

    ``held`` gives each relation's held joint axes, ``axes`` their union
    and ``summed`` the other positions among the relations' attributes,
    all in joint order.
    """

    rows: np.ndarray
    relations: tuple[int, ...]
    held: tuple[tuple[int, ...], ...]
    axes: tuple[int, ...]
    summed: tuple[int, ...]
    stacks: tuple[np.ndarray, ...]
    on_histogram: _Plan | None

    def answer(self, answers: np.ndarray, marginal: np.ndarray) -> None:
        """``answers[rows]`` against ``marginal``, summed onto the group's relations' attributes."""
        marginal = _sum(marginal, self.summed)
        if self.on_histogram is None:
            answers[self.rows] = marginal
        else:
            self.on_histogram.run(answers, self.rows, marginal)


@dataclass(frozen=True)
class _RelationSet:
    """The groups weighted on one set of relations, and the first stage of their sums.

    ``summed`` are the joint axes none of the relations holds, and
    ``join_marginal`` the einsum, subscripts and path, onto the others.
    """

    summed: tuple[int, ...]
    join_marginal: tuple[str, list]
    groups: tuple[_Group, ...]


def _stack(workload: Workload) -> tuple[_RelationSet, ...]:
    """Stack the workload's weights, one group per weighted relation set and held axes."""
    join = workload.join_query
    names = join.attribute_names
    if len(names) >= len(_EINSUM_LETTERS):
        raise ValueError(f"queries with {len(names)} attributes leave no einsum label free")
    letters = _letters_for(join)
    labels = "".join(letters[name] for name in names) + _EINSUM_LETTERS[len(names)]
    terms = ["".join(letters[name] for name in schema.attribute_names) for schema in join.relations]
    axes = [tuple(map(join.axis_of, schema.attribute_names)) for schema in join.relations]
    # weighted relations -> {each one's held joint axes -> rows}
    members: dict[tuple[int, ...], dict[tuple[tuple[int, ...], ...], list[int]]] = {}
    for index, query in enumerate(workload):
        relations, held = [], []
        for position, table_query in enumerate(query.table_queries):
            if not table_query.is_all_one():
                relations.append(position)
                held.append(tuple(axes[position][axis] for axis in table_query.held_axes))
        members.setdefault(tuple(relations), {}).setdefault(tuple(held), []).append(index)
    # The path needs only the shapes; no size cap (see the module docstring).
    placeholders = [np.broadcast_to(np.empty(()), schema.shape) for schema in join.relations]
    sets = []
    for relations, by_held in members.items():
        attributes = sorted({axis for position in relations for axis in axes[position]})
        groups = []
        for held, rows in by_held.items():
            kept = tuple(sorted(set().union(*held)))
            on_histogram = None
            stacks: tuple[np.ndarray, ...] = ()
            if relations:
                weights = {
                    position: [workload[row].table_queries[position].held_weights() for row in rows]
                    for position in relations
                }
                on_histogram, views = _plan(
                    dict(zip(relations, held)), join.shape, labels, weights, join.joint_domain_size
                )
                stacks = tuple(views[position] for position in relations)
            summed = tuple(place for place, axis in enumerate(attributes) if axis not in kept)
            groups.append(
                _Group(np.array(rows), relations, held, kept, summed, stacks, on_histogram)
            )
        summed = tuple(axis for axis in range(len(names)) if axis not in attributes)
        subscripts = ",".join(terms) + "->" + "".join(labels[axis] for axis in attributes)
        path = np.einsum_path(subscripts, *placeholders, optimize=("greedy", 1 << 62))[0]
        sets.append(_RelationSet(summed, (subscripts, path), tuple(groups)))
    return tuple(sets)


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
    not all of ``|D|``.  The sum of the iterates, ``Σ_t c_t·g_t``, is kept
    the way sparse averaged SGD keeps it, as an offset from the live
    cells: ``accumulate`` adds ``c`` to a running weight ``W``, and the
    accumulator holds ``A′ = Σ_t c_t·g_t − W·g``, so that the sum is
    ``A′ + W·g``.  Accumulating leaves ``A′`` as it is; a box update that
    moves ``g`` by ``Δ`` subtracts ``W·Δ`` from ``A′`` on the box.  A
    *fold* adds ``W·g`` into ``A′`` and restarts ``W`` at zero, in
    chunks of ``_FOLD_CELLS`` cells with no ``|D|``-length temporary.  The
    ops and their cost:

    ``answers()``
        The workload answers against the current contents: always a full
        evaluation, of ``g``, times ``c``.
    ``scale_support(box, factors)``
        Multiply the cells of ``box`` (a query's support box, see
        :meth:`WorkloadEvaluator.query_support`) by ``factors``, the PMW
        support delta, broadcast onto the box (a one-way marginal's is one
        cell): O(|S|), one strided read and one strided write of ``g`` and
        one strided update of ``A′``, and ``Σg`` moves by the delta's sum.
        A whole-domain box (the counting query, full-domain ±1 queries),
        told from its index (every part ``slice(0, n)``), instead folds,
        rescales ``g`` in place and recomputes ``Σg`` exactly, with no
        ``|D|``-length temporary.
        Returns the change in every answer when the evaluator carries
        answers (``|Q|·|D|`` over ``_MATRIX_CELL_BUDGET``) and the box is
        not the whole domain; otherwise ``None``, and the caller must call
        ``answers()``.
    ``scale(factor)`` / ``total()``
        Uniform rescale (``c`` moves) and total mass (``c·Σg``): O(1).
    ``fill(value)``
        Fold, then reset every cell to ``value``: O(|D|).
    ``accumulate()``
        Add the current contents to the running average: O(1).
    ``averaged_slices(divisor)``
        Yield ``(start, stop, cells)`` of ``(A′ + W·g)/divisor``: one
        whole-domain slice, formed in place in the cells, which ends the
        session.
    ``close()``
        Release per-session resources.

    **Rebase.**  When ``|log2 c| > 8`` or ``W > 2^20·c``, the session
    folds, multiplies ``g`` by ``c``, recomputes ``Σg`` and sets ``c`` to
    one: O(|D|), counted in :attr:`rebases`.  The rules bound the two
    roundings the lazy form adds: the running ``Σg`` drifts only by
    updates made at a scale within ``2^8`` of the current one, and ``W·Δ``
    cancels against at most ``2^20`` rounds' worth of ``c``.  Over 3000
    rounds mixing marginals, ±1 queries, counting-query rounds that move
    ``c`` past ``2^±8`` both ways, a reset and a stretch that moves ``c``
    by ``2^±100`` through one marginal, every total and answer stays
    within 8.4e-14 relative of an eager float64 histogram and the average
    within 1.4e-15 (3e-14 on ``|D| = 2^20``, 200-round releases; the tests
    allow 1e-9); rebasing only near overflow
    (``|log2 c| > 64``), the same run ends 8.5 % off.  The benchmark
    workloads rebase 0, 0 and 1 times per release.
    """

    def __init__(self, evaluator: "WorkloadEvaluator", cells: np.ndarray):
        self._evaluator = evaluator
        self._cells = cells  # joint-shaped, as is the accumulator
        self._scale = 1.0
        self._cells_total = float(cells.sum())
        self._weight = 0.0
        self._accumulator: np.ndarray | None = None  # A′ = Σ_t c_t·g_t − W·g
        #: Rebases so far (see the class docstring).
        self.rebases = 0

    def answers(self) -> np.ndarray:
        """Answers of every query against the current histogram contents."""
        return self._evaluator._answers(self._cells) * self._scale

    def scale_support(self, box: tuple, factors: np.ndarray) -> np.ndarray | None:
        """Multiply the cells of ``box`` by ``factors`` broadcast onto it (a support delta).

        Returns the change in every answer, or ``None`` when the session
        did not compute it.
        """
        cells = self._cells
        if all(
            isinstance(part, slice) and part == slice(0, size)
            for part, size in zip(box, cells.shape)
        ):  # the whole domain
            self._fold()
            cells *= factors
            self._cells_total = float(cells.sum())
            return None
        delta = cells[box]  # the old cells, gathered where the box is an np.ix_ index
        if isinstance(box[0], slice):
            delta = delta.copy()  # one strided read
        new = delta * factors
        cells[box] = new
        np.subtract(new, delta, out=delta)
        self._cells_total += float(delta.sum())
        if self._weight:
            self._accumulator[box] -= np.multiply(delta, self._weight, out=new)
        del new  # not held through the answer change
        if not self._evaluator._carries():
            return None
        return self._evaluator._answer_change(box, delta) * self._scale

    def scale(self, factor: float) -> None:
        """Multiply every cell by ``factor`` (renormalisation)."""
        self._scale *= factor
        if not 1.0 / _REBASE_SCALE <= self._scale <= _REBASE_SCALE:
            self._rebase()

    def fill(self, value: float) -> None:
        """Reset every cell to ``value``."""
        self._fold()
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
        self._weight += self._scale
        if self._weight > _REBASE_WEIGHT * self._scale:
            self._rebase()

    def averaged_slices(self, divisor: float) -> Iterator[tuple[int, int, np.ndarray]]:
        """Yield ``(start, stop, cells)`` of the accumulated sum divided by ``divisor``.

        One slice covering the whole domain, zeros before any
        :meth:`accumulate`.  It is formed in place in the session's cells,
        so the session holds no histogram afterwards.
        """
        cells, accumulator = self._cells, self._accumulator
        self._cells = self._accumulator = None
        if accumulator is None:
            cells.fill(0.0)
        else:
            cells *= self._weight
            cells += accumulator
            cells /= float(divisor)
        yield 0, cells.size, cells.reshape(-1)

    def close(self) -> None:
        """Release per-session resources (nothing is held beyond the arrays)."""

    def _fold(self) -> None:
        """Add ``W·g`` into ``A′`` and restart ``W``, a chunk of cells at a time."""
        if self._weight:
            cells, accumulator = self._cells.reshape(-1), self._accumulator.reshape(-1)
            chunk = np.empty(min(cells.size, _FOLD_CELLS))
            for start in range(0, cells.size, chunk.size):
                part = chunk[: cells.size - start]
                np.multiply(cells[start : start + part.size], self._weight, out=part)
                accumulator[start : start + part.size] += part
        self._weight = 0.0

    def _rebase(self) -> None:
        """Fold ``c`` into ``g``: fold ``A′``, rescale, and recompute ``Σg`` exactly."""
        self._fold()
        self._cells *= self._scale
        self._scale = 1.0
        self._cells_total = float(self._cells.sum())
        self.rebases += 1


class WorkloadEvaluator:
    """Evaluate a workload against instances and joint-domain histograms.

    See the module docstring for the stacks, the query blocks, the supports
    and carried answers.  ``mode`` and ``engine`` name the one
    evaluation path (``"factored"``, ``None``) for callers that record them.
    """

    mode = "factored"
    engine = None

    def __init__(self, workload: Workload):
        self._workload = workload
        self._shape = workload.join_query.shape
        self.domain_size = workload.join_query.joint_domain_size
        self._stacked: tuple[_RelationSet, ...] | None = None
        self._boxes: dict[int, _Box] = {}

    # ------------------------------------------------------------------ #
    # accessors
    # ------------------------------------------------------------------ #
    @property
    def num_queries(self) -> int:
        return len(self._workload)

    def _relation_sets(self) -> tuple[_RelationSet, ...]:
        if self._stacked is None:
            self._stacked = _stack(self._workload)
        return self._stacked

    def _groups(self) -> tuple[_Group, ...]:
        return tuple(group for part in self._relation_sets() for group in part.groups)

    def _support_size(self, index: int) -> int:
        """Exact number of joint-domain cells where query ``index`` is non-zero."""
        join = self._workload.join_query
        letters = _letters_for(join)
        operands, terms = [], []
        for schema, table_query in zip(join.relations, self._workload[index].table_queries):
            operands.append((table_query.weights != 0.0).astype(np.int64))
            terms.append("".join(letters[name] for name in schema.attribute_names))
        # A contraction path sums relation by relation instead of sweeping
        # every index combination of the joint domain; the integers agree.
        return int(np.einsum(",".join(terms) + "->", *operands, optimize=True))

    def total_support_size(self) -> int:
        """``Σ_q nnz(q)``: the joint-domain cells the workload's queries are non-zero on."""
        return sum(self._support_size(index) for index in range(self.num_queries))

    def estimated_memory(self) -> int:
        """Resident bytes: the stacks and the box factors' copies.

        A box factor that is a view of the workload's weights adds nothing.
        """
        stacks = sum(stack.nbytes for group in self._groups() for stack in group.stacks)
        return stacks + sum(box.owned for box in self._boxes.values())

    # ------------------------------------------------------------------ #
    # query supports and carried answers
    # ------------------------------------------------------------------ #
    def _box(self, index: int) -> _Box:
        """Query ``index``'s box and its factors there, built on first use.

        An axis keeps the values at which every relation holding that
        attribute has some non-zero weight; an axis that keeps none makes
        the box empty, ``slice(0, 0)`` on every axis.
        """
        box = self._boxes.get(index)
        if box is not None:
            return box
        join = self._workload.join_query
        # (held joint axes, held weights) of each relation whose weights are not all one
        factors = []
        for schema, table_query in zip(join.relations, self._workload[index].table_queries):
            if not table_query.is_all_one():
                names = [schema.attribute_names[axis] for axis in table_query.held_axes]
                factors.append((tuple(map(join.axis_of, names)), table_query.held_weights()))
        keep = [np.ones(size, dtype=bool) for size in self._shape]
        for axes, weights in factors:
            nonzero = weights != 0.0
            if not axes:  # held on no axis, a constant: zero empties the box
                keep[0] &= bool(nonzero)
            for position, axis in enumerate(axes):
                keep[axis] &= nonzero.any(axis=tuple(a for a in range(len(axes)) if a != position))
        parts: list[slice | np.ndarray] = []
        for used in keep:
            kept = np.flatnonzero(used)
            if not kept.size:
                parts = [slice(0, 0)] * len(keep)
                break
            first, last = int(kept[0]), int(kept[-1])
            parts.append(slice(first, last + 1) if last - first == kept.size - 1 else kept)
        restricted, owned = [], 0
        for axes, weights in factors:
            # Restricted on the held axes alone, so a gather copies no broadcast axis.
            held = weights[box_index([parts[axis] for axis in axes])] if axes else weights
            factor = expand_to_joint(join, held, [join.attribute_names[axis] for axis in axes])
            restricted.append(factor)
            if not np.may_share_memory(factor, weights):
                owned += factor.nbytes
        shape = np.broadcast_shapes((1,) * len(parts), *(factor.shape for factor in restricted))
        box = self._boxes[index] = _Box(box_index(parts), shape, tuple(restricted), owned)
        return box

    def query_support(self, index: int) -> tuple[tuple, np.ndarray]:
        """One query's non-zero box and its values there, zeros included.

        The box indexes the joint-shaped histogram: a slice on each axis
        whose kept values form one run, an ``np.ix_`` index otherwise, and
        ``slice(0, 0)`` on every axis when the query is zero everywhere.
        The PMW multiplicative update touches only these cells (its factor
        is exactly 1 everywhere else, and on the box's zeros).  The values
        have one axis per joint attribute, extent one on every axis no
        relation's weights are held on, and broadcast onto the box: a
        one-way marginal's are one cell, a ±1 query over two relations
        fills its box.  They are built on every call in
        :meth:`~repro.queries.linear.ProductQuery.joint_values`' order, so,
        broadcast onto the box, each is bit-identical to the dense array's
        there, and the caller owns them and may overwrite them in place.
        """
        box = self._box(index)
        values = np.empty(box.values_shape)
        if not box.factors:
            values.fill(1.0)
            return box.index, values
        np.copyto(values, box.factors[0])
        for factor in box.factors[1:]:
            values *= factor
        return box.index, values

    def _carries(self) -> bool:
        """Whether a full evaluation is costly enough to carry answers instead."""
        return self.num_queries * self.domain_size > _MATRIX_CELL_BUDGET

    def _answer_change(self, box: tuple, delta: np.ndarray) -> np.ndarray:
        """How every answer moves when the cells of ``box`` move by ``delta``.

        Group by group (see the module docstring): ``delta`` summed onto
        the group's held axes, zero outside the box, through its plan.
        """
        parts = [part if isinstance(part, slice) else part.reshape(-1) for part in box]
        change = np.zeros(self.num_queries, dtype=np.float64)
        for part in self._relation_sets():
            marginal = _sum(delta, part.summed)
            for group in part.groups:
                held = _sum(marginal, group.summed)
                if group.on_histogram is None:
                    change[group.rows] = held
                    continue
                padded = np.zeros(tuple(self._shape[axis] for axis in group.axes))
                padded[box_index([parts[axis] for axis in group.axes])] = held
                group.on_histogram.run(change, group.rows, padded, carried=True)
        return change

    # ------------------------------------------------------------------ #
    # evaluation
    # ------------------------------------------------------------------ #
    def answers_on_instance(self, instance: Instance) -> np.ndarray:
        """Exact answers ``q(I)`` for every workload query.

        Each group's plan run on the join summed onto the group's held
        axes; the join is never materialised beyond the attributes of one
        set of weighted relations.
        """
        if instance.query is not self._workload.join_query:
            self._workload.require_compatible(instance.query)
        frequencies = [relation.frequencies.astype(np.float64) for relation in instance.relations]
        answers = np.empty(self.num_queries, dtype=np.float64)
        for part in self._relation_sets():
            subscripts, path = part.join_marginal
            marginal = np.einsum(subscripts, *frequencies, optimize=path)
            for group in part.groups:
                group.answer(answers, marginal)
        return answers

    def _validated_flat(self, histogram: np.ndarray) -> np.ndarray:
        flat = np.asarray(histogram, dtype=float).reshape(-1)
        if flat.size != self.domain_size:
            raise ValueError(f"histogram has {flat.size} cells, expected {self.domain_size}")
        return flat

    def _answers(self, cells: np.ndarray) -> np.ndarray:
        histogram = cells.reshape(self._shape)
        answers = np.empty(self.num_queries, dtype=np.float64)
        for part in self._relation_sets():
            marginal = _sum(histogram, part.summed)
            for group in part.groups:
                group.answer(answers, marginal)
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
        cells = np.array(self._validated_flat(initial), dtype=np.float64)
        return HistogramSession(self, cells.reshape(self._shape))


def shared_evaluator(workload: Workload) -> WorkloadEvaluator:
    """The one evaluator of ``workload``, built on first use.

    PMW, the baselines and :class:`~repro.core.result.ReleaseResult` all
    ask this for the workload's evaluator, so repeated releases over the
    same workload — uniformized per-bucket runs, trial sweeps, error
    reports — share its stacks and box factors.  It lives
    in the workload's one evaluator slot, so it dies with the workload; a
    fresh :class:`~repro.queries.workload.Workload` over the same queries
    starts without one.
    """
    if workload._evaluator is None:
        workload._evaluator = WorkloadEvaluator(workload)
    return workload._evaluator
