"""Pluggable workload-evaluation backends.

The release algorithms evaluate workloads through the
:class:`~repro.queries.evaluation.WorkloadEvaluator` facade; the actual
work is done by an :class:`EvaluationBackend` drawn from a registry.  A
backend owns one representation of the workload (dense matrix, CSR
supports, nothing at all, sharded CSR over a process pool, ...) and answers
four questions:

``answers_on_histogram(flat)``
    The full answer vector ``(q(F))_q`` against a flat joint-domain
    histogram (already validated by the facade).
``query_support(index)``
    The CSR-style ``(flat indices, values)`` support of one query — the
    cells the PMW multiplicative update touches.
``support_size(index)``
    The exact number of non-zero joint-domain cells of one query.
``estimated_memory()``
    The resident bytes the backend holds once built — the quantity the
    cost model ranks backends by.

Backends register themselves with :func:`register_backend`; the automatic
choice is an explicit cost model (:func:`backend_costs` /
:func:`choose_backend`): every registered backend reports eligibility and
an estimated memory footprint against the configured budgets, and the
cheapest-per-evaluation eligible backend wins (``speed_rank`` orders the
per-evaluation cost: dense matmul < sharded parallel matvec < serial CSR
matvec < pipelined streaming re-scan < serial streaming re-scan).
Registering a custom backend class is enough for ``mode="auto"``, the CLI
flags, and the parity test-suite to pick it up.

Shared machinery (exact support-size einsums, chunk plans, support
construction over each query's non-zero box) lives in
:class:`EvaluatorContext`, which every backend receives on construction, so
new backends only implement the evaluation strategy itself.

Iterated evaluation (the PMW loop) goes through a
:class:`HistogramSession` — an *operation protocol* (answers, support
rescale, uniform scale/fill, total, accumulate) behind which the histogram
representation is private to the backend: one array, a shared-memory
block, or per-slice segments spread over worker processes.  Sessions are
opened from a declarative :class:`HistogramSeed` (uniform total, per-slice
initializer, or concrete array) via ``seeded_session``, so backends that
partition the domain never materialise ``|D|`` cells in the parent.
"""

from __future__ import annotations

import os
import queue
import threading
import time
from dataclasses import dataclass
from typing import Callable, ClassVar, Iterator

import numpy as np

from repro.queries.workload import Workload
from repro.relational.join import _letters_for, expand_to_joint
from repro.telemetry import (
    NULL_SPAN as _NULL_SPAN,
    is_enabled as _telemetry_enabled,
    registry as _telemetry_registry,
    trace as _trace,
)

#: Above this many dense matrix cells (``|Q|·|D|``) the dense backend is
#: ineligible and the evaluator stops materialising the full query matrix.
_MATRIX_CELL_BUDGET = 60_000_000

#: Above this many total support entries the sparse CSR form is ineligible
#: (each entry stores an int64 index and a float64 value).
_SPARSE_CELL_BUDGET = 30_000_000

#: Default joint-domain chunk length for streaming scans, and the slab
#: length (in box cells) of support builds.
_DEFAULT_CHUNK_SIZE = 1 << 18


def effective_cpu_count() -> int:
    """CPU cores actually available to this process (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


#: Sentinel the decode thread enqueues after the last chunk.
_DECODE_DONE = object()


def iter_decoded_chunks(
    shape: tuple[int, ...],
    start: int,
    stop: int,
    chunk_size: int,
    *,
    prefetch: int = 0,
) -> Iterator[tuple[int, int, tuple[np.ndarray, ...]]]:
    """Yield ``(chunk_start, chunk_stop, multi)`` over ``[start, stop)``.

    ``multi`` is the flat-to-multi index decode of the chunk — the buffer
    every query scanning the chunk shares, so the decode happens once per
    chunk, never once per query (or per shard).

    With ``prefetch == 0`` chunks are decoded inline.  With
    ``prefetch >= 1`` a background thread decodes up to ``prefetch`` chunks
    ahead of the consumer through a bounded queue, so the decode of chunk
    ``k+1`` overlaps the per-query weight products and matvec of chunk
    ``k`` (``np.unravel_index``/``np.arange`` release the GIL on
    large-enough chunks).  The yielded triples — and therefore any
    accumulation order built on them — are identical in both settings;
    only the wall-clock overlap changes.  Abandoning the iterator early
    (``break``, exception) cancels and joins the decode thread; decode
    failures re-raise in the consumer.
    """
    if chunk_size <= 0:
        raise ValueError(f"chunk_size must be positive, got {chunk_size}")
    bounds = [
        (lo, min(lo + chunk_size, stop)) for lo in range(start, stop, chunk_size)
    ]

    # Telemetry is sampled once at iterator creation: the decode thread and
    # the consumer then write to *distinct* instruments (decode timings on
    # the producer, queue depth on the consumer), so recording never needs a
    # lock on the scan hot path.
    recording = _telemetry_enabled()
    if recording:
        _decode_count = _telemetry_registry().counter("chunks.decoded")
        _decode_seconds = _telemetry_registry().distribution("chunks.decode_seconds")

    def decode(lo: int, hi: int) -> tuple[int, int, tuple[np.ndarray, ...]]:
        if not recording:
            return (lo, hi, np.unravel_index(np.arange(lo, hi, dtype=np.int64), shape))
        began = time.perf_counter_ns()
        multi = np.unravel_index(np.arange(lo, hi, dtype=np.int64), shape)
        _decode_seconds.observe((time.perf_counter_ns() - began) / 1e9)
        _decode_count.add()
        return (lo, hi, multi)

    if prefetch <= 0 or len(bounds) <= 1:
        for lo, hi in bounds:
            yield decode(lo, hi)
        return

    slots: queue.Queue = queue.Queue(maxsize=int(prefetch))
    cancelled = threading.Event()

    def put(item) -> bool:
        """Enqueue, backing off while full so cancellation stays responsive."""
        while not cancelled.is_set():
            try:
                slots.put(item, timeout=0.05)
                return True
            except queue.Full:
                continue
        return False

    def produce() -> None:
        try:
            for lo, hi in bounds:
                if not put(decode(lo, hi)):
                    return
            put(_DECODE_DONE)
        except BaseException as error:  # noqa: BLE001  (re-raised in the consumer)
            put(error)

    thread = threading.Thread(target=produce, name="repro-chunk-decode", daemon=True)
    thread.start()
    if recording:
        _queue_depth = _telemetry_registry().distribution("prefetch.queue_depth")
    try:
        while True:
            if recording:
                # How far ahead the decode thread is running each time the
                # consumer comes back for a chunk: 0 = decode-bound,
                # `prefetch` = compute-bound.
                _queue_depth.observe(float(slots.qsize()))
            item = slots.get()
            if item is _DECODE_DONE:
                break
            if isinstance(item, BaseException):
                raise item
            yield item
    finally:
        cancelled.set()
        while True:  # drain so a blocked put wakes promptly
            try:
                slots.get_nowait()
            except queue.Empty:
                break
        thread.join()


def streaming_scratch_bytes(context: "EvaluatorContext") -> int:
    """Per-scan scratch bytes of one chunked streaming pass.

    One chunk of decoded multi-indices (``ndim`` int64 arrays) plus the
    value and histogram-slice buffers; shared by the streaming backend and
    the sharded backend's chunked strategy so their cost-model entries and
    ``estimated_memory`` reports cannot drift apart.
    """
    chunk = min(context.config.chunk_size, context.domain_size)
    return 8 * chunk * (len(context.shape) + 2)


@dataclass(frozen=True)
class EvaluatorConfig:
    """Budgets and knobs shared by every backend of one evaluator.

    ``engine`` selects the kernel engine of engine-aware backends (the
    vectorised backend's ``"jax"``/``"numpy"``; ``None`` = auto-detect).
    Backends without interchangeable kernels ignore it.

    ``telemetry`` scopes this evaluator's instrumentation: ``None`` (the
    default) follows the process-global switch
    (:func:`repro.telemetry.configure`), ``False`` forces this evaluator's
    recording off even while the global switch is on (useful to keep a
    baseline evaluator out of a measurement), and ``True`` documents an
    opt-in — recording still requires the global switch, since metrics land
    in the global registry.
    """

    cell_budget: int = _MATRIX_CELL_BUDGET
    sparse_cell_budget: int = _SPARSE_CELL_BUDGET
    chunk_size: int = _DEFAULT_CHUNK_SIZE
    workers: int = 1
    engine: str | None = None
    telemetry: bool | None = None


class EvaluatorContext:
    """Workload-derived state shared by all backends of one evaluator.

    Owns the exact support-size measurement (an einsum over the non-zero
    indicators of the per-relation weights — the joint domain is never
    materialised), the per-query chunk plans used by streaming scans, and
    support construction, which scans only each query's non-zero box in
    bounded slabs.  Backends hold a reference to one context and never
    duplicate this machinery.
    """

    def __init__(self, workload: Workload, config: EvaluatorConfig):
        if config.chunk_size <= 0:
            raise ValueError(f"chunk_size must be positive, got {config.chunk_size}")
        if config.workers < 1:
            raise ValueError(f"workers must be at least 1, got {config.workers}")
        self.workload = workload
        self.config = config
        self.join_query = workload.join_query
        self.shape = self.join_query.shape
        self.domain_size = self.join_query.joint_domain_size
        self._support_sizes: dict[int, int] = {}
        self._chunk_plans: dict[int, tuple[tuple[tuple[int, ...], np.ndarray], ...]] = {}
        self._supports_fit: bool | None = None

    @property
    def num_queries(self) -> int:
        return len(self.workload)

    def telemetry_enabled(self) -> bool:
        """Whether this evaluator's instrumentation should record.

        True only when the process-global telemetry switch is on *and* the
        config does not force it off (``telemetry=False``).
        """
        if self.config.telemetry is False:
            return False
        return _telemetry_enabled()

    def validated_flat(self, histogram: np.ndarray) -> np.ndarray:
        """``histogram`` as a flat float64 vector, or raise on a size mismatch.

        The single validation gate in front of every histogram evaluation:
        the :class:`~repro.queries.evaluation.WorkloadEvaluator` facade and
        the backends that write into owned storage (the sharded backend's
        shared-memory segment) both route through it, so a wrong-length or
        scalar input fails loudly instead of broadcasting.
        """
        flat = np.asarray(histogram, dtype=float).reshape(-1)
        if flat.size != self.domain_size:
            raise ValueError(
                f"histogram has {flat.size} cells, expected {self.domain_size}"
            )
        return flat

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
        """``Σ_q nnz(q)``: the number of entries the sparse CSR form stores."""
        return sum(self.support_size(index) for index in range(self.num_queries))

    def supports_fit_budget(self) -> bool:
        """Whether the total support fits the sparse cell budget.

        Measured lazily with an early stop: once the accumulated support
        exceeds the budget no further queries are counted, so rejecting the
        sparse form on a huge workload stays cheap.
        """
        if self._supports_fit is None:
            budget = self.config.sparse_cell_budget
            total = 0
            fits = True
            for index in range(self.num_queries):
                total += self.support_size(index)
                if total > budget:
                    fits = False
                    break
            self._supports_fit = fits
        return self._supports_fit

    # ------------------------------------------------------------------ #
    # chunked evaluation plans
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

    def values_on_chunk(
        self,
        index: int,
        start: int,
        stop: int,
        multi: tuple[np.ndarray, ...] | None = None,
    ) -> np.ndarray:
        """Query values on the flat joint-domain index range ``[start, stop)``.

        ``multi`` lets callers that scan many queries over the same chunk
        share one flat-to-multi index decode.
        """
        if multi is None:
            multi = np.unravel_index(np.arange(start, stop, dtype=np.int64), self.shape)
        values = np.ones(stop - start, dtype=np.float64)
        for axes, weights in self.chunk_plan(index):
            values = values * weights[tuple(multi[axis] for axis in axes)]
        return values

    def query_values(self, index: int) -> np.ndarray:
        """Flattened joint-domain value vector of one query (dense)."""
        return self.workload[index].joint_values().reshape(-1)

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
        split = next(axis for axis, cells in enumerate(inner) if cells <= self.config.chunk_size)
        step = self.config.chunk_size // inner[split]
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


# ---------------------------------------------------------------------- #
# histogram seeds and sessions (the PMW update protocol)
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class HistogramSeed:
    """A declarative seed for a histogram session.

    The PMW loop never needs the start histogram as one materialised
    ndarray — it needs a *rule* for what every cell starts at.  A seed
    captures that rule in one of three forms:

    ``uniform(total)``
        Every cell starts at ``total / |D|`` — the PMW start histogram.
        Ships a single scalar, so a partitioned backend seeds each slice
        locally and the parent process never allocates ``|D|`` cells.
    ``from_slices(initializer)``
        ``initializer(start, stop, domain_size)`` produces the cells of
        any flat range on demand; partitioned backends call it once per
        owned slice, serial backends once for the whole domain.
    ``from_array(array)``
        A concrete histogram (copied into session storage).  The
        compatibility form — this is what ``histogram_session(initial)``
        wraps — and the only one whose peak memory is ``O(|D|)`` in the
        parent.

    Exactly one of the three underlying fields is set; :meth:`cells`
    realises any flat slice and :meth:`materialize` the whole domain.
    """

    total: float | None = None
    initializer: "Callable[[int, int, int], np.ndarray] | None" = None
    array: np.ndarray | None = None

    def __post_init__(self):
        populated = sum(
            field is not None for field in (self.total, self.initializer, self.array)
        )
        if populated != 1:
            raise ValueError(
                "a HistogramSeed is exactly one of uniform total, per-slice "
                f"initializer, or concrete array ({populated} given)"
            )

    @classmethod
    def uniform(cls, total: float) -> "HistogramSeed":
        """Seed every cell with ``total / domain_size``."""
        total = float(total)
        if not np.isfinite(total) or total < 0.0:
            raise ValueError(f"uniform seed total must be finite and >= 0, got {total}")
        return cls(total=total)

    @classmethod
    def from_slices(cls, initializer: "Callable[[int, int, int], np.ndarray]") -> "HistogramSeed":
        """Seed from ``initializer(start, stop, domain_size) -> cells``."""
        return cls(initializer=initializer)

    @classmethod
    def from_array(cls, array: np.ndarray) -> "HistogramSeed":
        """Seed from a concrete histogram (flattened, copied on use)."""
        return cls(array=np.asarray(array, dtype=np.float64).reshape(-1))

    @property
    def is_uniform(self) -> bool:
        return self.total is not None

    def cell_value(self, domain_size: int) -> float:
        """The per-cell value of a uniform seed."""
        if self.total is None:
            raise ValueError("cell_value() is only defined for uniform seeds")
        return self.total / domain_size

    def cells(self, start: int, stop: int, domain_size: int) -> np.ndarray:
        """The seed values of the flat range ``[start, stop)``."""
        if self.total is not None:
            return np.full(stop - start, self.total / domain_size, dtype=np.float64)
        if self.array is not None:
            if self.array.size != domain_size:
                raise ValueError(
                    f"seed array has {self.array.size} cells, expected {domain_size}"
                )
            return self.array[start:stop]
        cells = np.asarray(self.initializer(start, stop, domain_size), dtype=np.float64)
        if cells.shape != (stop - start,):
            raise ValueError(
                f"seed initializer returned shape {cells.shape} for "
                f"[{start}, {stop}); expected ({stop - start},)"
            )
        return cells

    def materialize(self, domain_size: int) -> np.ndarray:
        """The whole seed histogram as one flat vector (serial backends only)."""
        return self.cells(0, domain_size, domain_size)


def _scipy_sparse():
    """:mod:`scipy.sparse`, or ``None`` — through the vector backend's import probe.

    One probe for the whole package, so a test that hides scipy from the
    vector backend hides it from the column views too.
    """
    from repro.queries.vectorized import _import_scipy_sparse

    return _import_scipy_sparse()


def _scipy_index_bytes(*extents: int) -> int:
    """Bytes per index scipy stores for a sparse matrix with these extents."""
    return 4 if max(extents) <= np.iinfo(np.int32).max else 8


class ColumnView:
    """The workload matrix by columns: which queries read each joint-domain cell.

    Wraps the workload CSR transposed once (scipy ``tocsc()``), so the
    answer change of a support update, ``M[:, S]·Δh_S``, costs the stored
    entries in the columns ``S`` instead of a whole-workload matvec.
    Sessions of the sparse-family backends hand it each
    ``scale_support`` delta.
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

    @staticmethod
    def resident_bytes(entries: int, num_queries: int, domain_size: int) -> int:
        """Bytes a view over ``entries`` stored entries holds: values, row indices, column pointers."""
        index = _scipy_index_bytes(entries, num_queries, domain_size)
        return (8 + index) * entries + index * (domain_size + 1)

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


class HistogramSession:
    """The mutable-histogram operation protocol driven by the PMW loop.

    The PMW inner loop owns one session for its whole run: instead of
    handing the backend a fresh histogram every round, it applies in-place
    deltas through these ops and re-asks for answers.  Callers never see
    the backing storage — serial backends keep a private array
    (:class:`ArrayHistogramSession`), the sharded backend a view on its
    shared-memory block, and the domain-partitioned backend one block per
    contiguous domain slice — so the loop is identical against all of them
    and nothing outside the queries package may assume "one flat ndarray"
    (a static-guard test enforces the boundary).

    The ops:

    ``answers()``
        The workload answer vector against the current contents: always a
        full evaluation.
    ``scale_support(indices, factors)``
        Multiply the cells at ``indices`` by ``factors`` — the PMW support
        delta.  ``indices`` must be sorted ascending (query supports are
        built that way); partitioned sessions split the delta per slice by
        binary search and raise on unsorted input.  Returns the change in
        every answer, ``M[:, indices]·(new − old)``, when the backend holds
        a :class:`ColumnView` (``sparse``, ``vector`` on the NumPy engine
        with scipy, ``sharded`` with CSR shards) and the touched columns
        hold at most half the stored entries; otherwise ``None``, and the
        caller must call ``answers()`` for the new answers.  ``dense``,
        ``streaming``, ``prefetch``, ``domain``, the JAX session and a
        process without scipy always return ``None``.
    ``scale(factor)`` / ``fill(value)``
        Uniform rescale / reset of every cell — for a partitioned session
        these are purely local slice ops.
    ``total()``
        The scalar mass — for a partitioned session one local sum per
        slice plus a scalar all-reduce.
    ``accumulate()`` / ``averaged_slices(divisor)``
        Running-sum support for the PMW averaged iterates: ``accumulate``
        adds the current contents to a session-held accumulator and
        ``averaged_slices`` yields ``(start, stop, cells)`` of the
        accumulator divided by ``divisor``, slice by slice, so the caller
        can assemble (or stream) the averaged histogram without ever
        reading the live backing array.
    ``close()``
        Release per-session resources.
    """

    def answers(self) -> np.ndarray:
        """Answers of every query against the current histogram contents."""
        raise NotImplementedError

    def scale_support(self, indices: np.ndarray, factors: np.ndarray) -> np.ndarray | None:
        """Multiply the cells at sorted ``indices`` by ``factors`` (a support delta).

        Returns the change in every answer, or ``None`` when the session
        did not compute it.
        """
        raise NotImplementedError

    def scale(self, factor: float) -> None:
        """Multiply every cell by ``factor`` (renormalisation)."""
        raise NotImplementedError

    def fill(self, value: float) -> None:
        """Reset every cell to ``value``."""
        raise NotImplementedError

    def total(self) -> float:
        """The total mass of the current histogram contents."""
        raise NotImplementedError

    def accumulate(self) -> None:
        """Add the current contents to the session's running accumulator."""
        raise NotImplementedError

    def averaged_slices(self, divisor: float) -> Iterator[tuple[int, int, np.ndarray]]:
        """Yield ``(start, stop, cells)`` of the accumulator divided by ``divisor``.

        Slices are disjoint, ascending, and cover the whole domain; with no
        prior :meth:`accumulate` the cells are zero.
        """
        raise NotImplementedError

    def close(self) -> None:
        """Release per-session resources (no-op for serial backends)."""


class ArrayHistogramSession(HistogramSession):
    """The dense implementation: one flat float64 array in this process.

    A session owns its array outright: the seed histogram is *copied* on
    every backend (serial sessions into a private array, sharded into the
    shared-memory block), so session mutations never touch the caller's
    input.  The accumulator is allocated lazily on the first
    :meth:`accumulate`, so ops-only consumers (renormalisation tests,
    one-shot evaluations) never pay for it.
    """

    def __init__(self, backend: "EvaluationBackend", array: np.ndarray):
        self._backend = backend
        self._array = array
        self._accumulator: np.ndarray | None = None

    def answers(self) -> np.ndarray:
        return self._backend.answers_on_histogram(self._array)

    def scale_support(self, indices: np.ndarray, factors: np.ndarray) -> np.ndarray | None:
        columns = self._backend.column_view()
        if columns is None or not columns.narrow(indices):
            self._array[indices] *= factors
            return None
        old = self._array[indices]
        new = old * factors
        self._array[indices] = new
        return columns.answer_change(indices, new - old)

    def scale(self, factor: float) -> None:
        self._array *= factor

    def fill(self, value: float) -> None:
        self._array.fill(value)

    def total(self) -> float:
        return float(self._array.sum())

    def accumulate(self) -> None:
        if self._accumulator is None:
            # zeros_like of a shared-memory view is a plain private array,
            # so the accumulator never aliases backend storage.
            self._accumulator = np.zeros_like(self._array)
        self._accumulator += self._array

    def averaged_slices(self, divisor: float) -> Iterator[tuple[int, int, np.ndarray]]:
        if self._accumulator is None:
            yield 0, self._array.size, np.zeros(self._array.size, dtype=np.float64)
        else:
            yield 0, self._accumulator.size, self._accumulator / float(divisor)


# ---------------------------------------------------------------------- #
# the backend protocol and registry
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class BackendCost:
    """One backend's entry in the automatic-choice cost model.

    ``reason`` explains an ineligible entry (budget exceeded, availability
    probe failed, ...) so cost reports say *why* a backend was ruled out;
    it is empty for eligible entries.
    """

    backend: str
    eligible: bool
    speed_rank: int
    memory_bytes: int
    reason: str = ""


class EvaluationBackend:
    """Base class of every evaluation backend.

    Subclasses set ``name`` and ``speed_rank``, implement
    ``answers_on_histogram`` / ``_build_support`` / ``estimated_memory``,
    and the two cost-model classmethods ``is_eligible`` (cheap, used by the
    auto-chooser in rank order) and ``estimate_cost`` (full report).  The
    base class provides budget-capped support caching: backends whose
    primary representation *is* the support set (``caches_all_supports``)
    keep every support; the others only cache within the sparse cell budget
    so e.g. streaming keeps its bounded-memory guarantee.
    """

    name: ClassVar[str]
    speed_rank: ClassVar[int]
    caches_all_supports: ClassVar[bool] = False

    def __init__(self, context: EvaluatorContext):
        self._context = context
        # The backend's own effective count: normalised at construction so a
        # directly built backend and the facade paths (WorkloadEvaluator,
        # shared_evaluator) cannot disagree, without mutating the caller's
        # context (whose config keeps answering cost queries as configured).
        self._workers = self.normalize_workers(context.config.workers)
        self._supports: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._cached_support_entries = 0

    @property
    def workers(self) -> int:
        """The effective worker count this backend runs with."""
        return self._workers

    # -- cost model -------------------------------------------------------
    @classmethod
    def is_available(cls) -> bool:
        """Whether this backend's runtime requirements are met at all.

        An *availability* probe checks optional dependencies and hardware
        (an importable accelerator library, a second core, ...) — properties
        of the process, not of one workload; :meth:`is_eligible` then judges
        the workload against the budgets.  The automatic choice skips
        backends whose probe returns ``False`` — or raises: a broken
        optional dependency must degrade the auto choice, never abort it —
        and :func:`backend_costs` records the failure as the entry's
        ``reason``.
        """
        return True

    @classmethod
    def normalize_workers(cls, workers: int) -> int:
        """The effective worker count for a requested one.

        Backends with a parallelism floor (the sharded backend implies at
        least two workers) override this; every construction path — direct
        backend construction, ``WorkloadEvaluator``, ``shared_evaluator`` —
        normalises through it, so the invariant lives in exactly one place.
        Invalid counts are rejected, not clamped: a floor is a documented
        convenience, silently absorbing a caller's typo is not.
        """
        workers = int(workers)
        if workers < 1:
            raise ValueError(f"workers must be at least 1, got {workers}")
        return workers

    @classmethod
    def is_eligible(cls, context: EvaluatorContext) -> bool:
        raise NotImplementedError

    @classmethod
    def estimate_cost(cls, context: EvaluatorContext) -> BackendCost:
        raise NotImplementedError

    # -- evaluation -------------------------------------------------------
    def answers_on_histogram(self, flat: np.ndarray) -> np.ndarray:
        """Answers against a flat float64 histogram (validated by the facade)."""
        raise NotImplementedError

    def column_view(self) -> ColumnView | None:
        """The cell→query :class:`ColumnView` array sessions answer support deltas with.

        ``None`` (the default) makes every ``scale_support`` return
        ``None``, so the PMW loop re-evaluates the workload each round.
        """
        return None

    def session(self, initial: np.ndarray) -> HistogramSession:
        """Open a mutable histogram session seeded with a copy of ``initial``."""
        return ArrayHistogramSession(self, np.array(initial, dtype=np.float64))

    def seeded_session(self, seed: HistogramSeed) -> HistogramSession:
        """Open a histogram session from a declarative :class:`HistogramSeed`.

        The base implementation realises the seed as one flat vector and
        copies it into session storage — correct for every backend whose
        session holds the full histogram anyway.  Partitioned backends
        override this to seed each owned slice locally, so a uniform or
        per-slice seed never allocates ``|D|`` cells in the parent.
        """
        if seed.array is not None:
            return self.session(self._context.validated_flat(seed.array))
        return self.session(seed.materialize(self._context.domain_size))

    # -- supports ---------------------------------------------------------
    def support_size(self, index: int) -> int:
        return self._context.support_size(index)

    def _build_support(self, index: int) -> tuple[np.ndarray, np.ndarray]:
        return self._context.build_support(index)

    def query_support(self, index: int) -> tuple[np.ndarray, np.ndarray]:
        """CSR-style ``(flat indices, values)`` support of one query, cached."""
        cached = self._supports.get(index)
        if cached is not None:
            return cached
        support = self._build_support(index)
        size = int(support[0].size)
        if (
            self.caches_all_supports
            or self._cached_support_entries + size <= self._context.config.sparse_cell_budget
        ):
            self._supports[index] = support
            self._cached_support_entries += size
        self._context.note_support_size(index, size)
        return support

    # -- lifecycle --------------------------------------------------------
    def estimated_memory(self) -> int:
        """Resident bytes this backend holds once built."""
        raise NotImplementedError

    def close(self) -> None:
        """Release backend resources (worker pools, shared memory, ...)."""


_REGISTRY: dict[str, type[EvaluationBackend]] = {}


def register_backend(cls: type[EvaluationBackend]) -> type[EvaluationBackend]:
    """Class decorator adding a backend to the registry (keyed by ``cls.name``).

    Re-registering the *same* class is an idempotent no-op (module reloads);
    registering a *different* class under an existing mode name is rejected —
    silently shadowing an earlier backend would reroute every consumer of
    that name without a trace.  Replace a backend explicitly by calling
    :func:`unregister_backend` first.
    """
    name = getattr(cls, "name", None)
    if not name or not isinstance(name, str):
        raise ValueError("a backend class must define a non-empty string `name`")
    if name == "auto":
        raise ValueError('"auto" is reserved for the automatic choice')
    existing = _REGISTRY.get(name)
    if existing is not None and existing is not cls:
        raise ValueError(
            f"evaluator backend name {name!r} is already registered to "
            f"{existing.__qualname__}; unregister_backend({name!r}) first to "
            "replace it"
        )
    _REGISTRY[name] = cls
    return cls


def unregister_backend(name: str) -> None:
    """Remove a backend from the registry (primarily for tests)."""
    _REGISTRY.pop(name, None)


def registered_backends() -> tuple[str, ...]:
    """Names of every registered backend, in registration order."""
    return tuple(_REGISTRY)


def backend_class(name: str) -> type[EvaluationBackend]:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown evaluator backend {name!r}; expected one of "
            f"{('auto',) + registered_backends()}"
        ) from None


def _ranked_backends() -> Iterator[type[EvaluationBackend]]:
    order = {name: position for position, name in enumerate(_REGISTRY)}
    yield from sorted(_REGISTRY.values(), key=lambda cls: (cls.speed_rank, order[cls.name]))


def _availability(cls: type[EvaluationBackend]) -> tuple[bool, str]:
    """``(available, reason-if-not)`` of one backend's availability probe.

    A probe that *raises* counts as unavailable with the error recorded —
    a backend whose optional dependency is broken must drop out of the
    automatic choice, not abort it.
    """
    try:
        if cls.is_available():
            return True, ""
        return False, "availability probe returned False"
    except Exception as error:  # noqa: BLE001  (reported in the cost entry)
        return False, f"availability probe raised {type(error).__name__}: {error}"


def _skip_reason(cls: type[EvaluationBackend], context: EvaluatorContext) -> str:
    """Why an available-but-ineligible backend was passed over.

    Surfaces :attr:`BackendCost.reason` from the backend's own cost entry;
    only called while telemetry records, so the full cost measurement never
    runs on an uninstrumented choice.
    """
    try:
        reason = cls.estimate_cost(context).reason
    except Exception as error:  # noqa: BLE001  (diagnostics must not abort the choice)
        return f"estimate_cost raised {type(error).__name__}: {error}"
    return reason or "ineligible for this workload"


def choose_backend(context: EvaluatorContext) -> str:
    """The cost model's pick: the fastest available and eligible backend.

    Backends are probed in ``speed_rank`` order, so expensive eligibility
    measurements (the sparse support count) only run when every faster
    backend has already been ruled out.  Unavailable backends — probe
    returns ``False`` or raises — are skipped without aborting the choice.

    Telemetry: while recording, the decision becomes an
    ``evaluator.choose_backend`` span whose attributes name the chosen
    backend and the reason each faster backend was skipped
    (:attr:`BackendCost.reason`), and counts on
    ``evaluator.backend_choice{backend=<name>}``.
    """
    recording = context.telemetry_enabled()
    span_ctx = (
        _trace(
            "evaluator.choose_backend",
            queries=context.num_queries,
            domain=context.domain_size,
        )
        if recording
        else _NULL_SPAN
    )
    with span_ctx as span:
        skipped: list[str] = []
        for cls in _ranked_backends():
            available, unavailable_reason = _availability(cls)
            if not available:
                if recording:
                    skipped.append(f"{cls.name}: {unavailable_reason}")
                continue
            if cls.is_eligible(context):
                if recording:
                    span.set(chosen=cls.name, skipped=skipped)
                    _telemetry_registry().counter(
                        "evaluator.backend_choice", backend=cls.name
                    ).add()
                return cls.name
            if recording:
                skipped.append(f"{cls.name}: {_skip_reason(cls, context)}")
    raise RuntimeError(
        "no registered evaluation backend is eligible; registered backends: "
        f"{registered_backends()}"
    )


def backend_costs(context: EvaluatorContext) -> tuple[BackendCost, ...]:
    """The full cost-model report over every registered backend.

    Unlike :func:`choose_backend` this measures every entry (including the
    exact total support size), so it is meant for planning and reporting,
    not for the evaluation hot path.  Backends whose availability probe
    fails appear as ineligible entries whose ``reason`` records the probe
    outcome, keeping the report consistent with what the automatic choice
    actually skipped.
    """
    costs = []
    for cls in _ranked_backends():
        available, reason = _availability(cls)
        if not available:
            costs.append(
                BackendCost(
                    backend=cls.name,
                    eligible=False,
                    speed_rank=cls.speed_rank,
                    memory_bytes=0,
                    reason=reason,
                )
            )
            continue
        costs.append(cls.estimate_cost(context))
    return tuple(costs)


# ---------------------------------------------------------------------- #
# built-in serial backends
# ---------------------------------------------------------------------- #
@register_backend
class DenseBackend(EvaluationBackend):
    """The full ``|Q| × |D|`` float64 query matrix; answers are one matmul."""

    name = "dense"
    speed_rank = 0

    def __init__(self, context: EvaluatorContext):
        super().__init__(context)
        matrix = np.empty((context.num_queries, context.domain_size), dtype=np.float64)
        for row in range(context.num_queries):
            matrix[row] = context.query_values(row)
        self.matrix = matrix

    @classmethod
    def is_eligible(cls, context: EvaluatorContext) -> bool:
        return context.num_queries * context.domain_size <= context.config.cell_budget

    @classmethod
    def estimate_cost(cls, context: EvaluatorContext) -> BackendCost:
        cells = context.num_queries * context.domain_size
        eligible = cells <= context.config.cell_budget
        return BackendCost(
            backend=cls.name,
            eligible=eligible,
            speed_rank=cls.speed_rank,
            memory_bytes=8 * cells,
            reason=""
            if eligible
            else f"|Q|*|D| = {cells} cells exceeds cell budget {context.config.cell_budget}",
        )

    def answers_on_histogram(self, flat: np.ndarray) -> np.ndarray:
        return self.matrix @ flat

    def _build_support(self, index: int) -> tuple[np.ndarray, np.ndarray]:
        row = self.matrix[index]
        indices = np.flatnonzero(row)
        return (indices.astype(np.int64), row[indices])

    def query_values(self, index: int) -> np.ndarray:
        return self.matrix[index]

    def estimated_memory(self) -> int:
        return 8 * self.matrix.size


@register_backend
class SparseBackend(EvaluationBackend):
    """One CSR-style support per query; answers are a batched sparse matvec.

    The first evaluation also builds the :class:`ColumnView`, so set-up
    pays for it and PMW rounds re-answer only the columns their update
    touched.
    """

    name = "sparse"
    speed_rank = 20
    caches_all_supports = True

    def __init__(self, context: EvaluatorContext):
        super().__init__(context)
        self._csr: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        self._row_ids: np.ndarray | None = None
        self._columns: ColumnView | None = None

    @classmethod
    def is_eligible(cls, context: EvaluatorContext) -> bool:
        return context.supports_fit_budget()

    @classmethod
    def _resident_bytes(cls, context: EvaluatorContext) -> int:
        """The CSR with its row ids (24 B per entry) and, with scipy, the column view."""
        total = context.total_support_size()
        columns = (
            ColumnView.resident_bytes(total, context.num_queries, context.domain_size)
            if _scipy_sparse() is not None
            else 0
        )
        return 24 * total + 8 * (context.num_queries + 1) + columns

    @classmethod
    def estimate_cost(cls, context: EvaluatorContext) -> BackendCost:
        total = context.total_support_size()
        eligible = total <= context.config.sparse_cell_budget
        return BackendCost(
            backend=cls.name,
            eligible=eligible,
            speed_rank=cls.speed_rank,
            memory_bytes=cls._resident_bytes(context),
            reason=""
            if eligible
            else f"total support {total} exceeds sparse cell budget "
            f"{context.config.sparse_cell_budget}",
        )

    def _ensure_csr(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Concatenated ``(indptr, indices, values)`` of all query supports."""
        if self._csr is None:
            supports = [
                self.query_support(index) for index in range(self._context.num_queries)
            ]
            counts = np.array([indices.size for indices, _ in supports], dtype=np.int64)
            indices = (
                np.concatenate([s[0] for s in supports])
                if supports
                else np.empty(0, dtype=np.int64)
            )
            values = (
                np.concatenate([s[1] for s in supports])
                if supports
                else np.empty(0, dtype=np.float64)
            )
            # Re-point the per-query cache at zero-copy slices of the
            # concatenated arrays so both representations share storage.
            indptr = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
            for index in range(len(supports)):
                lo, hi = int(indptr[index]), int(indptr[index + 1])
                self._supports[index] = (indices[lo:hi], values[lo:hi])
            self._csr = (indptr, indices, values)
        return self._csr

    def _ensure_row_ids(self) -> np.ndarray:
        """The query of every CSR entry, for the ``np.bincount`` matvecs."""
        if self._row_ids is None:
            indptr = self._ensure_csr()[0]
            self._row_ids = np.repeat(
                np.arange(indptr.size - 1, dtype=np.int64), np.diff(indptr)
            )
        return self._row_ids

    def column_view(self) -> ColumnView | None:
        if self._columns is None:
            self._columns = ColumnView.from_csr(
                *self._ensure_csr(), self._context.domain_size
            )
        return self._columns

    def answers_on_histogram(self, flat: np.ndarray) -> np.ndarray:
        if self._row_ids is None:
            self.column_view()  # compiled with the row ids, so set-up pays for it
        _indptr, indices, values = self._ensure_csr()
        return np.bincount(
            self._ensure_row_ids(),
            weights=values * flat[indices],
            minlength=self._context.num_queries,
        )

    def estimated_memory(self) -> int:
        return self._resident_bytes(self._context)


@register_backend
class StreamingBackend(EvaluationBackend):
    """No per-query state: chunked joint-domain scans recompute values on the fly."""

    name = "streaming"
    speed_rank = 100

    @classmethod
    def is_eligible(cls, context: EvaluatorContext) -> bool:
        return True

    @classmethod
    def estimate_cost(cls, context: EvaluatorContext) -> BackendCost:
        return BackendCost(
            backend=cls.name,
            eligible=True,
            speed_rank=cls.speed_rank,
            memory_bytes=streaming_scratch_bytes(context),
        )

    def _prefetch_depth(self) -> int:
        """How many chunks the decode may run ahead of the matvec (0 = inline)."""
        return 0

    def answers_on_histogram(self, flat: np.ndarray) -> np.ndarray:
        context = self._context
        answers = np.zeros(context.num_queries, dtype=np.float64)
        # Chunk order and the per-chunk/per-query accumulation order are
        # fixed by the iterator regardless of the prefetch depth, so the
        # serial and pipelined scans produce bitwise-identical answers.
        for start, stop, multi in iter_decoded_chunks(
            context.shape,
            0,
            context.domain_size,
            context.config.chunk_size,
            prefetch=self._prefetch_depth(),
        ):
            chunk = flat[start:stop]
            for index in range(context.num_queries):
                answers[index] += float(
                    context.values_on_chunk(index, start, stop, multi=multi) @ chunk
                )
        return answers

    def estimated_memory(self) -> int:
        return streaming_scratch_bytes(self._context)


@register_backend
class PrefetchingStreamingBackend(StreamingBackend):
    """Pipelined streaming: chunk decode double-buffered on a background thread.

    Identical chunked re-scan to :class:`StreamingBackend` — same bounded
    memory, same accumulation order, bitwise-identical answers — but the
    flat-to-multi decode of chunk ``k+1`` runs on a decode thread while the
    main thread computes the per-query weight products and matvec of chunk
    ``k``.  One decoded multi-index buffer is shared by every query in a
    chunk, so decode work is per chunk, not per query.  The ``workers``
    knob sets the look-ahead depth (how many decoded chunks may be in
    flight); the default of 1 is classic double buffering.

    Eligible for the automatic choice whenever the host has a second core
    to decode on; ranked just ahead of the serial streaming scan, so
    ``mode="auto"`` picks it exactly where streaming would otherwise win.
    """

    name = "prefetch"
    speed_rank = 90

    @classmethod
    def is_eligible(cls, context: EvaluatorContext) -> bool:
        return effective_cpu_count() >= 2

    @classmethod
    def estimate_cost(cls, context: EvaluatorContext) -> BackendCost:
        eligible = cls.is_eligible(context)
        return BackendCost(
            backend=cls.name,
            eligible=eligible,
            speed_rank=cls.speed_rank,
            memory_bytes=cls._scratch_bytes(context),
            reason="" if eligible else "needs >= 2 cores to overlap decode with compute",
        )

    @classmethod
    def _scratch_bytes(cls, context: EvaluatorContext) -> int:
        # Peak in-flight decoded chunks: `depth` queued, one in the decode
        # thread's hand (decoded before a blocked put), one being consumed.
        depth = max(1, context.config.workers)
        return streaming_scratch_bytes(context) * (depth + 2)

    def _prefetch_depth(self) -> int:
        return self._workers

    def estimated_memory(self) -> int:
        return self._scratch_bytes(self._context)
