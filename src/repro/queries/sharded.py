"""Process-pool evaluation backends: row-sharded CSR and domain partitioning.

:class:`ShardedBackend` parallelises workload evaluation across a
persistent ``multiprocessing`` worker pool.  The histogram lives in one
:mod:`multiprocessing.shared_memory` block that every worker maps, so an
evaluation round ships only a task id per shard — never the histogram
itself — and the PMW inner loop's in-place support deltas (see
:class:`~repro.queries.backends.HistogramSession`) are visible to the
workers the moment they are written.

Two sharding strategies mirror the serial backends:

``csr``
    When the total support fits the sparse cell budget, the concatenated
    CSR arrays are split into contiguous *row* shards balanced by entry
    count.  A query's entries are never split across shards, so each
    per-query partial sum runs over exactly the entries the serial sparse
    backend would accumulate, in the same order — per-query answers are
    bitwise identical to the serial sparse path (the other shards
    contribute exact zeros), which is what keeps PMW query selections
    reproducible across ``workers`` settings.
``chunked``
    Beyond the sparse budget, the joint domain is split into contiguous
    chunk-aligned ranges and each worker runs the streaming re-scan over
    its range (answers agree with serial streaming to float addition
    reassociation, i.e. well within 1e-9 relative).

:class:`DomainShardedBackend` (``mode="domain"``) partitions the *domain*
instead of the query rows: each shard owns one contiguous slice of the
flat joint domain, backed by its own shared-memory segment of
``8·(slice length)`` bytes — the full ``8·|D|`` histogram never exists as
one allocation anywhere.  Query supports are split at the slice bounds
with their flat indices re-indexed slice-locally; per-query answers are
the sum of per-slice partial sums (combined in fixed slice order), and a
renormalisation is a local scale per slice plus one scalar all-reduce for
the total.  The session ops of the PR 2 delta protocol map one-to-one
onto slice-local writes, so the PMW loop needs no changes — and with a
uniform :class:`~repro.queries.backends.HistogramSeed` the parent process
never allocates ``|D|`` cells either.  Cross-slice partial sums
reassociate float additions, so answers match serial sparse to 1e-9
relative (not bitwise); PMW *selections* remain bitwise reproducible
under a fixed seed, which E18 asserts.

Worker start-up prefers the ``fork`` context: the CSR shards (or chunk
plans) are inherited copy-on-write through a module-level state table and
are never pickled.  On platforms without ``fork`` the state is shipped
once per worker through the pool initializer.  Pool and shared memory
(one segment, or one per domain slice) are torn down by ``close()`` or,
failing that, a ``weakref.finalize`` when the backend is
garbage-collected.

**Telemetry.**  While the parent records
(:func:`repro.telemetry.configure`), each pool worker is handed a flush
queue through the pool initializer and records into its *own* per-process
registry (task counts, per-shard evaluation seconds, mapped shared-memory
bytes, chunk-decode timings from the scan iterator).  A
``multiprocessing.util.Finalize`` hook — pool workers exit through
``os._exit`` and skip ``atexit`` — flushes each worker's snapshot onto the
queue at worker shutdown; :func:`_shutdown` drains the queue after the pool
joins and merges every snapshot into the parent registry under a
``worker=<pid>`` label, so per-worker stats survive the pool.
"""

from __future__ import annotations

import itertools
import multiprocessing
import weakref
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import shared_memory

import numpy as np

from repro.queries.backends import (
    ArrayHistogramSession,
    BackendCost,
    EvaluatorContext,
    HistogramSeed,
    HistogramSession,
    SparseBackend,
    iter_decoded_chunks,
    register_backend,
    streaming_scratch_bytes,
)
from repro.telemetry import (
    is_enabled as _telemetry_enabled,
    registry as _telemetry_registry,
)
from repro.telemetry.workers import (
    create_flush_queue,
    drain_flush_queue,
    init_worker_telemetry,
)

#: Per-process table of worker states, keyed by backend instance key.  In
#: the parent it holds the authoritative state; ``fork`` workers inherit it
#: copy-on-write, ``spawn`` workers rebuild their entry in the initializer.
_WORKER_STATES: dict[int, dict] = {}

_BACKEND_KEYS = itertools.count(1)


def _init_worker(
    key: int,
    segments: tuple[tuple[str, int], ...],
    payload: dict | None,
    telemetry_init: tuple[bool, object] | None = None,
) -> None:
    """Pool initializer: attach the shared histogram segments (spawn only).

    Under ``fork`` the state table is inherited and ``payload`` is ``None``;
    under ``spawn`` the pickled shard data arrives here and every segment —
    the single shared histogram, or one per domain slice — is re-attached
    by its shared-memory ``(name, length)``.

    ``telemetry_init`` is ``(enabled, flush queue)`` from the parent.  The
    worker's telemetry is initialised *before* the fork early-return: a
    ``fork`` worker inherits the parent's populated registry copy-on-write,
    so it must be reset to a fresh one (or disabled outright) either way —
    otherwise the parent's own counts would be merged back in twice.
    """
    enabled, flush_queue = telemetry_init if telemetry_init is not None else (False, None)
    init_worker_telemetry(
        enabled,
        flush_queue,
        shm_bytes=sum(8 * length for _name, length in segments),
    )
    if payload is None:
        return
    views = []
    mappings = []
    for shm_name, length in segments:
        shm = shared_memory.SharedMemory(name=shm_name)
        try:  # the parent owns the segment; workers must not track (or unlink) it
            from multiprocessing import resource_tracker

            resource_tracker.unregister(shm._name, "shared_memory")  # noqa: SLF001
        except (ImportError, AttributeError, OSError):
            # No tracker on this platform, or its pipe is already gone —
            # either way the parent still owns (and will unlink) the segment.
            pass
        views.append(np.ndarray((length,), dtype=np.float64, buffer=shm.buf))
        mappings.append(shm)  # keep the mapping alive for the worker's lifetime
    state = dict(payload)
    state["histograms"] = views
    state["_shms"] = mappings
    _WORKER_STATES[key] = state


def _scan_range(
    state: dict, histogram: np.ndarray, start: int, end: int, offset: int
) -> np.ndarray:
    """Streaming partial sums of ``[start, end)`` against ``histogram``.

    ``histogram`` holds the cells of that range starting at flat index
    ``offset`` (0 for the single shared histogram, the slice start for a
    domain segment).  The same prefetch iterator as the streaming
    backends: the worker decodes its next chunk on a background thread
    while the weight products and matvec of the current one run, and the
    decoded multi-index buffer is shared by every query in the chunk.
    Chunk and accumulation order are unchanged, so answers stay
    deterministic.
    """
    answers = np.zeros(state["num_queries"], dtype=np.float64)
    for chunk_start, chunk_stop, multi in iter_decoded_chunks(
        state["shape"], start, end, state["chunk_size"], prefetch=1
    ):
        chunk = histogram[chunk_start - offset : chunk_stop - offset]
        for index, plan in enumerate(state["plans"]):
            values = np.ones(chunk_stop - chunk_start, dtype=np.float64)
            for axes, weights in plan:
                values = values * weights[tuple(multi[axis] for axis in axes)]
            answers[index] += float(values @ chunk)
    return answers


def _eval_shard(key: int, shard_id: int) -> np.ndarray:
    """Partial answer vector of one shard against the shared histogram(s).

    Telemetry: while the worker records (see :func:`_init_worker`), every
    task counts on ``worker.tasks`` and times into ``worker.eval_seconds``
    — per-process instruments that reach the parent under a
    ``worker=<pid>`` label when the pool shuts down.
    """
    if _telemetry_enabled():
        registry = _telemetry_registry()
        registry.counter("worker.tasks").add()
        with registry.timer("worker.eval_seconds"):
            return _eval_shard_impl(key, shard_id)
    return _eval_shard_impl(key, shard_id)


def _eval_shard_impl(key: int, shard_id: int) -> np.ndarray:
    state = _WORKER_STATES[key]
    num_queries = state["num_queries"]
    strategy = state["strategy"]
    if strategy == "domain":
        # The shard owns one contiguous domain slice in its own segment;
        # support indices were re-indexed slice-locally at start-up.
        histogram = state["histograms"][shard_id]
        if state["representation"] == "csr":
            rows, indices, values = state["slice_csr"][shard_id]
            return np.bincount(
                rows, weights=values * histogram[indices], minlength=num_queries
            )
        start, end = state["slices"][shard_id]
        return _scan_range(state, histogram, start, end, offset=start)
    histogram = state["histograms"][0]
    if strategy == "csr":
        kernels = state.get("shard_kernels")
        if kernels is not None:
            # Engine-configured path: the shard's rows as one fused CSR
            # matvec (scipy).  Row-sequential accumulation in element order
            # matches the bincount below bitwise, so answers — and PMW
            # selections — are unchanged.
            row_lo, row_hi = state["row_spans"][shard_id]
            partial = np.zeros(num_queries, dtype=np.float64)
            partial[row_lo:row_hi] = kernels[shard_id] @ histogram
            return partial
        lo, hi = state["shards"][shard_id]
        rows = state["row_ids"][lo:hi]
        indices = state["indices"][lo:hi]
        values = state["values"][lo:hi]
        return np.bincount(
            rows, weights=values * histogram[indices], minlength=num_queries
        )
    start, end = state["ranges"][shard_id]
    return _scan_range(state, histogram, start, end, offset=0)


def _shutdown(
    executor: ProcessPoolExecutor,
    shms: list[shared_memory.SharedMemory],
    key: int,
    telemetry_queue=None,
) -> None:
    """Tear down one backend's pool, state entry, and shared-memory segments.

    With a ``telemetry_queue``, the workers' flushed snapshots are drained
    *after* the pool joins (every worker's exit hook has run by then) and
    merged into the parent registry under per-pid ``worker`` labels.
    """
    try:
        executor.shutdown(wait=True, cancel_futures=True)
    except (OSError, RuntimeError):
        # BrokenProcessPool (a RuntimeError) or dead pipes: the workers are
        # already gone, which is all shutdown was for.
        pass
    if telemetry_queue is not None:
        drain_flush_queue(telemetry_queue, label="worker")
        try:
            telemetry_queue.close()
        except OSError:
            pass
    _WORKER_STATES.pop(key, None)
    for shm in shms:
        try:
            shm.close()
        except (BufferError, OSError):
            # A still-exported view blocks the mmap close; unlink below
            # still removes the segment from /dev/shm.
            pass
        try:
            # Unlink independently of close(): a still-exported buffer view
            # must not leave the segment behind in /dev/shm.
            shm.unlink()
        except OSError:
            pass


class ShardedHistogramSession(ArrayHistogramSession):
    """A histogram session living directly in the shared-memory block.

    The backing array is a view on the segment every worker maps, so the
    in-place deltas the PMW loop applies (support rescale +
    renormalisation) reach the workers without any communication;
    :meth:`answers` only dispatches shard ids.
    """

    def __init__(self, backend: "ShardedBackend"):
        super().__init__(backend, backend._histogram_view())

    def answers(self) -> np.ndarray:
        return self._backend._dispatch()

    def close(self) -> None:
        self._backend._session_open = False


@register_backend
class ShardedBackend(SparseBackend):
    """Row-sharded parallel evaluation over a persistent process pool."""

    name = "sharded"
    #: Between dense (one vectorised matmul) and serial sparse: with ≥ 2
    #: workers the CSR matvec parallelises across shards.
    speed_rank = 10

    def __init__(self, context: EvaluatorContext):
        super().__init__(context)
        self._executor: ProcessPoolExecutor | None = None
        self._shm: shared_memory.SharedMemory | None = None
        self._view: np.ndarray | None = None
        self._key: int | None = None
        self._num_shards = 0
        self._finalizer: weakref.finalize | None = None
        self._session_open = False

    # -- cost model -------------------------------------------------------
    @classmethod
    def normalize_workers(cls, workers: int) -> int:
        """Sharded implies parallelism: the worker count floors at two."""
        return max(2, super().normalize_workers(workers))

    @classmethod
    def is_eligible(cls, context: EvaluatorContext) -> bool:
        # Only the explicit ``workers`` knob opts into spawning processes;
        # both sharding strategies cover the whole size range.
        return context.config.workers >= 2

    @classmethod
    def _resident_bytes(cls, context: EvaluatorContext) -> int:
        """One formula for both the cost model and ``estimated_memory``.

        Uses the worker count a built backend would actually run with
        (:meth:`normalize_workers`, since sharded implies parallelism).
        """
        workers = cls.normalize_workers(context.config.workers)
        if context.supports_fit_budget():
            # The serial sparse arrays: supports, row ids, column view.
            resident = super()._resident_bytes(context)
        else:
            # Each chunked-strategy worker pipelines its scan (prefetch=1 in
            # ``_eval_shard``): one chunk being consumed, one queued, one in
            # the decode thread's hand.
            resident = streaming_scratch_bytes(context) * workers * 3
        return resident + 8 * context.domain_size

    @classmethod
    def estimate_cost(cls, context: EvaluatorContext) -> BackendCost:
        return BackendCost(
            backend=cls.name,
            eligible=context.config.workers >= 2,
            speed_rank=cls.speed_rank,
            memory_bytes=cls._resident_bytes(context),
        )

    # -- pool management --------------------------------------------------
    @property
    def strategy(self) -> str:
        """``"csr"`` while the supports fit the sparse budget, else ``"chunked"``."""
        return "csr" if self._context.supports_fit_budget() else "chunked"

    def query_support(self, index: int) -> tuple[np.ndarray, np.ndarray]:
        if self._context.supports_fit_budget():
            return super().query_support(index)
        # Chunked/scan strategies: behave like streaming — cache within the
        # budget only, preserving the bounded-memory guarantee.
        saved, self.caches_all_supports = self.caches_all_supports, False
        try:
            return super().query_support(index)
        finally:
            self.caches_all_supports = saved

    def column_view(self):
        # Only row-sharded CSR has a CSR to transpose: chunked scans hold
        # none, and the domain strategy's session never asks.
        return super().column_view() if self.strategy == "csr" else None

    def _csr_shards(self) -> tuple[dict, int]:
        """The worker state for the ``csr`` strategy: balanced row shards."""
        offsets, indices, values = self._ensure_csr()
        row_ids = self._ensure_row_ids()
        self.column_view()  # built with the shards, so set-up pays for it
        total = int(offsets[-1])
        # Shard boundaries on row borders, targeting equal entry counts; a
        # query's entries are never split, preserving its serial sum order.
        targets = (total * np.arange(1, self._workers)) // self._workers
        row_bounds = np.unique(
            np.concatenate(
                ([0], np.searchsorted(offsets, targets, side="left"), [offsets.size - 1])
            )
        )
        shards = [
            (int(offsets[row_bounds[i]]), int(offsets[row_bounds[i + 1]]))
            for i in range(len(row_bounds) - 1)
        ]
        state = {
            "strategy": "csr",
            "num_queries": self._context.num_queries,
            "row_ids": row_ids,
            "indices": indices,
            "values": values,
            "shards": shards,
        }
        if self._context.config.engine is not None:
            # An explicit engine opts the workers into the vector backend's
            # fused CSR matvec for their local row slice (scipy only — JAX
            # state never crosses a fork; absent scipy the bincount path
            # stands).  Partials stay bitwise identical either way.
            from repro.queries.vectorized import shard_matvec_kernels

            kernels = shard_matvec_kernels(
                row_bounds, offsets, indices, values, self._context.domain_size
            )
            if kernels is not None:
                state["row_spans"], state["shard_kernels"] = kernels
        return state, len(shards)

    def _chunk_shards(self) -> tuple[dict, int]:
        """The worker state for the ``chunked`` strategy: chunk-aligned ranges."""
        context = self._context
        chunk_size = context.config.chunk_size
        num_chunks = -(-context.domain_size // chunk_size)
        bounds = sorted(
            {
                min(round(num_chunks * i / self._workers) * chunk_size, context.domain_size)
                for i in range(self._workers + 1)
            }
        )
        ranges = [(bounds[i], bounds[i + 1]) for i in range(len(bounds) - 1)]
        plans = [context.chunk_plan(index) for index in range(context.num_queries)]
        state = {
            "strategy": "chunked",
            "num_queries": context.num_queries,
            "shape": context.shape,
            "chunk_size": chunk_size,
            "plans": plans,
            "ranges": ranges,
        }
        return state, len(ranges)

    def _start(self) -> None:
        if self._executor is not None:
            return
        context = self._context
        state, num_shards = (
            self._csr_shards() if self.strategy == "csr" else self._chunk_shards()
        )
        shm = shared_memory.SharedMemory(create=True, size=max(8 * context.domain_size, 8))
        key = next(_BACKEND_KEYS)
        try:
            view = np.ndarray((context.domain_size,), dtype=np.float64, buffer=shm.buf)
            state["histograms"] = [view]
            # Under fork the workers inherit this entry (and the shm mapping)
            # copy-on-write; nothing is pickled.  Under spawn the initializer
            # rebuilds it from the pickled payload.
            _WORKER_STATES[key] = state
            # Fork only where it is the platform's default start method (Linux):
            # on macOS fork is *available* but unsafe with threads/Accelerate,
            # which is exactly why spawn is the default there.
            use_fork = multiprocessing.get_start_method() == "fork"
            payload = (
                None
                if use_fork
                else {name: value for name, value in state.items() if name != "histograms"}
            )
            mp_context = multiprocessing.get_context("fork" if use_fork else "spawn")
            telemetry_queue = None
            telemetry_init = None
            if context.telemetry_enabled():
                # The flush queue travels through initargs — the sanctioned
                # inheritance channel under both fork and spawn.
                telemetry_queue = create_flush_queue(mp_context)
                telemetry_init = (True, telemetry_queue)
            executor = ProcessPoolExecutor(
                max_workers=self._workers,
                mp_context=mp_context,
                initializer=_init_worker,
                initargs=(
                    key,
                    ((shm.name, context.domain_size),),
                    payload,
                    telemetry_init,
                ),
            )
        except BaseException:
            # A failure between segment creation and pool start must not
            # leave the segment behind in /dev/shm (or a stale state entry).
            _WORKER_STATES.pop(key, None)
            state.pop("histograms", None)
            view = None  # drop the buffer export before closing the mapping
            try:
                shm.close()
            except (BufferError, OSError):
                pass
            try:
                shm.unlink()
            except OSError:
                pass
            raise
        self._executor = executor
        self._shm = shm
        self._view = view
        self._key = key
        self._num_shards = num_shards
        self._finalizer = weakref.finalize(
            self, _shutdown, executor, [shm], key, telemetry_queue
        )

    def _histogram_view(self) -> np.ndarray:
        self._start()
        assert self._view is not None
        return self._view

    def _dispatch(self) -> np.ndarray:
        """One parallel evaluation of the current shared-histogram contents."""
        assert self._executor is not None and self._key is not None
        if self._context.telemetry_enabled():
            _telemetry_registry().counter(
                "sharded.dispatches", backend=self.name
            ).add()
        futures = [
            self._executor.submit(_eval_shard, self._key, shard_id)
            for shard_id in range(self._num_shards)
        ]
        # Partial sums are combined in fixed shard order, keeping the result
        # independent of worker scheduling.
        answers = np.zeros(self._context.num_queries, dtype=np.float64)
        for future in futures:
            answers += future.result()
        return answers

    # -- evaluation -------------------------------------------------------
    def answers_on_histogram(self, flat: np.ndarray) -> np.ndarray:
        if self._session_open:
            raise RuntimeError(
                "a histogram session is open on this sharded backend and owns "
                "the shared-memory histogram; evaluate through the session or "
                "close it first"
            )
        # Validate before starting the pool or touching the shared segment:
        # ``view[:] =`` would otherwise broadcast scalars (silently) or fail
        # with an obscure shape error on wrong-length inputs.
        flat = self._context.validated_flat(flat)
        view = self._histogram_view()
        if flat is not view:
            # An overlapping view of the segment (validated_flat returns the
            # input's reshape) is still copied: numpy buffers overlapping
            # assignments, and e.g. a reversed view must actually land.
            view[:] = flat
        return self._dispatch()

    def session(self, initial: np.ndarray) -> HistogramSession:
        if self._session_open:
            raise RuntimeError(
                "this sharded backend already has an open histogram session "
                "(there is a single shared-memory histogram); close it before "
                "opening another"
            )
        initial = self._context.validated_flat(initial)
        view = self._histogram_view()
        view[:] = initial
        self._session_open = True
        return ShardedHistogramSession(self)

    def seeded_session(self, seed: HistogramSeed) -> HistogramSession:
        if seed.array is not None:
            return self.session(seed.array)
        if self._session_open:
            raise RuntimeError(
                "this sharded backend already has an open histogram session "
                "(there is a single shared-memory histogram); close it before "
                "opening another"
            )
        # Uniform and per-slice seeds are written straight into the shared
        # segment — no |D|-sized temporary in between.
        view = self._histogram_view()
        if seed.is_uniform:
            view.fill(seed.cell_value(self._context.domain_size))
        else:
            view[:] = seed.cells(0, view.size, self._context.domain_size)
        self._session_open = True
        return ShardedHistogramSession(self)

    def estimated_memory(self) -> int:
        return self._resident_bytes(self._context)

    def close(self) -> None:
        """Shut down the worker pool and unlink the shared-memory histogram."""
        if self._finalizer is not None:
            self._finalizer()
            self._finalizer = None
        self._executor = None
        self._shm = None
        self._view = None
        self._session_open = False


def _plan_domain_slices(
    domain_size: int, shards: int, chunk_size: int | None = None
) -> list[tuple[int, int]]:
    """Balanced contiguous ``[lo, hi)`` slices of the flat domain.

    With ``chunk_size`` the bounds are chunk-aligned so a slice scan sees
    exactly the chunks a full-domain scan would, just partitioned.  Tiny
    domains may yield fewer slices than requested (bounds deduplicate).
    """
    if chunk_size:
        num_chunks = -(-domain_size // chunk_size)
        bounds = sorted(
            {
                min(round(num_chunks * i / shards) * chunk_size, domain_size)
                for i in range(shards + 1)
            }
        )
    else:
        bounds = sorted({round(domain_size * i / shards) for i in range(shards + 1)})
    return [(bounds[i], bounds[i + 1]) for i in range(len(bounds) - 1)]


class DomainHistogramSession(HistogramSession):
    """A histogram session over per-slice shared-memory segments.

    Every op of the delta protocol is a slice-local write against the
    segments the workers map — the histogram never exists as one buffer:

    - ``scale_support`` splits the (sorted) support indices at the slice
      bounds by binary search and rescales each slice locally; it returns
      ``None`` (no column view), so the PMW loop re-evaluates every round;
    - ``scale`` / ``fill`` apply to each slice independently;
    - ``total`` sums one local scalar per slice (the one all-reduce a
      renormalisation needs);
    - ``answers`` dispatches shard ids to the pool, which combines the
      per-slice partial answer vectors in fixed slice order;
    - ``accumulate`` / ``averaged_slices`` keep one private accumulator
      per slice, so the averaged PMW iterates are assembled (or streamed)
      slice by slice.
    """

    def __init__(self, backend: "DomainShardedBackend"):
        self._backend = backend
        self._accumulators: list[np.ndarray] | None = None

    def _parts(self) -> list[tuple[int, int, np.ndarray]]:
        return self._backend._slice_views()

    def answers(self) -> np.ndarray:
        return self._backend._dispatch()

    def scale_support(self, indices: np.ndarray, factors: np.ndarray) -> None:
        if indices.size and np.any(np.diff(indices) < 0):
            raise ValueError(
                "scale_support on a domain-partitioned session requires "
                "ascending indices (query supports are built sorted)"
            )
        for lo, hi, view in self._parts():
            first = int(np.searchsorted(indices, lo, side="left"))
            last = int(np.searchsorted(indices, hi, side="left"))
            if first < last:
                view[indices[first:last] - lo] *= factors[first:last]

    def scale(self, factor: float) -> None:
        for _lo, _hi, view in self._parts():
            view *= factor

    def fill(self, value: float) -> None:
        for _lo, _hi, view in self._parts():
            view.fill(value)

    def total(self) -> float:
        return float(sum(float(view.sum()) for _lo, _hi, view in self._parts()))

    def accumulate(self) -> None:
        parts = self._parts()
        if self._accumulators is None:
            self._accumulators = [np.zeros_like(view) for _lo, _hi, view in parts]
        for accumulator, (_lo, _hi, view) in zip(self._accumulators, parts):
            accumulator += view

    def averaged_slices(self, divisor: float):
        parts = self._parts()
        if self._accumulators is None:
            for lo, hi, _view in parts:
                yield lo, hi, np.zeros(hi - lo, dtype=np.float64)
        else:
            for accumulator, (lo, hi, _view) in zip(self._accumulators, parts):
                yield lo, hi, accumulator / float(divisor)

    def close(self) -> None:
        self._backend._session_open = False


@register_backend
class DomainShardedBackend(ShardedBackend):
    """Domain-partitioned parallel evaluation: each shard owns a domain slice.

    Where :class:`ShardedBackend` shards the CSR *rows* over one shared
    ``8·|D|`` histogram, this backend shards the *domain*: every pool
    worker owns a contiguous slice of the flat joint domain backed by its
    own shared-memory segment of ``8·(slice length)`` bytes, so no single
    allocation anywhere holds the full histogram — the representation that
    scales past histograms one address space cannot hold.

    Two slice representations mirror the sharded strategies: while the
    total support fits the sparse budget the concatenated CSR entries are
    split at the slice bounds with flat indices re-indexed slice-locally
    (``representation == "csr"``); beyond it each shard runs the chunked
    streaming re-scan over its (chunk-aligned) slice
    (``representation == "chunked"``).

    Cross-slice answer sums reassociate float additions, so answers match
    the serial sparse backend to 1e-9 relative rather than bitwise; PMW
    query selections remain bitwise reproducible under a fixed seed (the
    E18 benchmark asserts both).  Opt-in only (``mode="domain"``): the
    automatic cost model keeps preferring the bitwise-parity sharded
    backend, so this strategy is chosen exactly where the histogram's own
    footprint is the constraint.
    """

    name = "domain"
    #: Just behind row-sharded CSR: the same parallel matvec, plus the
    #: per-op slice bookkeeping of the partitioned session.
    speed_rank = 12

    def __init__(self, context: EvaluatorContext):
        super().__init__(context)
        self._shms: list[shared_memory.SharedMemory] | None = None
        self._views: list[np.ndarray] | None = None
        self._slices: list[tuple[int, int]] = []

    # -- cost model -------------------------------------------------------
    @classmethod
    def is_eligible(cls, context: EvaluatorContext) -> bool:
        # Opt-in only: explicit ``mode="domain"``.  Auto keeps preferring
        # the sharded backend's bitwise parity while one |D| histogram is
        # affordable; the partitioned layout is for when it is not.
        return False

    @classmethod
    def _resident_bytes(cls, context: EvaluatorContext) -> int:
        workers = cls.normalize_workers(context.config.workers)
        if context.supports_fit_budget():
            # The global CSR plus the slice-local re-indexed copy.
            resident = 32 * context.total_support_size()
        else:
            resident = streaming_scratch_bytes(context) * workers * 3
        # The per-slice segments jointly hold exactly one histogram.
        return resident + 8 * context.domain_size

    @classmethod
    def estimate_cost(cls, context: EvaluatorContext) -> BackendCost:
        return BackendCost(
            backend=cls.name,
            eligible=cls.is_eligible(context),
            speed_rank=cls.speed_rank,
            memory_bytes=cls._resident_bytes(context),
        )

    # -- pool management --------------------------------------------------
    @property
    def strategy(self) -> str:
        """Always ``"domain"``: shards own domain slices, not query rows."""
        return "domain"

    @property
    def representation(self) -> str:
        """``"csr"`` while the supports fit the sparse budget, else ``"chunked"``."""
        return "csr" if self._context.supports_fit_budget() else "chunked"

    def _domain_state(self) -> tuple[dict, list[tuple[int, int]]]:
        """The worker state: per-slice re-indexed CSR entries or scan plans."""
        context = self._context
        state: dict = {
            "strategy": "domain",
            "num_queries": context.num_queries,
            "representation": self.representation,
        }
        if self.representation == "csr":
            slices = _plan_domain_slices(context.domain_size, self._workers)
            _indptr, indices, values = self._ensure_csr()
            row_ids = self._ensure_row_ids()
            slice_csr = []
            for lo, hi in slices:
                mask = (indices >= lo) & (indices < hi)
                slice_csr.append(
                    (row_ids[mask], indices[mask] - np.int64(lo), values[mask])
                )
            state["slice_csr"] = slice_csr
        else:
            slices = _plan_domain_slices(
                context.domain_size, self._workers, context.config.chunk_size
            )
            state["shape"] = context.shape
            state["chunk_size"] = context.config.chunk_size
            state["plans"] = [
                context.chunk_plan(index) for index in range(context.num_queries)
            ]
        state["slices"] = slices
        return state, slices

    def _start(self) -> None:
        if self._executor is not None:
            return
        state, slices = self._domain_state()
        key = next(_BACKEND_KEYS)
        shms: list[shared_memory.SharedMemory] = []
        try:
            views = []
            for lo, hi in slices:
                shm = shared_memory.SharedMemory(create=True, size=max(8 * (hi - lo), 8))
                shms.append(shm)
                views.append(np.ndarray((hi - lo,), dtype=np.float64, buffer=shm.buf))
            state["histograms"] = views
            _WORKER_STATES[key] = state
            use_fork = multiprocessing.get_start_method() == "fork"
            payload = (
                None
                if use_fork
                else {name: value for name, value in state.items() if name != "histograms"}
            )
            mp_context = multiprocessing.get_context("fork" if use_fork else "spawn")
            telemetry_queue = None
            telemetry_init = None
            if self._context.telemetry_enabled():
                telemetry_queue = create_flush_queue(mp_context)
                telemetry_init = (True, telemetry_queue)
            executor = ProcessPoolExecutor(
                max_workers=self._workers,
                mp_context=mp_context,
                initializer=_init_worker,
                initargs=(
                    key,
                    tuple(
                        (shm.name, hi - lo) for shm, (lo, hi) in zip(shms, slices)
                    ),
                    payload,
                    telemetry_init,
                ),
            )
        except BaseException:
            # A failure after any segment was created — mid-way through the
            # per-slice creation loop included — must not leave segments
            # behind in /dev/shm (or a stale state entry).
            _WORKER_STATES.pop(key, None)
            state.pop("histograms", None)
            views = None  # drop the buffer exports before closing the mappings
            for shm in shms:
                try:
                    shm.close()
                except (BufferError, OSError):
                    pass
                try:
                    shm.unlink()
                except OSError:
                    pass
            raise
        self._executor = executor
        self._shms = shms
        self._views = views
        self._slices = slices
        self._key = key
        self._num_shards = len(slices)
        self._finalizer = weakref.finalize(
            self, _shutdown, executor, shms, key, telemetry_queue
        )

    def _slice_views(self) -> list[tuple[int, int, np.ndarray]]:
        """The ``(lo, hi, segment view)`` of every owned domain slice."""
        self._start()
        assert self._views is not None
        return [
            (lo, hi, view) for (lo, hi), view in zip(self._slices, self._views)
        ]

    def slice_plan(self) -> tuple[tuple[int, int], ...]:
        """The contiguous ``[lo, hi)`` domain slices (starts the pool)."""
        self._start()
        return tuple(self._slices)

    def slice_segment_bytes(self) -> tuple[int, ...]:
        """Allocated bytes of each per-slice segment (starts the pool)."""
        self._start()
        assert self._shms is not None
        return tuple(shm.size for shm in self._shms)

    # -- evaluation -------------------------------------------------------
    def answers_on_histogram(self, flat: np.ndarray) -> np.ndarray:
        if self._session_open:
            raise RuntimeError(
                "a histogram session is open on this domain backend and owns "
                "the shared-memory slices; evaluate through the session or "
                "close it first"
            )
        flat = self._context.validated_flat(flat)
        for lo, hi, view in self._slice_views():
            view[:] = flat[lo:hi]
        return self._dispatch()

    def session(self, initial: np.ndarray) -> HistogramSession:
        return self.seeded_session(HistogramSeed.from_array(initial))

    def seeded_session(self, seed: HistogramSeed) -> HistogramSession:
        if self._session_open:
            raise RuntimeError(
                "this domain backend already has an open histogram session "
                "(there is one set of shared-memory slices); close it before "
                "opening another"
            )
        if seed.array is not None:
            seed = HistogramSeed.from_array(self._context.validated_flat(seed.array))
        domain_size = self._context.domain_size
        if seed.is_uniform:
            value = seed.cell_value(domain_size)
            for _lo, _hi, view in self._slice_views():
                view.fill(value)
        else:
            # Array and per-slice seeds are realised one slice at a time —
            # the parent never builds the seed as one |D| buffer.
            for lo, hi, view in self._slice_views():
                view[:] = seed.cells(lo, hi, domain_size)
        self._session_open = True
        return DomainHistogramSession(self)

    def close(self) -> None:
        """Shut down the worker pool and unlink every per-slice segment."""
        if self._finalizer is not None:
            self._finalizer()
            self._finalizer = None
        self._executor = None
        self._shms = None
        self._views = None
        self._slices = []
        self._session_open = False
