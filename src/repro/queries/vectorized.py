"""The vectorised batch-kernel evaluation backend (``mode="vector"``).

Every earlier backend answers a workload by looping over queries (or
chunks) in interpreted Python.  :class:`VectorizedBackend` instead
*compiles the whole workload once* into packed batch tensors — the
concatenated CSR supports plus a bucketed rectangular ``(rows, max_nnz)``
padding of the per-query index/weight lists — and evaluates all queries
against the flat histogram in one fused kernel call.  Two interchangeable
kernel engines share that packed layout:

``"jax"``
    A ``jax.jit``-compiled batched gather/einsum per bucket, with the
    packed tensors resident on the accelerator as jit closure constants
    and the histogram living device-side across PMW rounds
    (:class:`JaxHistogramSession` implements the whole
    :class:`~repro.queries.backends.HistogramSession` op protocol on
    device arrays, so the delta protocol never round-trips ``|D|`` cells
    through host memory).  Requires the optional JAX dependency
    (``pip install .[jax]``).
``"numpy"``
    A pure-CPU fallback with no optional hard dependency: when
    :mod:`scipy` is importable the packed CSR becomes one
    ``scipy.sparse.csr_matrix`` whose matvec is a single C loop — the
    same per-row, in-index-order accumulation as the serial sparse
    backend's ``np.bincount``, so answers are **bitwise identical** to
    ``mode="sparse"`` — and that matrix transposed once is the
    :class:`~repro.queries.backends.ColumnView` PMW sessions answer
    support deltas with; without scipy the padded buckets are evaluated
    by ``np.einsum`` (1e-9 parity, exact same packed layout).

Padding a ragged support list into one rectangle can explode: a counting
query touches all ``|D|`` cells while a marginal touches ``|D|/k``, so a
single ``(|Q|, max_nnz)`` rectangle would cost ``|Q|·|D|`` cells — the
dense matrix through the back door.  :func:`plan_buckets` therefore
groups queries by support size (stable sort, a new bucket whenever the
size grows past ``_BUCKET_GROWTH``× the bucket minimum, at most
``_BUCKET_CAP`` buckets so the jitted kernel count stays bounded) and
pads per bucket; the cost model's *rectangularity* probe admits the
backend only while the padded total stays within ``_WASTE_LIMIT``× the
exact support total (and within the sparse cell budget).

The packed tensors depend only on the workload, so they are cached on
the workload object (``workload.private_cache("vectorized")``) and
shared by every evaluator over it; compiled kernels are cached in the
same bucket keyed by engine, so the JAX and NumPy engines never collide.
:func:`shard_matvec_kernels` exports the fused CSR matvec to the sharded
backend's workers, which use it for their local row slice when an
``engine`` is configured (scipy only — JAX state never crosses a fork).
"""

from __future__ import annotations

import time

import numpy as np

from repro.queries.backends import (
    BackendCost,
    ColumnView,
    EvaluatorContext,
    HistogramSeed,
    HistogramSession,
    SparseBackend,
    _scipy_index_bytes,
    register_backend,
)
from repro.telemetry import (
    NULL_SPAN as _NULL_SPAN,
    is_enabled as _telemetry_enabled,
    registry as _telemetry_registry,
    trace as _trace,
)

#: The engine names ``EvaluatorConfig.engine`` accepts (besides ``None``).
ENGINES = ("jax", "numpy")

#: Below this many total support entries the vector backend is not worth
#: auto-choosing on CPU: packing/compilation overhead dominates tiny
#: workloads, which the plain sparse matvec already answers in microseconds.
#: (With an accelerator attached the threshold drops to zero — device
#: dispatch beats the host loop much earlier.)
_MIN_PACKED_ENTRIES = 32_768

#: Auto-eligibility requires the padded packing to stay within this factor
#: of the exact support total — the "rectangularity" probe: a workload too
#: ragged to pack densely is left to the CSR backends.
_WASTE_LIMIT = 2.0

#: A new padding bucket starts when the next (sorted) support size exceeds
#: this multiple of the current bucket's minimum, bounding per-row waste.
_BUCKET_GROWTH = 2.0

#: Hard cap on the number of padding buckets (= jitted kernels per engine).
_BUCKET_CAP = 16

#: Name of the per-workload cache bucket holding packed tensors + kernels.
_CACHE_NAME = "vectorized"

_UNSET = object()
_jax_module = _UNSET
_scipy_sparse_module = _UNSET


def _import_jax():
    """The :mod:`jax` module with x64 enabled, or ``None`` when unavailable.

    Import failures are cached; tests monkeypatch this function to simulate
    JAX absence.  x64 is enabled at first import so device arithmetic
    matches the float64 contract of every other backend.
    """
    global _jax_module
    if _jax_module is _UNSET:
        try:
            import jax

            jax.config.update("jax_enable_x64", True)
            _jax_module = jax
        except Exception:
            _jax_module = None
    return _jax_module


def _import_scipy_sparse():
    """The :mod:`scipy.sparse` module, or ``None`` when unavailable.

    Monkeypatchable for the same reason as :func:`_import_jax`: forcing
    ``None`` exercises the padded-einsum fallback of the NumPy engine.
    """
    global _scipy_sparse_module
    if _scipy_sparse_module is _UNSET:
        try:
            from scipy import sparse

            _scipy_sparse_module = sparse
        except Exception:
            _scipy_sparse_module = None
    return _scipy_sparse_module


def jax_available() -> bool:
    """Whether the JAX engine can run in this process."""
    return _import_jax() is not None


def accelerator_available() -> bool:
    """Whether JAX sees a non-CPU device (GPU/TPU)."""
    jax = _import_jax()
    if jax is None:
        return False
    try:
        return any(device.platform != "cpu" for device in jax.devices())
    except Exception:
        return False


def resolve_engine(requested: str | None) -> str:
    """The concrete engine for a requested one (``None`` = auto-detect).

    Auto-detection prefers JAX when importable (jitted kernels and, when an
    accelerator exists, device residency) and falls back to the NumPy
    engine otherwise, so ``engine=None`` always works.  An explicit
    ``"jax"`` raises when JAX is missing instead of silently degrading.
    """
    if requested is None:
        return "jax" if jax_available() else "numpy"
    if requested not in ENGINES:
        raise ValueError(
            f"unknown vector engine {requested!r}; expected one of {ENGINES} or None"
        )
    if requested == "jax" and not jax_available():
        raise ValueError(
            'engine="jax" requested but JAX is not importable; install the '
            'optional extra (pip install ".[jax]") or use engine="numpy"'
        )
    return requested


def _fused(engine: str | None) -> bool:
    """Whether ``engine`` runs the NumPy engine's scipy kernel (fused matvec, column view)."""
    numpy_engine = engine == "numpy" or (engine is None and not jax_available())
    return numpy_engine and _import_scipy_sparse() is not None


def plan_buckets(sizes) -> tuple[np.ndarray, tuple[tuple[int, int], ...], int]:
    """Group query indices into padding buckets by support size.

    Returns ``(order, spans, padded_entries)``: ``order`` is a stable
    argsort of ``sizes`` and each ``(lo, hi)`` span of ``spans`` names the
    positions ``order[lo:hi]`` of one bucket, every row of which is padded
    to the bucket maximum.  A new bucket opens when the next sorted size
    exceeds ``_BUCKET_GROWTH``× the bucket minimum (bounding per-row
    waste); adjacent buckets are then merged — cheapest padding increase
    first — until at most ``_BUCKET_CAP`` remain, bounding the number of
    compiled kernels.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    if sizes.ndim != 1 or sizes.size == 0:
        raise ValueError("plan_buckets needs a non-empty 1-d size array")
    if np.any(sizes < 0):
        raise ValueError("support sizes must be non-negative")
    order = np.argsort(sizes, kind="stable").astype(np.int64)
    sorted_sizes = sizes[order]
    bounds = [0]
    for position in range(1, sizes.size):
        if sorted_sizes[position] > _BUCKET_GROWTH * max(1, int(sorted_sizes[bounds[-1]])):
            bounds.append(position)
    bounds.append(sizes.size)

    def padded(lo: int, hi: int) -> int:
        # Sorted ascending, so the bucket max is its last element.
        return (hi - lo) * int(sorted_sizes[hi - 1])

    while len(bounds) - 1 > _BUCKET_CAP:
        best_cut = 1
        best_cost = None
        for cut in range(1, len(bounds) - 1):
            lo, mid, hi = bounds[cut - 1], bounds[cut], bounds[cut + 1]
            cost = padded(lo, hi) - padded(lo, mid) - padded(mid, hi)
            if best_cost is None or cost < best_cost:
                best_cut, best_cost = cut, cost
        bounds.pop(best_cut)
    spans = tuple((bounds[i], bounds[i + 1]) for i in range(len(bounds) - 1))
    return order, spans, sum(padded(lo, hi) for lo, hi in spans)


class PackedWorkload:
    """A whole workload compiled into packed batch tensors.

    Holds the concatenated CSR supports (``indptr``/``indices``/``values``
    — the exact layout, no padding) plus the bucket plan that turns them
    into padded rectangles on demand.  Engine-independent and derived only
    from the workload, so one instance is cached per workload and shared
    by every evaluator and both kernel engines.
    """

    def __init__(self, indptr: np.ndarray, indices: np.ndarray, values: np.ndarray):
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int64)
        self.values = np.asarray(values, dtype=np.float64)
        sizes = np.diff(self.indptr)
        self.num_queries = int(sizes.size)
        self.total_entries = int(self.indptr[-1])
        self.order, self.bucket_spans, self.padded_entries = plan_buckets(sizes)
        self.waste_ratio = self.padded_entries / max(1, self.total_entries)
        self._buckets: list[tuple[np.ndarray, np.ndarray, np.ndarray]] | None = None

    def query_slice(self, index: int) -> tuple[np.ndarray, np.ndarray]:
        """Zero-copy ``(indices, values)`` support of one query."""
        lo, hi = int(self.indptr[index]), int(self.indptr[index + 1])
        return self.indices[lo:hi], self.values[lo:hi]

    def buckets(self) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """The padded ``(rows, index matrix, weight matrix)`` per bucket.

        Built lazily: the fused CSR matvec path never materialises the
        padding, so only the einsum engines pay the ``padded_entries``
        bytes.  Pad positions carry index 0 and weight 0.0, contributing
        exact zeros to every row sum.
        """
        if self._buckets is None:
            sizes = np.diff(self.indptr)
            built = []
            for lo, hi in self.bucket_spans:
                rows = self.order[lo:hi]
                width = int(sizes[rows].max()) if hi > lo else 0
                index_matrix = np.zeros((hi - lo, width), dtype=np.int64)
                weight_matrix = np.zeros((hi - lo, width), dtype=np.float64)
                for position, row in enumerate(rows):
                    row_indices, row_values = self.query_slice(int(row))
                    index_matrix[position, : row_indices.size] = row_indices
                    weight_matrix[position, : row_values.size] = row_values
                built.append((rows, index_matrix, weight_matrix))
            self._buckets = built
        return self._buckets


class NumpyKernel:
    """The CPU engine: one fused batched evaluation per call.

    With scipy the packed CSR becomes a ``csr_matrix`` whose matvec runs
    the per-row accumulation in the same element order as the serial
    sparse backend's ``np.bincount`` — answers are bitwise identical to
    ``mode="sparse"`` (``fused`` is True).  Without scipy the padded
    buckets are evaluated by ``np.einsum`` over gathered histogram rows
    (1e-9 parity with sparse; same packed layout, more scratch).

    ``columns`` is the fused matrix transposed (a
    :class:`~repro.queries.backends.ColumnView`), built with it and cached
    with it; ``None`` without scipy.
    """

    engine = "numpy"

    def __init__(self, packed: PackedWorkload, domain_size: int):
        self._packed = packed
        self._domain_size = int(domain_size)
        sparse = _import_scipy_sparse()
        self._matrix = (
            sparse.csr_matrix(
                (packed.values, packed.indices, packed.indptr),
                shape=(packed.num_queries, self._domain_size),
            )
            if sparse is not None
            else None
        )
        self.columns = ColumnView(self._matrix.tocsc()) if self._matrix is not None else None

    @property
    def fused(self) -> bool:
        """Whether the single-C-loop CSR matvec (bitwise vs sparse) is active."""
        return self._matrix is not None

    def answers(self, flat: np.ndarray) -> np.ndarray:
        if self._matrix is not None:
            return np.asarray(self._matrix @ flat, dtype=np.float64)
        answers = np.zeros(self._packed.num_queries, dtype=np.float64)
        for rows, index_matrix, weight_matrix in self._packed.buckets():
            if index_matrix.shape[1]:
                answers[rows] = np.einsum(
                    "qn,qn->q", weight_matrix, flat[index_matrix]
                )
        return answers


class JaxKernel:
    """The accelerator engine: one jitted batched evaluation per call.

    The padded buckets are ``device_put`` once and closed over by a single
    ``jax.jit`` function (per-bucket gather + einsum, results scattered
    into query order), so repeated calls — every PMW round — ship only the
    histogram reference, and nothing at all when it already lives on the
    device (:class:`JaxHistogramSession`).
    """

    engine = "jax"
    #: The histogram lives on the device, so there is no host column view.
    columns = None

    def __init__(self, packed: PackedWorkload, domain_size: int):
        jax = _import_jax()
        if jax is None:
            raise RuntimeError("JaxKernel requires JAX; use resolve_engine() first")
        import jax.numpy as jnp

        self.jax = jax
        self.jnp = jnp
        self._num_queries = packed.num_queries
        self._domain_size = int(domain_size)
        device_buckets = [
            (jax.device_put(jnp.asarray(index_matrix)), jax.device_put(jnp.asarray(weight_matrix)))
            for _rows, index_matrix, weight_matrix in packed.buckets()
        ]
        # Bucket rows concatenate to exactly `order`, so one scatter
        # restores query order.
        permutation = jax.device_put(jnp.asarray(packed.order))
        num_queries = self._num_queries

        @jax.jit
        def batched_answers(flat):
            parts = [
                jnp.einsum("qn,qn->q", weights, flat[indices])
                if indices.shape[1]
                else jnp.zeros(indices.shape[0], dtype=flat.dtype)
                for indices, weights in device_buckets
            ]
            return jnp.zeros(num_queries, dtype=flat.dtype).at[permutation].set(
                jnp.concatenate(parts)
            )

        self._batched_answers = batched_answers
        self._first_call_done = False

    def _call(self, flat):
        """Invoke the jitted kernel, timing the compiling first call.

        JAX traces and compiles on the first invocation; while telemetry
        records, that one-off cost lands in the
        ``vector.jax_first_call_seconds`` distribution (blocked until ready
        so the measurement covers the compile, not just the dispatch).
        """
        if self._first_call_done or not _telemetry_enabled():
            self._first_call_done = True
            return self._batched_answers(flat)
        self._first_call_done = True
        began = time.perf_counter_ns()
        result = self._batched_answers(flat)
        try:
            result.block_until_ready()
        except AttributeError:
            pass
        _telemetry_registry().distribution("vector.jax_first_call_seconds").observe(
            (time.perf_counter_ns() - began) / 1e9
        )
        return result

    def answers_on_device(self, flat):
        """Answers as a device array, for callers holding a device histogram."""
        return self._call(flat)

    def answers(self, flat: np.ndarray) -> np.ndarray:
        return np.asarray(
            self._call(self.jnp.asarray(flat, dtype=self.jnp.float64)),
            dtype=np.float64,
        )


class JaxHistogramSession(HistogramSession):
    """A histogram session resident on the JAX device.

    Every op of the PMW delta protocol maps to a device-side functional
    update — support rescale via ``at[].multiply``, renormalisation as a
    scalar multiply, the running accumulator as a device add — so across
    PMW rounds only scalars and the (tiny) support delta cross the
    host/device boundary; the ``|D|``-cell histogram never does until
    :meth:`averaged_slices` assembles the released average.
    """

    def __init__(self, kernel: JaxKernel, histogram):
        self._kernel = kernel
        self._jnp = kernel.jnp
        self._histogram = histogram
        self._accumulator = None

    def answers(self) -> np.ndarray:
        return np.asarray(
            self._kernel.answers_on_device(self._histogram), dtype=np.float64
        )

    def scale_support(self, indices: np.ndarray, factors: np.ndarray) -> None:
        jnp = self._jnp
        self._histogram = self._histogram.at[
            jnp.asarray(np.asarray(indices, dtype=np.int64))
        ].multiply(jnp.asarray(np.asarray(factors, dtype=np.float64)))

    def scale(self, factor: float) -> None:
        self._histogram = self._histogram * float(factor)

    def fill(self, value: float) -> None:
        self._histogram = self._jnp.full(
            self._histogram.shape, float(value), dtype=self._histogram.dtype
        )

    def total(self) -> float:
        return float(self._histogram.sum())

    def accumulate(self) -> None:
        # Device arrays are immutable, so aliasing the first accumulation
        # is safe: later histogram updates rebind self._histogram.
        if self._accumulator is None:
            self._accumulator = self._histogram
        else:
            self._accumulator = self._accumulator + self._histogram

    def averaged_slices(self, divisor: float):
        size = int(self._histogram.shape[0])
        if self._accumulator is None:
            yield 0, size, np.zeros(size, dtype=np.float64)
        else:
            yield 0, size, np.asarray(self._accumulator, dtype=np.float64) / float(
                divisor
            )

    def close(self) -> None:
        # Drop the device buffers promptly instead of waiting for GC.
        self._histogram = None
        self._accumulator = None


def shard_matvec_kernels(
    row_bounds: np.ndarray,
    offsets: np.ndarray,
    indices: np.ndarray,
    values: np.ndarray,
    domain_size: int,
) -> tuple[list[tuple[int, int]], list] | None:
    """Fused CSR matvec kernels for the sharded backend's row shards.

    ``row_bounds`` are the shard boundaries in *query rows* and ``offsets``
    the per-query entry offsets of the concatenated CSR arrays.  Returns
    ``(row spans, matrices)`` — one ``scipy.sparse.csr_matrix`` per shard
    over exactly its rows, whose matvec accumulates each row in the same
    element order as the ``np.bincount`` path (bitwise-identical partials)
    — or ``None`` when scipy is unavailable.  Only the scipy kernel is
    exported to workers: JAX state must never cross a ``fork``.
    """
    sparse = _import_scipy_sparse()
    if sparse is None:
        return None
    spans: list[tuple[int, int]] = []
    matrices = []
    for shard in range(len(row_bounds) - 1):
        row_lo, row_hi = int(row_bounds[shard]), int(row_bounds[shard + 1])
        entry_lo, entry_hi = int(offsets[row_lo]), int(offsets[row_hi])
        indptr = (offsets[row_lo : row_hi + 1] - offsets[row_lo]).astype(np.int64)
        matrices.append(
            sparse.csr_matrix(
                (values[entry_lo:entry_hi], indices[entry_lo:entry_hi], indptr),
                shape=(row_hi - row_lo, int(domain_size)),
            )
        )
        spans.append((row_lo, row_hi))
    return spans, matrices


@register_backend
class VectorizedBackend(SparseBackend):
    """Whole-workload batch evaluation through one fused kernel call.

    Extends the sparse backend (same supports, same CSR layout — so
    ``query_support`` and sessions inherit its contracts) but answers the
    workload through a compiled :class:`NumpyKernel` or :class:`JaxKernel`
    over the cached :class:`PackedWorkload`.  Auto-eligible between the
    sharded and sparse ranks when the workload is large enough to
    amortise packing and rectangular enough to pad cheaply; the engine
    comes from ``EvaluatorConfig.engine`` (``None`` = JAX when importable,
    NumPy otherwise).
    """

    name = "vector"
    #: Faster than the serial CSR matvec (one fused call beats the
    #: interpreted bincount pipeline) but behind the multi-process shards.
    speed_rank = 15
    caches_all_supports = True

    def __init__(self, context: EvaluatorContext):
        super().__init__(context)
        # Resolve eagerly: an explicit-but-impossible engine ("jax" without
        # JAX) or an unknown name fails at construction, not mid-release.
        self._engine = resolve_engine(context.config.engine)
        self._packed: PackedWorkload | None = None
        self._kernel: NumpyKernel | JaxKernel | None = None

    @property
    def engine(self) -> str:
        """The resolved kernel engine (``"jax"`` or ``"numpy"``)."""
        return self._engine

    # -- cost model -------------------------------------------------------
    @classmethod
    def estimate_cost(cls, context: EvaluatorContext) -> BackendCost:
        if not context.supports_fit_budget():
            return BackendCost(
                backend=cls.name,
                eligible=False,
                speed_rank=cls.speed_rank,
                memory_bytes=0,
                reason="total support exceeds sparse cell budget "
                f"{context.config.sparse_cell_budget}; nothing to pack",
            )
        total = context.total_support_size()
        sizes = [context.support_size(index) for index in range(context.num_queries)]
        padded = plan_buckets(sizes)[2] if sizes else 0
        memory = cls._packed_bytes(
            _fused(context.config.engine),
            total,
            padded,
            context.num_queries,
            context.domain_size,
        )
        threshold = 0 if accelerator_available() else _MIN_PACKED_ENTRIES
        if total < threshold:
            return BackendCost(
                backend=cls.name,
                eligible=False,
                speed_rank=cls.speed_rank,
                memory_bytes=memory,
                reason=f"total support {total} is below the packing threshold "
                f"({threshold} entries); kernel dispatch overhead would dominate",
            )
        if padded > context.config.sparse_cell_budget:
            return BackendCost(
                backend=cls.name,
                eligible=False,
                speed_rank=cls.speed_rank,
                memory_bytes=memory,
                reason=f"padded packing ({padded} cells) exceeds sparse cell "
                f"budget {context.config.sparse_cell_budget}",
            )
        if padded > _WASTE_LIMIT * total:
            return BackendCost(
                backend=cls.name,
                eligible=False,
                speed_rank=cls.speed_rank,
                memory_bytes=memory,
                reason=f"padding waste ratio {padded / max(1, total):.2f} exceeds "
                f"{_WASTE_LIMIT} (workload too ragged to pack rectangularly)",
            )
        return BackendCost(
            backend=cls.name,
            eligible=True,
            speed_rank=cls.speed_rank,
            memory_bytes=memory,
        )

    @classmethod
    def is_eligible(cls, context: EvaluatorContext) -> bool:
        # One shared probe: the auto choice and the cost report must never
        # disagree on eligibility.
        return cls.estimate_cost(context).eligible

    @staticmethod
    def _packed_bytes(
        fused: bool, total: int, padded: int, num_queries: int, domain_size: int
    ) -> int:
        """The packed CSR (16 B per entry) plus what the kernel builds from it.

        The fused scipy kernel adds its int32 index copy and the column
        view; the einsum engines (JAX, or NumPy without scipy) the padded
        buckets.  No row ids: no kernel reads them.
        """
        packed = 16 * total + 8 * (num_queries + 1)
        if not fused:
            return packed + 16 * padded
        index = _scipy_index_bytes(total, num_queries, domain_size)
        return (
            packed
            + index * (total + num_queries + 1)
            + ColumnView.resident_bytes(total, num_queries, domain_size)
        )

    # -- packed representation --------------------------------------------
    def _ensure_csr(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        if self._csr is None:
            cached: PackedWorkload | None = (
                self._context.workload.private_cache(_CACHE_NAME).get("packed")
            )
            if cached is not None and cached.num_queries == self._context.num_queries:
                # Serve supports and the CSR triplet zero-copy from the
                # cached packed tensors instead of rebuilding them.
                counts = np.diff(cached.indptr)
                for index in range(cached.num_queries):
                    self._supports[index] = cached.query_slice(index)
                    self._context.note_support_size(index, int(counts[index]))
                self._cached_support_entries = cached.total_entries
                self._csr = (cached.indptr, cached.indices, cached.values)
                self._packed = cached
            else:
                super()._ensure_csr()
        return self._csr

    def _ensure_packed(self) -> PackedWorkload:
        if self._packed is None:
            recording = self._context.telemetry_enabled()
            cache = self._context.workload.private_cache(_CACHE_NAME)
            packed = cache.get("packed")
            if packed is None or packed.num_queries != self._context.num_queries:
                if recording:
                    _telemetry_registry().counter(
                        "workload.cache", bucket=_CACHE_NAME, event="miss"
                    ).add()
                span_ctx = (
                    _trace("vector.pack", queries=self._context.num_queries)
                    if recording
                    else _NULL_SPAN
                )
                with span_ctx:
                    packed = PackedWorkload(*self._ensure_csr())
                cache["packed"] = packed
            else:
                if recording:
                    _telemetry_registry().counter(
                        "workload.cache", bucket=_CACHE_NAME, event="hit"
                    ).add()
                self._ensure_csr()  # re-point supports at the cached tensors
            self._packed = packed
            if recording:
                registry = _telemetry_registry()
                registry.gauge("vector.packed_entries").set(packed.total_entries)
                registry.gauge("vector.padded_entries").set(packed.padded_entries)
                registry.gauge("vector.buckets").set(len(packed.bucket_spans))
                registry.gauge("vector.waste_ratio").set(packed.waste_ratio)
        return self._packed

    def _ensure_kernel(self) -> NumpyKernel | JaxKernel:
        if self._kernel is None:
            packed = self._ensure_packed()
            recording = self._context.telemetry_enabled()
            cache = self._context.workload.private_cache(_CACHE_NAME)
            key = ("kernel", self._engine)
            kernel = cache.get(key)
            if kernel is None:
                if recording:
                    _telemetry_registry().counter(
                        "workload.cache", bucket=_CACHE_NAME, event="miss"
                    ).add()
                span_ctx = (
                    _trace("vector.kernel_build", engine=self._engine)
                    if recording
                    else _NULL_SPAN
                )
                with span_ctx:
                    kernel_cls = JaxKernel if self._engine == "jax" else NumpyKernel
                    kernel = kernel_cls(packed, self._context.domain_size)
                cache[key] = kernel
            elif recording:
                _telemetry_registry().counter(
                    "workload.cache", bucket=_CACHE_NAME, event="hit"
                ).add()
            self._kernel = kernel
        return self._kernel

    def packed_workload(self) -> PackedWorkload:
        """The compiled packed tensors (building them on first use)."""
        return self._ensure_packed()

    # -- evaluation -------------------------------------------------------
    def answers_on_histogram(self, flat: np.ndarray) -> np.ndarray:
        return self._ensure_kernel().answers(flat)

    def column_view(self) -> ColumnView | None:
        return self._ensure_kernel().columns

    def session(self, initial: np.ndarray) -> HistogramSession:
        if self._engine != "jax":
            # The NumPy engine keeps the histogram host-side; the inherited
            # array session already routes answers through the fused kernel.
            return super().session(initial)
        return self.seeded_session(
            HistogramSeed.from_array(self._context.validated_flat(initial))
        )

    def seeded_session(self, seed: HistogramSeed) -> HistogramSession:
        if self._engine != "jax":
            return super().seeded_session(seed)
        kernel = self._ensure_kernel()
        jnp = kernel.jnp
        domain_size = self._context.domain_size
        if seed.is_uniform:
            # Seed directly on the device: no |D|-cell host allocation.
            histogram = jnp.full(
                (domain_size,), seed.cell_value(domain_size), dtype=jnp.float64
            )
        elif seed.array is not None:
            histogram = jnp.asarray(
                self._context.validated_flat(seed.array), dtype=jnp.float64
            )
        else:
            histogram = jnp.asarray(seed.materialize(domain_size), dtype=jnp.float64)
        return JaxHistogramSession(kernel, histogram)

    def estimated_memory(self) -> int:
        packed = self._ensure_packed()
        return self._packed_bytes(
            _fused(self._engine),
            packed.total_entries,
            packed.padded_entries,
            packed.num_queries,
            self._context.domain_size,
        )
