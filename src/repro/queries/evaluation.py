"""Exact workload evaluation and error reporting.

:class:`WorkloadEvaluator` answers a whole workload against instances and
joint-domain histograms.  It is a thin facade over the pluggable
:class:`~repro.queries.backends.EvaluationBackend` registry; the built-in
backends trade memory for speed behind one interface, so the release
algorithms never care which one is active:

``dense``
    Pre-computes the full ``|Q| × |D|`` float64 query matrix so every
    workload evaluation is a single matrix–vector product.  Fastest per
    evaluation, but the matrix costs ``8·|Q|·|D|`` bytes.
``sparse``
    Stores one CSR-style ``(indices, values)`` support per query — only the
    joint-domain cells where the query value is non-zero.  Memory is
    ``O(Σ_q nnz(q))`` instead of ``O(|Q|·|D|)``; threshold/marginal
    workloads are overwhelmingly sparse, so this is usually a large
    reduction.
``sharded``
    The sparse CSR split into row shards evaluated by a persistent
    ``multiprocessing`` worker pool over a shared-memory histogram (with a
    chunk-range fallback beyond the sparse budget).  Opted into with the
    ``workers`` knob; answers match the serial sparse path bitwise per
    query, so PMW selections are reproducible across worker counts.
``streaming``
    Holds no per-query state at all: evaluations scan the joint domain in
    fixed-size chunks and recompute query values on the fly.  Slowest, but
    the extra memory is bounded by the chunk size regardless of ``|Q|`` or
    ``|D|``.
``prefetch``
    The streaming re-scan pipelined: a background thread decodes chunk
    ``k+1`` while the per-query weight products and matvec of chunk ``k``
    run, so the two stages overlap instead of alternating.  Answers are
    bitwise identical to ``streaming``; memory stays chunk-bounded (one
    extra in-flight chunk per unit of look-ahead, set by ``workers``).
    Auto-eligible whenever the host has at least two cores, ranked just
    ahead of the serial streaming scan.
``domain``
    The joint domain itself partitioned into contiguous slices, one per
    pool worker, each backed by its own shared-memory segment of
    ``8·(slice length)`` bytes — the full histogram never exists as one
    allocation.  Supports are re-indexed per slice; answers sum the
    per-slice partials in fixed order (1e-9 parity with serial sparse, not
    bitwise — PMW *selections* stay bitwise under a fixed seed).  Opt-in
    via ``mode="domain"``; this is the strategy for histograms one address
    space cannot hold.
``vector``
    The whole workload compiled once into packed batch tensors (the
    concatenated CSR supports plus bucketed rectangular index/weight
    padding) and answered by one fused kernel call per evaluation.  Two
    interchangeable engines share the packed layout, selected by the
    ``engine`` knob: a ``jax.jit`` path with the histogram resident on
    the device across PMW rounds (requires the optional JAX dependency,
    ``pip install .[jax]``), and a pure-NumPy/scipy CPU path whose fused
    CSR matvec is bitwise identical to ``sparse``.  Auto-eligible when
    the workload is large enough to amortise packing and rectangular
    enough to pad within the cost model's waste limit — at that point it
    outranks serial ``sparse``.

Iterated evaluation drives a :class:`~repro.queries.backends.HistogramSession`
— an operation protocol (``answers``, ``scale_support``, ``scale``,
``fill``, ``total``, ``accumulate``/``averaged_slices``, ``close``) behind
which the histogram storage is private to the backend.  Sessions are opened
via :meth:`WorkloadEvaluator.histogram_session`, either from a concrete
array or from a declarative :class:`~repro.queries.backends.HistogramSeed`
(uniform total or per-slice initializer), which partitioned backends
realise slice-locally so the parent never allocates ``|D|`` cells.

The default (``mode="auto"``) runs the registry's explicit cost model
(:func:`~repro.queries.backends.choose_backend`): every registered backend
reports eligibility against the configured cell budgets — dense while
``|Q|·|D|`` fits the matrix budget, sparse/sharded while the *measured*
total support fits the sparse budget (an einsum over the non-zero
indicators of the per-relation weights, never materialising the joint
domain), streaming always — and the fastest eligible backend wins.  The
choice (and any dense matrix build) is deferred until the first histogram
evaluation or support request, so instance-only consumers pay nothing for
it.  :func:`register_backend` adds custom backends to the same model.

:func:`shared_evaluator` memoises evaluators on the workload object itself
(one per ``(backend, workers)``), so repeated release invocations over the
same workload — the uniformized algorithms, the baselines, parameter
sweeps — reuse the cached supports, and the cache dies with the workload.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.queries.backends import (
    _DEFAULT_CHUNK_SIZE,
    _MATRIX_CELL_BUDGET,
    _SPARSE_CELL_BUDGET,
    BackendCost,
    DenseBackend,
    EvaluationBackend,
    EvaluatorConfig,
    EvaluatorContext,
    HistogramSeed,
    HistogramSession,
    backend_class,
    backend_costs,
    choose_backend,
    register_backend,
    registered_backends,
    unregister_backend,
)
from repro.queries.vectorized import ENGINES, resolve_engine
from repro.queries.workload import Workload
from repro.relational.instance import Instance
from repro.telemetry import registry as _telemetry_registry

# Importing the modules registers the sharded and vectorised backends.
import repro.queries.sharded  # noqa: F401  (registration side effect)
import repro.queries.vectorized  # noqa: F401  (registration side effect)


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


# ---------------------------------------------------------------------- #
# process-wide default backend (set by the CLI flags)
# ---------------------------------------------------------------------- #
_DEFAULT_BACKEND: tuple[str, int] = ("auto", 1)


def set_default_backend(backend: str = "auto", workers: int = 1) -> None:
    """Set the process-wide default evaluation backend and worker count.

    Applied wherever no explicit ``mode``/``backend`` is given — fresh
    ``WorkloadEvaluator(workload)`` constructions and
    :func:`shared_evaluator` lookups — so one call (e.g. from the CLI's
    ``--evaluator-backend``/``--workers`` flags) retargets every release
    algorithm in the process.
    """
    if backend != "auto":
        backend_class(backend)  # raises on unknown names
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    global _DEFAULT_BACKEND
    _DEFAULT_BACKEND = (backend, int(workers))


def get_default_backend() -> tuple[str, int]:
    """The process-wide ``(backend, workers)`` default."""
    return _DEFAULT_BACKEND


class WorkloadEvaluator:
    """Evaluate a workload against instances and joint-domain histograms.

    Parameters
    ----------
    workload:
        The query family.
    materialize:
        Legacy switch: ``True`` forces the dense backend, ``False`` forbids
        it (auto-picking among the memory-bounded backends).  Superseded by
        ``mode``.
    mode / backend:
        ``"auto"`` or any registered backend name (``"dense"``,
        ``"sparse"``, ``"sharded"``, ``"domain"``, ``"streaming"``,
        ``"prefetch"``, plus custom registrations); see the module
        docstring for the trade-offs.
        ``backend`` is an alias of ``mode`` matching the release-algorithm
        knob; when neither is given the process-wide default applies.
        ``"auto"`` (the default) runs the registry cost model and picks the
        fastest backend that fits the cell budgets.
    cell_budget / sparse_cell_budget:
        Override the dense-matrix and total-support budgets used by the
        cost model.
    chunk_size:
        Joint-domain chunk length used by streaming scans, and the slab
        size (in cells of a query's non-zero box) of support construction.
    workers:
        Worker-process count for the sharded and domain backends
        (``workers >= 2`` also makes ``sharded`` eligible for the
        automatic choice; ``domain`` sizes its per-slice segments by it)
        and the decode look-ahead depth of the prefetching streaming
        backend.
    engine:
        Kernel engine for engine-aware backends: ``"jax"`` or ``"numpy"``
        for the vector backend (``None`` auto-detects, preferring JAX
        when importable), and any non-``None`` value opts the sharded
        backend's workers into fused per-shard CSR kernels.  Backends
        without interchangeable kernels ignore it.
    telemetry:
        Per-evaluator instrumentation scope: ``None`` follows the global
        :func:`repro.telemetry.configure` switch, ``False`` keeps this
        evaluator silent even while the global switch is on, ``True``
        documents an opt-in (recording still requires the global switch).
    """

    def __init__(
        self,
        workload: Workload,
        materialize: bool | None = None,
        *,
        mode: str | None = None,
        backend: str | None = None,
        cell_budget: int = _MATRIX_CELL_BUDGET,
        sparse_cell_budget: int = _SPARSE_CELL_BUDGET,
        chunk_size: int = _DEFAULT_CHUNK_SIZE,
        workers: int | None = None,
        engine: str | None = None,
        telemetry: bool | None = None,
    ):
        if engine is not None and engine not in ENGINES:
            raise ValueError(
                f"unknown vector engine {engine!r}; expected one of {ENGINES} or None"
            )
        name = backend if backend is not None else mode
        if name is None:
            if materialize is True:
                name = "dense"
            elif materialize is False:
                # Legacy "never materialise": auto-pick among the
                # memory-bounded backends (sparse while the measured support
                # fits, else streaming).
                name = "auto"
                cell_budget = 0
            else:
                name, default_workers = get_default_backend()
                if workers is None:
                    workers = default_workers
        if workers is None:
            workers = 1
        if name != "auto":
            # Raises on unknown names; the backend class's own invariant
            # (e.g. sharded's >= 2 floor) decides the effective worker
            # count, so this facade, shared_evaluator, and direct backend
            # construction all agree.
            workers = backend_class(name).normalize_workers(workers)
        self._workload = workload
        self._requested = name
        self._context = EvaluatorContext(
            workload,
            EvaluatorConfig(
                cell_budget=int(cell_budget),
                sparse_cell_budget=int(sparse_cell_budget),
                chunk_size=int(chunk_size),
                workers=int(workers),
                engine=engine,
                telemetry=telemetry,
            ),
        )
        self._backend: EvaluationBackend | None = None
        # "auto" is resolved lazily on first histogram/support use:
        # instance-only consumers (answers_on_instance) never pay for the
        # support measurement or the dense matrix build.
        if name != "auto":
            self._backend = backend_class(name)(self._context)

    # ------------------------------------------------------------------ #
    # backend resolution
    # ------------------------------------------------------------------ #
    def _resolve_backend(self) -> EvaluationBackend:
        if self._backend is None:
            self._backend = backend_class(choose_backend(self._context))(self._context)
        return self._backend

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

    @property
    def workers(self) -> int:
        return self._context.config.workers

    @property
    def engine(self) -> str | None:
        """The kernel engine: resolved by the active backend when it has one."""
        backend = self._backend
        if backend is not None and hasattr(backend, "engine"):
            return backend.engine
        return self._context.config.engine

    @property
    def mode(self) -> str:
        """The active backend name (resolving the automatic choice)."""
        return self._resolve_backend().name

    @property
    def backend(self) -> EvaluationBackend:
        """The active backend instance (resolving the automatic choice)."""
        return self._resolve_backend()

    @property
    def has_matrix(self) -> bool:
        return isinstance(self._backend, DenseBackend)

    def support_size(self, index: int) -> int:
        """Exact number of joint-domain cells where query ``index`` is non-zero.

        Computed by an einsum over the non-zero indicators of the per-relation
        weight arrays — the joint domain is never materialised, so this is
        cheap even when ``|D|`` is enormous.
        """
        return self._context.support_size(index)

    def total_support_size(self) -> int:
        """``Σ_q nnz(q)``: the number of entries the sparse form stores."""
        return self._context.total_support_size()

    def estimated_memory(self) -> int:
        """Resident bytes of the active backend (resolving the auto choice)."""
        return self._resolve_backend().estimated_memory()

    # ------------------------------------------------------------------ #
    # query supports
    # ------------------------------------------------------------------ #
    def query_support(self, index: int) -> tuple[np.ndarray, np.ndarray]:
        """CSR-style ``(flat indices, values)`` support of one query.

        Built lazily and cached by the backend; the PMW multiplicative
        update touches only these cells (the update factor is exactly 1
        everywhere else).
        """
        return self._resolve_backend().query_support(index)

    def query_values(self, index: int) -> np.ndarray:
        """Flattened joint-domain value vector of one query (dense)."""
        if isinstance(self._backend, DenseBackend):
            return self._backend.query_values(index)
        return self._context.query_values(index)

    # ------------------------------------------------------------------ #
    # evaluation
    # ------------------------------------------------------------------ #
    def answers_on_instance(self, instance: Instance) -> np.ndarray:
        """Exact answers ``q(I)`` for every workload query.

        Evaluated by einsum over the per-relation arrays — identical across
        all evaluator backends.
        """
        return np.array([query.evaluate(instance) for query in self._workload], dtype=float)

    def _validated_flat(self, histogram: np.ndarray) -> np.ndarray:
        return self._context.validated_flat(histogram)

    def answers_on_histogram(self, histogram: np.ndarray) -> np.ndarray:
        """Answers ``q(F)`` for every query against a joint-domain histogram.

        Telemetry: while recording, each evaluation is timed into the
        ``evaluator.eval_seconds{backend=<name>}`` distribution.
        """
        backend = self._resolve_backend()
        flat = self._validated_flat(histogram)
        if not self._context.telemetry_enabled():
            return backend.answers_on_histogram(flat)
        with _telemetry_registry().timer("evaluator.eval_seconds", backend=backend.name):
            return backend.answers_on_histogram(flat)

    def histogram_session(
        self,
        initial: np.ndarray | None = None,
        *,
        seed: HistogramSeed | None = None,
    ) -> HistogramSession:
        """Open a mutable histogram session from an array or a seed spec.

        The PMW inner loop uses this instead of re-submitting the histogram
        every round: it applies in-place deltas (the selected query's
        support rescale and the renormalisation) through the session's op
        protocol and re-asks for answers.  The sharded backend maps the
        session straight onto its shared-memory histogram and the domain
        backend onto its per-slice segments, so nothing is re-broadcast to
        the workers between rounds.

        Exactly one of ``initial`` (a concrete histogram, copied into
        session storage) or ``seed`` (a declarative
        :class:`~repro.queries.backends.HistogramSeed`) must be given.
        Passing ``seed=HistogramSeed.uniform(total)`` lets partitioned
        backends seed each slice locally — the caller never allocates
        ``|D|`` cells.
        """
        if (initial is None) == (seed is None):
            raise ValueError("pass exactly one of `initial` or `seed`")
        if initial is not None:
            seed = HistogramSeed.from_array(self._validated_flat(initial))
        return self._resolve_backend().seeded_session(seed)

    def error_report(self, instance: Instance, histogram: np.ndarray) -> ErrorReport:
        true_answers = self.answers_on_instance(instance)
        released = self.answers_on_histogram(histogram)
        return ErrorReport.from_answers(true_answers, released, self._workload.names())

    def close(self) -> None:
        """Release backend resources (worker pools, shared memory, ...)."""
        if self._backend is not None:
            self._backend.close()


class SparseWorkloadEvaluator(WorkloadEvaluator):
    """A :class:`WorkloadEvaluator` that never builds the dense matrix.

    Picks the sparse CSR form while the measured total support fits the
    sparse cell budget and falls back to chunked streaming beyond it —
    i.e. ``mode="auto"`` with the dense option removed.
    """

    def __init__(
        self,
        workload: Workload,
        *,
        sparse_cell_budget: int = _SPARSE_CELL_BUDGET,
        chunk_size: int = _DEFAULT_CHUNK_SIZE,
    ):
        super().__init__(
            workload,
            mode="auto",
            cell_budget=0,
            sparse_cell_budget=sparse_cell_budget,
            chunk_size=chunk_size,
            workers=1,
        )


# ---------------------------------------------------------------------- #
# cost-model helpers
# ---------------------------------------------------------------------- #
def evaluator_backend_costs(
    workload: Workload,
    *,
    cell_budget: int = _MATRIX_CELL_BUDGET,
    sparse_cell_budget: int = _SPARSE_CELL_BUDGET,
    chunk_size: int = _DEFAULT_CHUNK_SIZE,
    workers: int = 1,
) -> tuple[BackendCost, ...]:
    """The full cost-model report over every registered backend.

    Measures the exact total support size, so it is meant for planning and
    reporting rather than the evaluation hot path.
    """
    context = EvaluatorContext(
        workload,
        EvaluatorConfig(
            cell_budget=cell_budget,
            sparse_cell_budget=sparse_cell_budget,
            chunk_size=chunk_size,
            workers=workers,
        ),
    )
    return backend_costs(context)


def auto_evaluator_mode(
    workload: Workload,
    *,
    cell_budget: int = _MATRIX_CELL_BUDGET,
    sparse_cell_budget: int = _SPARSE_CELL_BUDGET,
    workers: int = 1,
) -> str:
    """The backend ``mode="auto"`` would pick, without building any backend.

    Runs the registry's public cost model (eligibility probes in speed-rank
    order, so only the measurements that matter are taken) — no dense
    matrix, no supports; useful for planning and reporting.
    """
    context = EvaluatorContext(
        workload,
        EvaluatorConfig(
            cell_budget=cell_budget,
            sparse_cell_budget=sparse_cell_budget,
            workers=workers,
        ),
    )
    return choose_backend(context)


# ---------------------------------------------------------------------- #
# shared evaluator cache
# ---------------------------------------------------------------------- #
def shared_evaluator(
    workload: Workload,
    *,
    backend: str | None = None,
    workers: int | None = None,
    engine: str | None = None,
) -> WorkloadEvaluator:
    """One cached evaluator per workload and ``(backend, workers, engine)``.

    The release algorithms and baselines call this instead of constructing a
    fresh :class:`WorkloadEvaluator` per invocation, so repeated releases
    over the same workload — uniformized per-bucket runs, trial sweeps, the
    baselines — share the dense matrix, cached query supports, compiled
    vector kernels, or sharded worker pool.  The cache lives on the
    workload object itself (:meth:`~repro.queries.workload.Workload.private_cache`),
    so entries are evicted exactly when the workload is garbage-collected —
    the cache/evaluator/workload reference cycle is collectable, unlike a
    module-level weak-key mapping whose values keep their keys alive.
    """
    default_backend, default_workers = get_default_backend()
    name = backend if backend is not None else default_backend
    if workers is None:
        # An unset worker count follows the process default only when the
        # backend does too; an explicit backend starts from serial.
        workers = default_workers if backend is None else 1
    if name != "auto":
        # Canonicalise through the backend's worker invariant (sharded's
        # >= 2 floor) so equivalent requests share one cache entry.
        workers = backend_class(name).normalize_workers(workers)
    if engine is not None and engine not in ENGINES:
        raise ValueError(
            f"unknown vector engine {engine!r}; expected one of {ENGINES} or None"
        )
    # The vector backend resolves ``None`` to a concrete engine at
    # construction, so canonicalise the key the same way: the JAX and
    # NumPy compilations must never collide, and ``None`` must share the
    # entry of whichever engine it resolves to.
    canonical_engine = resolve_engine(engine) if name == "vector" else engine
    key = (name, int(workers), canonical_engine)
    cache = workload.private_cache("shared_evaluators")
    evaluator = cache.get(key)
    _telemetry_registry().counter(
        "workload.cache",
        bucket="shared_evaluators",
        event="hit" if evaluator is not None else "miss",
    ).add()
    if evaluator is None:
        evaluator = WorkloadEvaluator(workload, mode=name, workers=workers, engine=engine)
        cache[key] = evaluator
    return evaluator


def evaluate_workload_on_instance(workload: Workload, instance: Instance) -> np.ndarray:
    """Exact answers of every workload query on an instance.

    Uses (and warms) the per-workload :func:`shared_evaluator`, so repeated
    calls — and any releases over the same workload — reuse one backend;
    its supports/matrix stay cached for the workload's lifetime.
    """
    return shared_evaluator(workload).answers_on_instance(instance)


def evaluate_workload_on_histogram(workload: Workload, histogram: np.ndarray) -> np.ndarray:
    """Answers of every workload query against a joint-domain histogram.

    Uses (and warms) the per-workload :func:`shared_evaluator`; see
    :func:`evaluate_workload_on_instance` for the caching trade-off.
    """
    return shared_evaluator(workload).answers_on_histogram(histogram)


def max_error(workload: Workload, instance: Instance, histogram: np.ndarray) -> float:
    """The ℓ∞ error ``max_q |q(I) − q(F)|`` of a released histogram."""
    evaluator = shared_evaluator(workload)
    true_answers = evaluator.answers_on_instance(instance)
    released = evaluator.answers_on_histogram(histogram)
    return float(np.max(np.abs(true_answers - released))) if len(workload) else 0.0
