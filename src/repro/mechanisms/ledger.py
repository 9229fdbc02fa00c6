"""A simple privacy odometer.

Algorithms register every primitive mechanism invocation with a
:class:`PrivacyLedger`; the ledger reports the total spend under basic
composition (and the maximum under parallel composition when charges are
tagged as disjoint).  The core algorithms work without a ledger — it exists so
integration tests and E14 can assert that an end-to-end run never exceeds
its declared budget.

The ledger is **thread-safe**: charges and totals serialise on an internal
lock, so threads charging concurrently can share one ledger without losing
or double-counting entries.  The ledger is the one record of where the
budget went: the CLI's telemetry snapshot reads its ``budget`` from the run
ledger directly.

Budget enforcement lives here too: :meth:`PrivacyLedger.remaining` reports
the unspent part of a declared budget (clamped at zero) and
:meth:`PrivacyLedger.assert_within` raises :class:`BudgetExceededError` the
moment the composed total exceeds it.

An **ambient ledger** can be installed per context with :func:`use_ledger`
(the CLI scopes its run ledger this way): mechanisms that know their own
budget — today the PMW routine's total-count and adaptive-rounds charges —
record into it without every call chain having to thread a ledger argument
through.  Scopes nest, and a charge lands in every ledger in scope: E14
audits its own runs in a ledger of its own while the CLI's run ledger,
installed around it, still records them; :func:`ambient_ledgers` lists
them, outermost first.  No ambient ledger is installed by default, so
existing call sites pay one context-variable read and nothing else.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple

from repro.mechanisms.composition import basic_composition, parallel_composition
from repro.mechanisms.spec import PrivacySpec


class RemainingBudget(NamedTuple):
    """The unspent part of a declared budget, clamped at zero.

    A plain pair rather than a :class:`PrivacySpec` because a fully spent
    budget has zero (or, overspent, negative-before-clamping) epsilon, which
    a ``PrivacySpec`` by design refuses to represent.
    """

    epsilon: float
    delta: float

    @property
    def exhausted(self) -> bool:
        """Whether nothing is left to spend on either parameter."""
        return self.epsilon <= 0.0 and self.delta <= 0.0


class BudgetExceededError(RuntimeError):
    """A ledger's composed total went past its declared budget."""

    def __init__(self, spent: PrivacySpec, budget: PrivacySpec) -> None:
        self.spent = spent
        self.budget = budget
        super().__init__(
            f"privacy budget exceeded: spent {spent} against declared {budget}"
        )


@dataclass
class LedgerEntry:
    """One recorded mechanism invocation."""

    label: str
    spec: PrivacySpec
    parallel_group: str | None = None


@dataclass
class PrivacyLedger:
    """Records mechanism charges and reports the composed total."""

    entries: list[LedgerEntry] = field(default_factory=list)
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def charge(
        self, label: str, spec: PrivacySpec, *, parallel_group: str | None = None
    ) -> None:
        """Record one mechanism invocation.

        ``parallel_group`` marks charges that act on disjoint parts of the
        data: charges sharing a group compose in parallel (max) before the
        group total enters basic composition with everything else.

        Thread-safe.
        """
        entry = LedgerEntry(label=label, spec=spec, parallel_group=parallel_group)
        with self._lock:
            self.entries.append(entry)

    def total(self) -> PrivacySpec:
        """The composed (ε, δ) guarantee of everything charged so far."""
        with self._lock:
            entries = tuple(self.entries)
        if not entries:
            raise ValueError("no charges recorded")
        sequential: list[PrivacySpec] = []
        groups: dict[str, list[PrivacySpec]] = {}
        for entry in entries:
            if entry.parallel_group is None:
                sequential.append(entry.spec)
            else:
                groups.setdefault(entry.parallel_group, []).append(entry.spec)
        for specs in groups.values():
            sequential.append(parallel_composition(specs))
        return basic_composition(sequential)

    def spent(self) -> PrivacySpec | None:
        """Like :meth:`total`, but ``None`` (not an error) on an empty ledger."""
        if len(self) == 0:
            return None
        return self.total()

    def remaining(self, budget: PrivacySpec) -> RemainingBudget:
        """The unspent part of ``budget`` under the ledger's composed total.

        Both coordinates are clamped at zero — an overspent ledger reports
        ``RemainingBudget(0.0, 0.0)`` rather than a negative budget (use
        :meth:`assert_within` to make overspending an error).  Thread-safe:
        the composed total is computed from one consistent snapshot of the
        entries.
        """
        spent = self.spent()
        if spent is None:
            return RemainingBudget(budget.epsilon, budget.delta)
        return RemainingBudget(
            max(0.0, budget.epsilon - spent.epsilon),
            max(0.0, budget.delta - spent.delta),
        )

    def assert_within(self, budget: PrivacySpec) -> PrivacySpec | None:
        """Raise :class:`BudgetExceededError` when the total exceeds ``budget``.

        The comparison is strict and per-coordinate — going over on either ε
        or δ alone trips the check.  Returns the composed total (``None`` on
        an empty ledger, which is trivially within any budget) so callers can
        assert and report in one call.
        """
        spent = self.spent()
        if spent is not None and (
            spent.epsilon > budget.epsilon or spent.delta > budget.delta
        ):
            raise BudgetExceededError(spent, budget)
        return spent

    def __len__(self) -> int:
        with self._lock:
            return len(self.entries)


# ---------------------------------------------------------------------- #
# the ambient ledger: per-context implicit accounting
# ---------------------------------------------------------------------- #
_AMBIENT_LEDGERS: ContextVar[tuple[PrivacyLedger, ...]] = ContextVar(
    "repro_ambient_ledgers", default=()
)


def ambient_ledgers() -> tuple[PrivacyLedger, ...]:
    """Every ledger installed for the current context, outermost first.

    Budget-aware code paths (the PMW routine) call this per invocation and
    charge each of them; with none installed the lookup is one
    context-variable read.
    """
    return _AMBIENT_LEDGERS.get()


@contextmanager
def use_ledger(ledger: PrivacyLedger) -> Iterator[PrivacyLedger]:
    """Scope ``ledger`` as the ambient ledger for the enclosed block.

    ::

        ledger = PrivacyLedger()
        with use_ledger(ledger):
            release_synthetic_data(...)   # PMW charges land in `ledger`
        ledger.assert_within(PrivacySpec(1.0, 1e-5))

    Inside another scope, charges land in ``ledger`` and in every ledger
    scoped around it; after the block, in those outer ledgers alone.
    Context-variable scoping means concurrent threads/tasks can each install
    their own ledger without seeing each other's.
    """
    token = _AMBIENT_LEDGERS.set(_AMBIENT_LEDGERS.get() + (ledger,))
    try:
        yield ledger
    finally:
        _AMBIENT_LEDGERS.reset(token)
