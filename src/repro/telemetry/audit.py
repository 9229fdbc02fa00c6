"""The privacy audit journal: an append-only, hash-chained record of charges.

A :class:`PrivacyLedger <repro.mechanisms.ledger.PrivacyLedger>` is an
in-memory odometer — it dies with the process and says nothing about *when*
or *in what order* budget was spent.  The :class:`AuditJournal` is its
durable, tamper-evident counterpart: one JSON line per charge, each written,
flushed and fsynced before :meth:`AuditJournal.record` returns, in a file
whose records form a SHA-256 hash chain:

``{"v": 2, "seq": 3, "label": "pmw.rounds", "epsilon": 0.5,
   "delta": 5e-06, "group": null, "t": 1754600000.0,
   "prev": "<hash of record 2>", "h": "<hash of this record>"}``

``h`` is the SHA-256 of the record's canonical JSON (sorted keys, ``h``
excluded), which embeds ``prev`` — so editing any field breaks that record's
hash, deleting a record leaves a sequence gap, and reordering breaks the
``prev`` chain.  :func:`verify_audit_journal` replays a journal, re-derives
the composed (ε, δ) total under exactly the ledger's basic/parallel
composition order, and reports each class of corruption as a *distinct*
error type (:class:`AuditTamperError`, :class:`AuditGapError`,
:class:`AuditOrderError`, :class:`AuditDivergenceError`) so operators can
tell a truncated disk from a hostile edit.

A journal is one file written by one run: it is created exclusively, so a
path that already exists is refused rather than appended to.

Standard library only, like the rest of ``repro.telemetry``: rule DPA104 of
``repro.analysis.lint`` enforces it, run by CI's static-analysis job
(``tests/telemetry/check_stdlib_only.py``) and by ``tests/analysis/static/``.
The journal knows nothing about ledger classes — ``attach`` accepts
anything with a ``subscribe(observer)`` method whose entries expose
``label``, ``spec`` and ``parallel_group``.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable

__all__ = [
    "AUDIT_SCHEMA_VERSION",
    "GENESIS_HASH",
    "AuditJournal",
    "AuditRecord",
    "AuditReport",
    "AuditVerificationError",
    "AuditTamperError",
    "AuditGapError",
    "AuditOrderError",
    "AuditDivergenceError",
    "read_journal",
    "replay_composition",
    "verify_audit_journal",
]

#: Version tag stamped on every record; bump on layout changes.
AUDIT_SCHEMA_VERSION = 2

#: The ``prev`` hash of the very first record of a chain.
GENESIS_HASH = "0" * 64

#: δ clamp mirrored from ``repro.mechanisms.composition.basic_composition``
#: (the telemetry package cannot import it — stdlib only — so the replay
#: reimplements the two composition rules as plain float arithmetic).
_DELTA_CEILING = 1.0 - 1e-12


class AuditVerificationError(ValueError):
    """Base class: the journal failed verification.  ``seq`` locates it."""

    kind = "invalid"

    def __init__(self, message: str, *, seq: int | None = None) -> None:
        self.seq = seq
        super().__init__(message)


class AuditTamperError(AuditVerificationError):
    """A record's content does not match its recorded hash (edited in place)."""

    kind = "tampered"


class AuditGapError(AuditVerificationError):
    """A sequence number is missing (record deleted, or the tail truncated)."""

    kind = "gap"


class AuditOrderError(AuditVerificationError):
    """All records are present but not in their original order (reordered)."""

    kind = "reordered"


class AuditDivergenceError(AuditVerificationError):
    """The journal disagrees with the live ledger or the declared budget."""

    kind = "divergence"


def _canonical(body: dict) -> bytes:
    """The canonical byte encoding hashed into ``h`` (sorted keys, no spaces)."""
    return json.dumps(body, sort_keys=True, separators=(",", ":")).encode("utf-8")


def _record_hash(body: dict) -> str:
    return hashlib.sha256(_canonical(body)).hexdigest()


@dataclass(frozen=True)
class AuditRecord:
    """One parsed journal line."""

    seq: int
    label: str
    epsilon: float
    delta: float
    group: str | None
    timestamp: float
    prev: str
    digest: str

    @classmethod
    def from_line(cls, line: str, *, lineno: int, path: str) -> "AuditRecord":
        try:
            raw = json.loads(line)
        except json.JSONDecodeError as exc:
            raise AuditTamperError(
                f"{path}:{lineno}: unparseable journal line ({exc})"
            ) from exc
        try:
            return cls(
                seq=int(raw["seq"]),
                label=str(raw["label"]),
                epsilon=float(raw["epsilon"]),
                delta=float(raw["delta"]),
                group=raw.get("group"),
                timestamp=float(raw.get("t", 0.0)),
                prev=str(raw["prev"]),
                digest=str(raw["h"]),
            )
        except (KeyError, TypeError) as exc:
            raise AuditTamperError(
                f"{path}:{lineno}: journal line missing field {exc}"
            ) from exc

    def body(self) -> dict:
        """The hashed portion of the record (everything but ``h``)."""
        return {
            "v": AUDIT_SCHEMA_VERSION,
            "seq": self.seq,
            "label": self.label,
            "epsilon": self.epsilon,
            "delta": self.delta,
            "group": self.group,
            "t": self.timestamp,
            "prev": self.prev,
        }

    def expected_hash(self) -> str:
        return _record_hash(self.body())


@dataclass
class AuditReport:
    """The verifier's summary of a clean journal.

    Its records hold seq ``1..records``; ``epsilon`` and ``delta`` are their
    replayed composed total (``None`` when the journal is empty).
    """

    records: int
    epsilon: float | None
    delta: float | None


class AuditJournal:
    """Append-only hash-chained journal of privacy charges.

    ``path`` is the journal file; parent directories are created.  The file
    is created exclusively — an existing path raises ``FileExistsError`` and
    is left untouched — so one journal holds exactly one run's chain.  Every
    append is written, flushed and fsynced before :meth:`record` returns, so
    each record is durable once its charge is.

    Thread-safe: appends serialise on an internal lock (ledger observers may
    fire from any charging thread).  Usable as a context manager.
    """

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = Path(path)
        self._lock = threading.Lock()
        self._unsubscribes: list[Callable[[], None]] = []
        self._next_seq = 1
        self._prev_hash = GENESIS_HASH
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle = open(self.path, "x", encoding="utf-8")

    # -- writing ----------------------------------------------------------
    def record(
        self,
        label: str,
        epsilon: float,
        delta: float,
        *,
        parallel_group: str | None = None,
    ) -> None:
        """Append one charge; it is on disk when this returns."""
        with self._lock:
            body = {
                "v": AUDIT_SCHEMA_VERSION,
                "seq": self._next_seq,
                "label": str(label),
                "epsilon": float(epsilon),
                "delta": float(delta),
                "group": parallel_group,
                "t": time.time(),
                "prev": self._prev_hash,
            }
            digest = _record_hash(body)
            line = json.dumps(dict(body, h=digest), sort_keys=True, separators=(",", ":"))
            self._handle.write(line + "\n")
            self._handle.flush()
            os.fsync(self._handle.fileno())
            self._prev_hash = digest
            self._next_seq += 1

    def attach(self, ledger) -> Callable[[], None]:
        """Journal every future charge of ``ledger``; returns unsubscribe.

        ``ledger`` is duck-typed: anything with ``subscribe(observer)``
        delivering entries carrying ``label``, ``spec.epsilon``,
        ``spec.delta`` and ``parallel_group`` works.
        """

        def _observer(entry) -> None:
            self.record(
                entry.label,
                entry.spec.epsilon,
                entry.spec.delta,
                parallel_group=entry.parallel_group,
            )

        unsubscribe = ledger.subscribe(_observer)
        self._unsubscribes.append(unsubscribe)
        return unsubscribe

    def close(self) -> None:
        """Detach from every ledger and close the file handle (idempotent)."""
        for unsubscribe in self._unsubscribes:
            unsubscribe()
        self._unsubscribes.clear()
        with self._lock:
            if not self._handle.closed:
                self._handle.flush()
                self._handle.close()

    def __enter__(self) -> "AuditJournal":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


# ---------------------------------------------------------------------- #
# reading and verification
# ---------------------------------------------------------------------- #
def read_journal(path: str | os.PathLike) -> list[AuditRecord]:
    """Parse every record of a journal, in file order.

    A missing file raises ``FileNotFoundError``; an empty one has no records.
    """
    path = Path(path)
    return [
        AuditRecord.from_line(line, lineno=lineno, path=str(path))
        for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if line.strip()
    ]


def replay_composition(records: Iterable[AuditRecord]) -> tuple[float, float]:
    """Re-derive the composed (ε, δ) total from journal records.

    Mirrors ``PrivacyLedger.total()`` operation-for-operation — sequential
    charges sum in seq order, parallel groups contribute their per-group
    maximum in first-seen order, δ clamps at ``1 - 1e-12`` — so on an intact
    journal the result is *bitwise* equal to the live ledger's total (Python
    float addition is order-dependent; same order, same bits).
    """
    sequential: list[tuple[float, float]] = []
    groups: dict[str, list[tuple[float, float]]] = {}
    for record in records:
        pair = (record.epsilon, record.delta)
        if record.group is None:
            sequential.append(pair)
        else:
            groups.setdefault(record.group, []).append(pair)
    for pairs in groups.values():
        sequential.append(
            (max(eps for eps, _ in pairs), max(delta for _, delta in pairs))
        )
    epsilon = sum(eps for eps, _ in sequential)
    delta = sum(delta for _, delta in sequential)
    return epsilon, min(delta, _DELTA_CEILING)


def verify_audit_journal(
    path: str | os.PathLike,
    *,
    ledger=None,
    budget=None,
) -> AuditReport:
    """Replay and verify a journal; raise a typed error on any corruption.

    Checks, in order (each failure mode gets its own exception type):

    1. every record's ``h`` matches its content — :class:`AuditTamperError`;
    2. the sequence numbers form a contiguous run — :class:`AuditGapError`
       (a deleted record, or a truncated tail when ``ledger`` shows more
       charges);
    3. records appear in sequence order and each ``prev`` equals the prior
       record's hash (the first record's is :data:`GENESIS_HASH`) —
       :class:`AuditOrderError`;
    4. with ``ledger``: record count equals ``len(ledger)`` and the replayed
       composed total equals ``ledger.total()`` *exactly* (bitwise) —
       :class:`AuditDivergenceError`;
    5. with ``budget`` (anything with ``epsilon``/``delta``): the replayed
       total does not exceed it — :class:`AuditDivergenceError`.

    Returns an :class:`AuditReport` on success.  A missing journal raises
    ``FileNotFoundError``: only a file that exists can verify as clean.
    """
    records = read_journal(path)

    for record in records:
        if record.expected_hash() != record.digest:
            raise AuditTamperError(
                f"record seq={record.seq} was modified: stored hash "
                f"{record.digest[:12]}… does not match its content",
                seq=record.seq,
            )

    if records:
        seqs = [record.seq for record in records]
        if min(seqs) != 1:
            raise AuditGapError(
                f"journal does not start at seq=1 (first record is "
                f"seq={min(seqs)}; the head was deleted)",
                seq=min(seqs),
            )
        expected = set(range(min(seqs), max(seqs) + 1))
        missing = sorted(expected - set(seqs))
        if missing:
            raise AuditGapError(
                f"journal is missing record(s) seq={missing} "
                f"(deleted, or lost to truncation)",
                seq=missing[0],
            )
        if len(seqs) != len(set(seqs)):
            duplicated = sorted({s for s in seqs if seqs.count(s) > 1})
            raise AuditOrderError(
                f"journal contains duplicated record(s) seq={duplicated}",
                seq=duplicated[0],
            )
        if seqs != sorted(seqs):
            out_of_order = next(
                record.seq
                for prior, record in zip(records, records[1:])
                if record.seq < prior.seq
            )
            raise AuditOrderError(
                f"records are out of order around seq={out_of_order} "
                f"(journal was reordered)",
                seq=out_of_order,
            )
        prev = records[0].prev
        if prev != GENESIS_HASH:
            raise AuditOrderError(
                f"first record seq={records[0].seq} does not start at the "
                f"genesis hash (journal head was cut off)",
                seq=records[0].seq,
            )
        for prior, record in zip(records, records[1:]):
            if record.prev != prior.digest:
                raise AuditOrderError(
                    f"hash chain broken between seq={prior.seq} and "
                    f"seq={record.seq}: prev-hash does not match",
                    seq=record.seq,
                )

    epsilon: float | None = None
    delta: float | None = None
    if records:
        epsilon, delta = replay_composition(records)

    if ledger is not None:
        ledger_len = len(ledger)
        if ledger_len != len(records):
            raise AuditDivergenceError(
                f"journal holds {len(records)} record(s) but the ledger "
                f"recorded {ledger_len} charge(s) "
                f"(journal truncated or ledger bypassed)",
                seq=records[-1].seq if records else None,
            )
        if records:
            total = ledger.total()
            if (epsilon, delta) != (total.epsilon, total.delta):
                raise AuditDivergenceError(
                    f"replayed total (ε={epsilon!r}, δ={delta!r}) diverges "
                    f"from the ledger's (ε={total.epsilon!r}, δ={total.delta!r})",
                )

    if budget is not None and records:
        assert epsilon is not None and delta is not None
        if epsilon > budget.epsilon or delta > budget.delta:
            raise AuditDivergenceError(
                f"replayed spend (ε={epsilon:g}, δ={delta:g}) exceeds the "
                f"declared budget (ε={budget.epsilon:g}, δ={budget.delta:g})",
            )

    return AuditReport(records=len(records), epsilon=epsilon, delta=delta)
