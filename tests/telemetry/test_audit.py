"""The hash-chained audit journal: append, replay, detect.

The journal's contract has two halves.  *Fidelity*: replaying an intact
journal reproduces the live ledger's composed (ε, δ) total bitwise.  *Tamper
evidence*: every way of corrupting the journal after the fact — editing a
record, deleting one, swapping two, or charging the ledger behind the
journal's back — is rejected by the verifier with its own distinct error
type.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.mechanisms.ledger import PrivacyLedger
from repro.mechanisms.spec import PrivacySpec
from repro.telemetry.audit import (
    GENESIS_HASH,
    AuditDivergenceError,
    AuditGapError,
    AuditJournal,
    AuditOrderError,
    AuditTamperError,
    read_journal,
    replay_composition,
    verify_audit_journal,
)


@pytest.fixture()
def journal_path(tmp_path):
    return tmp_path / "audit.jsonl"


def _fill(journal: AuditJournal, charges) -> None:
    for label, epsilon, delta, group in charges:
        journal.record(label, epsilon, delta, parallel_group=group)


_CHARGES = [
    ("pmw.total", 0.5, 5e-6, None),
    ("pmw.rounds", 0.5, 5e-6, None),
    ("histogram.east", 0.25, 1e-6, "region"),
    ("histogram.west", 0.75, 2e-6, "region"),
    ("pmw.total", 0.125, 1e-7, None),
]


class TestChainAndReplay:
    def test_records_chain_from_genesis(self, journal_path):
        with AuditJournal(journal_path) as journal:
            _fill(journal, _CHARGES)
        records = read_journal(journal_path)
        assert [record.seq for record in records] == [1, 2, 3, 4, 5]
        assert records[0].prev == GENESIS_HASH
        for prior, record in zip(records, records[1:]):
            assert record.prev == prior.digest
        for record in records:
            assert record.expected_hash() == record.digest

    def test_replay_matches_ledger_bitwise(self, journal_path):
        ledger = PrivacyLedger()
        with AuditJournal(journal_path) as journal:
            journal.attach(ledger)
            for label, epsilon, delta, group in _CHARGES:
                ledger.charge(label, PrivacySpec(epsilon, delta), parallel_group=group)
        epsilon, delta = replay_composition(read_journal(journal_path))
        total = ledger.total()
        assert epsilon == total.epsilon  # bitwise, not approx
        assert delta == total.delta
        report = verify_audit_journal(journal_path, ledger=ledger)
        assert (report.records, report.epsilon, report.delta) == (
            len(_CHARGES), total.epsilon, total.delta
        )

    def test_verify_empty_journal_is_clean(self, journal_path):
        AuditJournal(journal_path).close()
        report = verify_audit_journal(journal_path)
        assert report.records == 0

    def test_verify_missing_journal_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            verify_audit_journal(tmp_path / "no_such" / "typo.jsonl")

    def test_budget_check(self, journal_path):
        with AuditJournal(journal_path) as journal:
            _fill(journal, _CHARGES)
        verify_audit_journal(journal_path, budget=PrivacySpec(10.0, 1e-3))
        with pytest.raises(AuditDivergenceError):
            verify_audit_journal(journal_path, budget=PrivacySpec(1.0, 1e-3))


class TestTamperDetection:
    """Each corruption mode maps to its own distinct verifier error."""

    def _written(self, journal_path) -> list[str]:
        with AuditJournal(journal_path) as journal:
            _fill(journal, _CHARGES)
        return journal_path.read_text(encoding="utf-8").splitlines()

    def test_edited_record_is_tampering(self, journal_path):
        lines = self._written(journal_path)
        body = json.loads(lines[2])
        body["epsilon"] = body["epsilon"] * 2  # quietly halve the real spend
        lines[2] = json.dumps(body)
        journal_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(AuditTamperError) as err:
            verify_audit_journal(journal_path)
        assert err.value.kind == "tampered"
        assert err.value.seq == 3

    def test_deleted_record_is_a_gap(self, journal_path):
        lines = self._written(journal_path)
        del lines[1]
        journal_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(AuditGapError) as err:
            verify_audit_journal(journal_path)
        assert err.value.kind == "gap"

    def test_deleted_head_is_a_gap(self, journal_path):
        lines = self._written(journal_path)
        journal_path.write_text("\n".join(lines[1:]) + "\n", encoding="utf-8")
        with pytest.raises(AuditGapError):
            verify_audit_journal(journal_path)

    def test_swapped_records_are_reordering(self, journal_path):
        lines = self._written(journal_path)
        lines[0], lines[1] = lines[1], lines[0]
        journal_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(AuditOrderError) as err:
            verify_audit_journal(journal_path)
        assert err.value.kind == "reordered"

    def test_ledger_divergence(self, journal_path):
        ledger = PrivacyLedger()
        with AuditJournal(journal_path) as journal:
            unsubscribe = journal.attach(ledger)
            for label, epsilon, delta, group in _CHARGES:
                ledger.charge(label, PrivacySpec(epsilon, delta), parallel_group=group)
            unsubscribe()
            # One charge lands in the ledger but never reaches the journal.
            ledger.charge("bypassed", PrivacySpec(0.5, 0.0))
        with pytest.raises(AuditDivergenceError) as err:
            verify_audit_journal(journal_path, ledger=ledger)
        assert err.value.kind == "divergence"

    def test_truncated_tail_vs_ledger_is_divergence(self, journal_path):
        ledger = PrivacyLedger()
        with AuditJournal(journal_path) as journal:
            journal.attach(ledger)
            for label, epsilon, delta, group in _CHARGES:
                ledger.charge(label, PrivacySpec(epsilon, delta), parallel_group=group)
        lines = journal_path.read_text(encoding="utf-8").splitlines()
        journal_path.write_text("\n".join(lines[:-1]) + "\n", encoding="utf-8")
        # The shortened journal is internally consistent (seq 1..4 chain),
        # so only the ledger cross-check can expose the missing tail.
        verify_audit_journal(journal_path)
        with pytest.raises(AuditDivergenceError):
            verify_audit_journal(journal_path, ledger=ledger)


class TestJournalBehaviour:
    def test_detach_stops_recording(self, journal_path):
        ledger = PrivacyLedger()
        with AuditJournal(journal_path) as journal:
            unsubscribe = journal.attach(ledger)
            ledger.charge("kept", PrivacySpec(0.1, 0.0))
            unsubscribe()
            ledger.charge("dropped", PrivacySpec(0.2, 0.0))
        records = read_journal(journal_path)
        assert [record.label for record in records] == ["kept"]

    def test_closed_journal_refuses_records(self, journal_path):
        journal = AuditJournal(journal_path)
        journal.record("a", 0.1, 0.0)
        journal.close()
        with pytest.raises(ValueError):
            journal.record("b", 0.1, 0.0)

    def test_appends_are_line_atomic(self, journal_path):
        with AuditJournal(journal_path) as journal:
            _fill(journal, _CHARGES)
        raw = journal_path.read_text(encoding="utf-8")
        assert raw.endswith("\n")
        fields = {"v", "seq", "label", "epsilon", "delta", "group", "t", "prev", "h"}
        for line in raw.splitlines():
            record = json.loads(line)
            assert set(record) == fields and record["v"] == 2

    def test_existing_journal_is_refused_and_left_untouched(self, journal_path):
        with AuditJournal(journal_path) as journal:
            _fill(journal, _CHARGES)
        before = journal_path.read_bytes()
        with pytest.raises(FileExistsError):
            AuditJournal(journal_path)
        assert journal_path.read_bytes() == before
        verify_audit_journal(journal_path)

    def test_parent_directories_created(self, tmp_path):
        nested = tmp_path / "a" / "b" / "audit.jsonl"
        with AuditJournal(nested) as journal:
            journal.record("x", 0.1, 0.0)
        assert nested.exists()
        assert os.path.isdir(tmp_path / "a" / "b")
