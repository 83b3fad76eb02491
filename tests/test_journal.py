"""Unit tests for the write-ahead log and recovery replay."""

import numpy as np
import pytest

from repro.common import PAGE_SIZE
from repro.core.journal import (
    WalRecord,
    WriteAheadLog,
    _decode,
    _encode,
    _undo_moves,
    recover_journal,
    verify_placement,
)
from repro.sim.pages import MigrationBatch, PageTable
from repro.tasks import DataObject


def table(n_objects=2, pages_each=8, capacity_pages=12) -> PageTable:
    objects = [
        DataObject(f"o{i}", pages_each * PAGE_SIZE) for i in range(n_objects)
    ]
    return PageTable(objects, capacity_pages * PAGE_SIZE, rng=0)


def move(t: PageTable, name: str, pages, dst: int) -> None:
    """Move ``pages`` of object ``name`` to tier ``dst`` (0 DRAM, 1 PM)."""
    t.place(MigrationBatch(moves=((name, np.atleast_1d(np.asarray(pages)), dst),)))


def begin_payload(t: PageTable, **extra) -> dict:
    payload = {
        "region": 0,
        "time_s": 0.0,
        "dram_capacity_bytes": int(t.dram_capacity_bytes),
        "dram_pages": {o.name: o.pages_in(0) for o in t},
        "task_r_dram": {},
    }
    payload.update(extra)
    return payload


class TestRecordCodec:
    def test_roundtrip(self):
        entry = _encode(3, "move", 1, {"cause": "policy", "moves": []})
        record = _decode(entry)
        assert record == WalRecord(3, "move", 1, {"cause": "policy", "moves": []})

    def test_numpy_payload_is_converted(self):
        entry = _encode(
            0,
            "move",
            0,
            {"pages": np.arange(3, dtype=np.intp), "x": np.float64(1.5)},
        )
        record = _decode(entry)
        assert record.payload == {"pages": [0, 1, 2], "x": 1.5}

    def test_flipped_byte_detected(self):
        entry = _encode(0, "epoch_begin", 0, {"region": 0})
        corrupt = entry[:-4] + ("0" if entry[-4] != "0" else "1") + entry[-3:]
        assert _decode(corrupt) is None

    def test_truncated_entry_detected(self):
        entry = _encode(0, "epoch_begin", 0, {"region": 0})
        assert _decode(entry[: len(entry) // 2]) is None
        assert _decode("") is None


class TestWriteAheadLog:
    def test_lsns_are_monotonic(self):
        wal = WriteAheadLog()
        e = wal.begin_epoch({"region": 0, "time_s": 0.0})
        wal.log_moves(e, [], "policy")
        wal.commit_epoch(e, {"time_s": 1.0})
        assert [r.lsn for r in wal.records()] == [0, 1, 2]

    def test_epoch_ids_increase(self):
        wal = WriteAheadLog()
        assert wal.begin_epoch({"region": 0, "time_s": 0.0}) == 0
        assert wal.begin_epoch({"region": 0, "time_s": 0.0}) == 1

    def test_reopen_truncates_torn_tail(self):
        wal = WriteAheadLog()
        e = wal.begin_epoch({"region": 0, "time_s": 0.0})
        wal.append_torn("move", e, {"cause": "policy", "moves": []})
        records, torn = wal.reopen()
        assert torn is True
        assert [r.kind for r in records] == ["epoch_begin"]
        assert len(wal) == 1  # the torn entry is gone from the medium

    def test_reopen_resumes_counters(self):
        wal = WriteAheadLog()
        e = wal.begin_epoch({"region": 0, "time_s": 0.0})
        wal.commit_epoch(e, {"time_s": 1.0})
        wal.reopen()
        # a fresh epoch id and a fresh lsn, never a collision
        assert wal.begin_epoch({"region": 1, "time_s": 1.0}) == 1
        assert wal.records()[-1].lsn == 2


class TestRollback:
    def test_undo_restores_before_images(self):
        t = table()
        obj = t.object("o0")
        moves = [
            WalRecord(
                1,
                "move",
                0,
                {
                    "cause": "policy",
                    "moves": [
                        {
                            "obj": "o0",
                            "pages": [0, 1, 2],
                            "before": [1, 1, 1],
                            "dst": 0,
                        }
                    ],
                },
            )
        ]
        move(t, "o0", [0, 1, 2], 0)
        assert _undo_moves(t, moves) == 3
        assert obj.pages_in(0) == 0 and t.tier_used_pages(0) == 0

    def test_undo_is_exact_for_partial_application(self):
        # crash mid-batch: only page 0 was applied; restoring all
        # before-images is a no-op for the untouched pages
        t = table()
        obj = t.object("o0")
        record = WalRecord(
            1,
            "move",
            0,
            {
                "cause": "policy",
                "moves": [
                    {
                        "obj": "o0",
                        "pages": [0, 1],
                        "before": [1, 1],
                        "dst": 0,
                    }
                ],
            },
        )
        move(t, "o0", 0, 0)  # page 1 never copied
        _undo_moves(t, [record])
        assert obj.pages_in(0) == 0 and t.tier_used_pages(0) == 0

    def test_undo_reverses_batch_order(self):
        # two batches touch the same page: undo must restore the OLDEST
        # before-image last
        t = table()
        obj = t.object("o0")
        first = WalRecord(
            1,
            "move",
            0,
            {
                "cause": "policy",
                "moves": [
                    {"obj": "o0", "pages": [0], "before": [1], "dst": 0}
                ],
            },
        )
        move(t, "o0", 0, 0)
        second = WalRecord(
            2,
            "move",
            0,
            {
                "cause": "pressure",
                "moves": [
                    {"obj": "o0", "pages": [0], "before": [0], "dst": 1}
                ],
            },
        )
        move(t, "o0", 0, 1)
        _undo_moves(t, [first, second])
        assert obj.page_tier[0] == 1


class TestVerifyPlacement:
    def test_clean_placement_passes(self):
        t = table()
        move(t, "o0", np.arange(4), 0)
        assert verify_placement(t, begin_payload(t)) == []

    def test_fractional_residency_allowed_for_memory_mode(self):
        # Memory Mode's share lives at object level and holds no pages
        t = table()
        t.set_dram_shares({"o0": 0.5})
        assert verify_placement(t, begin_payload(t)) == []

    def test_capacity_violation_flagged(self):
        t = table(n_objects=2, pages_each=8, capacity_pages=16)
        for obj in t:
            move(t, obj.name, np.arange(8), 0)
        # 16 pages in DRAM, then the capacity shrinks to 12
        t.capacities_bytes = (12 * PAGE_SIZE,) + t.capacities_bytes[1:]
        violations = verify_placement(t)
        assert any("over capacity" in v for v in violations)

    def test_restoration_mismatch_flagged(self):
        t = table()
        payload = begin_payload(t)
        move(t, "o1", 0, 0)  # drifted from the epoch snapshot
        violations = verify_placement(t, payload)
        assert any("after rollback" in v for v in violations)


class TestRecoverJournal:
    def test_clean_journal_resumes_after_last_commit(self):
        t = table()
        wal = WriteAheadLog()
        e = wal.begin_epoch(begin_payload(t, region=0))
        wal.commit_epoch(e, {"region": 0, "time_s": 5.0})
        outcome = recover_journal(wal, t)
        assert outcome.resume_region == 1
        assert outcome.resume_time_s == 5.0
        assert outcome.open_epoch == -1
        assert outcome.violations == []

    def test_open_epoch_rolled_back_and_resumed(self):
        t = table()
        wal = WriteAheadLog()
        e0 = wal.begin_epoch(begin_payload(t, region=0))
        wal.commit_epoch(e0, {"region": 0, "time_s": 5.0})
        e1 = wal.begin_epoch(begin_payload(t, region=1, time_s=5.0))
        obj = t.object("o0")
        wal.log_moves(
            e1,
            [{"obj": "o0", "pages": [0, 1], "before": [1, 1], "dst": 0}],
            "policy",
        )
        move(t, "o0", [0, 1], 0)
        outcome = recover_journal(wal, t)
        assert outcome.open_epoch == e1
        assert outcome.resume_region == 1
        assert outcome.resume_time_s == 5.0
        assert outcome.rolled_back_pages == 2
        assert obj.pages_in(0) == 0
        assert outcome.violations == []
        assert wal.log.count("journal.rollback") == 1

    def test_empty_journal_restarts_cold(self):
        outcome = recover_journal(WriteAheadLog(), table())
        assert outcome.resume_region == 0
        assert outcome.resume_time_s == 0.0
        assert outcome.last_committed_epoch == -1

    def test_torn_tail_is_truncated_and_safe(self):
        t = table()
        wal = WriteAheadLog()
        e = wal.begin_epoch(begin_payload(t))
        # write-ahead: the torn move's mutation never happened
        wal.append_torn(
            "move",
            e,
            {
                "cause": "policy",
                "moves": [
                    {"obj": "o0", "pages": [0], "before": [1], "dst": 0}
                ],
            },
        )
        outcome = recover_journal(wal, t)
        assert outcome.torn_tail is True
        assert outcome.rolled_back_pages == 0
        assert outcome.violations == []
        assert wal.log.count("journal.torn_tail") == 1

    def test_newest_committed_checkpoint_wins(self):
        t = table()
        wal = WriteAheadLog()
        for region in range(2):
            e = wal.begin_epoch(begin_payload(t, region=region))
            wal.commit_epoch(e, {"region": region, "time_s": float(region + 1)})
            wal.checkpoint(e, {"marker": region})
        e_open = wal.begin_epoch(begin_payload(t, region=2, time_s=2.0))
        wal.checkpoint(e_open, {"marker": "uncommitted"})  # must be ignored
        outcome = recover_journal(wal, t)
        assert outcome.checkpoint_state == {"marker": 1}
        assert wal.log.count("journal.checkpoint_restored") == 1

    def test_no_usable_checkpoint_means_cold(self):
        t = table()
        wal = WriteAheadLog()
        wal.begin_epoch(begin_payload(t, region=0))
        outcome = recover_journal(wal, t)
        assert outcome.checkpoint_state is None

    def test_violation_logged_when_rollback_info_lost(self):
        # a committed-state drift shows up as a restoration mismatch
        t = table()
        wal = WriteAheadLog()
        wal.begin_epoch(begin_payload(t, region=0))
        move(t, "o0", 0, 0)  # mutation with no move record
        outcome = recover_journal(wal, t)
        assert outcome.violations
        assert wal.log.count("journal.invariant_violation") >= 1


class TestReopenAdversarialTails:
    """Tails a *replicated* journal can accumulate: retransmitted
    duplicates, interleaved second writers, torn-then-appended entries."""

    def _journal(self, n_epochs=2):
        journal = WriteAheadLog()
        for k in range(n_epochs):
            epoch = journal.begin_epoch({"region": k, "time_s": float(k)})
            journal.commit_epoch(epoch, {"region": k, "time_s": float(k)})
        return journal

    def test_exact_duplicate_lsn_is_dropped(self):
        journal = self._journal()
        journal.entries.insert(2, journal.entries[1])  # retransmit slipped in
        records, torn = journal.reopen()
        assert not torn
        assert [r.lsn for r in records] == [0, 1, 2, 3]
        assert len(journal.entries) == 4
        assert journal.log.count("journal.duplicate_dropped") == 1
        # appending continues from the deduplicated sequence
        epoch = journal.begin_epoch({"region": 9, "time_s": 9.0})
        journal.commit_epoch(epoch, {"region": 9, "time_s": 9.0})
        assert [r.lsn for r in journal.records()] == [0, 1, 2, 3, 4, 5]

    def test_interleaved_second_writer_truncates_like_a_tear(self):
        # writer B's journal (same LSNs, different content) spliced into
        # writer A's: the regression point is indistinguishable from
        # corruption, so everything from it on is cut
        a = self._journal(3)  # LSNs 0..5
        b = WriteAheadLog()
        epoch = b.begin_epoch({"region": 77, "time_s": 7.0})
        b.commit_epoch(epoch, {"region": 77, "time_s": 7.0})  # LSNs 0..1
        a.entries[4:4] = b.entries  # interleave at LSN 4
        records, torn = a.reopen()
        assert torn
        assert [r.lsn for r in records] == [0, 1, 2, 3]
        assert all(r.payload.get("region") != 77 for r in records)
        assert a.log.count("journal.lsn_regression") == 1

    def test_duplicate_lsn_with_different_content_is_a_tear(self):
        journal = self._journal(2)
        rogue = _encode(1, "epoch_commit", 0, {"region": 99, "time_s": 9.0})
        journal.entries.insert(2, rogue)  # same LSN as entry 1, new content
        records, torn = journal.reopen()
        assert torn
        assert [r.lsn for r in records] == [0, 1]
        assert journal.log.count("journal.lsn_regression") == 1

    def test_torn_tail_then_append_from_a_confused_writer(self):
        # a crashed writer tore entry 3 mid-write; a later (buggy) writer
        # appended past the tear without validating -- reopen must cut at
        # the tear and ignore everything beyond it
        journal = self._journal(3)  # LSNs 0..5
        journal.entries[3] = journal.entries[3][: len(journal.entries[3]) // 2]
        records, torn = journal.reopen()
        assert torn
        assert [r.lsn for r in records] == [0, 1, 2]
        assert len(journal.entries) == 3
        # the reopened journal appends with the next dense LSN
        epoch = journal.begin_epoch({"region": 5, "time_s": 5.0})
        journal.commit_epoch(epoch, {"region": 5, "time_s": 5.0})
        assert [r.lsn for r in journal.records()] == [0, 1, 2, 3, 4]

    def test_duplicate_then_tear_reports_both(self):
        journal = self._journal(3)
        journal.entries.insert(1, journal.entries[0])  # duplicate LSN 0
        journal.entries[-1] = "garbage that cannot decode"
        records, torn = journal.reopen()
        assert torn
        assert [r.lsn for r in records] == [0, 1, 2, 3, 4]
        assert journal.log.count("journal.duplicate_dropped") == 1

    def test_recover_journal_survives_an_interleaved_tail(self):
        # end to end: recovery over an interleaved journal behaves exactly
        # like recovery over a torn one -- replay stops at the regression
        t = table()
        journal = WriteAheadLog()
        epoch = journal.begin_epoch(begin_payload(t))
        journal.commit_epoch(epoch, {"region": 0, "time_s": 0.0})
        rogue = WriteAheadLog()
        e2 = rogue.begin_epoch({"region": 50, "time_s": 5.0})
        rogue.commit_epoch(e2, {"region": 50, "time_s": 5.0})
        journal.entries.extend(rogue.entries)  # LSNs regress at the splice
        outcome = recover_journal(journal, t)
        assert outcome.torn_tail
        assert [r.lsn for r in journal.records()] == [0, 1]
