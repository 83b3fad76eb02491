"""Crash-consistent control plane: WAL-backed transactional migration epochs.

PR 1 made the runtime survive *bad data*; this module makes it survive a
*dead control plane*.  The simulated placement daemon can now be killed at
any tick (see the crash fault models in :mod:`repro.sim.faults`) and come
back with consistent state, because every placement decision flows through
a write-ahead log first:

* ``epoch_begin`` -- one record per migration epoch (one epoch per parallel
  region), carrying the pre-epoch placement snapshot (per-object DRAM page
  counts, per-task DRAM-access fractions, the planner's quota targets);
* ``move`` -- one record per migration batch *before* it is applied,
  carrying each page's tier before the move (its before-image) so an
  uncommitted epoch can be rolled back exactly;
* ``epoch_commit`` -- the epoch's barrier released; its effects are
  durable;
* ``checkpoint`` -- a periodic snapshot of planner state (base profiles,
  alpha table, homogeneous-predictor records, guardrail/watchdog state,
  RNG stream) so recovery resumes *warm* instead of re-profiling cold;
* ``recovered`` -- a recovery marker, so a journal can witness several
  crash/recover cycles.

Records are serialised (canonical JSON) and checksummed, which makes a
*torn tail* -- the control plane dying mid-append -- detectable: replay
validates each record and truncates the log at the first corrupt one.
Because the log is write-ahead, a torn record's mutation never happened,
so truncation is always safe.

The epoch state machine::

    (no epoch) --epoch_begin--> OPEN --epoch_commit--> COMMITTED
                                  |
                                  +-- crash --> rolled back on recovery

Recovery (:func:`recover_journal`) replays the log, rolls back the single
open epoch (restoring every touched page's before-image in reverse order),
verifies placement invariants (:func:`verify_placement`), and reports where
to resume: the open epoch's region with its pre-epoch start time, or the
region after the last committed epoch.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

import numpy as np

from repro.sim.pages import MigrationBatch
from repro.sim.faults import RobustnessLog

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.telemetry import Telemetry
    from repro.sim.pages import PageTable

__all__ = [
    "WalRecord",
    "WriteAheadLog",
    "CrashImage",
    "SimulatedCrash",
    "RecoveryOutcome",
    "recover_journal",
    "verify_placement",
]

def _plain(value):
    """Recursively convert payload data to JSON-encodable plain Python."""
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_plain(v) for v in value.tolist()]
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.bool_,)):
        return bool(value)
    return value


@dataclass(frozen=True)
class WalRecord:
    """One decoded write-ahead-log record."""

    lsn: int
    kind: str  # epoch_begin | move | epoch_commit | checkpoint | recovered
    epoch: int
    payload: dict


def _encode(lsn: int, kind: str, epoch: int, payload: dict) -> str:
    body = json.dumps(
        {"lsn": lsn, "kind": kind, "epoch": epoch, "payload": _plain(payload)},
        sort_keys=True,
    )
    return f"{zlib.crc32(body.encode()):08x} {body}"


def _decode(entry: str) -> WalRecord | None:
    """Decode one serialised record; ``None`` means torn/corrupt."""
    if len(entry) < 10 or entry[8] != " ":
        return None
    crc, body = entry[:8], entry[9:]
    try:
        if int(crc, 16) != zlib.crc32(body.encode()):
            return None
        raw = json.loads(body)
        return WalRecord(
            lsn=int(raw["lsn"]),
            kind=str(raw["kind"]),
            epoch=int(raw["epoch"]),
            payload=dict(raw["payload"]),
        )
    except (ValueError, KeyError, TypeError):
        return None


class WriteAheadLog:
    """The durable medium of the control plane.

    ``entries`` (serialised, checksummed records) and the page table are the
    only state assumed to survive a control-plane crash; everything else is
    reconstructed from them.  ``log`` collects ``journal.*`` robustness
    events (torn tails, rollbacks, invariant violations) that the engine
    merges into ``RunResult.robustness``.
    """

    def __init__(self) -> None:
        self.entries: list[str] = []
        self.log = RobustnessLog()
        #: optional repro.core.telemetry.Telemetry; the engine attaches its
        #: own when both are configured.  ``None`` records nothing.
        self.telemetry: "Telemetry | None" = None
        self._next_lsn = 0
        self._next_epoch = 0

    def __len__(self) -> int:
        return len(self.entries)

    def _count_append(self, kind: str, entry: str) -> None:
        tel = self.telemetry
        if tel is None:
            return
        tel.inc("merch_journal_appends_total", kind=kind)
        tel.inc("merch_journal_bytes_appended_total", len(entry))
        if kind == "checkpoint":
            tel.observe("merch_journal_checkpoint_bytes", len(entry))

    # -- append path ---------------------------------------------------
    def append(self, kind: str, epoch: int, payload: dict) -> WalRecord:
        record = WalRecord(self._next_lsn, kind, epoch, _plain(payload))
        entry = _encode(record.lsn, kind, epoch, record.payload)
        self.entries.append(entry)
        self._next_lsn += 1
        self._count_append(kind, entry)
        return record

    def append_torn(self, kind: str, epoch: int, payload: dict) -> None:
        """A crash mid-append: the record's bytes are cut short on 'disk'.

        Write-ahead ordering means the mutation the record describes has
        NOT been applied yet, so replay may simply truncate it.
        """
        entry = _encode(self._next_lsn, kind, epoch, payload)
        torn = entry[: max(10, len(entry) // 2)]
        self.entries.append(torn)
        self._next_lsn += 1
        self._count_append(kind, torn)

    # -- epoch helpers (the engine's transactional API) ----------------
    def begin_epoch(self, payload: dict) -> int:
        epoch = self._next_epoch
        self._next_epoch += 1
        self.append("epoch_begin", epoch, payload)
        return epoch

    def log_moves(self, epoch: int, moves: list[dict], cause: str) -> None:
        self.append("move", epoch, {"cause": cause, "moves": moves})

    def commit_epoch(self, epoch: int, payload: dict) -> None:
        self.append("epoch_commit", epoch, payload)

    def checkpoint(self, epoch: int, state: dict) -> None:
        self.append("checkpoint", epoch, {"state": state})

    # -- replay path ---------------------------------------------------
    def reopen(self) -> tuple[list[WalRecord], bool]:
        """Validate + decode all records, truncating at the first torn one.

        Returns ``(records, torn_tail_found)`` and resets the internal LSN
        and epoch counters, so the reopened journal keeps appending where
        the crashed incarnation left off.

        Beyond per-record CRCs, the LSN sequence itself is validated --
        the adversarial tails a replicated journal can accumulate:

        * an **exact duplicate** of the previous entry (an idempotent
          retransmission that slipped past the acked-LSN floor) is
          dropped and replay continues;
        * an **LSN regression** with different content (two writers
          interleaved into one journal, or an append racing a truncate)
          is indistinguishable from corruption past that point, so the
          log is truncated there exactly like a torn tail.
        """
        records: list[WalRecord] = []
        kept: list[str] = []
        torn = False
        for entry in self.entries:
            record = _decode(entry)
            if record is None:
                torn = True
                break
            if records:
                last = records[-1]
                if record.lsn == last.lsn and entry == kept[-1]:
                    self.log.record(
                        "journal.duplicate_dropped", 0.0, lsn=record.lsn
                    )
                    continue
                if record.lsn <= last.lsn:
                    self.log.record(
                        "journal.lsn_regression",
                        0.0,
                        expected=last.lsn + 1,
                        got=record.lsn,
                        entries_kept=len(kept),
                    )
                    torn = True
                    break
            records.append(record)
            kept.append(entry)
        self.entries[:] = kept
        self._next_lsn = records[-1].lsn + 1 if records else 0
        begins = [r.epoch for r in records if r.kind == "epoch_begin"]
        self._next_epoch = max(begins) + 1 if begins else 0
        return records, torn

    def records(self) -> list[WalRecord]:
        """Decode without truncating (read-only inspection)."""
        out = []
        for entry in self.entries:
            record = _decode(entry)
            if record is None:
                break
            out.append(record)
        return out


# ----------------------------------------------------------------------
# crash propagation
# ----------------------------------------------------------------------
@dataclass
class CrashImage:
    """What survives a control-plane kill: the journal and the machine's
    page placement (pages stay where the kernel left them)."""

    journal: WriteAheadLog | None
    page_table: "PageTable"
    time_s: float


class SimulatedCrash(RuntimeError):
    """Raised by the engine when an injected kill fault fires."""

    def __init__(self, image: CrashImage) -> None:
        super().__init__(f"control plane killed at t={image.time_s:.3f}s")
        self.image = image


# ----------------------------------------------------------------------
# recovery replay
# ----------------------------------------------------------------------
@dataclass
class RecoveryOutcome:
    """What :func:`recover_journal` reconstructed."""

    resume_region: int
    resume_time_s: float
    last_committed_epoch: int  # -1 when none committed yet
    open_epoch: int  # -1 when the crash fell between epochs
    open_begin_payload: dict | None
    rolled_back_pages: int
    torn_tail: bool
    checkpoint_state: dict | None
    violations: list[str] = field(default_factory=list)


def _undo_moves(page_table: "PageTable", move_records: list[WalRecord]) -> int:
    """Restore before-images of an uncommitted epoch, newest batch first.

    Idempotent and exact: pages the crashed apply never reached are already
    on their before-image tier and do not move.  Each record is restored as
    one batch through the table's write body, so the per-tier counts stay
    exact; the body applies moves toward slower tiers first, so a restore
    never needs more DRAM than the placement before the record held.
    """
    restored = 0
    for record in reversed(move_records):
        moves = []
        for move in record.payload["moves"]:
            idx = np.asarray(move["pages"], dtype=np.intp)
            before = np.asarray(move["before"], dtype=np.int8)
            # a page listed twice would take two pages of the clamp
            moves.extend(
                (move["obj"], np.unique(idx[before == k]), int(k))
                for k in np.unique(before)
            )
            restored += len(idx)
        page_table.place(MigrationBatch(moves=tuple(moves)))
    return restored


def verify_placement(
    page_table: "PageTable", begin_payload: dict | None = None
) -> list[str]:
    """Check the placement invariants; returns human-readable violations.

    1. DRAM capacity is never exceeded;
    2. placement restoration / quota conservation: after a rollback, every
       object holds exactly the DRAM pages it held at epoch begin (hence
       every task's DRAM-access share is conserved too).

    Every page is on exactly one tier by construction (one tier index per
    page), so that needs no check.
    """
    violations: list[str] = []
    used = page_table.dram_used_bytes()
    if used > page_table.dram_capacity_bytes:
        violations.append(
            f"DRAM over capacity: {used} B used of "
            f"{page_table.dram_capacity_bytes} B"
        )
    if begin_payload is not None:
        want = begin_payload.get("dram_pages", {})
        for name, expected in want.items():
            if name not in page_table:
                violations.append(f"object {name!r} vanished from the page table")
                continue
            actual = page_table.object(name).pages_in(0)
            if actual != expected:
                violations.append(
                    f"object {name!r}: {actual} DRAM pages after rollback, "
                    f"epoch began with {expected}"
                )
    return violations


def recover_journal(
    journal: WriteAheadLog, page_table: "PageTable"
) -> RecoveryOutcome:
    """Replay the journal against the surviving page table.

    Discards the uncommitted epoch (if any) by restoring before-images,
    verifies the placement invariants, picks the newest usable checkpoint,
    and reports where execution resumes.  Every step is logged as a
    ``journal.*`` robustness event on ``journal.log``.
    """
    tel = journal.telemetry
    recover_span = (
        tel.tracer.begin("recover", tel.tracer.wall_now(), track="wall")
        if tel is not None
        else None
    )
    wall_start = tel.tracer.wall_now() if tel is not None else 0.0

    records, torn = journal.reopen()
    if torn:
        journal.log.record("journal.torn_tail", 0.0, entries_kept=len(records))

    begins: dict[int, WalRecord] = {}
    commits: dict[int, WalRecord] = {}
    moves: dict[int, list[WalRecord]] = {}
    checkpoints: list[WalRecord] = []
    for record in records:
        if record.kind == "epoch_begin":
            # a region re-begun after an earlier crash gets a fresh epoch
            # id, so ids never collide
            begins[record.epoch] = record
            moves.setdefault(record.epoch, [])
        elif record.kind == "epoch_commit":
            commits[record.epoch] = record
        elif record.kind == "move":
            moves.setdefault(record.epoch, []).append(record)
        elif record.kind == "checkpoint":
            checkpoints.append(record)

    committed = [e for e in begins if e in commits]
    last_committed = max(committed) if committed else -1
    open_epochs = sorted(e for e in begins if e not in commits)
    open_epoch = open_epochs[-1] if open_epochs else -1
    open_begin = begins[open_epoch].payload if open_epoch >= 0 else None

    rolled_back = 0
    if open_epoch >= 0:
        rolled_back = _undo_moves(page_table, moves.get(open_epoch, []))
        journal.log.record(
            "journal.rollback",
            float(open_begin.get("time_s", 0.0)),
            epoch=open_epoch,
            region=int(open_begin.get("region", -1)),
            pages=rolled_back,
        )

    violations = verify_placement(page_table, open_begin)
    for text in violations:
        journal.log.record("journal.invariant_violation", 0.0, detail_text=text)

    # newest checkpoint belonging to a committed epoch
    checkpoint_state = None
    for record in reversed(checkpoints):
        if record.epoch <= last_committed:
            checkpoint_state = record.payload["state"]
            journal.log.record(
                "journal.checkpoint_restored", 0.0, epoch=record.epoch
            )
            break

    if open_begin is not None:
        resume_region = int(open_begin["region"])
        resume_time = float(open_begin["time_s"])
    elif last_committed >= 0:
        commit = commits[last_committed]
        resume_region = int(begins[last_committed].payload["region"]) + 1
        resume_time = float(commit.payload["time_s"])
    else:
        resume_region = 0
        resume_time = 0.0

    if tel is not None:
        tel.inc("merch_journal_recoveries_total")
        tel.inc("merch_journal_rollback_pages_total", rolled_back)
        tel.observe(
            "merch_journal_recovery_wall_seconds",
            tel.tracer.wall_now() - wall_start,
        )
        recover_span.args.update(
            resume_region=resume_region,
            rolled_back_pages=rolled_back,
            torn_tail=torn,
            warm=checkpoint_state is not None,
        )
        tel.tracer.end(recover_span, tel.tracer.wall_now())

    return RecoveryOutcome(
        resume_region=resume_region,
        resume_time_s=resume_time,
        last_committed_epoch=last_committed,
        open_epoch=open_epoch,
        open_begin_payload=open_begin,
        rolled_back_pages=rolled_back,
        torn_tail=torn,
        checkpoint_state=checkpoint_state,
        violations=violations,
    )
