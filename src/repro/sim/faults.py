"""Seeded, composable fault injection for the simulated runtime.

Real heterogeneous-memory runtimes live on imperfect information: PEBS
windows get dropped under interrupt pressure, PTE accessed-bit scans race
with the applications they observe, PMC multiplexing returns stale or
garbage counts, ``move_pages`` batches fail halfway, PM bandwidth sags when
a neighbour saturates the DIMMs, and applications misreport object sizes to
the registration API.  The paper's premise is that placement systems must
behave sensibly under exactly these conditions, so the simulator makes
every one of them injectable.

A single :class:`FaultInjector` is owned by the engine and consulted by the
tick loop and by every profiler.  All draws come from one seeded generator,
so a faulty run is exactly as reproducible as a clean one.  Every injected
fault is recorded as a typed :class:`RobustnessEvent` ("fault.*" kinds);
guardrails (see :mod:`repro.core.guardrails`) log their reactions into the
same event vocabulary ("guardrail.*" kinds), and the engine surfaces both
through :class:`~repro.sim.engine.RunResult`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from typing import Mapping

import numpy as np

from repro.common import PAGE_SIZE, make_rng

__all__ = [
    "FaultConfig",
    "FaultInjector",
    "RobustnessEvent",
    "RobustnessLog",
    "RobustnessReport",
]


# ----------------------------------------------------------------------
# structured event log (shared vocabulary for faults and guardrails)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RobustnessEvent:
    """One typed robustness occurrence: an injected fault or a guardrail
    reaction.  ``kind`` is namespaced: ``fault.*`` or ``guardrail.*``."""

    kind: str
    time_s: float
    detail: dict[str, object] = field(default_factory=dict)


class RobustnessLog:
    """Append-only event list plus per-kind counters."""

    def __init__(self) -> None:
        self.events: list[RobustnessEvent] = []
        self.counters: dict[str, int] = {}

    def record(self, kind: str, time_s: float = 0.0, **detail: object) -> None:
        self.events.append(RobustnessEvent(kind=kind, time_s=time_s, detail=detail))
        self.counters[kind] = self.counters.get(kind, 0) + 1

    def count(self, kind: str) -> int:
        return self.counters.get(kind, 0)

    def clear(self) -> None:
        self.events.clear()
        self.counters.clear()


@dataclass
class RobustnessReport:
    """The merged fault + guardrail record of one engine run.

    Carried on :class:`~repro.sim.engine.RunResult` so experiments and
    tests can assert on guardrail behaviour without reaching into policy
    internals.
    """

    events: list[RobustnessEvent] = field(default_factory=list)
    counters: dict[str, int] = field(default_factory=dict)

    @classmethod
    def merged(cls, *logs: RobustnessLog | None) -> "RobustnessReport":
        events: list[RobustnessEvent] = []
        counters: dict[str, int] = {}
        for log in logs:
            if log is None:
                continue
            events.extend(log.events)
            for kind, n in log.counters.items():
                counters[kind] = counters.get(kind, 0) + n
        events.sort(key=lambda e: e.time_s)
        return cls(events=events, counters=counters)

    # -- convenience filters -------------------------------------------
    def fault_events(self) -> list[RobustnessEvent]:
        return [e for e in self.events if e.kind.startswith("fault.")]

    def guardrail_events(self) -> list[RobustnessEvent]:
        return [e for e in self.events if e.kind.startswith("guardrail.")]

    def guardrail_counters(self) -> dict[str, int]:
        return {k: v for k, v in self.counters.items() if k.startswith("guardrail.")}

    def count(self, kind: str) -> int:
        return self.counters.get(kind, 0)


# ----------------------------------------------------------------------
# fault models
# ----------------------------------------------------------------------
#: the places a kill can land: the engine consults "tick", "mid_batch" and
#: "wal_append", the placement server "service_batch"
CRASH_POINTS = ("tick", "mid_batch", "wal_append", "service_batch")


@dataclass(frozen=True)
class FaultConfig:
    """Rates and magnitudes of every injectable fault (all off by default).

    Rates are per-opportunity probabilities: per PEBS window, per PTE scan,
    per PMC read, per migration batch, per engine tick, per size lookup.
    ``start_s``/``end_s`` bound the virtual-time window in which faults are
    live, so experiments can model transient disturbances (and demonstrate
    recovery once the window closes).
    """

    # -- sampling-profiler faults --------------------------------------
    #: probability a whole PEBS window is dropped (counts lost)
    pebs_drop_rate: float = 0.0
    #: probability a PEBS window is delivered twice (counts double)
    pebs_duplicate_rate: float = 0.0
    #: per-scan probability that a fraction of PTE samples is lost
    pte_drop_rate: float = 0.0
    #: per-scan probability that sampled counts are double-counted
    pte_duplicate_rate: float = 0.0
    #: fraction of a scan's sampled pages affected when a PTE fault fires
    pte_fault_fraction: float = 0.5

    # -- PMC faults ----------------------------------------------------
    #: probability a PMC read returns the previous read (stale multiplexing)
    pmc_stale_rate: float = 0.0
    #: probability a PMC read comes back corrupted (wild scales, NaN)
    pmc_corrupt_rate: float = 0.0
    #: fraction of events scrambled in a corrupted read
    pmc_corrupt_fraction: float = 0.25
    #: chance a corrupted event is NaN rather than wildly scaled
    pmc_nan_chance: float = 0.2

    # -- migration faults ----------------------------------------------
    #: per-batch probability that part of the batch fails mid-copy
    migration_fail_rate: float = 0.0
    #: per-batch probability that the kernel rejects the whole batch
    migration_reject_rate: float = 0.0

    # -- environment faults --------------------------------------------
    #: per-tick probability that a PM-bandwidth degradation window starts
    pm_bw_degradation_rate: float = 0.0
    #: bandwidth multiplier while degraded (0.5 = half bandwidth)
    pm_bw_degradation_factor: float = 0.5
    #: length of a degradation window in virtual seconds
    pm_bw_degradation_duration_s: float = 0.25
    #: per-tick probability that a DRAM capacity-pressure spike starts
    dram_pressure_rate: float = 0.0
    #: fraction of DRAM capacity stolen by the spike
    dram_pressure_fraction: float = 0.25
    #: length of a pressure spike in virtual seconds
    dram_pressure_duration_s: float = 0.25

    # -- API faults ----------------------------------------------------
    #: per-object probability that ``LB_HM_config`` sizes are misreported
    object_size_error_rate: float = 0.0
    #: misreport magnitude (reported = true * factor or true / factor)
    object_size_error_factor: float = 8.0

    # -- wire (network transport) faults -------------------------------
    #: per-reply probability the frame is torn mid-payload and the
    #: connection dropped (a torn write: the client sees a truncated frame)
    wire_torn_frame_rate: float = 0.0
    #: per-reply probability the CRC32 trailer is corrupted in flight
    wire_corrupt_rate: float = 0.0
    #: per-reply probability the peer stalls before replying
    wire_stall_rate: float = 0.0
    #: length of one injected stall in wall seconds
    wire_stall_s: float = 0.05
    #: per-reply probability the connection dies before any reply bytes
    wire_disconnect_rate: float = 0.0

    # -- crash/kill faults ---------------------------------------------
    #: kill the control plane at the Nth occurrence (1-based) of
    #: ``crash_point``; ``None`` disables crashing.  Unlike the rate-based
    #: faults above, a kill fires exactly once per injector.
    crash_at: int | None = None
    #: where the kill lands (one of :data:`CRASH_POINTS`): "tick" (top of
    #: an engine tick), "mid_batch" (half a migration batch copied, the
    #: rest lost), "wal_append" (mid-write of a journal record) or
    #: "service_batch" (a placement-service planning worker dies)
    crash_point: str = "tick"
    #: with ``crash_point="wal_append"``: tear the record being written
    #: (partial bytes on disk) instead of dying just after the write
    crash_torn_tail: bool = False

    # -- activity window -----------------------------------------------
    start_s: float = 0.0
    end_s: float = math.inf

    def __post_init__(self) -> None:
        if self.crash_point not in CRASH_POINTS:
            raise ValueError(
                f"unknown crash_point {self.crash_point!r}; "
                f"expected one of {CRASH_POINTS}"
            )
        if self.crash_at is not None and self.crash_at < 1:
            raise ValueError(f"crash_at is 1-based, got {self.crash_at}")

    @property
    def any_enabled(self) -> bool:
        return any(getattr(self, name) > 0.0 for name in RATE_FIELDS)

    def scaled(self, severity: float) -> "FaultConfig":
        """This config with every rate multiplied by ``severity``."""
        rates = {
            name: min(1.0, getattr(self, name) * severity) for name in RATE_FIELDS
        }
        return replace(self, **rates)


#: every per-opportunity probability of :class:`FaultConfig`
RATE_FIELDS = tuple(f.name for f in fields(FaultConfig) if f.name.endswith("_rate"))


class FaultInjector:
    """Draws faults from one seeded stream and logs every injection.

    The injector is stateless across runs only if :meth:`reset` is called
    (or a fresh injector is built per run, which is what the robustness
    experiment does): PMC staleness and the environment fault windows are
    genuinely stateful within a run.
    """

    def __init__(self, config: FaultConfig, seed=None) -> None:
        self.config = config
        self._rng = make_rng(seed)
        self.log = RobustnessLog()
        self._last_pmcs: dict[str, float] | None = None
        self._pm_bw_until_s = -math.inf
        self._dram_pressure_until_s = -math.inf
        self._dram_pressure_bytes = 0
        self._crash_count = 0
        self._crash_fired = False

    # ------------------------------------------------------------------
    def reset(self) -> None:
        self.log.clear()
        self._last_pmcs = None
        self._pm_bw_until_s = -math.inf
        self._dram_pressure_until_s = -math.inf
        self._dram_pressure_bytes = 0
        self._crash_count = 0
        self._crash_fired = False

    def _active(self, now: float) -> bool:
        return self.config.start_s <= now <= self.config.end_s

    def _fire(self, rate: float, now: float) -> bool:
        return rate > 0.0 and self._active(now) and self._rng.random() < rate

    # ------------------------------------------------------------------
    # profiler faults
    # ------------------------------------------------------------------
    def corrupt_window_counts(
        self, counts: dict[str, float], now: float, source: str = "pebs"
    ) -> tuple[dict[str, float], bool]:
        """Apply drop/duplicate faults to one sampling window's per-object
        counts.  Returns (possibly-corrupted counts, fault-flagged?).

        Used for PEBS refinement windows and for the hybrid base-input
        profile (both are event-sampled count windows).
        """
        if self._fire(self.config.pebs_drop_rate, now):
            self.log.record(f"fault.{source}_drop", now, objects=len(counts))
            return ({k: 0.0 for k in counts}, True)
        if self._fire(self.config.pebs_duplicate_rate, now):
            self.log.record(f"fault.{source}_duplicate", now, objects=len(counts))
            return ({k: 2.0 * v for k, v in counts.items()}, True)
        return (counts, False)

    def corrupt_pte_scan(
        self, obj: np.ndarray, pages: np.ndarray, counts: np.ndarray, now: float
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Drop or double-count a fraction of one PTE scan's samples.

        The scan is flat (each sample's object number, page and count); one
        draw covers every sample, the same stream as one draw per object
        in order.
        """
        frac = self.config.pte_fault_fraction
        if self._fire(self.config.pte_drop_rate, now):
            self.log.record("fault.pte_drop", now, fraction=frac)
            keep = self._rng.random(len(pages)) >= frac
            return obj[keep], pages[keep], counts[keep]
        if self._fire(self.config.pte_duplicate_rate, now):
            self.log.record("fault.pte_duplicate", now, fraction=frac)
            dup = self._rng.random(len(pages)) < frac
            boosted = counts.copy()
            boosted[dup] *= 2.0
            return obj, pages, boosted
        return obj, pages, counts

    def corrupt_region_estimates(self, estimates: list, now: float) -> list:
        """Drop a fraction of Thermostat region estimates (reuses the PTE
        drop rate: both are accessed-bit scans)."""
        if not self._fire(self.config.pte_drop_rate, now):
            return estimates
        self.log.record("fault.thermostat_drop", now, regions=len(estimates))
        keep = self._rng.random(len(estimates)) >= self.config.pte_fault_fraction
        return [est for est, k in zip(estimates, keep) if k]

    # ------------------------------------------------------------------
    # PMC faults
    # ------------------------------------------------------------------
    def corrupt_pmc_read(
        self, pmcs: dict[str, float], now: float
    ) -> dict[str, float]:
        """Stale or corrupted performance-counter reads.

        Stale reads return the *previous* read (counter-multiplexing lag);
        corrupted reads scramble a fraction of events with wild scale
        factors or NaN.  The true read always becomes the next "previous".
        """
        out = pmcs
        if self._fire(self.config.pmc_stale_rate, now) and self._last_pmcs is not None:
            self.log.record("fault.pmc_stale", now)
            out = dict(self._last_pmcs)
        elif self._fire(self.config.pmc_corrupt_rate, now):
            out = dict(pmcs)
            names = list(out)
            n_bad = max(1, int(round(self.config.pmc_corrupt_fraction * len(names))))
            bad = self._rng.choice(len(names), size=n_bad, replace=False)
            n_nan = 0
            for i in bad:
                if self._rng.random() < self.config.pmc_nan_chance:
                    out[names[i]] = float("nan")
                    n_nan += 1
                else:
                    out[names[i]] *= float(self._rng.uniform(20.0, 200.0))
            self.log.record("fault.pmc_corrupt", now, events=n_bad, nans=n_nan)
        self._last_pmcs = dict(pmcs)
        return out

    # ------------------------------------------------------------------
    # migration faults
    # ------------------------------------------------------------------
    def migration_outcome(self, batch, now: float):
        """Split a requested :class:`MigrationBatch` into (applied, failed).

        Either part may be ``None``.  A *rejected* batch fails entirely
        (kernel returned EBUSY for the whole request); a *partially failed*
        batch loses a random subset of its pages mid-copy.  Both halves of
        a split keep each move's destination tier.
        """
        from repro.sim.pages import MigrationBatch

        if self._fire(self.config.migration_reject_rate, now):
            self.log.record("fault.migration_reject", now, pages=batch.n_pages)
            return None, batch
        if not self._fire(self.config.migration_fail_rate, now):
            return batch, None
        fail_frac = float(self._rng.uniform(0.3, 0.9))
        applied_moves: list[tuple[str, np.ndarray, int]] = []
        failed_moves: list[tuple[str, np.ndarray, int]] = []
        for name, idx, dst in batch.moves:
            lost = self._rng.random(len(idx)) < fail_frac
            if (~lost).any():
                applied_moves.append((name, idx[~lost], dst))
            if lost.any():
                failed_moves.append((name, idx[lost], dst))
        failed = MigrationBatch(tuple(failed_moves)) if failed_moves else None
        applied = MigrationBatch(tuple(applied_moves)) if applied_moves else None
        self.log.record(
            "fault.migration_partial",
            now,
            pages_failed=failed.n_pages if failed else 0,
            pages_applied=applied.n_pages if applied else 0,
        )
        return applied, failed

    # ------------------------------------------------------------------
    # wire (network transport) faults
    # ------------------------------------------------------------------
    def wire_fault(self, now: float) -> str | None:
        """Draw the fate of one outgoing transport reply.

        Returns one of ``"torn_frame"`` (frame cut mid-payload, connection
        dropped), ``"corrupt_crc"`` (CRC32 trailer flipped in flight),
        ``"stall"`` (reply delayed by ``wire_stall_s``), ``"disconnect"``
        (connection dies before any reply bytes), or ``None`` (healthy).
        At most one fault fires per reply; the draw order is fixed so a
        seeded stream stays reproducible.
        """
        if self._fire(self.config.wire_torn_frame_rate, now):
            self.log.record("fault.wire_torn_frame", now)
            return "torn_frame"
        if self._fire(self.config.wire_corrupt_rate, now):
            self.log.record("fault.wire_corrupt_crc", now)
            return "corrupt_crc"
        if self._fire(self.config.wire_stall_rate, now):
            self.log.record(
                "fault.wire_stall", now, stall_s=self.config.wire_stall_s
            )
            return "stall"
        if self._fire(self.config.wire_disconnect_rate, now):
            self.log.record("fault.wire_disconnect", now)
            return "disconnect"
        return None

    # ------------------------------------------------------------------
    # crash/kill faults
    # ------------------------------------------------------------------
    def crash_due(self, point: str, now: float) -> bool:
        """Whether the control plane dies at this ``point`` occurrence.

        The engine and the placement server consult this at the
        :data:`CRASH_POINTS`; occurrences of the configured point are
        counted and the kill fires once, at the ``crash_at``-th one.
        """
        cfg = self.config
        if cfg.crash_at is None or self._crash_fired or cfg.crash_point != point:
            return False
        self._crash_count += 1
        if self._crash_count < cfg.crash_at:
            return False
        self._crash_fired = True
        self.log.record(
            "fault.crash_kill",
            now,
            point=point,
            occurrence=self._crash_count,
            torn_tail=cfg.crash_torn_tail,
        )
        return True

    @property
    def crash_fired(self) -> bool:
        return self._crash_fired

    # ------------------------------------------------------------------
    # environment faults
    # ------------------------------------------------------------------
    def pm_bandwidth_factor(self, now: float) -> float:
        """Current PM bandwidth multiplier (1.0 when healthy).

        On an N-tier topology the engine applies it to the slowest tier,
        the PM of the 2-tier fault model.
        """
        if now <= self._pm_bw_until_s:
            return self.config.pm_bw_degradation_factor
        if self._fire(self.config.pm_bw_degradation_rate, now):
            self._pm_bw_until_s = now + self.config.pm_bw_degradation_duration_s
            self.log.record(
                "fault.pm_bw_degraded",
                now,
                factor=self.config.pm_bw_degradation_factor,
                until_s=self._pm_bw_until_s,
            )
            return self.config.pm_bw_degradation_factor
        return 1.0

    def dram_pressure_bytes(self, now: float, capacity_bytes: int) -> int:
        """Bytes of DRAM currently stolen by an external pressure spike.

        On an N-tier topology the engine passes, and steals from, the
        fastest tier's capacity.
        """
        if now <= self._dram_pressure_until_s:
            return self._dram_pressure_bytes
        if self._fire(self.config.dram_pressure_rate, now):
            stolen = int(self.config.dram_pressure_fraction * capacity_bytes)
            stolen = (stolen // PAGE_SIZE) * PAGE_SIZE
            self._dram_pressure_until_s = now + self.config.dram_pressure_duration_s
            self._dram_pressure_bytes = stolen
            self.log.record(
                "fault.dram_pressure",
                now,
                bytes=stolen,
                until_s=self._dram_pressure_until_s,
            )
            return stolen
        self._dram_pressure_bytes = 0
        return 0

    # ------------------------------------------------------------------
    # API faults
    # ------------------------------------------------------------------
    def corrupt_object_sizes(
        self, sizes: Mapping[str, int], now: float
    ) -> dict[str, int]:
        """Misreport per-object sizes from the ``LB_HM_config`` contract."""
        rate = self.config.object_size_error_rate
        if rate <= 0.0 or not self._active(now):
            return dict(sizes)
        out: dict[str, int] = {}
        factor = self.config.object_size_error_factor
        for name, size in sizes.items():
            if self._rng.random() < rate:
                scale = factor if self._rng.random() < 0.5 else 1.0 / factor
                out[name] = max(1, int(size * scale))
                self.log.record(
                    "fault.object_size_misreport", now, object=name, scale=scale
                )
            else:
                out[name] = int(size)
        return out
