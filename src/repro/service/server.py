"""The placement server: admission -> batching -> cache -> plan.

:class:`PlacementServer` is the facade gluing the service subsystem
together.  One instance owns

* an :class:`~repro.service.admission.AdmissionController` guarding a
  bounded intake queue (overload is *answered* with a degrade-to-daemon
  decision, never dropped),
* a :class:`~repro.service.scheduler.BatchScheduler` coalescing admitted
  requests and arbitrating the one shared DRAM budget,
* an optional :class:`~repro.service.cache.PredictionCache` of decisions
  keyed by (region fingerprint, input size, quota bucket), invalidated
  explicitly on alpha refinement / guardrail quarantine via
  :meth:`invalidate_region`,
* an optional :class:`~repro.sim.faults.FaultInjector` consulted at the
  ``service_batch`` crash point: a worker crash mid-batch is retried
  once, then the batch's requests are shed -- decided either way (the
  never-lost invariant, tested by the chaos case).

The server is clock-injectable.  Production uses ``time.monotonic``; the
``service_load`` experiment and the batching tests drive a virtual clock,
submitting with :meth:`submit` and firing batches with :meth:`pump` /
:meth:`flush`.
"""

from __future__ import annotations

import dataclasses
import time
from typing import TYPE_CHECKING, Callable, Sequence

from repro.sim.faults import RobustnessLog
from repro.service.admission import AdmissionConfig, AdmissionController
from repro.service.cache import PredictionCache
from repro.service.protocol import (
    PlacementDecision,
    PlacementRequest,
    daemon_decision,
)
from repro.service.scheduler import BatchScheduler, PendingRequest

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.model import PerformanceModel
    from repro.core.telemetry import Telemetry
    from repro.replay.recorder import FlightRecorder
    from repro.sim.faults import FaultInjector

__all__ = ["PlacementServer", "WorkerCrashed"]


class WorkerCrashed(RuntimeError):
    """A planning worker died mid-batch (injected via sim.faults)."""


class PlacementServer:
    """Batched, cached, load-shedding front-end over Algorithm 1."""

    def __init__(
        self,
        model: "PerformanceModel",
        dram_capacity_bytes: int,
        window_s: float = 0.005,
        max_batch: int = 32,
        step: float = 0.05,
        cache: PredictionCache | None = None,
        admission: AdmissionConfig | None = None,
        telemetry: "Telemetry | None" = None,
        clock: Callable[[], float] | None = None,
        faults: "FaultInjector | None" = None,
        max_batch_retries: int = 1,
        recorder: "FlightRecorder | None" = None,
    ) -> None:
        self.clock = clock or time.monotonic
        self.telemetry = telemetry
        self.log = RobustnessLog()
        self.cache = cache
        self.scheduler = BatchScheduler(
            model,
            dram_capacity_bytes,
            window_s=window_s,
            max_batch=max_batch,
            step=step,
            cache=cache,
            telemetry=telemetry,
        )
        self.admission = AdmissionController(
            admission, log=self.log, telemetry=telemetry
        )
        self.faults = faults
        self.max_batch_retries = max_batch_retries
        #: opt-in flight recorder journaling the command stream
        #: (request/fire/decision) for deterministic replay
        self.recorder = recorder
        #: requests accepted / decided (the never-lost invariant is
        #: ``submitted == decided`` once the queue is drained)
        self.submitted = 0
        self.decided = 0
        #: wall seconds spent inside plan_batch, per fired batch
        self.batch_wall_s: list[float] = []

    # ------------------------------------------------------------------
    # intake
    # ------------------------------------------------------------------
    def submit(
        self, request: PlacementRequest, now: float | None = None
    ) -> PlacementDecision | None:
        """Admit one request.

        Returns ``None`` when the request was queued (a later
        :meth:`pump`/:meth:`flush` decides it), or the immediate *shed*
        decision when admission control is saturated.
        """
        now = self.clock() if now is None else now
        self.submitted += 1
        if self.recorder is not None:
            self.recorder.record_request(request, now)
        if not self.admission.admit(self.scheduler.pending_depth, now):
            decision = self._daemon_decision(request)
            self._finish([decision], now)
            return decision
        request = dataclasses.replace(request, arrival_s=now)
        self.scheduler.submit(request, now)
        return None

    # ------------------------------------------------------------------
    # batch firing
    # ------------------------------------------------------------------
    def pump(self, now: float | None = None) -> list[PlacementDecision]:
        """Fire every batch due at ``now``; returns their decisions."""
        now = self.clock() if now is None else now
        if self.recorder is not None and self.scheduler.due(now):
            self.recorder.record_fire("pump", now)
        batches: list[list[PendingRequest]] = []
        while self.scheduler.due(now):
            batches.append(self.scheduler.take_batch())
        return self._execute(batches, now)

    def step(self, now: float | None = None) -> list[PlacementDecision]:
        """Fire at most one batch (the oldest), window elapsed or not.

        The single-worker integration point: an external event loop (the
        ``service_load`` queueing simulation, or a real serving loop) pops
        one batch per free worker and charges its service time itself.
        """
        now = self.clock() if now is None else now
        if not self.scheduler.pending_depth:
            return []
        if self.recorder is not None:
            self.recorder.record_fire("step", now)
        return self._execute([self.scheduler.take_batch()], now)

    def flush(self, now: float | None = None) -> list[PlacementDecision]:
        """Fire everything still pending, window elapsed or not."""
        now = self.clock() if now is None else now
        if self.recorder is not None and self.scheduler.pending_depth:
            self.recorder.record_fire("flush", now)
        batches: list[list[PendingRequest]] = []
        while self.scheduler.pending_depth:
            batches.append(self.scheduler.take_batch())
        return self._execute(batches, now)

    def request(
        self, request: PlacementRequest, now: float | None = None
    ) -> PlacementDecision:
        """Synchronous convenience: submit, then decide immediately."""
        now = self.clock() if now is None else now
        shed = self.submit(request, now)
        if shed is not None:
            return shed
        for decision in self.flush(now):
            if decision.request_id == request.request_id:
                return decision
        raise RuntimeError(  # pragma: no cover - flush always answers
            f"request {request.request_id!r} was not decided"
        )

    # ------------------------------------------------------------------
    # cache invalidation hooks (wired to refinement / quarantine events)
    # ------------------------------------------------------------------
    def invalidate_region(self, region_fingerprint: str, reason: str = "") -> int:
        """Drop cached decisions for one region (alpha refinement or
        guardrail quarantine made them stale); returns the entry count."""
        if self.cache is None:
            return 0
        dropped = self.cache.invalidate_tag(region_fingerprint)
        if dropped:
            self.log.record(
                "service.cache_invalidated",
                self.clock(),
                region=region_fingerprint,
                reason=reason or "unspecified",
                entries=dropped,
            )
        return dropped

    def on_alpha_refined(self, region_fingerprint: str) -> int:
        return self.invalidate_region(region_fingerprint, "alpha_refinement")

    def on_quarantine(self, region_fingerprint: str) -> int:
        return self.invalidate_region(region_fingerprint, "guardrail_quarantine")

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _execute(
        self, batches: Sequence[list[PendingRequest]], now: float
    ) -> list[PlacementDecision]:
        if not batches:
            return []
        decisions: list[PlacementDecision] = []
        for batch in batches:
            try:
                decisions.extend(self._plan_one(batch, now))
            except Exception:
                decisions.extend(self._recover_batch(batch, now))
        self._finish(decisions, now)
        return decisions

    def _plan_one(
        self, batch: list[PendingRequest], now: float
    ) -> list[PlacementDecision]:
        if self.faults is not None and self.faults.crash_due(
            "service_batch", now
        ):
            raise WorkerCrashed(f"worker crashed planning a {len(batch)}-request batch")
        t0 = time.perf_counter()
        out = self.scheduler.plan_batch(batch, now)
        self.batch_wall_s.append(time.perf_counter() - t0)
        # admission-to-decision latency on the server's clock (a virtual
        # clock reads as queue wait + window; wall clocks add compute time)
        done = self.clock()
        return [
            dataclasses.replace(
                dec, latency_s=max(done - entry.admitted_s, 0.0)
            )
            for entry, dec in zip(batch, out)
        ]

    def _recover_batch(
        self, batch: list[PendingRequest], now: float
    ) -> list[PlacementDecision]:
        """Crash recovery: retry the batch, then shed it -- never lose it."""
        self.log.record(
            "service.batch_crashed", now, requests=len(batch)
        )
        for _ in range(self.max_batch_retries):
            try:
                retried = self._plan_one(batch, now)
            except Exception:
                continue
            self.log.record(
                "service.batch_retried", now, requests=len(batch)
            )
            return retried
        # retries exhausted: answer every request with the daemon fallback
        if self.telemetry is not None:
            for _ in batch:
                self.telemetry.inc("merch_service_shed_total")
        for entry in batch:
            self.log.record(
                "service.shed",
                now,
                queue_depth=self.scheduler.pending_depth,
                cause="worker_crash",
            )
        return [self._daemon_decision(entry.request) for entry in batch]

    def _daemon_decision(self, request: PlacementRequest) -> PlacementDecision:
        """The shed answer: no quotas, fall back to the hot-page daemon
        (exactly the degraded mode of the PR-1 misprediction watchdog)."""
        return daemon_decision(request)

    def _finish(self, decisions: list[PlacementDecision], now: float) -> None:
        self.decided += len(decisions)
        if self.recorder is not None:
            for dec in decisions:
                self.recorder.record_decision(dec, now)
        if self.telemetry is None:
            return
        for dec in decisions:
            if dec.status == "shed":
                self.telemetry.inc(
                    "merch_service_requests_total", status="shed"
                )
            self.telemetry.observe(
                "merch_service_request_latency_seconds", max(dec.latency_s, 0.0)
            )
