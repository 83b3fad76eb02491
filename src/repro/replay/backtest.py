"""Shadow A/B backtesting: one recording, many candidate configs.

The backtester extracts the **arrival schedule** (request envelopes +
timestamps) from a flight recording and re-runs it through the
single-worker virtual-time queueing loop (:func:`run_queue`, which the
``service_load`` and ``replay_gate`` experiments drive too) -- once per
named config.  Where ``service_load`` charges *measured
wall seconds* per planner call (host-dependent, the point of a load
test), the backtester charges a deterministic :class:`CostModel`: the
same recording backtested twice, anywhere, produces byte-identical SLO
reports, which is what lets CI compare runs across machines.

Per config the report carries the gate's SLO surface: p50/p95/mean
virtual latency, shed rate, throughput, migration volume (total DRAM
pages granted), and the DRAM-quota high-water mark (max pages granted by
any single fired batch -- the instantaneous pressure a candidate puts on
the shared budget).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Mapping, Sequence

import numpy as np

from repro.replay.config import ServiceConfig, VirtualClock, build_server
from repro.replay.recorder import Recording
from repro.service.protocol import (
    PlacementDecision,
    PlacementRequest,
    decode_request,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.model import PerformanceModel
    from repro.core.telemetry import Telemetry
    from repro.service.server import PlacementServer

__all__ = [
    "CostModel",
    "QueueRun",
    "arrivals_from_recording",
    "backtest",
    "run_queue",
]


@dataclass(frozen=True)
class CostModel:
    """Deterministic virtual service time for one fired batch.

    A batch that plans anything pays one planner-call overhead
    (``plan_call_s``) plus ``per_task_s`` per freshly-planned task;
    cache hits and in-batch dedups cost ``cached_s`` each; admission
    sheds are free (the daemon fallback needs no planner).  The defaults
    approximate the measured shape of the real planner (call overhead
    dominates; cached answers are ~100x cheaper) without depending on it.
    """

    plan_call_s: float = 0.015
    per_task_s: float = 0.0005
    cached_s: float = 0.0002

    def batch_service_s(self, decisions: Sequence) -> float:
        planned_tasks = sum(
            len(dec.placements) for dec in decisions if dec.status == "planned"
        )
        cheap = sum(
            1 for dec in decisions if dec.status in ("cached", "deduplicated")
        )
        service = self.cached_s * cheap
        if planned_tasks:
            service += self.plan_call_s + self.per_task_s * planned_tasks
        return service

    def to_dict(self) -> dict:
        return {
            "plan_call_s": self.plan_call_s,
            "per_task_s": self.per_task_s,
            "cached_s": self.cached_s,
        }


def arrivals_from_recording(
    recording: Recording,
) -> list[tuple[float, PlacementRequest]]:
    """The recorded arrival schedule: (timestamp, request) in order."""
    return [
        (float(rec["t"]), decode_request(rec["request"]))
        for rec in recording.events("request")
    ]


@dataclass
class QueueRun:
    """What one :func:`run_queue` pass saw, per request and per batch."""

    arrival_at: dict[str, float] = field(default_factory=dict)
    done_at: dict[str, float] = field(default_factory=dict)
    #: decisions per status, shed-at-admission ones included
    statuses: dict[str, int] = field(default_factory=dict)
    #: each fired batch's decisions, in firing order
    batches: list[list[PlacementDecision]] = field(default_factory=list)

    def latencies(self) -> np.ndarray:
        """Arrival-to-decision virtual seconds, in arrival order."""
        return np.array(
            [self.done_at[rid] - self.arrival_at[rid] for rid in self.arrival_at],
            dtype=np.float64,
        )


def run_queue(
    server: "PlacementServer",
    clock: VirtualClock,
    arrivals: list[tuple[float, PlacementRequest]],
    service_s: Callable[[list[PlacementDecision]], float],
) -> QueueRun:
    """Single-worker virtual-time simulation of one arrival stream.

    The one worker fires the oldest batch as soon as it is both *due*
    (window elapsed or ``max_batch`` reached) and the worker is free; the
    batch then occupies the worker for ``service_s(decisions)`` virtual
    seconds (a :class:`CostModel`, or the planner's measured wall time).
    Requests shed at admission complete instantly (the daemon fallback
    needs no planner).  ``server`` must read ``clock``.
    """
    sched = server.scheduler
    run = QueueRun()
    worker_free = 0.0
    i = 0
    while i < len(arrivals) or sched.pending_depth:
        if sched.pending_depth >= sched.max_batch:
            fire_at = max(worker_free, clock.now)
        elif sched.pending_depth:
            fire_at = max(sched.next_due_at(), worker_free)
        else:
            fire_at = math.inf
        if i < len(arrivals) and arrivals[i][0] <= fire_at:
            t, req = arrivals[i]
            i += 1
            clock.advance_to(t)
            run.arrival_at[req.request_id] = t
            shed = server.submit(req, now=t)
            if shed is not None:
                run.done_at[req.request_id] = t
                run.statuses[shed.status] = run.statuses.get(shed.status, 0) + 1
            continue
        clock.advance_to(fire_at)
        decisions = server.step(now=fire_at)
        finish = fire_at + service_s(decisions)
        worker_free = finish
        for dec in decisions:
            run.done_at[dec.request_id] = finish
            run.statuses[dec.status] = run.statuses.get(dec.status, 0) + 1
        run.batches.append(decisions)
    return run


def _simulate_costed(
    config: ServiceConfig,
    model: "PerformanceModel",
    arrivals: list[tuple[float, PlacementRequest]],
    cost: CostModel,
    telemetry: "Telemetry | None",
) -> dict[str, object]:
    """One config's SLO surface under cost-model service times."""
    clock = VirtualClock()
    server = build_server(config, model, clock=clock, telemetry=telemetry)
    run = run_queue(server, clock, arrivals, cost.batch_service_s)
    batch_pages = [
        sum(dec.dram_pages_granted for dec in decisions) for decisions in run.batches
    ]
    latencies = run.latencies()
    done_at = run.done_at
    shed = run.statuses.get("shed", 0)
    first_arrival = arrivals[0][0] if arrivals else 0.0
    makespan = (max(done_at.values()) - first_arrival) if done_at else 0.0
    return {
        "requests": len(arrivals),
        "answered": len(done_at),
        "shed": shed,
        "shed_rate": shed / len(arrivals) if arrivals else 0.0,
        "p50_s": float(np.percentile(latencies, 50)) if len(latencies) else 0.0,
        "p95_s": float(np.percentile(latencies, 95)) if len(latencies) else 0.0,
        "mean_s": float(latencies.mean()) if len(latencies) else 0.0,
        "throughput_rps": (
            len(done_at) / makespan if makespan > 0 else math.inf
        ),
        "makespan_s": makespan,
        "migration_pages": sum(batch_pages),
        "quota_highwater_pages": max(batch_pages, default=0),
        "statuses": run.statuses,
    }


def backtest(
    recording: Recording,
    model: "PerformanceModel",
    configs: Mapping[str, ServiceConfig],
    *,
    cost: CostModel | None = None,
    telemetry: "Telemetry | None" = None,
) -> dict[str, object]:
    """Replay ``recording``'s arrival schedule against every config.

    Returns ``{"cost_model": ..., "requests": N, "configs": {name: SLO}}``
    -- side-by-side, same arrivals, same cost model, so any SLO delta is
    attributable to the config alone.
    """
    cost = cost or CostModel()
    arrivals = arrivals_from_recording(recording)
    results = {
        name: _simulate_costed(config, model, arrivals, cost, telemetry)
        for name, config in configs.items()
    }
    return {
        "cost_model": cost.to_dict(),
        "requests": len(arrivals),
        "configs": results,
    }
