"""Open-loop load test of the placement service (our extension).

The placement server (:mod:`repro.service`) is driven by a seeded
open-loop arrival process over a catalogue of region shapes from several
tenants, inside a **virtual-time queueing simulation**: arrivals happen on
a virtual clock, and each planner invocation's *measured wall seconds*
are charged to that clock as the batch's service time.  Latency
percentiles therefore reflect queueing + batching window + real compute,
while staying single-threaded and reproducible in shape.

Three scenarios, matching the subsystem's three claims:

* **cache**  -- the same saturating request stream against a cold server
  with the prediction cache off vs on; with ~10 distinct region shapes
  the cache turns almost every plan into a lookup, so sustained
  throughput must rise by >= 3x;
* **batching** -- a window sweep (singleton ``window=0, max_batch=1`` up
  to several multiples of the measured singleton service time) at an
  offered load near singleton capacity; coalescing amortises the
  per-planner-call model cost, so a batched window beats the singleton
  configuration at p95;
* **saturation** -- an overload burst against a tight admission config;
  the controller must trip, shed to the hot-page-daemon fallback, and
  still *answer* every single request (zero lost).

Rates are calibrated against the host's measured singleton service time,
so the scenarios stress the same operating points on fast and slow
machines alike.
"""

from __future__ import annotations

import math
import time

import numpy as np

from repro.experiments.common import ExperimentContext, format_table
from repro.replay.backtest import run_queue
from repro.replay.config import VirtualClock
from repro.replay.fixtures import TENANTS, open_loop_arrivals, region_catalogue
from repro.service import (
    AdmissionConfig,
    PlacementRequest,
    PlacementServer,
    PredictionCache,
    TaskSpec,
)
from repro.sim import optane_hm_config


def _region_catalogue(
    ctx: ExperimentContext, n_shapes: int, tasks_per_shape: int
) -> list[tuple[TaskSpec, ...]]:
    """The request catalogue of an experiment context's seed (the
    ``service_mix`` benchmark workload builds its catalogues with it)."""
    return region_catalogue(ctx.seed, n_shapes, tasks_per_shape)


class _MeasuredWall:
    """Service time of each fired batch: the planner wall seconds the
    server measured while deciding it."""

    def __init__(self, server: PlacementServer) -> None:
        self._walls = server.batch_wall_s
        self._seen = len(self._walls)

    def __call__(self, decisions) -> float:
        walls = self._walls[self._seen:]
        self._seen = len(self._walls)
        return sum(walls)


def _simulate(
    server: PlacementServer,
    clock: VirtualClock,
    arrivals: list[tuple[float, PlacementRequest]],
) -> dict[str, object]:
    """One arrival stream through the single-worker queue, each batch
    charged the planner's measured wall time."""
    run = run_queue(server, clock, arrivals, _MeasuredWall(server))
    latencies = run.latencies()
    first_arrival = arrivals[0][0]
    makespan = max(run.done_at.values()) - first_arrival
    return {
        "requests": len(arrivals),
        "answered": len(run.done_at),
        "unanswered": len(arrivals) - len(run.done_at),
        "throughput_rps": len(run.done_at) / makespan if makespan > 0 else math.inf,
        "makespan_s": makespan,
        "p50_s": float(np.percentile(latencies, 50)),
        "p95_s": float(np.percentile(latencies, 95)),
        "p99_s": float(np.percentile(latencies, 99)),
        "mean_s": float(latencies.mean()),
        "statuses": run.statuses,
        "submitted": server.submitted,
        "decided": server.decided,
        "shed": server.admission.shed_count,
    }


def _server(
    ctx: ExperimentContext,
    clock: VirtualClock,
    *,
    window_s: float,
    max_batch: int,
    cache: PredictionCache | None = None,
    admission: AdmissionConfig | None = None,
) -> PlacementServer:
    hm = optane_hm_config()
    return PlacementServer(
        ctx.system.performance_model,
        dram_capacity_bytes=hm.dram.capacity_bytes,
        window_s=window_s,
        max_batch=max_batch,
        cache=cache,
        admission=admission,
        telemetry=ctx.telemetry,
        clock=clock,
    )


#: effectively-unbounded intake for the scenarios that must not shed
_NO_SHED = AdmissionConfig(max_queue=1_000_000, resume_below=0)


def _calibrate_singleton_s(ctx: ExperimentContext, catalogue) -> float:
    """Median wall time of one single-request planner call (no cache)."""
    clock = VirtualClock()
    server = _server(
        ctx, clock, window_s=0.0, max_batch=1, admission=_NO_SHED
    )
    walls = []
    for j, shape in enumerate(catalogue[: min(5, len(catalogue))]):
        req = PlacementRequest(
            request_id=f"cal-{j}", tenant="tenant-a", tasks=shape
        )
        t0 = time.perf_counter()
        server.request(req, now=float(j))
        walls.append(time.perf_counter() - t0)
    return float(np.median(walls))


def run(ctx: ExperimentContext) -> dict[str, object]:
    n_shapes = 10 if ctx.fast else 16
    tasks_per_shape = 4
    n_requests = 240 if ctx.fast else 480
    catalogue = _region_catalogue(ctx, n_shapes, tasks_per_shape)

    singleton_s = _calibrate_singleton_s(ctx, catalogue)
    print(
        f"calibration: one singleton plan costs {singleton_s * 1e3:.1f}ms wall "
        f"({n_shapes} shapes x {tasks_per_shape} tasks, {len(TENANTS)} tenants)"
    )

    # ------------------------------------------------------------------
    # scenario 1: cache off vs on under a saturating stream
    # ------------------------------------------------------------------
    # arrivals far faster than the cache-off service rate: both servers
    # run back-to-back batches, so throughput measures service capacity
    burst = open_loop_arrivals(
        catalogue,
        n_requests,
        mean_interarrival_s=singleton_s / 50.0,
        seed=ctx.seed + 101,
        tag="cache",
    )
    cache_scenario: dict[str, object] = {}
    for label, cache in (
        ("cache_off", None),
        ("cache_on", PredictionCache(capacity=512, telemetry=ctx.telemetry)),
    ):
        clock = VirtualClock()
        server = _server(
            ctx,
            clock,
            window_s=singleton_s,
            max_batch=32,
            cache=cache,
            admission=_NO_SHED,
        )
        result = _simulate(server, clock, burst)
        if cache is not None:
            result["cache"] = cache.stats()
        cache_scenario[label] = result
    off = cache_scenario["cache_off"]["throughput_rps"]
    on = cache_scenario["cache_on"]["throughput_rps"]
    cache_scenario["speedup"] = on / off
    print(
        f"saturating stream ({n_requests} requests): "
        f"{off:.0f} rps cache-off vs {on:.0f} rps cache-on "
        f"({on / off:.1f}x, want >= 3x)"
    )

    # ------------------------------------------------------------------
    # scenario 2: batching window sweep vs singleton planning
    # ------------------------------------------------------------------
    # offered load just under singleton capacity: the singleton server
    # runs at utilisation ~0.9 (long queueing tail), batched windows
    # amortise the per-call model cost and stay far from saturation
    load = open_loop_arrivals(
        catalogue,
        max(n_requests // 2, 120),
        mean_interarrival_s=singleton_s / 0.9,
        seed=ctx.seed + 103,
        tag="window",
    )
    sweep: dict[str, object] = {}
    windows = (
        ("singleton", 0.0, 1),
        ("window_1x", 1.0 * singleton_s, 16),
        ("window_2x", 2.0 * singleton_s, 16),
        ("window_4x", 4.0 * singleton_s, 16),
    )
    for label, window_s, max_batch in windows:
        clock = VirtualClock()
        server = _server(
            ctx, clock, window_s=window_s, max_batch=max_batch,
            admission=_NO_SHED,
        )
        result = _simulate(server, clock, load)
        result["window_s"] = window_s
        result["max_batch"] = max_batch
        result["mean_batch_size"] = len(load) / max(len(server.batch_wall_s), 1)
        sweep[label] = result
    rows = [
        [label, sweep[label]["mean_batch_size"],
         sweep[label]["p50_s"], sweep[label]["p95_s"], sweep[label]["p99_s"]]
        for label, _, _ in windows
    ]
    print("Batch-window sweep (virtual seconds; cache off, load ~0.9x "
          "singleton capacity)")
    print(format_table(["config", "batch", "p50", "p95", "p99"], rows))
    best_batched = min(
        sweep[label]["p95_s"] for label, _, _ in windows[1:]
    )
    sweep["batched_beats_singleton_p95"] = bool(
        best_batched < sweep["singleton"]["p95_s"]
    )
    print(
        f"  best batched p95 {best_batched:.3f}s vs singleton p95 "
        f"{sweep['singleton']['p95_s']:.3f}s"
    )

    # ------------------------------------------------------------------
    # scenario 3: overload against a tight admission config
    # ------------------------------------------------------------------
    overload = open_loop_arrivals(
        catalogue,
        max(n_requests * 2 // 3, 160),
        mean_interarrival_s=singleton_s / 4.0,
        seed=ctx.seed + 107,
        tag="overload",
    )
    clock = VirtualClock()
    server = _server(
        ctx,
        clock,
        window_s=2.0 * singleton_s,
        max_batch=8,
        admission=AdmissionConfig(max_queue=8, resume_below=2),
    )
    saturation = _simulate(server, clock, overload)
    saturation["saturation_events"] = sum(
        1 for ev in server.log.events if ev.kind == "service.saturated"
    )
    print(
        f"overload (4x capacity, max_queue=8): {saturation['shed']} of "
        f"{saturation['requests']} shed to the daemon, "
        f"{saturation['unanswered']} unanswered (want 0), "
        f"{saturation['saturation_events']} saturation trips"
    )

    return {
        "calibration": {
            "singleton_plan_wall_s": singleton_s,
            "n_shapes": n_shapes,
            "tasks_per_shape": tasks_per_shape,
            "tenants": len(TENANTS),
        },
        "cache": cache_scenario,
        "window_sweep": sweep,
        "saturation": saturation,
    }
