"""Loopback soak of the network transport (our extension).

The whole placement-service network stack -- asyncio frame server,
batching/caching pipeline behind it, resilient retrying clients -- is run
for real over loopback TCP with **wire faults enabled**: replies are
randomly torn mid-frame, CRC-corrupted, stalled, or cut off by a
mid-reply disconnect.  Several client threads soak the server
concurrently; every request uses a unique id and the clients' retry path
leans on the server's idempotent-resubmission record.

The invariants under test are the service subsystem's two hard promises,
now end-to-end through sockets:

* **never lost** -- every request ends in exactly one decision at its
  client (remote, or the degrade-to-daemon fallback after exhausted
  retries);
* **never duplicated** -- the server decides each request id at most once
  (retries are answered from the record, so no double-planning and no
  double-granted DRAM), and no client observes two decisions for one id.

On top of the invariants the soak reports client-observed latency
percentiles (p95 must stay under a budget that absorbs the injected
stalls and backoffs) plus the full fault/retry accounting.
"""

from __future__ import annotations

import threading
import time

import numpy as np

from repro.experiments.common import ExperimentContext, format_table
from repro.replay.fixtures import TENANTS, WIRE_FAULTS, region_catalogue, soak_client
from repro.service import (
    PlacementRequest,
    PlacementServer,
    PlacementTransportServer,
    PredictionCache,
)
from repro.sim import optane_hm_config
from repro.sim.faults import FaultConfig, FaultInjector

def run(ctx: ExperimentContext) -> dict[str, object]:
    n_clients = 4 if ctx.fast else 8
    per_client = 60 if ctx.fast else 80
    p95_budget_s = 1.0 if ctx.fast else 1.5
    catalogue = region_catalogue(ctx.seed, n_shapes=8, tasks_per_shape=4)

    hm = optane_hm_config()
    injector = FaultInjector(FaultConfig(**WIRE_FAULTS), seed=ctx.seed + 301)
    server = PlacementServer(
        ctx.system.performance_model,
        dram_capacity_bytes=hm.dram.capacity_bytes,
        window_s=0.005,
        max_batch=32,
        cache=PredictionCache(capacity=512, telemetry=ctx.telemetry),
        telemetry=ctx.telemetry,
    )
    transport = PlacementTransportServer(
        server,
        idle_timeout_s=10.0,
        telemetry=ctx.telemetry,
        faults=injector,
    )

    # unique ids across all clients: the never-duplicated check is exact
    workloads: list[list[PlacementRequest]] = []
    for c in range(n_clients):
        reqs = [
            PlacementRequest(
                request_id=f"net-c{c}-{i:04d}",
                tenant=TENANTS[(c + i) % len(TENANTS)],
                tasks=catalogue[(c * 7 + i) % len(catalogue)],
            )
            for i in range(per_client)
        ]
        workloads.append(reqs)

    outs: list[dict] = [{} for _ in range(n_clients)]
    t0 = time.perf_counter()
    with transport:
        host, port = transport.address
        threads = [
            threading.Thread(
                target=soak_client,
                args=(host, port, workloads[c], ctx.seed + 400 + c, outs[c]),
                name=f"soak-client-{c}",
            )
            for c in range(n_clients)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        wall_s = time.perf_counter() - t0
        stats = dict(transport.stats)

    # ------------------------------------------------------------------
    # invariants
    # ------------------------------------------------------------------
    total = n_clients * per_client
    lost = sum(
        1
        for c in range(n_clients)
        for req in workloads[c]
        if len(outs[c]["decisions"].get(req.request_id, [])) == 0
    )
    duplicated = sum(
        1
        for out in outs
        for got in out["decisions"].values()
        if len(got) > 1
    ) + stats["duplicates"]
    fallbacks = sum(out["fallbacks"] for out in outs)
    retries = sum(out["retries"] for out in outs)
    latencies = np.array(
        [lat for out in outs for lat in out["latencies"]], dtype=np.float64
    )
    wire_events = {
        kind: injector.log.counters.get(kind, 0)
        for kind in (
            "fault.wire_torn_frame",
            "fault.wire_corrupt_crc",
            "fault.wire_stall",
            "fault.wire_disconnect",
        )
    }

    result = {
        "clients": n_clients,
        "requests": total,
        "lost": lost,
        "duplicated": duplicated,
        "retries": retries,
        "fallbacks": fallbacks,
        "stale_replies": sum(out["stale_replies"] for out in outs),
        "throughput_rps": total / wall_s if wall_s > 0 else float("inf"),
        "wall_s": wall_s,
        "p50_s": float(np.percentile(latencies, 50)),
        "p95_s": float(np.percentile(latencies, 95)),
        "p99_s": float(np.percentile(latencies, 99)),
        "p95_budget_s": p95_budget_s,
        "p95_within_budget": bool(
            float(np.percentile(latencies, 95)) <= p95_budget_s
        ),
        "wire_faults": wire_events,
        "server": {
            "submitted": server.submitted,
            "decided": server.decided,
            **stats,
        },
    }

    print(
        f"transport soak: {n_clients} clients x {per_client} requests over "
        f"loopback, wire faults on ({sum(wire_events.values())} injected)"
    )
    print(
        format_table(
            ["requests", "lost", "dup", "retries", "fallbacks", "p50", "p95"],
            [[total, lost, duplicated, retries, fallbacks,
              result["p50_s"], result["p95_s"]]],
        )
    )
    print(
        f"  invariants: lost={lost} (want 0), duplicated={duplicated} "
        f"(want 0), p95={result['p95_s']:.3f}s "
        f"(budget {p95_budget_s:.1f}s) in {wall_s:.1f}s wall"
    )
    if lost or duplicated:
        raise AssertionError(
            f"transport soak violated the decision invariants: "
            f"lost={lost}, duplicated={duplicated}"
        )
    return result
