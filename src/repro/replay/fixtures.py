"""Record the committed golden replay fixtures.

``python -m repro.replay.fixtures`` stands up the real loopback transport
-- wire faults on, several concurrent retrying clients -- with a
streaming :class:`~repro.replay.recorder.FlightRecorder` tapped into the
placement server, records a full trace, then **immediately replays it**
and refuses to write a fixture that is not bit-exact.  The resulting
``golden_loopback.mfr`` is what CI's ``replay_gate`` smoke and the
nightly A/B job replay.

The recording's meta carries ``model_seed``/``fast`` instead of model
weights: the trained model is a deterministic function of those (see
:mod:`repro.replay.config`), so any checkout can rebuild the exact
planner the fixture was recorded against.

The module also holds the request traffic every service experiment draws
from -- the tenants, the catalogue of region shapes, seeded open-loop
arrivals -- and the wire-faulted retrying soak client the loopback
recordings and the ``transport_load`` soak share.
"""

from __future__ import annotations

import argparse
import threading
import time
from pathlib import Path
from typing import TYPE_CHECKING

from repro.apps.codesamples import generate_corpus
from repro.common import make_rng, spawn_rng
from repro.replay.config import ServiceConfig, build_server
from repro.replay.recorder import FlightRecorder, Recording
from repro.replay.replayer import ReplayReport, replay_recording
from repro.service import (
    PlacementClient,
    PlacementRequest,
    PlacementTransportServer,
    RetryPolicy,
    TaskSpec,
)
from repro.sim import MachineModel, optane_hm_config
from repro.sim.counters import collect_pmcs
from repro.sim.faults import FaultConfig, FaultInjector

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.model import PerformanceModel
    from repro.core.telemetry import Telemetry

__all__ = [
    "DEFAULT_OUT_DIR",
    "GOLDEN_NAME",
    "TENANTS",
    "WIRE_FAULTS",
    "main",
    "open_loop_arrivals",
    "record_loopback_trace",
    "region_catalogue",
    "soak_client",
]

DEFAULT_OUT_DIR = Path("results/replay_fixtures")
GOLDEN_NAME = "golden_loopback.mfr"

TENANTS = ("tenant-a", "tenant-b", "tenant-c", "tenant-d")

#: per-reply wire fault rates of a loopback soak (each reply draws once, in
#: this order: torn frame, corrupt CRC, stall, disconnect); wire faults
#: exercise the retry/idempotency machinery without perturbing the
#: server-side command journal
WIRE_FAULTS = dict(
    wire_torn_frame_rate=0.04,
    wire_corrupt_rate=0.04,
    wire_stall_rate=0.04,
    wire_stall_s=0.05,
    wire_disconnect_rate=0.03,
)


def region_catalogue(
    seed: int, n_shapes: int, tasks_per_shape: int
) -> list[tuple[TaskSpec, ...]]:
    """Distinct region shapes (task-spec tuples) clients will ask about."""
    machine, hm = MachineModel(), optane_hm_config()
    samples = generate_corpus(n_shapes * tasks_per_shape, seed=seed + 23)
    rng = make_rng(seed + 29)
    fps = [sample.footprint(1.0) for sample in samples]
    endpoints = machine.tier_endpoints(fps, hm)
    shapes: list[tuple[TaskSpec, ...]] = []
    for s in range(n_shapes):
        specs = []
        for k in range(tasks_per_shape):
            fp = fps[s * tasks_per_shape + k]
            t_dram, t_pm = endpoints[s * tasks_per_shape + k]
            pmcs = collect_pmcs(fp, machine, hm, rng=spawn_rng(rng), t_pm_only=t_pm)
            specs.append(
                TaskSpec(
                    task_id=f"shape{s}:task{k}",
                    t_pm_only=t_pm,
                    t_dram_only=t_dram,
                    total_accesses=fp.total_accesses,
                    pmcs=pmcs,
                    size_bytes=fp.total_bytes,
                )
            )
        shapes.append(tuple(specs))
    return shapes


def open_loop_arrivals(
    catalogue, n_requests: int, mean_interarrival_s: float, seed: int, tag: str
) -> list[tuple[float, PlacementRequest]]:
    """Seeded open-loop Poisson arrivals over (shape, tenant) picks."""
    rng = make_rng(seed)
    out: list[tuple[float, PlacementRequest]] = []
    t = 0.0
    for i in range(n_requests):
        t += float(rng.exponential(mean_interarrival_s))
        shape = catalogue[int(rng.integers(len(catalogue)))]
        tenant = TENANTS[int(rng.integers(len(TENANTS)))]
        out.append(
            (
                t,
                PlacementRequest(
                    request_id=f"{tag}-{i:05d}",
                    tenant=tenant,
                    tasks=shape,
                ),
            )
        )
    return out


def soak_client(
    host: str,
    port: int,
    requests: list[PlacementRequest],
    seed: int,
    out: dict,
) -> None:
    """One retrying soak client: send every request, record each
    decision, its latency and the client's retry accounting in ``out``."""
    decisions: dict[str, list] = {}
    latencies: list[float] = []
    with PlacementClient(
        host,
        port,
        retry=RetryPolicy(
            connect_timeout_s=2.0,
            request_timeout_s=1.0,
            max_attempts=6,
            backoff_base_s=0.01,
            backoff_cap_s=0.1,
        ),
        seed=seed,
    ) as client:
        for req in requests:
            t0 = time.perf_counter()
            decision = client.request(req)
            latencies.append(time.perf_counter() - t0)
            decisions.setdefault(req.request_id, []).append(decision)
        out["retries"] = client.retries
        out["fallbacks"] = client.fallbacks
        out["stale_replies"] = client.stale_replies
    out["decisions"] = decisions
    out["latencies"] = latencies


def record_loopback_trace(
    model: "PerformanceModel",
    out_path: str | Path,
    *,
    seed: int = 0,
    fast: bool = True,
    n_clients: int = 4,
    per_client: int = 60,
    tag: str = "fx",
    telemetry: "Telemetry | None" = None,
) -> tuple[Recording, dict]:
    """Record one wire-faulted loopback trace to ``out_path``.

    Returns the loaded :class:`Recording` plus the transport's stats.
    The recorder is flushed (durability barrier) before the transport
    shuts down, and the file is re-loaded from disk so what we return is
    exactly what a later replay will read.
    """
    catalogue = region_catalogue(seed, n_shapes=8, tasks_per_shape=3)
    hm = optane_hm_config()
    config = ServiceConfig(
        dram_capacity_bytes=hm.dram.capacity_bytes,
        window_s=0.005,
        max_batch=32,
        cache_capacity=512,
    )
    recorder = FlightRecorder(
        out_path,
        meta={
            "config": config.to_dict(),
            "model_seed": seed,
            "fast": fast,
            "recorded_over": "loopback",
            "wire_faults": WIRE_FAULTS,
            "clients": n_clients,
            "per_client": per_client,
        },
        telemetry=telemetry,
    )
    server = build_server(
        config, model, clock=time.monotonic,
        telemetry=telemetry, recorder=recorder,
    )
    transport = PlacementTransportServer(
        server,
        idle_timeout_s=10.0,
        telemetry=telemetry,
        faults=FaultInjector(FaultConfig(**WIRE_FAULTS), seed=seed + 301),
    )
    workloads = [
        [
            PlacementRequest(
                request_id=f"{tag}-c{c}-{i:04d}",
                tenant=TENANTS[(c + i) % len(TENANTS)],
                tasks=catalogue[(c * 7 + i) % len(catalogue)],
            )
            for i in range(per_client)
        ]
        for c in range(n_clients)
    ]
    with transport:
        host, port = transport.address
        threads = [
            threading.Thread(
                target=soak_client,
                args=(host, port, workloads[c], seed + 400 + c, {}),
                name=f"fixture-client-{c}",
            )
            for c in range(n_clients)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        recorder.flush()
    # snapshot after shutdown so teardown accounting (cancelled pump loop,
    # swallowed close errors) is included
    stats = dict(transport.stats)
    recorder.close()
    return Recording.load(out_path), stats


def verify_roundtrip(
    recording: Recording, model: "PerformanceModel"
) -> ReplayReport:
    """Replay the freshly-recorded trace; raise unless bit-exact."""
    report = replay_recording(recording, model)
    if not report.ok():
        detail = report.to_dict()
        raise AssertionError(
            f"fresh recording does not replay bit-exact: "
            f"divergent={detail['divergent']} lost={detail['lost']} "
            f"duplicated={detail['duplicated']} "
            f"first_divergence={detail['first_divergence']}"
        )
    return report


def main(
    argv: list[str] | None = None, *, model: "PerformanceModel | None" = None
) -> int:
    parser = argparse.ArgumentParser(
        prog="replay-fixtures",
        description="Record (and verify) the golden replay fixture traces.",
    )
    parser.add_argument(
        "--out", default=str(DEFAULT_OUT_DIR),
        help="output directory (default: %(default)s)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--full", action="store_true",
        help="record against the full-strength (paper-sized) model",
    )
    parser.add_argument("--clients", type=int, default=4)
    parser.add_argument("--per-client", type=int, default=60)
    args = parser.parse_args(argv)

    fast = not args.full
    if model is None:
        from repro.experiments.common import ExperimentContext

        model = ExperimentContext(seed=args.seed, fast=fast).system.performance_model

    out = Path(args.out) / GOLDEN_NAME
    recording, stats = record_loopback_trace(
        model,
        out,
        seed=args.seed,
        fast=fast,
        n_clients=args.clients,
        per_client=args.per_client,
    )
    report = verify_roundtrip(recording, model)
    print(
        f"recorded {recording.n_requests} requests / "
        f"{recording.n_decisions} decisions to {out} "
        f"({stats['resubmissions']} resubmissions, "
        f"{stats['replies']} replies on the wire)"
    )
    print(
        f"verified: replay matched {report.matched}/{report.expected_decisions} "
        f"decisions bit-exact (0 divergent, 0 lost, 0 duplicated)"
    )
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
