"""Replay gate: record -> replay bit-exact -> A/B backtest -> SLO gate.

Four parts, each one layer of the replay subsystem's contract:

1. **in-process record/replay** -- a ``service_load``-scale virtual-time
   trace (>=200 requests, overload-adjacent, with a mid-trace
   ``service_batch`` worker kill) is journaled by a ring-mode
   :class:`~repro.replay.recorder.FlightRecorder` and replayed: every
   decision must match bit-exact, every request id decided exactly once;
2. **loopback record/replay** -- the same contract through the real TCP
   transport with wire faults on (torn frames, corrupt CRCs, stalls,
   disconnects): client retries and idempotent resubmission must leave
   the server-side command journal replayable with zero divergence;
3. **golden fixture** -- the committed ``results/replay_fixtures`` trace
   is replayed against a freshly trained model (the regression check CI
   runs on every PR);
4. **A/B SLO gate** -- the part-1 recording is backtested against the
   incumbent config, a healthy candidate (bigger cache: must pass), and a
   deliberately degraded candidate (cache TTL ~0: must *fail* the gate
   with named thresholds).

The experiment raises if any contract does not hold, so the CI smoke
asserting on its ``--json`` output doubles as the tier-1 replay gate.
"""

from __future__ import annotations

import json
import math
import tempfile
from pathlib import Path

from repro.experiments.common import ExperimentContext, format_table
from repro.replay import (
    FlightRecorder,
    Recording,
    ServiceConfig,
    VirtualClock,
    backtest,
    build_server,
    evaluate_gate,
    replay_recording,
)
from repro.replay.backtest import CostModel, run_queue
from repro.replay.fixtures import (
    DEFAULT_OUT_DIR,
    GOLDEN_NAME,
    open_loop_arrivals,
    record_loopback_trace,
    region_catalogue,
)
from repro.replay.gate import CHECKOUT_ROOT, DEFAULT_BASELINE_PATH
from repro.sim import optane_hm_config

#: fallback thresholds when the baseline file is absent (e.g. running
#: from an installed package rather than a checkout)
DEFAULT_BASELINE = {
    "replay": {"divergence_max": 0, "lost_max": 0, "duplicated_max": 0},
    "slo": {
        "p50_latency_ratio_max": 1.25,
        "p95_latency_ratio_max": 1.25,
        "shed_rate_increase_max": 0.02,
        "migration_pages_ratio_max": 1.10,
        "quota_highwater_ratio_max": 1.25,
    },
}


def _baseline() -> dict:
    if DEFAULT_BASELINE_PATH.exists():
        return json.loads(DEFAULT_BASELINE_PATH.read_text())
    return DEFAULT_BASELINE


def _incumbent_config(ctx: ExperimentContext) -> ServiceConfig:
    hm = optane_hm_config()
    return ServiceConfig(
        dram_capacity_bytes=hm.dram.capacity_bytes,
        window_s=0.004,
        max_batch=8,
        cache_capacity=256,
        max_queue=32,
        resume_below=8,
    )


def run(ctx: ExperimentContext) -> dict[str, object]:
    model = ctx.system.performance_model
    n_requests = 240 if ctx.fast else 480
    catalogue = region_catalogue(ctx.seed, n_shapes=8, tasks_per_shape=3)

    # ------------------------------------------------------------------
    # part 1: in-process record -> replay (with a mid-trace worker kill)
    # ------------------------------------------------------------------
    config = _incumbent_config(ctx).with_overrides(
        faults={"crash_at": 3, "crash_point": "service_batch"},
        fault_seed=ctx.seed + 11,
    )
    arrivals = open_loop_arrivals(
        catalogue, n_requests, mean_interarrival_s=0.0015,
        seed=ctx.seed + 211, tag="replay",
    )
    recorder = FlightRecorder(meta={"config": config.to_dict()},
                              telemetry=ctx.telemetry)
    clock = VirtualClock()
    server = build_server(
        config, model, clock=clock, telemetry=ctx.telemetry, recorder=recorder
    )
    # deterministic service times: measured planning wall time would make
    # the batching, and so the recorded statuses, depend on the host
    queue = run_queue(server, clock, arrivals, CostModel().batch_service_s)
    shed = server.admission.shed_count
    assert recorder.dropped == 0, "ring recorder overflowed; raise capacity"
    recording = recorder.recording()
    report = replay_recording(recording, model, telemetry=ctx.telemetry)
    in_process = {
        "requests": report.requests,
        "matched": report.matched,
        "divergent": report.divergent,
        "lost": report.lost,
        "duplicated": report.duplicated,
        "undecided": len(report.undecided_ids),
        "crash_fired": bool(server.faults is not None and server.faults.crash_fired),
        "shed": shed,
        "statuses": queue.statuses,
    }
    print(
        f"in-process replay: {report.requests} requests "
        f"(worker kill at batch 3, {shed} shed) -> "
        f"{report.matched} matched, {report.divergent} divergent, "
        f"{report.lost} lost, {report.duplicated} duplicated"
    )
    if not report.ok():
        raise AssertionError(
            f"in-process replay not bit-exact: {report.to_dict()}"
        )

    # ------------------------------------------------------------------
    # part 2: loopback record -> replay (wire faults on)
    # ------------------------------------------------------------------
    with tempfile.TemporaryDirectory(prefix="replay-gate-") as tmp:
        loop_recording, stats = record_loopback_trace(
            model,
            Path(tmp) / "loopback.mfr",
            seed=ctx.seed,
            fast=ctx.fast,
            n_clients=4,
            per_client=60 if ctx.fast else 80,
            tag="gate",
            telemetry=ctx.telemetry,
        )
    loop_report = replay_recording(loop_recording, model, telemetry=ctx.telemetry)
    loopback = {
        "requests": loop_report.requests,
        "matched": loop_report.matched,
        "divergent": loop_report.divergent,
        "lost": loop_report.lost,
        "duplicated": loop_report.duplicated,
        "resubmissions": stats["resubmissions"],
        "teardown_errors": stats["teardown_errors"],
    }
    print(
        f"loopback replay: {loop_report.requests} requests over TCP with "
        f"wire faults ({stats['resubmissions']} resubmissions) -> "
        f"{loop_report.matched} matched, {loop_report.divergent} divergent"
    )
    if not loop_report.ok():
        raise AssertionError(
            f"loopback replay not bit-exact: {loop_report.to_dict()}"
        )

    # ------------------------------------------------------------------
    # part 3: the committed golden fixture
    # ------------------------------------------------------------------
    golden_path = CHECKOUT_ROOT / DEFAULT_OUT_DIR / GOLDEN_NAME
    golden: dict[str, object] = {
        "present": golden_path.exists(),
        "path": str(DEFAULT_OUT_DIR / GOLDEN_NAME),
    }
    if golden_path.exists():
        g_rec = Recording.load(golden_path)
        meta_seed = g_rec.meta.get("model_seed")
        meta_fast = g_rec.meta.get("fast")
        if meta_seed == ctx.seed and meta_fast == ctx.fast:
            g_report = replay_recording(g_rec, model, telemetry=ctx.telemetry)
            golden.update(
                requests=g_report.requests,
                matched=g_report.matched,
                divergent=g_report.divergent,
                lost=g_report.lost,
                duplicated=g_report.duplicated,
                skipped=False,
            )
            print(
                f"golden fixture: {g_report.requests} requests -> "
                f"{g_report.divergent} divergent, {g_report.lost} lost"
            )
            if not g_report.ok():
                raise AssertionError(
                    f"golden fixture diverged: {g_report.to_dict()}"
                )
        else:
            golden.update(
                skipped=True,
                reason=f"recorded for seed={meta_seed} fast={meta_fast}, "
                f"running seed={ctx.seed} fast={ctx.fast}",
            )
            print(f"golden fixture skipped: {golden['reason']}")
    else:
        golden["skipped"] = True
        golden["reason"] = "fixture not present"
        print("golden fixture not present (run python -m repro.replay.fixtures)")

    # ------------------------------------------------------------------
    # part 4: A/B backtest + SLO gate
    # ------------------------------------------------------------------
    baseline = _baseline()
    incumbent = _incumbent_config(ctx)
    configs = {
        "incumbent": incumbent,
        # healthy candidate: more cache can only help -- must pass
        "candidate": incumbent.with_overrides(cache_capacity=512),
        # seeded regression: a TTL of ~0 makes every lookup a miss, so the
        # planner saturates under the recorded arrival rate -- must fail
        "degraded": incumbent.with_overrides(cache_ttl_s=1e-9),
    }
    ab = backtest(recording, model, configs, cost=CostModel(),
                  telemetry=ctx.telemetry)
    slo = ab["configs"]
    candidate_violations = evaluate_gate(
        baseline, incumbent=slo["incumbent"], candidate=slo["candidate"],
        telemetry=ctx.telemetry,
    )
    degraded_violations = evaluate_gate(
        baseline, incumbent=slo["incumbent"], candidate=slo["degraded"],
        telemetry=ctx.telemetry,
    )
    rows = [
        [
            name,
            slo[name]["p50_s"],
            slo[name]["p95_s"],
            slo[name]["shed_rate"],
            slo[name]["migration_pages"],
            slo[name]["quota_highwater_pages"],
        ]
        for name in ("incumbent", "candidate", "degraded")
    ]
    print("A/B backtest (virtual seconds under the deterministic cost model)")
    print(format_table(
        ["config", "p50", "p95", "shed", "mig_pages", "quota_hw"], rows
    ))
    print(
        f"  gate: candidate {len(candidate_violations)} violations "
        f"(want 0), degraded {len(degraded_violations)} violations "
        f"(want >0: "
        f"{', '.join(v['threshold'] for v in degraded_violations) or 'none'})"
    )
    if candidate_violations:
        raise AssertionError(
            f"healthy candidate failed the gate: {candidate_violations}"
        )
    if not degraded_violations:
        raise AssertionError(
            "degraded candidate (cache TTL ~0) passed the gate -- the SLO "
            "gate cannot catch regressions"
        )

    return {
        "in_process": in_process,
        "loopback": loopback,
        "golden": golden,
        "ab": {
            "baseline": baseline,
            "slo": {
                name: {
                    k: (None if isinstance(v, float) and math.isinf(v) else v)
                    for k, v in slo[name].items()
                }
                for name in slo
            },
            "candidate_violations": candidate_violations,
            "degraded_violations": degraded_violations,
        },
    }
