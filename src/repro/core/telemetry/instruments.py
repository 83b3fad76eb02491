"""The canonical instrument catalogue: every metric this repo emits.

All metrics are declared here, in one place, and pre-registered when a
:class:`~repro.core.telemetry.Telemetry` is created.  That buys two things:

* exposition output always contains the full instrument set (a metric that
  never fired renders at zero instead of silently not existing), and
* ``OBSERVABILITY.md``'s reference table can be *diffed* against this list
  by a test, so the documentation provably covers 100% of metric names.

Naming follows Prometheus conventions: ``merch_<subsystem>_<what>_<unit>``,
counters end in ``_total``, and label values come from small closed sets
(the registry's cardinality guard enforces that at runtime).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.telemetry.registry import MetricRegistry

__all__ = ["MetricSpec", "METRIC_SPECS", "register_all", "spec_names"]

#: virtual-time durations (regions/epochs span seconds to thousands of
#: simulated seconds on the paper-scale apps)
VIRTUAL_SECONDS = (
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0,
    100.0, 250.0, 500.0, 1000.0, 2500.0, 5000.0,
)
#: wall-clock durations of control-plane work (sub-millisecond to seconds)
WALL_SECONDS = (
    1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3,
    1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)
#: dimensionless error ratios
RATIO = (0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0)
#: record/checkpoint sizes
BYTES = (
    256.0, 1024.0, 4096.0, 16384.0, 65536.0,
    262144.0, 1048576.0, 4194304.0, 16777216.0,
)
#: small discrete counts (request batch sizes)
COUNT = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)


@dataclass(frozen=True)
class MetricSpec:
    """Declaration of one metric: the unit OBSERVABILITY.md documents."""

    name: str
    kind: str  # counter | gauge | histogram
    help: str
    labels: tuple[str, ...] = ()
    buckets: tuple[float, ...] | None = None


METRIC_SPECS: tuple[MetricSpec, ...] = (
    # -- engine ---------------------------------------------------------
    MetricSpec(
        "merch_engine_runs_total", "counter",
        "Engine runs started (recovered resumes count again).",
    ),
    MetricSpec(
        "merch_engine_regions_total", "counter",
        "Parallel regions completed (barrier released).",
    ),
    MetricSpec(
        "merch_engine_ticks_total", "counter",
        "Virtual-time ticks executed across all regions.",
    ),
    MetricSpec(
        "merch_engine_pages_migrated_total", "counter",
        "Pages actually moved between tiers, by cause.",
        labels=("cause",),  # policy | pressure
    ),
    MetricSpec(
        "merch_engine_bytes_migrated_total", "counter",
        "Bytes actually moved between tiers, by cause.",
        labels=("cause",),
    ),
    MetricSpec(
        "merch_engine_migration_overhead_seconds_total", "counter",
        "Cumulative virtual seconds charged as page-migration overhead.",
    ),
    MetricSpec(
        "merch_engine_dram_occupancy_ratio", "gauge",
        "DRAM bytes used / DRAM capacity, sampled at the end of each tick.",
    ),
    MetricSpec(
        "merch_engine_region_duration_seconds", "histogram",
        "Virtual duration of each completed region.",
        buckets=VIRTUAL_SECONDS,
    ),
    MetricSpec(
        "merch_engine_barrier_wait_seconds", "histogram",
        "Per task per region: virtual time spent waiting at the barrier.",
        buckets=VIRTUAL_SECONDS,
    ),
    MetricSpec(
        "merch_engine_epoch_duration_seconds", "histogram",
        "Virtual duration of each committed migration epoch (journaled runs).",
        buckets=VIRTUAL_SECONDS,
    ),
    # -- Merchandiser policy -------------------------------------------
    MetricSpec(
        "merch_policy_plans_total", "counter",
        "Algorithm-1 plans produced (one per fully-profiled region).",
    ),
    MetricSpec(
        "merch_policy_planning_wall_seconds", "histogram",
        "Wall-clock time of one region's estimate+predict+plan step.",
        buckets=WALL_SECONDS,
    ),
    MetricSpec(
        "merch_policy_prediction_error_ratio", "histogram",
        "Per planned region: |measured - predicted| / predicted region time.",
        buckets=RATIO,
    ),
    MetricSpec(
        "merch_policy_alpha_refinements_total", "counter",
        "Per-object alpha refinements folded into the alpha tables.",
    ),
    MetricSpec(
        "merch_policy_base_profiles_total", "counter",
        "Base-input profiles recorded (first instance of each task/kind).",
    ),
    MetricSpec(
        "merch_policy_requested_pages_total", "counter",
        "Pages the policy asked the engine to move, by direction "
        "(before bandwidth clamping and fault loss).",
        labels=("direction",),  # promote | demote
    ),
    MetricSpec(
        "merch_policy_daemon_scans_total", "counter",
        "Gated hot-page daemon scan intervals executed.",
    ),
    MetricSpec(
        "merch_policy_gate_skipped_pages_total", "counter",
        "Hot pages the quota gate declined to promote because every "
        "accessing task had reached its DRAM-access goal.",
    ),
    # -- guardrails -----------------------------------------------------
    MetricSpec(
        "merch_guardrail_retries_total", "counter",
        "Failed-migration retry decisions, by outcome.",
        labels=("outcome",),  # scheduled | dropped
    ),
    MetricSpec(
        "merch_guardrail_quota_clamps_total", "counter",
        "Estimator/model outputs rejected by sanity validation, by whether "
        "a last-known-good value existed to fall back on.",
        labels=("recovered",),  # yes | no
    ),
    MetricSpec(
        "merch_guardrail_watchdog_transitions_total", "counter",
        "Misprediction-watchdog state transitions.",
        labels=("to",),  # degraded | armed
    ),
    MetricSpec(
        "merch_guardrail_alpha_quarantines_total", "counter",
        "Fault-flagged PEBS refinement windows discarded before the alpha table.",
    ),
    MetricSpec(
        "merch_guardrail_base_reprofiles_total", "counter",
        "Base-profile re-collections granted after suspect windows/inputs.",
    ),
    # -- journal --------------------------------------------------------
    MetricSpec(
        "merch_journal_appends_total", "counter",
        "Write-ahead-log records appended, by record kind.",
        labels=("kind",),  # epoch_begin | move | epoch_commit | checkpoint | recovered
    ),
    MetricSpec(
        "merch_journal_bytes_appended_total", "counter",
        "Serialised bytes appended to the write-ahead log.",
    ),
    MetricSpec(
        "merch_journal_checkpoint_bytes", "histogram",
        "Serialised size of each planner-state checkpoint record.",
        buckets=BYTES,
    ),
    MetricSpec(
        "merch_journal_rollback_pages_total", "counter",
        "Pages whose before-images were restored by recovery rollbacks.",
    ),
    MetricSpec(
        "merch_journal_recoveries_total", "counter",
        "Journal recovery replays completed.",
    ),
    MetricSpec(
        "merch_journal_recovery_wall_seconds", "histogram",
        "Wall-clock time of one journal recovery replay "
        "(reopen + rollback + invariant verification).",
        buckets=WALL_SECONDS,
    ),
    # -- placement service ----------------------------------------------
    MetricSpec(
        "merch_service_requests_total", "counter",
        "Placement requests decided, by how the answer was produced.",
        labels=("status",),  # planned | cached | deduplicated | shed
    ),
    MetricSpec(
        "merch_service_request_latency_seconds", "histogram",
        "Admission-to-decision latency of each request on the server's clock.",
        buckets=WALL_SECONDS,
    ),
    MetricSpec(
        "merch_service_batches_total", "counter",
        "Request batches planned (one shared-quota planner call each).",
    ),
    MetricSpec(
        "merch_service_batch_size_requests", "histogram",
        "Requests coalesced into each fired batch.",
        buckets=COUNT,
    ),
    MetricSpec(
        "merch_service_cache_hits_total", "counter",
        "Prediction-cache lookups answered from a live entry.",
    ),
    MetricSpec(
        "merch_service_cache_misses_total", "counter",
        "Prediction-cache lookups that fell through to computation.",
    ),
    MetricSpec(
        "merch_service_cache_evictions_total", "counter",
        "Prediction-cache entries removed, by reason.",
        labels=("reason",),  # capacity | ttl | invalidated
    ),
    MetricSpec(
        "merch_service_shed_total", "counter",
        "Requests answered with the degrade-to-daemon fallback "
        "(admission saturation or exhausted batch retries).",
    ),
    MetricSpec(
        "merch_service_queue_depth", "gauge",
        "Pending (admitted, undecided) requests, sampled on every "
        "enqueue/dequeue.",
    ),
    MetricSpec(
        "merch_service_saturation_transitions_total", "counter",
        "Admission-controller state transitions.",
        labels=("to",),  # saturated | normal
    ),
    MetricSpec(
        "merch_service_pool_jobs_total", "counter",
        "Jobs dispatched to the worker pool, by execution mode.",
        labels=("mode",),  # serial | process
    ),
    MetricSpec(
        "merch_service_dram_pages_granted_total", "counter",
        "DRAM pages granted across all batch decisions "
        "(cached grants included in their batch's ledger).",
    ),
    # -- network transport ----------------------------------------------
    MetricSpec(
        "merch_transport_connections_total", "counter",
        "TCP connections accepted by the placement transport server.",
    ),
    MetricSpec(
        "merch_transport_active_connections", "gauge",
        "Currently open transport connections.",
    ),
    MetricSpec(
        "merch_transport_frames_total", "counter",
        "Frames moved over the wire, by direction (server perspective).",
        labels=("direction",),  # rx | tx
    ),
    MetricSpec(
        "merch_transport_bytes_total", "counter",
        "Frame bytes moved over the wire, by direction (server perspective).",
        labels=("direction",),  # rx | tx
    ),
    MetricSpec(
        "merch_transport_frame_errors_total", "counter",
        "Frames rejected at decode, by failure kind.",
        labels=("kind",),  # corrupt | truncated | oversize | protocol
    ),
    MetricSpec(
        "merch_transport_backpressure_pauses_total", "counter",
        "Reader parks because a connection hit its in-flight window.",
    ),
    MetricSpec(
        "merch_transport_idle_timeouts_total", "counter",
        "Connections closed for sending no complete frame within the "
        "idle timeout.",
    ),
    MetricSpec(
        "merch_transport_client_retries_total", "counter",
        "Client request attempts beyond the first (idempotent "
        "resubmissions after a transport failure).",
    ),
    MetricSpec(
        "merch_transport_client_fallbacks_total", "counter",
        "Client requests answered by the local degrade-to-daemon "
        "fallback after exhausting retries.",
    ),
    MetricSpec(
        "merch_transport_decided_evictions_total", "counter",
        "Decided-request-id idempotency records evicted from the "
        "bounded window.",
    ),
    MetricSpec(
        "merch_transport_decided_evicted_replans_total", "counter",
        "Retried request ids that arrived after their idempotency "
        "record was evicted and had to be re-planned.",
    ),
    # -- transport teardown accounting -----------------------------------
    MetricSpec(
        "merch_transport_teardown_errors_total", "counter",
        "Exceptions swallowed (but journaled) on connection-teardown "
        "paths, by path.",
        labels=("path",),  # client_close | pump_cancel | conn_close
    ),
    # -- flight recorder / replay ----------------------------------------
    MetricSpec(
        "merch_replay_records_total", "counter",
        "Records journaled by the flight recorder, by event (command "
        "events by name; observational wire events as observed).",
        labels=("event",),  # request | fire | decision | observed
    ),
    MetricSpec(
        "merch_replay_dropped_records_total", "counter",
        "Records evicted from a ring-mode flight recorder past its "
        "capacity.",
    ),
    MetricSpec(
        "merch_replay_flushes_total", "counter",
        "Explicit flight-recorder durability barriers (flush + fsync).",
    ),
    MetricSpec(
        "merch_replay_replayed_total", "counter",
        "Recorded decisions compared during deterministic replay, by "
        "outcome.",
        labels=("outcome",),  # matched | divergent
    ),
    MetricSpec(
        "merch_replay_gate_violations_total", "counter",
        "SLO-gate threshold violations, by threshold name.",
        labels=("threshold",),
    ),
    # -- DAG task runtime -------------------------------------------------
    MetricSpec(
        "merch_runtime_dags_total", "counter",
        "Task DAGs lowered by the DAG executor (one per outer iteration).",
    ),
    MetricSpec(
        "merch_runtime_tasks_total", "counter",
        "Task instances lowered from DAG nodes into engine regions.",
    ),
    MetricSpec(
        "merch_runtime_edges_total", "counter",
        "Dependency edges in lowered DAGs, by how the edge was obtained.",
        labels=("source",),  # explicit | inferred
    ),
    MetricSpec(
        "merch_runtime_regions_total", "counter",
        "Engine regions produced by DAG lowering, by lowering mode.",
        labels=("mode",),  # wavefront | gated
    ),
    MetricSpec(
        "merch_runtime_ready_tasks", "histogram",
        "Ready-set width at each topological level of a lowered DAG.",
        buckets=COUNT,
    ),
    MetricSpec(
        "merch_runtime_plans_total", "counter",
        "DAG-policy planner invocations, by effective objective.",
        labels=("objective",),  # critical-path | barrier
    ),
    MetricSpec(
        "merch_runtime_critical_path_seconds", "histogram",
        "Predicted critical-path length of each DAG plan (virtual time).",
        buckets=VIRTUAL_SECONDS,
    ),
    MetricSpec(
        "merch_runtime_tail_seconds", "histogram",
        "Per-task downstream critical-path tail at planning time "
        "(virtual time).",
        buckets=VIRTUAL_SECONDS,
    ),
)


def spec_names() -> set[str]:
    return {spec.name for spec in METRIC_SPECS}


def register_all(registry: MetricRegistry) -> None:
    """Pre-register the full catalogue on ``registry``."""
    for spec in METRIC_SPECS:
        if spec.kind == "counter":
            registry.counter(spec.name, spec.help, labels=spec.labels)
        elif spec.kind == "gauge":
            registry.gauge(spec.name, spec.help, labels=spec.labels)
        elif spec.kind == "histogram":
            registry.histogram(
                spec.name, spec.help, labels=spec.labels, buckets=spec.buckets
            )
        else:  # pragma: no cover - catalogue bug
            raise ValueError(f"unknown metric kind {spec.kind!r} for {spec.name!r}")
