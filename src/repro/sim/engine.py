"""Virtual-time execution engine.

The engine runs a :class:`~repro.tasks.task.Workload` region by region under
a :class:`PlacementPolicy`.  Within a region it advances all task instances
in small virtual-time ticks:

* each tick, every unfinished instance's instantaneous execution time is
  computed from the ground-truth machine model and the *current* placement
  (page migrations mid-region change an instance's speed mid-flight).  One
  batched kernel per region prices the ticks and the refreshes around the
  policy's region start hook; it prices the region again only when the
  placement it is handed changed, and otherwise returns the rows it kept;
* per-tier bandwidth demand is aggregated across instances and migration
  traffic; if it exceeds the tier's capability, progress is scaled back
  (bandwidth contention);
* the placement policy's ``on_tick`` hook may request page migrations,
  throttled to a configurable fraction of the slowest tier's bandwidth;
* the region's barrier releases when every instance reaches progress 1;
  per-task busy and barrier-wait times are recorded (Figure 5's data).

One tick loop serves every tier count.  The 2-tier DRAM/PM machine is its
n = 2 case: the page table's and the kernel's n = 2 front ends
(:class:`PageTable`, :class:`BreakdownKernel`), chosen by tier count, price
the per-object DRAM fraction in the 2-tier float order, so 2-tier results
are bit-exact.  Pressure-eviction planning, the capacity squeeze during a
batch and the occupancy gauge are the table's work.
Environment faults keep the 2-tier model's mapping on any topology:
bandwidth degradation hits the slowest tier, capacity pressure the
fastest.

All time is virtual; nothing depends on the wall clock, and the only
randomness comes from the seeded generator in :class:`EngineContext`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import add
from typing import TYPE_CHECKING, Callable, Mapping

import numpy as np

from repro.common import PAGE_SIZE, make_rng, seq_sum
from repro.sim.faults import FaultInjector, RobustnessReport
from repro.sim.kernels import BreakdownKernel, TieredBreakdownKernel
from repro.sim.machine import MachineModel
from repro.sim.memspec import HMConfig, TopologySpec
from repro.sim.pages import (
    MigrationBatch,
    PageRates,
    PageTable,
    TieredPageTable,
    trim_moves,
)
from repro.tasks.task import ParallelRegion, TaskInstanceSpec, Workload

if TYPE_CHECKING:  # pragma: no cover
    # imported lazily at runtime: repro.core.journal pulls in the whole
    # core package, which itself imports this module
    from repro.core.journal import CrashImage, RecoveryOutcome, WriteAheadLog
    from repro.core.telemetry import Telemetry

__all__ = [
    "EngineConfig",
    "EngineContext",
    "PlacementPolicy",
    "RegionResult",
    "RunResult",
    "Engine",
]


@dataclass(frozen=True)
class EngineConfig:
    """Engine tuning knobs."""

    #: Target number of ticks across the slowest instance of a region
    #: (which is as long as the region); controls the time resolution of
    #: contention and migration.
    ticks_per_instance: int = 60
    #: Hard cap on ticks per region (runaway guard).
    max_ticks_per_region: int = 50_000
    #: Fraction of the slowest tier's read bandwidth migrations may consume
    #: per tick.
    migration_bandwidth_fraction: float = 0.25
    #: Record the per-tick bandwidth trace (Figure 6) when True.
    record_bandwidth: bool = True
    #: With a journal attached: epochs between planner-state checkpoints
    #: (1 = checkpoint at every epoch commit).
    checkpoint_interval: int = 1


class EngineContext:
    """Mutable state the engine shares with the placement policy."""

    def __init__(
        self,
        workload: Workload,
        page_table: "PageTable | TieredPageTable",
        machine: MachineModel,
        topology: TopologySpec,
        rng: np.random.Generator,
        faults: FaultInjector | None = None,
        telemetry: "Telemetry | None" = None,
    ) -> None:
        self.workload = workload
        self.page_table = page_table
        self.machine = machine
        #: the memory system (an :class:`HMConfig` when the engine got one)
        self.topology = topology
        self.rng = rng
        #: fault injector the engine and profilers consult (None = healthy)
        self.faults = faults
        #: shared telemetry (repro.core.telemetry); policies read it off the
        #: context so instrumentation follows the run, not the object graph
        self.telemetry = telemetry
        self.time = 0.0
        self.region: ParallelRegion | None = None
        self.region_index = -1
        #: instance progress in [0, 1] by task id (current region)
        self.progress: dict[str, float] = {}
        #: task ids whose intra-region gates have not opened yet (empty for
        #: classic barrier regions); gated instances make no progress and
        #: are invisible to :meth:`active_instances`
        self.gated: set[str] = set()
        #: latest instantaneous execution-time estimate by task id
        self.instance_times: dict[str, float] = {}
        self.pages_migrated = 0
        self.migration_overhead_s = 0.0
        #: pages the engine will accept per tick (set each region from the
        #: migration bandwidth budget); policies should not request more
        self.migration_budget_pages = 1
        #: migration batches (or parts of batches) that failed to apply,
        #: for policies that implement retry; cleared at each region start
        self.failed_migrations: list[MigrationBatch] = []

    # -- helpers policies rely on --------------------------------------
    def active_instances(self) -> list[TaskInstanceSpec]:
        assert self.region is not None
        return [
            inst
            for inst in self.region.instances
            if self.progress.get(inst.task_id, 0.0) < 1.0
            and inst.task_id not in self.gated
        ]

    def page_rates(self) -> PageRates:
        """Per-page main-memory access rates (accesses/second), summed over
        the region's active instances, as per-object rate terms: each
        accessing instance contributes ``acc.total / t`` times the object's
        page weights, in active-instance order.

        This is what the sampling profilers observe: address-level hotness
        with no task attribution unless a profiler adds it.  They evaluate
        the terms at the pages they sample only.
        """
        terms: dict[str, list[float]] = {}
        for inst in self.active_instances():
            t = max(self.instance_times.get(inst.task_id, 0.0), 1e-12)
            for acc in inst.footprint.accesses:
                terms.setdefault(acc.obj, []).append(acc.total / t)
        return PageRates(self.page_table, terms)

    def page_access_rates(self) -> dict[str, np.ndarray]:
        """:meth:`page_rates` as full per-page arrays, for consumers that
        need every page (the Memory Mode cache, Thermostat probes)."""
        return self.page_rates().arrays()


class PlacementPolicy:
    """Base class for data-placement policies (baselines and Merchandiser).

    Policies may stage placement directly in the start hooks (through the
    page table's ``place_all`` and ``place``) and must route mid-run
    movement through ``on_tick``'s
    :class:`MigrationBatch` return (a destination tier per move, 0 the
    fastest) so the engine can charge bandwidth.
    """

    name = "policy"

    def on_workload_start(self, ctx: EngineContext) -> None:  # pragma: no cover
        """Called once before the first region."""

    def on_region_start(self, ctx: EngineContext) -> None:  # pragma: no cover
        """Called when a region's tasks become known, before they start."""

    def on_tick(self, ctx: EngineContext, dt: float) -> MigrationBatch | None:
        """Called every tick; return page moves to perform (or None)."""
        return None

    def on_region_end(self, ctx: EngineContext) -> None:  # pragma: no cover
        """Called after the region's barrier releases."""

    # -- crash consistency hooks (see repro.core.journal) --------------
    def snapshot_state(self) -> dict | None:  # pragma: no cover
        """JSON-serialisable planner state for journal checkpoints.

        ``None`` (the default) means the policy has nothing worth
        checkpointing; recovery then restarts it cold.
        """
        return None

    def restore_state(self, state: dict) -> None:  # pragma: no cover
        """Restore :meth:`snapshot_state` output on a fresh policy."""

    def on_recover(self, ctx: EngineContext) -> None:  # pragma: no cover
        """Called instead of ``on_workload_start`` when resuming after a
        crash: page placement survived, so policies must NOT reset it."""


@dataclass
class RegionResult:
    """Per-region outcome: when each task finished and how long it worked."""

    name: str
    start_s: float
    end_s: float
    #: task id -> time the task was busy executing (its own work)
    busy_s: dict[str, float] = field(default_factory=dict)
    #: task id -> time spent waiting at the barrier for slower tasks
    wait_s: dict[str, float] = field(default_factory=dict)

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s


@dataclass
class RunResult:
    """Complete outcome of one engine run."""

    policy: str
    workload: str
    total_time_s: float
    regions: list[RegionResult]
    pages_migrated: int
    #: bandwidth trace: times plus per-tier bytes/second, one row per tick
    trace_time: np.ndarray
    trace_dram_bw: np.ndarray
    trace_pm_bw: np.ndarray
    trace_migration_bw: np.ndarray
    #: merged fault + guardrail events and per-kind counters for the run
    robustness: RobustnessReport = field(default_factory=RobustnessReport)

    def task_busy_times(self) -> dict[str, float]:
        """Total busy time per task across all regions (Figure 5's metric)."""
        out: dict[str, float] = {}
        for region in self.regions:
            for task, busy in region.busy_s.items():
                out[task] = out.get(task, 0.0) + busy
        return out

    def task_wait_times(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for region in self.regions:
            for task, wait in region.wait_s.items():
                out[task] = out.get(task, 0.0) + wait
        return out

    def mean_dram_bandwidth(self) -> float:
        """Time-averaged DRAM bandwidth (bytes/s) over the run."""
        if len(self.trace_time) == 0:
            return 0.0
        return float(np.mean(self.trace_dram_bw))

    def mean_pm_bandwidth(self) -> float:
        if len(self.trace_time) == 0:
            return 0.0
        return float(np.mean(self.trace_pm_bw))


class Engine:
    """Runs workloads on the simulated heterogeneous-memory node."""

    def __init__(
        self,
        machine: MachineModel | None = None,
        hm: HMConfig | None = None,
        config: EngineConfig | None = None,
        faults: FaultInjector | None = None,
        journal: "WriteAheadLog | None" = None,
        telemetry: "Telemetry | None" = None,
        topology: TopologySpec | None = None,
    ) -> None:
        from repro.sim.memspec import optane_hm_config

        self.machine = machine or MachineModel()
        if hm is not None and topology is not None:
            raise ValueError("pass either hm or topology, not both")
        #: the memory system; ``hm`` and ``topology`` name the same thing
        self.topology = hm or topology or optane_hm_config()
        self._tiered = self.topology.n_tiers > 2
        if self._tiered and journal is not None:
            raise ValueError("crash journaling is only supported on 2-tier topologies")
        self.config = config or EngineConfig()
        #: optional fault injector; consulted by the tick loop and exposed
        #: to policies/profilers through the engine context
        self.faults = faults
        #: optional write-ahead log (repro.core.journal).  ``None`` keeps
        #: the engine bit-identical to the journal-free pipeline; attached,
        #: every epoch/move/commit is logged ahead of application so a
        #: crashed run can be recovered via :meth:`recover`.
        self.journal = journal
        #: optional telemetry (repro.core.telemetry.Telemetry).  ``None``
        #: (the default) keeps the engine bit-identical to the
        #: uninstrumented pipeline; attached, the engine records migration/
        #: occupancy/duration metrics and virtual-time spans, and shares the
        #: object with the policy (via the context) and the journal.
        self.telemetry = telemetry
        if journal is not None and telemetry is not None and journal.telemetry is None:
            journal.telemetry = telemetry
        self._epochs_since_checkpoint = 0

    # ------------------------------------------------------------------
    def run(
        self,
        workload: Workload,
        policy: PlacementPolicy,
        seed=0,
        page_table: PageTable | None = None,
    ) -> RunResult:
        """Execute ``workload`` under ``policy`` and return the result.

        With a journal attached and crash faults armed this may raise
        :class:`~repro.core.journal.SimulatedCrash`; the exception carries
        the surviving state, which :meth:`recover` accepts.
        """
        rng = make_rng(seed)
        if page_table is None:
            if self._tiered:
                page_table = TieredPageTable(
                    workload.objects, self.topology.capacity_vector(), rng=rng
                )
            else:
                page_table = PageTable(
                    workload.objects, self.topology.fastest.capacity_bytes, rng=rng
                )
        ctx = EngineContext(
            workload, page_table, self.machine, self.topology, rng,
            faults=self.faults, telemetry=self.telemetry,
        )
        if self.telemetry is not None:
            self.telemetry.inc("merch_engine_runs_total")
        policy.on_workload_start(ctx)
        self._epochs_since_checkpoint = 0
        return self._run_regions(ctx, policy, start_region=0)

    # ------------------------------------------------------------------
    def recover(
        self,
        workload: Workload,
        policy: PlacementPolicy,
        image: "CrashImage",
        seed=0,
    ) -> "tuple[RunResult, RecoveryOutcome]":
        """Bring a crashed run back and finish the workload.

        ``image`` is the surviving state off a :class:`SimulatedCrash`
        (journal + page placement).  The journal is replayed: the
        uncommitted epoch is rolled back to its pre-epoch placement,
        placement invariants are verified, planner state is restored from
        the newest committed checkpoint, and execution resumes at the
        interrupted region.  ``policy`` must be a *fresh* instance (the
        crashed one died with the process); it is warmed via
        ``restore_state`` + ``on_recover``.
        """
        from repro.core.journal import recover_journal

        if self._tiered:
            raise ValueError("crash recovery is only supported on 2-tier topologies")
        journal = image.journal if image.journal is not None else self.journal
        if journal is None:
            raise ValueError("cannot recover a run that was not journaled")
        self.journal = journal
        if self.telemetry is not None and journal.telemetry is None:
            journal.telemetry = self.telemetry
        outcome = recover_journal(journal, image.page_table)
        self._verify_task_conservation(workload, image, outcome)
        if outcome.checkpoint_state is not None:
            policy.restore_state(outcome.checkpoint_state)
        rng = make_rng(seed)
        ctx = EngineContext(
            workload, image.page_table, self.machine, self.topology, rng,
            faults=self.faults, telemetry=self.telemetry,
        )
        ctx.time = outcome.resume_time_s
        if self.telemetry is not None:
            self.telemetry.inc("merch_engine_runs_total")
        policy.on_recover(ctx)
        journal.append(
            "recovered",
            outcome.open_epoch,
            {
                "resume_region": outcome.resume_region,
                "time_s": outcome.resume_time_s,
                "rolled_back_pages": outcome.rolled_back_pages,
                "torn_tail": outcome.torn_tail,
                "warm": outcome.checkpoint_state is not None,
            },
        )
        journal.log.record(
            "journal.recovered",
            outcome.resume_time_s,
            region=outcome.resume_region,
            warm=outcome.checkpoint_state is not None,
        )
        self._epochs_since_checkpoint = 0
        result = self._run_regions(ctx, policy, start_region=outcome.resume_region)
        return result, outcome

    def _verify_task_conservation(
        self, workload: Workload, image: "CrashImage", outcome: "RecoveryOutcome"
    ) -> None:
        """Quota conservation per task: after the rollback, each task of the
        interrupted region holds exactly the DRAM-access share it had when
        the epoch began."""
        payload = outcome.open_begin_payload
        if payload is None or outcome.resume_region >= len(workload.regions):
            return
        region = workload.regions[outcome.resume_region]
        fractions = image.page_table.access_fractions()
        want = payload.get("task_r_dram", {})
        for inst in region.instances:
            expected = want.get(inst.task_id)
            if expected is None:
                continue
            actual = inst.footprint.dram_ratio(fractions)
            if abs(actual - float(expected)) > 1e-6:
                text = (
                    f"task {inst.task_id!r}: r_dram {actual:.6f} after "
                    f"rollback, epoch began at {float(expected):.6f}"
                )
                outcome.violations.append(text)
                image.journal.log.record(
                    "journal.invariant_violation", image.time_s, detail_text=text
                )

    # ------------------------------------------------------------------
    def _run_regions(
        self, ctx: EngineContext, policy: PlacementPolicy, start_region: int
    ) -> RunResult:
        workload = ctx.workload
        regions: list[RegionResult] = []
        trace_t: list[float] = []
        trace_d: list[float] = []
        trace_p: list[float] = []
        trace_m: list[float] = []
        tel = self.telemetry
        run_span = (
            tel.tracer.begin(
                "run", ctx.time, track="virtual",
                workload=workload.name, policy=policy.name,
            )
            if tel is not None
            else None
        )

        for idx in range(start_region, len(workload.regions)):
            region = workload.regions[idx]
            ctx.region = region
            ctx.region_index = idx
            ctx.progress = {inst.task_id: 0.0 for inst in region.instances}
            ctx.gated = set(region.gate_map())
            region_span = (
                tel.tracer.begin(
                    "region", ctx.time, track="virtual",
                    index=idx, region=region.name, instances=len(region.instances),
                )
                if tel is not None
                else None
            )
            # one kernel prices the region's start refreshes and its ticks;
            # a refresh the policy moved nothing after is a memo hit
            kernel, placement = self._region_kernel(ctx)
            self._refresh_times(ctx, kernel, placement)
            policy.on_region_start(ctx)
            self._refresh_times(ctx, kernel, placement)

            epoch: int | None = None
            begin_payload: dict | None = None
            if self.journal is not None:
                epoch, begin_payload = self._journal_epoch_begin(ctx, policy)
            result = self._run_region(
                ctx, policy, kernel, placement, epoch,
                trace_t, trace_d, trace_p, trace_m,
            )
            regions.append(result)
            policy.on_region_end(ctx)
            if self.journal is not None:
                self._journal_epoch_commit(ctx, epoch, begin_payload, policy)
            if tel is not None:
                tel.tracer.end(region_span, ctx.time)
                tel.inc("merch_engine_regions_total")
                tel.observe(
                    "merch_engine_region_duration_seconds", result.duration_s
                )
                for wait in result.wait_s.values():
                    tel.observe("merch_engine_barrier_wait_seconds", wait)
        if tel is not None:
            tel.tracer.end(run_span, ctx.time)

        fault_log = self.faults.log if self.faults is not None else None
        guard_log = getattr(policy, "guardrail_log", None)
        journal_log = self.journal.log if self.journal is not None else None
        return RunResult(
            policy=policy.name,
            workload=workload.name,
            total_time_s=ctx.time,
            regions=regions,
            pages_migrated=ctx.pages_migrated,
            trace_time=np.asarray(trace_t),
            trace_dram_bw=np.asarray(trace_d),
            trace_pm_bw=np.asarray(trace_p),
            trace_migration_bw=np.asarray(trace_m),
            robustness=RobustnessReport.merged(fault_log, guard_log, journal_log),
        )

    # ------------------------------------------------------------------
    # journal integration (no-ops when self.journal is None)
    # ------------------------------------------------------------------
    def _journal_epoch_begin(
        self, ctx: EngineContext, policy: PlacementPolicy
    ) -> tuple[int, dict]:
        """Open a migration epoch: durably snapshot the pre-epoch placement."""
        assert ctx.region is not None and self.journal is not None
        table = ctx.page_table
        payload = {
            "region": ctx.region_index,
            "name": ctx.region.name,
            "time_s": ctx.time,
            "dram_capacity_bytes": int(table.dram_capacity_bytes),
            "dram_pages": {o.name: o.pages_in(0) for o in table},
            "task_r_dram": self._task_r_dram_map(ctx),
            "quota_targets": {
                str(k): float(v)
                for k, v in (getattr(policy, "_quota_targets", None) or {}).items()
            },
        }
        return self.journal.begin_epoch(payload), payload

    def _task_r_dram_map(self, ctx: EngineContext) -> dict[str, float]:
        assert ctx.region is not None
        fractions = ctx.page_table.access_fractions()
        return {
            inst.task_id: inst.footprint.dram_ratio(fractions)
            for inst in ctx.region.instances
        }

    def _journal_epoch_commit(
        self,
        ctx: EngineContext,
        epoch: int | None,
        begin_payload: dict | None,
        policy: PlacementPolicy,
    ) -> None:
        from repro.core.journal import verify_placement

        assert self.journal is not None and epoch is not None
        self.journal.commit_epoch(
            epoch,
            {
                "region": ctx.region_index,
                "time_s": ctx.time,
                "pages_migrated": ctx.pages_migrated,
            },
        )
        for text in verify_placement(ctx.page_table):
            self.journal.log.record(
                "journal.invariant_violation", ctx.time, detail_text=text
            )
        if self.telemetry is not None and begin_payload is not None:
            self.telemetry.observe(
                "merch_engine_epoch_duration_seconds",
                ctx.time - float(begin_payload["time_s"]),
            )
        self._epochs_since_checkpoint += 1
        if self._epochs_since_checkpoint >= max(1, self.config.checkpoint_interval):
            state = policy.snapshot_state()
            if state is not None:
                self.journal.checkpoint(epoch, state)
                self._epochs_since_checkpoint = 0

    def _journal_batch(
        self, ctx: EngineContext, epoch: int | None, batch: MigrationBatch, cause: str
    ) -> None:
        """Write-ahead: log a batch's moves with each page's tier before the
        move (its before-image) BEFORE any page moves.  A kill configured for the
        "wal_append" crash point dies here -- with ``crash_torn_tail`` the
        record's bytes are cut short, and either way the mutation never
        happens."""
        if self.journal is None or epoch is None:
            return
        table = ctx.page_table
        moves = [
            {
                "obj": name,
                "pages": np.asarray(idx, dtype=np.intp),
                "before": table.object(name).page_tier[idx].copy(),
                "dst": int(dst),
            }
            for name, idx, dst in batch.moves
            if len(idx)
        ]
        if not moves:
            return
        if self.faults is not None and self.faults.crash_due("wal_append", ctx.time):
            if self.faults.config.crash_torn_tail:
                self.journal.append_torn(
                    "move", epoch, {"cause": cause, "moves": moves}
                )
            else:
                self.journal.log_moves(epoch, moves, cause)
            raise self._crash(ctx)
        self.journal.log_moves(epoch, moves, cause)

    def _crash(self, ctx: EngineContext) -> Exception:
        from repro.core.journal import CrashImage, SimulatedCrash

        return SimulatedCrash(
            CrashImage(
                journal=self.journal, page_table=ctx.page_table, time_s=ctx.time
            )
        )

    # ------------------------------------------------------------------
    def _region_kernel(
        self, ctx: EngineContext
    ) -> tuple[TieredBreakdownKernel, Callable[[], Mapping]]:
        """The region's batched tick kernel and the placement read it prices.

        The kernel hoists the placement-independent parts of every
        instance's breakdown out of the tick loop (PERFORMANCE.md).  A
        2-tier table hands it per-object DRAM ratios, priced as the n = 2
        case of the N-tier body, bit-identical to one
        MachineModel.breakdown call per instance.
        """
        assert ctx.region is not None
        footprints = [(inst.task_id, inst.footprint) for inst in ctx.region.instances]
        table = ctx.page_table
        if self._tiered:
            kernel = TieredBreakdownKernel(self.machine, self.topology, footprints)
            return kernel, table.access_fraction_vectors
        kernel = BreakdownKernel(self.machine, self.topology, footprints)
        return kernel, table.access_fractions

    def _refresh_times(
        self,
        ctx: EngineContext,
        kernel: TieredBreakdownKernel,
        placement: Callable[[], Mapping],
    ) -> None:
        """Price every instance of the region under the current placement."""
        assert ctx.region is not None
        ids = [inst.task_id for inst in ctx.region.instances]
        for tid, bd in zip(ids, kernel.breakdown_batch(ids, placement())):
            ctx.instance_times[tid] = bd.total_s

    # ------------------------------------------------------------------
    def _run_region(
        self,
        ctx: EngineContext,
        policy: PlacementPolicy,
        kernel: TieredBreakdownKernel,
        placement: Callable[[], Mapping],
        epoch: int | None,
        trace_t: list[float],
        trace_d: list[float],
        trace_p: list[float],
        trace_m: list[float],
    ) -> RegionResult:
        cfg = self.config
        topo = self.topology
        n = topo.n_tiers
        region = ctx.region
        assert region is not None
        table = ctx.page_table
        tel = self.telemetry
        start = ctx.time
        finish: dict[str, float] = {}
        gates = region.gate_map()
        #: task id -> virtual time the instance was released to run (region
        #: start for ungated instances, gate-open tick for gated ones)
        released: dict[str, float] = {
            inst.task_id: start
            for inst in region.instances
            if inst.task_id not in ctx.gated
        }

        # tick size tracks the slowest instance: the region lives that long,
        # and short instances complete mid-tick via interpolation.  Tying dt
        # to the fastest instance would shrink ticks (and per-tick migration
        # budgets) arbitrarily under heavy skew.
        max_t = max(ctx.instance_times[i.task_id] for i in region.instances)
        dt = max(max_t / cfg.ticks_per_instance, 1e-9)
        bandwidths = [tier.read_bandwidth for tier in topo.tiers]
        mig_budget_bytes = cfg.migration_bandwidth_fraction * bandwidths[-1] * dt
        ctx.migration_budget_pages = max(1, int(mig_budget_bytes // PAGE_SIZE))
        ctx.failed_migrations.clear()

        ticks = 0
        while len(finish) < len(region.instances):
            ticks += 1
            if ticks > cfg.max_ticks_per_region:
                raise RuntimeError(
                    f"region {region.name!r} exceeded {cfg.max_ticks_per_region} ticks"
                )
            if self.faults is not None and self.faults.crash_due("tick", ctx.time):
                raise self._crash(ctx)
            if ctx.gated:
                # open any gates whose dependencies have all finished; the
                # released instance starts progressing from this tick
                for tid in sorted(ctx.gated):
                    if all(dep in finish for dep in gates[tid]):
                        ctx.gated.discard(tid)
                        released[tid] = ctx.time
            fractions = placement()
            active = ctx.active_instances()
            if not active and ctx.gated:
                # unreachable for validated DAG gates (ParallelRegion rejects
                # cycles), kept as a runaway guard
                raise RuntimeError(
                    f"region {region.name!r}: gated instances "
                    f"{sorted(ctx.gated)} can never be released"
                )

            # phase 1: unconstrained progress and per-tier byte demand.
            # Demand sums stay sequential Python adds in instance order, as
            # in the per-instance reference.
            dprog: dict[str, float] = {}
            # task id -> whole-instance bytes per tier, fastest first
            inst_bytes: dict[str, list[float]] = {}
            demand = [0.0] * n
            bd_batch = kernel.breakdown_batch(
                [inst.task_id for inst in active], fractions
            )
            for inst, bd in zip(active, bd_batch):
                ctx.instance_times[inst.task_id] = bd.total_s
                d = dt / max(bd.total_s, 1e-12)
                dprog[inst.task_id] = d
                b = list(map(add, bd.tier_read_bytes, bd.tier_write_bytes))
                inst_bytes[inst.task_id] = b
                for k in range(n):
                    demand[k] += d * b[k]

            # phase 2: bandwidth contention scaling per tier.  Transient
            # bandwidth degradation (an injected environment fault) shrinks
            # the slowest tier's cap for the affected ticks.
            bw_factor = (
                self.faults.pm_bandwidth_factor(ctx.time)
                if self.faults is not None
                else 1.0
            )
            caps = [bw * dt for bw in bandwidths]
            caps[-1] *= bw_factor
            scales = [
                min(1.0, cap / want) if want > 0 else 1.0
                for cap, want in zip(caps, demand)
            ]
            fast_scales, slow_scale = scales[:-1], scales[-1]

            tick_bytes = [0.0] * n
            for inst in active:
                b = inst_bytes[inst.task_id]
                total_bytes = seq_sum(b)
                if total_bytes > 0:
                    # the 2-tier order for every n: the slowest tier takes
                    # the weight the faster tiers leave, 1 - sum(w_k)
                    scale = 0.0
                    w_fast = 0.0
                    for b_k, s_k in zip(b, fast_scales):
                        w = b_k / total_bytes
                        scale += w * s_k
                        w_fast += w
                    scale = scale + (1.0 - w_fast) * slow_scale
                else:
                    scale = 1.0
                step = dprog[inst.task_id] * scale
                prev = ctx.progress[inst.task_id]
                new = prev + step
                if new >= 1.0:
                    # interpolate the exact finish instant inside the tick
                    frac = (1.0 - prev) / max(step, 1e-15)
                    finish[inst.task_id] = ctx.time + frac * dt
                    new = 1.0
                ctx.progress[inst.task_id] = new
                done = new - prev
                # the bytes are whole-instance totals; this tick moved the
                # completed fraction of them
                for k in range(n):
                    tick_bytes[k] += done * b[k]

            # capacity-pressure spike: an external allocation steals
            # fastest-tier capacity, so the kernel demotes our coldest pages
            # to make room and promotions are admitted against the smaller
            # tier.
            pressure = (
                self.faults.dram_pressure_bytes(ctx.time, table.fast_capacity_bytes)
                if self.faults is not None
                else 0
            )
            if pressure > 0:
                evict_batch = table.plan_pressure_evictions(pressure)
                if evict_batch is not None:
                    # kernel-driven demotions mutate placement too, so they
                    # are journaled like policy moves
                    self._journal_batch(ctx, epoch, evict_batch, "pressure")
                    evicted = table.apply_batch(evict_batch)
                    if evicted:
                        ctx.pages_migrated += evicted
                        tick_bytes[-1] += evicted * PAGE_SIZE
                        tick_bytes[0] += evicted * PAGE_SIZE
                        if tel is not None:
                            tel.inc(
                                "merch_engine_pages_migrated_total",
                                evicted, cause="pressure",
                            )
                            tel.inc(
                                "merch_engine_bytes_migrated_total",
                                evicted * PAGE_SIZE, cause="pressure",
                            )

            # phase 3: policy-driven migration, throttled by bandwidth.
            # Injected faults may reject the batch or fail part of it
            # mid-copy.
            batch = policy.on_tick(ctx, dt)
            mig_bytes = 0.0
            if batch is not None and batch.n_pages > 0:
                # migrations read the slowest tier, so a degraded one
                # shrinks their budget
                max_pages = max(1, int(mig_budget_bytes * bw_factor // PAGE_SIZE))
                batch = _clamp_batch(batch, max_pages)
                if self.faults is not None:
                    batch, failed = self.faults.migration_outcome(batch, ctx.time)
                    if failed is not None:
                        ctx.failed_migrations.append(failed)
                if batch is not None and batch.n_pages > 0:
                    # intent is durable before any page moves; a crash past
                    # this point leaves a half-applied batch the journal can
                    # roll back exactly
                    self._journal_batch(ctx, epoch, batch, "policy")
                    crash_mid = self.faults is not None and self.faults.crash_due(
                        "mid_batch", ctx.time
                    )
                    to_apply = batch
                    if crash_mid:
                        # the kill lands mid-copy: only the first half of the
                        # batch reaches the page table
                        to_apply = _clamp_batch(batch, max(1, batch.n_pages // 2))
                    moved = table.apply_batch_under_pressure(to_apply, pressure)
                    if crash_mid:
                        raise self._crash(ctx)
                    ctx.pages_migrated += moved
                    mig_bytes = moved * PAGE_SIZE
                    overhead = moved * topo.page_migration_overhead_s
                    ctx.migration_overhead_s += overhead
                    if tel is not None and moved:
                        tel.inc(
                            "merch_engine_pages_migrated_total", moved, cause="policy"
                        )
                        tel.inc(
                            "merch_engine_bytes_migrated_total",
                            mig_bytes, cause="policy",
                        )
                        tel.inc(
                            "merch_engine_migration_overhead_seconds_total", overhead
                        )
                        tel.tracer.add_complete(
                            "migrate", ctx.time, overhead,
                            track="virtual", pages=moved, cause="policy",
                        )
                    # copies read the source tier and write the destination;
                    # charge the fastest and the slowest tier the full copy
                    # traffic
                    tick_bytes[-1] += mig_bytes
                    tick_bytes[0] += mig_bytes

            if cfg.record_bandwidth:
                trace_t.append(ctx.time)
                trace_d.append(tick_bytes[0] / dt)
                trace_p.append(seq_sum(tick_bytes[1:]) / dt)
                trace_m.append(mig_bytes / dt)

            if tel is not None:
                tel.inc("merch_engine_ticks_total")
                tel.set("merch_engine_dram_occupancy_ratio", table.fast_occupancy())

            ctx.time += dt

        # the barrier releases at the last finish time; snap region end there
        end = max(finish.values())
        ctx.time = end
        if tel is not None:
            first = min(finish.values())
            tel.tracer.add_complete(
                "barrier", first, end - first,
                track="virtual", tasks=len(finish),
            )
        busy = {t: finish[t] - released.get(t, start) for t in finish}
        wait = {t: end - finish[t] for t in finish}
        return RegionResult(
            name=region.name, start_s=start, end_s=end, busy_s=busy, wait_s=wait
        )


def _clamp_batch(batch: MigrationBatch, max_pages: int) -> MigrationBatch:
    """Limit a batch to ``max_pages`` page moves (keep order).

    A batch that fits is returned as is.  A non-positive budget yields an
    empty batch, and moves with no pages are dropped rather than carried
    along as zero-length entries.
    """
    if 0 < max_pages and batch.n_pages <= max_pages:
        return batch
    return MigrationBatch(
        moves=tuple(m for m in trim_moves(batch.moves, max_pages) if len(m[1]))
    )
