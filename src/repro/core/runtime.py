"""Merchandiser's runtime system (Sections 3 and 6).

The runtime drives the whole online workflow on top of the engine's policy
hooks:

* the **first** instance of each task is the *base input*: it runs under the
  default (MemoryOptimizer-like) migration while its per-object access
  counts, performance counters and basic-block counts are profiled;
* for every later region, Equation 1 estimates the new input's accesses,
  Section 5.2 predicts the homogeneous endpoints, and Algorithm 1 turns the
  performance model into per-task DRAM-access quotas;
* quotas are realised by migrating each task's hottest pages toward its
  quota (throttled by the engine's migration bandwidth), and by *gating* the
  background hot-page daemon: pages whose owning tasks have reached their
  goals are not migrated (Section 6, "Page migration");
* when DRAM is short, pages of over-quota tasks are demoted first ("DRAM
  space management");
* after each instance, PEBS-style measurements refine the alpha of
  input-dependent objects (Section 4).
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.common import PAGE_SIZE, make_rng, seq_sum
from repro.core.estimator import AccessEstimator, ObjectDescriptor
from repro.core.guardrails import GuardrailConfig, Guardrails
from repro.core.homogeneous import BasicBlock, HomogeneousPredictor
from repro.core.model import PerformanceModel, TaskModelInputs
from repro.core.planner import PlanResult, greedy_plan
from repro.profiling.hybrid import HybridBaseProfiler
from repro.profiling.pebs import PEBSProfiler
from repro.profiling.hotpages import (
    DAEMON_INTERVAL_S,
    DAEMON_PROMOTE_PAGES,
    DAEMON_SAMPLE_PAGES,
    hot_promotions,
)
from repro.profiling.pte import PTESampleProfiler
from repro.sim.counters import collect_pmcs
from repro.sim.engine import EngineContext, PlacementPolicy
from repro.sim.pages import MigrationBatch, drain_queue, trim_moves
from repro.tasks.task import Footprint, TaskInstanceSpec, Workload

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.telemetry import Telemetry

__all__ = ["ApplicationBinding", "MerchandiserPolicy", "PagePool"]

#: quotas come from noisy estimates; the daemon gate only blocks a task's
#: promotions once it exceeds its goal by this factor, so estimation error
#: cannot starve a task of genuinely useful fast memory
GATE_MARGIN = 1.15
#: PEBS sampling period of the online alpha refinement
PEBS_PERIOD = 512


@dataclass
class ApplicationBinding:
    """What ``LB_HM_config`` plus offline code analysis provide per app.

    * ``descriptors``: per task, the managed objects with their statically
      classified patterns (the Spindle output + API registration);
    * ``blocks``: the task programs' input-independent basic blocks for the
      homogeneous-memory predictor (may be auto-derived from base
      footprints when an app does not declare any);
    * ``object_sizes``: per-instance data-object sizes, "known right before
      task execution" (Section 4's API contract).
    """

    descriptors: dict[str, dict[str, ObjectDescriptor]]
    blocks: list[BasicBlock] = field(default_factory=list)
    #: per (task, region name): object name -> size; falls back to the
    #: workload's declared object sizes when absent.
    instance_object_sizes: dict[tuple[str, str], dict[str, int]] = field(
        default_factory=dict
    )

    def object_sizes(
        self, workload: Workload, inst: TaskInstanceSpec, region_name: str
    ) -> dict[str, int]:
        sizes = self.instance_object_sizes.get((inst.task_id, region_name))
        if sizes is not None:
            return sizes
        return {
            acc.obj: workload.object(acc.obj).size_bytes
            for acc in inst.footprint.accesses
        }


@dataclass(frozen=True)
class PagePool:
    """One task's candidate pages across its objects, with each page's gain
    to the task's access-weighted fast-tier fraction
    (``weight * acc.total / total_accesses``).

    ``owner[i]`` is the position in ``names`` (the pooled objects in name
    order) of page ``pages[i]``'s object.  Both Merchandiser policies rank
    a pool (each with its own tie-break) and take the ranked pages back
    per object with :meth:`by_object`.
    """

    names: tuple[str, ...]
    owner: np.ndarray
    pages: np.ndarray
    gains: np.ndarray

    @classmethod
    def gather(
        cls, table, footprint: Footprint, taken: dict[str, np.ndarray]
    ) -> "PagePool | None":
        """The footprint's pages not marked in ``taken`` (per object page
        masks), object by object in access order; ``None`` when empty.  An
        object the footprint lists twice pools twice, under one name."""
        total = footprint.total_accesses
        objs: list[str] = []
        pages: list[np.ndarray] = []
        gains: list[np.ndarray] = []
        for acc in footprint.accesses:
            cand = np.flatnonzero(~taken[acc.obj])
            if not len(cand):
                continue
            objs.append(acc.obj)
            pages.append(cand)
            gains.append(table.object(acc.obj).weight[cand] * (acc.total / total))
        if not pages:
            return None
        return cls.of(objs, pages, gains)

    @classmethod
    def of(
        cls, objs: list[str], pages: list[np.ndarray], gains: list[np.ndarray]
    ) -> "PagePool":
        """The pool of per-object runs: ``pages[i]`` of object ``objs[i]``,
        each page's gain in ``gains[i]``."""
        names = tuple(sorted(set(objs)))
        number = {name: i for i, name in enumerate(names)}
        owner = np.repeat(
            np.array(
                [number[name] for name in objs],
                dtype=np.min_scalar_type(len(names) - 1),
            ),
            [len(cand) for cand in pages],
        )
        return cls(names, owner, np.concatenate(pages), np.concatenate(gains))

    def by_object(self, take: np.ndarray) -> list[tuple[str, np.ndarray]]:
        """The pool positions ``take`` as ``(object, pages)``, objects in
        name order, pages in ``take`` order."""
        picked = self.owner[take]
        # a stable sort on the narrow owner key is a radix sort
        pages = self.pages[take[np.argsort(picked, kind="stable")]]
        out: list[tuple[str, np.ndarray]] = []
        end = 0
        for name, count in zip(
            self.names, np.bincount(picked, minlength=len(self.names)).tolist()
        ):
            if count:
                out.append((name, pages[end : end + count]))
                end += count
        return out


class MerchandiserPolicy(PlacementPolicy):
    """The complete Merchandiser runtime as an engine placement policy.

    Runs on the 2-tier table only; the registry's N-tier ``merchandiser``
    backend (:class:`~repro.policies.merchandiser.TieredMerchandiserPolicy`)
    plans over more tiers.
    """

    name = "merchandiser"

    def __init__(
        self,
        model: PerformanceModel,
        binding: ApplicationBinding,
        homogeneous: HomogeneousPredictor,
        enable_planning: bool = True,
        enable_gating: bool = True,
        enable_refinement: bool = True,
        seed=None,
        guardrails: GuardrailConfig | None = None,
    ) -> None:
        self.model = model
        self.binding = binding
        self.homogeneous = homogeneous
        #: ablation switches: Algorithm-1 planning / daemon quota gating /
        #: online alpha refinement (all on in the full system)
        self.enable_planning = enable_planning
        self.enable_gating = enable_gating
        self.enable_refinement = enable_refinement
        rng = make_rng(seed)
        self._rng = rng
        self._pte = PTESampleProfiler(max_pages=DAEMON_SAMPLE_PAGES, seed=rng)
        self._pebs = PEBSProfiler(period=PEBS_PERIOD, seed=rng)
        # Section 4: the base input is profiled MemoryOptimizer-style on PM
        # and Thermostat-style on DRAM -- coarse vs fine, by residency
        self._base_profiler = HybridBaseProfiler(seed=rng)
        # base-profile state is keyed per (task, region kind): instances
        # whose access patterns differ are different tasks (Section 2)
        self._estimators: dict[str, AccessEstimator] = {}
        self._base_pmcs: dict[str, dict[str, float]] = {}
        self._base_inputs: dict[str, tuple[float, ...]] = {}
        self._pending_base: list[TaskInstanceSpec] = []
        self._quotas: PlanResult | None = None
        self._quota_targets: dict[str, float] = {}
        #: Algorithm 1's promotions as ``(object, pages, 0)`` moves
        self._promotion_queue: list[tuple[str, np.ndarray, int]] = []
        self._last_scan = -1e30
        # the daemon gate's per-region maps (:meth:`_region_maps`)
        self._maps_region = None
        self._maps: tuple[dict[str, list[str]], dict[str, Footprint]] = ({}, {})
        #: planner decisions per region, for inspection/experiments
        self.plans: list[PlanResult] = []
        #: pages promoted per owning task (shared objects under "<shared>"),
        #: the quantity behind the paper's "pages migrated among tasks can
        #: vary by up to 21.4x" observation
        self.pages_promoted_by_task: dict[str, int] = {}
        #: wall-clock seconds spent in online prediction + planning
        self.planning_overhead_s: float = 0.0
        #: optional runtime guardrails (retry / validation / watchdog /
        #: alpha quarantine).  ``None`` keeps the policy bit-identical to
        #: the guardrail-free system.
        self.guardrails: Guardrails | None = (
            Guardrails(guardrails) if guardrails is not None else None
        )
        #: the engine merges this log into ``RunResult.robustness``
        self.guardrail_log = self.guardrails.log if self.guardrails else None
        self._region_start_s: float = 0.0
        #: watchdog input: predicted region time captured at region start
        self._watch_prediction: float | None = None
        #: shared telemetry, adopted from the engine context at run start;
        #: ``None`` keeps the policy bit-identical to the uninstrumented one
        self._telemetry: "Telemetry | None" = None

    # ------------------------------------------------------------------
    # lifecycle hooks
    # ------------------------------------------------------------------
    def on_workload_start(self, ctx: EngineContext) -> None:
        self._attach(ctx)
        ctx.page_table.place_all(1)
        self._last_scan = -1e30

    def _attach(self, ctx: EngineContext) -> None:
        """Wire a run's telemetry, guardrails, basic blocks and faults."""
        if ctx.page_table.n_tiers != 2:
            raise ValueError(
                f"{type(self).__name__} runs on 2-tier memory only; on a "
                f"{ctx.page_table.n_tiers}-tier topology use the registry's "
                "N-tier 'merchandiser' backend "
                "(repro.policies.build_policy('merchandiser', ...))"
            )
        self._telemetry = ctx.telemetry
        if self.guardrails is not None:
            self.guardrails.attach_telemetry(self._telemetry)
        if self.binding.blocks:
            self.homogeneous.measure_blocks(self.binding.blocks)
        # the engine's fault injector corrupts what our profilers observe
        self._pte.faults = ctx.faults
        self._pebs.faults = ctx.faults
        self._base_profiler.faults = ctx.faults

    @staticmethod
    def _profile_key(task_id: str, kind: str) -> str:
        """Profiles are per (task, phase kind) -- Section 2's task identity."""
        return f"{task_id}|{kind}" if kind else task_id

    def _span(self, name: str, **args):
        """A wall-clock tracer span, or a no-op when telemetry is off."""
        tel = self._telemetry
        if tel is None:
            return nullcontext()
        return tel.tracer.wall_span(name, **args)

    def on_region_start(self, ctx: EngineContext) -> None:
        import time as _time

        assert ctx.region is not None
        self._pending_base = []
        region = ctx.region
        degraded = self.guardrails is not None and self.guardrails.watchdog.degraded
        if degraded:
            # while degraded, keep re-reading PMCs each region so that once
            # the counter path is healthy again predictions recover and the
            # watchdog can re-arm (fresh reads go through the fault injector
            # like any other)
            (pm_only,) = ctx.machine.breakdowns(
                [inst.footprint for inst in region.instances], ctx.topology, [0.0]
            )
            for inst, bd in zip(region.instances, pm_only):
                key = self._profile_key(inst.task_id, region.kind)
                if key in self._base_pmcs:
                    self._base_pmcs[key] = self._read_pmcs(ctx, inst, bd.total_s)
                    self.guardrails.log.record(
                        "guardrail.pmc_reprofile", ctx.time, key=key
                    )
        ready: list[TaskModelInputs] = []
        task_bytes: dict[str, int] = {}
        # how many tasks touch each object (to split shared-object bytes)
        sharers: dict[str, int] = {}
        for inst in region.instances:
            for acc in inst.footprint.accesses:
                sharers[acc.obj] = sharers.get(acc.obj, 0) + 1

        tel = self._telemetry
        prep = (
            tel.tracer.begin(
                "region_prepare",
                tel.tracer.wall_now(),
                track="wall",
                region=region.name,
                tasks=len(region.instances),
            )
            if tel is not None
            else None
        )
        t0 = _time.perf_counter()
        for inst in region.instances:
            tid = inst.task_id
            key = self._profile_key(tid, region.kind)
            est = self._estimators.get(key)
            if est is None or not est.has_base_profile:
                self._pending_base.append(inst)
                continue
            sizes = self._instance_sizes(ctx, inst, region.name)
            with self._span("estimate", task=tid):
                total_acc = est.estimate_total(sizes)
            if total_acc <= 0:
                self._pending_base.append(inst)
                continue
            with self._span("predict", task=tid):
                t_dram, t_pm = self._predict_endpoints(key, inst)
            if self.guardrails is not None:
                validated = self.guardrails.validator.validate_inputs(
                    key, t_dram, t_pm, total_acc, ctx.time
                )
                if validated is None:
                    # insane with nothing to fall back on: re-collect this
                    # task's base profile (bounded per key)
                    if self.guardrails.may_requeue_base(
                        key, ctx.time, "invalid_model_inputs"
                    ):
                        self._estimators.pop(key, None)
                        self._pending_base.append(inst)
                    continue
                t_dram, t_pm, total_acc = validated
            ready.append(
                TaskModelInputs(
                    task_id=tid,
                    t_pm_only=t_pm,
                    t_dram_only=t_dram,
                    total_accesses=total_acc,
                    pmcs=self._base_pmcs[key],
                )
            )
            task_bytes[tid] = int(
                seq_sum(
                    size / max(sharers.get(name, 1), 1) for name, size in sizes.items()
                )
            )

        self._quotas = None
        self._quota_targets = {}
        self._promotion_queue = []
        self._watch_prediction = None
        self._region_start_s = ctx.time
        if self.enable_planning and ready and not self._pending_base:
            with self._span("plan", tasks=len(ready)):
                plan, predicted_region_s = self._plan_region(ctx, ready, task_bytes)
            if tel is not None:
                tel.inc("merch_policy_plans_total")
            if self.guardrails is not None or tel is not None:
                self._watch_prediction = predicted_region_s
            if not degraded:
                # the watchdog's degraded mode: predictions are computed
                # (so recovery is observable) but never acted on -- the
                # policy falls back to the ungated hot-page daemon
                self._quotas = plan
                self._quota_targets = plan.r_by_task()
                self.plans.append(plan)
                self._build_promotion_queue(ctx, plan)
        dt_wall = _time.perf_counter() - t0
        self.planning_overhead_s += dt_wall
        if tel is not None:
            tel.observe("merch_policy_planning_wall_seconds", dt_wall)
            tel.tracer.end(prep, tel.tracer.wall_now())

    def _plan_region(
        self,
        ctx: EngineContext,
        ready: list[TaskModelInputs],
        task_bytes: dict[str, int],
    ) -> tuple[PlanResult, float]:
        """Plan DRAM quotas for the region's ready tasks.

        Returns ``(plan, predicted_region_s)`` where the second element is
        what the watchdog compares against the measured region time.  The
        base implementation is Algorithm 1's barrier objective; the DAG
        runtime's critical-path policy (``repro.runtime.policy``) overrides
        this to steer quota toward the longest weighted path.
        """
        plan = greedy_plan(
            ready,
            self.model,
            ctx.page_table.dram_capacity_bytes,
            task_bytes,
        )
        return plan, plan.predicted_makespan_s

    def on_tick(self, ctx: EngineContext, dt: float) -> MigrationBatch | None:
        # (object, pages, destination tier): 0 promotes to DRAM, 1 demotes
        moves: list[tuple[str, np.ndarray, int]] = []
        # 0. guardrail: charge last tick's failed migrations to the retrier
        # and re-emit any whose backoff has elapsed (ahead of fresh moves,
        # so retries are not starved by the budget clamp)
        retry_attempts = 0
        if self.guardrails is not None:
            if ctx.failed_migrations:
                for failed in ctx.failed_migrations:
                    self.guardrails.retrier.on_failure(failed, ctx.time)
                ctx.failed_migrations.clear()
            retry_moves, retry_attempts = self.guardrails.retrier.pop_due(ctx.time)
            moves.extend(retry_moves)
        # 1. drain the quota-driven promotion queue (Algorithm 1's output),
        # never requesting more than the engine's migration bandwidth allows
        if self._promotion_queue:
            drained = drain_queue(self._promotion_queue, ctx.migration_budget_pages)
            if drained is not None:
                moves.extend(drained.moves)
        # 2. background hot-page daemon, gated by quotas
        elif ctx.time - self._last_scan >= DAEMON_INTERVAL_S:
            self._last_scan = ctx.time
            if self._telemetry is not None:
                self._telemetry.inc("merch_policy_daemon_scans_total")
            moves.extend(
                trim_moves(
                    self._gated_daemon_moves(ctx), max(1, ctx.migration_budget_pages)
                )
            )
        if not moves:
            return None
        for name, idx in [(m[0], m[1]) for m in moves if m[2] == 0]:
            owner = ctx.page_table.object(name).owner or "<shared>"
            self.pages_promoted_by_task[owner] = (
                self.pages_promoted_by_task.get(owner, 0) + len(idx)
            )
        # 3. make room: demote from over-quota tasks first.  Demotions and
        # promotions share the engine's migration budget, so promotions are
        # halved when swaps are needed.
        n_promote = int(sum(len(i) for _, i, dst in moves if dst == 0))
        free = ctx.page_table.dram_free_pages()
        if n_promote > free:
            half = max(1, ctx.migration_budget_pages // 2)
            moves = trim_moves(moves, max(free, half))
            n_promote = int(sum(len(i) for _, i, dst in moves if dst == 0))
            deficit = n_promote - free
            if deficit > 0:
                moves = self._demotions(ctx, deficit) + moves
        if self.guardrails is not None:
            self.guardrails.retrier.note_emitted(retry_attempts)
        if self._telemetry is not None:
            promoted = int(sum(len(i) for _, i, dst in moves if dst == 0))
            demoted = int(sum(len(i) for _, i, dst in moves if dst != 0))
            if promoted:
                self._telemetry.inc(
                    "merch_policy_requested_pages_total",
                    promoted,
                    direction="promote",
                )
            if demoted:
                self._telemetry.inc(
                    "merch_policy_requested_pages_total",
                    demoted,
                    direction="demote",
                )
        return MigrationBatch(moves=tuple(moves))

    def on_region_end(self, ctx: EngineContext) -> None:
        assert ctx.region is not None
        # record base profiles for first-time tasks
        if self._pending_base:
            with self._span("profile", pending=len(self._pending_base)):
                endpoints = ctx.machine.tier_endpoints(
                    [inst.footprint for inst in self._pending_base], ctx.topology
                )
                for inst, times in zip(self._pending_base, endpoints):
                    self._record_base(ctx, inst, times)
        self._pending_base = []
        # alpha refinement from this region's PEBS measurements
        if self.enable_refinement:
            with self._span("refine", region=ctx.region.name):
                for inst in ctx.region.instances:
                    key = self._profile_key(inst.task_id, ctx.region.kind)
                    est = self._estimators.get(key)
                    if est is None or not est.has_base_profile:
                        continue
                    sizes = self._instance_sizes(ctx, inst, ctx.region.name)
                    measured = self._pebs.measure(inst.footprint, now=ctx.time)
                    if (
                        self._pebs.last_window_flagged
                        and self.guardrails is not None
                    ):
                        # alpha quarantine: never fold a fault-flagged PEBS
                        # window into the alpha table
                        self.guardrails.quarantine_alpha(key, ctx.time)
                        continue
                    refined = est.refine(sizes, measured)
                    if self._telemetry is not None and refined:
                        self._telemetry.inc(
                            "merch_policy_alpha_refinements_total", refined
                        )
        # watchdog: compare the planner's predicted region time against the
        # measured one (re-arms once predictions are usable again)
        if self.guardrails is not None and self._watch_prediction is not None:
            self.guardrails.watchdog.observe(
                self._watch_prediction, ctx.time - self._region_start_s, ctx.time
            )
        if self._telemetry is not None and self._watch_prediction is not None:
            predicted_s = self._watch_prediction
            if predicted_s > 0 and math.isfinite(predicted_s):
                measured_s = ctx.time - self._region_start_s
                self._telemetry.observe(
                    "merch_policy_prediction_error_ratio",
                    abs(measured_s - predicted_s) / predicted_s,
                )

    # ------------------------------------------------------------------
    # crash-consistency hooks (see repro.core.journal)
    # ------------------------------------------------------------------
    def snapshot_state(self) -> dict | None:
        """Everything learned online, JSON-able, for journal checkpoints.

        Per-region scratch (quotas, promotion queue, pending base list) is
        deliberately excluded: epochs align with regions, so a recovered run
        rebuilds it in ``on_region_start``.  ``plans`` is inspection-only
        history and also excluded.  Reading the RNG state draws nothing, so
        attaching a journal leaves the run bit-identical.
        """
        return {
            "estimators": {
                key: est.snapshot_state() for key, est in self._estimators.items()
            },
            "base_pmcs": {
                key: {k: float(v) for k, v in pmcs.items()}
                for key, pmcs in self._base_pmcs.items()
            },
            "base_inputs": {
                key: [float(v) for v in vec]
                for key, vec in self._base_inputs.items()
            },
            "last_scan_s": float(self._last_scan),
            "pages_promoted_by_task": dict(self.pages_promoted_by_task),
            "planning_overhead_s": float(self.planning_overhead_s),
            "homogeneous": self.homogeneous.snapshot_state(),
            "guardrails": (
                self.guardrails.snapshot_state()
                if self.guardrails is not None
                else None
            ),
            # one Generator is shared with all profilers (make_rng passes
            # Generators through), so restoring it resumes every sampling
            # stream where the crashed incarnation left off
            "rng": self._rng.bit_generator.state,
        }

    def restore_state(self, state: dict) -> None:
        self._estimators = {}
        for key, est_state in state["estimators"].items():
            tid = key.split("|")[0]
            est = AccessEstimator(self.binding.descriptors[tid])
            est.restore_state(est_state)
            self._estimators[key] = est
        self._base_pmcs = {
            key: dict(pmcs) for key, pmcs in state["base_pmcs"].items()
        }
        self._base_inputs = {
            key: tuple(float(v) for v in vec)
            for key, vec in state["base_inputs"].items()
        }
        self._last_scan = float(state["last_scan_s"])
        self.pages_promoted_by_task = {
            k: int(v) for k, v in state["pages_promoted_by_task"].items()
        }
        self.planning_overhead_s = float(state["planning_overhead_s"])
        self.homogeneous.restore_state(state["homogeneous"])
        if state["guardrails"] is not None and self.guardrails is not None:
            self.guardrails.restore_state(state["guardrails"])
        self._rng.bit_generator.state = state["rng"]

    def on_recover(self, ctx: EngineContext) -> None:
        """Resume after a crash: placement survived, so unlike
        ``on_workload_start`` residency is NOT reset."""
        self._attach(ctx)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _instance_sizes(
        self, ctx: EngineContext, inst: TaskInstanceSpec, region_name: str
    ) -> dict[str, int]:
        """``LB_HM_config`` object sizes, as *reported* (possibly faulty)."""
        sizes = self.binding.object_sizes(ctx.workload, inst, region_name)
        if ctx.faults is not None:
            sizes = ctx.faults.corrupt_object_sizes(sizes, ctx.time)
        return sizes

    def _read_pmcs(
        self, ctx: EngineContext, inst: TaskInstanceSpec, t_pm_only: float
    ) -> dict[str, float]:
        """One PMC read for an instance whose PM-only time the caller
        priced, through the fault injector."""
        pmcs = collect_pmcs(
            inst.footprint,
            ctx.machine,
            ctx.topology,
            rng=self._rng,
            t_pm_only=t_pm_only,
        )
        if ctx.faults is not None:
            pmcs = ctx.faults.corrupt_pmc_read(pmcs, ctx.time)
        return pmcs

    def _predict_endpoints(
        self, key: str, inst: TaskInstanceSpec
    ) -> tuple[float, float]:
        """(T_dram_only, T_pm_only) for this instance's input."""
        base_vec = self._base_inputs[key]
        new_vec = inst.input_vector if inst.input_vector else base_vec
        return self.homogeneous.predict(key, new_vec)

    def _record_base(
        self, ctx: EngineContext, inst: TaskInstanceSpec, endpoints: tuple
    ) -> None:
        """Online step 1 of Section 5.3: collect the base-input profile;
        ``endpoints`` are the instance's (DRAM-only, PM-only) times, which
        also time its auto-derived body block."""
        tid = inst.task_id
        assert ctx.region is not None
        key = self._profile_key(tid, ctx.region.kind)
        descriptors = self.binding.descriptors.get(tid)
        if descriptors is None:
            # objects not registered via the API are not managed
            return
        est = AccessEstimator(descriptors)
        sizes = self._instance_sizes(ctx, inst, ctx.region.name)
        counts = self._base_profiler.measure(
            inst.footprint, ctx.page_table.access_fractions(), now=ctx.time
        )
        if self._base_profiler.last_window_flagged and self.guardrails is not None:
            # the base profile anchors every later estimate for this task:
            # a fault-flagged window is worth re-collecting (bounded)
            if self.guardrails.may_requeue_base(key, ctx.time, "flagged_window"):
                return
        managed_counts = {k: v for k, v in counts.items() if k in descriptors}
        est.record_base_profile(sizes, managed_counts)
        self._estimators[key] = est
        if self._telemetry is not None:
            self._telemetry.inc("merch_policy_base_profiles_total")
        self._base_pmcs[key] = self._read_pmcs(ctx, inst, endpoints[1])
        self._base_inputs[key] = inst.input_vector or (1.0,)
        # auto-derive the task's "program body" basic block when the app
        # declares none: the whole base instance is one block
        block_name = f"{key}.body"
        if not self.homogeneous.has_block(block_name):
            self.homogeneous.record_unit_times(block_name, *endpoints)
        self.homogeneous.record_base(
            key, {block_name: 1.0}, self._base_inputs[key]
        )

    def _region_maps(
        self, ctx: EngineContext
    ) -> tuple[dict[str, list[str]], dict[str, Footprint]]:
        """Which tasks access each object, and each task's footprint, for
        the current region: built on the region's first scan and kept
        while the region lasts (a region's instances never change)."""
        region = ctx.region
        assert region is not None
        if self._maps_region is not region:
            accessors: dict[str, list[str]] = {}
            footprints = {inst.task_id: inst.footprint for inst in region.instances}
            for inst in region.instances:
                for acc in inst.footprint.accesses:
                    accessors.setdefault(acc.obj, []).append(inst.task_id)
            self._maps_region = region
            self._maps = (accessors, footprints)
        return self._maps

    def _build_promotion_queue(self, ctx: EngineContext, plan: PlanResult) -> None:
        """Queue the hottest pages of each task up to its quota.

        Shared objects are promoted once, driven by the highest quota among
        their sharers.
        """
        assert ctx.region is not None
        # Algorithm 1's realisation: "the increase of DRAM accesses of a
        # task is implemented by migrating its pages to DRAM".  Tasks are
        # served in descending-quota order; each promotes its *hottest*
        # pages (across all of its objects, shared ones included) until its
        # access-weighted DRAM fraction reaches its quota.  Pages promoted
        # for one task also raise the fractions of tasks sharing the object,
        # so later tasks need correspondingly less.
        table = ctx.page_table
        budget_pages = table.dram_capacity_bytes // PAGE_SIZE - int(
            table.tier_used_pages(0)
        )
        # simulated residency: start from what is already in DRAM
        resident = {obj.name: obj.page_tier == 0 for obj in table}
        picked: dict[str, np.ndarray] = {
            name: np.zeros_like(mask) for name, mask in resident.items()
        }
        by_task = {inst.task_id: inst for inst in ctx.region.instances}
        for tid in self._promotion_task_order():
            if budget_pages <= 0:
                break
            inst = by_task.get(tid)
            if inst is None:
                continue
            quota = self._quota_targets[tid]
            total_acc = inst.footprint.total_accesses
            if total_acc <= 0:
                continue
            cur = seq_sum(
                acc.total
                * float(table.object(acc.obj).weight @ resident[acc.obj])
                for acc in inst.footprint.accesses
            ) / total_acc
            if cur >= quota:
                continue
            # the task's non-resident pages with their benefit to its DRAM
            # fraction, hottest first
            pool = PagePool.gather(table, inst.footprint, resident)
            if pool is None:
                continue
            rank = np.argsort(pool.gains)[::-1]
            cum = np.cumsum(pool.gains[rank])
            need = int(np.searchsorted(cum, quota - cur, side="left")) + 1
            need = min(need, budget_pages, len(rank))
            budget_pages -= need
            for name, sel in pool.by_object(rank[:need]):
                resident[name][sel] = True
                picked[name][sel] = True
        queue: list[tuple[str, np.ndarray, int]] = []
        for name, mask in picked.items():
            idx = np.flatnonzero(mask)
            if len(idx):
                # hottest first so partial drains still help the most
                idx = idx[np.argsort(table.object(name).weight[idx])[::-1]]
                queue.append((name, idx, 0))
        self._promotion_queue = queue

    def _promotion_task_order(self) -> list[str]:
        """Quota-service order: largest DRAM demand first."""
        return sorted(
            self._quota_targets, key=self._quota_targets.__getitem__, reverse=True
        )

    def _gated_daemon_moves(
        self, ctx: EngineContext
    ) -> list[tuple[str, np.ndarray, int]]:
        """MemoryOptimizer's daemon scan, gated by per-task quotas."""
        rates = ctx.page_rates()
        accessors, footprints = self._region_maps(ctx)
        # nothing moves during the scan: the fractions are read at most once
        # and each task's r_dram is computed at most once
        fractions: dict[str, float] | None = None
        r_dram: dict[str, float] = {}

        def task_r_dram(tid: str) -> float:
            nonlocal fractions
            if tid not in r_dram:
                if fractions is None:
                    fractions = ctx.page_table.access_fractions()
                r_dram[tid] = footprints[tid].dram_ratio(fractions)
            return r_dram[tid]

        def gated(name: str, idx: np.ndarray) -> bool:
            # the paper's gate: skip pages whose accessing tasks have all
            # reached their DRAM-access goals
            tasks = accessors.get(name, [])
            if not (self.enable_gating and self._quota_targets and tasks):
                return False
            reached = all(
                task_r_dram(tid)
                >= min(1.0, self._quota_targets.get(tid, 1.0) * GATE_MARGIN) - 1e-9
                for tid in tasks
            )
            if reached and self._telemetry is not None:
                self._telemetry.inc("merch_policy_gate_skipped_pages_total", len(idx))
            return reached

        return hot_promotions(
            self._pte, ctx.page_table, rates, DAEMON_INTERVAL_S,
            DAEMON_PROMOTE_PAGES, ctx.time, skip=gated,
        )

    def _demotions(
        self, ctx: EngineContext, pages_needed: int
    ) -> list[tuple[str, np.ndarray, int]]:
        """Demote coldest pages, over-quota tasks' objects first."""
        assert ctx.region is not None
        # rank objects: over-quota owners first, then by coldness
        entries: list[tuple[int, float, str]] = []
        fractions = ctx.page_table.access_fractions()
        for inst in ctx.region.instances:
            tid = inst.task_id
            over = (
                inst.footprint.dram_ratio(fractions)
                > self._quota_targets.get(tid, 1.0) + 1e-9
            )
            for acc in inst.footprint.accesses:
                entries.append((0 if over else 1, fractions.get(acc.obj, 0.0), acc.obj))
        entries.sort()
        moves: list[tuple[str, np.ndarray, int]] = []
        freed = 0
        seen: set[str] = set()
        for _, _, name in entries:
            if freed >= pages_needed:
                break
            if name in seen:
                continue
            seen.add(name)
            obj = ctx.page_table.object(name)
            cold = obj.coldest_pages_in(0, limit=pages_needed - freed)
            if len(cold):
                moves.append((name, cold, 1))
                freed += len(cold)
        return moves
