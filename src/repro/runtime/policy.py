"""Merchandiser policy variant that plans against a task DAG.

:class:`DAGMerchandiserPolicy` is the full Merchandiser runtime
(profiling, estimation, prediction, quota gating, hot-page daemon,
guardrails -- all inherited) with one behavioural change: the planning
objective.  Where the base policy balances the slowest task of the
barrier region, this one minimises the region's predicted *critical
path* over the dependency edges of the bound DAG
(:mod:`repro.runtime.planning`).

Edges are restricted to the tasks being planned: for a barrier-lowered
wave the region's induced subgraph has no edges and the plan is the
barrier plan bit for bit.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.baselines.appspecific import density_priority, fill_dram_by_priority
from repro.core.model import TaskModelInputs
from repro.core.planner import PlanResult
from repro.core.runtime import MerchandiserPolicy
from repro.runtime.dag import TaskDAG
from repro.runtime.planning import CriticalPathPlan, critical_path_plan
from repro.sim.pages import MigrationBatch

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import EngineContext

__all__ = ["DAGMerchandiserPolicy"]


class DAGMerchandiserPolicy(MerchandiserPolicy):
    """Critical-path-aware Merchandiser for DAG-lowered workloads."""

    name = "merchandiser-dag"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        #: dependency structure of the lowered program, bound by the
        #: executor at run start
        self.dag: TaskDAG | None = None
        #: per-region DAG plans, for inspection/experiments (parallel to
        #: the inherited ``plans`` list)
        self.dag_plans: list[CriticalPathPlan] = []

    def bind_dag(self, dag: TaskDAG) -> None:
        self.dag = dag

    # ------------------------------------------------------------------
    def _build_promotion_queue(self, ctx, plan) -> None:
        """Apply a fresh plan as between-phase staging, not tick migration.

        The gated regions replan as inputs drift, so the target placement
        moves every iteration; draining that delta through the migration
        budget means early-level tasks run before their pages arrive.  Task
        runtimes stage data while the previous phase's barrier resolves --
        the same region-boundary convention the static baselines use
        (:func:`fill_dram_by_priority`) -- so the planned placement is
        installed directly here and the tick-level queue stays empty.
        """
        table = ctx.page_table
        table.place_all(1)
        # with DRAM emptied the queue *is* the full target placement
        super()._build_promotion_queue(ctx, plan)
        table.place(MigrationBatch(moves=tuple(self._promotion_queue)))
        self._promotion_queue = []

    def on_region_start(self, ctx: "EngineContext") -> None:
        super().on_region_start(ctx)
        if self._quotas is None and ctx.region is not None:
            # no plan yet (base profiles pending or planning disabled):
            # stage the region's objects in access-density order -- the
            # same between-phase staging the static baselines get --
            # rather than running the profiling iteration from PM
            # (profiling measures access *counts*, not times, so a better
            # interim placement does not bias the profile)
            fill_dram_by_priority(ctx, density_priority(ctx))

    # ------------------------------------------------------------------
    def _plan_region(
        self,
        ctx: "EngineContext",
        ready: list[TaskModelInputs],
        task_bytes: dict[str, int],
    ) -> tuple[PlanResult, float]:
        if self.dag is None:
            return super()._plan_region(ctx, ready, task_bytes)
        known = set(self.dag.task_ids)
        planned = {t.task_id for t in ready}
        if not planned <= known:
            # tasks outside the bound DAG (mixed workloads): no topology
            # to reason about, keep the barrier objective
            return super()._plan_region(ctx, ready, task_bytes)
        deps = {
            tid: tuple(d for d in self.dag.node(tid).deps if d in planned)
            for tid in planned
        }
        table = ctx.page_table
        footprints = {}
        for inst in ctx.region.instances:
            if inst.task_id not in planned:
                continue
            total = inst.footprint.total_accesses
            footprints[inst.task_id] = tuple(
                (acc.obj, acc.total / total, table.object(acc.obj).n_pages)
                for acc in inst.footprint.accesses
            ) if total > 0 else ()
        cp = critical_path_plan(
            ready,
            self.model,
            ctx.page_table.dram_capacity_bytes,
            task_bytes,
            deps,
            footprints=footprints,
        )
        self.dag_plans.append(cp)
        tel = self._telemetry
        if tel is not None:
            tel.inc(
                "merch_runtime_plans_total",
                objective="critical-path" if cp.shifted else "barrier",
            )
            tel.observe(
                "merch_runtime_critical_path_seconds",
                cp.predicted_critical_path_s,
            )
            weights = {t.task_id: t.t_pm_only for t in ready}
            tails = self.dag.tails(weights, within=planned)
            for t in ready:
                tel.observe("merch_runtime_tail_seconds", tails.get(t.task_id, 0.0))
        return cp.plan, cp.predicted_critical_path_s
