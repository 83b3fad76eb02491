"""The Merchandiser incumbent generalised to N tiers.

Algorithm 1's load-balance-aware planning over a capacity *vector*: per
region, every task gets per-tier access-fraction quotas from
:func:`~repro.core.planner.tiered_greedy_plan` (which delegates to the
paper's 2-tier ``greedy_plan`` bit-exactly on 2-tier topologies), and the
quotas are realised by queueing each task's hottest pages toward the fast
tiers, throttled by the engine's migration budget.

Unlike :class:`~repro.core.runtime.MerchandiserPolicy` -- the full online
system with profiling, Equation-1 estimation and endpoint prediction --
this backend prices endpoints directly from the machine model (the task
footprints are known in the simulator), which is exactly what the
competing backends get: the comparison isolates the *placement decision*,
not the profiling stack.
"""

from __future__ import annotations

import numpy as np

from repro.common import PAGE_SIZE, make_rng, seq_sum
from repro.core.model import PerformanceModel, TieredTaskInputs
from repro.core.planner import TieredPlanResult, tiered_greedy_plan
from repro.core.runtime import PagePool
from repro.sim.counters import collect_pmcs
from repro.sim.engine import EngineContext, PlacementPolicy
from repro.sim.pages import drain_queue

__all__ = ["TieredMerchandiserPolicy"]


def _hot_pool(table, footprint, taken: dict[str, np.ndarray]) -> PagePool | None:
    """:meth:`PagePool.gather`'s pool with each object's pages in
    :attr:`~repro.sim.pages.TieredPagedObject.hot_order` instead of by id.

    A stable sort of its gains ranks it exactly as it ranks the gathered
    pool: each object's gains are non-increasing (a positive scale keeps
    the weight order), and a run of equal gains is put back in page-id
    order, the order ties take in the gathered pool.  Distinct weights
    can round to one gain, so such a run need not be in id order.
    """
    total = footprint.total_accesses
    objs: list[str] = []
    pages: list[np.ndarray] = []
    gains: list[np.ndarray] = []
    for acc in footprint.accesses:
        obj = table.object(acc.obj)
        cand = obj.hot_order
        mask = taken[acc.obj]
        claimed = np.count_nonzero(mask)
        if claimed == len(cand):
            continue
        if claimed:
            cand = cand[~mask[cand]]
        gain = obj.weight[cand] * (acc.total / total)
        tie = gain[1:] == gain[:-1]
        if (tie & (cand[1:] < cand[:-1])).any():
            resort = np.lexsort((cand, -gain))
            cand, gain = cand[resort], gain[resort]
        objs.append(acc.obj)
        pages.append(cand)
        gains.append(gain)
    if not pages:
        return None
    return PagePool.of(objs, pages, gains)


class TieredMerchandiserPolicy(PlacementPolicy):
    """Load-balance-aware per-task tier quotas (Algorithm 1, N tiers)."""

    name = "merchandiser"

    def __init__(self, model: PerformanceModel, seed=None) -> None:
        self.model = model
        self._rng = make_rng(seed)
        self._queue: list[tuple[str, np.ndarray, int]] = []
        #: planner decisions per region, for inspection/experiments
        self.plans: list[TieredPlanResult] = []

    # ------------------------------------------------------------------
    def on_region_start(self, ctx: EngineContext) -> None:
        assert ctx.region is not None
        topo = ctx.topology
        n = ctx.page_table.n_tiers
        # how many tasks touch each object, to split shared bytes
        sharers: dict[str, int] = {}
        for inst in ctx.region.instances:
            for acc in inst.footprint.accesses:
                sharers[acc.obj] = sharers.get(acc.obj, 0) + 1

        tasks: list[TieredTaskInputs] = []
        task_bytes: dict[str, int] = {}
        live = [i for i in ctx.region.instances if i.footprint.total_accesses > 0]
        endpoints = ctx.machine.tier_endpoints([inst.footprint for inst in live], topo)
        for inst, tier_times in zip(live, endpoints):
            fp = inst.footprint
            tasks.append(
                TieredTaskInputs(
                    task_id=inst.task_id,
                    tier_times=tier_times,
                    total_accesses=fp.total_accesses,
                    pmcs=collect_pmcs(
                        fp, ctx.machine, topo, rng=self._rng,
                        t_pm_only=tier_times[-1],
                    ),
                )
            )
            task_bytes[inst.task_id] = int(
                seq_sum(
                    ctx.workload.object(acc.obj).size_bytes
                    / max(sharers.get(acc.obj, 1), 1)
                    for acc in fp.accesses
                )
            )

        self._queue = []
        if not tasks:
            return
        # the planner takes bytes and counts whole pages of them
        capacities = [p * PAGE_SIZE for p in ctx.page_table.tier_capacity_pages]
        plan = tiered_greedy_plan(tasks, self.model, capacities, task_bytes)
        self.plans.append(plan)
        self._build_queue(ctx, plan, n)

    def _build_queue(
        self, ctx: EngineContext, plan: TieredPlanResult, n: int
    ) -> None:
        """Turn per-task page quotas into ordered page moves.

        Tasks are served largest-fast-tier-quota first; each assigns its
        hottest unclaimed pages to tier 0 up to its tier-0 page quota, the
        next hottest to tier 1, and so on.  Pages already on their target
        tier cost nothing; the rest queue as moves, fastest targets first
        so partial drains (budget-clamped ticks) help the most.
        """
        assert ctx.region is not None
        table = ctx.page_table
        by_task = {inst.task_id: inst for inst in ctx.region.instances}
        claimed = {obj.name: np.zeros(obj.n_pages, dtype=bool) for obj in table}
        moves: dict[int, list[tuple[str, np.ndarray]]] = {k: [] for k in range(n)}
        order = sorted(
            plan.quotas,
            key=lambda q: (-q.fractions[0], q.task_id),
        )
        for quota in order:
            inst = by_task.get(quota.task_id)
            if inst is None:
                continue
            pool = _hot_pool(table, inst.footprint, claimed)
            if pool is None:
                continue
            # the pool is a few presorted runs, which a stable sort merges
            # (PERFORMANCE.md section 4, rule 12)
            rank = np.argsort(-pool.gains, kind="stable")
            pos = 0
            for k in range(n):
                want = int(round(quota.pages[k]))
                if want <= 0:
                    continue
                take = rank[pos : pos + want]
                pos += len(take)
                for name, sel in pool.by_object(take):
                    claimed[name][sel] = True
                    obj = table.object(name)
                    mismatched = sel[obj.page_tier[sel] != k]
                    if len(mismatched):
                        w = obj.weight[mismatched]
                        if (w[1:] > w[:-1]).any():
                            mismatched = mismatched[np.argsort(-w, kind="stable")]
                        moves[k].append((name, mismatched))
                if pos >= len(rank):
                    break
        self._queue = [
            (name, idx, k) for k in range(n) for name, idx in moves[k]
        ]

    # ------------------------------------------------------------------
    def on_tick(self, ctx: EngineContext, dt: float):
        return drain_queue(self._queue, ctx.migration_budget_pages)
