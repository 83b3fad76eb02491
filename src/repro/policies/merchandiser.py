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
from repro.policies.base import drain_queue
from repro.sim.counters import collect_pmcs
from repro.sim.engine import EngineContext, PlacementPolicy

__all__ = ["TieredMerchandiserPolicy"]


class TieredMerchandiserPolicy(PlacementPolicy):
    """Load-balance-aware per-task tier quotas (Algorithm 1, N tiers)."""

    name = "merchandiser"

    def __init__(
        self,
        model: PerformanceModel,
        step: float = 0.05,
        promote_per_interval: int = 1024,
        seed=None,
    ) -> None:
        self.model = model
        self.step = step
        self.promote_per_interval = promote_per_interval
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
            # ctx.hm's PM tier is the topology's slowest, so the PMC read's
            # PM-only time is the slowest-tier endpoint
            tasks.append(
                TieredTaskInputs(
                    task_id=inst.task_id,
                    tier_times=tier_times,
                    total_accesses=fp.total_accesses,
                    pmcs=collect_pmcs(
                        fp, ctx.machine, ctx.hm, rng=self._rng,
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
        plan = tiered_greedy_plan(
            tasks, self.model, capacities, task_bytes, step=self.step
        )
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
        claimed: dict[str, np.ndarray] = {}
        current: dict[str, np.ndarray] = {}
        moves: dict[int, list[tuple[str, np.ndarray]]] = {k: [] for k in range(n)}
        order = sorted(
            plan.quotas,
            key=lambda q: (-q.fractions[0], q.task_id),
        )
        for quota in order:
            inst = by_task.get(quota.task_id)
            if inst is None:
                continue
            fp = inst.footprint
            total = fp.total_accesses
            names: list[str] = []
            pages: list[np.ndarray] = []
            gains: list[np.ndarray] = []
            for acc in fp.accesses:
                obj = table.object(acc.obj)
                if acc.obj not in claimed:
                    claimed[acc.obj] = np.zeros(obj.n_pages, dtype=bool)
                    current[acc.obj] = obj.page_tier
                cand = np.flatnonzero(~claimed[acc.obj])
                if not len(cand):
                    continue
                names.extend([acc.obj] * len(cand))
                pages.append(cand)
                gains.append(obj.weight[cand] * (acc.total / total))
            if not pages:
                continue
            all_pages = np.concatenate(pages)
            all_gains = np.concatenate(gains)
            name_arr = np.array(names)
            rank = np.argsort(-all_gains, kind="stable")
            pos = 0
            for k in range(n):
                want = int(round(quota.pages[k]))
                if want <= 0:
                    continue
                take = rank[pos : pos + want]
                pos += len(take)
                for name in np.unique(name_arr[take]):
                    sel = all_pages[take[name_arr[take] == name]]
                    claimed[name][sel] = True
                    mismatched = sel[current[name][sel] != k]
                    if len(mismatched):
                        obj = table.object(name)
                        hot = mismatched[
                            np.argsort(-obj.weight[mismatched], kind="stable")
                        ]
                        moves[k].append((name, hot))
                if pos >= len(rank):
                    break
        queue: list[tuple[str, np.ndarray, int]] = []
        for k in range(n):
            for name, idx in moves[k]:
                queue.append((name, idx, k))
        self._queue = queue

    # ------------------------------------------------------------------
    def on_tick(self, ctx: EngineContext, dt: float):
        if not self._queue:
            return None
        budget = min(self.promote_per_interval, ctx.migration_budget_pages)
        return drain_queue(self._queue, budget)
