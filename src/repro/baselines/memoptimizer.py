"""Intel MemoryOptimizer-style hot-page migration daemon.

The industry-quality software baseline (Section 7): every interval it

1. samples a bounded random set of PTEs across the whole address space
   (:class:`~repro.profiling.pte.PTESampleProfiler`);
2. promotes the hottest sampled PM pages to DRAM;
3. when DRAM is short, demotes the least-frequently-accessed DRAM pages,
   found with Thermostat-style sampling (Section 6, "DRAM space
   management").

It is deliberately task-agnostic: the paper's core observation is that this
opportunistic, address-level policy concentrates DRAM on whichever task's
pages happen to sample hot, creating load imbalance at barriers.
"""

from __future__ import annotations

import numpy as np

from repro.common import make_rng
from repro.profiling.hotpages import (
    DAEMON_INTERVAL_S,
    DAEMON_PROMOTE_PAGES,
    DAEMON_SAMPLE_PAGES,
    hot_promotions,
)
from repro.profiling.pte import PTESampleProfiler
from repro.profiling.thermostat import ThermostatProfiler
from repro.sim.engine import EngineContext, PlacementPolicy
from repro.sim.pages import MigrationBatch, PageRates, trim_moves

__all__ = ["MemoryOptimizerPolicy"]


class MemoryOptimizerPolicy(PlacementPolicy):
    """Sampling-based hot-page promotion with LFU-style demotion."""

    name = "memory-optimizer"

    def __init__(self, seed=None) -> None:
        rng = make_rng(seed)
        self._pte = PTESampleProfiler(max_pages=DAEMON_SAMPLE_PAGES, seed=rng)
        self._thermostat = ThermostatProfiler(seed=rng)
        self._last_scan = -1e30

    def on_workload_start(self, ctx: EngineContext) -> None:
        ctx.page_table.place_all(1)
        self._last_scan = -1e30
        # the baseline's profilers see the same injected faults as
        # Merchandiser's, so robustness comparisons are apples-to-apples
        self._pte.faults = ctx.faults
        self._thermostat.faults = ctx.faults

    # ------------------------------------------------------------------
    def _select_promotions(
        self, ctx: EngineContext, rates: PageRates
    ) -> list[tuple[str, np.ndarray, int]]:
        return hot_promotions(
            self._pte, ctx.page_table, rates, DAEMON_INTERVAL_S,
            DAEMON_PROMOTE_PAGES, ctx.time,
        )

    def _select_demotions(
        self,
        ctx: EngineContext,
        rates: PageRates,
        pages_needed: int,
    ) -> list[tuple[str, np.ndarray, int]]:
        """Free ``pages_needed`` pages by demoting the coldest DRAM regions."""
        if pages_needed <= 0:
            return []
        estimates = self._thermostat.sample(
            ctx.page_table, rates.arrays(), DAEMON_INTERVAL_S, now=ctx.time
        )
        # rank all (object, region) pairs by estimated access count
        ranked: list[tuple[float, str, int]] = []
        for est in estimates:
            for start, count in zip(est.region_starts, est.estimated_accesses):
                ranked.append((float(count), est.obj, int(start)))
        ranked.sort()
        moves: list[tuple[str, np.ndarray, int]] = []
        freed = 0
        for _, name, start in ranked:
            if freed >= pages_needed:
                break
            obj = ctx.page_table.object(name)
            stop = min(start + 512, obj.n_pages)
            span = np.arange(start, stop)
            resident = span[obj.page_tier[span] == 0]
            if len(resident) == 0:
                continue
            take = resident[: pages_needed - freed]
            moves.append((name, take, 1))
            freed += len(take)
        return moves

    # ------------------------------------------------------------------
    def on_tick(self, ctx: EngineContext, dt: float) -> MigrationBatch | None:
        if ctx.time - self._last_scan < DAEMON_INTERVAL_S:
            return None
        self._last_scan = ctx.time
        rates = ctx.page_rates()
        promotions = self._select_promotions(ctx, rates)
        n_promote = int(sum(len(idx) for _, idx, _ in promotions))
        if n_promote == 0:
            return None
        # respect the engine's per-tick migration bandwidth: when demotions
        # are needed they pair 1:1 with promotions inside the budget
        budget = max(1, ctx.migration_budget_pages)
        free = ctx.page_table.dram_free_pages()
        if n_promote > free:
            n_promote = min(n_promote, max(free, budget // 2))
        n_promote = min(n_promote, budget if n_promote <= free else budget // 2)
        n_promote = max(n_promote, 0)
        promotions = trim_moves(promotions, n_promote)
        if not promotions:
            return None
        deficit = n_promote - free
        demotions = self._select_demotions(ctx, rates, deficit)
        moves = tuple(demotions) + tuple(promotions)
        return MigrationBatch(moves=moves)

