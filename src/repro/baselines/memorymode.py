"""Optane Memory Mode: DRAM as a hardware-managed direct-mapped page cache.

With Memory Mode the software sees one flat address space; DRAM caches PM
pages with direct-mapped placement.  The defining properties reproduced here
(Section 2 and the Figure 5 analysis):

* placement follows *global* page hotness plus hash conflicts -- no task
  awareness, so per-task DRAM fractions diverge and load imbalance grows;
* the DRAM share tracks the shifting access mix with hardware speed (the
  cache retunes every interval, not at coarse software migration epochs).

The cache's share is modelled per object (:meth:`PageTable.set_dram_shares`):
every page stays on PM in the page table, so a Memory Mode run reports an
empty DRAM tier to the occupancy gauge and gives pressure evictions nothing
to demote.
"""

from __future__ import annotations

import numpy as np

from repro.sim.cache import DirectMappedPageCache
from repro.sim.engine import EngineContext, PlacementPolicy

__all__ = ["MemoryModePolicy"]


class MemoryModePolicy(PlacementPolicy):
    """Hardware cache-mode placement."""

    name = "memory-mode"

    def __init__(self, update_interval_s: float = 0.5, seed: int = 0x5EED) -> None:
        if update_interval_s <= 0:
            raise ValueError("update_interval_s must be positive")
        self.update_interval_s = update_interval_s
        self._seed = seed
        self._cache: DirectMappedPageCache | None = None
        self._last_update = -1e30

    def on_workload_start(self, ctx: EngineContext) -> None:
        self._cache = DirectMappedPageCache(ctx.page_table, seed=self._seed)
        ctx.page_table.place_all(1)

    def on_region_start(self, ctx: EngineContext) -> None:
        self._update(ctx)

    def on_tick(self, ctx: EngineContext, dt: float):
        if ctx.time - self._last_update >= self.update_interval_s:
            self._update(ctx)
        return None  # hardware does not issue software page migrations

    def _update(self, ctx: EngineContext) -> None:
        assert self._cache is not None
        # expected per-page accesses for one pass of the current region,
        # which bounds how long a cached page can be exploited before the
        # region's working set moves on
        per_pass: dict[str, "np.ndarray"] = {}
        if ctx.region is not None:
            totals: dict[str, float] = {}
            for inst in ctx.region.instances:
                for acc in inst.footprint.accesses:
                    totals[acc.obj] = totals.get(acc.obj, 0.0) + acc.total
            for name, count in totals.items():
                obj = ctx.page_table.object(name)
                per_pass[name] = obj.weight * count
        self._cache.update_shares(ctx.page_access_rates(), per_pass)
        self._last_update = ctx.time
