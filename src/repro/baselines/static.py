"""Static single-tier placements."""

from __future__ import annotations

import numpy as np

from repro.sim.engine import EngineContext, PlacementPolicy
from repro.sim.pages import MigrationBatch

__all__ = ["PMOnlyPolicy", "DRAMOnlyPolicy", "DRAMGreedyPolicy"]


class PMOnlyPolicy(PlacementPolicy):
    """Everything stays in PM (the slowest tier) -- the paper's
    normalisation baseline."""

    name = "pm-only"

    def on_workload_start(self, ctx: EngineContext) -> None:
        ctx.page_table.place_all(ctx.page_table.n_tiers - 1)


class DRAMOnlyPolicy(PlacementPolicy):
    """Everything in DRAM -- the performance upper bound.

    Only valid when the workload's footprint fits in DRAM; raises otherwise
    (on real hardware the allocation would simply fail).
    """

    name = "dram-only"

    def on_workload_start(self, ctx: EngineContext) -> None:
        ctx.page_table.place_all(0)


class DRAMGreedyPolicy(PlacementPolicy):
    """All-DRAM-greedy: allocate into DRAM first-fit until it is full.

    What a DRAM-preferred allocator (e.g. first-touch on the fast node)
    gives a footprint that exceeds DRAM: objects land in declaration order,
    page by page, and everything past capacity spills to PM.  Blind to both
    access hotness and cross-task balance.
    """

    name = "dram-greedy"

    def on_workload_start(self, ctx: EngineContext) -> None:
        table = ctx.page_table
        table.place_all(1)
        # promotions are clamped to free DRAM, so each object takes its
        # leading pages until DRAM is full
        table.place(
            MigrationBatch(
                moves=tuple((obj.name, np.arange(obj.n_pages), 0) for obj in table)
            )
        )
