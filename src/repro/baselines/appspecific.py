"""Application-specific placement baselines (Section 7.1).

* **Sparta** (Liu et al., PPoPP'21) places the hottest structures of a
  *single* sparse tensor/matrix contraction in fast memory.  Its weakness,
  per the paper, is ignoring load balance across the multiple concurrent
  multiplications of a task-parallel run -- reproduced here by ranking
  objects purely by per-byte access density within the region.

* **WarpX-PM** (Ren et al., ICS'21) uses manual lifetime analysis of WarpX's
  data objects to stage exactly the objects live in each phase into DRAM.
  With perfect application knowledge it slightly beats Merchandiser on WarpX
  (by ~4.6 % in the paper); reproduced as an oracle-priority policy fed by
  the application's own per-region object ranking.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.sim.engine import EngineContext, PlacementPolicy
from repro.sim.pages import MigrationBatch

__all__ = [
    "SpartaPolicy",
    "WarpXPMPolicy",
    "HandPlacedPolicy",
    "fill_dram_by_priority",
]


def fill_dram_by_priority(
    ctx: EngineContext, priority: Sequence[str]
) -> None:
    """Pack DRAM with the hottest pages of objects in priority order.

    Used by both application-specific policies: they differ only in how the
    priority list is derived.  Placement happens at region start (these
    systems stage data between phases, not during them).
    """
    table = ctx.page_table
    table.place_all(1)
    for name in priority:
        free = table.dram_free_pages()
        if free <= 0:
            break
        idx = table.object(name).hottest_pages_slower_than(0, limit=free)
        table.place(MigrationBatch(moves=((name, idx, 0),)))


def _density_priority(ctx: EngineContext) -> list[str]:
    """Objects of the current region ranked by accesses per byte."""
    assert ctx.region is not None
    totals: dict[str, float] = {}
    for inst in ctx.region.instances:
        for acc in inst.footprint.accesses:
            totals[acc.obj] = totals.get(acc.obj, 0.0) + acc.total
    density = {
        name: count / ctx.page_table.object(name).spec.size_bytes
        for name, count in totals.items()
    }
    return sorted(density, key=density.__getitem__, reverse=True)


class SpartaPolicy(PlacementPolicy):
    """Sparse-contraction-aware placement, blind to cross-task balance.

    Sparta reasons about whole tensors/matrices: it stages the structures of
    the *current* contraction into fast memory in access-density order, an
    object at a time, and skips objects that do not fit entirely.  It has no
    page-hotness oracle and no view across the concurrent tasks -- per the
    paper, "Sparta ignores the load balancing caused by multiple matrix
    multiplications", which is exactly the behaviour whole-object density
    ranking produces.
    """

    name = "sparta"

    def __init__(self, input_objects: Sequence[str] | None = None) -> None:
        #: objects Sparta can stage: the contraction's *inputs*.  Outputs
        #: are allocated dynamically during the contraction, so an
        #: allocation-time stager never places them.  ``None`` = stage any.
        self.input_objects = set(input_objects) if input_objects is not None else None

    def on_region_start(self, ctx: EngineContext) -> None:
        assert ctx.region is not None
        table = ctx.page_table
        table.place_all(1)
        # Sparta optimises one contraction at a time: shared inputs first,
        # then each task's contraction inputs in task order, whole objects
        # only.  There is no coordination across the concurrent
        # multiplications -- "Sparta ignores the load balancing caused by
        # multiple matrix multiplications" -- so whichever contractions are
        # processed first monopolise DRAM.
        shared = [
            name
            for name in _density_priority(ctx)
            if table.object(name).owner is None
            and (self.input_objects is None or name in self.input_objects)
        ]
        staged = list(shared)
        for inst in ctx.region.instances:
            for acc in inst.footprint.accesses:
                if table.object(acc.obj).owner != inst.task_id:
                    continue
                if self.input_objects is not None and acc.obj not in self.input_objects:
                    continue
                staged.append(acc.obj)
        for name in staged:
            obj = table.object(name)
            if obj.n_pages <= table.dram_free_pages():
                table.place(MigrationBatch(moves=((name, np.arange(obj.n_pages), 0),)))


class WarpXPMPolicy(PlacementPolicy):
    """Manual lifetime-based placement driven by application knowledge.

    ``region_priorities`` maps region name to the ordered object list the
    authors' lifetime analysis stages first (for WarpX: the field arrays,
    revisited by every solver sweep).  After the priority objects are
    staged, the remaining DRAM is distributed by the developers' knowledge
    of each slab's behaviour: the slowest slab's data is staged until it is
    no longer slowest (oracle water-filling).  This gives the baseline the
    quality the paper measures -- manual analysis "provides better guidance
    on data placement" and narrowly beats Merchandiser, which must pay for
    profiling noise and migration traffic instead.
    """

    name = "warpx-pm"

    #: pages staged per water-filling step (placement granularity)
    CHUNK_PAGES = 512

    def __init__(self, region_priorities: Mapping[str, Sequence[str]] | None = None):
        self.region_priorities = dict(region_priorities or {})

    def on_region_start(self, ctx: EngineContext) -> None:
        assert ctx.region is not None
        table = ctx.page_table
        table.place_all(1)
        priority = self.region_priorities.get(ctx.region.name)
        if priority is None:
            priority = _density_priority(ctx)
        rank = {name: i for i, name in enumerate(priority)}
        # oracle water-filling: repeatedly stage data of the slab that is
        # currently slowest, choosing among its objects by the lifetime
        # priority the manual analysis produced.  Slabs that cannot improve
        # further drop out; staging continues (DRAM left idle would waste
        # bandwidth relief for everyone else).
        instances = list(ctx.region.instances)
        exhausted: set[str] = set()
        while table.dram_free_pages() > 0 and len(exhausted) < len(instances):
            fractions = table.access_fractions()
            live = [inst for inst in instances if inst.task_id not in exhausted]
            if not live:
                break
            (priced,) = ctx.machine.breakdowns(
                [inst.footprint for inst in live], ctx.hm, [fractions]
            )
            times = {inst.task_id: bd.total_s for inst, bd in zip(live, priced)}
            slowest = max(times, key=times.__getitem__)
            inst = next(i for i in instances if i.task_id == slowest)
            # stage the chunk that most reduces the slowest task's time;
            # lifetime rank breaks ties (that is what the manual analysis
            # knows that a profiler does not)
            chunks: list[tuple[str, np.ndarray]] = []
            trials: list[dict[str, float]] = []
            for acc in inst.footprint.accesses:
                obj = table.object(acc.obj)
                idx = obj.hottest_pages_slower_than(
                    0, limit=min(self.CHUNK_PAGES, table.dram_free_pages())
                )
                if not len(idx):
                    continue
                trial = dict(fractions)
                trial[acc.obj] = fractions.get(acc.obj, 0.0) + float(
                    obj.weight[idx].sum()
                )
                chunks.append((acc.obj, idx))
                trials.append(trial)
            staged = ctx.machine.breakdowns([inst.footprint], ctx.hm, trials)
            best: tuple[float, int, str, np.ndarray] | None = None
            for (name, idx), (bd,) in zip(chunks, staged):
                gain = times[slowest] - bd.total_s
                key = (gain, -rank.get(name, len(rank)))
                if best is None or key > (best[0], best[1]):
                    best = (*key, name, idx)
            if best is None or best[0] <= 0:
                exhausted.add(slowest)
                continue
            table.place(MigrationBatch(moves=((best[2], best[3], 0),)))


class HandPlacedPolicy(PlacementPolicy):
    """Hand-written static placement for DAG applications.

    What a careful developer writes without a planner: rank the
    application's data objects once, ahead of time, by their expected
    importance (Parla's ``placement=`` annotations play this role), stage
    them into DRAM at startup in that order, and leave the placement alone.
    No per-input adaptation, no cross-task load balancing -- the gap to
    Merchandiser's inferred placement is exactly what the ``dag_apps``
    experiment measures.
    """

    name = "hand-static"

    def __init__(self, priority: Sequence[str]) -> None:
        self.priority = list(priority)

    def on_workload_start(self, ctx: EngineContext) -> None:
        fill_dram_by_priority(ctx, self.priority)
