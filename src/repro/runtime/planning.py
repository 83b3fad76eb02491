"""Critical-path-aware DRAM allocation for task DAGs.

Algorithm 1 balances the *slowest task at the barrier*: grow the longest
task's DRAM share until it dips under the second-longest.  Under a DAG the
quantity that gates completion is not the slowest task but the longest
dependency chain, and the chain's length moves as allocation proceeds --
pouring DRAM into the chain's head only shifts the bottleneck downstream.

The planner therefore generalises Algorithm 1's grow-the-bottleneck loop
from tasks to paths: each round it recomputes the critical path under the
*currently planned* times, then grants one 5 % ratio step to the on-path
task with the best predicted time reduction per DRAM page.  When the
critical path can no longer improve (its tasks are saturated or DRAM-bound)
the remaining capacity goes to the longest still-improvable chains, so no
DRAM is left idle.  Per-task time grids come from the same
:meth:`~repro.core.model.PerformanceModel.ratio_grids` pricing the barrier
planner uses (one stacked model call).

**Barrier fallback, bit-identical.**  When the planned set carries no
dependency edges -- in particular any single topological level of a
level-sequence DAG lowered to barrier regions -- every path is one task,
the critical path *is* the longest task, and the loop would degenerate to
Algorithm 1 modulo tie-breaking.  Rather than rely on that, the planner
detects the edge-free case and calls :func:`~repro.core.planner.greedy_plan`
on the untouched inputs: the plan is the barrier plan, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.common import PAGE_SIZE, seq_sum
from repro.core.model import PerformanceModel, TaskModelInputs
from repro.core.planner import (
    PlanResult,
    TaskQuota,
    _pages_for,
    _step_levels,
    greedy_plan,
)

__all__ = ["CriticalPathPlan", "critical_path_plan"]


@dataclass(frozen=True)
class CriticalPathPlan:
    """A DAG-aware plan: barrier-comparable quotas plus path predictions.

    ``plan`` carries per-task quotas and own predicted times (comparable to
    barrier plans and to measured task times); ``predicted_critical_path_s``
    is the longest planned chain, the planner's estimate of the gated
    region's duration.
    """

    plan: PlanResult
    #: max over tasks of own predicted time (the barrier-style makespan)
    predicted_wave_s: float
    #: longest dependency chain under the planned times
    predicted_critical_path_s: float
    #: False when the edge-free fallback reproduced the barrier objective
    shifted: bool


def _toposort(deps: Mapping[str, tuple[str, ...]]) -> list[str]:
    indeg = {t: len(ds) for t, ds in deps.items()}
    succs: dict[str, list[str]] = {t: [] for t in deps}
    for t, ds in deps.items():
        for d in ds:
            succs[d].append(t)
    order = sorted(t for t, n in indeg.items() if n == 0)
    frontier = list(order)
    while frontier:
        nxt: list[str] = []
        for t in frontier:
            for s in succs[t]:
                indeg[s] -= 1
                if indeg[s] == 0:
                    nxt.append(s)
        nxt.sort()
        order.extend(nxt)
        frontier = nxt
    if len(order) != len(deps):
        raise ValueError("dependency edges contain a cycle")
    return order


def _chain_lengths(
    order: Sequence[str],
    deps: Mapping[str, tuple[str, ...]],
    succs: Mapping[str, Sequence[str]],
    time_of: Mapping[str, float],
) -> tuple[dict[str, float], dict[str, float], float]:
    """Per task: longest chain *into* it (exclusive) and longest chain
    *from* it (inclusive); plus the overall critical-path length."""
    top: dict[str, float] = {}
    for t in order:
        top[t] = max((top[d] + time_of[d] for d in deps[t]), default=0.0)
    bottom: dict[str, float] = {}
    for t in reversed(order):
        bottom[t] = time_of[t] + max((bottom[s] for s in succs[t]), default=0.0)
    critical = max((top[t] + bottom[t] for t in order), default=0.0)
    return top, bottom, critical


def critical_path_plan(
    tasks: Sequence[TaskModelInputs],
    model: PerformanceModel,
    dram_capacity_bytes: int,
    task_bytes: Mapping[str, int],
    deps: Mapping[str, Sequence[str]],
    footprints: Mapping[str, Sequence[tuple[str, float, int]]],
    step: float = 0.05,
) -> CriticalPathPlan:
    """Plan DRAM quotas that minimise the DAG's predicted critical path.

    ``deps[task_id]`` lists the task's in-region dependencies (edges to
    tasks outside the planned set must be dropped by the caller); missing
    entries count as no dependencies.

    ``footprints[task_id]`` gives ``(object, access_fraction,
    object_pages)`` triples for realization-aware pricing: the planner
    simulates per-object resident fractions, so a step costs exactly the
    new pages it promotes, shared pages are bought once, and tasks whose
    objects were promoted by another grant get their level upgrades free,
    so the plan never buys more pages than DRAM holds.  ``task_bytes``
    sizes each task's quota in pages.
    """
    if not tasks:
        raise ValueError("no tasks to plan for")
    if not 0.0 < step <= 1.0:
        raise ValueError("step must be in (0, 1]")
    ids = [t.task_id for t in tasks]
    id_set = set(ids)
    dep_of: dict[str, tuple[str, ...]] = {}
    for tid in ids:
        ds = tuple(d for d in deps.get(tid, ()) if d in id_set and d != tid)
        unknown = [d for d in deps.get(tid, ()) if d not in id_set]
        if unknown:
            raise ValueError(
                f"dependencies of {tid!r} reference unplanned tasks: {unknown}"
            )
        dep_of[tid] = ds

    if not any(dep_of.values()):
        # no edges: every chain is one task and the objective degenerates
        # to Algorithm 1; call it verbatim so the fallback is bit-identical
        plan = greedy_plan(tasks, model, dram_capacity_bytes, task_bytes, step)
        return CriticalPathPlan(
            plan=plan,
            predicted_wave_s=plan.predicted_makespan_s,
            predicted_critical_path_s=plan.predicted_makespan_s,
            shifted=False,
        )

    order = _toposort(dep_of)
    succs: dict[str, list[str]] = {t: [] for t in ids}
    for t, ds in dep_of.items():
        for d in ds:
            succs[d].append(t)

    levels = _step_levels(step)
    grid = model.ratio_grids(tasks, levels)
    task_pages = {
        tid: max(1, int(np.ceil(task_bytes[tid] / PAGE_SIZE))) for tid in ids
    }
    capacity_pages = dram_capacity_bytes // PAGE_SIZE

    idx = {tid: 0 for tid in ids}
    pages = {tid: _pages_for(task_pages[tid], levels[0]) for tid in ids}
    last = len(levels) - 1
    rounds = 0

    # merge duplicate objects within a footprint (a tile read as both
    # panels of one update) and order each task's objects by per-page
    # benefit, mirroring how the promotion queue spends pages
    fp: dict[str, tuple[tuple[str, float, int], ...]] = {}
    for tid in ids:
        merged: dict[str, tuple[float, int]] = {}
        for obj, frac, n_pages in footprints.get(tid, ()):  # noqa: B909
            prev = merged.get(obj)
            merged[obj] = (prev[0] + frac, n_pages) if prev else (frac, n_pages)
        fp[tid] = tuple(
            sorted(
                ((o, f, p) for o, (f, p) in merged.items()),
                key=lambda e: (-e[1] / max(e[2], 1), e[0]),
            )
        )
    res_frac = {obj: 0.0 for entries in fp.values() for obj, _, _ in entries}
    pages_used = 0.0

    def realized_r(tid: str) -> float:
        return min(1.0, seq_sum(f * res_frac[o] for o, f, _ in fp[tid]))

    def promo_sim(tid: str, target: float, commit: bool) -> float:
        """Pages needed to raise ``tid``'s realized ratio to ``target``
        (``inf`` when its objects cannot get it there)."""
        need = target - realized_r(tid)
        if need <= 1e-12:
            return 0.0
        cost = 0.0
        moves: list[tuple[str, float]] = []
        for obj, frac, n_pages in fp[tid]:
            if frac <= 0.0:
                continue
            avail = 1.0 - res_frac[obj]
            if avail <= 0.0:
                continue
            take = min(avail, need / frac)
            cost += take * n_pages
            moves.append((obj, take))
            need -= take * frac
            if need <= 1e-12:
                break
        if need > 1e-12:
            return float("inf")
        if commit:
            for obj, take in moves:
                res_frac[obj] += take
        return cost

    def free_upgrades() -> None:
        # grants raise shared objects' residency, so other tasks may now sit
        # above their granted level at zero cost: advance them
        for tid in ids:
            r = realized_r(tid)
            while idx[tid] < last and r >= levels[idx[tid] + 1] - 1e-12:
                idx[tid] += 1
                pages[tid] = _pages_for(task_pages[tid], levels[idx[tid]])

    def step_cost(tid: str) -> float:
        return promo_sim(tid, float(levels[idx[tid] + 1]), commit=False)

    def step_gain(tid: str) -> float:
        g = grid[tid]
        return float(g[idx[tid]] - g[idx[tid] + 1])

    while True:
        time_of = {tid: float(grid[tid][idx[tid]]) for tid in ids}
        top, bottom, critical = _chain_lengths(order, dep_of, succs, time_of)
        steppable = [
            tid
            for tid in ids
            if idx[tid] < last
            and pages_used + step_cost(tid) <= capacity_pages
            and step_gain(tid) > 0.0
        ]
        if not steppable:
            break
        on_path = [
            tid
            for tid in steppable
            if top[tid] + bottom[tid] >= critical * (1.0 - 1e-12)
        ]
        if on_path:
            # grow the path bottleneck: best time reduction per DRAM page
            tid = min(
                on_path,
                key=lambda t: (-step_gain(t) / max(step_cost(t), 1), t),
            )
        else:
            # critical path cannot improve: spend the remainder on the
            # longest still-improvable chain instead of idling DRAM
            tid = min(
                steppable,
                key=lambda t: (
                    -(top[t] + bottom[t]),
                    -step_gain(t) / max(step_cost(t), 1),
                    t,
                ),
            )
        pages_used += promo_sim(tid, float(levels[idx[tid] + 1]), commit=True)
        idx[tid] += 1
        pages[tid] = _pages_for(task_pages[tid], levels[idx[tid]])
        free_upgrades()
        rounds += 1

    time_of = {tid: float(grid[tid][idx[tid]]) for tid in ids}
    _, _, critical = _chain_lengths(order, dep_of, succs, time_of)
    quotas = tuple(
        TaskQuota(
            task_id=t.task_id,
            dram_accesses=float(levels[idx[t.task_id]]) * t.total_accesses,
            r_dram=float(levels[idx[t.task_id]]),
            dram_pages=pages[t.task_id],
            predicted_time_s=time_of[t.task_id],
        )
        for t in tasks
    )
    wave = max(time_of.values())
    plan = PlanResult(
        quotas=quotas,
        predicted_makespan_s=wave,
        dram_pages_used=int(min(pages_used, capacity_pages)),
        rounds=rounds,
    )
    return CriticalPathPlan(
        plan=plan,
        predicted_wave_s=wave,
        predicted_critical_path_s=critical,
        shifted=True,
    )
