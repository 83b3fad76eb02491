"""Load-balance-aware DRAM allocation (Section 6, Algorithm 1).

Deciding how many of each task's accesses should be served from DRAM is a
knapsack-style NP-hard problem (DRAM capacity = knapsack weight, pages =
items, predicted speedup = value).  The paper's greedy heuristic repeatedly
takes the task with the longest *predicted* execution time and grows its
DRAM accesses in 5 % steps until it dips under the second-longest task,
stopping when DRAM is exhausted.

Pages are mapped from accesses under Algorithm 1's stated assumption that a
task's accesses are evenly distributed over its pages:
``pages(DRAM_Acc_i) = DRAM_Acc_i / Total_Acc_i * task_pages_i``.

For the ablation study we also implement the makespan-optimal allocation
under the same model and 5 % discretisation (:func:`optimal_quotas`, by
bisection on the makespan), so the greedy's gap to optimum is measurable.

Each planner is an array-native kernel whose per-round argmax /
second-max / pages-used updates are numpy reductions over flat task arrays.
Its plans are bit-identical to the dict-based scalar reference in
``tests/oracles/scalar.py`` (PERFORMANCE.md documents the float-ordering
rules; ``tests/test_kernels.py`` enforces identity).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.common import PAGE_SIZE, seq_sum
from repro.core.model import PerformanceModel, TaskModelInputs, TieredTaskInputs

__all__ = [
    "TaskQuota",
    "PlanResult",
    "TieredTaskQuota",
    "TieredPlanResult",
    "greedy_plan",
    "tiered_greedy_plan",
    "optimal_quotas",
    "throughput_plan",
]


@dataclass(frozen=True)
class TaskQuota:
    """Planner output for one task."""

    task_id: str
    dram_accesses: float
    r_dram: float
    dram_pages: int
    predicted_time_s: float


@dataclass(frozen=True)
class PlanResult:
    """Planner output for a region's task set."""

    quotas: tuple[TaskQuota, ...]
    predicted_makespan_s: float
    dram_pages_used: int
    rounds: int

    def quota(self, task_id: str) -> TaskQuota:
        for q in self.quotas:
            if q.task_id == task_id:
                return q
        raise KeyError(task_id)

    def r_by_task(self) -> dict[str, float]:
        return {q.task_id: q.r_dram for q in self.quotas}

    def to_jsonable(self) -> dict:
        return {
            "predicted_makespan_s": self.predicted_makespan_s,
            "dram_pages_used": self.dram_pages_used,
            "rounds": self.rounds,
            "quotas": [
                {
                    "task_id": q.task_id,
                    "dram_accesses": q.dram_accesses,
                    "r_dram": q.r_dram,
                    "dram_pages": q.dram_pages,
                    "predicted_time_s": q.predicted_time_s,
                }
                for q in self.quotas
            ],
        }

    @classmethod
    def from_jsonable(cls, payload: dict) -> "PlanResult":
        return cls(
            quotas=tuple(TaskQuota(**q) for q in payload["quotas"]),
            predicted_makespan_s=payload["predicted_makespan_s"],
            dram_pages_used=payload["dram_pages_used"],
            rounds=payload["rounds"],
        )


def _pages_for(task_pages: int, r: float) -> int:
    """MAP_TO_PAGES under the even-distribution assumption."""
    return int(np.ceil(task_pages * min(max(r, 0.0), 1.0)))


def _step_levels(step: float) -> np.ndarray:
    levels = np.round(np.arange(0.0, 1.0 + step / 2, step), 10)
    levels[-1] = min(levels[-1], 1.0)
    return levels


def _task_pages_map(
    tasks: Sequence[TaskModelInputs], task_bytes: Mapping[str, int]
) -> dict[str, int]:
    return {
        t.task_id: max(1, int(np.ceil(task_bytes[t.task_id] / PAGE_SIZE)))
        for t in tasks
    }


def greedy_plan(
    tasks: Sequence[TaskModelInputs],
    model: PerformanceModel,
    dram_capacity_bytes: int,
    task_bytes: Mapping[str, int],
    step: float = 0.05,
    grids: Mapping[str, "np.ndarray"] | None = None,
) -> PlanResult:
    """Algorithm 1.

    ``task_bytes[task_id]`` is the total size of the task's data objects
    (what MAP_TO_PAGES converts access quotas into).  Beyond the paper's
    pseudocode, two termination details are made explicit: a task saturated
    at 100 % DRAM accesses is excluded from further rounds, and the final
    allocation is clamped to capacity.

    ``grids`` may carry precomputed per-task predicted-time grids over this
    step's ratio levels (``model.ratio_grids``); the placement service uses
    it to price a whole request batch with one stacked model call.
    """
    if not tasks:
        raise ValueError("no tasks to plan for")
    if not 0.0 < step <= 1.0:
        raise ValueError("step must be in (0, 1]")

    # precompute every task's predicted time on the 5% ratio grid
    # (Algorithm 1 only ever visits grid points) with ONE stacked model
    # call for the whole task set; by the batching contract
    # (tests/test_kernels.py) it equals one ratio_grid call per task
    levels = _step_levels(step)
    if grids is None:
        grid = model.ratio_grids(tasks, levels)
    else:
        grid = {t.task_id: grids[t.task_id] for t in tasks}
        if any(len(g) != len(levels) for g in grid.values()):
            raise ValueError("precomputed grids do not match the step grid")
    return _greedy_plan_kernel(
        tasks, dram_capacity_bytes, task_bytes, step, levels, grid
    )


def _greedy_plan_kernel(
    tasks: Sequence[TaskModelInputs],
    dram_capacity_bytes: int,
    task_bytes: Mapping[str, int],
    step: float,
    levels: np.ndarray,
    grid: Mapping[str, np.ndarray],
) -> PlanResult:
    """Array-native Algorithm 1 (PERFORMANCE.md, "greedy_plan").

    Task state lives in flat arrays indexed by input position (the dict
    insertion order of the scalar reference, ``tests/oracles/scalar.py``).  Per round, the longest task is a masked
    ``np.argmax`` (first-max, like Python ``max``), the barrier is a masked
    ``np.max`` (order-independent for float max), and pages-used is one
    ceil/clip/sum reduction.  The inner growth walk stays a tiny Python
    loop because the scalar path accumulates ``r_i`` as a *sequential*
    float sum (``min(1.0, r_i + step)`` is not ``k * step`` in floats) --
    at most ``len(levels)`` iterations, it is never the bottleneck.
    """
    capacity_pages = dram_capacity_bytes // PAGE_SIZE
    n = len(tasks)
    ids = [t.task_id for t in tasks]
    pages_arr = np.array(
        [max(1, int(np.ceil(task_bytes[t.task_id] / PAGE_SIZE))) for t in tasks],
        dtype=np.int64,
    )
    grid_mat = np.vstack([np.asarray(grid[t.task_id], dtype=np.float64) for t in tasks])
    n_levels = len(levels)

    def level_index(value: float) -> int:
        return min(max(round(value / step), 0), n_levels - 1)

    r_arr = np.zeros(n, dtype=np.float64)
    d_pred = np.array([t.t_pm_only for t in tasks], dtype=np.float64)
    alive = np.ones(n, dtype=bool)  # not saturated
    rounds = 0

    # per-task page counts are maintained incrementally: integer adds are
    # exact, so tracking the sum equals re-summing the whole array (what
    # the scalar path's pages_used() does) at every probe
    page_counts = np.zeros(n, dtype=np.int64)
    used = 0

    def set_quota(i: int, r_new: float) -> None:
        nonlocal used
        pc = _pages_for(int(pages_arr[i]), r_new)
        used += pc - int(page_counts[i])
        page_counts[i] = pc
        r_arr[i] = r_new

    neg_inf = -np.inf
    while True:
        rounds += 1
        if not alive.any():
            break
        # first-max among non-saturated tasks == Python max() over the
        # candidate list in insertion order
        longest = int(np.argmax(np.where(alive, d_pred, neg_inf)))
        if n > 1:
            masked = d_pred.copy()
            masked[longest] = neg_inf
            second_t = float(np.max(masked))
        else:
            second_t = 0.0

        r_i = float(r_arr[longest])
        row = grid_mat[longest]
        while True:
            r_i = min(1.0, r_i + step)
            t_new = float(row[level_index(r_i)])
            if t_new <= second_t or r_i >= 1.0:
                break
        d_pred[longest] = t_new
        set_quota(longest, r_i)
        if r_i >= 1.0:
            alive[longest] = False
        if used >= capacity_pages:
            break

    overshoot = used - capacity_pages
    if overshoot > 0:
        # stable descending order matches sorted(..., reverse=True): ties
        # keep input order under both
        order = np.argsort(-r_arr, kind="stable")
        for i in order:
            if overshoot <= 0:
                break
            i = int(i)
            # flooring to the step grid then re-ceiling the pages can land
            # exactly one page back over capacity, so keep shrinking this
            # task until its contribution fits (or it reaches zero) --
            # same loop as the scalar path, floats and all
            while overshoot > 0 and r_arr[i] > 0.0:
                removable = _pages_for(int(pages_arr[i]), float(r_arr[i]))
                shrink_pages = min(removable, overshoot)
                shrunk = max(0.0, r_arr[i] - shrink_pages / int(pages_arr[i]))
                new_r = float(np.floor(shrunk / step) * step)
                if new_r >= float(r_arr[i]):  # force one grid step down
                    new_r = max(
                        0.0, float((round(float(r_arr[i]) / step) - 1) * step)
                    )
                set_quota(i, new_r)
                d_pred[i] = float(grid_mat[i][level_index(float(r_arr[i]))])
                overshoot = used - capacity_pages

    quotas = tuple(
        TaskQuota(
            task_id=ids[i],
            dram_accesses=float(r_arr[i] * tasks[i].total_accesses),
            r_dram=float(r_arr[i]),
            dram_pages=int(page_counts[i]),
            predicted_time_s=float(d_pred[i]),
        )
        for i in range(n)
    )
    return PlanResult(
        quotas=quotas,
        predicted_makespan_s=float(np.max(d_pred)),
        dram_pages_used=used,
        rounds=rounds,
    )


def optimal_quotas(
    tasks: Sequence[TaskModelInputs],
    model: PerformanceModel,
    dram_capacity_bytes: int,
    task_bytes: Mapping[str, int],
    step: float = 0.05,
) -> PlanResult:
    """Makespan-optimal allocation at the same 5 % granularity.

    Because each task's predicted time is (weakly) decreasing in its own
    DRAM share and tasks are independent, the minimum feasible makespan can
    be found by bisection: a makespan ``M`` is feasible iff the cheapest
    per-task shares achieving time <= M fit in DRAM together.  This is the
    oracle the greedy heuristic approximates.
    """
    if not tasks:
        raise ValueError("no tasks to plan for")
    levels = np.round(np.arange(0.0, 1.0 + step / 2, step), 10)
    return _optimal_quotas_kernel(
        tasks, model, dram_capacity_bytes, task_bytes, levels
    )


def _optimal_quotas_kernel(
    tasks: Sequence[TaskModelInputs],
    model: PerformanceModel,
    dram_capacity_bytes: int,
    task_bytes: Mapping[str, int],
    levels: np.ndarray,
) -> PlanResult:
    """Array-native bisection (PERFORMANCE.md, "optimal_quotas").

    The (tasks, levels) time matrix replaces the per-task dict; each
    feasibility probe is two reductions (per-row first feasible level via
    ``argmax`` over a boolean matrix, then one pages sum) instead of a
    Python loop over tasks.  ``np.unique`` over the matrix equals
    ``sorted(set(...))`` for float candidates, so bisection visits the
    same makespans and returns the same optimum.
    """
    capacity_pages = dram_capacity_bytes // PAGE_SIZE
    n = len(tasks)
    pages_arr = np.array(
        [max(1, int(np.ceil(task_bytes[t.task_id] / PAGE_SIZE))) for t in tasks],
        dtype=np.int64,
    )
    g = model.ratio_grids(tasks, levels)  # one stacked model call
    raw = np.vstack([np.asarray(g[t.task_id]) for t in tasks])
    times = np.minimum.accumulate(raw, axis=1)  # (n, L), non-increasing rows

    def min_pages_for_makespan(m: float) -> int | None:
        feasible = times <= m                       # (n, L)
        ok = feasible.any(axis=1)
        if not ok.all():
            return None
        first = np.argmax(feasible, axis=1)          # first True per row
        lv = levels[first]
        return int(np.sum(np.ceil(pages_arr * np.clip(lv, 0.0, 1.0)).astype(np.int64)))

    candidates = np.unique(times)
    lo, hi = 0, len(candidates) - 1
    best: float | None = None
    while lo <= hi:
        mid = (lo + hi) // 2
        pages = min_pages_for_makespan(float(candidates[mid]))
        if pages is not None and pages <= capacity_pages:
            best = float(candidates[mid])
            hi = mid - 1
        else:
            lo = mid + 1
    if best is None:
        best = float(candidates[-1])

    feasible = times <= best
    has = feasible.any(axis=1)
    first = np.argmax(feasible, axis=1)
    level_arr = np.where(has, levels[first], 1.0)
    time_arr = np.where(has, times[np.arange(n), first], times[:, -1])
    page_counts = np.ceil(pages_arr * np.clip(level_arr, 0.0, 1.0)).astype(np.int64)
    quotas = tuple(
        TaskQuota(
            task_id=tasks[i].task_id,
            dram_accesses=float(level_arr[i] * tasks[i].total_accesses),
            r_dram=float(level_arr[i]),
            dram_pages=int(page_counts[i]),
            predicted_time_s=float(time_arr[i]),
        )
        for i in range(n)
    )
    return PlanResult(
        quotas=quotas,
        predicted_makespan_s=float(np.max(time_arr)),
        dram_pages_used=int(page_counts.sum()),
        rounds=1,
    )


def throughput_plan(
    tasks: Sequence[TaskModelInputs],
    model: PerformanceModel,
    dram_capacity_bytes: int,
    task_bytes: Mapping[str, int],
    step: float = 0.05,
) -> PlanResult:
    """Throughput-greedy knapsack baseline (for the ablation study).

    The natural-but-wrong objective: repeatedly give the next 5% of DRAM
    accesses to whichever task buys the most *total time saved per page*,
    ignoring the barrier.  This is what a task-aware but balance-unaware
    allocator would do -- it showers fast memory on the most
    placement-sensitive tasks even when they are nowhere near the critical
    path.  Comparing its makespan against Algorithm 1's isolates the value
    of the paper's load-balance objective from the value of task awareness.
    """
    if not tasks:
        raise ValueError("no tasks to plan for")
    if not 0.0 < step <= 1.0:
        raise ValueError("step must be in (0, 1]")
    levels = _step_levels(step)
    g = model.ratio_grids(tasks, levels)  # one stacked model call
    grid = {tid: np.minimum.accumulate(v) for tid, v in g.items()}
    return _throughput_plan_kernel(
        tasks, dram_capacity_bytes, task_bytes, levels, grid
    )


def _throughput_plan_kernel(
    tasks: Sequence[TaskModelInputs],
    dram_capacity_bytes: int,
    task_bytes: Mapping[str, int],
    levels: np.ndarray,
    grid: Mapping[str, np.ndarray],
) -> PlanResult:
    """Array-native density greedy (PERFORMANCE.md, "throughput_plan").

    Per-level page counts and per-step time savings are precomputed as
    (tasks, levels) matrices; each greedy step is then one gather plus an
    ``np.argmax`` (first-max == the scalar loop's strict ``>`` update
    rule, which also keeps the first of tied candidates).
    """
    capacity_pages = dram_capacity_bytes // PAGE_SIZE
    n = len(tasks)
    n_levels = len(levels)
    pages_arr = np.array(
        [max(1, int(np.ceil(task_bytes[t.task_id] / PAGE_SIZE))) for t in tasks],
        dtype=np.int64,
    )
    grid_mat = np.vstack([np.asarray(grid[t.task_id], dtype=np.float64) for t in tasks])
    # pages at each level and the density of every possible upgrade step,
    # all precomputed -- the greedy loop only gathers
    pages_at = np.ceil(
        pages_arr[:, None] * np.clip(levels, 0.0, 1.0)[None, :]
    ).astype(np.int64)                                   # (n, L)
    saved = grid_mat[:, :-1] - grid_mat[:, 1:]           # (n, L-1)
    extra = pages_at[:, 1:] - pages_at[:, :-1]           # (n, L-1)
    density_mat = saved / np.maximum(extra, 1)           # (n, L-1)

    level_idx = np.zeros(n, dtype=np.int64)
    rows = np.arange(n)

    while True:
        at_top = level_idx + 1 >= n_levels
        density = np.where(
            at_top, -np.inf, density_mat[rows, np.minimum(level_idx, n_levels - 2)]
        )
        best = int(np.argmax(density))
        if not np.isfinite(density[best]) or density[best] <= 0:
            break
        level_idx[best] += 1
        used = int(np.sum(pages_at[rows, level_idx]))
        if used > capacity_pages:
            level_idx[best] -= 1
            break

    level_vals = levels[level_idx]
    time_vals = grid_mat[rows, level_idx]
    page_counts = pages_at[rows, level_idx]
    quotas = tuple(
        TaskQuota(
            task_id=tasks[i].task_id,
            dram_accesses=float(level_vals[i]) * tasks[i].total_accesses,
            r_dram=float(level_vals[i]),
            dram_pages=int(page_counts[i]),
            predicted_time_s=float(time_vals[i]),
        )
        for i in range(n)
    )
    return PlanResult(
        quotas=quotas,
        predicted_makespan_s=max(q.predicted_time_s for q in quotas),
        dram_pages_used=int(page_counts.sum()),
        rounds=int(level_idx.sum()),
    )

# ----------------------------------------------------------------------
# N-tier allocation (capacity vector instead of a single DRAM budget)
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class TieredTaskQuota:
    """Planner output for one task on an N-tier topology.

    ``fractions[k]``/``pages[k]`` is the task's access fraction / page
    count on tier ``k`` (fastest first; fractions sum to 1).
    """

    task_id: str
    fractions: tuple[float, ...]
    pages: tuple[int, ...]
    effective_ratio: float
    predicted_time_s: float


@dataclass(frozen=True)
class TieredPlanResult:
    """N-tier planner output; per-tier usage replaces the DRAM scalar."""

    quotas: tuple[TieredTaskQuota, ...]
    predicted_makespan_s: float
    pages_used: tuple[int, ...]
    rounds: int

    def quota(self, task_id: str) -> TieredTaskQuota:
        for q in self.quotas:
            if q.task_id == task_id:
                return q
        raise KeyError(task_id)

    def to_jsonable(self) -> dict:
        return {
            "predicted_makespan_s": self.predicted_makespan_s,
            "pages_used": list(self.pages_used),
            "rounds": self.rounds,
            "quotas": [
                {
                    "task_id": q.task_id,
                    "fractions": list(q.fractions),
                    "pages": list(q.pages),
                    "effective_ratio": q.effective_ratio,
                    "predicted_time_s": q.predicted_time_s,
                }
                for q in self.quotas
            ],
        }

    @classmethod
    def from_jsonable(cls, payload: dict) -> "TieredPlanResult":
        return cls(
            quotas=tuple(
                TieredTaskQuota(
                    task_id=q["task_id"],
                    fractions=tuple(q["fractions"]),
                    pages=tuple(q["pages"]),
                    effective_ratio=q["effective_ratio"],
                    predicted_time_s=q["predicted_time_s"],
                )
                for q in payload["quotas"]
            ),
            predicted_makespan_s=payload["predicted_makespan_s"],
            pages_used=tuple(payload["pages_used"]),
            rounds=payload["rounds"],
        )


def tiered_greedy_plan(
    tasks: Sequence[TieredTaskInputs],
    model: PerformanceModel,
    capacities_bytes: Sequence[int],
    task_bytes: Mapping[str, int],
    step: float = 0.05,
) -> TieredPlanResult:
    """Algorithm 1 generalised to a per-tier capacity vector.

    With exactly two tiers this *delegates* to :func:`greedy_plan` and
    re-expresses its result as fraction/page vectors, so the paper's
    2-tier plans are bit-identical through this entry point (the
    conformance harness pins that down).  With more tiers the same
    longest-task-first loop runs, but a growth step promotes a ``step``
    slice of the task's pages from its slowest occupied tier into the
    fastest tier with free capacity; a task's predicted time is the 2-tier
    model's price of its effective ratio, ``sum(fraction_k * s_k)`` over
    :meth:`TieredTaskInputs.slowdown_weights`.  No tier
    is ever over-committed: promotions are clamped to per-tier free pages
    and the initial placement waterfalls from the slowest tier up.
    """
    if not tasks:
        raise ValueError("no tasks to plan for")
    if not 0.0 < step <= 1.0:
        raise ValueError("step must be in (0, 1]")
    caps = tuple(int(c) for c in capacities_bytes)
    n_tiers = len(caps)
    if n_tiers < 2:
        raise ValueError("need a capacity for at least two tiers")
    for t in tasks:
        if t.n_tiers != n_tiers:
            raise ValueError(
                f"task {t.task_id!r} has {t.n_tiers} tier endpoints for a "
                f"{n_tiers}-tier capacity vector"
            )
    two_tier = [t.as_two_tier() for t in tasks]
    task_pages = _task_pages_map(two_tier, task_bytes)

    if n_tiers == 2:
        plan = greedy_plan(two_tier, model, caps[0], task_bytes, step)
        quotas = []
        for q in plan.quotas:
            tp = task_pages[q.task_id]
            slow_pages = max(0, tp - q.dram_pages)
            quotas.append(
                TieredTaskQuota(
                    task_id=q.task_id,
                    fractions=(q.r_dram, 1.0 - q.r_dram),
                    pages=(q.dram_pages, slow_pages),
                    effective_ratio=q.r_dram,
                    predicted_time_s=q.predicted_time_s,
                )
            )
        return TieredPlanResult(
            quotas=tuple(quotas),
            predicted_makespan_s=plan.predicted_makespan_s,
            pages_used=(
                plan.dram_pages_used,
                sum(q.pages[1] for q in quotas),
            ),
            rounds=plan.rounds,
        )

    # ---- general N-tier case -----------------------------------------
    cap_pages = [c // PAGE_SIZE for c in caps]
    ids = [t.task_id for t in tasks]
    if sum(task_pages.values()) > sum(cap_pages):
        raise ValueError("workload does not fit in the topology")

    # initial placement: waterfall from the slowest tier up (what a
    # first-touch-in-far-memory system gives you), in task input order
    pages: dict[str, list[int]] = {tid: [0] * n_tiers for tid in ids}
    free = list(cap_pages)
    for tid in ids:
        remaining = task_pages[tid]
        for k in range(n_tiers - 1, -1, -1):
            take = min(remaining, free[k])
            pages[tid][k] = take
            free[k] -= take
            remaining -= take
            if remaining == 0:
                break

    levels = _step_levels(step)
    grid = model.ratio_grids(two_tier, levels)
    weights = {t.task_id: t.slowdown_weights() for t in tasks}

    def level_index(value: float) -> int:
        return min(max(round(value / step), 0), len(levels) - 1)

    def effective_ratio(tid: str) -> float:
        tp = task_pages[tid]
        w = weights[tid]
        return min(
            1.0, seq_sum(pages[tid][k] / tp * w[k] for k in range(n_tiers))
        )

    def predicted(tid: str) -> float:
        return float(grid[tid][level_index(effective_ratio(tid))])

    def promote(tid: str) -> int:
        """Move one step's worth of pages up a tier; returns pages moved."""
        want = max(1, int(np.ceil(step * task_pages[tid])))
        src = -1
        for k in range(n_tiers - 1, 0, -1):
            if pages[tid][k] > 0:
                src = k
                break
        if src < 0:
            return 0  # everything already in the fastest tier
        for dst in range(src):
            if free[dst] > 0:
                moved = min(want, pages[tid][src], free[dst])
                pages[tid][src] -= moved
                pages[tid][dst] += moved
                free[src] += moved
                free[dst] -= moved
                return moved
        return 0  # nothing faster has room

    d_pred = {tid: predicted(tid) for tid in ids}
    saturated: set[str] = set()
    rounds = 0
    while True:
        rounds += 1
        candidates = [tid for tid in ids if tid not in saturated]
        if not candidates:
            break
        longest = max(candidates, key=lambda tid: d_pred[tid])
        others = [d_pred[tid] for tid in ids if tid != longest]
        second_t = max(others) if others else 0.0
        while True:
            if promote(longest) == 0:
                saturated.add(longest)
                break
            d_pred[longest] = predicted(longest)
            if d_pred[longest] <= second_t:
                break

    quotas = tuple(
        TieredTaskQuota(
            task_id=tid,
            fractions=tuple(
                pages[tid][k] / task_pages[tid] for k in range(n_tiers)
            ),
            pages=tuple(pages[tid]),
            effective_ratio=effective_ratio(tid),
            predicted_time_s=d_pred[tid],
        )
        for tid in ids
    )
    return TieredPlanResult(
        quotas=quotas,
        predicted_makespan_s=max(d_pred.values()),
        pages_used=tuple(
            sum(pages[tid][k] for tid in ids) for k in range(n_tiers)
        ),
        rounds=rounds,
    )
