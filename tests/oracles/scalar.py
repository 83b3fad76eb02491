"""Scalar reference implementations of the vectorized hot path.

These are the plain forms the batched kernels replaced, kept as the
executable specification the kernels are compared against:

* :func:`greedy_plan`, :func:`optimal_quotas`, :func:`throughput_plan` --
  Algorithm 1 and the two ablation planners as dict-based Python loops,
  pricing each task's ratio grid with its own ``ratio_grid`` call;
* :func:`tree_predict` -- one node walk per sample over the Python node
  list of a fitted ``DecisionTreeRegressor``;
* :func:`gbr_predict` -- the boosting sum as a per-tree loop;
* :func:`predict_batch` / :func:`predict_stacked` -- the correlation
  function's feature matrix filled row by row (one task) or block by
  block (one task per block) and handed to the model's ``predict``;
* :func:`breakdown_tiered` -- the machine's time model in scalar form:
  per-tier, per-pattern dict buckets, one tier time each and a q-norm
  across tiers.  It is the only scalar copy of the arithmetic that
  ``TieredBreakdownKernel._price_fields`` batches;
* :func:`breakdown_2tier` -- the dedicated 2-tier form, which the kernel
  prices as the n = 2 case of the N-tier body;
* :func:`breakdowns` -- stand-in for ``MachineModel.breakdowns``: one
  scalar call per footprint and placement;
* :class:`ScalarBreakdown` / :class:`ScalarTieredBreakdown` -- stand-ins
  for the engine's tick kernels that price every instance with its own
  :func:`breakdown_2tier` / :func:`breakdown_tiered` call.

:func:`scalar_reference` puts all of them in place of the production code
for the duration of a ``with`` block, so a whole engine run (or a planner
call looked up through its module) runs on the references.  Production
must match them bit for bit (PERFORMANCE.md, "Reference implementations").

``critical_path_plan`` keeps its stacked ``ratio_grids`` call under the
references; the grid it prices goes through :func:`predict_stacked`, and
``ratio_grids`` equals per-task ``ratio_grid`` calls bit for bit
(``tests/test_kernels.py::test_ratio_grids_match_per_task_grids``).
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from typing import Iterator, Mapping, Sequence

import numpy as np

# every repro module that binds a planner must be loaded before
# scalar_reference() scans for the bindings
import repro.core  # noqa: F401
import repro.experiments.ablation  # noqa: F401
import repro.runtime.planning  # noqa: F401
import repro.service.scheduler  # noqa: F401
import repro.sim.engine
from repro.common import CACHE_LINE, PAGE_SIZE, AccessPattern, seq_sum
from repro.core import planner
from repro.core.correlation import CorrelationFunction
from repro.core.model import PerformanceModel, TaskModelInputs
from repro.core.planner import (
    PlanResult,
    TaskQuota,
    _pages_for,
    _step_levels,
    _task_pages_map,
)
from repro.ml.gbr import GradientBoostedRegressor
from repro.ml.tree import DecisionTreeRegressor
from repro.sim.machine import MachineModel, TieredBreakdown
from repro.sim.memspec import TierSpec, TopologySpec
from repro.tasks.task import Footprint

__all__ = [
    "greedy_plan",
    "optimal_quotas",
    "throughput_plan",
    "tree_predict",
    "gbr_predict",
    "predict_batch",
    "predict_stacked",
    "breakdown_tiered",
    "breakdown_2tier",
    "breakdowns",
    "ScalarBreakdown",
    "ScalarTieredBreakdown",
    "scalar_reference",
]


# ---------------------------------------------------------------------------
# planners
# ---------------------------------------------------------------------------

def greedy_plan(
    tasks: Sequence[TaskModelInputs],
    model: PerformanceModel,
    dram_capacity_bytes: int,
    task_bytes: Mapping[str, int],
    step: float = 0.05,
    grids: Mapping[str, "np.ndarray"] | None = None,
) -> PlanResult:
    """Algorithm 1 with one ``ratio_grid`` call per task."""
    if not tasks:
        raise ValueError("no tasks to plan for")
    if not 0.0 < step <= 1.0:
        raise ValueError("step must be in (0, 1]")
    levels = _step_levels(step)
    if grids is None:
        grid = {t.task_id: model.ratio_grid(t, levels) for t in tasks}
    else:
        grid = {t.task_id: grids[t.task_id] for t in tasks}
        if any(len(g) != len(levels) for g in grid.values()):
            raise ValueError("precomputed grids do not match the step grid")
    return _greedy_plan_scalar(
        tasks, dram_capacity_bytes, task_bytes, step, levels, grid
    )


def optimal_quotas(
    tasks: Sequence[TaskModelInputs],
    model: PerformanceModel,
    dram_capacity_bytes: int,
    task_bytes: Mapping[str, int],
    step: float = 0.05,
) -> PlanResult:
    """Makespan-optimal bisection over per-task grid dicts."""
    if not tasks:
        raise ValueError("no tasks to plan for")
    levels = np.round(np.arange(0.0, 1.0 + step / 2, step), 10)
    return _optimal_quotas_scalar(
        tasks, model, dram_capacity_bytes, task_bytes, levels
    )


def throughput_plan(
    tasks: Sequence[TaskModelInputs],
    model: PerformanceModel,
    dram_capacity_bytes: int,
    task_bytes: Mapping[str, int],
    step: float = 0.05,
) -> PlanResult:
    """Density-greedy knapsack baseline over per-task grid dicts."""
    if not tasks:
        raise ValueError("no tasks to plan for")
    if not 0.0 < step <= 1.0:
        raise ValueError("step must be in (0, 1]")
    levels = _step_levels(step)
    grid = {
        t.task_id: np.minimum.accumulate(model.ratio_grid(t, levels))
        for t in tasks
    }
    return _throughput_plan_scalar(
        tasks, dram_capacity_bytes, task_bytes, levels, grid
    )


def _greedy_plan_scalar(
    tasks: Sequence[TaskModelInputs],
    dram_capacity_bytes: int,
    task_bytes: Mapping[str, int],
    step: float,
    levels: np.ndarray,
    grid: Mapping[str, np.ndarray],
) -> PlanResult:
    """Reference dict-based Algorithm 1 (the pre-kernel implementation)."""
    capacity_pages = dram_capacity_bytes // PAGE_SIZE
    task_pages = _task_pages_map(tasks, task_bytes)
    by_id = {t.task_id: t for t in tasks}

    def level_index(value: float) -> int:
        return int(np.clip(round(value / step), 0, len(levels) - 1))

    r: dict[str, float] = {t.task_id: 0.0 for t in tasks}
    d_pred: dict[str, float] = {t.task_id: t.t_pm_only for t in tasks}
    saturated: set[str] = set()
    rounds = 0

    def pages_used() -> int:
        return sum(_pages_for(task_pages[tid], r[tid]) for tid in r)

    while True:
        rounds += 1
        candidates = [tid for tid in r if tid not in saturated]
        if not candidates:
            break
        longest = max(candidates, key=lambda tid: d_pred[tid])
        others = [d_pred[tid] for tid in r if tid != longest]
        second_t = max(others) if others else 0.0

        r_i = r[longest]
        while True:
            r_i = min(1.0, r_i + step)
            d_pred[longest] = float(grid[longest][level_index(r_i)])
            if d_pred[longest] <= second_t or r_i >= 1.0:
                break
        r[longest] = r_i
        if r_i >= 1.0:
            saturated.add(longest)
        if pages_used() >= capacity_pages:
            break

    # clamp the final overshoot back under capacity (shrink the last-grown
    # task until the plan fits), keeping quotas on the step grid so the
    # reported predictions stay consistent with the allocations
    overshoot = pages_used() - capacity_pages
    if overshoot > 0:
        order = sorted(r, key=lambda tid: r[tid], reverse=True)
        for tid in order:
            if overshoot <= 0:
                break
            # flooring to the step grid then re-ceiling the pages can land
            # exactly one page back over capacity, so keep shrinking this
            # task until its contribution fits (or it reaches zero)
            while overshoot > 0 and r[tid] > 0.0:
                removable = _pages_for(task_pages[tid], r[tid])
                shrink_pages = min(removable, overshoot)
                shrunk = max(0.0, r[tid] - shrink_pages / task_pages[tid])
                new_r = float(np.floor(shrunk / step) * step)
                if new_r >= r[tid]:  # force at least one grid step down
                    new_r = max(0.0, float((round(r[tid] / step) - 1) * step))
                r[tid] = new_r
                d_pred[tid] = float(grid[tid][level_index(r[tid])])
                overshoot = pages_used() - capacity_pages

    quotas = tuple(
        TaskQuota(
            task_id=tid,
            dram_accesses=r[tid] * by_id[tid].total_accesses,
            r_dram=r[tid],
            dram_pages=_pages_for(task_pages[tid], r[tid]),
            predicted_time_s=d_pred[tid],
        )
        for tid in r
    )
    return PlanResult(
        quotas=quotas,
        predicted_makespan_s=max(d_pred.values()),
        dram_pages_used=pages_used(),
        rounds=rounds,
    )


def _optimal_quotas_scalar(
    tasks: Sequence[TaskModelInputs],
    model: PerformanceModel,
    dram_capacity_bytes: int,
    task_bytes: Mapping[str, int],
    levels: np.ndarray,
) -> PlanResult:
    """Reference per-task-dict bisection (the pre-kernel implementation)."""
    capacity_pages = dram_capacity_bytes // PAGE_SIZE
    task_pages = _task_pages_map(tasks, task_bytes)
    # precompute predicted time per (task, level); enforce monotonicity so
    # bisection is sound even if the learned f(.) wiggles
    times: dict[str, np.ndarray] = {}
    for t in tasks:
        raw = model.ratio_grid(t, levels)
        times[t.task_id] = np.minimum.accumulate(raw)

    def min_pages_for_makespan(m: float) -> int | None:
        total = 0
        for t in tasks:
            feasible = np.flatnonzero(times[t.task_id] <= m)
            if len(feasible) == 0:
                return None
            total += _pages_for(task_pages[t.task_id], float(levels[feasible[0]]))
        return total

    candidates = sorted({float(v) for arr in times.values() for v in arr})
    lo, hi = 0, len(candidates) - 1
    best: float | None = None
    while lo <= hi:
        mid = (lo + hi) // 2
        pages = min_pages_for_makespan(candidates[mid])
        if pages is not None and pages <= capacity_pages:
            best = candidates[mid]
            hi = mid - 1
        else:
            lo = mid + 1
    if best is None:
        best = candidates[-1]

    quotas = []
    used = 0
    for t in tasks:
        feasible = np.flatnonzero(times[t.task_id] <= best)
        level = float(levels[feasible[0]]) if len(feasible) else 1.0
        pages = _pages_for(task_pages[t.task_id], level)
        used += pages
        quotas.append(
            TaskQuota(
                task_id=t.task_id,
                dram_accesses=level * t.total_accesses,
                r_dram=level,
                dram_pages=pages,
                predicted_time_s=float(
                    times[t.task_id][feasible[0]] if len(feasible) else times[t.task_id][-1]
                ),
            )
        )
    return PlanResult(
        quotas=tuple(quotas),
        predicted_makespan_s=max(q.predicted_time_s for q in quotas),
        dram_pages_used=used,
        rounds=1,
    )


def _throughput_plan_scalar(
    tasks: Sequence[TaskModelInputs],
    dram_capacity_bytes: int,
    task_bytes: Mapping[str, int],
    levels: np.ndarray,
    grid: Mapping[str, np.ndarray],
) -> PlanResult:
    """Reference density-greedy loop (the pre-kernel implementation)."""
    capacity_pages = dram_capacity_bytes // PAGE_SIZE
    task_pages = _task_pages_map(tasks, task_bytes)
    by_id = {t.task_id: t for t in tasks}

    level_idx = {t.task_id: 0 for t in tasks}

    def pages_used() -> int:
        return sum(
            _pages_for(task_pages[tid], float(levels[level_idx[tid]]))
            for tid in level_idx
        )

    while True:
        best: tuple[float, str] | None = None
        for tid, k in level_idx.items():
            if k + 1 >= len(levels):
                continue
            saved = float(grid[tid][k] - grid[tid][k + 1])
            extra_pages = _pages_for(task_pages[tid], float(levels[k + 1])) - _pages_for(
                task_pages[tid], float(levels[k])
            )
            density = saved / max(extra_pages, 1)
            if best is None or density > best[0]:
                best = (density, tid)
        if best is None or best[0] <= 0:
            break
        tid = best[1]
        level_idx[tid] += 1
        if pages_used() > capacity_pages:
            level_idx[tid] -= 1
            break

    quotas = tuple(
        TaskQuota(
            task_id=tid,
            dram_accesses=float(levels[k]) * by_id[tid].total_accesses,
            r_dram=float(levels[k]),
            dram_pages=_pages_for(task_pages[tid], float(levels[k])),
            predicted_time_s=float(grid[tid][k]),
        )
        for tid, k in level_idx.items()
    )
    return PlanResult(
        quotas=quotas,
        predicted_makespan_s=max(q.predicted_time_s for q in quotas),
        dram_pages_used=pages_used(),
        rounds=sum(level_idx.values()),
    )



# ---------------------------------------------------------------------------
# ml / correlation
# ---------------------------------------------------------------------------

def tree_predict(self: DecisionTreeRegressor, X) -> np.ndarray:
    """``DecisionTreeRegressor.predict`` as a per-sample node walk.

    Split comparisons are the batched kernels' (``x > threshold`` goes
    right, anything else left, on the same float64 values), so both land
    each sample on the same leaf.  A NaN feature compares false and goes
    left.
    """
    if not self._nodes:
        raise RuntimeError("tree not fitted")
    X = np.asarray(X, dtype=np.float64)
    if X.ndim == 1:
        X = X[None, :]
    if X.shape[1] != self.n_features_:
        raise ValueError("feature-count mismatch")
    out = np.empty(X.shape[0])
    for i in range(X.shape[0]):
        node = self._nodes[0]
        while node.feature >= 0:
            if X[i, node.feature] > node.threshold:
                node = self._nodes[node.right]
            else:
                node = self._nodes[node.left]
        out[i] = node.value
    return out


def gbr_predict(self: GradientBoostedRegressor, X) -> np.ndarray:
    """``GradientBoostedRegressor.predict`` as a per-tree shrinkage loop."""
    if not self.trees_:
        raise RuntimeError("model not fitted")
    X = np.asarray(X, dtype=np.float64)
    if X.ndim == 1:
        X = X[None, :]
    pred = np.full(X.shape[0], self.init_)
    for tree in self.trees_:
        pred += self.learning_rate * tree.predict(X)
    return pred


def predict_batch(
    self: CorrelationFunction, pmcs: Mapping[str, float], ratios
) -> np.ndarray:
    """``CorrelationFunction.predict_batch`` with a row-filled matrix."""
    ratios = np.asarray(ratios, dtype=np.float64)
    if ratios.ndim != 1:
        raise ValueError("ratios must be 1-D")
    if ((ratios < 0) | (ratios > 1)).any():
        raise ValueError("ratios must be within [0, 1]")
    base = np.array([pmcs[e] for e in self.events], dtype=np.float64)
    X = np.empty((len(ratios), len(base) + 1))
    X[:, :-1] = base
    X[:, -1] = ratios
    return np.clip(self.model.predict(X), 0.05, 5.0)


def predict_stacked(
    self: CorrelationFunction, pmcs_seq: Sequence[Mapping[str, float]], ratios
) -> np.ndarray:
    """``CorrelationFunction.predict_stacked`` with a block-filled matrix."""
    ratios = np.asarray(ratios, dtype=np.float64)
    if ratios.ndim != 1:
        raise ValueError("ratios must be 1-D")
    if ((ratios < 0) | (ratios > 1)).any():
        raise ValueError("ratios must be within [0, 1]")
    if len(pmcs_seq) == 0:
        return np.empty((0, len(ratios)))
    n_r = len(ratios)
    X = np.empty((len(pmcs_seq) * n_r, len(self.events) + 1))
    for i, pmcs in enumerate(pmcs_seq):
        block = slice(i * n_r, (i + 1) * n_r)
        X[block, :-1] = [pmcs[e] for e in self.events]
        X[block, -1] = ratios
    flat = np.clip(self.model.predict(X), 0.05, 5.0)
    return flat.reshape(len(pmcs_seq), n_r)


# ---------------------------------------------------------------------------
# sim: per-instance tick pricing
# ---------------------------------------------------------------------------

def _tier_time(
    machine: MachineModel,
    tier: TierSpec,
    accesses: Mapping[AccessPattern, tuple[float, float]],
) -> tuple[float, float, float]:
    """Time, read bytes, write bytes for one tier.

    ``accesses[p] = (reads, writes)`` counts cache-line accesses of
    pattern ``p`` hitting this tier.  Tier time is the max of the
    latency-bound estimate (serialised by limited MLP) and the
    bandwidth-bound estimate.
    """
    latency_s = 0.0
    read_bytes = 0.0
    write_bytes = 0.0
    for pattern, (reads, writes) in accesses.items():
        n = reads + writes
        if n <= 0:
            continue
        lat_ns = tier.latency_ns(random=(pattern is AccessPattern.RANDOM))
        latency_s += n * lat_ns * 1e-9 / machine.spec.mlp[pattern]
        read_bytes += reads * CACHE_LINE
        write_bytes += writes * CACHE_LINE
    bandwidth_s = read_bytes / tier.read_bandwidth + write_bytes / tier.write_bandwidth
    return max(latency_s, bandwidth_s), read_bytes, write_bytes


def _combine(
    machine: MachineModel,
    footprint: Footprint,
    tier_times: Sequence[tuple[float, float, float]],
) -> TieredBreakdown:
    """The breakdown from per-tier (time, read bytes, write bytes): the
    q-norm of the tier times, overlapped with compute."""
    times = [t for t, _, _ in tier_times]
    q = machine.spec.tier_overlap_q
    t_mem = seq_sum([t**q for t in times]) ** (1.0 / q) if any(times) else 0.0
    t_cpu = machine.cpu_time(footprint)
    mix = footprint.pattern_mix()
    beta = (
        seq_sum(machine.spec.overlap[p] * w for p, w in mix.items()) if mix else 0.0
    )
    total = max(t_cpu, t_mem) + (1.0 - beta) * min(t_cpu, t_mem)
    return TieredBreakdown(
        total_s=total,
        cpu_s=t_cpu,
        mem_s=t_mem,
        tier_s=tuple(times),
        tier_read_bytes=tuple(rb for _, rb, _ in tier_times),
        tier_write_bytes=tuple(wb for _, _, wb in tier_times),
    )


def breakdown_tiered(
    machine: MachineModel,
    footprint: Footprint,
    topo: TopologySpec,
    tier_fractions: Mapping[str, Sequence[float]],
) -> TieredBreakdown:
    """The time model in scalar form on an N-tier topology.

    ``tier_fractions[obj]`` is the object's access-fraction vector across
    the topology's tiers, fastest first (missing objects default to
    all-in-slowest; each component clips to [0, 1], NaN to 0.0).
    """
    n = topo.n_tiers
    default = (0.0,) * (n - 1) + (1.0,)
    accs: list[dict[AccessPattern, tuple[float, float]]] = [{} for _ in range(n)]
    for a in footprint.accesses:
        f = tier_fractions.get(a.obj, default)
        if len(f) != n:
            raise ValueError(
                f"object {a.obj!r}: fraction vector has {len(f)} entries "
                f"for a {n}-tier topology"
            )
        for k in range(n):
            fk = min(1.0, max(0.0, float(f[k])))
            r, w = accs[k].get(a.pattern, (0.0, 0.0))
            accs[k][a.pattern] = (r + a.reads * fk, w + a.writes * fk)
    return _combine(
        machine,
        footprint,
        [_tier_time(machine, tier, acc) for tier, acc in zip(topo.tiers, accs)],
    )


def breakdown_2tier(
    machine: MachineModel,
    footprint: Footprint,
    memory: TopologySpec,
    dram_fractions: Mapping[str, float],
) -> TieredBreakdown:
    """The dedicated 2-tier time model: per-access DRAM/PM buckets built
    from the ratio ``r`` and ``1 - r``, two tier times and a two-term
    q-norm.  The kernel prices the same placement as the n = 2 case of the
    N-tier body and must match it bit for bit."""
    dram_acc: dict[AccessPattern, tuple[float, float]] = {}
    pm_acc: dict[AccessPattern, tuple[float, float]] = {}
    for a in footprint.accesses:
        r = float(dram_fractions.get(a.obj, 0.0))
        r = min(1.0, max(0.0, r))
        dr, dw = dram_acc.get(a.pattern, (0.0, 0.0))
        dram_acc[a.pattern] = (dr + a.reads * r, dw + a.writes * r)
        pr, pw = pm_acc.get(a.pattern, (0.0, 0.0))
        pm_acc[a.pattern] = (pr + a.reads * (1 - r), pw + a.writes * (1 - r))
    return _combine(
        machine,
        footprint,
        [
            _tier_time(machine, memory.tiers[0], dram_acc),
            _tier_time(machine, memory.tiers[1], pm_acc),
        ],
    )


def breakdowns(
    machine: MachineModel,
    footprints: Sequence[Footprint],
    memory: TopologySpec,
    placements: Sequence,
) -> list[list[TieredBreakdown]]:
    """Stand-in for ``MachineModel.breakdowns``: :func:`breakdown_2tier`
    (on 2 tiers) or :func:`breakdown_tiered` per footprint and
    placement; a placement that is not a mapping applies to every object."""
    out = []
    for p in placements:
        row = []
        for fp in footprints:
            fractions = p if isinstance(p, Mapping) else dict.fromkeys(fp.objects, p)
            if memory.n_tiers == 2:
                row.append(breakdown_2tier(machine, fp, memory, fractions))
            else:
                row.append(breakdown_tiered(machine, fp, memory, fractions))
        out.append(row)
    return out


class ScalarBreakdown:
    """Stand-in for ``BreakdownKernel``: one :func:`breakdown_2tier` call
    per instance, in the order the engine asks for them."""

    def __init__(self, machine, memory, footprints) -> None:
        self.machine = machine
        self.memory = memory
        self.footprints = dict(footprints)

    def breakdown_batch(self, task_ids, fractions):
        return [
            breakdown_2tier(self.machine, self.footprints[tid], self.memory, fractions)
            for tid in task_ids
        ]


class ScalarTieredBreakdown:
    """Stand-in for ``TieredBreakdownKernel``: one :func:`breakdown_tiered`
    call per instance."""

    def __init__(self, machine, topo, footprints) -> None:
        self.machine = machine
        self.topo = topo
        self.footprints = dict(footprints)

    def breakdown_batch(self, task_ids, vectors):
        return [
            breakdown_tiered(self.machine, self.footprints[tid], self.topo, vectors)
            for tid in task_ids
        ]


# ---------------------------------------------------------------------------
# putting the references in place
# ---------------------------------------------------------------------------

def bindings(fn) -> list[tuple[object, str]]:
    """Every ``(module, attribute)`` of a loaded ``repro`` module bound to
    ``fn`` (a ``from x import fn`` copy is its own binding)."""
    return [
        (mod, attr)
        for mod_name, mod in list(sys.modules.items())
        if mod is not None and (mod_name == "repro" or mod_name.startswith("repro."))
        for attr, value in list(vars(mod).items())
        if value is fn
    ]


@contextmanager
def scalar_reference() -> Iterator[None]:
    """Run the enclosed code on the scalar references.

    Methods are replaced on their classes (``MachineModel.breakdowns``,
    and with it every machine-model view), the tick kernels in
    ``repro.sim.engine``, and each planner wherever a ``repro`` module
    binds it.  Everything is restored on exit.
    """
    undo: list = []
    try:
        for cls, attr, ref in (
            (DecisionTreeRegressor, "predict", tree_predict),
            (GradientBoostedRegressor, "predict", gbr_predict),
            (CorrelationFunction, "predict_batch", predict_batch),
            (CorrelationFunction, "predict_stacked", predict_stacked),
            (MachineModel, "breakdowns", breakdowns),
        ):
            undo.append((cls, attr, cls.__dict__[attr]))
            setattr(cls, attr, ref)
        for attr, ref in (
            ("BreakdownKernel", ScalarBreakdown),
            ("TieredBreakdownKernel", ScalarTieredBreakdown),
        ):
            undo.append((repro.sim.engine, attr, getattr(repro.sim.engine, attr)))
            setattr(repro.sim.engine, attr, ref)
        for name, ref in (
            ("greedy_plan", greedy_plan),
            ("optimal_quotas", optimal_quotas),
            ("throughput_plan", throughput_plan),
        ):
            fn = getattr(planner, name)
            for mod, attr in bindings(fn):
                undo.append((mod, attr, fn))
                setattr(mod, attr, ref)
        yield
    finally:
        while undo:
            owner, attr, original = undo.pop()
            setattr(owner, attr, original)
