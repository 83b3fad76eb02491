"""Differential suite: the vectorized kernels must match the scalar
references in ``tests/oracles/scalar.py`` bit for bit.

Every production kernel (PERFORMANCE.md, "Reference implementations") is
driven next to its reference over seeded random task sets, quotas,
placements, and fault schedules, and the outputs are compared at the byte
level -- plans, predictions, migration schedules, traces.  The reference
side runs inside :func:`~tests.oracles.scalar.scalar_reference`, so the
whole stack under it (planner, correlation, trees, tick pricing) is
scalar.  Value-level closeness is not good enough: the replay gate's
golden fixture asserts byte equality of served plans across releases, so
a last-bit drift from the reference is a real regression.
"""

from __future__ import annotations

import pickle
from collections import Counter

import numpy as np
import pytest

import repro.ml.kernels
import repro.sim.kernels
from repro.apps.codesamples import generate_corpus
from repro.apps.spgemm import SpGEMMApp
from repro.common import PAGE_SIZE, make_rng
from repro.core import planner as planner_module
from repro.core.correlation import CorrelationFunction
from repro.core.model import PerformanceModel, TaskModelInputs, TieredTaskInputs
from repro.core.planner import greedy_plan, tiered_greedy_plan
from repro.ml.gbr import GradientBoostedRegressor
from repro.ml.kernels import (
    MASK_BITS,
    forest_apply,
    forest_predict,
    forest_predict_grid,
    pack_forest,
    pack_leaf_masks,
    tree_apply,
)
from repro.ml.tree import DecisionTreeRegressor
from repro.sim.counters import collect_pmcs
from repro.sim.engine import Engine
from repro.sim.kernels import BreakdownKernel
from repro.sim.machine import MachineModel
from repro.sim.memspec import optane_hm_config, topology_preset
from repro.sim.pages import MigrationBatch, PageTable
from tests.oracles import scalar
from tests.oracles.scalar import scalar_reference

def _bits(x: float) -> bytes:
    return np.float64(x).tobytes()


def _bd_fingerprint(bd) -> tuple:
    """Total, cpu, mem and per-tier time and bytes of a breakdown, as bits."""
    return (
        _bits(bd.total_s), _bits(bd.cpu_s), _bits(bd.mem_s),
        tuple(_bits(t) for t in bd.tier_s),
        tuple(_bits(b) for b in bd.tier_read_bytes),
        tuple(_bits(b) for b in bd.tier_write_bytes),
    )


def _with_non_finite(X: np.ndarray, rng) -> np.ndarray:
    """``X`` with ~10% NaN and a few +inf / -inf entries.

    A NaN feature compares false against every threshold and goes left,
    +inf goes right and -inf left, on the kernels and the references
    alike (the fault injector's corrupt counter reads are NaN).
    """
    X = X.copy()
    u = rng.uniform(size=X.shape)
    X[u < 0.10] = np.nan
    X[(u >= 0.10) & (u < 0.13)] = np.inf
    X[(u >= 0.13) & (u < 0.16)] = -np.inf
    return X


# ---------------------------------------------------------------------------
# ml: tree / forest kernels
# ---------------------------------------------------------------------------

def _fitted_models(seed: int, n: int = 240, d: int = 9):
    rng = make_rng(seed)
    X = rng.normal(size=(n, d))
    y = X[:, 0] * 2.0 - np.abs(X[:, 1]) + 0.3 * rng.normal(size=n)
    tree = DecisionTreeRegressor(max_depth=7).fit(X, y)
    gbr = GradientBoostedRegressor(
        n_estimators=40, max_depth=4, rng=make_rng(seed + 1)
    ).fit(X, y)
    return tree, gbr, rng


@pytest.mark.parametrize("seed", [0, 7, 123])
def test_tree_predictions_bit_identical(seed):
    tree, _, rng = _fitted_models(seed)
    Xq = _with_non_finite(rng.normal(size=(300, 9)), rng)
    with scalar_reference():
        ref = tree.predict(Xq)
    vec = tree.predict(Xq)
    assert ref.tobytes() == vec.tobytes()


@pytest.mark.parametrize("seed", [0, 7, 123])
def test_gbr_predictions_bit_identical(seed):
    _, gbr, rng = _fitted_models(seed)
    Xq = _with_non_finite(rng.normal(size=(500, 9)), rng)
    with scalar_reference():
        ref = gbr.predict(Xq)
    vec = gbr.predict(Xq)
    assert ref.tobytes() == vec.tobytes()


def test_forest_apply_matches_per_tree_apply():
    _, gbr, rng = _fitted_models(3)
    Xq = rng.normal(size=(128, 9))
    forest = pack_forest(gbr.trees_)
    leaves = forest_apply(forest, Xq)
    assert leaves.shape == (len(gbr.trees_), 128)
    for k, tree in enumerate(gbr.trees_):
        assert leaves[k].tobytes() == tree_apply(tree.arrays(), Xq).tobytes()


def test_forest_predict_row_independence():
    """The batching contract: stacked evaluation == per-row evaluation."""
    _, gbr, rng = _fitted_models(5)
    Xq = rng.normal(size=(64, 9))
    forest = gbr.forest()
    stacked = forest_predict(forest, Xq, gbr.init_, gbr.learning_rate)
    for i in range(0, 64, 17):
        row = forest_predict(forest, Xq[i : i + 1], gbr.init_, gbr.learning_rate)
        assert _bits(stacked[i]) == _bits(row[0])


def test_forest_cache_invalidated_by_refit():
    _, gbr, rng = _fitted_models(2)
    first = gbr.forest()
    X = rng.normal(size=(100, 9))
    gbr.fit(X, X[:, 0])
    assert gbr.forest() is not first


def test_fitted_models_survive_pickle():
    tree, gbr, rng = _fitted_models(9)
    Xq = rng.normal(size=(50, 9))
    tree2 = pickle.loads(pickle.dumps(tree))
    gbr2 = pickle.loads(pickle.dumps(gbr))
    assert tree2.predict(Xq).tobytes() == tree.predict(Xq).tobytes()
    assert gbr2.predict(Xq).tobytes() == gbr.predict(Xq).tobytes()


# ---------------------------------------------------------------------------
# ml: the tasks x grid kernel
# ---------------------------------------------------------------------------

#: base (counter) columns of the grid-kernel test forests; column _D is
#: the grid column
_D = 4
_STEP_GRID = np.round(np.arange(0.0, 1.0001, 0.05), 10)


def _stacked(base: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """The repeat/tile tasks x grid matrix: row ``i * len(grid) + j``."""
    X = np.empty((base.shape[0] * len(grid), base.shape[1] + 1))
    X[:, :-1] = np.repeat(base, len(grid), axis=0)
    X[:, -1] = np.tile(grid, base.shape[0])
    return X


def _split_pattern_forest(seed: int, depth: int) -> GradientBoostedRegressor:
    """A boosted ensemble whose trees cycle through every split pattern
    the leaf-mask packing separates: base and grid splits mixed, base
    splits only (constant grid column), grid splits only (constant base
    columns), and root-only trees (fit on one row)."""
    rng = make_rng(seed)
    n = 160
    X = rng.normal(size=(n, _D + 1))
    X[:, _D] = np.round(rng.uniform(0.0, 1.0, n), 2)
    # a grid step and a base step, so a depth-2 tree splits on both
    y = 2.0 * (X[:, _D] > 0.5) + (X[:, 0] > 0.0) + np.sin(3.0 * X[:, _D])
    y += 0.3 * X[:, 1] + 0.1 * rng.normal(size=n)
    base_only = X.copy()
    base_only[:, _D] = 0.5
    grid_only = X.copy()
    grid_only[:, :_D] = 0.0
    patterns = ((X, y), (base_only, y), (grid_only, y), (X[:1], y[:1]))
    trees = []
    for i in range(24):
        data, target = patterns[i % 4]
        tree = DecisionTreeRegressor(max_depth=depth, rng=make_rng(seed + i))
        trees.append(tree.fit(data, target * (1.0 + 0.1 * i)))
    gbr = GradientBoostedRegressor(n_estimators=len(trees), learning_rate=0.1)
    gbr.trees_ = trees
    gbr.init_ = float(y.mean())
    return gbr


def _grid_queries(gbr, k: int, seed: int):
    """``k`` base rows with non-finite values and exact split thresholds,
    and a grid holding 0.0, 1.0 and the forest's own grid thresholds."""
    rng = make_rng(seed)
    forest = gbr.forest()
    base = _with_non_finite(rng.normal(size=(k, _D)), rng)
    split = forest.feature >= 0
    for i in range(k):
        j = int(rng.integers(split.sum()))
        f = int(forest.feature[split][j])
        if f < _D:  # a value equal to a threshold compares "not greater"
            base[i, f] = forest.threshold[split][j]
    grid_thresholds = forest.threshold[forest.feature == _D]
    grid = np.concatenate([
        [0.0, 1.0], rng.uniform(0.0, 1.0, 5), grid_thresholds[:4], _STEP_GRID,
    ])
    return base, grid


def test_leaf_mask_cache_invalidated_by_refit():
    _, gbr, rng = _fitted_models(2)
    first = gbr.leaf_masks()
    assert gbr.leaf_masks() is first
    X = rng.normal(size=(100, 9))
    gbr.fit(X, X[:, 0])
    packed = gbr.leaf_masks()
    assert packed is not first
    base = rng.normal(size=(3, 8))
    grid = np.array([0.0, 0.3, 1.0])
    vec = forest_predict_grid(packed, base, grid, gbr.init_, gbr.learning_rate)
    ref = forest_predict(gbr.forest(), _stacked(base, grid), gbr.init_, gbr.learning_rate)
    assert vec.tobytes() == ref.tobytes()


def test_pack_leaf_masks_rejects_trees_wider_than_a_mask():
    rng = make_rng(6)
    X = rng.normal(size=(400, 3))
    tree = DecisionTreeRegressor(max_depth=12).fit(X, rng.normal(size=400))
    assert int((tree.arrays().feature < 0).sum()) > MASK_BITS
    with pytest.raises(ValueError, match="leaves"):
        pack_leaf_masks(pack_forest([tree]), grid_feature=2)


#: tree depth of the test forests -> the mask width they pack at
_DEPTH_WIDTH = {1: 16, 2: 16, 3: 16, 4: 16, 5: 32, 6: 64}


@pytest.mark.parametrize("depth", sorted(_DEPTH_WIDTH))
def test_split_pattern_forest_covers_every_pattern(depth):
    packed = _split_pattern_forest(depth, depth).leaf_masks()
    assert packed.mask_width == _DEPTH_WIDTH[depth]
    n_base = np.diff(np.append(packed.base_starts, len(packed.base_feature)))
    n_grid = np.diff(np.append(packed.grid_starts, len(packed.grid_threshold)))
    # counts include each tree's pad node; a depth-1 tree has one split
    assert ((n_base > 1) & (n_grid > 1)).any() == (depth > 1)
    assert ((n_base > 1) & (n_grid == 1)).any()
    assert ((n_base == 1) & (n_grid > 1)).any()
    assert ((n_base == 1) & (n_grid == 1)).any()


@pytest.mark.parametrize("k", [0, 1, 7])
@pytest.mark.parametrize("depth", sorted(_DEPTH_WIDTH))
def test_forest_predict_grid_matches_stacked_forest_predict(depth, k):
    gbr = _split_pattern_forest(depth, depth)
    base, grid = _grid_queries(gbr, k, seed=10 * depth + k)
    # a second grid of the same length must not hit the first's memo
    for g in (grid, grid[::-1].copy(), grid):
        vec = forest_predict_grid(
            gbr.leaf_masks(), base, g, gbr.init_, gbr.learning_rate
        )
        ref = forest_predict(
            gbr.forest(), _stacked(base, g), gbr.init_, gbr.learning_rate
        )
        assert vec.shape == (k, len(g))
        assert vec.tobytes() == ref.reshape(k, len(g)).tobytes()


def _mixed_magnitude_forest(seed: int, n_trees: int = 301) -> GradientBoostedRegressor:
    """A boosted ensemble whose leaf values run from 1e-8 to 1e8 in size,
    both signs: summing one lane's terms pairwise instead of tree by tree
    changes its last bits."""
    rng = make_rng(seed)
    X = rng.normal(size=(64, _D + 1))
    X[:, _D] = rng.uniform(0.0, 1.0, 64)
    trees = []
    for i in range(n_trees):
        y = rng.normal(size=64) * 10.0 ** rng.uniform(-8.0, 8.0)
        trees.append(DecisionTreeRegressor(max_depth=2, rng=make_rng(i)).fit(X, y))
    gbr = GradientBoostedRegressor(n_estimators=n_trees, learning_rate=0.1)
    gbr.trees_ = trees
    gbr.init_ = 0.3
    return gbr


@pytest.mark.parametrize("k, n_grid", [(1, 1), (1, 2), (2, 1)])
def test_boosting_sum_adds_trees_in_order(k, n_grid):
    """One lane (k * n_grid = 1) and two lanes, where numpy's reductions
    differ: a lone contiguous column is summed pairwise, whole rows are
    added one after the other.  Both kernels must give the tree-by-tree
    sum of the scalar reference, and the inputs must tell the two orders
    apart."""
    gbr = _mixed_magnitude_forest(seed=k * 10 + n_grid)
    rng = make_rng(k * 100 + n_grid)
    base = rng.normal(size=(k, _D))
    grid = rng.uniform(0.0, 1.0, n_grid)
    X = _stacked(base, grid)
    with scalar_reference():
        ref = gbr.predict(X)
    forest = gbr.forest()
    vec = forest_predict(forest, X, gbr.init_, gbr.learning_rate)
    assert vec.tobytes() == ref.tobytes()
    grid_vec = forest_predict_grid(
        gbr.leaf_masks(), base, grid, gbr.init_, gbr.learning_rate
    )
    assert grid_vec.tobytes() == ref.reshape(k, n_grid).tobytes()
    terms = np.vstack([
        np.full(k * n_grid, gbr.init_),
        gbr.learning_rate * forest_apply(forest, X),
    ])
    pairwise = np.array([np.add.reduce(terms[:, j].copy()) for j in range(k * n_grid)])
    assert (pairwise != ref).all()


@pytest.mark.parametrize("k", [0, 1, 7])
@pytest.mark.parametrize("depth", sorted(_DEPTH_WIDTH))
def test_grid_correlation_matches_scalar_reference(depth, k):
    """``predict_stacked`` on the grid kernel against the block-filled
    matrix walked tree by tree, node by node, and each one-task stack
    against the row-filled matrix."""
    gbr = _split_pattern_forest(depth, depth)
    base, grid = _grid_queries(gbr, k, seed=10 * depth + k + 5)
    corr = CorrelationFunction(gbr, events=[f"e{j}" for j in range(_D)])
    pmcs_seq = [dict(zip(corr.events, row)) for row in base]
    with scalar_reference():
        ref = corr.predict_stacked(pmcs_seq, grid)
        ref_rows = [scalar.predict_batch(corr, p, grid) for p in pmcs_seq]
    vec = corr.predict_stacked(pmcs_seq, grid)
    assert vec.shape == (k, len(grid))
    assert vec.tobytes() == ref.tobytes()
    for p, row in zip(pmcs_seq, ref_rows):
        assert corr.predict_stacked([p], grid)[0].tobytes() == row.tobytes()


def test_grid_predictions_never_descend_the_forest(system, monkeypatch):
    """Every Eq. 2 grid goes through the leaf masks: no per-(task, ratio)
    row descent behind ``predict_stacked``, ``ratio_grids`` or the
    planners."""
    calls: Counter = Counter()
    for name in ("forest_apply", "forest_predict"):
        fn = getattr(repro.ml.kernels, name)
        for mod, attr in scalar.bindings(fn):
            monkeypatch.setattr(mod, attr, _counted(calls, name, fn))
    tasks, task_bytes = _random_tasks(system, 6, seed=17)
    corr, model = system.correlation, system.performance_model
    corr.predict_stacked([t.pmcs for t in tasks], _STEP_GRID)
    model.ratio_grids(tasks[:1], _STEP_GRID)
    greedy_plan(tasks, model, int(sum(task_bytes.values()) * 0.3), task_bytes)
    assert not calls, dict(calls)
    corr.model.predict(np.zeros((2, len(corr.events) + 1)))  # control
    assert calls == Counter(forest_apply=1, forest_predict=1)


# ---------------------------------------------------------------------------
# correlation / model stack
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def system():
    from repro.experiments.common import ExperimentContext

    return ExperimentContext(seed=0, fast=True).system


def _random_tasks(system, n_tasks: int, seed: int):
    machine, hm = system.machine, system.hm
    rng = make_rng(seed)
    tasks, task_bytes = [], {}
    for i, sample in enumerate(generate_corpus(n_tasks, seed=seed)):
        fp = sample.footprint(1.0)
        t_dram, t_pm = machine.endpoint_times(fp, hm)
        tid = f"t{i}"
        tasks.append(
            TaskModelInputs(
                task_id=tid,
                t_pm_only=t_pm,
                t_dram_only=t_dram,
                total_accesses=fp.total_accesses,
                pmcs=collect_pmcs(fp, machine, hm, rng=rng),
            )
        )
        task_bytes[tid] = fp.total_bytes
    return tasks, task_bytes


def test_predict_stacked_bit_identical(system):
    tasks, _ = _random_tasks(system, 6, seed=11)
    corr = system.correlation
    ratios = np.round(np.arange(0.0, 1.0001, 0.05), 10)
    pmcs_seq = [t.pmcs for t in tasks]
    with scalar_reference():
        ref = corr.predict_stacked(pmcs_seq, ratios)
    vec = corr.predict_stacked(pmcs_seq, ratios)
    assert ref.tobytes() == vec.tobytes()


def test_ratio_grids_match_per_task_grids(system):
    """Equation 2's one entry point against the per-task scalar
    reference: a multi-task stack, each task alone, and every ratio on
    its own (r = 0 and r = 1 included) return the same bits."""
    tasks, _ = _random_tasks(system, 5, seed=13)
    model = system.performance_model
    levels = np.concatenate([_STEP_GRID, make_rng(13).uniform(0.0, 1.0, 6)])
    with scalar_reference():
        ref = {t.task_id: scalar.ratio_grid(model, t, levels) for t in tasks}
    stacked = model.ratio_grids(tasks, levels)
    for t in tasks:
        want = ref[t.task_id]
        assert levels[-7] == 1.0 and want[-7] == t.t_dram_only
        assert stacked[t.task_id].tobytes() == want.tobytes()
        assert model.ratio_grids([t], levels)[t.task_id].tobytes() == want.tobytes()
        for r, w in zip(levels, want):
            (single,) = model.ratio_grids([t], [r])[t.task_id]
            assert _bits(single) == _bits(w)


def test_tiered_ratio_grids_match_per_task_grids(system, monkeypatch):
    """The tiered twin: the N-tier planner prices all tasks with one
    ``ratio_grids`` call, and its plan equals pricing each task's
    effective-ratio grid on its own."""
    tasks, task_bytes = _random_tasks(system, 7, seed=19)
    tiered = [
        TieredTaskInputs(
            task_id=t.task_id,
            tier_times=(
                0.8 * t.t_dram_only,
                t.t_dram_only,
                0.5 * (t.t_dram_only + t.t_pm_only),
                t.t_pm_only,
            ),
            total_accesses=t.total_accesses,
            pmcs=t.pmcs,
        )
        for t in tasks
    ]
    model = system.performance_model
    grids = model.ratio_grids([t.as_two_tier() for t in tiered], _STEP_GRID)
    for t in tiered:
        with scalar_reference():
            want = scalar.ratio_grid(model, t.as_two_tier(), _STEP_GRID)
        assert grids[t.task_id].tobytes() == want.tobytes()
    total = sum(task_bytes.values())
    caps = (int(0.1 * total), int(0.15 * total), int(0.25 * total), 2 * total)
    vec = tiered_greedy_plan(tiered, model, caps, task_bytes)
    calls: list[int] = []

    def per_task_ratio_grids(self, tasks, ratios):
        calls.append(len(tasks))
        return {t.task_id: scalar.ratio_grid(self, t, ratios) for t in tasks}

    monkeypatch.setattr(PerformanceModel, "ratio_grids", per_task_ratio_grids)
    with scalar_reference():
        ref = tiered_greedy_plan(tiered, model, caps, task_bytes)
    assert calls == [len(tiered)]  # one call prices every task
    assert vec.rounds > 1
    assert vec == ref


# ---------------------------------------------------------------------------
# planners
# ---------------------------------------------------------------------------

def _plan_fingerprint(plan) -> tuple:
    return (
        plan.rounds,
        plan.dram_pages_used,
        _bits(plan.predicted_makespan_s),
        tuple(
            (q.task_id, _bits(q.r_dram), q.dram_pages,
             _bits(q.predicted_time_s), _bits(q.dram_accesses))
            for q in plan.quotas
        ),
    )


@pytest.mark.parametrize("planner", ["greedy_plan", "optimal_quotas", "throughput_plan"])
@pytest.mark.parametrize("seed,n_tasks,cap_frac", [
    (3, 12, 0.40),
    (21, 4, 0.05),    # tight capacity: exercises the overshoot clamp
    (22, 9, 0.15),
    (23, 16, 0.65),
    (24, 7, 0.95),    # near-everything fits: exercises saturation
])
def test_planners_bit_identical(system, planner, seed, n_tasks, cap_frac):
    tasks, task_bytes = _random_tasks(system, n_tasks, seed=seed)
    model = system.performance_model
    cap = int(sum(task_bytes.values()) * cap_frac)
    with scalar_reference():
        ref = getattr(scalar, planner)(tasks, model, cap, task_bytes)
    vec = getattr(planner_module, planner)(tasks, model, cap, task_bytes)
    assert _plan_fingerprint(ref) == _plan_fingerprint(vec)


def test_greedy_plan_with_precomputed_grids_bit_identical(system):
    """The service path: quotas priced from one stacked grids call."""
    tasks, task_bytes = _random_tasks(system, 10, seed=31)
    model = system.performance_model
    cap = int(sum(task_bytes.values()) * 0.3)
    levels = np.round(np.arange(0.0, 1.0 + 0.025, 0.05), 10)
    levels[-1] = min(levels[-1], 1.0)
    grids = model.ratio_grids(tasks, levels)
    vec = greedy_plan(tasks, model, cap, task_bytes, grids=grids)
    with scalar_reference():
        ref = scalar.greedy_plan(tasks, model, cap, task_bytes, grids=grids)
    assert _plan_fingerprint(ref) == _plan_fingerprint(vec)


# ---------------------------------------------------------------------------
# sim: breakdown kernel, page-table arena, engine runs
# ---------------------------------------------------------------------------

#: DRAM ratios on and outside the [0, 1] edges; ``None`` leaves the object
#: out of the placement map (priced as all-PM)
#: out-of-range and non-finite ratios: the scalar clamp
#: ``min(1.0, max(0.0, v))`` maps NaN to 0.0, and the kernels must too
_EDGE_RATIOS = (
    0.0, -0.0, 1.0, -0.5, 1.0000000000000002, 2.0,
    float("inf"), float("-inf"), float("nan"), None,
)


def test_breakdown_kernel_bit_identical(monkeypatch):
    """The n = 2 front end and the scalar model both equal the dedicated
    2-tier reference, without going through the public tiered entry."""
    from repro.sim.kernels import TieredBreakdownKernel

    tiered_calls: Counter = Counter()
    monkeypatch.setattr(
        TieredBreakdownKernel, "breakdown_batch",
        _counted(tiered_calls, "tiered", TieredBreakdownKernel.breakdown_batch),
    )
    machine, hm = MachineModel(), optane_hm_config()
    fps = [
        (f"t{i}", s.footprint(1.0))
        for i, s in enumerate(generate_corpus(8, seed=5))
    ]
    kernel = BreakdownKernel(machine, hm, fps)
    rng = make_rng(7)
    objs = sorted({o for _, fp in fps for o in fp.objects})
    placements = [{o: float(rng.uniform(0.0, 1.0)) for o in objs} for _ in range(10)]
    placements += [{} if e is None else dict.fromkeys(objs, e) for e in _EDGE_RATIOS]
    for _ in range(4):
        # each object at an edge, missing, or inside [0, 1]
        mixed = {}
        for o, c in zip(objs, rng.integers(len(_EDGE_RATIOS) + 1, size=len(objs))):
            v = _EDGE_RATIOS[c] if c < len(_EDGE_RATIOS) else float(rng.uniform())
            if v is not None:
                mixed[o] = v
        placements.append(mixed)
    for n, fractions in enumerate(placements):
        batch = kernel.breakdown_batch([tid for tid, _ in fps], fractions)
        for (tid, fp), bd in zip(fps, batch):
            ref = _bd_fingerprint(scalar.breakdown_2tier(machine, fp, hm, fractions))
            assert _bd_fingerprint(bd) == ref, (n, tid)
            assert _bd_fingerprint(machine.breakdown(fp, hm, fractions)) == ref, (n, tid)
    assert not tiered_calls


def test_page_table_arena_aliases_objects():
    wl = SpGEMMApp.paper_scale(seed=0).build_workload(seed=0)
    hm = optane_hm_config()
    table = PageTable(wl.objects, hm.dram.capacity_bytes, rng=0)
    for obj in table:
        sl = table.object_slice(obj.name)
        assert obj.page_tier.base is table.tier_arena
        assert obj.weight.base is table.weight_arena
        assert sl.stop - sl.start == obj.n_pages
        table.place(MigrationBatch(moves=((obj.name, np.arange(1), 0),)))
        assert int(table.tier_arena[sl][0]) == 0
        table.place(MigrationBatch(moves=((obj.name, np.arange(1), 1),)))
    # padding lanes between segments hold no tier and zero weight
    covered = np.zeros(len(table.tier_arena), dtype=bool)
    for obj in table:
        sl = table.object_slice(obj.name)
        covered[sl] = True
    assert (table.tier_arena[~covered] == table.NO_TIER).all()
    assert not table.weight_arena[~covered].any()


def test_page_table_weights_match_prearena_construction():
    """Arena adoption must not change the sampled page weights."""
    wl = SpGEMMApp.paper_scale(seed=0).build_workload(seed=0)
    hm = optane_hm_config()
    a = PageTable(wl.objects, hm.dram.capacity_bytes, rng=42)
    b = PageTable(wl.objects, hm.dram.capacity_bytes, rng=42)
    for obj in a:
        assert obj.weight.tobytes() == b.object(obj.name).weight.tobytes()
        assert _bits(a.access_fractions()[obj.name]) == _bits(
            b.access_fractions()[obj.name]
        )


def test_page_table_survives_pickle():
    wl = SpGEMMApp.paper_scale(seed=0).build_workload(seed=0)
    hm = optane_hm_config()
    table = PageTable(wl.objects, hm.dram.capacity_bytes, rng=1)
    first = next(iter(table))
    table.place(MigrationBatch(moves=((first.name, np.arange(first.n_pages), 0),)))
    clone = pickle.loads(pickle.dumps(table))
    obj = clone.object(first.name)
    assert obj.page_tier.base is clone.tier_arena
    assert obj.page_tier.tobytes() == first.page_tier.tobytes()
    assert _bits(clone.dram_used_bytes()) == _bits(table.dram_used_bytes())


def _engine_run_fingerprint(system, seed: int, faults=None) -> tuple:
    app = SpGEMMApp.paper_scale(seed=seed)
    wl = app.build_workload(seed=seed)
    engine = Engine(machine=system.machine, hm=system.hm, faults=faults)
    policy = system.policy(app.binding(wl), seed=seed + 5)
    res = engine.run(wl, policy, seed=seed)
    return (
        _bits(res.total_time_s),
        res.pages_migrated,
        res.trace_time.tobytes(),
        res.trace_dram_bw.tobytes(),
        res.trace_pm_bw.tobytes(),
        res.trace_migration_bw.tobytes(),
        tuple(
            (r.name, _bits(r.start_s), _bits(r.end_s),
             tuple(sorted((t, _bits(v)) for t, v in r.busy_s.items())),
             tuple(sorted((t, _bits(v)) for t, v in r.wait_s.items())))
            for r in res.regions
        ),
    )


def test_engine_run_bit_identical(system):
    """Whole-pipeline differential: plans, migration schedule, traces."""
    with scalar_reference():
        ref = _engine_run_fingerprint(system, seed=0)
    vec = _engine_run_fingerprint(system, seed=0)
    assert ref == vec


def test_engine_run_bit_identical_under_faults(system):
    """Fault schedules (bandwidth dips, pressure spikes, failed batches)
    must replay identically on both paths."""
    from repro.sim.faults import FaultConfig, FaultInjector

    def make_faults():
        return FaultInjector(
            FaultConfig(
                pm_bw_degradation_rate=0.2,
                pm_bw_degradation_factor=0.5,
                dram_pressure_rate=0.15,
                dram_pressure_fraction=0.2,
                migration_fail_rate=0.2,
                migration_reject_rate=0.1,
            ),
            seed=9,
        )

    with scalar_reference():
        ref = _engine_run_fingerprint(system, seed=2, faults=make_faults())
    vec = _engine_run_fingerprint(system, seed=2, faults=make_faults())
    assert ref == vec


# ---------------------------------------------------------------------------
# sim: N-tier breakdown kernel and tiered engine runs
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("preset", ["dram_pm", "hbm_dram_pm", "hbm_dram_cxl_pm"])
def test_tiered_breakdown_kernel_bit_identical(preset):
    from repro.sim.kernels import TieredBreakdownKernel
    from repro.sim.memspec import topology_preset

    machine, topo = MachineModel(), topology_preset(preset)
    fps = [
        (f"t{i}", s.footprint(1.0))
        for i, s in enumerate(generate_corpus(8, seed=5))
    ]
    kernel = TieredBreakdownKernel(machine, topo, fps)
    rng = make_rng(7)
    objs = sorted({o for _, fp in fps for o in fp.objects})
    n = topo.n_tiers
    placements = []
    for _ in range(6):
        fractions = {}
        for o in objs:
            raw = rng.uniform(0.0, 1.0, n)
            raw = raw / raw.sum()
            fractions[o] = tuple(float(x) for x in raw)
        placements.append(fractions)
    # non-finite and out-of-range components, clamped per component (a NaN
    # to 0.0) by the scalar model
    edges = [e for e in _EDGE_RATIOS if e is not None]
    for _ in range(4):
        fractions = {}
        for o in objs:
            vec = [float(x) for x in rng.uniform(0.0, 1.0, n)]
            for k in rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False):
                vec[k] = edges[int(rng.integers(len(edges)))]
            fractions[o] = tuple(vec)
        placements.append(fractions)
    placements.append({o: (float("nan"),) * n for o in objs})
    for fractions in placements:
        batch = kernel.breakdown_batch([tid for tid, _ in fps], fractions)
        for (tid, fp), bd in zip(fps, batch):
            ref = scalar.breakdown_tiered(machine, fp, topo, fractions)
            assert _bd_fingerprint(ref) == _bd_fingerprint(bd), tid


def _edge_placements(n: int, objs, rng, ratios: bool) -> list:
    """Per-object placements for ``n`` tiers with NaN, +-inf, -0.0 and
    out-of-range components and missing objects, then one-for-all ones.

    With ``ratios`` a placement holds 2-tier DRAM ratios, otherwise
    fraction vectors.
    """
    edges = [e for e in _EDGE_RATIOS if e is not None]
    placements: list = []
    for _ in range(6):
        fractions = {}
        for o in objs:
            kind = int(rng.integers(4))
            if kind == 0:
                continue  # missing: all-in-slowest
            if ratios:
                edge = edges[int(rng.integers(len(edges)))]
                v = float(rng.uniform()) if kind == 1 else edge
            else:
                vec = [float(x) for x in rng.uniform(0.0, 1.0, n)]
                if kind > 1:
                    vec[int(rng.integers(n))] = edges[int(rng.integers(len(edges)))]
                v = tuple(vec)
            fractions[o] = v
        placements.append(fractions)
    if ratios:
        placements += [0.0, 1.0, 0.35, -0.0, float("nan"), float("inf")]
    else:
        placements += [tuple(float(i == k) for i in range(n)) for k in range(n)]
        placements += [(float("nan"),) * n, (-0.0,) + (0.5,) * (n - 1)]
    return placements


@pytest.mark.parametrize("memory", ["hm", "dram_pm", "hbm_dram_pm", "hbm_dram_cxl_pm"])
def test_machine_breakdowns_match_scalar_oracle(memory):
    """``MachineModel.breakdowns`` equals the scalar oracle bit for bit on
    2, 3 and 4 tiers, and a multi-footprint batch equals one-footprint
    calls: batching never changes a bit."""
    machine = MachineModel()
    mem = optane_hm_config() if memory == "hm" else topology_preset(memory)
    n = mem.n_tiers
    fps = [s.footprint(1.0) for s in generate_corpus(6, seed=11)]
    fps.append(fps[0])  # a footprint twice: its objects' columns are shared
    objs = sorted({o for fp in fps for o in fp.objects})
    placements = _edge_placements(n, objs, make_rng(13), ratios=n == 2)
    batch = machine.breakdowns(fps, mem, placements)
    assert len(batch) == len(placements)
    for k, (fractions, row) in enumerate(zip(placements, batch)):
        assert len(row) == len(fps)
        for i, (fp, bd) in enumerate(zip(fps, row)):
            (ref,), = scalar.breakdowns(machine, [fp], mem, [fractions])
            (single,), = machine.breakdowns([fp], mem, [fractions])
            assert _bd_fingerprint(bd) == _bd_fingerprint(single), (k, i)
            assert _bd_fingerprint(bd) == _bd_fingerprint(ref), (k, i)


def test_machine_views_equal_breakdowns():
    """The one-footprint views and the batched endpoints equal the rows
    of ``breakdowns`` (``scalar_reference()`` patches only that entry
    point, and ``test_scalar_reference_leaves_production_idle`` shows no
    view prices around it)."""
    machine, hm = MachineModel(), optane_hm_config()
    topo = topology_preset("hbm_dram_cxl_pm")
    fps = [s.footprint(1.0) for s in generate_corpus(3, seed=2)]
    fp = fps[0]
    fractions = {o: 0.3 for o in fp.objects}
    vectors = {o: (0.1, 0.2, 0.3, 0.4) for o in fp.objects}
    (bd,), = machine.breakdowns([fp], hm, [fractions])
    assert _bd_fingerprint(machine.breakdown(fp, hm, fractions)) == _bd_fingerprint(bd)
    assert _bits(machine.instance_time(fp, hm, fractions)) == _bits(bd.total_s)
    assert _bits(machine.uniform_ratio_time(fp, hm, 0.3)) == _bits(bd.total_s)
    (bd,), = machine.breakdowns([fp], topo, [vectors])
    assert _bd_fingerprint(scalar.breakdown_tiered(machine, fp, topo, vectors)) == (
        _bd_fingerprint(bd)
    )
    ends = machine.tier_endpoints(fps, topo)
    assert [machine.tier_endpoints([f], topo)[0] for f in fps] == ends
    ends_hm = machine.tier_endpoints(fps, hm)
    assert [machine.endpoint_times(f, hm) for f in fps] == ends_hm
    # the slowest-tier endpoint is the empty (all-in-slowest) placement
    for f, t in zip(fps, ends):
        assert _bits(t[-1]) == _bits(machine.instance_time(f, topo, {}))


def _memo_placements(preset: str, region, wl) -> list[dict]:
    """Placements A, A, B, A for one region's objects.

    The second A differs from the first only where clipping maps both to
    the same matrix (NaN and -2.0 to 0.0, +inf and 5.0 to 1.0).  Each map
    leaves one object out and holds NaN, ±inf and -0.0 components; on
    2 tiers the rest are Memory Mode-style object-level DRAM shares, on
    deeper tiers fractional vectors.
    """
    objs = sorted({o for inst in region.instances for o in inst.footprint.objects})
    rng = make_rng(17)
    if preset == "dram_pm":
        table = PageTable(wl.objects, optane_hm_config().dram.capacity_bytes, rng=0)
        maps = []
        for share in (0.37, 0.81):
            shares = {}
            for k, name in enumerate(objs):
                obj = table.object(name)
                hits = (
                    rng.uniform(0.0, 1.0, obj.n_pages)
                    if k % 2
                    else np.full(obj.n_pages, share)
                )
                shares[name] = float(obj.weight @ hits)
            table.set_dram_shares(shares)
            maps.append(dict(table.access_fractions()))
    else:
        n = topology_preset(preset).n_tiers
        maps = []
        for _ in range(2):
            raw = rng.uniform(0.0, 1.0, (len(objs), n))
            raw /= raw.sum(axis=1, keepdims=True)
            maps.append({o: tuple(map(float, v)) for o, v in zip(objs, raw)})
    edges = (float("nan"), float("inf"), float("-inf"), -0.0)
    same = (-2.0, 5.0, float("-inf"), -0.0)
    a, b = maps
    if preset != "dram_pm":
        # the edge value replaces each vector's fastest-tier component
        edges = [(x,) + a[o][1:] for o, x in zip(objs, edges)]
        same = [(x,) + a[o][1:] for o, x in zip(objs, same)]
    a_twin = dict(a)
    for o, x, y in zip(objs, edges, same):
        a[o], a_twin[o] = x, y
    del a[objs[-1]], a_twin[objs[-1]], b[objs[0]]
    return [a, a_twin, b, a]


@pytest.mark.parametrize("preset", ["dram_pm", "hbm_dram_pm", "hbm_dram_cxl_pm"])
def test_tick_kernel_memo_matches_fresh_kernel(preset, monkeypatch):
    """The placement memo returns exactly what pricing again would: every
    call of an A, A, B, A sequence equals a fresh kernel and the scalar
    reference bit for bit, and only a changed clipped matrix is priced."""
    from repro.sim.kernels import TieredBreakdownKernel

    wl = SpGEMMApp.small(seed=0).build_workload(seed=0)
    region = wl.regions[0]
    fps = [(inst.task_id, inst.footprint) for inst in region.instances]
    footprint = dict(fps)
    ids = [tid for tid, _ in fps]
    machine = MachineModel()
    if preset == "dram_pm":
        hm = optane_hm_config()

        def make():
            return BreakdownKernel(machine, hm, fps)

        def reference(fp, fractions):
            return scalar.breakdown_2tier(machine, fp, hm, fractions)
    else:
        topo = topology_preset(preset)

        def make():
            return TieredBreakdownKernel(machine, topo, fps)

        def reference(fp, fractions):
            return scalar.breakdown_tiered(machine, fp, topo, fractions)

    runs: Counter = Counter()
    price_fields = TieredBreakdownKernel._price_fields

    def counted(self, f_obj):
        runs[self] += 1
        return price_fields(self, f_obj)

    monkeypatch.setattr(TieredBreakdownKernel, "_price_fields", counted)
    kernel = make()
    # two instances not yet released, then all (a hit builds the rows the
    # first call did not ask for), then one and two have finished
    asks = [ids[2:], ids, ids[1:], ids[2:]]
    placements = _memo_placements(preset, region, wl)
    for n, (fractions, task_ids) in enumerate(zip(placements, asks)):
        got = kernel.breakdown_batch(task_ids, fractions)
        fresh = make().breakdown_batch(task_ids, fractions)
        assert len(got) == len(task_ids)
        for tid, bd, bd_fresh in zip(task_ids, got, fresh):
            ref = _bd_fingerprint(reference(footprint[tid], fractions))
            assert _bd_fingerprint(bd) == _bd_fingerprint(bd_fresh) == ref, (n, tid)
    assert runs[kernel] == 3


def _tiered_engine_fingerprint(system, preset: str, policy_name: str) -> tuple:
    from repro.core.model import PerformanceModel
    from repro.policies import PolicyBuildContext, build_policy
    from repro.sim.memspec import topology_preset

    topo = topology_preset(preset)
    app = SpGEMMApp.paper_scale(seed=0)
    wl = app.build_workload(seed=0)
    ctx = PolicyBuildContext(
        machine=system.machine,
        topology=topo,
        model=PerformanceModel(system.correlation),
        seed=1,
    )
    res = Engine(system.machine, topology=topo).run(
        wl, build_policy(policy_name, ctx), seed=1
    )
    return (
        _bits(res.total_time_s),
        res.pages_migrated,
        res.trace_time.tobytes(),
        res.trace_dram_bw.tobytes(),
        res.trace_pm_bw.tobytes(),
        res.trace_migration_bw.tobytes(),
    )


@pytest.mark.parametrize("preset", ["hbm_dram_pm", "hbm_dram_cxl_pm"])
@pytest.mark.parametrize("policy_name", ["merchandiser", "interval"])
def test_tiered_engine_run_bit_identical(system, preset, policy_name):
    """The tiered tick loop must not care whether the kernel or the
    per-instance reference prices it."""
    with scalar_reference():
        ref = _tiered_engine_fingerprint(system, preset, policy_name)
    vec = _tiered_engine_fingerprint(system, preset, policy_name)
    assert ref == vec


# ---------------------------------------------------------------------------
# guard: the reference side really runs the references
# ---------------------------------------------------------------------------

#: production kernels and planner bodies, (owner, attribute)
_PRODUCTION = (
    (repro.sim.kernels.BreakdownKernel, "__init__"),
    (repro.sim.kernels.TieredBreakdownKernel, "__init__"),
    (repro.ml.kernels, "tree_apply"),
    (repro.ml.kernels, "forest_predict"),
    (repro.ml.kernels, "forest_predict_grid"),
    (planner_module, "_greedy_plan_kernel"),
    (planner_module, "_optimal_quotas_kernel"),
    (planner_module, "_throughput_plan_kernel"),
)


def _counted(calls: Counter, key: str, fn):
    def wrapper(*args, **kwargs):
        calls[key] += 1
        return fn(*args, **kwargs)

    return wrapper


def _count_production(monkeypatch, calls: Counter) -> None:
    """Count calls to every production kernel, wherever it is bound."""
    for owner, attr in _PRODUCTION:
        key = f"{getattr(owner, '__name__', owner)}.{attr}"
        fn = getattr(owner, attr)
        if isinstance(owner, type):
            monkeypatch.setattr(owner, attr, _counted(calls, key, fn))
            continue
        for mod, name in scalar.bindings(fn):
            monkeypatch.setattr(mod, name, _counted(calls, key, fn))


def test_scalar_reference_leaves_production_idle(system, monkeypatch):
    """A missed patch site would compare production with itself: inside
    ``scalar_reference()`` no production kernel may run, and every
    reference must."""
    from repro.runtime.planning import critical_path_plan
    from repro.sim.memspec import topology_preset

    tasks, task_bytes = _random_tasks(system, 6, seed=41)
    model = system.performance_model
    cap = int(sum(task_bytes.values()) * 0.3)
    deps = {"t2": ("t0",), "t3": ("t1", "t2")}

    production: Counter = Counter()
    _count_production(monkeypatch, production)
    oracles: Counter = Counter()
    for name in scalar.__all__:
        if name != "scalar_reference":
            monkeypatch.setattr(
                scalar, name, _counted(oracles, name, getattr(scalar, name))
            )

    with scalar_reference():
        _engine_run_fingerprint(system, seed=0)
        _tiered_engine_fingerprint(system, "hbm_dram_pm", "merchandiser")
        for name in ("greedy_plan", "optimal_quotas", "throughput_plan"):
            getattr(planner_module, name)(tasks, model, cap, task_bytes)
        footprints = {
            t.task_id: [(f"{t.task_id}.obj", 1.0, -(-task_bytes[t.task_id] // PAGE_SIZE))]
            for t in tasks
        }
        critical_path_plan(tasks, model, cap, task_bytes, deps, footprints)
    assert not production, dict(production)
    idle = [n for n in scalar.__all__ if n != "scalar_reference" and not oracles[n]]
    assert not idle, f"references never called: {idle}"

    # control: the same counters do see the production path
    for name in ("greedy_plan", "optimal_quotas", "throughput_plan"):
        getattr(planner_module, name)(tasks, model, cap, task_bytes)
    tree = system.correlation.model.trees_[0]
    tree.predict(np.zeros((2, tree.n_features_)))
    system.correlation.model.predict(np.zeros((2, tree.n_features_)))
    fps = [("t0", generate_corpus(1, seed=5)[0].footprint(1.0))]
    repro.sim.kernels.BreakdownKernel(system.machine, system.hm, fps)
    repro.sim.kernels.TieredBreakdownKernel(
        system.machine, topology_preset("hbm_dram_pm"), fps
    )
    assert len(production) == len(_PRODUCTION), dict(production)
