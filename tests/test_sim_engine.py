"""Tests for the virtual-time execution engine."""

import numpy as np
import pytest

from repro.common import PAGE_SIZE, AccessPattern
from repro.sim import Engine, EngineConfig, MachineModel, PlacementPolicy, optane_hm_config
from repro.sim.engine import _clamp_batch
from repro.sim.pages import MigrationBatch, PageTable, TieredPageTable
from repro.tasks import DataObject, Footprint, MPIProgram, ObjectAccess

HM = optane_hm_config()


def toy_workload(n_tasks=3, regions=2, skew=1.0):
    prog = MPIProgram("toy", n_tasks)
    fps = []
    for i in range(n_tasks):
        prog.declare_object(
            DataObject(f"obj{i}", 16 * (1 << 20), owner=prog.task_id(i))
        )
        reads = int(200_000 * (1 + skew * i))
        fps.append(
            Footprint(
                accesses=(ObjectAccess(f"obj{i}", AccessPattern.RANDOM, reads=reads),),
                instructions=1_000_000,
            )
        )
    for r in range(regions):
        prog.parallel_region(f"iter{r}", fps, kind="iter")
    return prog.build()


class TestBasicRun:
    def test_total_time_positive(self):
        res = Engine(hm=HM).run(toy_workload(), PlacementPolicy(), seed=0)
        assert res.total_time_s > 0

    def test_region_count(self):
        res = Engine(hm=HM).run(toy_workload(regions=3), PlacementPolicy(), seed=0)
        assert len(res.regions) == 3

    def test_deterministic(self):
        wl = toy_workload()
        a = Engine(hm=HM).run(wl, PlacementPolicy(), seed=5)
        b = Engine(hm=HM).run(wl, PlacementPolicy(), seed=5)
        assert a.total_time_s == b.total_time_s

    def test_total_is_sum_of_region_durations(self):
        res = Engine(hm=HM).run(toy_workload(), PlacementPolicy(), seed=0)
        total = sum(r.duration_s for r in res.regions)
        assert res.total_time_s == pytest.approx(total, rel=1e-6)


class TestBarrierSemantics:
    def test_busy_plus_wait_equals_region(self):
        res = Engine(hm=HM).run(toy_workload(), PlacementPolicy(), seed=0)
        for region in res.regions:
            for task in region.busy_s:
                assert region.busy_s[task] + region.wait_s[task] == pytest.approx(
                    region.duration_s, rel=1e-9
                )

    def test_slowest_task_never_waits(self):
        res = Engine(hm=HM).run(toy_workload(skew=2.0), PlacementPolicy(), seed=0)
        for region in res.regions:
            slowest = max(region.busy_s, key=region.busy_s.__getitem__)
            assert region.wait_s[slowest] == pytest.approx(0.0, abs=1e-9)

    def test_skewed_tasks_wait(self):
        res = Engine(hm=HM).run(toy_workload(skew=3.0), PlacementPolicy(), seed=0)
        waits = res.task_wait_times()
        assert waits["rank0"] > 0  # the light task idles at the barrier

    def test_busy_reflects_skew(self):
        res = Engine(hm=HM).run(toy_workload(skew=3.0), PlacementPolicy(), seed=0)
        busy = res.task_busy_times()
        assert busy["rank2"] > busy["rank0"]


class TestBandwidthAccounting:
    def test_trace_recorded(self):
        res = Engine(hm=HM).run(toy_workload(), PlacementPolicy(), seed=0)
        assert len(res.trace_time) > 0
        assert len(res.trace_time) == len(res.trace_pm_bw)

    def test_pm_bandwidth_capped(self):
        res = Engine(hm=HM).run(toy_workload(n_tasks=6, skew=0.1), PlacementPolicy(), seed=0)
        # instance traffic respects the tier cap; migration adds on top but
        # is itself bounded by the migration fraction
        cap = HM.pm.read_bandwidth * 1.3
        assert res.trace_pm_bw.max() <= cap * 1.05

    def test_all_pm_when_unplaced(self):
        res = Engine(hm=HM).run(toy_workload(), PlacementPolicy(), seed=0)
        assert res.mean_dram_bandwidth() == pytest.approx(0.0)
        assert res.mean_pm_bandwidth() > 0

    def test_bandwidth_disabled(self):
        cfg = EngineConfig(record_bandwidth=False)
        res = Engine(hm=HM, config=cfg).run(toy_workload(), PlacementPolicy(), seed=0)
        assert len(res.trace_time) == 0


class _PromoteAll(PlacementPolicy):
    name = "promote-all"

    def on_tick(self, ctx, dt):
        moves = []
        for obj in ctx.page_table:
            idx = obj.hottest_pages_slower_than(0, limit=ctx.migration_budget_pages)
            if len(idx):
                moves.append((obj.name, idx, 0))
                break
        return MigrationBatch(moves=tuple(moves)) if moves else None


class _InstantDram(PlacementPolicy):
    name = "instant-dram"

    def on_workload_start(self, ctx):
        ctx.page_table.place_all(0)


class TestMigration:
    def test_migration_throttled_by_budget(self):
        eng = Engine(hm=HM, config=EngineConfig(migration_bandwidth_fraction=0.01))
        res = eng.run(toy_workload(), _PromoteAll(), seed=0)
        slow = res.pages_migrated
        eng2 = Engine(hm=HM, config=EngineConfig(migration_bandwidth_fraction=0.5))
        res2 = eng2.run(toy_workload(), _PromoteAll(), seed=0)
        assert res2.pages_migrated >= slow

    def test_migration_counted(self):
        res = Engine(hm=HM).run(toy_workload(), _PromoteAll(), seed=0)
        assert res.pages_migrated > 0
        assert res.trace_migration_bw.max() > 0

    def test_dram_placement_speeds_up(self):
        wl = toy_workload()
        t_pm = Engine(hm=HM).run(wl, PlacementPolicy(), seed=0).total_time_s
        t_dram = Engine(hm=HM).run(wl, _InstantDram(), seed=0).total_time_s
        assert t_dram < t_pm

    def test_capacity_never_exceeded(self):
        class Check(_PromoteAll):
            max_used = 0.0

            def on_tick(self, ctx, dt):
                Check.max_used = max(Check.max_used, ctx.page_table.dram_used_bytes())
                return super().on_tick(ctx, dt)

        Engine(hm=HM).run(toy_workload(), Check(), seed=0)
        assert Check.max_used <= HM.dram.capacity_bytes + PAGE_SIZE


class TestPolicyHooks:
    def test_hook_order_and_counts(self):
        calls = []

        class Spy(PlacementPolicy):
            def on_workload_start(self, ctx):
                calls.append("workload")

            def on_region_start(self, ctx):
                calls.append(f"start:{ctx.region.name}")

            def on_region_end(self, ctx):
                calls.append(f"end:{ctx.region.name}")

        Engine(hm=HM).run(toy_workload(regions=2), Spy(), seed=0)
        assert calls == [
            "workload",
            "start:iter0",
            "end:iter0",
            "start:iter1",
            "end:iter1",
        ]

    def test_context_exposes_region_kind(self):
        seen = []

        class Spy(PlacementPolicy):
            def on_region_start(self, ctx):
                seen.append(ctx.region.kind)

        Engine(hm=HM).run(toy_workload(), Spy(), seed=0)
        assert seen == ["iter", "iter"]

    def test_page_access_rates_cover_active_objects(self):
        captured = {}

        class Spy(PlacementPolicy):
            def on_tick(self, ctx, dt):
                if not captured:
                    captured.update(ctx.page_access_rates())
                return None

        Engine(hm=HM).run(toy_workload(n_tasks=2), Spy(), seed=0)
        assert set(captured) == {"obj0", "obj1"}
        for rates in captured.values():
            assert (rates >= 0).all()
            assert rates.sum() > 0

    def test_runaway_guard(self):
        cfg = EngineConfig(max_ticks_per_region=3)
        with pytest.raises(RuntimeError):
            Engine(hm=HM, config=cfg).run(toy_workload(), PlacementPolicy(), seed=0)


def _uniform_table(n_objects=3, pages_each=8, capacity_pages=64, order=None):
    """A page table of uniform-hotness objects, optionally built in a
    shuffled insertion order (to probe dict-order sensitivity)."""
    names = [f"obj{i}" for i in range(n_objects)]
    if order is not None:
        names = [names[i] for i in order]
    objects = [DataObject(nm, pages_each * PAGE_SIZE) for nm in names]
    table = PageTable(objects, capacity_pages * PAGE_SIZE, rng=0)
    table.place_all(0)
    return table


def _victims(batch) -> list[tuple[str, tuple[int, ...]]]:
    """(object, pages) of every move of a planned eviction batch."""
    return [(name, tuple(int(i) for i in idx)) for name, idx, _ in batch.moves]


class TestPressureEviction:
    def test_zero_and_negative_pressure_are_noops(self):
        table = _uniform_table()
        assert table.plan_pressure_evictions(0) is None
        assert table.plan_pressure_evictions(-PAGE_SIZE) is None
        for obj in table:
            assert obj.pages_in(0) == obj.n_pages

    def test_pressure_within_slack_evicts_nothing(self):
        # 24 pages used of 64: stealing 24 pages still leaves room
        table = _uniform_table()
        assert table.plan_pressure_evictions(24 * PAGE_SIZE) is None

    def test_evicts_exactly_the_deficit(self):
        table = _uniform_table(n_objects=2, pages_each=8, capacity_pages=16)
        # 16 used, capacity drops to 10 -> 6 pages must go
        batch = table.plan_pressure_evictions(6 * PAGE_SIZE)
        assert all(type(dst) is int and dst == 1 for _, _, dst in batch.moves)
        assert table.apply_batch(batch) == 6
        used = sum(o.pages_in(0) for o in table)
        assert used == 10

    def test_victim_order_independent_of_insertion_order(self):
        # all objects tie on their DRAM access fraction, so only the (fraction,
        # name) tie-break pins the victim choice
        plans = []
        for order in ([0, 1, 2], [2, 0, 1], [1, 2, 0]):
            table = _uniform_table(order=order)
            plans.append(_victims(table.plan_pressure_evictions(60 * PAGE_SIZE)))
        assert plans[0] == plans[1] == plans[2]
        assert plans[0] == [
            ("obj0", tuple(range(8))),
            ("obj1", tuple(range(8))),
            ("obj2", (0, 1, 2, 3)),
        ]

    def test_lower_dram_fraction_is_evicted_first(self):
        table = _uniform_table(n_objects=2)
        table.place(MigrationBatch(moves=(("obj1", np.arange(4, 8), 1),)))
        # 12 pages used, 10 left: obj1 (fraction 0.5) goes before obj0
        # (1.0), against the name order
        assert _victims(table.plan_pressure_evictions(54 * PAGE_SIZE)) == [
            ("obj1", (0, 1)),
        ]

    def test_page_order_breaks_weight_ties_by_id(self):
        table = _uniform_table(n_objects=1, pages_each=8, capacity_pages=8)
        (name, idx), = _victims(table.plan_pressure_evictions(3 * PAGE_SIZE))
        # uniform weights: coldest-first degenerates to ascending page id
        assert list(idx) == [0, 1, 2]


def _tiered_uniform_table(
    n_objects=3, pages_each=8, capacity_pages=(64, 64, 64), order=None
):
    """:func:`_uniform_table` on N tiers: every page starts on tier 0."""
    names = [f"obj{i}" for i in range(n_objects)]
    if order is not None:
        names = [names[i] for i in order]
    objects = [DataObject(nm, pages_each * PAGE_SIZE) for nm in names]
    table = TieredPageTable(objects, [c * PAGE_SIZE for c in capacity_pages], rng=0)
    table.apply_batch(
        MigrationBatch(moves=tuple((o.name, np.arange(o.n_pages), 0) for o in table))
    )
    assert table.tier_used_pages(0) == n_objects * pages_each
    return table


class TestTieredPressureEviction:
    """The N-tier planner: same victims as the 2-tier one, demoted to the
    nearest slower tier with room."""

    def test_zero_and_negative_pressure_are_noops(self):
        table = _tiered_uniform_table()
        assert table.plan_pressure_evictions(0) is None
        assert table.plan_pressure_evictions(-PAGE_SIZE) is None
        assert table.tier_used_pages(0) == 24

    def test_pressure_within_slack_evicts_nothing(self):
        table = _tiered_uniform_table()
        assert table.plan_pressure_evictions(24 * PAGE_SIZE) is None

    def test_evicts_exactly_the_deficit(self):
        table = _tiered_uniform_table(
            n_objects=2, pages_each=8, capacity_pages=(16, 64, 64)
        )
        batch = table.plan_pressure_evictions(6 * PAGE_SIZE)
        assert table.apply_batch(batch) == 6
        assert table.tier_used_pages(0) == 10
        assert table.tier_used_pages(1) == 6

    def test_victim_order_independent_of_insertion_order(self):
        plans = []
        for order in ([0, 1, 2], [2, 0, 1], [1, 2, 0]):
            table = _tiered_uniform_table(order=order)
            plans.append(_victims(table.plan_pressure_evictions(50 * PAGE_SIZE)))
        assert plans[0] == plans[1] == plans[2]
        assert plans[0] == [("obj0", tuple(range(8))), ("obj1", (0, 1))]

    def test_lower_fast_tier_fraction_is_evicted_first(self):
        table = _tiered_uniform_table(n_objects=2)
        table.apply_batch(MigrationBatch(moves=(("obj1", np.arange(4, 8), 2),)))
        assert _victims(table.plan_pressure_evictions(54 * PAGE_SIZE)) == [
            ("obj1", (0, 1)),
        ]

    def test_page_order_breaks_weight_ties_by_id(self):
        table = _tiered_uniform_table(
            n_objects=1, pages_each=8, capacity_pages=(8, 64, 64)
        )
        (name, idx), = _victims(table.plan_pressure_evictions(3 * PAGE_SIZE))
        assert list(idx) == [0, 1, 2]

    def test_demotions_fill_tier_1_before_tier_2(self):
        table = _tiered_uniform_table(
            n_objects=2, pages_each=8, capacity_pages=(16, 4, 64)
        )
        batch = table.plan_pressure_evictions(6 * PAGE_SIZE)
        assert [(name, list(idx), dst) for name, idx, dst in batch.moves] == [
            ("obj0", [0, 1, 2, 3], 1), ("obj0", [4, 5], 2),
        ]
        assert table.apply_batch(batch) == 6
        assert [table.tier_used_pages(k) for k in range(3)] == [10, 4, 2]

    def test_no_room_in_slower_tiers_plans_what_fits(self):
        # 10 pages must leave tier 0, but only tier 1's 2 free pages exist
        table = _tiered_uniform_table(
            n_objects=2, pages_each=8, capacity_pages=(16, 2, 0)
        )
        batch = table.plan_pressure_evictions(10 * PAGE_SIZE)
        assert [(name, list(idx), dst) for name, idx, dst in batch.moves] == [
            ("obj0", [0, 1], 1),
        ]


class TestClampBatch:
    def _batch(self):
        return MigrationBatch(
            moves=(
                ("a", np.arange(4), 0),
                ("b", np.arange(3), 1),
            )
        )

    def test_under_budget_returned_unchanged(self):
        batch = self._batch()
        assert _clamp_batch(batch, 10) is batch

    def test_clamps_across_moves_preserving_order(self):
        clamped = _clamp_batch(self._batch(), 5)
        assert clamped.n_pages == 5
        assert [m[0] for m in clamped.moves] == ["a", "b"]
        assert [m[2] for m in clamped.moves] == [0, 1]
        assert list(clamped.moves[1][1]) == [0]

    def test_zero_and_negative_budget_yield_empty_batch(self):
        for budget in (0, -3):
            clamped = _clamp_batch(self._batch(), budget)
            assert clamped.n_pages == 0
            assert clamped.moves == ()

    def test_empty_batch_stays_empty(self):
        empty = MigrationBatch(moves=())
        assert _clamp_batch(empty, 7).n_pages == 0

    def test_no_zero_length_moves_in_output(self):
        batch = MigrationBatch(
            moves=(
                ("a", np.arange(2), 0),
                ("b", np.arange(0), 0),
                ("c", np.arange(2), 0),
            )
        )
        clamped = _clamp_batch(batch, 3)
        assert all(len(idx) for _, idx, _ in clamped.moves)
        assert clamped.n_pages == 3
