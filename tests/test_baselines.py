"""Tests for the baseline placement policies."""

import numpy as np
import pytest

from repro.common import PAGE_SIZE, AccessPattern
from repro.baselines import (
    DRAMOnlyPolicy,
    MemoryModePolicy,
    MemoryOptimizerPolicy,
    PMOnlyPolicy,
    SpartaPolicy,
    WarpXPMPolicy,
)
from repro.sim import Engine, MachineModel, optane_hm_config
from repro.tasks import DataObject, Footprint, MPIProgram, ObjectAccess

HM = optane_hm_config()


def workload(n_tasks=3, obj_mib=16, shared=False, regions=2, pattern=AccessPattern.RANDOM):
    prog = MPIProgram("wl", n_tasks)
    fps = []
    if shared:
        prog.declare_object(DataObject("shared", obj_mib << 20, hotness="zipf", zipf_s=0.5))
    for i in range(n_tasks):
        prog.declare_object(
            DataObject(f"obj{i}", obj_mib << 20, owner=prog.task_id(i))
        )
        accesses = [ObjectAccess(f"obj{i}", pattern, reads=300_000 * (i + 1))]
        if shared:
            accesses.append(ObjectAccess("shared", AccessPattern.RANDOM, reads=200_000))
        fps.append(Footprint(accesses=tuple(accesses), instructions=2_000_000))
    for r in range(regions):
        prog.parallel_region(f"r{r}", fps, kind="iter")
    return prog.build()


def run(wl, policy, seed=1):
    return Engine(MachineModel(), HM).run(wl, policy, seed=seed)


class TestStaticPolicies:
    def test_pm_only_never_uses_dram(self):
        res = run(workload(), PMOnlyPolicy())
        assert res.mean_dram_bandwidth() == 0.0

    def test_dram_only_faster(self):
        wl = workload(n_tasks=2, obj_mib=8)
        t_pm = run(wl, PMOnlyPolicy()).total_time_s
        t_dram = run(wl, DRAMOnlyPolicy()).total_time_s
        assert t_dram < t_pm

    def test_dram_only_requires_fit(self):
        wl = workload(n_tasks=4, obj_mib=256)  # 1 GiB >> 192 MiB DRAM
        with pytest.raises(ValueError):
            run(wl, DRAMOnlyPolicy())


class TestMemoryMode:
    def test_runs_and_uses_dram(self):
        res = run(workload(shared=True), MemoryModePolicy())
        assert res.mean_dram_bandwidth() > 0

    def test_no_software_migrations(self):
        res = run(workload(), MemoryModePolicy())
        assert res.pages_migrated == 0

    def test_never_beats_explicit_dram(self):
        wl = workload(n_tasks=2, obj_mib=8)
        t_mm = run(wl, MemoryModePolicy()).total_time_s
        t_dram = run(wl, DRAMOnlyPolicy()).total_time_s
        assert t_dram <= t_mm * 1.001

    def test_validation(self):
        with pytest.raises(ValueError):
            MemoryModePolicy(update_interval_s=0)


class TestMemoryOptimizer:
    def test_migrates_pages(self):
        res = run(workload(), MemoryOptimizerPolicy(seed=0))
        assert res.pages_migrated > 0

    def test_improves_over_pm_only(self):
        wl = workload(regions=4)
        t_pm = run(wl, PMOnlyPolicy()).total_time_s
        t_mo = run(wl, MemoryOptimizerPolicy(seed=0)).total_time_s
        assert t_mo < t_pm

    def test_capacity_respected(self):
        wl = workload(n_tasks=6, obj_mib=64, regions=3)

        class Checked(MemoryOptimizerPolicy):
            max_used = 0.0

            def on_tick(self, ctx, dt):
                out = super().on_tick(ctx, dt)
                Checked.max_used = max(Checked.max_used, ctx.page_table.dram_used_bytes())
                return out

        run(wl, Checked(seed=0))
        assert Checked.max_used <= HM.dram.capacity_bytes + PAGE_SIZE


class TestSparta:
    def test_stages_whole_objects_only(self):
        wl = workload(n_tasks=3, obj_mib=16, shared=True)

        class Checked(SpartaPolicy):
            fracs = {}

            def on_tick(self, ctx, dt):
                if not Checked.fracs:
                    Checked.fracs.update(ctx.page_table.access_fractions())
                return None

        run(wl, Checked())
        for name, frac in Checked.fracs.items():
            assert frac == pytest.approx(0.0) or frac == pytest.approx(1.0)

    def test_input_filter(self):
        wl = workload(n_tasks=2, obj_mib=8, shared=True)

        class Checked(SpartaPolicy):
            fracs = {}

            def on_tick(self, ctx, dt):
                if not Checked.fracs:
                    Checked.fracs.update(ctx.page_table.access_fractions())
                return None

        run(wl, Checked(input_objects=["shared"]))
        assert Checked.fracs["shared"] == pytest.approx(1.0)
        assert Checked.fracs["obj0"] == pytest.approx(0.0)

    def test_improves_over_pm(self):
        wl = workload(n_tasks=2, obj_mib=16)
        t_pm = run(wl, PMOnlyPolicy()).total_time_s
        t_sp = run(wl, SpartaPolicy()).total_time_s
        assert t_sp < t_pm


class TestWarpXPM:
    def test_fills_dram_with_oracle_balance(self):
        wl = workload(n_tasks=3, obj_mib=96)  # 288 MiB > DRAM
        used = {}

        class Checked(WarpXPMPolicy):
            def on_tick(self, ctx, dt):
                used.setdefault("bytes", ctx.page_table.dram_used_bytes())
                return None

        run(wl, Checked())
        assert used["bytes"] > 0.9 * HM.dram.capacity_bytes

    def test_beats_pm_only(self):
        wl = workload(n_tasks=3, obj_mib=32, regions=2)
        t_pm = run(wl, PMOnlyPolicy()).total_time_s
        t_wx = run(wl, WarpXPMPolicy()).total_time_s
        assert t_wx < t_pm

    def test_helps_slowest_task_most(self):
        wl = workload(n_tasks=3, obj_mib=96)
        res_pm = run(wl, PMOnlyPolicy())
        res_wx = run(wl, WarpXPMPolicy())
        slow_gain = (
            res_pm.task_busy_times()["rank2"] / res_wx.task_busy_times()["rank2"]
        )
        fast_gain = (
            res_pm.task_busy_times()["rank0"] / res_wx.task_busy_times()["rank0"]
        )
        assert slow_gain > fast_gain
