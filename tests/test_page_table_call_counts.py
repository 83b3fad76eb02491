"""Page-table aggregates are computed once per hook, not once per query.

The quota gate used to recompute the fractions for every hot object x
accessing task, and ``apply_batch`` re-summed residency before every
promotion; this guard bounds both by the number of hooks instead.

The table keeps integer per-tier page counts and one cached fraction per
object behind one write body, on the 2-tier front end (a DRAM dot per
object) and on N tiers (a fraction vector per object) alike: capacity
queries read the counts, and a fraction is recomputed only after its
object was moved or the table reset.  The other guards make every page
array unreadable while those capacity queries run and bound fraction
recomputations by the objects actually moved.

Zipf page weights are drawn once per generator state: a rerun of a
workload from the same seed draws none, and the draw memo never holds
more pages than its budget.

The tick kernel prices a region again only when the clipped fraction
matrix it is handed changed: a run that never moves a page prices each
region once, start refreshes included, and nothing on the engine's region
path prices through the machine model's own kernels.  Only the engine's
region kernels are counted: policies price endpoints and PMC reads
through ``MachineModel.breakdowns``, which builds kernels of its own.
"""

import dataclasses
from collections import OrderedDict

import numpy as np
import pytest

from repro.apps import SpGEMMApp
from repro.baselines import PMOnlyPolicy
from repro.core import default_system
from repro.core.model import PerformanceModel
from repro.policies import PolicyBuildContext, build_policy
from repro.sim import Engine, MachineModel, optane_hm_config
from repro.sim import pages
from repro.sim.kernels import BreakdownKernel, TieredBreakdownKernel
from repro.sim.memspec import topology_preset
from repro.sim.pages import PageTable, TieredPagedObject, TieredPageTable


def _counting(monkeypatch, cls, name: str) -> dict:
    counter = {"calls": 0}
    original = getattr(cls, name)

    def wrapped(self, *args, **kwargs):
        counter["calls"] += 1
        return original(self, *args, **kwargs)

    monkeypatch.setattr(cls, name, wrapped)
    return counter


@pytest.fixture(scope="module")
def system():
    return default_system(seed=0, fast=True)


def test_aggregates_bounded_by_hooks(monkeypatch, system):
    app = SpGEMMApp.small(seed=0)
    wl = app.build_workload(seed=0)
    policy = system.policy(app.binding(wl), seed=3)
    fractions = _counting(monkeypatch, PageTable, "access_fractions")
    used = _counting(monkeypatch, PageTable, "dram_used_bytes")
    batches = _counting(monkeypatch, PageTable, "apply_batch")
    on_tick = _counting(monkeypatch, type(policy), "on_tick")

    res = Engine(MachineModel(), optane_hm_config()).run(wl, policy, seed=1)

    ticks = len(res.trace_time)
    assert res.pages_migrated > 0 and policy.plans
    assert on_tick["calls"] > 0 and batches["calls"] > 0
    assert fractions["calls"] <= ticks + on_tick["calls"]
    assert used["calls"] <= batches["calls"] + on_tick["calls"]


class _Unreadable:
    """Stands in for a page array; any use of it fails the test."""

    def _fail(self, *args, **kwargs):
        raise AssertionError("a capacity query read per-page state")

    __getattr__ = __getitem__ = __array__ = __iter__ = __len__ = _fail
    __eq__ = __ne__ = __lt__ = __le__ = __gt__ = __ge__ = _fail
    __hash__ = None


def _blind(monkeypatch, cls, name: str) -> dict:
    """Patch ``cls.name`` to run with every per-page array of the table and
    its objects replaced by :class:`_Unreadable`; counts the calls."""
    counter = {"calls": 0}
    original = getattr(cls, name)

    def blind(self, *args):
        hidden = [
            (holder, attr, value)
            for holder in (self, *self)
            for attr, value in (
                vars(holder).items()
                if hasattr(holder, "__dict__")
                else ((a, getattr(holder, a)) for a in type(holder).__slots__)
            )
            if isinstance(value, np.ndarray)
        ]
        for holder, attr, _ in hidden:
            setattr(holder, attr, _Unreadable())
        try:
            counter["calls"] += 1
            return original(self, *args)
        finally:
            for holder, attr, value in hidden:
                setattr(holder, attr, value)

    monkeypatch.setattr(cls, name, blind)
    return counter


def test_dram_queries_never_rescan_pages(monkeypatch, system):
    app = SpGEMMApp.small(seed=0)
    wl = app.build_workload(seed=0)
    policy = system.policy(app.binding(wl), seed=3)
    recomputes = _counting(monkeypatch, PageTable, "_fraction")
    seen = {"dropped": 0, "moved_objects": 0}

    write = TieredPageTable._apply

    def counted_write(self, batch):
        before = self.tier_arena.copy()
        moved = write(self, batch)
        changed = before != self.tier_arena
        seen["moved_objects"] += sum(
            bool(changed[self.object_slice(name)].any()) for name in self.names
        )
        return moved

    reset = TieredPageTable.place_all

    def counted_reset(self, tier):
        seen["dropped"] += len(self)
        return reset(self, tier)

    monkeypatch.setattr(TieredPageTable, "_apply", counted_write)
    monkeypatch.setattr(TieredPageTable, "place_all", counted_reset)
    used = _blind(monkeypatch, PageTable, "dram_used_bytes")
    free = _blind(monkeypatch, PageTable, "dram_free_pages")

    res = Engine(MachineModel(), optane_hm_config()).run(wl, policy, seed=1)

    assert res.pages_migrated > 0 and seen["moved_objects"] > 0
    assert used["calls"] > 0 and free["calls"] > 0
    bound = len(wl.objects) + seen["dropped"] + seen["moved_objects"]
    assert 0 < recomputes["calls"] <= bound


def test_tiered_queries_never_rescan_pages(monkeypatch, system):
    app = SpGEMMApp.small(seed=0)
    wl = app.build_workload(seed=0)
    topo = topology_preset("hbm_dram_cxl_pm")
    assert topo.n_tiers == 4
    policy = build_policy(
        "interval",
        PolicyBuildContext(
            machine=MachineModel(),
            topology=topo,
            model=PerformanceModel(system.correlation),
            seed=3,
        ),
    )
    recomputes = _counting(monkeypatch, TieredPagedObject, "tier_access_fractions")
    seen = {"objects": 0, "moved_objects": 0}

    apply_batch = TieredPageTable.apply_batch

    def counted_apply(self, batch):
        before = self.tier_arena.copy()
        moved = apply_batch(self, batch)
        changed = before != self.tier_arena
        seen["objects"] = len(self)
        seen["moved_objects"] += sum(
            bool(changed[self.object_slice(name)].any()) for name in self.names
        )
        return moved

    monkeypatch.setattr(TieredPageTable, "apply_batch", counted_apply)
    # the capacity body behind tier_free_pages and every write's clamp
    free = _blind(monkeypatch, TieredPageTable, "_free")

    res = Engine(MachineModel(), topology=topo).run(wl, policy, seed=1)

    assert res.pages_migrated > 0 and seen["moved_objects"] > 0
    assert free["calls"] > 0
    assert 0 < recomputes["calls"] <= seen["objects"] + seen["moved_objects"]


def test_repeat_runs_never_redraw_weights(monkeypatch, system):
    monkeypatch.setattr(pages, "_weight_memo", OrderedDict())
    monkeypatch.setattr(pages, "_weight_memo_pages", 0)
    app = SpGEMMApp.small(seed=0)
    wl = app.build_workload(seed=0)
    assert any(spec.hotness == "zipf" for spec in wl.objects)

    def run():
        policy = system.policy(app.binding(wl), seed=3)
        return Engine(MachineModel(), optane_hm_config()).run(wl, policy, seed=1)

    first = run()
    draws = _counting(monkeypatch, pages, "zipf_weights")
    second = run()

    assert draws["calls"] == 0
    for f in dataclasses.fields(first):
        a, b = getattr(first, f.name), getattr(second, f.name)
        if isinstance(a, np.ndarray):
            assert a.tobytes() == b.tobytes(), f.name
        else:
            assert a == b, f.name


def test_weight_memo_stays_within_budget(monkeypatch):
    monkeypatch.setattr(pages, "_weight_memo", OrderedDict())
    monkeypatch.setattr(pages, "_weight_memo_pages", 0)
    wl = SpGEMMApp.small(seed=0).build_workload(seed=0)
    per_table = sum(s.n_pages for s in wl.objects if s.hotness == "zipf")
    budget = 5 * per_table // 2
    monkeypatch.setattr(pages, "WEIGHT_MEMO_PAGES", budget)
    for seed in range(8):
        PageTable(wl.objects, 0, rng=seed)
        held = sum(len(w) for w, _ in pages._weight_memo.values())
        assert held == pages._weight_memo_pages <= budget
    assert held > per_table


def _count_pricing(monkeypatch) -> dict:
    """Count the engine's region-kernel calls and pricing-body runs, and
    record per region kernel the clipped fraction matrices it was handed,
    in order.  Kernels built outside ``Engine._region_kernel`` are not
    counted."""
    seen = {"calls": 0, "runs": 0, "keys": {}}
    region_kernel = Engine._region_kernel
    batch = BreakdownKernel.breakdown_batch
    price = TieredBreakdownKernel._price
    price_fields = TieredBreakdownKernel._price_fields

    def recorded_kernel(self, ctx):
        kernel, placement = region_kernel(self, ctx)
        seen["keys"][kernel] = []
        return kernel, placement

    def counted_batch(self, task_ids, fractions):
        seen["calls"] += self in seen["keys"]
        return batch(self, task_ids, fractions)

    def recorded_price(self, task_ids, f_obj):
        if self in seen["keys"]:
            seen["keys"][self].append(f_obj.tobytes())
        return price(self, task_ids, f_obj)

    def counted_fields(self, f_obj):
        seen["runs"] += self in seen["keys"]
        return price_fields(self, f_obj)

    monkeypatch.setattr(Engine, "_region_kernel", recorded_kernel)
    monkeypatch.setattr(BreakdownKernel, "breakdown_batch", counted_batch)
    monkeypatch.setattr(TieredBreakdownKernel, "_price", recorded_price)
    monkeypatch.setattr(TieredBreakdownKernel, "_price_fields", counted_fields)
    return seen


def test_unmoved_regions_price_once(monkeypatch):
    app = SpGEMMApp.small(seed=0)
    wl = app.build_workload(seed=0)
    seen = _count_pricing(monkeypatch)
    machine = _counting(monkeypatch, MachineModel, "breakdowns")

    res = Engine(MachineModel(), optane_hm_config()).run(wl, PMOnlyPolicy(), seed=1)

    regions = len(wl.regions)
    # two start refreshes per region, then one call per tick
    assert seen["calls"] == len(res.trace_time) + 2 * regions
    assert seen["runs"] == regions
    assert machine["calls"] == 0


def test_ticks_price_once_per_placement(monkeypatch, system):
    app = SpGEMMApp.small(seed=0)
    wl = app.build_workload(seed=0)
    policy = system.policy(app.binding(wl), seed=3)
    seen = _count_pricing(monkeypatch)

    res = Engine(MachineModel(), optane_hm_config()).run(wl, policy, seed=1)

    placements = sum(
        1 + sum(a != b for a, b in zip(keys, keys[1:]))
        for keys in seen["keys"].values()
    )
    assert res.pages_migrated > 0 and len(seen["keys"]) == len(wl.regions)
    assert seen["runs"] <= placements < seen["calls"]
