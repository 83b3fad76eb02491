"""The one engine tick loop on 3- and 4-tier topologies, under faults.

The golden values below were recorded when 2-tier and N-tier regions still
ran in separate loops; the merged loop must reproduce them exactly.  The
runs cover every environment fault the loop routes to a tier: bandwidth
degradation on the slowest tier, capacity pressure (and its evictions) on
the fastest, and partially failed migration batches.
"""

import pytest

from repro.core import default_system
from repro.core.journal import SimulatedCrash
from repro.core.model import PerformanceModel
from repro.core.telemetry import Telemetry
from repro.policies import registered_policies
from repro.sim import Engine, EngineConfig, MachineModel, PlacementPolicy
from repro.sim.faults import FaultConfig, FaultInjector
from repro.sim.pages import MigrationBatch
from tests.policy_conformance import build, chaos_faults, small_topology, toy_workload

#: (policy, tiers) -> (repr(total_time_s), pages_migrated, pages evicted by
#: pressure, fault counters, repr of the sums of trace_time, trace_dram_bw,
#: trace_pm_bw and trace_migration_bw)
GOLDEN = {
    ("merchandiser", 3): (
        "0.5376161935183733", 6956, 512,
        {"fault.dram_pressure": 2, "fault.migration_partial": 1, "fault.pm_bw_degraded": 2},
        ("31.36112614260102", "12071832022.47738", "32431304341.832863", "5410075530.146476"),
    ),
    ("static", 3): (
        "0.5880318057142847", 0, 0,
        {"fault.dram_pressure": 2, "fault.pm_bw_degraded": 3},
        ("34.98789243999993", "0.0", "31345243268.95981", "0.0"),
    ),
    ("ltr", 3): (
        "0.5359282060519878", 6656, 512,
        {"fault.dram_pressure": 2, "fault.migration_partial": 1, "fault.pm_bw_degraded": 3},
        ("31.273752691594424", "11864526013.745", "32161231462.49305", "5135604657.186375"),
    ),
    ("interval", 3): (
        "0.5627998788688028", 2389, 0,
        {"fault.dram_pressure": 2, "fault.migration_partial": 1, "fault.pm_bw_degraded": 2},
        ("33.418396166065165", "4586810397.511844", "31420628504.671886", "2018881026.5421166"),
    ),
    ("merchandiser", 4): (
        "0.5405587236040089", 10241, 512,
        {"fault.dram_pressure": 2, "fault.migration_partial": 1, "fault.pm_bw_degraded": 2},
        ("31.854647806153327", "14190732739.661346", "34081699587.28969", "7754028348.058132"),
    ),
    ("static", 4): (
        "0.6217818057142859", 0, 0,
        {"fault.dram_pressure": 3, "fault.pm_bw_degraded": 3},
        ("36.996017439999974", "0.0", "29643839415.38114", "0.0"),
    ),
    ("ltr", 4): (
        "0.5445225214806992", 9728, 512,
        {"fault.dram_pressure": 2, "fault.migration_partial": 1, "fault.pm_bw_degraded": 3},
        ("31.533278085929094", "13733239566.168196", "33446296434.708218", "7285269974.724068"),
    ),
    ("interval", 4): (
        "0.5855291641591184", 3908, 0,
        {"fault.dram_pressure": 2, "fault.migration_partial": 1, "fault.pm_bw_degraded": 3},
        ("34.670389692868284", "5594547138.63266", "31151157777.166862", "3146033936.0653243"),
    ),
}


def golden_run(spec, n: int) -> tuple:
    """One faulted run of a registered policy on the ``n``-tier toy machine,
    in the form :data:`GOLDEN` pins."""
    model = PerformanceModel(default_system(seed=0, fast=True).correlation)
    topo = small_topology(n)
    tel = Telemetry()
    engine = Engine(MachineModel(), topology=topo, faults=chaos_faults(), telemetry=tel)
    res = engine.run(toy_workload(), build(spec, topo, model), seed=3)
    evicted = tel.registry.get("merch_engine_pages_migrated_total").value(
        cause="pressure"
    )
    return (
        repr(res.total_time_s),
        res.pages_migrated,
        int(evicted),
        dict(res.robustness.counters),
        tuple(
            repr(float(a.sum()))
            for a in (
                res.trace_time,
                res.trace_dram_bw,
                res.trace_pm_bw,
                res.trace_migration_bw,
            )
        ),
    )


@pytest.fixture(scope="module")
def golden_runs():
    return {
        (spec.name, n): golden_run(spec, n)
        for n in (3, 4)
        for spec in registered_policies(n)
    }


def test_every_tiered_policy_has_a_golden_run(golden_runs):
    assert set(golden_runs) == set(GOLDEN)


@pytest.mark.parametrize(
    "key", sorted(GOLDEN), ids=[f"{name}-{n}tier" for name, n in sorted(GOLDEN)]
)
def test_faulted_run_matches_golden(golden_runs, key):
    assert golden_runs[key] == GOLDEN[key]


def test_golden_runs_evict_under_pressure_and_degrade_bandwidth(golden_runs):
    assert any(evicted > 0 for _, _, evicted, _, _ in golden_runs.values())
    assert all(
        counters.get("fault.pm_bw_degraded", 0) > 0
        for _, _, _, counters, _ in golden_runs.values()
    )


class _PromoteHottest(PlacementPolicy):
    """Asks for the hottest non-tier-0 pages of every object each tick."""

    name = "promote-hottest"

    def on_tick(self, ctx, dt):
        self.budget = budget = ctx.migration_budget_pages
        return MigrationBatch(
            moves=tuple(
                (obj.name, obj.hottest_pages_slower_than(0, limit=budget), 0)
                for obj in ctx.page_table
            )
        )


@pytest.mark.parametrize("n_tiers", [3, 4])
@pytest.mark.parametrize("point", ["tick", "mid_batch"])
def test_crash_points_fire_on_tiered_runs(point, n_tiers):
    topo = small_topology(n_tiers)
    faults = FaultInjector(FaultConfig(crash_at=3, crash_point=point), seed=7)
    engine = Engine(MachineModel(), topology=topo, faults=faults)
    with pytest.raises(SimulatedCrash) as info:
        engine.run(toy_workload(), _PromoteHottest(), seed=3)
    (kill,) = [e for e in faults.log.events if e.kind == "fault.crash_kill"]
    assert kill.detail["point"] == point
    assert kill.detail["occurrence"] == 3
    image = info.value.image
    assert image.journal is None
    assert image.page_table.n_tiers == n_tiers
    assert image.time_s == kill.time_s > 0.0
    with pytest.raises(ValueError):
        engine.recover(toy_workload(), _PromoteHottest(), image)


def test_mid_batch_crash_applies_half_the_batch():
    topo = small_topology(3)
    faults = FaultInjector(FaultConfig(crash_at=1, crash_point="mid_batch"), seed=7)
    policy = _PromoteHottest()
    # a small migration budget, so half a batch fits in tier 0
    config = EngineConfig(migration_bandwidth_fraction=0.01)
    with pytest.raises(SimulatedCrash) as info:
        Engine(MachineModel(), topology=topo, config=config, faults=faults).run(
            toy_workload(), policy, seed=3
        )
    # every page starts on the slowest tier; the first batch is clamped to
    # the per-tick budget and the kill lets half of it reach tier 0
    budget = policy.budget
    assert 2 <= budget // 2 < topo.fastest.n_pages
    assert info.value.image.page_table.tier_used_pages(0) == budget // 2
