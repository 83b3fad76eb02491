"""One memory description: :class:`HMConfig` is the n = 2 front end of
:class:`TopologySpec`.

The paper's 2-tier machine built either way -- ``optane_hm_config()`` or
the ``dram_pm`` preset -- must price, plan and run identically, and
``collect_pmcs`` reads the slowest tier of any topology.
"""

import dataclasses

import numpy as np
import pytest

from repro.apps import SpGEMMApp
from repro.apps.codesamples import generate_corpus
from repro.common import make_rng
from repro.core import default_system
from repro.sim import Engine, MachineModel
from repro.sim.counters import collect_pmcs
from repro.sim.memspec import (
    HMConfig,
    TopologyError,
    TopologySpec,
    dram_tier,
    optane_hm_config,
    pm_tier,
    topology_preset,
)


def _bits(x: float) -> bytes:
    return np.float64(x).tobytes()


def test_hm_config_is_a_topology():
    hm = optane_hm_config()
    preset = topology_preset("dram_pm")
    assert isinstance(hm, TopologySpec)
    assert hm.n_tiers == 2
    assert (hm.dram, hm.pm) == hm.tiers == preset.tiers
    assert (hm.fastest, hm.slowest) == (hm.dram, hm.pm)
    assert hm.page_migration_overhead_s == preset.page_migration_overhead_s


def test_hm_config_prices_like_the_preset():
    machine = MachineModel()
    hm, preset = optane_hm_config(), topology_preset("dram_pm")
    fps = [s.footprint(1.0) for s in generate_corpus(8, seed=4)]
    ends_hm = machine.tier_endpoints(fps, hm)
    ends_preset = machine.tier_endpoints(fps, preset)
    assert [[_bits(t) for t in e] for e in ends_hm] == [
        [_bits(t) for t in e] for e in ends_preset
    ]
    ratios = [0.0, 0.3, 0.75, 1.0]
    rows_hm = machine.breakdowns(fps, hm, ratios)
    for a, b in zip(rows_hm, machine.breakdowns(fps, preset, ratios)):
        assert [_bits(bd.total_s) for bd in a] == [_bits(bd.total_s) for bd in b]
        assert [bd.tier_s for bd in a] == [bd.tier_s for bd in b]


def test_merchandiser_runs_alike_on_both_descriptions():
    system = default_system(seed=0, fast=True)
    app = SpGEMMApp.small(seed=0)
    wl = app.build_workload(seed=0)
    runs = []
    for engine in (
        Engine(system.machine, optane_hm_config()),
        Engine(system.machine, topology=topology_preset("dram_pm")),
    ):
        policy = system.policy(app.binding(wl), seed=5)
        res = engine.run(wl, policy, seed=1)
        runs.append((res, policy.plans))
    (a, plans_a), (b, plans_b) = runs
    assert plans_a, "the run planned no region"
    assert _bits(a.total_time_s) == _bits(b.total_time_s)
    assert a.pages_migrated == b.pages_migrated
    assert plans_a == plans_b


def test_engine_holds_one_topology():
    hm = optane_hm_config()
    assert Engine(MachineModel(), hm).topology is hm
    preset = topology_preset("hbm_dram_cxl_pm")
    assert Engine(MachineModel(), topology=preset).topology is preset
    assert Engine().topology == optane_hm_config()
    with pytest.raises(ValueError, match="not both"):
        Engine(MachineModel(), hm, topology=preset)


def test_collect_pmcs_prices_the_slowest_tier():
    machine = MachineModel()
    topo = topology_preset("hbm_dram_cxl_pm")
    fps = [s.footprint(1.0) for s in generate_corpus(4, seed=9)]
    for fp, ends in zip(fps, machine.tier_endpoints(fps, topo)):
        priced = collect_pmcs(fp, machine, topo, rng=make_rng(3))
        given = collect_pmcs(fp, machine, topo, rng=make_rng(3), t_pm_only=ends[-1])
        assert priced == given


def test_hm_config_keeps_the_ordering_rules():
    with pytest.raises(TopologyError):
        HMConfig(dram=pm_tier(), pm=dram_tier())
    with pytest.raises(TopologyError):
        HMConfig(dram=dram_tier(), pm=pm_tier(), page_migration_overhead_s=-1.0)
    # a PM tier slower on random latency but with more read bandwidth
    fast_pm = dataclasses.replace(
        pm_tier(), read_bandwidth=2 * dram_tier().read_bandwidth
    )
    with pytest.raises(TopologyError):
        HMConfig(dram=dram_tier(), pm=fast_pm)
