"""Differential policy-conformance harness.

Every placement backend in the :mod:`repro.policies` registry -- the
Merchandiser incumbent, the baselines, and the learned-ranking /
interval-reconfiguration alternatives -- is run through one shared
battery of invariants:

* **no over-commit**: at every engine hook, no tier holds more pages
  than its capacity (the 2-tier DRAM budget is the degenerate case);
* **no count drift**: at every hook, the table's integer per-tier page
  counts equal a recount of its tier-index arena (the 2-tier table is the
  n = 2 front end of the same table);
* **tier-indexed moves**: every move a policy asks for names an ``int``
  destination tier the table has (a ``bool`` promote flag is caught);
* **determinism**: two runs with the same seed are identical, tick
  traces included;
* **degenerate bit-exactness**: a plain 2-tier :class:`TopologySpec`
  passed as ``topology=`` runs bit-for-bit like its :class:`HMConfig`
  front end passed as ``hm``, for every backend;
* **plan serialisation**: planner outputs survive a JSON round-trip.

Adding a policy means registering it in
:mod:`repro.policies.registry` -- this file picks it up automatically.
CI re-runs the harness under fault injection (``MERCH_CHAOS``) on every
push, which must not break any invariant either.
"""

import json
import os

import numpy as np
import pytest

from repro.common import PAGE_SIZE, AccessPattern
from repro.core import default_system
from repro.core.model import PerformanceModel
from repro.core.planner import (
    PlanResult,
    TaskQuota,
    TieredPlanResult,
    tiered_greedy_plan,
)
from repro.policies import PolicyBuildContext, build_policy, registered_policies
from repro.sim import Engine, MachineModel, optane_hm_config
from repro.sim.faults import FaultConfig, FaultInjector
from repro.sim.memspec import TierSpec, TopologySpec
from repro.tasks import DataObject, Footprint, MPIProgram, ObjectAccess

MB = 1 << 20

#: chaos mode: re-run every invariant under fault injection
CHAOS = os.environ.get("MERCH_CHAOS", "") not in ("", "0")


@pytest.fixture(scope="module")
def model():
    return PerformanceModel(default_system(seed=0, fast=True).correlation)


def small_topology(n_tiers: int) -> TopologySpec:
    """A shrunk n-tier machine whose fast tiers cannot hold the workload,
    so capacity pressure (the invariant under test) is real."""
    caps = {
        2: (16 * MB, 1024 * MB),
        3: (8 * MB, 16 * MB, 1024 * MB),
        4: (8 * MB, 12 * MB, 16 * MB, 1024 * MB),
    }[n_tiers]
    tiers = tuple(
        TierSpec(
            name=f"t{k}",
            capacity_bytes=cap,
            seq_read_latency_ns=10.0 * (k + 1),
            rand_read_latency_ns=60.0 * (k + 1),
            read_bandwidth=1e11 / (k + 1),
            write_bandwidth=5e10 / (k + 1),
        )
        for k, cap in enumerate(caps)
    )
    return TopologySpec(tiers=tiers)


def toy_workload(n_tasks=3, regions=2):
    prog = MPIProgram("conform", n_tasks)
    fps = []
    for i in range(n_tasks):
        prog.declare_object(
            DataObject(f"obj{i}", 16 * MB, owner=prog.task_id(i))
        )
        fps.append(
            Footprint(
                accesses=(
                    ObjectAccess(
                        f"obj{i}",
                        AccessPattern.RANDOM,
                        reads=200_000 * (1 + i),
                    ),
                ),
                instructions=1_000_000,
            )
        )
    for r in range(regions):
        prog.parallel_region(f"iter{r}", fps, kind="iter")
    return prog.build()


class InvariantProbe:
    """Delegating policy wrapper that checks occupancy at every hook."""

    def __init__(self, inner):
        self.inner = inner
        self.name = inner.name
        self.violations: list[tuple[float, int, float, float]] = []
        #: (time, tier, kept count, recount) where the two disagree
        self.drift: list[tuple[float, int, float, float]] = []
        #: (time, object, destination) of moves whose destination is not
        #: an int tier index of the table
        self.bad_moves: list[tuple[float, str, object]] = []

    def _check(self, ctx) -> None:
        table = ctx.page_table
        arena = table.tier_arena
        recount = np.bincount(arena[arena != table.NO_TIER], minlength=table.n_tiers)
        for k in range(table.n_tiers):
            used = table.tier_used_pages(k)
            cap = table.tier_capacity_pages[k]
            if used > cap + 1e-6:
                self.violations.append((ctx.time, k, used, float(cap)))
            if used != recount[k]:
                self.drift.append((ctx.time, k, used, int(recount[k])))

    def on_workload_start(self, ctx):
        self.inner.on_workload_start(ctx)
        self._check(ctx)

    def on_region_start(self, ctx):
        self.inner.on_region_start(ctx)
        self._check(ctx)

    def on_tick(self, ctx, dt):
        batch = self.inner.on_tick(ctx, dt)
        for name, _, dst in batch.moves if batch is not None else ():
            if type(dst) is not int or not 0 <= dst < ctx.page_table.n_tiers:
                self.bad_moves.append((ctx.time, name, dst))
        self._check(ctx)
        return batch

    def on_region_end(self, ctx):
        self.inner.on_region_end(ctx)
        self._check(ctx)

    def snapshot_state(self):
        return self.inner.snapshot_state()

    def restore_state(self, state):
        self.inner.restore_state(state)

    def on_recover(self, ctx):
        self.inner.on_recover(ctx)


def chaos_faults() -> FaultInjector:
    """The chaos-mode fault mix: failed migrations, degraded slowest-tier
    bandwidth and fastest-tier capacity pressure."""
    return FaultInjector(
        FaultConfig(
            migration_fail_rate=0.1,
            pm_bw_degradation_rate=0.2,
            dram_pressure_rate=0.2,
        ),
        seed=7,
    )


def engine_for(topo: TopologySpec) -> Engine:
    faults = chaos_faults() if CHAOS else None
    return Engine(MachineModel(), topology=topo, faults=faults)


def build(spec, topo, model, seed=3):
    ctx = PolicyBuildContext(
        machine=MachineModel(), topology=topo, model=model, seed=seed
    )
    return build_policy(spec.name, ctx)


def _cases():
    out = []
    for n in (2, 3, 4):
        for spec in registered_policies(n):
            out.append(pytest.param(spec, n, id=f"{spec.name}-{n}tier"))
    return out


@pytest.mark.parametrize("spec,n_tiers", _cases())
class TestEveryRegisteredPolicy:
    def test_no_tier_overcommitted(self, spec, n_tiers, model):
        topo = small_topology(n_tiers)
        probe = InvariantProbe(build(spec, topo, model))
        res = engine_for(topo).run(toy_workload(), probe, seed=3)
        assert res.total_time_s > 0
        assert probe.violations == []
        assert probe.drift == []
        assert probe.bad_moves == []

    def test_deterministic_per_seed(self, spec, n_tiers, model):
        topo = small_topology(n_tiers)
        wl = toy_workload()
        a = engine_for(topo).run(wl, build(spec, topo, model), seed=3)
        b = engine_for(topo).run(wl, build(spec, topo, model), seed=3)
        assert a.total_time_s == b.total_time_s
        assert a.pages_migrated == b.pages_migrated
        np.testing.assert_array_equal(a.trace_time, b.trace_time)
        np.testing.assert_array_equal(a.trace_dram_bw, b.trace_dram_bw)
        np.testing.assert_array_equal(a.trace_pm_bw, b.trace_pm_bw)
        np.testing.assert_array_equal(a.trace_migration_bw, b.trace_migration_bw)


@pytest.mark.parametrize(
    "spec", [pytest.param(s, id=s.name) for s in registered_policies(2)]
)
class TestDegenerateTwoTier:
    """``Engine(topology=2-tier)`` must equal ``Engine(hm=...)`` exactly."""

    def test_bit_exact_against_hm_path(self, spec, model):
        hm = optane_hm_config()
        topo = TopologySpec(tiers=hm.tiers)
        wl = toy_workload()
        classic = Engine(MachineModel(), hm).run(
            wl, build(spec, topo, model), seed=3
        )
        via_topo = Engine(MachineModel(), topology=topo).run(
            wl, build(spec, topo, model), seed=3
        )
        assert classic.total_time_s == via_topo.total_time_s
        assert classic.pages_migrated == via_topo.pages_migrated
        np.testing.assert_array_equal(classic.trace_time, via_topo.trace_time)
        np.testing.assert_array_equal(
            classic.trace_dram_bw, via_topo.trace_dram_bw
        )
        np.testing.assert_array_equal(
            classic.trace_pm_bw, via_topo.trace_pm_bw
        )


class TestPlanSerialisation:
    def test_two_tier_plan_roundtrip(self):
        plan = PlanResult(
            quotas=(
                TaskQuota("a", 1000.0, 0.25, 64, 1.5),
                TaskQuota("b", 500.0, 0.75, 192, 1.4),
            ),
            predicted_makespan_s=1.5,
            dram_pages_used=256,
            rounds=3,
        )
        back = PlanResult.from_jsonable(json.loads(json.dumps(plan.to_jsonable())))
        assert back == plan

    def test_tiered_plan_roundtrip_from_live_policy(self, model):
        topo = small_topology(3)
        policy = build(registered_policies()[0], topo, model)
        engine_for(topo).run(toy_workload(), policy, seed=3)
        assert policy.plans, "incumbent produced no plans"
        for plan in policy.plans:
            payload = json.loads(json.dumps(plan.to_jsonable()))
            back = TieredPlanResult.from_jsonable(payload)
            assert back == plan

    def test_tiered_plan_never_exceeds_capacity(self, model):
        topo = small_topology(4)
        policy = build(registered_policies()[0], topo, model)
        engine_for(topo).run(toy_workload(), policy, seed=3)
        caps = tuple(c // PAGE_SIZE for c in topo.capacity_vector())
        for plan in policy.plans:
            for k in range(topo.n_tiers):
                granted = sum(q.pages[k] for q in plan.quotas)
                assert granted <= caps[k] + 1e-6


class TestRegistry:
    def test_unknown_policy_raises_keyerror(self, model):
        topo = small_topology(2)
        ctx = PolicyBuildContext(
            machine=MachineModel(), topology=topo, model=model
        )
        with pytest.raises(KeyError):
            build_policy("no-such-policy", ctx)

    def test_two_tier_only_backends_rejected_on_three_tiers(self, model):
        topo = small_topology(3)
        ctx = PolicyBuildContext(
            machine=MachineModel(), topology=topo, model=model
        )
        names = {s.name for s in registered_policies(3)}
        assert "memory-mode" not in names
        with pytest.raises(ValueError):
            build_policy("memory-mode", ctx)

    def test_duplicate_registration_rejected(self):
        from repro.policies.registry import PolicySpec, register_policy

        taken = registered_policies()[0]
        with pytest.raises(ValueError):
            register_policy(
                PolicySpec(
                    name=taken.name,
                    description="dup",
                    build=taken.build,
                )
            )

    def test_every_spec_reports_supported_tier_range(self):
        for spec in registered_policies():
            assert not spec.supports(1)
            assert spec.supports(2)
