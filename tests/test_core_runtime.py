"""Tests for the Merchandiser runtime policy (end-to-end on small apps)."""

import numpy as np
import pytest

from repro.apps import SpGEMMApp
from repro.baselines import MemoryOptimizerPolicy, PMOnlyPolicy
from repro.core import default_system, lb_hm_config
from repro.core.patterns import Affine, ArrayRef, Indirect, Loop
from repro.profiling.hotpages import DAEMON_SAMPLE_PAGES
from repro.profiling.pte import PTESampleProfiler
from repro.sim import Engine, MachineModel, optane_hm_config
from repro.sim.faults import FaultConfig, FaultInjector
from repro.sim.memspec import topology_preset
from repro.sim.pages import MigrationBatch
from repro.tasks import DataObject

HM = optane_hm_config()


class _DrawLog(np.random.Generator):
    """A generator that logs each draw's method and size, then draws."""

    def __init__(self, bit_generator) -> None:
        super().__init__(bit_generator)
        self.draws: list[tuple[str, int | None]] = []

    def _log(self, method: str, size) -> None:
        self.draws.append((method, size))

    def integers(self, *args, size=None, **kwargs):
        self._log("integers", size)
        return super().integers(*args, size=size, **kwargs)

    def poisson(self, lam=1.0, size=None):
        self._log("poisson", np.size(lam) if size is None else size)
        return super().poisson(lam, size)

    def random(self, size=None, *args, **kwargs):
        self._log("random", size)
        return super().random(size, *args, **kwargs)


@pytest.fixture(scope="module")
def system():
    return default_system(seed=0, fast=True)


@pytest.fixture(scope="module")
def spgemm_setup(system):
    app = SpGEMMApp.small(seed=0)
    wl = app.build_workload(seed=0)
    binding = app.binding(wl)
    return app, wl, binding


class TestLbHmConfig:
    def test_registers_patterns(self):
        kernel = Loop(
            "i",
            (
                ArrayRef("A", Affine("i")),
                ArrayRef("B", Indirect("A", Affine("i"))),
            ),
        )
        objs = [DataObject("A", 1 << 20), DataObject("B", 1 << 20)]
        desc = lb_hm_config(objs, kernel)
        assert desc["A"].pattern.value == "stream"
        assert desc["B"].pattern.value == "random"

    def test_random_needs_refinement(self):
        kernel = Loop("i", (ArrayRef("B", Indirect("C", Affine("i"))),))
        desc = lb_hm_config([DataObject("B", 1 << 20)], kernel)
        assert desc["B"].needs_refinement

    def test_unreferenced_object_rejected(self):
        kernel = Loop("i", (ArrayRef("A", Affine("i")),))
        with pytest.raises(ValueError):
            lb_hm_config([DataObject("ghost", 1 << 20)], kernel)


class TestMerchandiserPolicy:
    def test_runs_end_to_end(self, system, spgemm_setup):
        _, wl, binding = spgemm_setup
        policy = system.policy(binding, seed=3)
        res = Engine(MachineModel(), HM).run(wl, policy, seed=1)
        assert res.total_time_s > 0
        assert res.pages_migrated > 0

    def test_plans_created_after_base_profiling(self, system, spgemm_setup):
        _, wl, binding = spgemm_setup
        policy = system.policy(binding, seed=3)
        Engine(MachineModel(), HM).run(wl, policy, seed=1)
        # first iteration (both kinds) is base profiling; later regions plan
        assert len(policy.plans) >= 1
        for plan in policy.plans:
            assert 0 < plan.predicted_makespan_s
            for q in plan.quotas:
                assert 0.0 <= q.r_dram <= 1.0

    def test_improves_over_pm_only(self, system, spgemm_setup):
        _, wl, binding = spgemm_setup
        eng = Engine(MachineModel(), HM)
        t_pm = eng.run(wl, PMOnlyPolicy(), seed=1).total_time_s
        t_m = eng.run(wl, system.policy(binding, seed=3), seed=1).total_time_s
        assert t_m < t_pm

    def test_deterministic_given_seeds(self, system, spgemm_setup):
        _, wl, binding = spgemm_setup
        eng = Engine(MachineModel(), HM)
        a = eng.run(wl, system.policy(binding, seed=3), seed=1).total_time_s
        b = eng.run(wl, system.policy(binding, seed=3), seed=1).total_time_s
        assert a == b

    def test_planning_overhead_tracked(self, system, spgemm_setup):
        _, wl, binding = spgemm_setup
        policy = system.policy(binding, seed=3)
        Engine(MachineModel(), HM).run(wl, policy, seed=1)
        assert policy.planning_overhead_s > 0

    def test_no_planning_ablation(self, system, spgemm_setup):
        _, wl, binding = spgemm_setup
        policy = system.policy(binding, seed=3, enable_planning=False)
        Engine(MachineModel(), HM).run(wl, policy, seed=1)
        assert policy.plans == []

    def test_no_refinement_ablation(self, system, spgemm_setup):
        _, wl, binding = spgemm_setup
        policy = system.policy(binding, seed=3, enable_refinement=False)
        Engine(MachineModel(), HM).run(wl, policy, seed=1)
        for est in policy._estimators.values():
            assert est.alphas.mean_alpha() == 1.0

    def test_refinement_updates_alpha(self, system, spgemm_setup):
        _, wl, binding = spgemm_setup
        policy = system.policy(binding, seed=3)
        Engine(MachineModel(), HM).run(wl, policy, seed=1)
        alphas = [est.alphas.mean_alpha() for est in policy._estimators.values()]
        assert any(a != 1.0 for a in alphas)

    def test_capacity_never_exceeded(self, system, spgemm_setup):
        _, wl, binding = spgemm_setup
        policy = system.policy(binding, seed=3)
        peak = {"used": 0.0}
        orig = policy.on_tick

        def spy(ctx, dt):
            peak["used"] = max(peak["used"], ctx.page_table.dram_used_bytes())
            return orig(ctx, dt)

        policy.on_tick = spy
        Engine(MachineModel(), HM).run(wl, policy, seed=1)
        assert peak["used"] <= HM.dram.capacity_bytes + 4096

    def test_queue_drains_as_promotions(self, system, spgemm_setup):
        """The quota queue holds ``(object, pages, 0)`` moves, every move
        names an int tier, and a tick that drains the queue asks for DRAM
        (tier 0), not PM."""
        _, wl, binding = spgemm_setup
        policy = system.policy(binding, seed=3)
        draining = []
        orig = policy.on_tick

        def spy(ctx, dt):
            queued = bool(policy._promotion_queue)
            assert all(
                type(name) is str and len(idx) and dst == 0 and type(dst) is int
                for name, idx, dst in policy._promotion_queue
            )
            batch = orig(ctx, dt)
            if batch is not None:
                dsts = [dst for _, _, dst in batch.moves]
                assert all(type(dst) is int and dst in (0, 1) for dst in dsts)
                if queued:
                    draining.append(0 in dsts)
            return batch

        policy.on_tick = spy
        Engine(MachineModel(), HM).run(wl, policy, seed=1)
        assert draining and all(draining)

    def test_open_gate_scan_is_memoryoptimizers(self, system, spgemm_setup):
        """With no quota targets the gate skips nothing, and the daemon scan
        is MemoryOptimizer's page for page on one table and one set of
        rates, for equally seeded profilers."""
        _, wl, binding = spgemm_setup
        merch = system.policy(binding, seed=3)
        mo = MemoryOptimizerPolicy(seed=0)
        merch._pte = PTESampleProfiler(max_pages=DAEMON_SAMPLE_PAGES, seed=11)
        mo._pte = PTESampleProfiler(max_pages=DAEMON_SAMPLE_PAGES, seed=11)
        assert merch.enable_gating and not merch._quota_targets
        scans = []

        class Probe(PMOnlyPolicy):
            def on_tick(self, ctx, dt):
                if len(scans) >= 8:
                    return None
                got = merch._gated_daemon_moves(ctx)
                want = mo._select_promotions(ctx, ctx.page_rates())
                scans.append((got, want))
                # promote what the scan found, so later scans meet pages
                # already in DRAM
                return MigrationBatch(moves=tuple(want)) if want else None

        Engine(MachineModel(), HM).run(wl, Probe(), seed=1)
        assert len(scans) == 8
        assert any(want for _, want in scans)
        for got, want in scans:
            assert [(n, i.tolist(), d) for n, i, d in got] == [
                (n, i.tolist(), d) for n, i, d in want
            ]

    @pytest.mark.parametrize("faults", [False, True], ids=["healthy", "pte_drop"])
    def test_daemon_scan_draw_count(self, system, spgemm_setup, faults):
        """One gated daemon scan draws one page sample (``integers``) and
        one ``poisson`` array from the policy's generator; with PTE faults
        on, the injector draws its fire check and one ``random`` array over
        the whole scan.  Splitting any of these per object would change
        every later draw of the run's stream."""
        _, wl, binding = spgemm_setup
        rng = _DrawLog(np.random.PCG64(3))
        merch = system.policy(binding, seed=rng)
        injector_rng = _DrawLog(np.random.PCG64(4))
        if faults:
            merch._pte.faults = FaultInjector(
                FaultConfig(pte_drop_rate=1.0, pte_fault_fraction=0.3),
                seed=injector_rng,
            )
        scans = []

        class Probe(PMOnlyPolicy):
            def on_tick(self, ctx, dt):
                if len(scans) < 4:
                    rng.draws.clear()
                    injector_rng.draws.clear()
                    merch._gated_daemon_moves(ctx)
                    scans.append((list(rng.draws), list(injector_rng.draws)))
                return None

        Engine(MachineModel(), HM).run(wl, Probe(), seed=1)
        assert len(scans) == 4
        for policy_draws, injector_draws in scans:
            (sample, n), (poisson, m) = policy_draws
            assert (sample, n, poisson) == ("integers", DAEMON_SAMPLE_PAGES, "poisson")
            assert 0 < m <= n
            want = [("random", None), ("random", n)] if faults else []
            assert injector_draws == want

    def test_refuses_n_tier_engine(self, system, spgemm_setup):
        """The 2-tier runtime refuses a 3-tier table up front and names the
        registry's N-tier backend."""
        _, wl, binding = spgemm_setup
        policy = system.policy(binding, seed=3)
        engine = Engine(MachineModel(), topology=topology_preset("hbm_dram_pm"))
        with pytest.raises(ValueError, match="N-tier 'merchandiser' backend"):
            engine.run(wl, policy, seed=1)

    def test_profile_key_includes_kind(self, system, spgemm_setup):
        _, wl, binding = spgemm_setup
        policy = system.policy(binding, seed=3)
        Engine(MachineModel(), HM).run(wl, policy, seed=1)
        # SpGEMM has symbolic and numeric kinds: both profiled separately
        kinds = {key.split("|")[1] for key in policy._estimators if "|" in key}
        assert kinds == {"symbolic", "numeric"}
