"""Unit tests for every fault model in :mod:`repro.sim.faults`."""

import math

import numpy as np
import pytest

from repro.common import PAGE_SIZE, AccessPattern
from repro.sim import Engine, MachineModel, PlacementPolicy
from repro.sim.faults import (
    CRASH_POINTS,
    RATE_FIELDS,
    FaultConfig,
    FaultInjector,
    RobustnessEvent,
    RobustnessLog,
    RobustnessReport,
)
from repro.sim.pages import MigrationBatch
from repro.tasks import DataObject, Footprint, MPIProgram, ObjectAccess
from tests.policy_conformance import small_topology


def injector(**rates) -> FaultInjector:
    return FaultInjector(FaultConfig(**rates), seed=42)


class TestEventLog:
    def test_record_and_count(self):
        log = RobustnessLog()
        log.record("fault.pebs_drop", 1.0, objects=3)
        log.record("fault.pebs_drop", 2.0, objects=1)
        assert log.count("fault.pebs_drop") == 2
        assert log.count("fault.unknown") == 0
        assert log.events[0].detail["objects"] == 3
        log.clear()
        assert log.events == [] and log.counters == {}

    def test_report_merges_and_sorts(self):
        a, b = RobustnessLog(), RobustnessLog()
        a.record("fault.pmc_stale", 5.0)
        b.record("guardrail.quota_clamp", 2.0)
        report = RobustnessReport.merged(a, b, None)
        assert [e.time_s for e in report.events] == [2.0, 5.0]
        assert report.count("fault.pmc_stale") == 1
        assert report.guardrail_counters() == {"guardrail.quota_clamp": 1}
        assert [e.kind for e in report.fault_events()] == ["fault.pmc_stale"]
        assert [e.kind for e in report.guardrail_events()] == [
            "guardrail.quota_clamp"
        ]

    def test_empty_report(self):
        report = RobustnessReport.merged(None)
        assert report.events == [] and report.counters == {}


class TestFaultConfig:
    def test_disabled_by_default(self):
        assert not FaultConfig().any_enabled

    def test_any_enabled(self):
        assert FaultConfig(migration_fail_rate=0.1).any_enabled

    def test_scaled(self):
        cfg = FaultConfig(pebs_drop_rate=0.2, pmc_corrupt_rate=0.6).scaled(2.0)
        assert cfg.pebs_drop_rate == pytest.approx(0.4)
        assert cfg.pmc_corrupt_rate == 1.0  # capped
        assert FaultConfig(pebs_drop_rate=0.2).scaled(0.0).any_enabled is False


class TestWindowCountFaults:
    COUNTS = {"a": 100.0, "b": 50.0}

    def test_drop_zeroes_and_flags(self):
        inj = injector(pebs_drop_rate=1.0)
        out, flagged = inj.corrupt_window_counts(self.COUNTS, 1.0, source="pebs")
        assert flagged and out == {"a": 0.0, "b": 0.0}
        assert inj.log.count("fault.pebs_drop") == 1

    def test_duplicate_doubles(self):
        inj = injector(pebs_duplicate_rate=1.0)
        out, flagged = inj.corrupt_window_counts(self.COUNTS, 1.0, source="pebs")
        assert flagged and out == {"a": 200.0, "b": 100.0}

    def test_source_names_the_event(self):
        inj = injector(pebs_drop_rate=1.0)
        inj.corrupt_window_counts(self.COUNTS, 1.0, source="base_profile")
        assert inj.log.count("fault.base_profile_drop") == 1

    def test_healthy_passthrough(self):
        inj = injector()
        out, flagged = inj.corrupt_window_counts(self.COUNTS, 1.0)
        assert not flagged and out == self.COUNTS and inj.log.events == []


class TestPTEScanFaults:
    def samples(self):
        return np.zeros(100, dtype=np.intp), np.arange(100), np.ones(100)

    def test_drop_loses_samples(self):
        inj = injector(pte_drop_rate=1.0)
        obj, idx, cnt = inj.corrupt_pte_scan(*self.samples(), 1.0)
        assert 0 < len(idx) < 100 and len(obj) == len(idx) == len(cnt)
        assert inj.log.count("fault.pte_drop") == 1

    def test_duplicate_doubles_some_counts(self):
        inj = injector(pte_duplicate_rate=1.0)
        obj, idx, cnt = inj.corrupt_pte_scan(*self.samples(), 1.0)
        assert len(obj) == len(idx) == 100
        assert ((cnt == 2.0).any()) and ((cnt == 1.0).any())

    def test_thermostat_drop(self):
        inj = injector(pte_drop_rate=1.0)
        out = inj.corrupt_region_estimates(list(range(40)), 1.0)
        assert 0 < len(out) < 40
        assert inj.log.count("fault.thermostat_drop") == 1


class TestPMCFaults:
    PMCS = {f"ev{i}": float(i + 1) for i in range(20)}

    def test_stale_returns_previous_read(self):
        inj = injector(pmc_stale_rate=1.0)
        first = inj.corrupt_pmc_read(self.PMCS, 1.0)
        # no previous read yet: first read passes through
        assert first == self.PMCS
        second = inj.corrupt_pmc_read({k: v * 10 for k, v in self.PMCS.items()}, 2.0)
        assert second == self.PMCS
        assert inj.log.count("fault.pmc_stale") == 1

    def test_corrupt_scrambles_fraction(self):
        inj = injector(pmc_corrupt_rate=1.0)
        out = inj.corrupt_pmc_read(self.PMCS, 1.0)
        changed = [k for k in self.PMCS if not out[k] == self.PMCS[k]]
        n_bad = max(1, round(0.25 * len(self.PMCS)))
        assert len(changed) == n_bad
        for k in changed:
            assert math.isnan(out[k]) or out[k] >= 20.0 * self.PMCS[k]

    def test_healthy_passthrough(self):
        inj = injector()
        assert inj.corrupt_pmc_read(self.PMCS, 1.0) == self.PMCS


class TestMigrationFaults:
    def batch(self):
        return MigrationBatch(moves=(("a", np.arange(64), 0),))

    def test_reject_fails_whole_batch(self):
        inj = injector(migration_reject_rate=1.0)
        applied, failed = inj.migration_outcome(self.batch(), 1.0)
        assert applied is None and failed.n_pages == 64
        assert inj.log.count("fault.migration_reject") == 1

    def test_partial_splits_batch(self):
        inj = injector(migration_fail_rate=1.0)
        applied, failed = inj.migration_outcome(self.batch(), 1.0)
        assert failed is not None and failed.n_pages > 0
        total = (applied.n_pages if applied else 0) + failed.n_pages
        assert total == 64
        assert inj.log.count("fault.migration_partial") == 1

    def test_partial_split_keeps_destinations(self):
        inj = injector(migration_fail_rate=1.0)
        dsts = {"a": 0, "b": 1, "c": 2}
        batch = MigrationBatch(
            moves=tuple((name, np.arange(64), k) for name, k in dsts.items())
        )
        applied, failed = inj.migration_outcome(batch, 1.0)
        assert applied is not None and failed is not None
        for half in (applied, failed):
            for name, _, dst in half.moves:
                assert type(dst) is int and dst == dsts[name]
        for name in dsts:
            pages = np.concatenate(
                [idx for half in (applied, failed)
                 for n, idx, _ in half.moves if n == name]
            )
            np.testing.assert_array_equal(np.sort(pages), np.arange(64))

    def test_healthy_passthrough(self):
        inj = injector()
        applied, failed = inj.migration_outcome(self.batch(), 1.0)
        assert failed is None and applied.n_pages == 64


class TestEnvironmentFaults:
    def test_pm_bw_window(self):
        inj = injector(pm_bw_degradation_rate=1.0)
        assert inj.pm_bandwidth_factor(0.0) == 0.5
        # still inside the 0.25 s default window
        assert inj.pm_bandwidth_factor(0.2) == 0.5
        assert inj.log.count("fault.pm_bw_degraded") == 1

    def test_pm_bw_healthy(self):
        assert injector().pm_bandwidth_factor(0.0) == 1.0

    def test_dram_pressure_page_aligned(self):
        inj = injector(dram_pressure_rate=1.0)
        stolen = inj.dram_pressure_bytes(0.0, 1 << 30)
        assert stolen > 0 and stolen % PAGE_SIZE == 0
        # constant while the window lasts
        assert inj.dram_pressure_bytes(0.1, 1 << 30) == stolen
        assert inj.log.count("fault.dram_pressure") == 1

    def test_dram_pressure_healthy(self):
        assert injector().dram_pressure_bytes(0.0, 1 << 30) == 0


class TestAPIFaults:
    def test_object_size_misreport(self):
        inj = injector(object_size_error_rate=1.0)
        out = inj.corrupt_object_sizes({"a": 8 * PAGE_SIZE}, 1.0)
        assert out["a"] != 8 * PAGE_SIZE
        scale = inj.log.events[0].detail["scale"]
        assert scale == 8.0 or scale == pytest.approx(1 / 8.0)

    def test_healthy_passthrough(self):
        inj = injector()
        assert inj.corrupt_object_sizes({"a": 123}, 1.0) == {"a": 123}


class TestWireFaults:
    def test_each_kind_fires_and_logs(self):
        cases = (
            ("wire_torn_frame_rate", "torn_frame", "fault.wire_torn_frame"),
            ("wire_corrupt_rate", "corrupt_crc", "fault.wire_corrupt_crc"),
            ("wire_stall_rate", "stall", "fault.wire_stall"),
            ("wire_disconnect_rate", "disconnect", "fault.wire_disconnect"),
        )
        for rate_name, action, event in cases:
            inj = injector(**{rate_name: 1.0})
            assert inj.wire_fault(1.0) == action
            assert inj.log.count(event) == 1

    def test_at_most_one_fault_per_reply(self):
        # every rate maxed: the draw order is fixed, one action comes back
        inj = injector(
            wire_torn_frame_rate=1.0,
            wire_corrupt_rate=1.0,
            wire_stall_rate=1.0,
            wire_disconnect_rate=1.0,
        )
        assert inj.wire_fault(0.0) == "torn_frame"
        assert sum(inj.log.counters.values()) == 1

    def test_stall_event_carries_duration(self):
        inj = injector(wire_stall_rate=1.0, wire_stall_s=0.25)
        assert inj.wire_fault(3.0) == "stall"
        assert inj.log.events[-1].detail["stall_s"] == pytest.approx(0.25)

    def test_healthy_passthrough(self):
        inj = injector()
        assert inj.wire_fault(0.0) is None
        assert inj.log.events == []

    def test_deterministic_per_seed(self):
        def trace(seed):
            inj = FaultInjector(
                FaultConfig(wire_torn_frame_rate=0.3, wire_disconnect_rate=0.3),
                seed=seed,
            )
            return [inj.wire_fault(float(t)) for t in range(60)]

        assert trace(5) == trace(5)
        assert trace(5) != trace(6)

    def test_config_plumbing(self):
        assert FaultConfig(wire_corrupt_rate=0.1).any_enabled
        scaled = FaultConfig(wire_stall_rate=0.4).scaled(2.0)
        assert scaled.wire_stall_rate == pytest.approx(0.8)
        assert not FaultConfig(wire_torn_frame_rate=0.2).scaled(0.0).any_enabled


class TestActivityWindow:
    def test_faults_only_inside_window(self):
        cfg = FaultConfig(pebs_drop_rate=1.0, start_s=10.0, end_s=20.0)
        inj = FaultInjector(cfg, seed=0)
        out, flagged = inj.corrupt_window_counts({"a": 1.0}, 5.0)
        assert not flagged and out == {"a": 1.0}
        out, flagged = inj.corrupt_window_counts({"a": 1.0}, 15.0)
        assert flagged
        out, flagged = inj.corrupt_window_counts({"a": 1.0}, 25.0)
        assert not flagged

    def test_reset_clears_state(self):
        inj = injector(pm_bw_degradation_rate=1.0, pmc_stale_rate=1.0)
        inj.pm_bandwidth_factor(0.0)
        inj.corrupt_pmc_read({"a": 1.0}, 0.0)
        inj.reset()
        assert inj.log.events == []
        assert inj._last_pmcs is None


class TestDeterminism:
    def test_same_seed_same_faults(self):
        def trace(seed):
            inj = FaultInjector(
                FaultConfig(
                    pebs_drop_rate=0.3,
                    pmc_corrupt_rate=0.3,
                    migration_fail_rate=0.3,
                ),
                seed=seed,
            )
            for t in range(50):
                inj.corrupt_window_counts({"a": 1.0, "b": 2.0}, float(t))
                inj.corrupt_pmc_read({f"e{i}": 1.0 for i in range(8)}, float(t))
                inj.migration_outcome(
                    MigrationBatch(moves=(("a", np.arange(16), 0),)), float(t)
                )
            return [(e.kind, e.time_s) for e in inj.log.events]

        assert trace(7) == trace(7)
        assert trace(7) != trace(8)


class TestRateFields:
    @pytest.mark.parametrize("name", RATE_FIELDS)
    def test_every_rate_counts_as_enabled_and_scales(self, name):
        cfg = FaultConfig(**{name: 0.4})
        assert cfg.any_enabled
        assert getattr(cfg.scaled(0.5), name) == pytest.approx(0.2)


class TestCrashPoints:
    @pytest.mark.parametrize("point", CRASH_POINTS)
    def test_crash_points_fire_once_at_the_nth_occurrence(self, point):
        inj = injector(crash_at=3, crash_point=point)
        fired = [inj.crash_due(point, float(t)) for t in range(6)]
        assert fired == [False, False, True, False, False, False]
        assert inj.crash_fired
        assert inj.log.count("fault.crash_kill") == 1
        # other points never trip a differently-configured kill
        other = next(p for p in CRASH_POINTS if p != point)
        assert not injector(crash_at=1, crash_point=point).crash_due(other, 0.0)

    @pytest.mark.parametrize(
        "bad",
        [{"crash_point": "mid-batch"}, {"crash_at": 0}, {"crash_at": -2}],
        ids=["typo_point", "crash_at_zero", "crash_at_negative"],
    )
    def test_unknown_point_or_non_positive_occurrence_is_rejected(self, bad):
        with pytest.raises(ValueError):
            FaultConfig(**bad)


def _streaming_workload(n_tasks=4):
    """Bandwidth-bound tasks, one 4 MiB object each: together they fill
    the middle tier of ``small_topology(3)`` exactly."""
    prog = MPIProgram("stream", n_tasks)
    fps = []
    for i in range(n_tasks):
        prog.declare_object(DataObject(f"obj{i}", 4 << 20, owner=prog.task_id(i)))
        fps.append(
            Footprint(
                accesses=(
                    ObjectAccess(f"obj{i}", AccessPattern.STREAM, reads=2_000_000_000),
                ),
                instructions=1_000_000,
            )
        )
    prog.parallel_region("r", fps, kind="iter")
    return prog.build()


class _AllOnTier(PlacementPolicy):
    """Moves every page it can to tier ``k`` at workload start, then
    stays put."""

    name = "all-on-tier"

    def __init__(self, k: int) -> None:
        self.k = k

    def on_workload_start(self, ctx):
        self.table = ctx.page_table
        self.table.apply_batch(
            MigrationBatch(
                moves=tuple(
                    (o.name, np.arange(o.n_pages), self.k) for o in self.table
                )
            )
        )


class TestTierEnvironmentFaults:
    """The engine keeps the 2-tier fault model's tier mapping on N tiers:
    bandwidth degradation hits the slowest tier, pressure the fastest."""

    @staticmethod
    def _run(k, **rates):
        faults = FaultInjector(FaultConfig(**rates), seed=7) if rates else None
        policy = _AllOnTier(k)
        engine = Engine(MachineModel(), topology=small_topology(3), faults=faults)
        return engine.run(_streaming_workload(), policy, seed=3), policy.table

    def test_bandwidth_degradation_hits_slowest_tier_only(self):
        for k, slowed in ((1, False), (2, True)):
            healthy, _ = self._run(k)
            degraded, _ = self._run(k, pm_bw_degradation_rate=1.0)
            assert degraded.robustness.count("fault.pm_bw_degraded") > 0
            if slowed:
                assert degraded.total_time_s > healthy.total_time_s
            else:
                assert degraded.total_time_s == healthy.total_time_s

    def test_pressure_hits_fastest_tier_only(self):
        # pages on the middle tier: a spike steals nothing they use
        res, table = self._run(1, dram_pressure_rate=1.0)
        assert res.robustness.count("fault.dram_pressure") > 0
        assert res.pages_migrated == 0
        assert table.tier_used_pages(1) == table.total_pages
        # tier 0 full: a spike of a quarter of it demotes that many pages
        # to the nearest tier with room
        res, table = self._run(0, dram_pressure_rate=1.0)
        stolen = table.tier_capacity_pages[0] // 4
        assert res.pages_migrated == stolen
        assert table.tier_used_pages(1) == stolen


