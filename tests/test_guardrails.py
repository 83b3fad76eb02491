"""Unit + integration tests for the runtime guardrail layer."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import SpGEMMApp
from repro.baselines import MemoryModePolicy
from repro.common import PAGE_SIZE
from repro.core import default_system
from repro.core.guardrails import (
    GuardrailConfig,
    Guardrails,
    MigrationRetrier,
    MispredictionWatchdog,
    QuotaValidator,
)
from repro.core.journal import WriteAheadLog, recover_journal
from repro.sim.pages import PageTable
from repro.tasks import DataObject
from repro.sim import (
    Engine,
    FaultConfig,
    FaultInjector,
    MachineModel,
    optane_hm_config,
)
from repro.sim.faults import RobustnessLog
from repro.sim.pages import MigrationBatch


def batch(n=16) -> MigrationBatch:
    return MigrationBatch(moves=(("obj", np.arange(n), 0),))


@pytest.fixture
def log():
    return RobustnessLog()


class TestMigrationRetrier:
    def test_pop_due_returns_only_due_entries_in_fifo_order(self, log):
        r = MigrationRetrier(GuardrailConfig(retry_backoff_s=0.0), log)
        a = MigrationBatch(moves=(("a", np.arange(2), 0),))
        b = MigrationBatch(moves=(("b", np.arange(3), 1),))
        c = MigrationBatch(moves=(("c", np.arange(4), 0),))
        r.on_failure(a, now=0.0)
        r.on_failure(b, now=1.0)
        r.on_failure(c, now=5.0)
        moves, attempts = r.pop_due(1.0)
        assert [m[0] for m in moves] == ["a", "b"]  # queue order preserved
        assert [m[2] for m in moves] == [0, 1]  # destinations kept
        assert attempts == 1
        assert r.pending == 4  # c is not due yet and stays queued
        moves, _ = r.pop_due(5.0)
        assert [m[0] for m in moves] == ["c"]
        assert r.pending == 0

    def test_pop_due_reports_max_attempt_of_drained_entries(self, log):
        r = MigrationRetrier(GuardrailConfig(retry_backoff_s=0.0), log)
        r.note_emitted(0)
        r.on_failure(batch(), now=0.0)  # attempt 1
        r.note_emitted(2)
        r.on_failure(batch(), now=0.0)  # attempt 3
        moves, attempts = r.pop_due(0.0)
        assert len(moves) == 2
        assert attempts == 3  # the max, so re-failure accounting is safe

    def test_failure_schedules_retry_with_backoff(self, log):
        r = MigrationRetrier(GuardrailConfig(retry_backoff_s=0.1), log)
        r.on_failure(batch(), now=1.0)
        assert r.pending == 16
        assert log.count("guardrail.retry_scheduled") == 1
        # not due before the backoff elapses
        moves, attempts = r.pop_due(1.05)
        assert moves == [] and attempts == 0
        moves, attempts = r.pop_due(1.1)
        assert len(moves) == 1 and attempts == 1
        assert r.pending == 0

    def test_backoff_doubles_per_attempt(self, log):
        r = MigrationRetrier(GuardrailConfig(retry_backoff_s=0.1), log)
        r.note_emitted(1)  # last tick carried a first retry
        r.on_failure(batch(), now=0.0)  # second attempt
        assert log.events[-1].detail["at_s"] == pytest.approx(0.2)

    def test_exhaustion_drops_batch(self, log):
        r = MigrationRetrier(GuardrailConfig(max_retry_attempts=3), log)
        r.note_emitted(3)  # the third (final) attempt just went out
        r.on_failure(batch(), now=0.0)
        assert r.pending == 0
        assert log.count("guardrail.retry_dropped") == 1
        assert log.count("guardrail.retry_scheduled") == 0

    def test_full_retry_lifecycle(self, log):
        cfg = GuardrailConfig(max_retry_attempts=2, retry_backoff_s=0.01)
        r = MigrationRetrier(cfg, log)
        now = 0.0
        for expected_attempt in (1, 2):
            r.on_failure(batch(), now)
            now += 1.0
            moves, attempts = r.pop_due(now)
            assert attempts == expected_attempt and moves
            r.note_emitted(attempts)
        r.on_failure(batch(), now)  # third failure -> give up
        assert log.count("guardrail.retry_scheduled") == 2
        assert log.count("guardrail.retry_dropped") == 1

    def test_backoff_saturates_at_the_attempt_cap(self, log):
        cfg = GuardrailConfig(max_retry_attempts=4, retry_backoff_s=0.1)
        r = MigrationRetrier(cfg, log)
        delays = []
        for attempt in range(1, 5):
            r.note_emitted(attempt - 1)
            r.on_failure(batch(), now=10.0)
            delays.append(log.events[-1].detail["at_s"] - 10.0)
        # exponential doubling right up to the cap...
        assert delays == pytest.approx([0.1, 0.2, 0.4, 0.8])
        # ...then the next failure is dropped, not backed off further
        r.note_emitted(4)
        r.on_failure(batch(), now=10.0)
        assert log.count("guardrail.retry_dropped") == 1
        assert log.count("guardrail.retry_scheduled") == 4
        assert r.pending == 4 * 16  # the dropped batch never enqueued

    def test_snapshot_restore_roundtrip(self, log):
        import json

        r = MigrationRetrier(GuardrailConfig(retry_backoff_s=0.1), log)
        r.note_emitted(1)
        r.on_failure(batch(4), now=2.0)
        state = r.snapshot_state()
        json.dumps(state)  # must be JSON-able: it rides in WAL checkpoints
        fresh = MigrationRetrier(GuardrailConfig(retry_backoff_s=0.1), RobustnessLog())
        fresh.restore_state(state)
        assert fresh.pending == r.pending == 4
        moves, attempts = fresh.pop_due(5.0)
        assert attempts == 2
        assert [m[0] for m in moves] == ["obj"]
        np.testing.assert_array_equal(moves[0][1], np.arange(4))
        assert type(moves[0][2]) is int and moves[0][2] == 0


class TestRetryRollbackProperty:
    """Property-style check that retry + journal rollback compose safely.

    Random interleavings of journaled migration batches, syscall failures
    (queued for retry), drained retries and crashes (epoch rollback) must
    never double-apply a move: residency stays binary, DRAM capacity is
    respected, and a rollback restores the epoch-begin placement exactly.
    """

    N_OBJECTS = 3
    PAGES_EACH = 8
    CAPACITY_PAGES = 16  # smaller than the 24-page footprint: clamps happen

    def _table(self) -> PageTable:
        objects = [
            DataObject(f"o{i}", self.PAGES_EACH * PAGE_SIZE)
            for i in range(self.N_OBJECTS)
        ]
        return PageTable(objects, self.CAPACITY_PAGES * PAGE_SIZE, rng=0)

    def _begin(self, wal: WriteAheadLog, table: PageTable) -> int:
        return wal.begin_epoch(
            {
                "region": 0,
                "time_s": 0.0,
                "binary": True,
                "dram_capacity_bytes": int(table.dram_capacity_bytes),
                "dram_pages": {o.name: float(o.residency.sum()) for o in table},
                "task_r_dram": {},
            }
        )

    def _journal_and_apply(self, wal, epoch, table, batch, cause="policy"):
        # mirror the engine: intent (with before-images) hits the log
        # BEFORE the page table mutates
        moves = [
            {
                "obj": name,
                "pages": [int(p) for p in idx],
                "before": [float(x) for x in table.object(name).residency[idx]],
                "dst": int(dst),
            }
            for name, idx, dst in batch.moves
        ]
        wal.log_moves(epoch, moves, cause)
        return table.apply_batch(batch)

    def _check_invariants(self, table: PageTable) -> None:
        for obj in table:
            assert np.all((obj.residency == 0.0) | (obj.residency == 1.0))
        assert table.dram_used_bytes() <= table.dram_capacity_bytes + 1e-9

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_retry_plus_rollback_never_double_applies(self, seed):
        rng = np.random.default_rng(seed)
        table = self._table()
        wal = WriteAheadLog()
        retrier = MigrationRetrier(
            GuardrailConfig(retry_backoff_s=0.0, max_retry_attempts=3),
            RobustnessLog(),
        )
        epoch = self._begin(wal, table)
        snapshot = {o.name: o.residency.copy() for o in table}
        now = 0.0
        for _ in range(24):
            now += 1.0
            op = rng.random()
            if op < 0.5:
                name = f"o{int(rng.integers(self.N_OBJECTS))}"
                obj = table.object(name)
                k = int(rng.integers(1, 5))
                pages = np.sort(
                    rng.choice(obj.n_pages, size=k, replace=False)
                ).astype(np.intp)
                # destination 0 (promote) with probability 0.7, else 1
                dst = int(rng.random() >= 0.7)
                b = MigrationBatch(moves=((name, pages, dst),))
                self._journal_and_apply(wal, epoch, table, b)
                if rng.random() < 0.5:
                    # the "syscall" failed: the same moves go on the retry
                    # queue even though (some) pages already landed
                    retrier.note_emitted(0)
                    retrier.on_failure(b, now)
            elif op < 0.8:
                moves, attempts = retrier.pop_due(now)
                if moves:
                    b = MigrationBatch(moves=tuple(moves))
                    self._journal_and_apply(wal, epoch, table, b, cause="retry")
                    retrier.note_emitted(attempts)
            else:
                # crash: the open epoch rolls back to its begin snapshot
                outcome = recover_journal(wal, table)
                assert outcome.violations == []
                for obj in table:
                    np.testing.assert_array_equal(
                        obj.residency, snapshot[obj.name]
                    )
                epoch = self._begin(wal, table)
                snapshot = {o.name: o.residency.copy() for o in table}
            self._check_invariants(table)


class TestQuotaValidator:
    def test_healthy_values_become_lkg(self, log):
        v = QuotaValidator(GuardrailConfig(), log)
        assert v.validate_inputs("k", 1.0, 2.0, 100.0, 0.0) == (1.0, 2.0, 100.0)
        assert log.events == []

    def test_nan_without_lkg_returns_none(self, log):
        v = QuotaValidator(GuardrailConfig(), log)
        assert v.validate_inputs("k", math.nan, 2.0, 100.0, 0.0) is None
        assert log.count("guardrail.quota_clamp") == 1
        assert log.events[0].detail["recovered"] is False

    def test_insane_values_clamp_to_lkg(self, log):
        v = QuotaValidator(GuardrailConfig(max_ratio=10.0), log)
        v.validate_inputs("k", 1.0, 2.0, 100.0, 0.0)
        # 50x jump on t_dram: rejected, last known good returned
        assert v.validate_inputs("k", 50.0, 2.0, 100.0, 1.0) == (1.0, 2.0, 100.0)
        assert log.events[-1].detail["recovered"] is True
        # within 10x: accepted and becomes the new LKG
        assert v.validate_inputs("k", 5.0, 2.0, 100.0, 2.0) == (5.0, 2.0, 100.0)

    def test_non_positive_rejected(self, log):
        v = QuotaValidator(GuardrailConfig(), log)
        v.validate_inputs("k", 1.0, 2.0, 100.0, 0.0)
        assert v.validate_inputs("k", -1.0, 2.0, 100.0, 1.0) == (1.0, 2.0, 100.0)
        assert v.validate_inputs("k", 1.0, 0.0, 100.0, 2.0) == (1.0, 2.0, 100.0)

    def test_keys_are_independent(self, log):
        v = QuotaValidator(GuardrailConfig(), log)
        v.validate_inputs("a", 1.0, 2.0, 100.0, 0.0)
        assert v.validate_inputs("b", math.inf, 2.0, 100.0, 1.0) is None


class TestMispredictionWatchdog:
    def wd(self, log, **kw):
        return MispredictionWatchdog(GuardrailConfig(**kw), log)

    def test_finishing_early_is_never_bad(self, log):
        wd = self.wd(log, watchdog_trip_after=1)
        for _ in range(10):
            wd.observe(predicted_s=10.0, measured_s=1.0, now=0.0)
        assert not wd.degraded and log.events == []

    def test_trips_after_consecutive_bad_regions(self, log):
        wd = self.wd(log, watchdog_trip_after=3)
        wd.observe(10.0, 20.0, 0.0)
        wd.observe(10.0, 20.0, 1.0)
        assert not wd.degraded
        wd.observe(10.0, 20.0, 2.0)
        assert wd.degraded
        assert log.count("guardrail.watchdog_degrade") == 1

    def test_good_region_resets_streak(self, log):
        wd = self.wd(log, watchdog_trip_after=3)
        wd.observe(10.0, 20.0, 0.0)
        wd.observe(10.0, 20.0, 1.0)
        wd.observe(10.0, 10.0, 2.0)  # accurate -> streak resets
        wd.observe(10.0, 20.0, 3.0)
        wd.observe(10.0, 20.0, 4.0)
        assert not wd.degraded

    def test_rearms_after_consecutive_good_regions(self, log):
        wd = self.wd(log, watchdog_trip_after=1, watchdog_rearm_after=2)
        wd.observe(10.0, 20.0, 0.0)
        assert wd.degraded
        wd.observe(10.0, 10.5, 1.0)
        assert wd.degraded
        wd.observe(10.0, 10.5, 2.0)
        assert not wd.degraded
        assert log.count("guardrail.watchdog_rearm") == 1

    def test_bad_region_while_degraded_resets_good_streak(self, log):
        wd = self.wd(log, watchdog_trip_after=1, watchdog_rearm_after=2)
        wd.observe(10.0, 20.0, 0.0)
        wd.observe(10.0, 10.0, 1.0)
        wd.observe(10.0, 20.0, 2.0)  # still misbehaving
        wd.observe(10.0, 10.0, 3.0)
        assert wd.degraded  # good streak was reset, needs 2 in a row

    def test_nonfinite_prediction_is_bad(self, log):
        wd = self.wd(log, watchdog_trip_after=1)
        wd.observe(math.nan, 10.0, 0.0)
        assert wd.degraded


class TestGuardrailsFacade:
    def test_alpha_quarantine_logged(self):
        g = Guardrails()
        g.quarantine_alpha("spgemm/phase", 3.0)
        assert g.log.count("guardrail.alpha_quarantine") == 1

    def test_base_requeue_bounded(self):
        g = Guardrails(GuardrailConfig(max_base_reprofiles=2))
        assert g.may_requeue_base("k", 0.0, "flagged_window")
        assert g.may_requeue_base("k", 1.0, "flagged_window")
        assert not g.may_requeue_base("k", 2.0, "flagged_window")
        assert g.log.count("guardrail.base_profile_requeued") == 2
        # other keys have their own budget
        assert g.may_requeue_base("other", 3.0, "invalid_model_inputs")


# ----------------------------------------------------------------------
# policy-level behaviour
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def system():
    return default_system(seed=0, fast=True)


@pytest.fixture(scope="module")
def app():
    return SpGEMMApp.small(seed=0)


@pytest.fixture(scope="module")
def workload(app):
    return app.build_workload(seed=0)


def run_guarded(system, app, workload, faults):
    policy = system.policy(
        app.binding(workload), seed=0, guardrails=GuardrailConfig()
    )
    engine = Engine(MachineModel(), optane_hm_config(), faults=faults)
    return engine.run(workload, policy, seed=1)


class TestPolicyIntegration:
    def test_fault_free_run_is_guardrail_silent(self, system, app, workload):
        result = run_guarded(system, app, workload, faults=None)
        assert result.robustness.guardrail_counters() == {}
        assert result.robustness.events == []

    def test_flagged_pebs_windows_are_quarantined(self, system, app, workload):
        # window the fault past iter0 so base profiling succeeds and the
        # flagged windows hit the *refinement* path
        faults = FaultInjector(
            FaultConfig(pebs_duplicate_rate=1.0, start_s=70.0), seed=3
        )
        result = run_guarded(system, app, workload, faults)
        assert result.robustness.count("guardrail.alpha_quarantine") > 0

    def test_base_requeue_bounded_at_policy_level(self, system, app, workload):
        # every base window flagged: each profile key may be requeued at
        # most max_base_reprofiles times
        faults = FaultInjector(FaultConfig(pebs_duplicate_rate=1.0), seed=3)
        result = run_guarded(system, app, workload, faults)
        requeues = [
            e
            for e in result.robustness.guardrail_events()
            if e.kind == "guardrail.base_profile_requeued"
        ]
        assert requeues
        per_key: dict = {}
        for e in requeues:
            per_key[e.detail["key"]] = per_key.get(e.detail["key"], 0) + 1
        assert max(per_key.values()) <= GuardrailConfig().max_base_reprofiles

    def test_migration_faults_trigger_retries(self, system, app, workload):
        faults = FaultInjector(FaultConfig(migration_fail_rate=0.5), seed=3)
        result = run_guarded(system, app, workload, faults)
        assert result.robustness.count("guardrail.retry_scheduled") > 0

    def test_guarded_never_worse_than_memory_mode(self, system, app, workload):
        """The issue's acceptance bar: guarded Merchandiser under 10%% failed
        migrations + 5%% corrupt PMCs must not end up behind the placement-
        oblivious memory-mode baseline."""
        cfg = FaultConfig(migration_fail_rate=0.10, pmc_corrupt_rate=0.05)
        guarded = run_guarded(
            system, app, workload, FaultInjector(cfg, seed=11)
        )
        baseline_engine = Engine(
            MachineModel(), optane_hm_config(), faults=FaultInjector(cfg, seed=11)
        )
        baseline = baseline_engine.run(workload, MemoryModePolicy(), seed=1)
        assert guarded.total_time_s <= baseline.total_time_s


class TestTieredQuotaValidator:
    """N-tier forms of the quota sanity checks."""

    def test_tier_inputs_match_scalar_decisions_on_two_tiers(self, log):
        scalar = QuotaValidator(GuardrailConfig(max_ratio=10.0), log)
        tiered = QuotaValidator(GuardrailConfig(max_ratio=10.0), RobustnessLog())
        cases = [
            (1.0, 2.0, 100.0),
            (50.0, 2.0, 100.0),  # 50x jump: clamped to LKG
            (5.0, 2.0, 100.0),
            (math.nan, 2.0, 100.0),
        ]
        for i, (td, tp, acc) in enumerate(cases):
            want = scalar.validate_inputs("k", td, tp, acc, float(i))
            got = tiered.validate_tier_inputs("k", (td, tp), acc, float(i))
            if want is None:
                assert got is None
            else:
                assert got == (want[:2], want[2])

    def test_tier_inputs_lkg_recovers_four_tier_vector(self, log):
        v = QuotaValidator(GuardrailConfig(max_ratio=10.0), log)
        good = ((1.0, 2.0, 4.0, 8.0), 100.0)
        assert v.validate_tier_inputs("k", good[0], good[1], 0.0) == good
        # a 100x spike on one mid tier is rejected, LKG returned
        assert (
            v.validate_tier_inputs("k", (1.0, 200.0, 4.0, 8.0), 100.0, 1.0)
            == good
        )
        assert log.count("guardrail.quota_clamp") == 1
        assert log.events[-1].detail["tier_times"] == [1.0, 200.0, 4.0, 8.0]

    def test_tier_inputs_nan_without_lkg_returns_none(self, log):
        v = QuotaValidator(GuardrailConfig(), log)
        assert v.validate_tier_inputs("k", (1.0, math.nan, 3.0), 10.0, 0.0) is None
        assert log.events[-1].detail["recovered"] is False

    def test_plan_within_capacity_untouched(self, log):
        v = QuotaValidator(GuardrailConfig(), log)
        plan = {"a": (10, 20, 30), "b": (5, 0, 15)}
        out = v.validate_plan_pages(plan, (64, 64, 64), 0.0)
        assert out == plan
        assert log.events == []

    def test_plan_overcommit_scaled_per_tier_and_logged(self, log):
        v = QuotaValidator(GuardrailConfig(), log)
        out = v.validate_plan_pages(
            {"a": (60, 10), "b": (60, 10)}, (100, 100), 0.0
        )
        # tier 0 asked for 120 of 100 pages: both grants scaled down
        assert sum(g[0] for g in out.values()) <= 100
        assert out["a"][0] == out["b"][0] == 50
        # tier 1 was fine: untouched
        assert out["a"][1] == out["b"][1] == 10
        assert log.count("guardrail.tier_overcommit") == 1
        assert log.events[-1].detail == {
            "tier": 0,
            "requested_pages": 120,
            "capacity_pages": 100,
        }

    def test_plan_grant_length_mismatch_raises(self, log):
        v = QuotaValidator(GuardrailConfig(), log)
        with pytest.raises(ValueError):
            v.validate_plan_pages({"a": (1, 2, 3)}, (10, 10), 0.0)

    def test_checkpoint_roundtrips_tiered_entries(self, log):
        v = QuotaValidator(GuardrailConfig(), log)
        v.validate_inputs("two", 1.0, 2.0, 100.0, 0.0)
        v.validate_tier_inputs("four", (1.0, 2.0, 4.0, 8.0), 50.0, 0.0)
        state = v.snapshot_state()
        restored = QuotaValidator(GuardrailConfig(), RobustnessLog())
        restored.restore_state(state)
        assert restored.validate_inputs("two", 1.0, 2.0, 100.0, 1.0) == (
            1.0,
            2.0,
            100.0,
        )
        assert restored.validate_tier_inputs(
            "four", (1.0, 2.0, 4.0, 8.0), 50.0, 1.0
        ) == ((1.0, 2.0, 4.0, 8.0), 50.0)
