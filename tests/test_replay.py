"""Tests for the flight recorder, deterministic replayer, A/B backtester,
and the SLO regression gate (``repro/replay/``)."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from repro.core.model import PerformanceModel
from repro.replay import (
    CostModel,
    FlightRecorder,
    Recording,
    ServiceConfig,
    VirtualClock,
    backtest,
    build_server,
    evaluate_gate,
    replay_recording,
)
from repro.replay.recorder import RecordingError
from repro.replay import fixtures as fixtures_cli
from repro.replay import gate as gate_cli
from repro.service.protocol import PlacementRequest, TaskSpec
from repro.service.transport.framing import FrameCorrupt, FrameTruncated, encode_frame
from repro.sim.faults import FaultConfig, FaultInjector

MB = 1 << 20


class _CountingCorrelation:
    """Deterministic f(.) == 1 stand-in that counts model evaluations."""

    events = ("E",)
    model = None

    def __init__(self):
        self.calls = 0

    def predict(self, pmcs, r):
        self.calls += 1
        return 1.0

    def predict_batch(self, pmcs, ratios):
        self.calls += 1
        return np.ones(len(np.asarray(ratios)))

    def predict_stacked(self, pmcs_seq, ratios):
        self.calls += 1
        return np.ones((len(pmcs_seq), len(np.asarray(ratios))))


def make_model():
    return PerformanceModel(_CountingCorrelation())


def spec(tid, t_pm=30.0, t_dram=10.0, size=8 * MB, e=1.0):
    return TaskSpec(
        task_id=tid,
        t_pm_only=t_pm,
        t_dram_only=t_dram,
        total_accesses=1_000_000,
        pmcs={"E": e},
        size_bytes=size,
    )


def make_request(rid, tenant="acme", shape=0, n_tasks=3):
    tasks = tuple(
        spec(f"s{shape}:t{i}", t_pm=20.0 + 5.0 * shape + i, size=(4 + shape) * MB)
        for i in range(n_tasks)
    )
    return PlacementRequest(request_id=rid, tenant=tenant, tasks=tasks)


def make_config(**overrides):
    base = dict(
        dram_capacity_bytes=256 * MB,
        window_s=0.01,
        max_batch=4,
        cache_capacity=16,
    )
    base.update(overrides)
    return ServiceConfig(**base)


def record_trace(
    config, model, n=20, spacing=0.003, pump_every=1, recorder=None
):
    """Drive a recorded server through a small submit/pump trace."""
    recorder = recorder or FlightRecorder(meta={"config": config.to_dict()})
    clock = VirtualClock()
    server = build_server(config, model, clock=clock, recorder=recorder)
    t = 0.0
    for i in range(n):
        t += spacing
        clock.advance_to(t)
        server.submit(make_request(f"r-{i:03d}", shape=i % 3), now=t)
        if (i + 1) % pump_every == 0:
            server.pump(now=t)
    server.flush(now=t + 1.0)
    return recorder, server


# ======================================================================
# flight recorder
# ======================================================================
class TestFlightRecorder:
    def test_ring_bounded_and_dropped_counted(self):
        rec = FlightRecorder(capacity=5)
        for i in range(8):
            rec.record("request", float(i), request={"request_id": f"r{i}"})
        records = rec.records()
        assert len(records) == 5
        assert rec.recorded == 8
        assert rec.dropped == 3
        # oldest evicted first: the survivors are the 5 newest, in order
        assert [r["t"] for r in records] == [3.0, 4.0, 5.0, 6.0, 7.0]
        assert [r["seq"] for r in records] == [3, 4, 5, 6, 7]

    def test_ring_recording_carries_meta(self):
        rec = FlightRecorder(meta={"config": {"x": 1}, "note": "n"})
        rec.record("fire", 1.0, op="pump")
        recording = rec.recording()
        assert recording.meta["config"] == {"x": 1}
        assert recording.meta["note"] == "n"
        assert recording.records[0]["op"] == "pump"

    def test_stream_mode_round_trips_through_disk(self, tmp_path):
        path = tmp_path / "trace.mfr"
        with FlightRecorder(path, meta={"config": {"k": 2}}) as rec:
            assert rec.mode == "stream"
            rec.record("request", 0.5, request={"request_id": "a"})
            rec.record("decision", 0.7, decision={"request_id": "a"})
            rec.flush()
            assert rec.flushes == 1
        loaded = Recording.load(path)
        assert loaded.meta["config"] == {"k": 2}
        assert [r["event"] for r in loaded.records] == ["request", "decision"]
        assert loaded.request_ids == ["a"]

    def test_flush_is_a_durability_barrier(self, tmp_path):
        """Everything recorded before flush() is loadable even though the
        recorder was never closed (simulates a process kill after flush)."""
        path = tmp_path / "killed.mfr"
        rec = FlightRecorder(path, meta={})
        rec.record("fire", 1.0, op="pump")
        rec.flush()
        loaded = Recording.load(path)  # file handle still open
        assert len(loaded.records) == 1
        rec.close()

    def test_torn_tail_strict_vs_tolerated(self, tmp_path):
        path = tmp_path / "torn.mfr"
        with FlightRecorder(path, meta={}) as rec:
            rec.record("fire", 1.0, op="pump")
            rec.record("fire", 2.0, op="flush")
        data = path.read_bytes()
        path.write_bytes(data[:-7])  # tear the last frame mid-payload
        with pytest.raises(FrameTruncated):
            Recording.load(path)
        loaded = Recording.load(path, tolerate_torn_tail=True)
        assert [r["t"] for r in loaded.records] == [1.0]

    def test_crc_corruption_always_raises(self, tmp_path):
        path = tmp_path / "corrupt.mfr"
        with FlightRecorder(path, meta={}) as rec:
            rec.record("fire", 1.0, op="pump")
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF  # flip the CRC trailer of the last frame
        path.write_bytes(bytes(data))
        with pytest.raises(FrameCorrupt):
            Recording.load(path, tolerate_torn_tail=True)

    def test_wrong_leading_frame_rejected(self, tmp_path):
        path = tmp_path / "bad.mfr"
        path.write_bytes(encode_frame({"kind": "not_meta"}))
        with pytest.raises(RecordingError, match="replay_meta"):
            Recording.load(path)

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)

    def test_ring_dump_round_trips(self, tmp_path):
        rec = FlightRecorder(meta={"config": {"k": 1}})
        rec.record("fire", 1.0, op="pump")
        rec.record("fire", 2.0, op="step")
        out = rec.dump(tmp_path / "ring.mfr")
        loaded = Recording.load(out)
        assert loaded.meta["config"] == {"k": 1}
        assert [r["op"] for r in loaded.records] == ["pump", "step"]


# ======================================================================
# service config
# ======================================================================
class TestServiceConfig:
    def test_round_trip_through_json_with_inf_and_faults(self):
        config = make_config(
            cache_ttl_s=math.inf,
            faults={"crash_at": 2, "crash_point": "service_batch"},
            fault_seed=7,
        )
        payload = json.loads(json.dumps(config.to_dict()))
        assert ServiceConfig.from_dict(payload) == config

    def test_from_dict_ignores_unknown_keys(self):
        payload = make_config().to_dict()
        payload["mystery_knob"] = 42
        assert ServiceConfig.from_dict(payload) == make_config()

    def test_with_overrides(self):
        config = make_config()
        assert config.with_overrides(cache_capacity=99).cache_capacity == 99
        with pytest.raises(ValueError, match="unknown"):
            config.with_overrides(not_a_field=1)


# ======================================================================
# deterministic replay
# ======================================================================
class TestReplay:
    def test_record_replay_bit_exact(self):
        model = make_model()
        recorder, _ = record_trace(make_config(), model, n=24)
        report = replay_recording(recorder.recording(), model)
        assert report.ok()
        assert report.requests == 24
        assert report.matched == 24
        assert report.first_divergence is None

    def test_latency_is_timing_metadata_not_decision(self):
        """Tampering only latency_s must NOT count as divergence."""
        model = make_model()
        recorder, _ = record_trace(make_config(), model, n=6)
        recording = recorder.recording()
        for rec in recording.records:
            if rec["event"] == "decision":
                rec["decision"]["latency_s"] = 1234.5
        assert replay_recording(recording, model).ok()

    def test_tampered_decision_reports_field_and_values(self):
        model = make_model()
        recorder, _ = record_trace(make_config(), model, n=6)
        recording = recorder.recording()
        target = next(
            r for r in recording.records if r["event"] == "decision"
        )
        original = target["decision"]["dram_pages_granted"]
        target["decision"]["dram_pages_granted"] = original + 17
        report = replay_recording(recording, model)
        assert report.divergent == 1
        div = report.first_divergence
        assert div is not None
        assert div.request_id == target["decision"]["request_id"]
        assert div.field == "dram_pages_granted"
        assert div.expected == original + 17
        assert div.got == original
        assert "pending_depth" in div.context
        assert "cache" in div.context

    def test_deleted_decision_counts_as_duplicated(self):
        """A recorded trace missing one decision record: the replay still
        produces it, so the id is flagged (conservation accounting)."""
        model = make_model()
        recorder, _ = record_trace(make_config(), model, n=6)
        recording = recorder.recording()
        idx = next(
            i for i, r in enumerate(recording.records) if r["event"] == "decision"
        )
        dropped = recording.records.pop(idx)["decision"]["request_id"]
        report = replay_recording(recording, model)
        assert not report.ok()
        assert dropped in report.duplicated_ids or dropped in report.unexpected_ids

    def test_missing_fire_op_leaves_requests_undecided(self):
        model = make_model()
        recorder, _ = record_trace(make_config(), model, n=6)
        recording = recorder.recording()
        recording.records = [
            r for r in recording.records if r.get("event") != "fire"
        ]
        report = replay_recording(recording, model)
        assert not report.ok()
        assert report.lost == 6
        assert len(report.undecided_ids) == 6

    def test_config_required(self):
        model = make_model()
        rec = FlightRecorder(meta={})
        rec.record("fire", 0.0, op="pump")
        with pytest.raises(ValueError, match="config"):
            replay_recording(rec.recording(), model)

    def test_unknown_fire_op_rejected(self):
        model = make_model()
        rec = FlightRecorder(meta={"config": make_config().to_dict()})
        rec.record("fire", 0.0, op="explode")
        with pytest.raises(ValueError, match="explode"):
            replay_recording(rec.recording(), model)

    def test_replay_reproduces_cache_and_fault_schedule(self):
        """Crash at the 2nd batch + cache hits: the replay rebuilds both
        from the recorded config, not from the live objects."""
        model = make_model()
        config = make_config(
            faults={"crash_at": 2, "crash_point": "service_batch"},
            fault_seed=3,
        )
        recorder, server = record_trace(config, model, n=16, pump_every=4)
        assert server.faults is not None and server.faults.crash_fired
        assert server.cache is not None and server.cache.hits > 0
        report = replay_recording(recorder.recording(), model)
        assert report.ok()


# ======================================================================
# shed-never-drop under a replayed overload trace (satellite)
# ======================================================================
class TestReplayedOverloadInvariant:
    def test_every_request_decided_exactly_once_across_worker_kill(self):
        """Overload trace + mid-trace worker kill with zero retries: every
        recorded request id appears exactly once in the replayed decisions
        (planned, cached, deduplicated, or daemon-shed) -- and bit-exact."""
        model = make_model()
        config = make_config(
            max_queue=4,
            resume_below=1,
            max_batch_retries=0,
            faults={"crash_at": 2, "crash_point": "service_batch"},
            fault_seed=9,
        )
        recorder = FlightRecorder(meta={"config": config.to_dict()})
        clock = VirtualClock()
        server = build_server(config, model, clock=clock, recorder=recorder)
        n = 40
        t = 0.0
        for i in range(n):
            t += 0.0005  # much faster than the window drains
            clock.advance_to(t)
            server.submit(make_request(f"ov-{i:03d}", shape=i % 2), now=t)
            if i % 8 == 7:
                server.pump(now=t)
        server.flush(now=t + 1.0)
        assert server.faults.crash_fired  # the kill really happened
        assert server.admission.shed_count > 0  # admission really tripped

        recording = recorder.recording()
        report = replay_recording(recording, model)
        assert report.ok(), report.to_dict()

        # exactly-once accounting straight from the journal
        decided = {}
        for rec in recording.events("decision"):
            rid = rec["decision"]["request_id"]
            decided[rid] = decided.get(rid, 0) + 1
        assert set(decided) == set(recording.request_ids)
        assert all(count == 1 for count in decided.values())
        statuses = {r["decision"]["status"] for r in recording.events("decision")}
        assert "shed" in statuses  # both admission sheds and the crash shed
        assert statuses <= {"planned", "cached", "deduplicated", "shed"}


# ======================================================================
# A/B backtester
# ======================================================================
def overload_recording(model, n=60):
    """A trace whose arrival rate saturates a cache-less planner under the
    deterministic cost model (but not a cached one)."""
    config = make_config(max_batch=8, max_queue=16, resume_below=4)
    recorder, _ = record_trace(
        config, model, n=n, spacing=0.001, pump_every=4
    )
    return recorder.recording(), config


class TestBacktest:
    def test_deterministic_across_runs(self):
        model = make_model()
        recording, config = overload_recording(model)
        configs = {"incumbent": config}
        a = backtest(recording, model, configs, cost=CostModel())
        b = backtest(recording, model, configs, cost=CostModel())
        assert a == b

    def test_degraded_cache_worsens_slo(self):
        model = make_model()
        recording, config = overload_recording(model)
        result = backtest(
            recording,
            model,
            {
                "incumbent": config,
                "degraded": config.with_overrides(cache_ttl_s=1e-9),
            },
            cost=CostModel(),
        )
        inc = result["configs"]["incumbent"]
        deg = result["configs"]["degraded"]
        assert result["requests"] == 60
        assert inc["answered"] == deg["answered"] == 60  # never dropped
        assert deg["p95_s"] > inc["p95_s"] * 1.25
        assert deg["shed_rate"] > inc["shed_rate"]

    def test_report_shape(self):
        model = make_model()
        recording, config = overload_recording(model, n=12)
        result = backtest(recording, model, {"only": config})
        slo = result["configs"]["only"]
        for key in (
            "requests", "answered", "shed", "shed_rate", "p50_s", "p95_s",
            "mean_s", "throughput_rps", "makespan_s", "migration_pages",
            "quota_highwater_pages",
        ):
            assert key in slo
        assert slo["migration_pages"] > 0
        assert slo["quota_highwater_pages"] > 0


# ======================================================================
# SLO gate
# ======================================================================
BASELINE = {
    "replay": {"divergence_max": 0, "lost_max": 0, "duplicated_max": 0},
    "slo": {
        "p50_latency_ratio_max": 1.25,
        "p95_latency_ratio_max": 1.25,
        "shed_rate_increase_max": 0.02,
        "migration_pages_ratio_max": 1.10,
        "quota_highwater_ratio_max": 1.25,
    },
}


class TestEvaluateGate:
    def test_clean_replay_and_identical_slo_pass(self):
        model = make_model()
        recorder, _ = record_trace(make_config(), model, n=8)
        report = replay_recording(recorder.recording(), model)
        slo = {"p50_s": 1.0, "p95_s": 2.0, "shed_rate": 0.0,
               "migration_pages": 100, "quota_highwater_pages": 10}
        assert evaluate_gate(
            BASELINE, replay=report, incumbent=slo, candidate=dict(slo)
        ) == []

    def test_divergence_violates_with_structured_detail(self):
        model = make_model()
        recorder, _ = record_trace(make_config(), model, n=6)
        recording = recorder.recording()
        target = next(r for r in recording.records if r["event"] == "decision")
        target["decision"]["batch_size"] += 1
        report = replay_recording(recording, model)
        violations = evaluate_gate(BASELINE, replay=report)
        assert len(violations) == 1
        v = violations[0]
        assert v["threshold"] == "replay.divergence_max"
        assert v["observed"] == 1 and v["limit"] == 0
        assert v["first_divergence"]["field"] == "batch_size"

    def test_slo_regression_names_thresholds(self):
        inc = {"p50_s": 1.0, "p95_s": 2.0, "shed_rate": 0.0,
               "migration_pages": 100, "quota_highwater_pages": 10}
        bad = {"p50_s": 1.1, "p95_s": 9.0, "shed_rate": 0.5,
               "migration_pages": 100, "quota_highwater_pages": 40}
        names = {
            v["threshold"]
            for v in evaluate_gate(BASELINE, incumbent=inc, candidate=bad)
        }
        assert names == {
            "slo.p95_latency_ratio_max",
            "slo.shed_rate_increase_max",
            "slo.quota_highwater_ratio_max",
        }

    def test_zero_incumbent_guard(self):
        inc = {"p50_s": 0.0, "p95_s": 0.0, "shed_rate": 0.0,
               "migration_pages": 0, "quota_highwater_pages": 0}
        cand = dict(inc)
        assert evaluate_gate(BASELINE, incumbent=inc, candidate=cand) == []
        cand2 = dict(inc, p95_s=0.5)
        names = {
            v["threshold"]
            for v in evaluate_gate(BASELINE, incumbent=inc, candidate=cand2)
        }
        assert "slo.p95_latency_ratio_max" in names


class TestBaselineLocation:
    def test_baseline_read_from_the_checkout_not_the_cwd(
        self, tmp_path, monkeypatch
    ):
        from repro.experiments.replay_gate import _baseline

        checkout = Path(__file__).resolve().parents[1]
        committed = json.loads(
            (checkout / ".github" / "slo-baseline.json").read_text()
        )
        monkeypatch.chdir(tmp_path)
        assert _baseline() == committed
        assert gate_cli.load_baseline() == committed


class TestGateCli:
    def _recorded_file(self, tmp_path, model):
        config = make_config(max_batch=8, max_queue=16, resume_below=4)
        path = tmp_path / "trace.mfr"
        recorder = FlightRecorder(path, meta={"config": config.to_dict()})
        record_trace(
            config, model, n=60, spacing=0.001, pump_every=4, recorder=recorder
        )
        recorder.close()
        baseline = tmp_path / "slo-baseline.json"
        baseline.write_text(json.dumps(BASELINE))
        return path, baseline

    def test_passes_clean_recording(self, tmp_path, capsys):
        model = make_model()
        path, baseline = self._recorded_file(tmp_path, model)
        out = tmp_path / "report.json"
        code = gate_cli.main(
            [str(path), "--baseline", str(baseline), "--json", str(out)],
            model=model,
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["ok"] is True
        assert report["replay"]["divergent"] == 0
        assert "incumbent" in report["backtest"]["configs"]

    def test_degraded_candidate_fails_with_named_thresholds(
        self, tmp_path, capsys
    ):
        model = make_model()
        path, baseline = self._recorded_file(tmp_path, model)
        out = tmp_path / "report.json"
        code = gate_cli.main(
            [
                str(path), "--baseline", str(baseline),
                "--candidate", "cache_ttl_s=1e-9", "--json", str(out),
            ],
            model=model,
        )
        assert code == 1
        report = json.loads(out.read_text())
        assert report["ok"] is False
        names = {v["threshold"] for v in report["violations"]}
        assert "slo.p95_latency_ratio_max" in names
        err = capsys.readouterr().err
        assert "GATE FAILED" in err
        assert "slo.p95_latency_ratio_max" in err

    def test_builds_model_from_recorded_seed_when_not_injected(
        self, tmp_path, monkeypatch, capsys
    ):
        """Without ``model=``, the CLI rebuilds the planner from the
        recording's ``model_seed``/``fast`` meta (weights never travel)."""
        import repro.experiments.common as common

        model = make_model()
        path, baseline = self._recorded_file(tmp_path, model)
        seen = {}

        class _FakeContext:
            def __init__(self, seed, fast):
                seen.update(seed=seed, fast=fast)
                self.system = type("S", (), {"performance_model": model})()

        monkeypatch.setattr(common, "ExperimentContext", _FakeContext)
        code = gate_cli.main(
            [str(path), "--baseline", str(baseline), "--seed", "7"]
        )
        assert code == 0
        # meta has no model_seed here, so the --seed fallback applies
        assert seen == {"seed": 7, "fast": True}

    def test_unknown_candidate_field_rejected(self, tmp_path):
        model = make_model()
        path, baseline = self._recorded_file(tmp_path, model)
        with pytest.raises(SystemExit):
            gate_cli.main(
                [str(path), "--baseline", str(baseline),
                 "--candidate", "bogus=1"],
                model=model,
            )


class TestFixturesCli:
    def test_records_and_verifies_golden_trace(self, tmp_path, capsys):
        model = make_model()
        code = fixtures_cli.main(
            ["--out", str(tmp_path), "--clients", "2", "--per-client", "8"],
            model=model,
        )
        assert code == 0
        path = tmp_path / fixtures_cli.GOLDEN_NAME
        assert path.exists()
        recording = Recording.load(path)
        assert recording.n_requests == 16
        assert recording.meta["model_seed"] == 0
        assert replay_recording(recording, model).ok()
        out = capsys.readouterr().out
        assert "bit-exact" in out


# ======================================================================
# transport integration: wire faults + teardown accounting
# ======================================================================
class TestTransportRecording:
    def test_loopback_trace_replays_and_teardown_counted(self, tmp_path):
        from repro.core.telemetry import Telemetry

        model = make_model()
        telemetry = Telemetry()
        recording, stats = fixtures_cli.record_loopback_trace(
            model,
            tmp_path / "loop.mfr",
            seed=1,
            n_clients=2,
            per_client=10,
            tag="t",
            telemetry=telemetry,
        )
        assert recording.n_requests == 20
        report = replay_recording(recording, model)
        assert report.ok(), report.to_dict()
        # stopping the transport cancels the pump loop: the teardown event
        # is journaled + counted, never silently swallowed
        assert stats["teardown_errors"] >= 1
        counter = telemetry.registry.get("merch_transport_teardown_errors_total")
        assert counter.value(path="pump_cancel") >= 1
