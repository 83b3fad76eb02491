"""Tests for the placement service subsystem (``repro/service``).

Covers the wire protocol (round-trips + version rejection), windowed
batching and in-flight dedup under a virtual clock, LRU+TTL cache
behaviour and invalidation-on-refinement, admission-control shedding,
shared-quota conservation across concurrent tenants, the worker pool,
and a chaos case where a planning worker crashes mid-batch.
"""

import dataclasses
import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.common import PAGE_SIZE
from repro.core.model import PerformanceModel
from repro.service import (
    AdmissionConfig,
    AdmissionController,
    PlacementRequest,
    PlacementServer,
    PredictionCache,
    ProtocolError,
    TaskSpec,
    WorkerPool,
    bucket_ratio,
    decode_decision,
    decode_request,
    encode_decision,
    encode_request,
)
from repro.replay.fixtures import region_catalogue
from repro.service.protocol import from_json, to_json
from repro.sim.faults import FaultConfig, FaultInjector
from tests.oracles import service as reference
from tests.oracles.correlation import UnitCorrelation

MB = 1 << 20


def _float_bits(x: float) -> bytes:
    return np.float64(x).tobytes()


def test_importing_the_service_loads_no_scipy():
    """The decision path calls no scipy function, so importing the service
    (or the apps that build its requests) must not pay scipy's memory:
    scipy is imported where it is called."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    code = (
        "import sys, repro.service, repro.apps; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "[]"


class _VClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


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
    """Requests with equal ``shape`` share a region fingerprint."""
    tasks = tuple(
        spec(f"s{shape}:t{i}", t_pm=20.0 + 5.0 * shape + i, size=(4 + shape) * MB)
        for i in range(n_tasks)
    )
    return PlacementRequest(request_id=rid, tenant=tenant, tasks=tasks)


def make_server(capacity=64 * MB, **kw):
    corr = UnitCorrelation()
    clock = _VClock()
    server = PlacementServer(
        PerformanceModel(corr), dram_capacity_bytes=capacity, clock=clock, **kw
    )
    return server, clock, corr


# ======================================================================
# protocol
# ======================================================================
class TestProtocol:
    def test_request_round_trip(self):
        req = make_request("r1", tenant="corp", shape=2)
        assert decode_request(encode_request(req)) == req

    def test_request_round_trip_through_json(self):
        req = make_request("r2")
        assert decode_request(from_json(to_json(encode_request(req)))) == req

    def test_decision_round_trip(self):
        server, clock, _ = make_server()
        dec = server.request(make_request("r3"))
        assert decode_decision(encode_decision(dec)) == dec

    def test_unknown_version_rejected(self):
        payload = encode_request(make_request("r4"))
        payload["v"] = 99
        with pytest.raises(ProtocolError, match="version"):
            decode_request(payload)

    def test_missing_version_rejected(self):
        payload = encode_request(make_request("r5"))
        del payload["v"]
        with pytest.raises(ProtocolError, match="version"):
            decode_request(payload)

    def test_wrong_kind_rejected(self):
        payload = encode_request(make_request("r6"))
        with pytest.raises(ProtocolError, match="placement_decision"):
            decode_decision(payload)

    def test_malformed_request_rejected(self):
        payload = encode_request(make_request("r7"))
        del payload["tasks"]
        with pytest.raises(ProtocolError, match="malformed"):
            decode_request(payload)

    def test_invalid_json_rejected(self):
        with pytest.raises(ProtocolError, match="JSON"):
            from_json("{not json")

    def test_task_validation(self):
        with pytest.raises(ProtocolError):
            spec("bad", t_pm=-1.0)
        with pytest.raises(ProtocolError):
            spec("bad", size=0)

    def test_empty_request_rejected(self):
        with pytest.raises(ProtocolError):
            PlacementRequest(request_id="r", tenant="t", tasks=())

    def test_unknown_decision_status_rejected(self):
        server, _, _ = make_server()
        dec = server.request(make_request("r8"))
        with pytest.raises(ProtocolError):
            dataclasses.replace(dec, status="maybe")

    def test_fingerprint_is_tenant_free_and_shape_sensitive(self):
        a = make_request("ra", tenant="one", shape=1)
        b = make_request("rb", tenant="two", shape=1)
        c = make_request("rc", tenant="one", shape=2)
        assert a.region_fingerprint == b.region_fingerprint
        assert a.region_fingerprint != c.region_fingerprint

    def test_fingerprint_matches_per_request_formula(self):
        # each spec's line is formatted once; the digest input must stay
        # the bytes the per-request formatting hashed
        shapes = region_catalogue(seed=3, n_shapes=4, tasks_per_shape=3)
        odd = TaskSpec(
            task_id="tâche|0",
            t_pm_only=1e-300,
            t_dram_only=0.1 + 0.2,
            total_accesses=2.0**60,
            pmcs={"b": float("nan"), "a": -0.0, "é": float("inf"), "c": 1 / 3},
            size_bytes=1,
        )
        shapes.append((spec("z"), odd, spec("a", e=7.5)))
        for tasks in shapes:
            req = PlacementRequest(request_id="r", tenant="t", tasks=tasks)
            assert req.region_fingerprint == _reference_fingerprint(req)
            rev = PlacementRequest(request_id="q", tenant="u", tasks=tasks[::-1])
            assert rev.region_fingerprint == req.region_fingerprint
        assert odd.fingerprint_line is odd.fingerprint_line


def _reference_fingerprint(req: PlacementRequest) -> str:
    """The region fingerprint formatted from every task on every call."""
    h = hashlib.sha256()
    for t in sorted(req.tasks, key=lambda t: t.task_id):
        h.update(
            f"{t.task_id}|{t.t_pm_only!r}|{t.t_dram_only!r}|"
            f"{t.total_accesses!r}|{t.size_bytes}|".encode()
        )
        for name in sorted(t.pmcs):
            h.update(f"{name}={t.pmcs[name]!r};".encode())
    return h.hexdigest()[:16]


# ======================================================================
# batching + dedup under a virtual clock
# ======================================================================
class TestBatching:
    def test_window_coalesces_requests(self):
        server, clock, _ = make_server(window_s=0.005, max_batch=32)
        assert server.submit(make_request("r1", shape=0), now=0.0) is None
        assert server.submit(make_request("r2", shape=1), now=0.002) is None
        clock.now = 0.004
        assert server.pump() == []  # window (anchored at the oldest) open
        clock.now = 0.005
        decisions = server.pump()
        assert len(decisions) == 2
        assert all(d.batch_size == 2 for d in decisions)
        assert {d.status for d in decisions} == {"planned"}

    def test_max_batch_fires_early(self):
        server, clock, _ = make_server(window_s=1e9, max_batch=2)
        server.submit(make_request("r1", shape=0), now=0.0)
        server.submit(make_request("r2", shape=1), now=0.0)
        assert len(server.pump(now=0.0)) == 2

    def test_step_fires_one_batch_at_a_time(self):
        server, clock, _ = make_server(window_s=0.0, max_batch=2)
        for i in range(4):
            server.submit(make_request(f"r{i}", shape=i), now=0.0)
        assert len(server.step(now=0.0)) == 2
        assert server.scheduler.pending_depth == 2
        assert len(server.step(now=0.0)) == 2

    def test_same_tenant_duplicates_deduplicated(self):
        server, clock, _ = make_server(window_s=0.0)
        server.submit(make_request("r1", tenant="acme", shape=3), now=0.0)
        server.submit(make_request("r2", tenant="acme", shape=3), now=0.0)
        decisions = {d.request_id: d for d in server.flush(now=0.0)}
        statuses = sorted(d.status for d in decisions.values())
        assert statuses == ["deduplicated", "planned"]
        planned = next(d for d in decisions.values() if d.status == "planned")
        dup = next(d for d in decisions.values() if d.status == "deduplicated")
        assert dup.placements == planned.placements

    def test_distinct_tenants_not_deduplicated(self):
        server, clock, _ = make_server(window_s=0.0)
        server.submit(make_request("r1", tenant="one", shape=3), now=0.0)
        server.submit(make_request("r2", tenant="two", shape=3), now=0.0)
        decisions = server.flush(now=0.0)
        assert [d.status for d in decisions] == ["planned", "planned"]

    def test_identical_fingerprints_same_window_across_tenants(self):
        # boundary: two tenants, bit-identical region fingerprints, ONE
        # batching window -- dedup must stay per-tenant (each gets its own
        # planned quota) while the shared budget is conserved across both
        server, clock, _ = make_server(window_s=0.005, max_batch=32)
        a = make_request("ra", tenant="one", shape=3)
        b = make_request("rb", tenant="two", shape=3)
        assert a.region_fingerprint == b.region_fingerprint
        server.submit(a, now=0.0)
        server.submit(b, now=0.0)
        decisions = {d.request_id: d for d in server.pump(now=0.005)}
        assert [decisions[r].status for r in ("ra", "rb")] == [
            "planned",
            "planned",
        ]
        # same question, same batch: the arbiter must answer identically
        assert decisions["ra"].placements == decisions["rb"].placements
        capacity_pages = (64 * MB) // PAGE_SIZE
        assert (
            decisions["ra"].dram_pages_granted
            + decisions["rb"].dram_pages_granted
            <= capacity_pages
        )

    def test_batched_planning_is_deterministic(self):
        def drive():
            server, clock, _ = make_server(window_s=0.01, max_batch=8)
            for i in range(6):
                server.submit(
                    make_request(f"r{i}", tenant=f"t{i % 2}", shape=i % 3),
                    now=0.001 * i,
                )
            return server.flush(now=0.02)

        first, second = drive(), drive()
        assert first == second

    def test_latency_stamped_on_server_clock(self):
        server, clock, _ = make_server(window_s=0.0)
        server.submit(make_request("r1"), now=1.0)
        clock.now = 5.0
        (dec,) = server.pump(now=5.0)
        assert dec.latency_s == pytest.approx(4.0)


# ======================================================================
# prediction cache
# ======================================================================
class TestPredictionCache:
    def test_lru_eviction_order(self):
        cache = PredictionCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refreshes a's LRU position
        cache.put("c", 3)
        assert cache.get("b") is None  # b was least recently used
        assert cache.get("a") == 1 and cache.get("c") == 3
        assert cache.evictions["capacity"] == 1

    def test_ttl_expiry_on_virtual_clock(self):
        clock = _VClock()
        cache = PredictionCache(capacity=8, ttl_s=10.0, clock=clock)
        cache.put("k", "v")
        clock.now = 9.999
        assert cache.get("k") == "v"
        clock.now = 10.0
        assert cache.get("k") is None
        assert cache.evictions["ttl"] == 1

    def test_ttl_expiry_exactly_at_nonzero_put_time(self):
        # boundary: expiry is exactly put_time + ttl on a clock that did
        # not start at zero (the live >= expires_at edge, not a window)
        clock = _VClock()
        clock.now = 7.25
        cache = PredictionCache(capacity=8, ttl_s=10.0, clock=clock)
        cache.put("k", "v")
        clock.now = 17.249999
        assert cache.get("k") == "v"
        clock.now = 17.25
        assert cache.get("k") is None
        assert cache.evictions["ttl"] == 1

    def test_ttl_refreshed_by_re_put(self):
        clock = _VClock()
        cache = PredictionCache(capacity=8, ttl_s=10.0, clock=clock)
        cache.put("k", "v1")
        clock.now = 9.0
        cache.put("k", "v2")  # re-put restamps the deadline to 19.0
        clock.now = 10.0
        assert cache.get("k") == "v2"  # would have expired without re-put
        clock.now = 19.0
        assert cache.get("k") is None
        assert cache.evictions["ttl"] == 1

    def test_tag_invalidation(self):
        cache = PredictionCache(capacity=8)
        cache.put("k1", 1, tags=("region-a",))
        cache.put("k2", 2, tags=("region-a",))
        cache.put("k3", 3, tags=("region-b",))
        assert cache.invalidate_tag("region-a") == 2
        assert cache.get("k1") is None and cache.get("k2") is None
        assert cache.get("k3") == 3
        assert cache.evictions["invalidated"] == 2

    def test_stats_and_hit_ratio(self):
        cache = PredictionCache(capacity=4)
        cache.put("k", 1)
        cache.get("k")
        cache.get("absent")
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["hit_ratio"] == pytest.approx(0.5)

    def test_bucket_ratio_snaps_to_grid(self):
        # a cache key is compared by equality, so the bucket must be the
        # reference's float bit for bit, not merely close to it
        for r_dram in (0.123, 0.13, 1.0):
            assert _float_bits(bucket_ratio(r_dram)) == _float_bits(
                reference.bucket_ratio(r_dram)
            )
        assert bucket_ratio(0.123) == 0.1
        assert bucket_ratio(0.13) == 0.15
        assert bucket_ratio(1.0) == 1.0
        with pytest.raises(ValueError):
            bucket_ratio(0.5, step=0.0)

    @pytest.mark.parametrize("step", [0.05, 0.1, 0.025, 0.01])
    def test_bucket_ratio_matches_numpy_reference(self, step):
        rng = np.random.default_rng(int(step * 1000))
        subnormal = 5e-324
        values = [
            0.0, -0.0, 1.0, -1.0, 1.0 + step, 7.3, 1e-12, -1e-12,
            subnormal, -subnormal, 1e-310, sys.float_info.min,
            0.4 * step, -0.4 * step, 1e300, -1e300, sys.float_info.max,
            math.nan, math.inf, -math.inf,
        ]
        # half-step ties, exact grid points and their neighbours
        for i in range(-25, 45):
            for v in ((i + 0.5) * step, i * step):
                values += [v, math.nextafter(v, -math.inf), math.nextafter(v, math.inf)]
        values += rng.uniform(-0.5, 1.5, 2000).tolist()
        values += (rng.normal(size=200) * 1e-9).tolist()
        for r_dram in values:
            # near the top of the float range both sides overflow to inf
            with np.errstate(over="ignore"):
                got = bucket_ratio(r_dram, step)
                want = reference.bucket_ratio(r_dram, step)
            assert type(got) is float
            assert _float_bits(got) == _float_bits(want), (r_dram, got, want)

    def test_validation(self):
        with pytest.raises(ValueError):
            PredictionCache(capacity=0)
        with pytest.raises(ValueError):
            PredictionCache(ttl_s=0.0)


class TestServerCache:
    def test_repeat_request_served_from_cache(self):
        cache = PredictionCache(capacity=32)
        server, clock, corr = make_server(window_s=0.0, cache=cache)
        first = server.request(make_request("r1", shape=1), now=0.0)
        calls = corr.calls
        second = server.request(make_request("r2", shape=1), now=1.0)
        assert first.status == "planned" and second.status == "cached"
        assert corr.calls == calls  # no model work for the hit
        assert second.placements == first.placements

    def test_cache_shared_across_tenants_in_later_windows(self):
        # the cache key is tenant-free (unlike the dedup key): tenant two
        # asking the identical shape in a LATER window reuses tenant
        # one's decision instead of re-planning
        cache = PredictionCache(capacity=32)
        server, clock, corr = make_server(window_s=0.0, cache=cache)
        first = server.request(make_request("r1", tenant="one", shape=1), now=0.0)
        calls = corr.calls
        second = server.request(make_request("r2", tenant="two", shape=1), now=1.0)
        assert second.status == "cached" and corr.calls == calls
        assert second.placements == first.placements

    def test_alpha_refinement_invalidates_region(self):
        cache = PredictionCache(capacity=32)
        server, clock, corr = make_server(window_s=0.0, cache=cache)
        server.request(make_request("r1", shape=1), now=0.0)
        fp = make_request("rx", shape=1).region_fingerprint
        assert server.on_alpha_refined(fp) == 1
        assert server.log.count("service.cache_invalidated") == 1
        again = server.request(make_request("r2", shape=1), now=1.0)
        assert again.status == "planned"  # not served stale

    def test_quarantine_invalidates_region(self):
        cache = PredictionCache(capacity=32)
        server, clock, _ = make_server(window_s=0.0, cache=cache)
        server.request(make_request("r1", shape=2), now=0.0)
        fp = make_request("rx", shape=2).region_fingerprint
        assert server.on_quarantine(fp) == 1
        ev = server.log.events[-1]
        assert ev.detail["reason"] == "guardrail_quarantine"

    def test_cache_hit_is_isolated_between_quota_buckets(self):
        """A decision is only reusable under the same DRAM pressure."""
        cache = PredictionCache(capacity=32)
        small, _, _ = make_server(capacity=8 * MB, window_s=0.0, cache=cache)
        small.request(make_request("r1", shape=1), now=0.0)
        big, _, _ = make_server(capacity=640 * MB, window_s=0.0, cache=cache)
        dec = big.request(make_request("r2", shape=1), now=0.0)
        assert dec.status == "planned"  # different bucket, no stale reuse


# ======================================================================
# admission control + shedding
# ======================================================================
class TestAdmission:
    def test_hysteresis_thresholds(self):
        ctl = AdmissionController(AdmissionConfig(max_queue=3, resume_below=1))
        assert ctl.admit(queue_depth=2, now=0.0)
        assert not ctl.admit(queue_depth=3, now=1.0)  # trips saturated
        assert not ctl.admit(queue_depth=2, now=2.0)  # still above resume
        assert ctl.admit(queue_depth=1, now=3.0)  # drained: re-admits
        assert ctl.shed_count == 2 and ctl.admitted_count == 2
        kinds = [ev.kind for ev in ctl.log.events]
        assert kinds == [
            "service.saturated",
            "service.shed",
            "service.shed",
            "service.resumed",
        ]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AdmissionConfig(max_queue=0)
        with pytest.raises(ValueError):
            AdmissionConfig(max_queue=4, resume_below=4)

    def test_server_sheds_to_daemon_when_saturated(self):
        server, clock, _ = make_server(
            window_s=1e9,
            max_batch=64,
            admission=AdmissionConfig(max_queue=2, resume_below=0),
        )
        assert server.submit(make_request("r0", shape=0), now=0.0) is None
        assert server.submit(make_request("r1", shape=1), now=0.0) is None
        shed = server.submit(make_request("r2", shape=2), now=0.0)
        assert shed is not None
        assert shed.status == "shed" and shed.policy == "daemon"
        assert shed.dram_pages_granted == 0 and shed.placements == ()
        server.flush(now=1.0)
        assert server.submitted == server.decided == 3  # never lost

    def test_shed_decision_predicts_pm_only_makespan(self):
        server, _, _ = make_server(
            admission=AdmissionConfig(max_queue=1, resume_below=0)
        )
        server.submit(make_request("r0"), now=0.0)
        shed = server.submit(make_request("r1", shape=1), now=0.0)
        worst = max(t.t_pm_only for t in make_request("rx", shape=1).tasks)
        assert shed.predicted_makespan_s == pytest.approx(worst)


# ======================================================================
# shared-quota arbitration
# ======================================================================
class TestQuotaConservation:
    def _granted_pages(self, decisions):
        """Pages held per unique planner/cache grant (dedup shares, not adds)."""
        return sum(
            d.dram_pages_granted
            for d in decisions
            if d.status in ("planned", "cached")
        )

    def test_concurrent_tenants_share_one_budget(self):
        capacity = 32 * MB
        server, clock, _ = make_server(capacity=capacity, window_s=0.0)
        for i, tenant in enumerate(("a", "b", "c", "d")):
            server.submit(make_request(f"r{i}", tenant=tenant, shape=i), now=0.0)
        decisions = server.flush(now=0.0)
        total = self._granted_pages(decisions)
        assert 0 < total <= capacity // PAGE_SIZE

    def test_cached_grants_count_against_the_batch_ledger(self):
        capacity = 32 * MB
        cache = PredictionCache(capacity=32)
        server, clock, _ = make_server(
            capacity=capacity, window_s=0.0, cache=cache
        )
        first = server.request(make_request("r0", tenant="a", shape=0), now=0.0)
        assert first.dram_pages_granted > 0
        # same shape (cache hit) + two fresh shapes in one batch
        server.submit(make_request("r1", tenant="a", shape=0), now=1.0)
        server.submit(make_request("r2", tenant="b", shape=1), now=1.0)
        server.submit(make_request("r3", tenant="c", shape=2), now=1.0)
        decisions = server.flush(now=1.0)
        assert {d.status for d in decisions} == {"cached", "planned"}
        assert self._granted_pages(decisions) <= capacity // PAGE_SIZE

    def test_cache_hit_leaves_only_the_remainder_for_fresh_requests(self):
        capacity = 16 * MB
        cache = PredictionCache(capacity=32)
        server, clock, _ = make_server(
            capacity=capacity, window_s=0.0, cache=cache
        )
        first = server.request(make_request("r0", tenant="a", shape=4), now=0.0)
        assert first.dram_pages_granted * PAGE_SIZE > 0.9 * capacity
        remainder = capacity // PAGE_SIZE - first.dram_pages_granted
        server.submit(make_request("r1", tenant="a", shape=4), now=1.0)
        server.submit(make_request("r2", tenant="b", shape=5), now=1.0)
        decisions = server.flush(now=1.0)
        assert self._granted_pages(decisions) <= capacity // PAGE_SIZE
        fresh = next(d for d in decisions if d.request_id == "r2")
        assert fresh.status == "planned"  # answered even with a tiny ledger
        assert fresh.dram_pages_granted <= remainder


# ======================================================================
# worker pool
# ======================================================================
def _double(x):
    return 2 * x


def _fail_on_two(x):
    if x == 2:
        raise ValueError(f"bad item {x}")
    return x


class TestWorkerPool:
    @pytest.mark.parametrize("mode", ["serial", "process"])
    def test_map_preserves_order_and_isolates_failures(self, mode):
        with WorkerPool(workers=2, mode=mode) as pool:
            results = pool.map(_fail_on_two, [1, 2, 3])
        assert [r.ok for r in results] == [True, False, True]
        assert [r.value for r in results if r.ok] == [1, 3]
        failed = results[1]
        assert failed.error_type == "ValueError"
        assert "bad item 2" in failed.traceback

    def test_failure_payload_matches_runner_shape(self):
        """JobResult.failure_payload() must normalise to the exact shape the
        experiment runner emits for in-experiment failures, so a pool-worker
        death and an experiment exception are indistinguishable downstream."""
        from repro.experiments.runner import _failure_payload

        with WorkerPool(workers=2, mode="serial") as pool:
            failed = pool.map(_fail_on_two, [2])[0]
        payload = failed.failure_payload()
        try:
            raise ValueError("bad item 2")
        except ValueError as exc:
            reference = _failure_payload(exc)
        assert set(payload) == set(reference)
        assert payload["failed"] is True
        assert payload["error_type"] == "ValueError"
        assert "bad item 2" in payload["error"]
        assert "bad item 2" in payload["traceback"]

    def test_failure_payload_requires_a_failure(self):
        with WorkerPool(workers=1, mode="serial") as pool:
            ok = pool.map(_double, [1])[0]
        with pytest.raises(ValueError):
            ok.failure_payload()

    def test_single_worker_coerces_serial(self):
        pool = WorkerPool(workers=1, mode="process")
        assert pool.mode == "serial"
        with pool:
            assert [r.value for r in pool.map(_double, [1, 2])] == [2, 4]

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            WorkerPool(mode="fleet")
        with pytest.raises(ValueError):
            WorkerPool(mode="thread")
        with pytest.raises(ValueError):
            WorkerPool(workers=0)


# ======================================================================
# chaos: a planning worker crashes mid-batch
# ======================================================================
class _AlwaysCrash:
    """Fault stub whose service_batch crash point fires on every consult."""

    def crash_due(self, point, now):
        return point == "service_batch"


class TestChaos:
    def test_injected_crash_is_retried_and_answered(self):
        faults = FaultInjector(
            FaultConfig(crash_at=1, crash_point="service_batch"), seed=3
        )
        server, clock, _ = make_server(window_s=0.0, faults=faults)
        for i in range(3):
            server.submit(make_request(f"r{i}", shape=i), now=0.0)
        decisions = server.flush(now=0.0)
        assert len(decisions) == 3
        assert {d.status for d in decisions} == {"planned"}  # retry succeeded
        assert server.log.count("service.batch_crashed") == 1
        assert server.log.count("service.batch_retried") == 1
        assert server.submitted == server.decided == 3

    def test_exhausted_retries_shed_but_never_lose(self):
        server, clock, _ = make_server(
            window_s=0.0, faults=_AlwaysCrash(), max_batch_retries=2
        )
        for i in range(3):
            server.submit(make_request(f"r{i}", shape=i), now=0.0)
        decisions = server.flush(now=0.0)
        assert len(decisions) == 3
        assert all(d.status == "shed" and d.policy == "daemon" for d in decisions)
        assert server.log.count("service.batch_crashed") == 1
        sheds = [ev for ev in server.log.events if ev.kind == "service.shed"]
        assert len(sheds) == 3
        assert all(ev.detail["cause"] == "worker_crash" for ev in sheds)
        assert server.submitted == server.decided == 3
