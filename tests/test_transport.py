"""Tests for the placement-service network transport.

Framing units (strict one-shot decode, incremental assembler), the
asyncio server + blocking client over real loopback sockets (round-trip,
idempotent resubmission, shed-at-admission, protocol errors, idle
timeout, backpressure accounting), chaos cases per wire fault model
(each request must end in exactly one decision), client fallback with no
server at all, and the multi-client soak asserting the never-lost /
never-duplicated invariants end to end.
"""

import socket
import threading
import time

import pytest

from repro.core.model import PerformanceModel
from repro.core.telemetry import Telemetry
from repro.service import (
    PlacementClient,
    PlacementRequest,
    PlacementServer,
    PlacementTransportServer,
    ProtocolError,
    RetryPolicy,
    TaskSpec,
    TransportError,
)
from repro.service.protocol import encode_request
from repro.service.transport.framing import (
    DEFAULT_MAX_FRAME,
    HEADER_SIZE,
    TRAILER_SIZE,
    FrameAssembler,
    FrameCorrupt,
    FrameError,
    FrameTooLarge,
    FrameTruncated,
    decode_frame,
    encode_frame,
)
from repro.sim.faults import FaultConfig, FaultInjector
from tests.oracles.correlation import UnitCorrelation

MB = 1 << 20

#: retry schedule tuned for loopback chaos tests: short timeouts, many
#: attempts, tiny backoff -- the suite stays fast while still exercising
#: every retry transition
FAST_RETRY = RetryPolicy(
    connect_timeout_s=2.0,
    request_timeout_s=0.5,
    max_attempts=6,
    backoff_base_s=0.01,
    backoff_cap_s=0.05,
)


def spec(tid, t_pm=30.0, t_dram=10.0, size=8 * MB):
    return TaskSpec(
        task_id=tid,
        t_pm_only=t_pm,
        t_dram_only=t_dram,
        total_accesses=1_000_000,
        pmcs={"E": 1.0},
        size_bytes=size,
    )


def make_request(rid, tenant="acme", shape=0, n_tasks=3):
    tasks = tuple(
        spec(f"s{shape}:t{i}", t_pm=20.0 + 5.0 * shape + i, size=(4 + shape) * MB)
        for i in range(n_tasks)
    )
    return PlacementRequest(request_id=rid, tenant=tenant, tasks=tasks)


def make_server(capacity=64 * MB, **kw):
    """A real-clock PlacementServer over the stub model (fast planning)."""
    return PlacementServer(
        PerformanceModel(UnitCorrelation()),
        dram_capacity_bytes=capacity,
        window_s=kw.pop("window_s", 0.0),
        max_batch=kw.pop("max_batch", 8),
        **kw,
    )


def wire_injector(seed=42, **rates) -> FaultInjector:
    return FaultInjector(FaultConfig(**rates), seed=seed)


# ======================================================================
# framing: one-shot decode
# ======================================================================
class TestFraming:
    MSG = {"v": 1, "kind": "demo", "payload": [1, 2.5, "x", None, True]}

    def test_round_trip(self):
        assert decode_frame(encode_frame(self.MSG)) == self.MSG

    def test_frame_layout(self):
        frame = encode_frame(self.MSG)
        assert frame[:2] == b"MF"
        declared = int.from_bytes(frame[3:7], "big")
        assert len(frame) == HEADER_SIZE + declared + TRAILER_SIZE

    def test_bad_magic(self):
        frame = bytearray(encode_frame(self.MSG))
        frame[0] ^= 0xFF
        with pytest.raises(FrameCorrupt, match="magic"):
            decode_frame(bytes(frame))

    def test_bad_version(self):
        frame = bytearray(encode_frame(self.MSG))
        frame[2] = 99
        with pytest.raises(FrameCorrupt, match="version"):
            decode_frame(bytes(frame))

    def test_corrupt_payload_fails_crc(self):
        frame = bytearray(encode_frame(self.MSG))
        frame[HEADER_SIZE + 2] ^= 0x01
        with pytest.raises(FrameCorrupt, match="CRC"):
            decode_frame(bytes(frame))

    def test_corrupt_trailer_fails_crc(self):
        frame = bytearray(encode_frame(self.MSG))
        frame[-1] ^= 0xFF
        with pytest.raises(FrameCorrupt, match="CRC"):
            decode_frame(bytes(frame))

    def test_truncated(self):
        frame = encode_frame(self.MSG)
        with pytest.raises(FrameTruncated):
            decode_frame(frame[: len(frame) - 3])
        with pytest.raises(FrameTruncated):
            decode_frame(frame[:3])

    def test_oversize_guard(self):
        with pytest.raises(FrameTooLarge):
            decode_frame(encode_frame(self.MSG), max_frame=4)

    def test_trailing_bytes_rejected(self):
        with pytest.raises(FrameError, match="trailing"):
            decode_frame(encode_frame(self.MSG) + b"x")

    def test_errors_are_typed(self):
        # every subclass is a FrameError is a ValueError
        for exc in (FrameCorrupt, FrameTruncated, FrameTooLarge):
            assert issubclass(exc, FrameError)
        assert issubclass(FrameError, ValueError)


# ======================================================================
# framing: incremental assembler
# ======================================================================
class TestFrameAssembler:
    def test_byte_at_a_time(self):
        msgs = [{"v": 1, "i": i} for i in range(3)]
        stream = b"".join(encode_frame(m) for m in msgs)
        asm = FrameAssembler()
        out = []
        for b in stream:
            out.extend(asm.feed(bytes([b])))
        assert out == msgs
        assert asm.pending_bytes == 0
        asm.close()  # clean boundary: no complaint

    def test_two_frames_in_one_chunk(self):
        a, b = {"v": 1, "x": "a"}, {"v": 1, "x": "b"}
        out = FrameAssembler().feed(encode_frame(a) + encode_frame(b))
        assert out == [a, b]

    def test_poisoned_after_error(self):
        asm = FrameAssembler()
        with pytest.raises(FrameCorrupt):
            asm.feed(b"XX" + b"\x00" * 16)
        with pytest.raises(FrameCorrupt, match="poisoned"):
            asm.feed(encode_frame({"v": 1}))

    def test_close_mid_frame_raises(self):
        asm = FrameAssembler()
        asm.feed(encode_frame({"v": 1, "pad": "y" * 64})[:10])
        assert asm.pending_bytes == 10
        with pytest.raises(FrameTruncated):
            asm.close()

    def test_oversize_rejected_from_header(self):
        asm = FrameAssembler(max_frame=8)
        with pytest.raises(FrameTooLarge):
            asm.feed(encode_frame({"v": 1, "pad": "y" * 64}))


# ======================================================================
# server + client over loopback
# ======================================================================
class TestLoopback:
    def test_round_trip_and_idempotent_resubmission(self):
        server = make_server()
        with PlacementTransportServer(server) as transport:
            with PlacementClient(*transport.address, retry=FAST_RETRY) as c:
                first = c.request(make_request("t1"))
                assert first.status == "planned"
                assert first.request_id == "t1"
                # same id again: answered from the record, not re-planned
                again = c.request(make_request("t1"))
                assert again == first
        assert transport.stats["resubmissions"] == 1
        assert server.submitted == 1 and server.decided == 1

    def test_many_requests_one_connection(self):
        server = make_server()
        with PlacementTransportServer(server) as transport:
            with PlacementClient(*transport.address, retry=FAST_RETRY) as c:
                decisions = [
                    c.request(make_request(f"m{i}", shape=i % 3))
                    for i in range(20)
                ]
        assert [d.request_id for d in decisions] == [f"m{i}" for i in range(20)]
        assert transport.stats["connections"] == 1
        assert server.submitted == server.decided == 20

    def test_shed_at_admission_still_answered(self):
        from repro.service import AdmissionConfig

        # a long window keeps request 1 queued, so pipelined requests 2-3
        # hit a saturated intake (max_queue=1) and are shed immediately
        server = make_server(
            window_s=0.2,
            admission=AdmissionConfig(max_queue=1, resume_below=0),
        )
        with PlacementTransportServer(server) as transport:
            host, port = transport.address
            sock = socket.create_connection((host, port), timeout=2.0)
            for i in range(3):
                sock.sendall(
                    encode_frame(encode_request(make_request(f"sh{i}")))
                )
            asm, got = FrameAssembler(), []
            sock.settimeout(2.0)
            while len(got) < 3:
                got.extend(asm.feed(sock.recv(1 << 16)))
            sock.close()
        by_rid = {m["request_id"]: m for m in got}
        assert set(by_rid) == {"sh0", "sh1", "sh2"}
        shed = [m for m in got if m["status"] == "shed"]
        assert shed and all(m["policy"] == "daemon" for m in shed)

    def test_malformed_request_keeps_connection(self):
        server = make_server()
        bad_version = encode_request(make_request("bad-1"))
        bad_version["v"] = 99  # protocol (not framing) violation
        # the transport has no heartbeat kind: a "health" frame is one too
        health = {"v": 1, "kind": "health", "nonce": 7}
        with PlacementTransportServer(server) as transport:
            with PlacementClient(*transport.address, retry=FAST_RETRY) as c:
                for k, bad in enumerate((bad_version, health), start=1):
                    c._ensure_connected()
                    c._sock.sendall(encode_frame(bad))
                    with pytest.raises(ProtocolError, match="rejected"):
                        c.request(make_request(f"bad-{k}"))
                    # the connection survived the protocol error (a distinct
                    # shape, so in-flight dedup cannot blur the status)
                    ok = c.request(make_request(f"ok-{k}", shape=1 + k))
                    assert ok.status == "planned"
        assert transport.stats["protocol_errors"] == 2

    def test_framing_garbage_drops_connection(self):
        server = make_server()
        with PlacementTransportServer(server) as transport:
            host, port = transport.address
            sock = socket.create_connection((host, port), timeout=2.0)
            sock.sendall(b"GARBAGE-NOT-A-FRAME" + b"\x00" * 32)
            deadline = time.monotonic() + 2.0
            while (
                transport.stats["frame_errors"] == 0
                and time.monotonic() < deadline
            ):
                time.sleep(0.01)
            sock.close()
        assert transport.stats["frame_errors"] == 1

    def test_idle_timeout_closes_connection(self):
        server = make_server()
        with PlacementTransportServer(server, idle_timeout_s=0.1) as transport:
            host, port = transport.address
            sock = socket.create_connection((host, port), timeout=2.0)
            # send nothing; the server must hang up on us
            sock.settimeout(2.0)
            assert sock.recv(1024) == b""
            sock.close()
        assert transport.stats["idle_timeouts"] == 1

    def test_backpressure_parks_past_window(self):
        # a window of 1 with a batching delay: the second pipelined
        # request must park the reader until the first decision lands
        server = make_server(window_s=0.05, max_batch=8)
        with PlacementTransportServer(server, max_inflight=1) as transport:
            host, port = transport.address
            sock = socket.create_connection((host, port), timeout=2.0)
            for i in range(3):
                sock.sendall(encode_frame(encode_request(make_request(f"bp{i}"))))
            asm, got = FrameAssembler(), []
            sock.settimeout(2.0)
            while len(got) < 3:
                got.extend(asm.feed(sock.recv(1 << 16)))
            sock.close()
        assert {m["request_id"] for m in got} == {"bp0", "bp1", "bp2"}
        assert transport.stats["backpressure_pauses"] >= 1

    def test_telemetry_instruments_fire(self):
        telemetry = Telemetry()
        server = make_server(telemetry=telemetry)
        with PlacementTransportServer(server, telemetry=telemetry) as transport:
            with PlacementClient(*transport.address, retry=FAST_RETRY) as c:
                c.request(make_request("tm1"))
        reg = telemetry.registry
        assert reg.get("merch_transport_connections_total").value() == 1.0
        frames = reg.get("merch_transport_frames_total")
        assert frames.value(direction="rx") == 1.0
        assert frames.value(direction="tx") == 1.0
        assert reg.get("merch_transport_bytes_total").value(direction="rx") > 0
        assert reg.get("merch_transport_active_connections").value() == 0.0

    def test_start_twice_rejected(self):
        server = make_server()
        with PlacementTransportServer(server) as transport:
            with pytest.raises(RuntimeError, match="already started"):
                transport.start()

    def test_address_requires_start(self):
        with pytest.raises(RuntimeError, match="not started"):
            PlacementTransportServer(make_server()).address

    def test_constructor_validation(self):
        server = make_server()
        with pytest.raises(ValueError):
            PlacementTransportServer(server, max_inflight=0)
        with pytest.raises(ValueError):
            PlacementTransportServer(server, idle_timeout_s=0.0)
        with pytest.raises(ValueError):
            PlacementTransportServer(server, completed_window=0)


# ======================================================================
# client resilience without a server
# ======================================================================
class TestClientFallback:
    def _dead_port(self):
        sock = socket.socket()
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
        sock.close()  # nobody listens here any more
        return port

    def test_falls_back_to_daemon(self):
        retry = RetryPolicy(
            connect_timeout_s=0.2,
            request_timeout_s=0.2,
            max_attempts=2,
            backoff_base_s=0.0,
            backoff_cap_s=0.0,
            jitter=0.0,
        )
        with PlacementClient("127.0.0.1", self._dead_port(), retry=retry) as c:
            req = make_request("off-1")
            decision = c.request(req)
        assert decision.status == "shed" and decision.policy == "daemon"
        assert decision.request_id == "off-1"
        # daemon makespan: every task runs PM-only
        assert decision.predicted_makespan_s == pytest.approx(
            max(t.t_pm_only for t in req.tasks)
        )
        assert c.fallbacks == 1 and c.retries == 1

    def test_raises_when_fallback_disabled(self):
        retry = RetryPolicy(
            connect_timeout_s=0.2, request_timeout_s=0.2, max_attempts=2
        )
        with PlacementClient(
            "127.0.0.1", self._dead_port(), retry=retry, fallback_to_daemon=False
        ) as c:
            with pytest.raises(TransportError, match="unreachable"):
                c.request(make_request("off-2"))

    def test_retry_policy_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(request_timeout_s=0.0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_base_s=0.5, backoff_cap_s=0.1)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.0)

    def test_backoff_is_capped_and_jittered(self):
        from repro.common import make_rng

        policy = RetryPolicy(
            backoff_base_s=0.1, backoff_cap_s=0.3, jitter=0.25
        )
        rng = make_rng(0)
        for attempt, base in ((1, 0.1), (2, 0.2), (3, 0.3), (9, 0.3)):
            got = policy.backoff_s(attempt, rng)
            assert base * 0.75 <= got <= base * 1.25


# ======================================================================
# chaos: every wire fault model, one at a time
# ======================================================================
class TestWireChaos:
    """Under each fault model every request gets exactly one decision
    (the socket-layer mirror of test_service's worker-crash cases)."""

    RATES = {
        "torn_frame": dict(wire_torn_frame_rate=0.3),
        "corrupt_crc": dict(wire_corrupt_rate=0.3),
        "stall": dict(wire_stall_rate=0.3, wire_stall_s=0.02),
        "disconnect": dict(wire_disconnect_rate=0.3),
    }

    @pytest.mark.parametrize("fault", sorted(RATES))
    def test_exactly_one_decision_per_request(self, fault):
        injector = wire_injector(seed=42, **self.RATES[fault])
        server = make_server()
        with PlacementTransportServer(server, faults=injector) as transport:
            with PlacementClient(
                *transport.address, retry=FAST_RETRY, seed=7
            ) as c:
                decisions = {}
                for i in range(25):
                    req = make_request(f"{fault}-{i}", shape=i % 3)
                    decisions.setdefault(req.request_id, []).append(
                        c.request(req)
                    )
                retries = c.retries
        # never lost, never duplicated -- at the client...
        assert all(len(ds) == 1 for ds in decisions.values())
        assert len(decisions) == 25
        # ...and at the server (no request id decided twice)
        assert transport.stats["duplicates"] == 0
        assert server.submitted == server.decided
        # the fault model actually fired and forced the retry path
        assert injector.log.count(f"fault.wire_{fault}") >= 1
        if fault != "stall":  # stalls delay but rarely breach the timeout
            assert retries >= 1


# ======================================================================
# the soak: concurrent clients, all wire faults at once
# ======================================================================
class TestSoak:
    N_CLIENTS = 4
    PER_CLIENT = 50

    def test_multi_client_soak_zero_lost_zero_duplicated(self):
        injector = wire_injector(
            seed=11,
            wire_torn_frame_rate=0.08,
            wire_corrupt_rate=0.08,
            wire_stall_rate=0.05,
            wire_stall_s=0.02,
            wire_disconnect_rate=0.05,
        )
        server = make_server(window_s=0.002, max_batch=16)
        results: dict[int, dict] = {}

        def worker(idx: int) -> None:
            got: dict[str, list] = {}
            with PlacementClient(
                host, port, retry=FAST_RETRY, seed=100 + idx
            ) as c:
                for i in range(self.PER_CLIENT):
                    req = make_request(f"soak-c{idx}-{i:03d}", shape=i % 4)
                    got.setdefault(req.request_id, []).append(c.request(req))
                results[idx] = {
                    "decisions": got,
                    "retries": c.retries,
                    "fallbacks": c.fallbacks,
                }

        with PlacementTransportServer(server, faults=injector) as transport:
            host, port = transport.address
            threads = [
                threading.Thread(target=worker, args=(k,), name=f"soak-{k}")
                for k in range(self.N_CLIENTS)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            stats = dict(transport.stats)

        total = self.N_CLIENTS * self.PER_CLIENT
        all_rids = {
            rid for out in results.values() for rid in out["decisions"]
        }
        # never lost: every request answered at its own client
        assert len(all_rids) == total
        assert all(
            len(ds) == 1
            for out in results.values()
            for ds in out["decisions"].values()
        )
        # never duplicated: the server decided each id at most once
        assert stats["duplicates"] == 0
        assert server.submitted == server.decided
        # the chaos was real: faults fired and clients retried
        assert sum(
            injector.log.count(f"fault.wire_{k}")
            for k in ("torn_frame", "corrupt_crc", "stall", "disconnect")
        ) >= 5
        assert sum(out["retries"] for out in results.values()) >= 1


# ======================================================================
# bounded decided-id record: eviction is detected and loud
# ======================================================================
class TestDecidedEviction:
    def test_eviction_boundary_replans_loudly(self):
        telemetry = Telemetry()
        server = make_server()
        with PlacementTransportServer(
            server, completed_window=1, telemetry=telemetry
        ) as transport:
            with PlacementClient(*transport.address, retry=FAST_RETRY) as c:
                first = c.request(make_request("ev-1"))
                c.request(make_request("ev-2"))  # evicts ev-1's record
                again = c.request(make_request("ev-1"))  # retried after eviction
            stats = dict(transport.stats)
            events = list(transport.log.events)
        # the retry was re-planned (exactly-once can no longer be promised
        # for an evicted id) -- but it was *detected*, not silent
        assert server.decided == 3
        assert stats["decided_evictions"] >= 1
        assert stats["evicted_replans"] == 1
        warned = [
            e for e in events if e.kind == "transport.evicted_id_replanned"
        ]
        assert len(warned) == 1
        assert warned[0].detail["request_id"] == "ev-1"
        assert warned[0].detail["level"] == "warning"
        assert (
            telemetry.registry.get(
                "merch_transport_decided_evictions_total"
            ).value()
            >= 1
        )
        assert (
            telemetry.registry.get(
                "merch_transport_decided_evicted_replans_total"
            ).value()
            == 1
        )
        # the answers themselves are still well-formed decisions
        assert first.request_id == again.request_id == "ev-1"

    def test_unevicted_ids_still_answered_from_the_record(self):
        server = make_server()
        with PlacementTransportServer(
            server, completed_window=8
        ) as transport:
            with PlacementClient(*transport.address, retry=FAST_RETRY) as c:
                first = c.request(make_request("ev-3"))
                again = c.request(make_request("ev-3"))
        assert again == first
        assert server.decided == 1
        assert transport.stats["evicted_replans"] == 0

    def test_evicted_window_validation(self):
        server = make_server()
        with pytest.raises(ValueError):
            PlacementTransportServer(server, evicted_window=0)


# ======================================================================
# reproducible reconnect jitter (SeedSequence-per-connection)
# ======================================================================
class TestBackoffDeterminism:
    def _sleep_recorder(self, monkeypatch):
        sleeps = []
        monkeypatch.setattr(time, "sleep", lambda s: sleeps.append(s))
        return sleeps

    def _dead_port(self):
        sock = socket.socket()
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
        sock.close()
        return port

    def test_same_seed_same_backoff_schedule(self, monkeypatch):
        sleeps = self._sleep_recorder(monkeypatch)
        port = self._dead_port()
        retry = RetryPolicy(
            connect_timeout_s=0.05,
            request_timeout_s=0.05,
            max_attempts=5,
            backoff_base_s=0.01,
            backoff_cap_s=0.5,
            jitter=0.25,
        )
        schedules = []
        for _ in range(2):
            sleeps.clear()
            with PlacementClient(
                "127.0.0.1", port, retry=retry, seed=11
            ) as c:
                c.request(make_request("bk-1"))  # exhausts every attempt
            schedules.append(list(sleeps))
        assert len(schedules[0]) == retry.max_attempts - 1
        assert schedules[0] == schedules[1]  # identical jitter, same seed
        assert schedules[0] != sorted(set(schedules[0]))[:1]  # jitter real

    def test_reconnect_respawns_an_aligned_stream(self):
        # two same-seed clients whose RNGs drift apart mid-connection must
        # come back into lockstep at the next reconnect: the jitter stream
        # is a pure function of (seed, connection index, draw index)
        server = make_server()
        policy = RetryPolicy(backoff_base_s=0.01, backoff_cap_s=0.5, jitter=0.25)
        with PlacementTransportServer(server) as transport:
            a = PlacementClient(*transport.address, retry=FAST_RETRY, seed=11)
            b = PlacementClient(*transport.address, retry=FAST_RETRY, seed=11)
            with a, b:
                # connection 1 for both
                a.request(make_request("rs-a1"))
                b.request(make_request("rs-b1"))
                # a's stream drifts: it burns three extra jitter draws
                for k in (1, 2, 3):
                    policy.backoff_s(k, a._rng)
                assert policy.backoff_s(1, a._rng) != policy.backoff_s(
                    1, b._rng
                )
                a.close()
                b.close()
                # connection 2: respawned
                a.request(make_request("rs-a2"))
                b.request(make_request("rs-b2"))
                assert a.connections == b.connections == 2
                schedule_a = [policy.backoff_s(k, a._rng) for k in (1, 2, 3)]
                schedule_b = [policy.backoff_s(k, b._rng) for k in (1, 2, 3)]
        assert schedule_a == schedule_b  # drift erased by the reconnect

    def test_generator_seed_keeps_legacy_single_stream(self):
        from repro.common import make_rng

        # a Generator seed opts out of per-connection respawning: the
        # stream is shared and never reset (old behaviour, still useful
        # when a caller wants to drive the jitter source directly)
        c = PlacementClient("127.0.0.1", 1, seed=make_rng(5))
        assert c._seed_seq is None
        reference = make_rng(5)
        assert float(c._rng.uniform()) == float(reference.uniform())
