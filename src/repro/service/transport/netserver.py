"""Asyncio TCP front-end of the placement server.

:class:`PlacementTransportServer` puts the in-process
:class:`~repro.service.server.PlacementServer` on a real wire: clients
connect over TCP, speak CRC-framed protocol messages
(:mod:`repro.service.transport.framing`), and the batching/caching/
admission pipeline behind it stays exactly the in-process one.

Concurrency model -- everything placement-server-shaped runs on **one**
event loop thread:

* each accepted connection gets a reader coroutine that decodes frames,
  validates protocol messages, and submits requests;
* one *pump loop* coroutine fires due batches (``PlacementServer.pump``)
  on the server's real clock every ``pump_interval_s`` and routes the
  resulting decisions back to the connections waiting on them;
* replies are written under a per-connection lock with ``drain()``, so a
  slow reader pauses its own writes (asyncio's flow control), never the
  loop.

Robustness rules:

* **backpressure** -- a connection may have at most ``max_inflight``
  undecided requests; past that the reader parks until decisions drain
  (counted as ``merch_transport_backpressure_pauses_total``);
* **idle/read timeout** -- a connection that sends no complete frame for
  ``idle_timeout_s`` is closed;
* **idempotent resubmission** -- decisions are remembered per request id
  in a bounded window, so a client retry (same id, possibly on a new
  connection) is answered from the record instead of re-planned: retries
  can never double-grant DRAM or double-count a request;
* **fault injection** -- an optional
  :class:`~repro.sim.faults.FaultInjector` is consulted per reply at the
  ``wire`` fault point (torn frame, corrupt CRC, stalled peer, mid-reply
  disconnect), so the chaos tests reach the socket layer.
"""

from __future__ import annotations

import asyncio
import threading
from collections import OrderedDict
from typing import TYPE_CHECKING

from repro.service.protocol import (
    PlacementDecision,
    ProtocolError,
    decode_request,
    encode_decision,
    encode_error,
)
from repro.service.server import PlacementServer
from repro.service.transport.framing import (
    DEFAULT_MAX_FRAME,
    FrameCorrupt,
    FrameError,
    FrameTooLarge,
    FrameTruncated,
    encode_frame,
    read_frame,
)
from repro.sim.faults import RobustnessLog

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.telemetry import Telemetry
    from repro.replay.recorder import FlightRecorder
    from repro.sim.faults import FaultInjector

__all__ = ["PlacementTransportServer"]


def _frame_error_kind(exc: FrameError) -> str:
    if isinstance(exc, FrameTooLarge):
        return "oversize"
    if isinstance(exc, FrameTruncated):
        return "truncated"
    if isinstance(exc, FrameCorrupt):
        return "corrupt"
    return "corrupt"


class _Connection:
    """Per-connection state: writer, in-flight window, write lock."""

    def __init__(self, writer: asyncio.StreamWriter) -> None:
        self.writer = writer
        self.inflight = 0
        self.closed = False
        self.window_open = asyncio.Event()
        self.window_open.set()
        self.lock = asyncio.Lock()


class PlacementTransportServer:
    """TCP transport over a :class:`PlacementServer` (one loop thread)."""

    def __init__(
        self,
        server: PlacementServer,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        max_frame: int = DEFAULT_MAX_FRAME,
        max_inflight: int = 64,
        idle_timeout_s: float = 30.0,
        pump_interval_s: float = 0.001,
        completed_window: int = 4096,
        evicted_window: int = 65536,
        telemetry: "Telemetry | None" = None,
        faults: "FaultInjector | None" = None,
        recorder: "FlightRecorder | None" = None,
    ) -> None:
        if max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        if idle_timeout_s <= 0:
            raise ValueError("idle_timeout_s must be positive")
        if pump_interval_s <= 0:
            raise ValueError("pump_interval_s must be positive")
        if completed_window < 1:
            raise ValueError("completed_window must be >= 1")
        if evicted_window < 1:
            raise ValueError("evicted_window must be >= 1")
        self.server = server
        self.host = host
        self.port = port
        self.max_frame = max_frame
        self.max_inflight = max_inflight
        self.idle_timeout_s = idle_timeout_s
        self.pump_interval_s = pump_interval_s
        self.completed_window = completed_window
        self.evicted_window = evicted_window
        self.telemetry = telemetry
        self.faults = faults
        #: flight recorder for *observational* wire events (wire faults,
        #: resubmissions, teardown swallows).  Defaults to the wrapped
        #: server's recorder so one tap captures both layers; the command
        #: journal itself is written by the server.
        self.recorder = recorder if recorder is not None else server.recorder
        self.log = RobustnessLog()
        #: request id -> connections waiting on its decision
        self._waiters: dict[str, list[_Connection]] = {}
        #: bounded record of decided requests (idempotent resubmission)
        self._completed: "OrderedDict[str, PlacementDecision]" = OrderedDict()
        #: ids whose decision record was evicted from the bounded window --
        #: kept (bounded, cheaper: no decision payload) so a late retry of
        #: an evicted id is *detected* and re-planned loudly, not silently
        self._evicted: "OrderedDict[str, None]" = OrderedDict()
        self._conns: set[_Connection] = set()
        self._asyncio_server: asyncio.AbstractServer | None = None
        self._pump_task: asyncio.Task | None = None
        self._running = False
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self.stats: dict[str, int] = {
            "connections": 0,
            "requests": 0,
            "resubmissions": 0,
            "replies": 0,
            "duplicates": 0,
            "frame_errors": 0,
            "protocol_errors": 0,
            "idle_timeouts": 0,
            "backpressure_pauses": 0,
            "decided_evictions": 0,
            "evicted_replans": 0,
            "teardown_errors": 0,
        }

    # ------------------------------------------------------------------
    # observability helpers
    # ------------------------------------------------------------------
    def _observe(self, event: str, **payload: object) -> None:
        """Journal an observational wire event (ignored by the replayer,
        but it lets divergence reports account for torn connections,
        injected faults, and retries instead of losing them)."""
        if self.recorder is not None:
            self.recorder.record(event, self.server.clock(), **payload)

    def _teardown_error(self, path: str, exc: BaseException) -> None:
        """A teardown-path exception we deliberately survive: counted and
        journaled at debug level, never silently swallowed."""
        self.stats["teardown_errors"] += 1
        self.log.record(
            "transport.teardown_swallowed",
            self.server.clock(),
            level="debug",
            path=path,
            error_type=type(exc).__name__,
            error=str(exc),
        )
        if self.telemetry is not None:
            self.telemetry.inc(
                "merch_transport_teardown_errors_total", path=path
            )
        self._observe("teardown", path=path, error_type=type(exc).__name__)

    # ------------------------------------------------------------------
    # lifecycle (async core + thread wrapper)
    # ------------------------------------------------------------------
    @property
    def address(self) -> tuple[str, int]:
        """The bound (host, port) -- resolves ``port=0`` to the real one."""
        if self._asyncio_server is None:
            raise RuntimeError("transport server is not started")
        return self._asyncio_server.sockets[0].getsockname()[:2]

    async def start_async(self) -> "PlacementTransportServer":
        if self._running:
            raise RuntimeError("transport server already started")
        self._running = True
        self._asyncio_server = await asyncio.start_server(
            self._handle, self.host, self.port
        )
        self._pump_task = asyncio.ensure_future(self._pump_loop())
        return self

    async def stop_async(self) -> None:
        self._running = False
        if self._pump_task is not None:
            self._pump_task.cancel()
            try:
                await self._pump_task
            except asyncio.CancelledError as exc:
                # expected cancellation, but journaled: a divergence report
                # must be able to account for a pump loop torn down mid-batch
                self._teardown_error("pump_cancel", exc)
            self._pump_task = None
        if self._asyncio_server is not None:
            self._asyncio_server.close()
            await self._asyncio_server.wait_closed()
        for conn in list(self._conns):
            await self._close_conn(conn)

    def start(self) -> "PlacementTransportServer":
        """Run the server on a dedicated event-loop thread (for blocking
        callers: tests, the ``transport_load`` experiment, CLIs)."""
        if self._thread is not None:
            raise RuntimeError("transport server already started")
        started = threading.Event()
        failure: list[BaseException] = []

        def _main() -> None:
            loop = asyncio.new_event_loop()
            asyncio.set_event_loop(loop)
            self._loop = loop
            try:
                loop.run_until_complete(self.start_async())
            except BaseException as exc:  # surface bind errors to start()
                failure.append(exc)
                started.set()
                loop.close()
                return
            started.set()
            try:
                loop.run_forever()
            finally:
                loop.run_until_complete(loop.shutdown_asyncgens())
                loop.close()

        self._thread = threading.Thread(
            target=_main, name="placement-transport", daemon=True
        )
        self._thread.start()
        started.wait()
        if failure:
            self._thread.join()
            self._thread = None
            raise failure[0]
        return self

    def stop(self) -> None:
        if self._loop is None or self._thread is None:
            return
        future = asyncio.run_coroutine_threadsafe(self.stop_async(), self._loop)
        future.result(timeout=10.0)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=10.0)
        self._thread = None
        self._loop = None

    def __enter__(self) -> "PlacementTransportServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        conn = _Connection(writer)
        self._conns.add(conn)
        self.stats["connections"] += 1
        if self.telemetry is not None:
            self.telemetry.inc("merch_transport_connections_total")
            self.telemetry.set(
                "merch_transport_active_connections", float(len(self._conns))
            )
        try:
            while self._running:
                try:
                    got = await read_frame(
                        reader, self.max_frame, timeout=self.idle_timeout_s
                    )
                except (asyncio.TimeoutError, TimeoutError):
                    self.stats["idle_timeouts"] += 1
                    if self.telemetry is not None:
                        self.telemetry.inc("merch_transport_idle_timeouts_total")
                    break
                except FrameError as exc:
                    # the stream has no trustworthy resync point past a
                    # framing error: report, then drop the connection
                    self.stats["frame_errors"] += 1
                    if self.telemetry is not None:
                        self.telemetry.inc(
                            "merch_transport_frame_errors_total",
                            kind=_frame_error_kind(exc),
                        )
                    await self._send(conn, encode_error(str(exc)), faulted=False)
                    break
                except (ConnectionError, OSError):
                    break
                if got is None:
                    break  # clean EOF
                payload, nbytes = got
                if self.telemetry is not None:
                    self.telemetry.inc(
                        "merch_transport_frames_total", direction="rx"
                    )
                    self.telemetry.inc(
                        "merch_transport_bytes_total", nbytes, direction="rx"
                    )
                await self._handle_message(conn, payload)
        finally:
            await self._close_conn(conn)

    async def _handle_message(self, conn: _Connection, payload: dict) -> None:
        try:
            request = decode_request(payload)
        except ProtocolError as exc:
            # frame-aligned failure: answer it, keep the connection
            self.stats["protocol_errors"] += 1
            if self.telemetry is not None:
                self.telemetry.inc(
                    "merch_transport_frame_errors_total", kind="protocol"
                )
            rid = payload.get("request_id")
            rid = rid if isinstance(rid, str) else None
            await self._send(conn, encode_error(str(exc), rid), faulted=False)
            return
        self.stats["requests"] += 1
        rid = request.request_id
        done = self._completed.get(rid)
        if done is not None:
            # idempotent resubmission: answer from the record, never re-plan
            self.stats["resubmissions"] += 1
            self._observe("resubmission", request_id=rid, source="completed")
            await self._send_decision(conn, done)
            return
        waiters = self._waiters.get(rid)
        if waiters is not None:
            # in flight already (a retry raced the decision): register
            # interest; the pump loop will fan the one decision out
            self.stats["resubmissions"] += 1
            self._observe("resubmission", request_id=rid, source="inflight")
            if conn not in waiters:
                waiters.append(conn)
                conn.inflight += 1
            return
        if rid in self._evicted:
            # a retry outlived its idempotency record: the decision was
            # evicted from the bounded window, so exactly-once can no
            # longer be answered from memory -- re-plan, but *loudly*
            # (silent re-planning here hid double-plans until PR 6)
            del self._evicted[rid]
            self.stats["evicted_replans"] += 1
            self.log.record(
                "transport.evicted_id_replanned",
                self.server.clock(),
                level="warning",
                request_id=rid,
                completed_window=self.completed_window,
            )
            if self.telemetry is not None:
                self.telemetry.inc(
                    "merch_transport_decided_evicted_replans_total"
                )
        # bounded in-flight window: park the reader until decisions drain
        if conn.inflight >= self.max_inflight:
            self.stats["backpressure_pauses"] += 1
            if self.telemetry is not None:
                self.telemetry.inc("merch_transport_backpressure_pauses_total")
            while (
                conn.inflight >= self.max_inflight
                and self._running
                and not conn.closed
            ):
                conn.window_open.clear()
                await conn.window_open.wait()
            if conn.closed or not self._running:
                return
        decision = self.server.submit(request)
        if decision is not None:  # shed at admission: answered immediately
            self._remember(rid, decision)
            await self._send_decision(conn, decision)
        else:
            self._waiters[rid] = [conn]
            conn.inflight += 1

    # ------------------------------------------------------------------
    # pump loop: fire due batches, route decisions back
    # ------------------------------------------------------------------
    async def _pump_loop(self) -> None:
        while self._running:
            for decision in self.server.pump():
                self._finish(decision)
            await asyncio.sleep(self.pump_interval_s)

    def _finish(self, decision: PlacementDecision) -> None:
        rid = decision.request_id
        if rid in self._completed:
            # must never happen: one request id decided twice
            self.stats["duplicates"] += 1
        self._remember(rid, decision)
        for conn in self._waiters.pop(rid, []):
            conn.inflight -= 1
            if conn.inflight < self.max_inflight:
                conn.window_open.set()
            if not conn.closed:
                asyncio.ensure_future(self._send_decision(conn, decision))

    def _remember(self, rid: str, decision: PlacementDecision) -> None:
        self._completed[rid] = decision
        self._completed.move_to_end(rid)
        while len(self._completed) > self.completed_window:
            evicted_rid, _ = self._completed.popitem(last=False)
            self.stats["decided_evictions"] += 1
            if self.telemetry is not None:
                self.telemetry.inc("merch_transport_decided_evictions_total")
            self._evicted[evicted_rid] = None
            self._evicted.move_to_end(evicted_rid)
            while len(self._evicted) > self.evicted_window:
                self._evicted.popitem(last=False)

    # ------------------------------------------------------------------
    # reply path (with wire fault injection)
    # ------------------------------------------------------------------
    async def _send_decision(
        self, conn: _Connection, decision: PlacementDecision
    ) -> None:
        await self._send(conn, encode_decision(decision))

    async def _send(
        self, conn: _Connection, message: dict, faulted: bool = True
    ) -> None:
        async with conn.lock:
            if conn.closed:
                return
            action = None
            if faulted and self.faults is not None:
                action = self.faults.wire_fault(self.server.clock())
            if action is not None:
                self._observe(
                    "wire_fault",
                    action=action,
                    request_id=message.get("request_id"),
                )
            if action == "stall":
                await asyncio.sleep(self.faults.config.wire_stall_s)
            elif action == "disconnect":
                await self._close_conn(conn)
                return
            frame = encode_frame(message)
            if action == "corrupt_crc":
                frame = frame[:-1] + bytes([frame[-1] ^ 0xFF])
            elif action == "torn_frame":
                frame = frame[: max(1, len(frame) // 2)]
            try:
                conn.writer.write(frame)
                await conn.writer.drain()  # slow-reader write pause
            except (ConnectionError, OSError):
                await self._close_conn(conn)
                return
            if action == "torn_frame":
                await self._close_conn(conn)
                return
            self.stats["replies"] += 1
            if self.telemetry is not None:
                self.telemetry.inc(
                    "merch_transport_frames_total", direction="tx"
                )
                self.telemetry.inc(
                    "merch_transport_bytes_total", len(frame), direction="tx"
                )

    async def _close_conn(self, conn: _Connection) -> None:
        if conn.closed:
            return
        conn.closed = True
        conn.window_open.set()  # unblock a parked reader
        self._conns.discard(conn)
        if self.telemetry is not None:
            self.telemetry.set(
                "merch_transport_active_connections", float(len(self._conns))
            )
        try:
            conn.writer.close()
            await conn.writer.wait_closed()
        except (ConnectionError, OSError) as exc:
            self._teardown_error("conn_close", exc)
