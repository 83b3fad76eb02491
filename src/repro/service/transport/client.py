"""Resilient blocking client of the placement transport.

:class:`PlacementClient` is the library a task-parallel application links
against: it asks the remote placement service for DRAM quotas and *always*
comes back with a decision.  The resilience ladder, in order:

1. **timeouts** -- connecting and waiting for a decision are both bounded
   (``RetryPolicy.connect_timeout_s`` / ``request_timeout_s``);
2. **retries** -- any transport failure (refused/dropped connection, read
   timeout, torn or corrupt frame) closes the socket and retries with
   capped exponential backoff and seeded jitter.  Retrying is *safe*
   because requests are idempotent by ``request_id``: the server remembers
   decided ids and re-answers from the record, so a retry can never
   double-plan or double-grant;
3. **degrade-to-daemon fallback** -- when every attempt fails the client
   answers locally with the same
   :func:`~repro.service.protocol.daemon_decision` the server sheds with:
   run under the ungated hot-page daemon.  An unreachable placement
   service degrades the application's placement quality, never its
   liveness.

Protocol-level rejections (an ``error`` envelope for our request, e.g. a
version mismatch) are raised as :class:`ProtocolError` and **not**
retried -- resending a message the server just refused cannot succeed.
"""

from __future__ import annotations

import socket
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.common import make_rng
from repro.sim.faults import RobustnessLog
from repro.service.protocol import (
    PlacementDecision,
    PlacementRequest,
    ProtocolError,
    daemon_decision,
    decode_decision,
    decode_error,
    encode_request,
)
from repro.service.transport.framing import (
    DEFAULT_MAX_FRAME,
    FrameAssembler,
    FrameError,
    encode_frame,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.telemetry import Telemetry

__all__ = ["PlacementClient", "RetryPolicy", "TransportError"]


class TransportError(RuntimeError):
    """The transport failed (connect/read/decode) after local handling."""


@dataclass(frozen=True)
class RetryPolicy:
    """Timeouts and the capped-exponential-backoff retry schedule."""

    #: TCP connect timeout per attempt
    connect_timeout_s: float = 1.0
    #: time budget waiting for one decision per attempt
    request_timeout_s: float = 2.0
    #: total attempts per request (1 = no retries)
    max_attempts: int = 5
    #: backoff before retry k (1-based) is ``base * 2**(k-1)``, capped
    backoff_base_s: float = 0.02
    backoff_cap_s: float = 0.5
    #: each backoff is scaled by ``1 + uniform(-jitter, +jitter)`` from the
    #: client's seeded RNG, so synchronized clients do not retry in lockstep
    jitter: float = 0.25

    def __post_init__(self) -> None:
        if self.connect_timeout_s <= 0 or self.request_timeout_s <= 0:
            raise ValueError("timeouts must be positive")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.backoff_base_s < 0 or self.backoff_cap_s < self.backoff_base_s:
            raise ValueError("need 0 <= backoff_base_s <= backoff_cap_s")
        if not 0 <= self.jitter < 1:
            raise ValueError("jitter must be in [0, 1)")

    def backoff_s(self, attempt: int, rng) -> float:
        """Sleep before retry ``attempt`` (1-based), jittered."""
        base = min(self.backoff_cap_s, self.backoff_base_s * 2 ** (attempt - 1))
        return base * (1.0 + self.jitter * float(rng.uniform(-1.0, 1.0)))


class PlacementClient:
    """Blocking placement-service client with retries and local fallback."""

    def __init__(
        self,
        host: str,
        port: int,
        *,
        retry: RetryPolicy | None = None,
        seed=None,
        max_frame: int = DEFAULT_MAX_FRAME,
        fallback_to_daemon: bool = True,
        telemetry: "Telemetry | None" = None,
    ) -> None:
        self.host = host
        self.port = port
        self.retry = retry or RetryPolicy()
        self.max_frame = max_frame
        self.fallback_to_daemon = fallback_to_daemon
        self.telemetry = telemetry
        # jitter determinism: the seed becomes a SeedSequence whose spawned
        # children are handed out one per connection (in _ensure_connected),
        # so the backoff schedule is a pure function of (seed, connection
        # index, draw index).  Two clients built from the same seed that
        # live through the same connect/fail pattern sleep the exact same
        # jittered schedule -- reconnects can no longer desynchronise them.
        if isinstance(seed, np.random.SeedSequence):
            self._seed_seq = seed
        elif isinstance(seed, np.random.Generator):
            # a Generator seed keeps the old behaviour: one shared stream
            self._seed_seq = None
        else:
            self._seed_seq = np.random.SeedSequence(seed)
        self._rng = (
            make_rng(seed)
            if self._seed_seq is None
            else make_rng(self._seed_seq.spawn(1)[0])
        )
        self._sock: socket.socket | None = None
        self._assembler: FrameAssembler | None = None
        self.log = RobustnessLog()
        #: resilience accounting (asserted on by the chaos tests)
        self.retries = 0
        self.fallbacks = 0
        self.stale_replies = 0
        self.connections = 0

    # ------------------------------------------------------------------
    def __enter__(self) -> "PlacementClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError as exc:
                # survivable teardown failure: counted, never silent
                self.log.record(
                    "transport.teardown_swallowed",
                    time.monotonic(),
                    level="debug",
                    path="client_close",
                    error_type=type(exc).__name__,
                    error=str(exc),
                )
                if self.telemetry is not None:
                    self.telemetry.inc(
                        "merch_transport_teardown_errors_total",
                        path="client_close",
                    )
        self._sock = None
        self._assembler = None

    # ------------------------------------------------------------------
    def request(self, request: PlacementRequest) -> PlacementDecision:
        """One decision for ``request`` -- remote if at all possible,
        the local degrade-to-daemon fallback otherwise."""
        last_error: Exception | None = None
        for attempt in range(self.retry.max_attempts):
            if attempt:
                self.retries += 1
                if self.telemetry is not None:
                    self.telemetry.inc("merch_transport_client_retries_total")
                time.sleep(self.retry.backoff_s(attempt, self._rng))
            try:
                return self._attempt(request)
            except ProtocolError:
                # the server *rejected* the request; retrying cannot help
                self.close()
                raise
            except (TransportError, FrameError, OSError) as exc:
                last_error = exc
                self.close()
        if self.fallback_to_daemon:
            self.fallbacks += 1
            if self.telemetry is not None:
                self.telemetry.inc("merch_transport_client_fallbacks_total")
            return daemon_decision(request)
        raise TransportError(
            f"placement service unreachable after "
            f"{self.retry.max_attempts} attempts: {last_error!r}"
        ) from last_error

    # ------------------------------------------------------------------
    def _ensure_connected(self) -> None:
        if self._sock is not None:
            return
        sock = socket.create_connection(
            (self.host, self.port), timeout=self.retry.connect_timeout_s
        )
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock = sock
        self._assembler = FrameAssembler(self.max_frame)
        self.connections += 1
        if self._seed_seq is not None:
            # fresh seed-derived jitter stream per connection: the nth
            # spawn of a SeedSequence is deterministic, so same-seed
            # clients stay in lockstep across reconnects
            self._rng = make_rng(self._seed_seq.spawn(1)[0])

    def _attempt(self, request: PlacementRequest) -> PlacementDecision:
        self._ensure_connected()
        assert self._sock is not None and self._assembler is not None
        self._sock.settimeout(self.retry.request_timeout_s)
        self._sock.sendall(encode_frame(encode_request(request)))
        deadline = time.monotonic() + self.retry.request_timeout_s
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TransportError(
                    f"timed out waiting for a decision on "
                    f"{request.request_id!r}"
                )
            self._sock.settimeout(remaining)
            data = self._sock.recv(1 << 16)
            if not data:
                raise TransportError("server closed the connection")
            # a FrameError here (torn frame, corrupt CRC) propagates to
            # request(), which drops the connection and retries
            for message in self._assembler.feed(data):
                decision = self._route(message, request)
                if decision is not None:
                    return decision

    def _route(
        self, message: dict, request: PlacementRequest
    ) -> PlacementDecision | None:
        if message.get("kind") == "error":
            error, rid = decode_error(message)
            if rid in (None, request.request_id):
                raise ProtocolError(f"server rejected the request: {error}")
            return None  # an error for a request we already gave up on
        decision = decode_decision(message)
        if decision.request_id != request.request_id:
            # a reply to an earlier attempt we abandoned (e.g. it raced a
            # stall): already answered, so it must not surface twice
            self.stale_replies += 1
            return None
        return decision
