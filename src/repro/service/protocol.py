"""Wire protocol of the placement service.

A *placement request* is the question one client (tenant) asks per parallel
region: "given my tasks' model inputs, how should the shared DRAM budget be
split across them?".  A *placement decision* is the answer: per-task DRAM
access ratios and page grants, plus how the answer was produced (planned
fresh, served from cache, deduplicated against an identical in-flight
query, or shed to the hot-page-daemon baseline under overload).

Both sides are plain frozen dataclasses with a **versioned** dict/JSON
codec: every encoded message carries ``{"v": PROTOCOL_VERSION, ...}`` and
decoding rejects unknown versions loudly (:class:`ProtocolError`) instead
of guessing.  The codec is dependency-free and deliberately boring -- the
interesting machinery lives in the scheduler and cache.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping, Sequence

__all__ = [
    "PROTOCOL_VERSION",
    "ProtocolError",
    "TaskSpec",
    "PlacementRequest",
    "TaskPlacement",
    "PlacementDecision",
    "encode_request",
    "decode_request",
    "encode_decision",
    "decode_decision",
    "encode_error",
    "decode_error",
    "daemon_decision",
    "to_json",
    "from_json",
]

#: bump on any incompatible field change; decoders reject everything else
PROTOCOL_VERSION = 1

#: decision provenance values (closed set; telemetry labels reuse it)
DECISION_STATUSES = ("planned", "cached", "deduplicated", "shed")


class ProtocolError(ValueError):
    """Malformed or version-incompatible service message."""


@dataclass(frozen=True)
class TaskSpec:
    """One task's model inputs, as shipped by a client.

    Mirrors :class:`repro.core.model.TaskModelInputs` (Algorithm 1's input
    list) plus the byte footprint MAP_TO_PAGES needs.
    """

    task_id: str
    t_pm_only: float
    t_dram_only: float
    total_accesses: float
    pmcs: Mapping[str, float]
    size_bytes: int

    def __post_init__(self) -> None:
        if self.t_pm_only <= 0 or self.t_dram_only <= 0:
            raise ProtocolError("endpoint times must be positive")
        if self.total_accesses <= 0:
            raise ProtocolError("total_accesses must be positive")
        if self.size_bytes <= 0:
            raise ProtocolError("size_bytes must be positive")

    @cached_property
    def fingerprint_line(self) -> bytes:
        """This task's part of :meth:`PlacementRequest.fingerprint`'s
        digest input, formatted once per spec."""
        head = (
            f"{self.task_id}|{self.t_pm_only!r}|{self.t_dram_only!r}|"
            f"{self.total_accesses!r}|{self.size_bytes}|"
        )
        pmcs = "".join(f"{name}={self.pmcs[name]!r};" for name in sorted(self.pmcs))
        return (head + pmcs).encode()


@dataclass(frozen=True)
class PlacementRequest:
    """One region's placement question from one tenant."""

    request_id: str
    tenant: str
    tasks: tuple[TaskSpec, ...]
    #: caller-stable identity of the region *shape*; derived from the task
    #: specs when the caller does not provide one
    region_fingerprint: str = ""
    #: client-side arrival timestamp (the server overrides it with its own
    #: clock at admission, so latency is measured on one clock)
    arrival_s: float = 0.0

    def __post_init__(self) -> None:
        if not self.tasks:
            raise ProtocolError("a request must carry at least one task")
        if not self.region_fingerprint:
            object.__setattr__(self, "region_fingerprint", self.fingerprint())

    def fingerprint(self) -> str:
        """Content hash of the region shape (tasks + inputs), tenant-free."""
        h = hashlib.sha256()
        for t in sorted(self.tasks, key=lambda t: t.task_id):
            h.update(t.fingerprint_line)
        return h.hexdigest()[:16]

    @property
    def input_size_bytes(self) -> int:
        return sum(t.size_bytes for t in self.tasks)

    def cache_key(self, r_dram_bucket: float) -> tuple:
        """(region fingerprint, input size, r_dram bucket) -- the cache's
        documented keying (DESIGN §8)."""
        return (self.region_fingerprint, self.input_size_bytes, r_dram_bucket)

    def dedup_key(self, r_dram_bucket: float) -> tuple:
        """Identity of an in-flight query: same tenant asking the same
        question.  Distinct tenants are never deduplicated against each
        other -- each holds its own slice of the arbitrated quota."""
        return (self.tenant,) + self.cache_key(r_dram_bucket)


@dataclass(frozen=True)
class TaskPlacement:
    """Decision row for one task (matches the planner's TaskQuota)."""

    task_id: str
    r_dram: float
    dram_pages: int
    predicted_time_s: float


@dataclass(frozen=True)
class PlacementDecision:
    """The service's answer to one request."""

    request_id: str
    #: planned | cached | deduplicated | shed
    status: str
    #: "merchandiser" for a planned/cached quota set; "daemon" when the
    #: service shed the request and the client should fall back to the
    #: ungated hot-page daemon
    policy: str
    placements: tuple[TaskPlacement, ...]
    predicted_makespan_s: float
    dram_pages_granted: int
    #: how many requests shared this decision's planner invocation
    batch_size: int = 1
    #: admission-to-completion latency on the server's clock
    latency_s: float = 0.0

    def __post_init__(self) -> None:
        if self.status not in DECISION_STATUSES:
            raise ProtocolError(f"unknown decision status {self.status!r}")

    def r_by_task(self) -> dict[str, float]:
        return {p.task_id: p.r_dram for p in self.placements}


# ----------------------------------------------------------------------
# dict/JSON codec
# ----------------------------------------------------------------------
def encode_request(req: PlacementRequest) -> dict:
    return {
        "v": PROTOCOL_VERSION,
        "kind": "placement_request",
        "request_id": req.request_id,
        "tenant": req.tenant,
        "region_fingerprint": req.region_fingerprint,
        "arrival_s": float(req.arrival_s),
        "tasks": [
            {
                "task_id": t.task_id,
                "t_pm_only": float(t.t_pm_only),
                "t_dram_only": float(t.t_dram_only),
                "total_accesses": float(t.total_accesses),
                "pmcs": {k: float(v) for k, v in t.pmcs.items()},
                "size_bytes": int(t.size_bytes),
            }
            for t in req.tasks
        ],
    }


def _check_envelope(payload: Mapping, kind: str) -> None:
    if not isinstance(payload, Mapping):
        raise ProtocolError("message payload must be a mapping")
    version = payload.get("v")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            f"unsupported protocol version {version!r} "
            f"(this server speaks v{PROTOCOL_VERSION})"
        )
    if payload.get("kind") != kind:
        raise ProtocolError(
            f"expected a {kind!r} message, got {payload.get('kind')!r}"
        )


def decode_request(payload: Mapping) -> PlacementRequest:
    _check_envelope(payload, "placement_request")
    try:
        tasks = tuple(
            TaskSpec(
                task_id=t["task_id"],
                t_pm_only=float(t["t_pm_only"]),
                t_dram_only=float(t["t_dram_only"]),
                total_accesses=float(t["total_accesses"]),
                pmcs={k: float(v) for k, v in t["pmcs"].items()},
                size_bytes=int(t["size_bytes"]),
            )
            for t in payload["tasks"]
        )
        return PlacementRequest(
            request_id=payload["request_id"],
            tenant=payload["tenant"],
            tasks=tasks,
            region_fingerprint=payload.get("region_fingerprint", ""),
            arrival_s=float(payload.get("arrival_s", 0.0)),
        )
    except (KeyError, TypeError) as exc:
        raise ProtocolError(f"malformed placement_request: {exc!r}") from exc


def encode_decision(dec: PlacementDecision) -> dict:
    return {
        "v": PROTOCOL_VERSION,
        "kind": "placement_decision",
        "request_id": dec.request_id,
        "status": dec.status,
        "policy": dec.policy,
        "predicted_makespan_s": float(dec.predicted_makespan_s),
        "dram_pages_granted": int(dec.dram_pages_granted),
        "batch_size": int(dec.batch_size),
        "latency_s": float(dec.latency_s),
        "placements": [
            {
                "task_id": p.task_id,
                "r_dram": float(p.r_dram),
                "dram_pages": int(p.dram_pages),
                "predicted_time_s": float(p.predicted_time_s),
            }
            for p in dec.placements
        ],
    }


def decode_decision(payload: Mapping) -> PlacementDecision:
    _check_envelope(payload, "placement_decision")
    try:
        return PlacementDecision(
            request_id=payload["request_id"],
            status=payload["status"],
            policy=payload["policy"],
            placements=tuple(
                TaskPlacement(
                    task_id=p["task_id"],
                    r_dram=float(p["r_dram"]),
                    dram_pages=int(p["dram_pages"]),
                    predicted_time_s=float(p["predicted_time_s"]),
                )
                for p in payload["placements"]
            ),
            predicted_makespan_s=float(payload["predicted_makespan_s"]),
            dram_pages_granted=int(payload["dram_pages_granted"]),
            batch_size=int(payload["batch_size"]),
            latency_s=float(payload["latency_s"]),
        )
    except (KeyError, TypeError) as exc:
        raise ProtocolError(f"malformed placement_decision: {exc!r}") from exc


def encode_error(error: str, request_id: str | None = None) -> dict:
    """Typed error envelope the transport sends for a rejected message
    (protocol version mismatch, malformed request, ...)."""
    return {
        "v": PROTOCOL_VERSION,
        "kind": "error",
        "request_id": request_id,
        "error": str(error),
    }


def decode_error(payload: Mapping) -> tuple[str, str | None]:
    """(error text, request id or None) of an error envelope."""
    _check_envelope(payload, "error")
    try:
        return str(payload["error"]), payload.get("request_id")
    except KeyError as exc:
        raise ProtocolError(f"malformed error envelope: {exc!r}") from exc


def daemon_decision(request: PlacementRequest) -> PlacementDecision:
    """The degrade-to-daemon answer for ``request``: no quotas, fall back
    to the ungated hot-page daemon (the PR-1 misprediction watchdog's
    degraded mode).  Shared by admission shedding, exhausted batch-crash
    retries, and the transport client's unreachable-server fallback."""
    return PlacementDecision(
        request_id=request.request_id,
        status="shed",
        policy="daemon",
        placements=(),
        predicted_makespan_s=max(t.t_pm_only for t in request.tasks),
        dram_pages_granted=0,
        batch_size=1,
    )


def to_json(message: dict) -> str:
    """Canonical JSON form (stable key order) of an encoded message."""
    return json.dumps(message, sort_keys=True)


def from_json(text: str) -> dict:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ProtocolError("top-level JSON value must be an object")
    return payload
