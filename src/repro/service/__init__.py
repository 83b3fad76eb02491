"""Placement-as-a-service: the batched placement control plane.

The paper's workflow (profile -> estimate -> predict -> plan) answers one
region at a time, in-process.  This subsystem wraps the same planner in a
long-running *service* shape -- the form online heterogeneous-memory
guidance systems actually ship in, where many clients contend for one
fast-memory budget:

* :mod:`repro.service.protocol`  -- typed request/decision messages with a
  versioned dict/JSON codec;
* :mod:`repro.service.cache`     -- LRU+TTL memoization of decisions and
  of f(.) evaluations, with tag-based invalidation;
* :mod:`repro.service.scheduler` -- windowed batching, in-flight dedup,
  and shared-DRAM-quota arbitration through one stacked planner call;
* :mod:`repro.service.pool`      -- thread/process worker pool with
  SeedSequence-spawned per-worker RNG streams;
* :mod:`repro.service.admission` -- bounded intake queue with
  degrade-to-daemon load shedding;
* :mod:`repro.service.server`    -- the facade tying it all together;
* :mod:`repro.service.transport` -- the network face: CRC-framed asyncio
  TCP server plus a resilient retrying client with degrade-to-daemon
  fallback;

Everything is dependency-free, clock-injectable and telemetry-optional,
like the rest of the repo.  ``python -m repro.experiments.runner
service_load`` measures the subsystem under open-loop load.
"""

from repro.service.admission import AdmissionConfig, AdmissionController
from repro.service.cache import CachedCorrelation, PredictionCache, bucket_ratio
from repro.service.pool import JobResult, WorkerPool
from repro.service.protocol import (
    PROTOCOL_VERSION,
    PlacementDecision,
    PlacementRequest,
    ProtocolError,
    TaskPlacement,
    TaskSpec,
    decode_decision,
    decode_request,
    encode_decision,
    encode_request,
)
from repro.service.scheduler import BatchScheduler
from repro.service.server import PlacementServer, WorkerCrashed
from repro.service.transport import (
    FrameError,
    PlacementClient,
    PlacementTransportServer,
    RetryPolicy,
    TransportError,
)

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
    "PredictionCache",
    "CachedCorrelation",
    "bucket_ratio",
    "BatchScheduler",
    "WorkerPool",
    "JobResult",
    "AdmissionConfig",
    "AdmissionController",
    "PlacementServer",
    "WorkerCrashed",
    "FrameError",
    "PlacementTransportServer",
    "PlacementClient",
    "RetryPolicy",
    "TransportError",
]
