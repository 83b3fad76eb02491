"""Batching scheduler: coalesce placement requests into one planner call.

The scheduler turns a stream of :class:`PlacementRequest` arrivals into
planner invocations, three mechanisms deep:

* **windowed coalescing** -- requests arriving within ``window_s`` of the
  oldest pending one (or once ``max_batch`` are waiting) form one batch;
* **in-flight deduplication** -- identical queries inside a batch (same
  tenant, region fingerprint, input size and quota bucket) are planned
  once and fanned back out, each duplicate answered with status
  ``deduplicated``;
* **shared-quota arbitration** -- all unique requests of a batch are
  planned *together*: their tasks are namespaced into one task set and
  priced by a single stacked model evaluation
  (:meth:`~repro.core.model.PerformanceModel.ratio_grids`), then
  Algorithm 1 splits the one shared DRAM budget across the union.  The
  sum of granted pages across a batch therefore never exceeds capacity,
  no matter how many tenants collide (quota conservation, tested).

Cached decisions short-circuit planning but still *count against* the
batch's capacity ledger, so a batch mixing hits and misses cannot
over-commit DRAM.

The scheduler is synchronous and clock-free: every method takes ``now``
explicitly.  The server layers real time (or a virtual clock) and worker
pools on top.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.common import PAGE_SIZE
from repro.core.planner import greedy_plan
from repro.service.cache import PredictionCache, bucket_ratio
from repro.service.protocol import (
    PlacementDecision,
    PlacementRequest,
    TaskPlacement,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.model import PerformanceModel, TaskModelInputs
    from repro.core.telemetry import Telemetry

__all__ = ["BatchScheduler", "PendingRequest"]


@dataclass
class PendingRequest:
    """One admitted, not-yet-decided request."""

    request: PlacementRequest
    admitted_s: float


class BatchScheduler:
    """Window/size-triggered batching over Algorithm 1."""

    def __init__(
        self,
        model: "PerformanceModel",
        dram_capacity_bytes: int,
        window_s: float = 0.005,
        max_batch: int = 32,
        step: float = 0.05,
        cache: PredictionCache | None = None,
        telemetry: "Telemetry | None" = None,
    ) -> None:
        if dram_capacity_bytes <= 0:
            raise ValueError("dram_capacity_bytes must be positive")
        if window_s < 0:
            raise ValueError("window_s must be >= 0 (0 = singleton batches)")
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self.model = model
        self.dram_capacity_bytes = dram_capacity_bytes
        self.window_s = window_s
        self.max_batch = max_batch
        self.step = step
        self.cache = cache
        self.telemetry = telemetry
        self._pending: list[PendingRequest] = []
        # the planner's ratio grid, shared by every batch
        levels = np.round(np.arange(0.0, 1.0 + step / 2, step), 10)
        levels[-1] = min(levels[-1], 1.0)
        self._levels = levels

    # ------------------------------------------------------------------
    # intake
    # ------------------------------------------------------------------
    @property
    def pending_depth(self) -> int:
        return len(self._pending)

    def submit(self, request: PlacementRequest, now: float) -> None:
        self._pending.append(PendingRequest(request=request, admitted_s=now))
        if self.telemetry is not None:
            self.telemetry.set(
                "merch_service_queue_depth", float(len(self._pending))
            )

    def due(self, now: float) -> bool:
        """Whether a batch should fire at virtual/wall time ``now``."""
        if not self._pending:
            return False
        if len(self._pending) >= self.max_batch:
            return True
        return now - self._pending[0].admitted_s >= self.window_s

    def next_due_at(self) -> float | None:
        """When the oldest pending request's window closes (None if idle)."""
        if not self._pending:
            return None
        return self._pending[0].admitted_s + self.window_s

    def take_batch(self) -> list[PendingRequest]:
        """Remove and return the next batch (oldest ``max_batch`` entries)."""
        batch = self._pending[: self.max_batch]
        self._pending = self._pending[self.max_batch :]
        if self.telemetry is not None:
            self.telemetry.set(
                "merch_service_queue_depth", float(len(self._pending))
            )
        return batch

    # ------------------------------------------------------------------
    # planning
    # ------------------------------------------------------------------
    def quota_bucket(self, request: PlacementRequest) -> float:
        """The request's DRAM-pressure bucket: capacity / footprint,
        clamped to [0, 1] and snapped to the planner step.  Part of the
        cache key -- a decision is only reusable under the same pressure."""
        ratio = self.dram_capacity_bytes / max(request.input_size_bytes, 1)
        return bucket_ratio(min(ratio, 1.0), self.step)

    def plan_batch(
        self, batch: Sequence[PendingRequest], now: float
    ) -> list[PlacementDecision]:
        """Decide every request of one batch; order follows the batch.

        Never raises for planner-level problems with a single request;
        the caller (server) handles crash faults around the whole call.
        """
        if not batch:
            return []
        capacity_pages = self.dram_capacity_bytes // PAGE_SIZE
        # 1. deduplicate identical in-flight queries; a key's requests
        # share its bucket, and each request's bucket is computed once
        unique: dict[tuple, list[PendingRequest]] = {}
        buckets: dict[tuple, float] = {}
        keys: list[tuple] = []
        for entry in batch:
            bucket = self.quota_bucket(entry.request)
            key = entry.request.dedup_key(bucket)
            keys.append(key)
            unique.setdefault(key, []).append(entry)
            buckets[key] = bucket
        # 2. serve what the cache already knows; its grants join the ledger
        decisions: dict[str, PlacementDecision] = {}
        planned_entries: list[tuple[tuple, PendingRequest]] = []
        pages_granted = 0
        for key, entries in unique.items():
            primary = entries[0]
            cached = None
            if self.cache is not None:
                cached = self.cache.get(primary.request.cache_key(buckets[key]))
            if cached is not None:
                decisions[primary.request.request_id] = self._restamp(
                    cached, primary.request, "cached", len(batch)
                )
                pages_granted += cached.dram_pages_granted
            else:
                planned_entries.append((key, primary))
        # 3. one shared-quota plan over the union of the remaining tasks
        if planned_entries:
            fresh = self._plan_union(
                planned_entries,
                capacity_bytes=max(
                    (capacity_pages - pages_granted) * PAGE_SIZE, 0
                ),
                batch_size=len(batch),
            )
            for (key, primary), decision in zip(planned_entries, fresh):
                decisions[primary.request.request_id] = decision
                pages_granted += decision.dram_pages_granted
                if self.cache is not None:
                    self.cache.put(
                        primary.request.cache_key(buckets[key]),
                        decision,
                        tags=(primary.request.region_fingerprint,),
                    )
        # 4. fan decisions back out to duplicates, in batch order
        out: list[PlacementDecision] = []
        for entry, key in zip(batch, keys):
            req = entry.request
            if req.request_id in decisions:
                out.append(decisions[req.request_id])
                continue
            primary = unique[key][0]
            out.append(
                self._restamp(
                    decisions[primary.request.request_id],
                    req,
                    "deduplicated",
                    len(batch),
                )
            )
        if self.telemetry is not None:
            self.telemetry.inc("merch_service_batches_total")
            self.telemetry.observe(
                "merch_service_batch_size_requests", float(len(batch))
            )
            for dec in out:
                self.telemetry.inc(
                    "merch_service_requests_total", status=dec.status
                )
            if pages_granted:
                self.telemetry.inc(
                    "merch_service_dram_pages_granted_total", pages_granted
                )
        return out

    # ------------------------------------------------------------------
    def _plan_union(
        self,
        entries: Sequence[tuple[tuple, PendingRequest]],
        capacity_bytes: int,
        batch_size: int,
    ) -> list[PlacementDecision]:
        """Plan several requests as one namespaced task set."""
        from repro.core.model import TaskModelInputs

        union: list[TaskModelInputs] = []
        task_bytes: dict[str, int] = {}
        for i, (_, entry) in enumerate(entries):
            for spec in entry.request.tasks:
                uid = f"{i}:{spec.task_id}"
                union.append(
                    TaskModelInputs(
                        task_id=uid,
                        t_pm_only=spec.t_pm_only,
                        t_dram_only=spec.t_dram_only,
                        total_accesses=spec.total_accesses,
                        pmcs=spec.pmcs,
                    )
                )
                task_bytes[uid] = spec.size_bytes
        if capacity_bytes < PAGE_SIZE:
            # the ledger is exhausted (cache hits already hold every page):
            # answer with zero grants rather than refusing
            zero = [
                PlacementDecision(
                    request_id=entry.request.request_id,
                    status="planned",
                    policy="merchandiser",
                    placements=tuple(
                        TaskPlacement(
                            task_id=spec.task_id,
                            r_dram=0.0,
                            dram_pages=0,
                            predicted_time_s=spec.t_pm_only,
                        )
                        for spec in entry.request.tasks
                    ),
                    predicted_makespan_s=max(
                        spec.t_pm_only for spec in entry.request.tasks
                    ),
                    dram_pages_granted=0,
                    batch_size=batch_size,
                )
                for _, entry in entries
            ]
            return zero
        # Algorithm 1, with one stacked model call pricing the whole union
        plan = greedy_plan(
            union,
            self.model,
            capacity_bytes,
            task_bytes,
            step=self.step,
            grids=self.model.ratio_grids(union, self._levels),
        )
        quotas_by_uid = {q.task_id: q for q in plan.quotas}
        out: list[PlacementDecision] = []
        for i, (_, entry) in enumerate(entries):
            placements = []
            for spec in entry.request.tasks:
                q = quotas_by_uid[f"{i}:{spec.task_id}"]
                placements.append(
                    TaskPlacement(
                        task_id=spec.task_id,
                        r_dram=q.r_dram,
                        dram_pages=q.dram_pages,
                        predicted_time_s=q.predicted_time_s,
                    )
                )
            out.append(
                PlacementDecision(
                    request_id=entry.request.request_id,
                    status="planned",
                    policy="merchandiser",
                    placements=tuple(placements),
                    predicted_makespan_s=max(
                        p.predicted_time_s for p in placements
                    ),
                    dram_pages_granted=sum(p.dram_pages for p in placements),
                    batch_size=batch_size,
                )
            )
        return out

    @staticmethod
    def _restamp(
        decision: PlacementDecision,
        request: PlacementRequest,
        status: str,
        batch_size: int,
    ) -> PlacementDecision:
        """A shared decision re-addressed to another request."""
        import dataclasses

        return dataclasses.replace(
            decision,
            request_id=request.request_id,
            status=status,
            batch_size=batch_size,
        )
