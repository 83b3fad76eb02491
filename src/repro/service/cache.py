"""Memoized decision cache for the placement service.

:class:`PredictionCache` is a bounded LRU + TTL map with *tag-based
invalidation*.  The service keys it by ``(region fingerprint, input
size, r_dram bucket)`` and tags every entry with its region
fingerprint, so one alpha refinement or guardrail quarantine for a
region drops exactly that region's entries (DESIGN §8, "Invalidation
rules").  :func:`bucket_ratio` snaps a DRAM ratio onto the planner's
step grid for those keys.

Everything here is dependency-free and clock-injectable: tests drive TTL
expiry with a virtual clock, production uses ``time.monotonic``.
"""

from __future__ import annotations

import math
import time
from collections import OrderedDict
from typing import TYPE_CHECKING, Callable, Hashable, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.telemetry import Telemetry

__all__ = ["PredictionCache", "bucket_ratio"]


def bucket_ratio(r_dram: float, step: float = 0.05) -> float:
    """Snap a DRAM ratio onto the planner's step grid for cache keying.

    Algorithm 1 only ever visits grid points, so bucketing at the same
    step loses nothing; free-form queries collapse onto the nearest grid
    point, trading a <= step/2 ratio perturbation for a cache hit.
    """
    if step <= 0.0:
        raise ValueError("step must be positive")
    # np.round(np.round(q) * step, 10) without numpy scalars: ``round``
    # rounds half to even like np.rint, ``copysign`` keeps the sign of a
    # zero result, and np.round(v, 10) is rint(v * 1e10) / 1e10
    q = r_dram / step
    if math.isfinite(q):
        scaled = math.copysign(round(q), q) * step * 1e10
        if math.isfinite(scaled):
            return math.copysign(round(scaled), scaled) / 1e10
    return float(np.round(np.round(q) * step, 10))


class PredictionCache:
    """Bounded LRU + TTL cache with tag-based invalidation.

    ``capacity`` bounds the entry count (least recently *used* evicted
    first); ``ttl_s`` bounds entry age on the injected clock
    (``math.inf`` disables expiry).  :meth:`invalidate_tag` drops every
    entry registered under a tag -- the hook the server calls on alpha
    refinement and guardrail quarantine.
    """

    def __init__(
        self,
        capacity: int = 512,
        ttl_s: float = math.inf,
        clock: Callable[[], float] | None = None,
        telemetry: "Telemetry | None" = None,
    ) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if ttl_s <= 0:
            raise ValueError("ttl_s must be positive (use math.inf to disable)")
        self.capacity = capacity
        self.ttl_s = ttl_s
        self.clock = clock or time.monotonic
        self.telemetry = telemetry
        #: key -> (value, expires_at, tags); insertion order = LRU order
        self._entries: "OrderedDict[Hashable, tuple[object, float, tuple]]" = (
            OrderedDict()
        )
        self._tags: dict[Hashable, set[Hashable]] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = {"capacity": 0, "ttl": 0, "invalidated": 0}

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return self.get(key, record=False) is not None

    # ------------------------------------------------------------------
    def get(self, key: Hashable, record: bool = True):
        """The cached value, or ``None``; refreshes LRU position on a hit."""
        entry = self._entries.get(key)
        if entry is not None:
            value, expires_at, tags = entry
            if self.clock() >= expires_at:
                self._drop(key, reason="ttl")
                entry = None
            else:
                self._entries.move_to_end(key)
        if not record:
            return entry[0] if entry is not None else None
        if entry is None:
            self.misses += 1
            if self.telemetry is not None:
                self.telemetry.inc("merch_service_cache_misses_total")
            return None
        self.hits += 1
        if self.telemetry is not None:
            self.telemetry.inc("merch_service_cache_hits_total")
        return entry[0]

    def put(self, key: Hashable, value, tags: Sequence[Hashable] = ()) -> None:
        if key in self._entries:
            self._untag(key)
        self._entries[key] = (value, self.clock() + self.ttl_s, tuple(tags))
        self._entries.move_to_end(key)
        for tag in tags:
            self._tags.setdefault(tag, set()).add(key)
        while len(self._entries) > self.capacity:
            oldest = next(iter(self._entries))
            self._drop(oldest, reason="capacity")

    def invalidate_tag(self, tag: Hashable) -> int:
        """Drop every entry registered under ``tag``; returns the count."""
        keys = self._tags.pop(tag, set())
        for key in list(keys):
            if key in self._entries:
                self._drop(key, reason="invalidated")
        return len(keys)

    def clear(self) -> None:
        self._entries.clear()
        self._tags.clear()

    # ------------------------------------------------------------------
    def _untag(self, key: Hashable) -> None:
        _, _, tags = self._entries[key]
        for tag in tags:
            members = self._tags.get(tag)
            if members is not None:
                members.discard(key)
                if not members:
                    self._tags.pop(tag, None)

    def _drop(self, key: Hashable, reason: str) -> None:
        self._untag(key)
        del self._entries[key]
        self.evictions[reason] += 1
        if self.telemetry is not None:
            self.telemetry.inc(
                "merch_service_cache_evictions_total", reason=reason
            )

    @property
    def hit_ratio(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> dict:
        return {
            "size": len(self._entries),
            "capacity": self.capacity,
            "hits": self.hits,
            "misses": self.misses,
            "hit_ratio": self.hit_ratio,
            "evictions": dict(self.evictions),
        }

