"""Interval-based re-placement backend (Olson et al. style).

Periodically re-derives the whole placement from live hot-page telemetry:
every interval it samples page access rates, ranks the sampled pages
globally, and re-places them -- hottest toward the fastest tier, coldest
out -- regardless of which task touches them.  Between intervals nothing
moves.

This is the classic reactive-reconfiguration design point: it chases
hotness with no model and no task attribution, so it adapts quickly but
spends migration bandwidth thrashing on skewed access mixes and ignores
barrier load balance entirely.
"""

from __future__ import annotations

import numpy as np

from repro.common import make_rng
from repro.sim.engine import EngineContext, PlacementPolicy
from repro.sim.pages import drain_queue

__all__ = ["IntervalReconfigPolicy"]


def _distinct_samples(
    table, obj: np.ndarray, pages: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct pages of a sample, ``(lanes, obj, pages)`` by ascending
    arena lane, from ``table.sample_pages``-ordered ``obj`` and ``pages``.

    Arena lanes ascend by object in table order, then by page, so a
    repeated sample is a repeated lane and one sort groups the lanes
    by object in ``obj``'s (ascending) order.
    """
    lanes = np.sort(table.arena_lanes(obj, pages))
    first = np.empty(len(lanes), dtype=bool)
    first[:1] = True
    np.not_equal(lanes[1:], lanes[:-1], out=first[1:])
    lanes, obj = lanes[first], obj[first]
    return lanes, obj, lanes - table.arena_lanes(obj, 0)


class IntervalReconfigPolicy(PlacementPolicy):
    """Periodic hotness-ranked re-placement from sampled telemetry."""

    name = "interval"

    def __init__(
        self,
        interval_s: float = 0.5,
        sample_pages: int = 4096,
        seed=None,
    ) -> None:
        if interval_s <= 0:
            raise ValueError("interval_s must be positive")
        self.interval_s = interval_s
        self.sample_pages = sample_pages
        self._rng = make_rng(seed)
        self._last_scan = -1e30
        self._queue: list[tuple[str, np.ndarray, int]] = []

    def on_region_start(self, ctx: EngineContext) -> None:
        self._queue = []
        self._last_scan = -1e30  # re-place immediately on the first tick

    # ------------------------------------------------------------------
    def _replan(self, ctx: EngineContext) -> None:
        table = ctx.page_table
        n = table.n_tiers
        rates = ctx.page_rates()
        obj, pages = table.sample_pages(self.sample_pages, rng=self._rng)
        has_rates = np.array([name in rates for name in table.names], dtype=bool)
        keep = has_rates[obj]
        lanes, obj_ids, all_pages = _distinct_samples(table, obj[keep], pages[keep])
        if not len(lanes):
            return
        rank = np.argsort(-rates.at(obj_ids, lanes), kind="stable")

        # capacity per tier for the sampled population: scale each tier's
        # page capacity by the sample's share of all pages, so the sampled
        # re-placement reproduces the full placement in expectation
        total_pages = table.total_pages
        frac = len(all_pages) / max(total_pages, 1)
        caps = [max(1, int(c * frac)) for c in table.tier_capacity_pages]
        # hottest first, rank position j goes to the first tier whose
        # cumulative capacity exceeds j (every cap is >= 1), overflow to
        # the slowest tier; only pages not already there move
        dst = np.minimum(
            np.searchsorted(np.cumsum(caps), np.arange(len(rank)), side="right"),
            n - 1,
        )
        move = table.tier_arena[lanes][rank] != dst
        obj_id = obj_ids[rank][move]
        page = all_pages[rank][move].astype(np.intp)
        dst = dst[move]
        # coalesce adjacent same-(object, tier) moves into runs, each run a
        # slice of ``page``
        if not len(page):
            self._queue = []
            return
        cuts = np.flatnonzero((np.diff(obj_id) != 0) | (np.diff(dst) != 0)) + 1
        starts = np.concatenate(([0], cuts))
        ends = np.append(cuts, len(page)).tolist()
        names = table.names
        self._queue = [
            (names[o], page[a:b], k)
            for o, k, a, b in zip(
                obj_id[starts].tolist(), dst[starts].tolist(), starts.tolist(), ends
            )
        ]

    def on_tick(self, ctx: EngineContext, dt: float):
        if ctx.time - self._last_scan >= self.interval_s:
            self._last_scan = ctx.time
            self._replan(ctx)
        return drain_queue(self._queue, ctx.migration_budget_pages)
