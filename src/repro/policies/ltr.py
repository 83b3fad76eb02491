"""Learning-to-rank placement backend (Moura et al. style).

Objects are placement candidates; a pairwise ranker
(:class:`~repro.ml.ranking.PairwiseRanker`) learns which of two objects
deserves the faster tier from the first region it observes, using measured
access density as the training signal.  Every later region is placed by
walking the learned ranking and filling tiers fastest-first.

Deliberately task-agnostic: the ranker sees objects, not tasks, so it
reproduces the address-level-policy failure mode the paper analyses --
hot shared objects hog the fast tier regardless of which task's critical
path needs it.  That is the point of carrying it as a competing backend.
"""

from __future__ import annotations

import numpy as np

from repro.ml.ranking import PairwiseRanker, default_object_features
from repro.sim.engine import EngineContext, PlacementPolicy
from repro.sim.pages import drain_queue

__all__ = ["LearnedRankingPolicy"]

_N_FEATURES = 4


class LearnedRankingPolicy(PlacementPolicy):
    """Rank objects pairwise, fill tiers best-first."""

    name = "ltr"

    def __init__(self, epochs: int = 200, seed: int = 0) -> None:
        self._ranker = PairwiseRanker(_N_FEATURES, epochs=epochs, seed=seed)
        self._trained = False
        self._queue: list[tuple[str, np.ndarray, int]] = []

    # ------------------------------------------------------------------
    def _region_features(
        self, ctx: EngineContext
    ) -> tuple[list[str], np.ndarray, np.ndarray]:
        """Per-object (names, features, densities) for the current region."""
        assert ctx.region is not None
        totals: dict[str, float] = {}
        for inst in ctx.region.instances:
            for acc in inst.footprint.accesses:
                totals[acc.obj] = totals.get(acc.obj, 0.0) + acc.total
        names = sorted(totals)
        rows = []
        density = []
        for name in names:
            obj = ctx.page_table.object(name)
            size = ctx.workload.object(name).size_bytes
            top = max(1, int(np.ceil(0.1 * obj.n_pages)))
            hot_fraction = float(obj.weight[obj.hot_order[:top]].sum())
            rows.append(
                default_object_features(size, totals[name], hot_fraction)
            )
            density.append(totals[name] / max(size, 1))
        return names, np.asarray(rows, dtype=np.float64), np.asarray(density)

    def on_region_start(self, ctx: EngineContext) -> None:
        names, feats, density = self._region_features(ctx)
        if not names:
            self._queue = []
            return
        if not self._trained and len(names) >= 2 and len(np.unique(density)) >= 2:
            # first observed region is the training set: access density is
            # the relevance label the ranker learns to reproduce from the
            # full feature vector
            self._ranker.fit_ordered(feats, density)
            self._trained = True
        order = self._ranker.rank(feats)

        # fill tiers fastest-first in ranking order, whole objects at a
        # time with hottest pages first when an object straddles tiers
        table = ctx.page_table
        n = table.n_tiers
        free = [table.tier_free_pages(k) for k in range(n)]
        # plan against total capacity: pages vacating a tier free it up as
        # the queue drains, and the table clamps any transient excess
        held = sum(
            np.bincount(table.object(nm).page_tier, minlength=n) for nm in names
        )
        for k in range(n):
            free[k] += int(held[k])
        queue: list[tuple[str, np.ndarray, int]] = []
        tier = 0
        for i in order:
            name = names[i]
            obj = table.object(name)
            current = obj.page_tier
            hot = obj.hot_order
            pos = 0
            while pos < len(hot) and tier < n:
                if free[tier] <= 0:
                    tier += 1
                    continue
                take = hot[pos : pos + free[tier]]
                free[tier] -= len(take)
                pos += len(take)
                mismatched = take[current[take] != tier]
                if len(mismatched):
                    queue.append((name, mismatched, tier))
            if tier >= n:
                break
        self._queue = queue

    # ------------------------------------------------------------------
    def on_tick(self, ctx: EngineContext, dt: float):
        return drain_queue(self._queue, ctx.migration_budget_pages)
