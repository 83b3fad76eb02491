"""Move-queue helper shared by the competing placement backends.

Both page tables answer the same tier-indexed reads (``n_tiers``,
``tier_capacity_pages``, ``tier_free_pages(k)``, ``page_tier``,
``tier_arena``) and apply the same :class:`MigrationBatch` of
``(object, pages, destination tier)`` moves, fastest tier first, so a
policy written against that vocabulary runs on every topology.  What the
backends still share is how they drain a planned move queue under the
engine's per-tick migration budget.
"""

from __future__ import annotations

import numpy as np

from repro.sim.pages import MigrationBatch

__all__ = ["drain_queue"]


def drain_queue(
    queue: list[tuple[str, np.ndarray, int]], budget: int
) -> MigrationBatch | None:
    """Pop up to ``budget`` pages off a move queue (mutates the queue) as
    one batch, or ``None`` when nothing is popped."""
    out: list[tuple[str, np.ndarray, int]] = []
    while queue and budget > 0:
        name, idx, dst = queue[0]
        take = idx[:budget]
        rest = idx[budget:]
        out.append((name, take, dst))
        budget -= len(take)
        if len(rest):
            queue[0] = (name, rest, dst)
        else:
            queue.pop(0)
    return MigrationBatch(moves=tuple(out)) if out else None
