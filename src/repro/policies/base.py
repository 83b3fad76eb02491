"""Tier-generic helpers shared by the competing placement backends.

The 2-tier engine moves pages with :class:`MigrationBatch` (promote flags)
over a :class:`PageTable`; the N-tier engine uses
:class:`TieredMigrationBatch` (destination tier indices) over a
:class:`TieredPageTable`.  These helpers give policies one vocabulary --
tier indices, fastest first -- and translate to whichever table the engine
handed them, so a single policy implementation runs on every topology.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.common import PAGE_SIZE
from repro.sim.pages import (
    MigrationBatch,
    PageTable,
    TieredMigrationBatch,
    TieredPageTable,
)

__all__ = [
    "table_n_tiers",
    "tier_free_pages",
    "page_tiers",
    "lane_tiers",
    "make_batch",
    "drain_queue",
]


def table_n_tiers(table: "PageTable | TieredPageTable") -> int:
    return table.n_tiers if isinstance(table, TieredPageTable) else 2


def tier_free_pages(table: "PageTable | TieredPageTable", k: int) -> int:
    """Free pages on tier ``k`` (fastest first).

    The 2-tier table treats PM as an unbounded backing store; that is
    surfaced as a huge-but-finite count so fill loops terminate.
    """
    if isinstance(table, TieredPageTable):
        return table.tier_free_pages(k)
    if k == 0:
        return table.dram_free_pages()
    return max(0, 2**62 // PAGE_SIZE)


def page_tiers(table: "PageTable | TieredPageTable", name: str) -> np.ndarray:
    """Current tier index of every page of object ``name`` (a copy).

    N-tier tables store this index per page.  On the 2-tier table a page
    Memory Mode's cache holds fractionally reports DRAM when more than
    half resident.
    """
    obj = table.object(name)
    if isinstance(table, TieredPageTable):
        return obj.page_tier.astype(np.intp)
    return np.where(obj.residency > 0.5, 0, 1).astype(np.intp)


def lane_tiers(table: "PageTable | TieredPageTable", lanes: np.ndarray) -> np.ndarray:
    """Current tier index of the pages at arena ``lanes``, as
    :func:`page_tiers` reports it."""
    if isinstance(table, TieredPageTable):
        return table.tier_arena[lanes].astype(np.intp)
    return np.where(table.residency_arena[lanes] > 0.5, 0, 1).astype(np.intp)


def make_batch(
    table: "PageTable | TieredPageTable",
    moves: Sequence[tuple[str, np.ndarray, int]],
) -> "MigrationBatch | TieredMigrationBatch | None":
    """Build the batch type the engine expects from tier-indexed moves."""
    moves = [(name, idx, dst) for name, idx, dst in moves if len(idx)]
    if not moves:
        return None
    if isinstance(table, TieredPageTable):
        return TieredMigrationBatch(
            moves=tuple((name, idx, int(dst)) for name, idx, dst in moves)
        )
    return MigrationBatch(
        moves=tuple((name, idx, dst == 0) for name, idx, dst in moves)
    )


def drain_queue(
    queue: list[tuple[str, np.ndarray, int]], budget: int
) -> list[tuple[str, np.ndarray, int]]:
    """Pop up to ``budget`` pages off a move queue (mutates the queue)."""
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
    return out
