"""Hot-page detection over sampled profiling output, and the hot-page
daemon's scan (MemoryOptimizer's, shared by Merchandiser's gated daemon)."""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.profiling.pte import PageSampleEstimate, PTESampleProfiler
from repro.sim.pages import PageRates

__all__ = [
    "DAEMON_INTERVAL_S",
    "DAEMON_PROMOTE_PAGES",
    "DAEMON_SAMPLE_PAGES",
    "hot_promotions",
    "top_k_hot_pages",
]

#: the hot-page daemon's scan interval, PTEs sampled per scan and hottest
#: pages promoted per scan, at most.  MemoryOptimizer and Merchandiser's
#: gated daemon run with the same three, so the baseline comparison is
#: like for like.
DAEMON_INTERVAL_S = 0.5
DAEMON_SAMPLE_PAGES = 2048
DAEMON_PROMOTE_PAGES = 1024


def top_k_hot_pages(
    estimate: PageSampleEstimate, k: int, min_count: float = 1.0
) -> list[tuple[str, np.ndarray]]:
    """Pick the ``k`` hottest sampled pages across all objects.

    Returns per-object arrays of page indices, hottest-first overall.  Pages
    whose sampled count is below ``min_count`` are never considered hot --
    the accessed-bit scan cannot distinguish them from noise.

    This is the task-agnostic selection MemoryOptimizer performs: hotness is
    global, so a single task with skewed pages can monopolise the result.
    """
    if k < 1:
        return []
    counts = estimate.counts
    hot = np.flatnonzero(counts >= min_count)
    if not len(hot):
        return []
    key = counts[hot]
    # scan counts are whole (Poisson draws, doubled by faults); below 2**16
    # they sort as uint16, a radix sort giving the float timsort's
    # permutation, since both sorts are stable
    if min_count >= 0 and key.max() < 2**16:
        narrow = key.astype(np.uint16)
        if (narrow == key).all():
            key = narrow
    picked = hot[np.argsort(key, kind="stable")[::-1][:k]]
    picked_obj = estimate.obj[picked]
    picked_pages = estimate.pages[picked]
    # one sort over (object, page) keys gives every object's distinct
    # pages in ascending order, objects ascending (what a per-object
    # np.unique returns, without its hashing)
    stride = int(picked_pages.max()) + 1
    keys = np.sort(picked_obj * stride + picked_pages)
    keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
    key_obj = keys // stride
    pages = keys - key_obj * stride
    starts = np.flatnonzero(np.concatenate(([True], key_obj[1:] != key_obj[:-1])))
    bounds = starts.tolist() + [len(keys)]
    # objects in order of their hottest pick
    objs = key_obj[starts]
    first = np.full(len(estimate.names), len(picked))
    np.minimum.at(first, picked_obj, np.arange(len(picked)))
    names = [estimate.names[i] for i in objs.tolist()]
    return [
        (names[g], pages[bounds[g] : bounds[g + 1]])
        for g in np.argsort(first[objs]).tolist()
    ]


def hot_promotions(
    pte: PTESampleProfiler,
    table,
    rates: PageRates,
    interval_s: float,
    k: int,
    now: float,
    skip: Callable[[str, np.ndarray], bool] | None = None,
) -> list[tuple[str, np.ndarray, int]]:
    """One daemon scan: sample ``table``'s PTEs over ``interval_s``, take the
    ``k`` hottest pages and promote those not already on tier 0.

    Returns ``(object, pages, 0)`` moves, hottest object first.  ``skip``
    is asked once per object with its hot pages and drops them when it
    answers true (Merchandiser's quota gate).
    """
    estimate = pte.sample(table, rates, interval_s, now=now)
    moves: list[tuple[str, np.ndarray, int]] = []
    for name, idx in top_k_hot_pages(estimate, k):
        if skip is not None and skip(name, idx):
            continue
        not_resident = idx[table.object(name).page_tier[idx] != 0]
        if len(not_resident):
            moves.append((name, not_resident, 0))
    return moves
