"""Hot-page detection over sampled profiling output."""

from __future__ import annotations

import numpy as np

from repro.profiling.pte import PageSampleEstimate

__all__ = ["top_k_hot_pages"]


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
    mask = estimate.counts >= min_count
    if not mask.any():
        return []
    order = np.argsort(estimate.counts[mask], kind="stable")[::-1][:k]
    picked_obj = estimate.obj[mask][order]
    picked_pages = estimate.pages[mask][order]
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
    groups = {
        int(key_obj[lo]): pages[lo:hi] for lo, hi in zip(bounds, bounds[1:])
    }
    # objects in order of their hottest pick
    return [
        (estimate.names[i], groups[i]) for i in dict.fromkeys(picked_obj.tolist())
    ]
