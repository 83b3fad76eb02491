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
    names: list[str] = []
    ids: list[np.ndarray] = []
    pages: list[np.ndarray] = []
    counts: list[np.ndarray] = []
    for name, (idx, cnt) in estimate.samples.items():
        mask = cnt >= min_count
        if mask.any():
            ids.append(np.full(int(mask.sum()), len(names)))
            names.append(name)
            pages.append(idx[mask])
            counts.append(cnt[mask])
    if not pages:
        return []
    all_pages = np.concatenate(pages)
    all_counts = np.concatenate(counts)
    order = np.argsort(all_counts, kind="stable")[::-1][:k]
    picked_ids = np.concatenate(ids)[order]
    picked_pages = all_pages[order]
    out: list[tuple[str, np.ndarray]] = []
    for i in dict.fromkeys(picked_ids.tolist()):
        # deduplicate pages sampled more than once
        out.append((names[i], np.unique(picked_pages[picked_ids == i])))
    return out
