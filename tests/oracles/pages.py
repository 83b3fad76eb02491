"""Reference page-table migration and page-sampling routines.

These are the straightforward forms of ``PageTable.apply_batch``,
``PageTable.sample_pages``/``TieredPageTable.sample_pages``,
``top_k_hot_pages`` and ``IntervalReconfigPolicy._replan``: free DRAM is
re-summed over every object before each promotion, sampled pages are
grouped with one mask per object, and the interval policy walks its ranked
sample one page at a time.  The production versions must match them bit
for bit.
"""

from __future__ import annotations

import numpy as np

from repro.common import PAGE_SIZE, make_rng
from repro.policies.base import page_tiers, table_n_tiers
from repro.sim.pages import TieredPageTable

__all__ = ["apply_batch", "sample_pages", "top_k_hot_pages", "interval_replan"]


def apply_batch(table, batch) -> int:
    """2-tier ``apply_batch``: demotions first, then promotions clamped to
    ``table.dram_free_pages()`` recomputed before every move."""
    moved = 0
    for name, idx, promote in batch.moves:
        if promote:
            continue
        obj = table.object(name)
        sel = idx[obj.residency[idx] > 1e-12]
        obj.residency[sel] = 0.0
        moved += len(sel)
    for name, idx, promote in batch.moves:
        if not promote:
            continue
        obj = table.object(name)
        sel = idx[obj.residency[idx] < 1.0 - 1e-12]
        free = int(
            (table.dram_capacity_bytes - sum(o.dram_bytes() for o in table))
            // PAGE_SIZE
        )
        if free <= 0:
            continue
        sel = sel[:free]
        obj.residency[sel] = 1.0
        moved += len(sel)
    return moved


def sample_pages(table, n: int, rng=None) -> list[tuple[str, np.ndarray]]:
    """Uniform page sampling, grouped with one mask per object."""
    rng = make_rng(rng)
    names = table.names
    sizes = np.array([table.object(nm).n_pages for nm in names])
    total = sizes.sum()
    if total == 0 or n <= 0:
        return []
    picks = rng.integers(0, total, size=n)
    bounds = np.cumsum(sizes)
    which = np.searchsorted(bounds, picks, side="right")
    out: list[tuple[str, np.ndarray]] = []
    for i, nm in enumerate(names):
        mask = which == i
        if mask.any():
            start = bounds[i] - sizes[i]
            out.append((nm, picks[mask] - start))
    return out


def top_k_hot_pages(estimate, k: int, min_count: float = 1.0):
    """Global top-``k`` sampled pages, grouped by object via a name array."""
    if k < 1:
        return []
    names: list[str] = []
    pages: list[np.ndarray] = []
    counts: list[np.ndarray] = []
    for name, (idx, cnt) in estimate.samples.items():
        mask = cnt >= min_count
        if mask.any():
            names.extend([name] * int(mask.sum()))
            pages.append(idx[mask])
            counts.append(cnt[mask])
    if not pages:
        return []
    all_pages = np.concatenate(pages)
    all_counts = np.concatenate(counts)
    order = np.argsort(all_counts, kind="stable")[::-1][:k]
    name_arr = np.array(names)
    picked_names = name_arr[order]
    picked_pages = all_pages[order]
    out: list[tuple[str, np.ndarray]] = []
    for name in dict.fromkeys(picked_names.tolist()):
        sel = picked_names == name
        out.append((name, np.unique(picked_pages[sel])))
    return out


def interval_replan(table, rates: dict, sample) -> list[tuple[str, np.ndarray, int]]:
    """The interval policy's re-placement queue for one ``sample`` (the
    output of ``table.sample_pages``), walking the ranked pages one by one
    and coalescing adjacent same-(object, tier) moves afterwards."""
    n = table_n_tiers(table)
    names: list[str] = []
    pages: list[np.ndarray] = []
    heat: list[np.ndarray] = []
    for name, idx in sample:
        idx = np.unique(idx)
        r = rates.get(name)
        if r is None:
            continue
        names.extend([name] * len(idx))
        pages.append(idx)
        heat.append(r[idx])
    if not pages:
        return []
    all_pages = np.concatenate(pages)
    all_heat = np.concatenate(heat)
    name_arr = np.array(names)
    rank = np.argsort(-all_heat, kind="stable")
    total_pages = table.total_pages
    frac = len(all_pages) / max(total_pages, 1)
    if isinstance(table, TieredPageTable):
        caps = [max(1, int(c * frac)) for c in table.tier_capacity_pages]
    else:
        dram_cap = table.dram_capacity_bytes // PAGE_SIZE
        caps = [max(1, int(dram_cap * frac)), len(all_pages)]
    current = {name: page_tiers(table, name) for name in set(names)}
    queue: list[tuple[str, np.ndarray, int]] = []
    tier, left = 0, caps[0]
    for i in rank:
        while left <= 0 and tier < n - 1:
            tier += 1
            left = caps[tier]
        name = name_arr[i]
        page = int(all_pages[i])
        left -= 1
        if current[name][page] != tier:
            queue.append((name, np.asarray([page], dtype=np.intp), tier))
    merged: list[tuple[str, np.ndarray, int]] = []
    for name, idx, dst in queue:
        if merged and merged[-1][0] == name and merged[-1][2] == dst:
            prev_name, prev_idx, prev_dst = merged[-1]
            merged[-1] = (prev_name, np.concatenate([prev_idx, idx]), prev_dst)
        else:
            merged.append((name, idx, dst))
    return merged
