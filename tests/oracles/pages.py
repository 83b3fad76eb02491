"""Reference page-table migration, query and page-sampling routines.

These are the straightforward forms of ``PageTable.apply_batch``,
``PageTable.sample_pages``/``TieredPageTable.sample_pages``,
``top_k_hot_pages`` and ``IntervalReconfigPolicy._replan``: free DRAM is
re-summed over every object before each promotion, sampled pages are
grouped with one mask per object, and the interval policy walks its ranked
sample one page at a time.

:class:`Residency` is the 2-tier table's parent form: a float DRAM
residency arena it owns, written in place, with ``dram_used_bytes``,
``access_fractions``, ``apply_batch`` and ``plan_pressure_evictions``
recomputing every object's terms on each call.  Memory Mode's
object-level shares stand in for an object's dot until its pages move;
:func:`memory_mode_residency` is the parent per-page Memory Mode cache,
which wrote each page's hit share into the residency arena.
:func:`page_access_rates`, :func:`pte_sample` and
:func:`corrupt_pte_scan` are the parent full-array rates, the per-object
sample -> Poisson loop and the per-object fault draws.

:class:`TieredResidency` is the N-tier table's float form: a one-hot
``(n_tiers, lanes)`` residency matrix it owns, with the table's
migration, capacity, fraction and candidate-page routines as they were
before page state became one tier index per page.  :func:`page_weights`
is the per-object Zipf weight draw every table build made before draws
were memoised.  :func:`drain_queue` is the queue drain that popped one
move at a time, and :func:`page_pool`/:func:`pool_by_object` the
Merchandiser page pool with one object name per candidate page, split by
string comparison.  :func:`build_queue`, :func:`ltr_hot_fraction`,
:func:`hot_order` and :func:`distinct_samples` are the N-tier
Merchandiser queue, the learned-ranking policy's two sorts and the
interval policy's sample dedupe as they were before each object kept its
pages' hotness order: a full stable sort per call, and ``np.unique``.
The production versions must match all of them bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.common import PAGE_SIZE, make_rng, zipf_weights

__all__ = [
    "apply_batch",
    "drain_queue",
    "page_pool",
    "pool_by_object",
    "pool_rank",
    "build_queue",
    "hot_order",
    "ltr_hot_fraction",
    "distinct_samples",
    "sample_pages",
    "top_k_hot_pages",
    "interval_replan",
    "page_tiers",
    "page_access_rates",
    "pte_sample",
    "corrupt_pte_scan",
    "Residency",
    "TieredResidency",
    "memory_mode_residency",
    "page_weights",
]


def page_weights(spec, rng=None) -> np.ndarray:
    """Per-page weights of ``spec``: a Zipf object draws its line weights
    from ``rng`` on every call (the page-object constructor before the memo)."""
    n_pages = spec.n_pages
    if spec.hotness == "zipf":
        lines = zipf_weights(n_pages * 64, spec.zipf_s, rng=make_rng(rng))
        weight = lines.reshape(n_pages, 64).sum(axis=1)
        weight /= weight.sum()
        return weight
    return np.full(n_pages, 1.0 / n_pages)


def _distinct(sel: np.ndarray) -> np.ndarray:
    """``sel`` without repeated page ids, first occurrences in order: a
    page listed twice in one move moves, and counts, once."""
    return np.array(list(dict.fromkeys(sel.tolist())), dtype=np.intp)


def apply_batch(table, batch) -> int:
    """2-tier ``apply_batch`` on a :class:`Residency`: demotions
    (destination 1) first, then promotions (destination 0) clamped to
    ``table.dram_free_pages()`` recomputed before every move."""
    moved = 0
    for name, idx, dst in batch.moves:
        if dst == 0:
            continue
        obj = table.object(name)
        sel = _distinct(idx[obj.residency[idx] > 1e-12])
        obj.residency[sel] = 0.0
        if len(sel):
            table.shares.pop(name, None)
        moved += len(sel)
    for name, idx, dst in batch.moves:
        if dst != 0:
            continue
        obj = table.object(name)
        sel = _distinct(idx[obj.residency[idx] < 1.0 - 1e-12])
        free = int(
            (table.dram_capacity_bytes - sum(o.dram_bytes() for o in table))
            // PAGE_SIZE
        )
        if free <= 0:
            continue
        sel = sel[:free]
        obj.residency[sel] = 1.0
        if len(sel):
            table.shares.pop(name, None)
        moved += len(sel)
    return moved


def drain_queue(queue: list, budget: int, max_pages: int):
    """Pop up to ``min(budget, max_pages)`` pages off ``queue`` (mutated)
    one move at a time; the popped moves, or ``None`` when none."""
    budget = min(max_pages, budget)
    out = []
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
    return out or None


def page_pool(table, footprint, taken):
    """``(names, pages, gains)`` of a footprint's pages not marked in
    ``taken``, object by object in access order, ``names`` a string array
    with one entry per page; ``None`` when empty."""
    total = footprint.total_accesses
    names: list[str] = []
    pages: list[np.ndarray] = []
    gains: list[np.ndarray] = []
    for acc in footprint.accesses:
        cand = np.flatnonzero(~taken[acc.obj])
        if not len(cand):
            continue
        names.extend([acc.obj] * len(cand))
        pages.append(cand)
        gains.append(table.object(acc.obj).weight[cand] * (acc.total / total))
    if not pages:
        return None
    return np.array(names), np.concatenate(pages), np.concatenate(gains)


def pool_by_object(pool, take) -> list[tuple[str, np.ndarray]]:
    """Pool positions ``take`` as ``(object, pages)``, objects in name
    order, pages in ``take`` order."""
    names, pages, _ = pool
    picked = names[take]
    return [(str(name), pages[take[picked == name]]) for name in np.unique(picked)]


def pool_rank(pool) -> np.ndarray:
    """Pool positions by gain, highest first, ties by pool position."""
    return np.argsort(-pool[2], kind="stable")


def build_queue(table, instances, plan, n: int) -> list[tuple[str, np.ndarray, int]]:
    """The N-tier Merchandiser's move queue for ``plan`` over region
    ``instances``: each task's whole pool ranked by one stable sort, and
    each object's mismatched pages stable-sorted by weight again."""
    by_task = {inst.task_id: inst for inst in instances}
    claimed = {obj.name: np.zeros(obj.n_pages, dtype=bool) for obj in table}
    moves: dict[int, list] = {k: [] for k in range(n)}
    for quota in sorted(plan.quotas, key=lambda q: (-q.fractions[0], q.task_id)):
        inst = by_task.get(quota.task_id)
        if inst is None:
            continue
        pool = page_pool(table, inst.footprint, claimed)
        if pool is None:
            continue
        rank = pool_rank(pool)
        pos = 0
        for k in range(n):
            want = int(round(quota.pages[k]))
            if want <= 0:
                continue
            take = rank[pos : pos + want]
            pos += len(take)
            for name, sel in pool_by_object(pool, take):
                claimed[name][sel] = True
                obj = table.object(name)
                mismatched = sel[obj.page_tier[sel] != k]
                if len(mismatched):
                    order = np.argsort(-obj.weight[mismatched], kind="stable")
                    moves[k].append((name, mismatched[order]))
            if pos >= len(rank):
                break
    return [(name, idx, k) for k in range(n) for name, idx in moves[k]]


def hot_order(weight: np.ndarray) -> np.ndarray:
    """Page ids hottest first, ties by page id."""
    return np.argsort(-weight, kind="stable")


def ltr_hot_fraction(weight: np.ndarray) -> float:
    """The weight share of an object's hottest tenth of pages (at least
    one), summed hottest first."""
    w = np.sort(weight)[::-1]
    top = max(1, int(np.ceil(0.1 * len(w))))
    return float(w[:top].sum())


def distinct_samples(table, obj: np.ndarray, pages: np.ndarray):
    """``(lanes, obj, pages)`` of a sample's distinct pages by ascending
    arena lane, each at its first occurrence."""
    lanes, first = np.unique(table.arena_lanes(obj, pages), return_index=True)
    return lanes, obj[first], pages[first]


def memory_mode_residency(
    table, access_rates, accesses_per_pass, n_sets: int, lines_per_page: int = 64
) -> None:
    """The parent Memory Mode cache: every page's hit share written into
    ``table``'s (a :class:`Residency`) float arena, clipped to [0, 1]."""
    total_rate = 0.0
    for obj in table:
        rates = access_rates.get(obj.name)
        if rates is not None:
            total_rate += float(rates.sum())
    pressure = total_rate / n_sets
    table.shares.clear()
    for obj in table:
        rates = access_rates.get(obj.name)
        if rates is None or total_rate <= 0:
            obj.residency[:] = 0.0
            continue
        r_line = rates / lines_per_page
        share = r_line / (r_line + pressure + 1e-300)
        if accesses_per_pass is not None:
            k_page = accesses_per_pass.get(obj.name)
            if k_page is not None:
                reuse = np.maximum(
                    0.0, 1.0 - lines_per_page / np.maximum(k_page, 1e-9)
                )
                share = share * reuse
        obj.residency[:] = np.clip(share, 0.0, 1.0)


def page_access_rates(ctx) -> dict[str, np.ndarray]:
    """Per-page rates summed over ``ctx``'s active instances, as full
    arrays (``EngineContext.page_access_rates`` before rate terms)."""
    rates: dict[str, np.ndarray] = {}
    for inst in ctx.active_instances():
        t = max(ctx.instance_times.get(inst.task_id, 0.0), 1e-12)
        for acc in inst.footprint.accesses:
            obj = ctx.page_table.object(acc.obj)
            per_obj = acc.total / t
            if acc.obj in rates:
                rates[acc.obj] = rates[acc.obj] + obj.weight * per_obj
            else:
                rates[acc.obj] = obj.weight * per_obj
    return rates


def pte_sample(
    rng, max_pages: int, page_table, access_rates, interval_s: float,
    faults=None, now: float = 0.0,
):
    """``PTESampleProfiler.sample`` drawing from generator ``rng``: one
    Poisson call per sampled object that has rates.  Returns
    ``(samples, scale)`` with ``samples`` a name -> (pages, counts) dict."""
    total_pages = page_table.total_pages
    n = min(max_pages, total_pages)
    picked = sample_pages(page_table, n, rng=rng)
    samples: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    for name, idx in picked:
        rates = access_rates.get(name)
        if rates is None:
            counts = np.zeros(len(idx))
        else:
            expected = rates[idx] * interval_s
            counts = rng.poisson(np.maximum(expected, 0.0)).astype(np.float64)
        samples[name] = (idx, counts)
    if faults is not None:
        samples = corrupt_pte_scan(faults, samples, now)
    scale = total_pages / max(n, 1)
    return samples, scale


def corrupt_pte_scan(injector, samples, now: float):
    """``FaultInjector.corrupt_pte_scan`` with one draw per object."""
    frac = injector.config.pte_fault_fraction
    if injector._fire(injector.config.pte_drop_rate, now):
        injector.log.record("fault.pte_drop", now, fraction=frac)
        out: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        for name, (idx, cnt) in samples.items():
            keep = injector._rng.random(len(idx)) >= frac
            out[name] = (idx[keep], cnt[keep])
        return out
    if injector._fire(injector.config.pte_duplicate_rate, now):
        injector.log.record("fault.pte_duplicate", now, fraction=frac)
        out = {}
        for name, (idx, cnt) in samples.items():
            dup = injector._rng.random(len(idx)) < frac
            boosted = cnt.copy()
            boosted[dup] *= 2.0
            out[name] = (idx, boosted)
        return out
    return samples


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
    n = table.n_tiers if isinstance(table, TieredResidency) else 2
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
    if isinstance(table, TieredResidency):
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


def page_tiers(table, name: str) -> np.ndarray:
    """Current tier index of every page of object ``name``.

    Fractionally resident pages report the tier holding the largest share
    (ties to the faster tier), which is exact for software placement.
    """
    obj = table.object(name)
    if isinstance(table, TieredResidency):
        return np.asarray(np.argmax(obj.tier_residency, axis=0), dtype=np.intp)
    return np.where(obj.residency > 0.5, 0, 1).astype(np.intp)


class _Object:
    """One object's weight and writable residency views, terms recomputed
    on every call."""

    def __init__(self, name: str, weight: np.ndarray, residency: np.ndarray):
        self.name = name
        self.n_pages = len(weight)
        self.weight = weight
        self.residency = residency

    def dram_pages(self) -> float:
        return float(self.residency.sum())

    def dram_bytes(self) -> float:
        return self.dram_pages() * PAGE_SIZE

    def dram_access_fraction(self) -> float:
        return float(self.weight @ self.residency)

    def coldest_dram_pages(self, limit: int | None = None) -> np.ndarray:
        """Pages (partially) in DRAM, coldest first (stable id ties)."""
        candidates = np.flatnonzero(self.residency > 1e-12)
        order = np.argsort(self.weight[candidates], kind="stable")
        idx = candidates[order]
        return idx if limit is None else idx[:limit]


class Residency:
    """Float 2-tier page state shadowing a ``PageTable``.

    Copies the table's weight arena and its DRAM pages as a float
    residency arena (same slices and padding) and from then on owns its
    residency, written in place.  ``shares`` are Memory Mode's
    object-level DRAM shares: each stands in for its object's dot until a
    write moves that object's pages.  ``dram_capacity_bytes`` is a plain
    attribute: a test changes capacity on both sides.
    """

    def __init__(self, table, shares=None) -> None:
        self.dram_capacity_bytes = table.dram_capacity_bytes
        self.shares: dict[str, float] = dict(shares or {})
        self._weight_arena = table.weight_arena.copy()
        self._residency_arena = (table.tier_arena == 0).astype(np.float64)
        self._objects: dict[str, _Object] = {}
        for name in table.names:
            sl = table.object_slice(name)
            self._objects[name] = _Object(
                name, self._weight_arena[sl], self._residency_arena[sl]
            )

    @property
    def residency_arena(self) -> np.ndarray:
        return self._residency_arena

    def __iter__(self):
        return iter(self._objects.values())

    def object(self, name: str) -> _Object:
        return self._objects[name]

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(self._objects)

    @property
    def total_pages(self) -> int:
        return sum(o.n_pages for o in self)

    def dram_used_bytes(self) -> float:
        return sum(o.dram_bytes() for o in self)

    def dram_free_bytes(self) -> float:
        return self.dram_capacity_bytes - self.dram_used_bytes()

    def dram_free_pages(self) -> int:
        return int(self.dram_free_bytes() // PAGE_SIZE)

    def access_fractions(self) -> dict[str, float]:
        return {
            o.name: self.shares[o.name] if o.name in self.shares
            else o.dram_access_fraction()
            for o in self
        }

    def plan_pressure_evictions(self, pressure_bytes: int):
        """The parent 2-tier victim choice: the coldest DRAM pages of
        objects ordered by ``(DRAM access fraction, name)``, as a list of
        ``(object, pages, 1)`` moves (``None`` when nothing has to go)."""
        if pressure_bytes <= 0:
            return None
        left_bytes = self.dram_capacity_bytes - pressure_bytes
        used = int(sum(obj.dram_pages() for obj in self))
        need = used - max(0, left_bytes // PAGE_SIZE)
        if need <= 0:
            return None
        fractions = self.access_fractions()
        moves = []
        picked = 0
        for obj in sorted(self, key=lambda o: (fractions[o.name], o.name)):
            if picked >= need:
                break
            cold = obj.coldest_dram_pages(limit=need - picked)
            if len(cold):
                moves.append((obj.name, cold, 1))
                picked += len(cold)
        return moves or None

    def apply_batch(self, batch) -> int:
        """Per-object byte counts taken once, after the demotions, and
        only the promoted object's entry refreshed after each move."""
        moved = 0
        for name, idx, dst in batch.moves:
            if dst == 0:
                continue
            obj = self.object(name)
            sel = _distinct(idx[obj.residency[idx] > 1e-12])
            obj.residency[sel] = 0.0
            if len(sel):
                self.shares.pop(name, None)
            moved += len(sel)
        used: dict[str, float] | None = None
        for name, idx, dst in batch.moves:
            if dst != 0:
                continue
            obj = self.object(name)
            sel = _distinct(idx[obj.residency[idx] < 1.0 - 1e-12])
            if used is None:
                used = {o.name: o.dram_bytes() for o in self}
            free = int((self.dram_capacity_bytes - sum(used.values())) // PAGE_SIZE)
            if free <= 0:
                continue
            sel = sel[:free]
            obj.residency[sel] = 1.0
            if len(sel):
                self.shares.pop(name, None)
            used[name] = obj.dram_bytes()
            moved += len(sel)
        return moved


class _TieredObject:
    """One object's weight and ``(n_tiers, n_pages)`` residency views."""

    def __init__(self, name: str, weight: np.ndarray, tier_residency: np.ndarray):
        self.name = name
        self.n_pages = len(weight)
        self.weight = weight
        self.tier_residency = tier_residency

    def tier_access_fractions(self) -> np.ndarray:
        """Access-weighted per-tier fraction vector (sums to 1)."""
        return self.tier_residency @ self.weight

    def hottest_pages_slower_than(
        self, k: int, limit: int | None = None
    ) -> np.ndarray:
        """Pages with residency on a tier slower than ``k``, hottest first
        (ties broken by page id via stable sort)."""
        slower = self.tier_residency[k + 1 :].sum(axis=0)
        candidates = np.flatnonzero(slower > 1e-12)
        order = np.argsort(-self.weight[candidates], kind="stable")
        idx = candidates[order]
        return idx if limit is None else idx[:limit]

    def coldest_pages_in(self, k: int, limit: int | None = None) -> np.ndarray:
        """Pages with residency on tier ``k``, coldest first."""
        candidates = np.flatnonzero(self.tier_residency[k] > 1e-12)
        order = np.argsort(self.weight[candidates], kind="stable")
        idx = candidates[order]
        return idx if limit is None else idx[:limit]


class TieredResidency:
    """Float one-hot N-tier page state shadowing a ``TieredPageTable``.

    Built from a freshly constructed table: it copies the objects' weights
    into an arena laid out like the table's (same slices and padding, so
    every matrix-vector product sees the same operand layout), places
    pages with its own waterfall, and from then on owns its residency.
    ``capacities_bytes`` is a plain attribute: a test changes capacity on
    both sides.
    """

    def __init__(self, table) -> None:
        self.capacities_bytes = tuple(table.capacities_bytes)
        self.n_tiers = table.n_tiers
        self._weight_arena = table.weight_arena.copy()
        self._residency_arena = np.zeros(
            (self.n_tiers, len(self._weight_arena)), dtype=np.float64
        )
        self._objects: dict[str, _TieredObject] = {}
        for name in table.names:
            sl = table.object_slice(name)
            self._objects[name] = _TieredObject(
                name, self._weight_arena[sl], self._residency_arena[:, sl]
            )
        self.place_waterfall()

    @property
    def residency_arena(self) -> np.ndarray:
        return self._residency_arena

    def __iter__(self):
        return iter(self._objects.values())

    def object(self, name: str) -> _TieredObject:
        return self._objects[name]

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(self._objects)

    @property
    def total_pages(self) -> int:
        return sum(o.n_pages for o in self._objects.values())

    @property
    def tier_capacity_pages(self) -> tuple[int, ...]:
        return tuple(c // PAGE_SIZE for c in self.capacities_bytes)

    def tier_used_pages(self, k: int) -> float:
        return float(self._residency_arena[k].sum())

    def tier_free_pages(self, k: int) -> int:
        return int(self.tier_capacity_pages[k] - self.tier_used_pages(k))

    def place_waterfall(self) -> None:
        free = list(self.tier_capacity_pages)
        for obj in self:
            obj.tier_residency[:, :] = 0.0
            placed = 0
            for k in range(self.n_tiers - 1, -1, -1):
                take = min(obj.n_pages - placed, free[k])
                if take <= 0:
                    continue
                obj.tier_residency[k, placed : placed + take] = 1.0
                free[k] -= take
                placed += take
                if placed == obj.n_pages:
                    break

    def apply_batch(self, batch) -> int:
        moved = 0
        order = sorted(
            range(len(batch.moves)),
            key=lambda i: -batch.moves[i][2],
        )
        for i in order:
            name, idx, dst = batch.moves[i]
            if not 0 <= dst < self.n_tiers:
                raise ValueError(f"destination tier {dst} out of range")
            obj = self.object(name)
            sel = _distinct(idx[obj.tier_residency[dst, idx] < 1.0 - 1e-12])
            free = self.tier_free_pages(dst)
            if free <= 0:
                continue
            sel = sel[:free]
            obj.tier_residency[:, sel] = 0.0
            obj.tier_residency[dst, sel] = 1.0
            moved += len(sel)
        return moved

    def access_fraction_vectors(self) -> dict[str, np.ndarray]:
        """Per-object per-tier access-weighted fraction vectors."""
        return {o.name: o.tier_access_fractions() for o in self}
