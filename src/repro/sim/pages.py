"""Page tables with per-page popularity and per-page placement.

Each managed :class:`~repro.tasks.task.DataObject` becomes a
:class:`TieredPagedObject`: a vector of per-page access weights (how the
object's main-memory accesses distribute over its pages) plus one ``int8``
tier index per page, tier 0 the fastest.  Software placement keeps every
page wholly on one tier -- the paper realises Algorithm 1's quotas by
migrating whole pages (Section 6) -- so one index per page is the whole
placement state.

:class:`TieredPageTable` is the one page table.  :class:`PageTable` is its
n = 2 front end (tier 0 DRAM, tier 1 PM), built from a DRAM capacity, the
way :class:`~repro.sim.kernels.BreakdownKernel` is the n = 2 front end of
the tick kernel.  Its task-level read is the access-weighted DRAM fraction
per object (:meth:`PageTable.access_fractions`), the paper's
``r_dram_acc``.  Memory Mode's hardware cache is the one placement that
serves a page partly from DRAM; its hit share enters at object level
(:meth:`PageTable.set_dram_shares`) and writes no page.

Every table has one read interface (``n_tiers``, ``tier_capacity_pages``,
``tier_free_pages(k)``, each page's tier through ``object(name).page_tier``
or ``tier_arena[lanes]``) and one write body: a :class:`MigrationBatch` of
``(object, pages, destination tier)`` moves, applied by the engine through
:meth:`~TieredPageTable.apply_batch`, by start hooks through
:meth:`~TieredPageTable.place` and by the journal's undo, plus
:meth:`~TieredPageTable.place_all`, a reset of the whole table to one tier.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.common import PAGE_SIZE, make_rng, zipf_weights
from repro.tasks.task import DataObject

__all__ = [
    "PageTable",
    "MigrationBatch",
    "QUEUE_DRAIN_PAGES",
    "PageRates",
    "TieredPagedObject",
    "TieredPageTable",
    "drain_queue",
    "page_weights",
    "trim_moves",
]

#: cache lines per page: element-level popularity is averaged over this many
#: draws per page, because a 4 KiB page mixes hot and cold lines
LINES_PER_PAGE = 64

#: pages of weights :func:`page_weights` keeps (8 B each, so 4 MiB); the
#: least recently used entries go first
WEIGHT_MEMO_PAGES = 1 << 19

# (bit-generator state, n_pages, zipf_s) -> (weights, state after the draw)
_weight_memo: OrderedDict[tuple, tuple[np.ndarray, dict]] = OrderedDict()
_weight_memo_pages = 0
_weight_memo_lock = threading.Lock()


def _frozen(state):
    """A hashable form of a bit generator's ``state`` dict."""
    if isinstance(state, dict):
        return tuple((k, _frozen(v)) for k, v in sorted(state.items()))
    if isinstance(state, np.ndarray):
        return (state.dtype.str, state.shape, state.tobytes())
    return state


def _zipf_page_weights(n_pages: int, zipf_s: float, rng) -> np.ndarray:
    # Zipf popularity lives at cache-line granularity; page-level hotness
    # is the sum of the page's line weights.  Drawing Zipf directly per
    # page would overstate page skew by ~64x and make hardware caching look
    # far better than it is.
    lines = zipf_weights(n_pages * LINES_PER_PAGE, zipf_s, rng=rng)
    weight = lines.reshape(n_pages, LINES_PER_PAGE).sum(axis=1)
    weight /= weight.sum()
    return weight


def page_weights(spec: DataObject, rng=None) -> np.ndarray:
    """Per-page access weights of ``spec`` (sums to 1), a fresh array.

    A Zipf draw consumes ``rng``.  Experiments rerun one workload under
    several policies from one seed, so the draw is memoised on the
    generator's full bit-generator state: a hit sets ``rng`` to the state
    the draw would have left it in and returns the weights the draw would
    have made, so neither the weights nor any later stream can tell a hit
    from a draw.  ``rng=None`` (fresh entropy) never recurs and is never
    memoised.
    """
    global _weight_memo_pages
    n_pages = spec.n_pages
    if spec.hotness != "zipf":
        return np.full(n_pages, 1.0 / n_pages)
    if rng is None:
        return _zipf_page_weights(n_pages, spec.zipf_s, make_rng(None))
    rng = make_rng(rng)
    key = (_frozen(rng.bit_generator.state), n_pages, spec.zipf_s)
    with _weight_memo_lock:
        hit = _weight_memo.get(key)
        if hit is not None:
            _weight_memo.move_to_end(key)
            weight, after = hit
            rng.bit_generator.state = after
            return weight.copy()
    weight = _zipf_page_weights(n_pages, spec.zipf_s, rng)
    with _weight_memo_lock:
        if key not in _weight_memo:
            _weight_memo[key] = (weight.copy(), rng.bit_generator.state)
            _weight_memo_pages += n_pages
            while _weight_memo_pages > WEIGHT_MEMO_PAGES:
                _, (old, _) = _weight_memo.popitem(last=False)
                _weight_memo_pages -= len(old)
    return weight


def _sample_uniform(
    bounds: np.ndarray, owner: np.ndarray, n: int, rng
) -> tuple[np.ndarray, np.ndarray]:
    """Draw ``n`` page ids uniformly over objects laid end to end (object
    ``i`` owns ids ``bounds[i]:bounds[i+1]``, and ``owner[id]`` is ``i`` as
    a narrow unsigned integer).

    Returns ``(obj, pages)``: each draw's object index and its page index
    within that object, grouped by object in table order, each group in
    draw order.
    """
    rng = make_rng(rng)
    total = bounds[-1]
    if total == 0 or n <= 0:
        return np.empty(0, dtype=np.intp), np.empty(0, dtype=np.int64)
    picks = rng.integers(0, total, size=n)
    # the owner map is already a narrow integer key, and a stable sort on
    # one is a radix sort
    key = owner[picks]
    order = np.argsort(key, kind="stable")
    obj = key[order].astype(np.intp)
    return obj, picks[order] - bounds[obj]


def _page_bounds(objs: Iterable) -> np.ndarray:
    """Start of each object's page-id range when objects are laid end to
    end, followed by the total page count."""
    sizes = np.array([o.n_pages for o in objs], dtype=np.int64)
    return np.concatenate(([0], np.cumsum(sizes)))


def _page_owner(bounds: np.ndarray) -> np.ndarray:
    """Object index of every page id in ``bounds``'s layout, in the
    narrowest unsigned type that holds the largest index (one byte per
    page up to 256 objects)."""
    n_objects = len(bounds) - 1
    dtype = np.min_scalar_type(max(n_objects - 1, 0))
    return np.repeat(np.arange(n_objects, dtype=dtype), np.diff(bounds))


@dataclass(frozen=True)
class MigrationBatch:
    """A set of page moves requested by a placement policy for one tick.

    Every move names its destination tier, fastest first: on
    :class:`PageTable` tier 0 is DRAM and tier 1 is PM.  A
    destination is an ``int``; ``True``/``False`` promote flags would read
    as tiers 1 and 0, the opposite of what they meant.
    """

    #: (object name, page indices, destination tier index) triples
    moves: tuple[tuple[str, np.ndarray, int], ...]

    @cached_property
    def n_pages(self) -> int:
        return int(sum(len(idx) for _, idx, _ in self.moves))

    @property
    def bytes_moved(self) -> int:
        return self.n_pages * PAGE_SIZE


#: pages a policy drains off its planned move queue per tick, at most (the
#: engine's migration budget may allow fewer)
QUEUE_DRAIN_PAGES = 1024


def trim_moves(
    moves: Iterable[tuple[str, np.ndarray, int]], limit: int
) -> list[tuple[str, np.ndarray, int]]:
    """Keep the first ``limit`` pages of a move list, in order.

    Selectors emit moves ranked, so the hottest pages survive the cut.  A
    move with no pages is kept and costs nothing.
    """
    out: list[tuple[str, np.ndarray, int]] = []
    left = limit
    for name, idx, dst in moves:
        if left <= 0:
            break
        out.append((name, idx[:left], dst))
        left -= min(len(idx), left)
    return out


def drain_queue(
    queue: list[tuple[str, np.ndarray, int]], budget: int
) -> MigrationBatch | None:
    """Pop up to ``min(budget, QUEUE_DRAIN_PAGES)`` pages off a move queue
    (mutates the queue) as one batch, or ``None`` when nothing is popped."""
    budget = min(QUEUE_DRAIN_PAGES, budget)
    out: list[tuple[str, np.ndarray, int]] = []
    done = 0
    for name, idx, dst in queue:
        if budget <= 0:
            break
        take = idx[:budget]
        out.append((name, take, dst))
        budget -= len(take)
        if len(take) < len(idx):
            # the budget ran out inside this move: its rest stays queued
            queue[done] = (name, idx[len(take) :], dst)
            break
        done += 1
    del queue[:done]
    return MigrationBatch(moves=tuple(out)) if out else None


class PageRates:
    """Per-page main-memory access rates, kept as per-object terms.

    Page ``p`` of object ``o`` is accessed ``w[p]*c[0] + w[p]*c[1] + ...``
    times per second: its access weight times each accessing instance's
    ``acc.total / t``, added in active-instance order.  :meth:`arrays`
    evaluates every page of each object and :meth:`at` only the lanes a
    profiler sampled.  Both multiply and add elementwise in the same
    order, so the two agree bit for bit (PERFORMANCE.md section 4,
    rule 1).
    """

    def __init__(self, table, terms: dict[str, list[float]]) -> None:
        self.table = table
        #: coefficients per object, objects in first-access order
        self.terms = terms

    def __contains__(self, name: str) -> bool:
        return name in self.terms

    def arrays(self) -> dict[str, np.ndarray]:
        """Full rate arrays of every object that has terms."""
        out: dict[str, np.ndarray] = {}
        for name, coeffs in self.terms.items():
            weight = self.table.object(name).weight
            rates = weight * coeffs[0]
            for c in coeffs[1:]:
                rates = rates + weight * c
            out[name] = rates
        return out

    def at(self, obj: np.ndarray, lanes: np.ndarray) -> np.ndarray:
        """Rates at arena ``lanes`` of objects number ``obj`` (table
        order); every object listed must have terms.

        Every sample gathers its object's first term; the later terms of
        the few objects that have them are added at those objects'
        samples only, in term order: :meth:`arrays`'s sum at those lanes.
        """
        first = np.zeros(len(self.table))
        several: list[tuple[int, list[float]]] = []
        for i, name in enumerate(self.table.names):
            coeffs = self.terms.get(name)
            if coeffs:
                first[i] = coeffs[0]
                if len(coeffs) > 1:
                    several.append((i, coeffs[1:]))
        weight = self.table.weight_arena[lanes]
        rates = weight * first[obj]
        for i, later in several:
            sel = np.flatnonzero(obj == i)
            w, r = weight[sel], rates[sel]
            for c in later:
                r += w * c
            rates[sel] = r
        return rates


def _lane_starts(objs: Sequence, align: int) -> np.ndarray:
    """Arena start lane of each object's segment, each padded to a
    multiple of ``align`` lanes, followed by the arena length."""
    padded = [-(-o.n_pages // align) * align for o in objs]
    return np.concatenate(([0], np.cumsum(padded, dtype=np.int64)))



class TieredPagedObject:
    """Pages of one data object across N tiers.

    ``page_tier`` is each page's tier index (``int8``, fastest first), and
    the per-tier access fractions are the one-hot indicator of
    ``page_tier`` times ``weight``.

    Weights never change in place, so the pages' hotness order is sorted
    once, on first use (:attr:`hot_order`), and kept until ``weight`` is
    rebound.  A pickle leaves it out.
    """

    __slots__ = ("spec", "n_pages", "n_tiers", "_weight", "_hot", "page_tier")

    def __init__(self, spec: DataObject, n_tiers: int, rng=None) -> None:
        if n_tiers < 2:
            raise ValueError("need at least two tiers")
        if n_tiers > np.iinfo(np.int8).max:
            raise ValueError("tier index does not fit in int8")
        self.spec = spec
        self.n_pages = spec.n_pages
        self.n_tiers = n_tiers
        self.weight = page_weights(spec, rng)
        # born in the slowest tier
        self.page_tier = np.full(self.n_pages, n_tiers - 1, dtype=np.int8)

    def __getstate__(self) -> dict:
        return {k: getattr(self, k) for k in self.__slots__ if k != "_hot"}

    def __setstate__(self, state: dict) -> None:
        for key, value in state.items():
            setattr(self, key, value)
        self._hot = None

    @property
    def weight(self) -> np.ndarray:
        """Per-page access weights (sum to 1); read-only by convention:
        rebind, never write in place, so :attr:`hot_order` stays true."""
        return self._weight

    @weight.setter
    def weight(self, value: np.ndarray) -> None:
        self._weight = value
        self._hot = None

    @property
    def hot_order(self) -> np.ndarray:
        """Page ids hottest first, ties by page id: the stable sort of
        ``-weight``, as read-only ``int32`` when the ids fit."""
        if self._hot is None:
            order = np.argsort(-self._weight, kind="stable")
            if self.n_pages <= np.iinfo(np.int32).max:
                order = order.astype(np.int32)
            order.flags.writeable = False
            self._hot = order
        return self._hot

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def owner(self) -> str | None:
        return self.spec.owner

    def pages_in(self, k: int) -> int:
        """Number of this object's pages on tier ``k``."""
        return int(np.count_nonzero(self.page_tier == k))

    def tier_access_fractions(self) -> np.ndarray:
        """Access-weighted per-tier fraction vector (sums to 1).

        The one-hot matrix is materialized so the product is one BLAS
        matrix-vector call, bit for bit the sum a float residency matrix
        gives; ``bincount(weights=)`` and per-row dots add in other orders
        (PERFORMANCE.md section 4, rule 3).
        """
        # an int8 tier range keeps the compare in int8
        tiers = np.arange(self.n_tiers, dtype=np.int8)[:, None]
        onehot = self.page_tier[None, :] == tiers
        return onehot.astype(np.float64) @ self._weight

    def hottest_pages_slower_than(
        self, k: int, limit: int | None = None
    ) -> np.ndarray:
        """Pages on a tier slower than ``k``, hottest first, ties by page id:
        :attr:`hot_order` filtered, which is the candidates' stable sort."""
        order = self.hot_order
        idx = order[self.page_tier[order] > k]
        return idx if limit is None else idx[:limit]

    def coldest_pages_in(self, k: int, limit: int | None = None) -> np.ndarray:
        """Pages on tier ``k``, coldest first (ties by page id): the first
        ``limit`` of the candidates' stable weight sort.

        A ``limit`` below the candidate count sorts only the candidates at
        or below the ``limit``-th smallest weight, in page-id order, so
        pages tied at that cutoff keep their stable-sort order.
        """
        candidates = np.flatnonzero(self.page_tier == k)
        weight = self.weight[candidates]
        if limit is not None and 0 < limit < len(candidates):
            cutoff = np.partition(weight, limit - 1)[limit - 1]
            below = np.flatnonzero(weight <= cutoff)
            order = np.argsort(weight[below], kind="stable")[:limit]
            return candidates[below[order]]
        idx = candidates[np.argsort(weight, kind="stable")]
        return idx if limit is None else idx[:limit]


class TieredPageTable:
    """All paged objects of a workload plus per-tier capacity accounting.

    Page state is stored struct-of-arrays (PERFORMANCE.md): one weight
    arena and one ``int8`` tier-index arena cover every object, and each
    object's ``weight``/``page_tier`` are views into them, so per-object
    methods and bulk arena consumers (the batched kernels, the sampling
    profilers) read the same bits by construction.  Object segments are
    padded to :data:`_ARENA_ALIGN` lanes (one cache line of weights) so
    per-object views keep the alignment fresh allocations would have;
    padding lanes hold :attr:`NO_TIER`.

    Every page is on exactly one tier, so the table keeps exact integer
    used-page counts per tier, updated from the tiers each move changes,
    and one cached fraction per object, recomputed only after a write
    moved that object.  *Every* tier is capacity-checked, so the
    conformance harness's over-commit invariant is enforceable uniformly.

    Policies read every table through the same names (``n_tiers``,
    :attr:`tier_capacity_pages`, :meth:`tier_free_pages`, ``page_tier``,
    :attr:`tier_arena`) and write it with one :class:`MigrationBatch`
    type, so a policy runs on every tier count without asking which table
    it holds.
    """

    #: weight lanes per arena segment boundary (8 * 8 B = one cache line)
    _ARENA_ALIGN = 8

    #: tier index of the arena's padding lanes (no tier)
    NO_TIER = -1

    def __init__(
        self,
        objects: Iterable[DataObject],
        capacities_bytes: Sequence[int],
        rng=None,
    ) -> None:
        caps = tuple(int(c) for c in capacities_bytes)
        if len(caps) < 2:
            raise ValueError("need capacities for at least two tiers")
        if any(c < 0 for c in caps):
            raise ValueError("tier capacities must be non-negative")
        self.capacities_bytes = caps
        self.n_tiers = len(caps)
        rng = make_rng(rng)
        self._objects: dict[str, TieredPagedObject] = {}
        for spec in objects:
            if spec.name in self._objects:
                raise ValueError(f"duplicate object {spec.name!r}")
            self._objects[spec.name] = TieredPagedObject(
                spec, self.n_tiers, rng=rng
            )
        if self.total_pages > sum(self.tier_capacity_pages):
            raise ValueError("workload does not fit in the topology")
        self._build_arena()
        self.place_waterfall()

    # -- arena ---------------------------------------------------------
    def _build_arena(self) -> None:
        objs = list(self._objects.values())
        starts = _lane_starts(objs, self._ARENA_ALIGN)
        pos = starts[-1]
        self._weight_arena = np.zeros(pos, dtype=np.float64)
        self._tier_arena = np.full(pos, self.NO_TIER, dtype=np.int8)
        # the write body's scratch for spotting a lane listed twice in one
        # destination group; every lane it reads was written in the same group
        self._mark = np.empty(pos, dtype=np.intp)
        self._page_bounds = _page_bounds(objs)
        self._page_owner = _page_owner(self._page_bounds)
        self._starts = starts[:-1]
        self._sizes = np.diff(self._page_bounds)
        #: object number (table order) of each name
        self._number = {o.name: i for i, o in enumerate(objs)}
        self._slices: dict[str, slice] = {}
        for o, start in zip(objs, starts.tolist()):
            sl = slice(start, start + o.n_pages)
            self._slices[o.name] = sl
            self._weight_arena[sl] = o.weight
            self._tier_arena[sl] = o.page_tier
            o.weight = self._weight_arena[sl]
            o.page_tier = self._tier_arena[sl]

    # -- pickling: numpy views detach from their base under pickle, so the
    # arenas are dropped and rebuilt from the objects' (copied) vectors
    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        for key in (
            "_weight_arena",
            "_tier_arena",
            "_mark",
            "_page_bounds",
            "_page_owner",
            "_starts",
            "_sizes",
            "_number",
            "_slices",
        ):
            state.pop(key, None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._build_arena()

    @property
    def weight_arena(self) -> np.ndarray:
        """The shared per-page access-weight arena (read-only by convention).

        Object segments are located by :meth:`object_slice`; lanes between
        segments are alignment padding and always zero.
        """
        return self._weight_arena

    @property
    def tier_arena(self) -> np.ndarray:
        """The shared ``int8`` per-page tier-index arena (read-only by
        convention: writing it bypasses the per-tier counts and the
        fraction cache)."""
        return self._tier_arena

    def object_slice(self, name: str) -> slice:
        """Arena slice holding ``name``'s pages (exclusive of padding)."""
        return self._slices[name]

    def arena_lanes(self, obj: np.ndarray, pages: np.ndarray) -> np.ndarray:
        """Arena lane of page ``pages[i]`` of object number ``obj[i]``
        (table order)."""
        return self._starts[obj] + pages

    # -- mapping -------------------------------------------------------
    def __iter__(self) -> Iterator[TieredPagedObject]:
        return iter(self._objects.values())

    def __len__(self) -> int:
        return len(self._objects)

    def __contains__(self, name: str) -> bool:
        return name in self._objects

    def object(self, name: str) -> TieredPagedObject:
        return self._objects[name]

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(self._objects)

    @property
    def total_pages(self) -> int:
        return sum(o.n_pages for o in self._objects.values())

    @property
    def total_bytes(self) -> int:
        return sum(o.spec.size_bytes for o in self._objects.values())

    # -- capacity ------------------------------------------------------
    @property
    def tier_capacity_pages(self) -> tuple[int, ...]:
        return tuple(c // PAGE_SIZE for c in self.capacities_bytes)

    def tier_used_pages(self, k: int) -> float:
        return float(self._used[k])

    def tier_used_bytes(self, k: int) -> float:
        return self.tier_used_pages(k) * PAGE_SIZE

    def tier_free_pages(self, k: int) -> int:
        return self._free(k)

    def _free(self, k: int) -> int:
        # the table's own bodies call this, not the traced query above;
        # capacity is re-read per call: the engine may shrink it for the
        # duration of one batch (memory pressure)
        return int(self.capacities_bytes[k] // PAGE_SIZE - self._used[k])

    # -- placement -----------------------------------------------------
    def place_waterfall(self) -> None:
        """Deterministic initial placement: fill the slowest tier first,
        overflowing page-by-page into faster tiers (object insertion
        order, ascending page ids) -- what first-touch in far memory
        leaves you with, and the state every policy starts from."""
        free = list(self.tier_capacity_pages)
        used = [0] * self.n_tiers
        for obj in self:
            placed = 0
            for k in range(self.n_tiers - 1, -1, -1):
                take = min(obj.n_pages - placed, free[k])
                if take <= 0:
                    continue
                obj.page_tier[placed : placed + take] = k
                free[k] -= take
                used[k] += take
                placed += take
                if placed == obj.n_pages:
                    break
        self._used = used
        #: per-object fractions; None marks one to recompute
        self._fractions: dict = dict.fromkeys(self.names)

    def place_all(self, tier: int) -> None:
        """Every page of every object on ``tier``: a start hook's reset.

        Raises if the pages do not fit there (the DRAM-only baseline
        requires the footprint to fit).
        """
        if not 0 <= tier < self.n_tiers:
            raise ValueError(f"tier {tier} out of range")
        need, cap = self.total_pages, self.tier_capacity_pages[tier]
        if need > cap:
            raise ValueError(
                f"placement needs {need} pages on tier {tier}, capacity is {cap}"
            )
        for obj in self:
            obj.page_tier[:] = tier
        self._used = [0] * self.n_tiers
        self._used[tier] = need
        self._fractions = dict.fromkeys(self.names)

    def place(self, batch: MigrationBatch) -> int:
        """Stage a placement outside the engine's migration accounting
        (start hooks, the journal's undo): :meth:`apply_batch`'s body,
        with the same clamping, returning the pages moved."""
        return self._apply(batch)

    def apply_batch(self, batch: MigrationBatch) -> int:
        """Apply a migration batch, clamping every move to the destination
        tier's free pages.

        Moves toward slower tiers are applied first so swap traffic (demote
        cold, promote hot) never transiently over-commits a fast tier.
        A page listed twice among the moves to one tier moves (and counts)
        once.  An out-of-range destination or page raises before anything
        is written.  Returns pages actually moved.
        """
        return self._apply(batch)

    def _apply(self, batch: MigrationBatch) -> int:
        """The one write body (see :meth:`apply_batch`).

        Every destination and page index is checked before anything is
        written.  Then each destination tier, highest index first, takes
        one vectorised pass over its moves' arena lanes in batch order:
        lanes already on the tier drop out, a lane listed again keeps its
        first occurrence, and the rest are clamped to the tier's free pages
        at the start of the pass.  That moves the pages a move-by-move loop
        moves (PERFORMANCE.md section 4, rule 11).
        """
        n = self.n_tiers
        for _, _, dst in batch.moves:
            if not 0 <= dst < n:
                raise ValueError(f"destination tier {dst} out of range")
        moves = [m for m in batch.moves if len(m[1])]
        if not moves:
            return 0
        number = self._number
        obj = np.array([number[name] for name, _, _ in moves], dtype=np.intp)
        lens = [len(idx) for _, idx, _ in moves]
        pages = np.concatenate([idx for _, idx, _ in moves])
        owner = np.repeat(obj, lens)
        if (pages < 0).any() or (pages >= self._sizes[owner]).any():
            raise IndexError("page index out of range")
        lanes = self.arena_lanes(owner, pages)
        dsts = [m[2] for m in moves]
        lane_dst = np.repeat(dsts, lens)
        moved = 0
        for dst in sorted(set(dsts), reverse=True):
            sel = lane_dst == dst
            moved += self._move_lanes(lanes[sel], owner[sel], dst)
        return moved

    def _move_lanes(self, lanes: np.ndarray, owner: np.ndarray, dst: int) -> int:
        """Move arena ``lanes`` (of objects number ``owner``, in batch
        order) to tier ``dst``: :meth:`_apply`'s pass for one destination."""
        free = self._free(dst)
        if free <= 0:
            return 0
        tier = self._tier_arena
        keep = tier[lanes] != dst
        lanes, owner = lanes[keep], owner[keep]
        if not len(lanes):
            return 0
        pos = np.arange(len(lanes))
        mark = self._mark
        mark[lanes] = pos
        if not (mark[lanes] == pos).all():
            first = np.sort(np.unique(lanes, return_index=True)[1])
            lanes, owner = lanes[first], owner[first]
        lanes, owner = lanes[:free], owner[:free]
        left = np.bincount(tier[lanes], minlength=self.n_tiers)
        tier[lanes] = dst
        used = self._used
        for k, n_left in enumerate(left.tolist()):
            used[k] -= n_left
        used[dst] += len(lanes)
        names = self.names
        for i in np.flatnonzero(np.bincount(owner)).tolist():
            self._fractions[names[i]] = None
        return len(lanes)

    # -- queries -------------------------------------------------------
    def _fraction(self, obj: TieredPagedObject):
        """One object's cached fraction: its per-tier vector."""
        return obj.tier_access_fractions()

    def _cached_fractions(self) -> dict:
        """The per-object fraction cache, stale entries recomputed."""
        cache = self._fractions
        for name, value in cache.items():
            if value is None:
                cache[name] = self._fraction(self._objects[name])
        return cache

    def _fast_fractions(self) -> dict[str, float]:
        """Each object's tier-0 access fraction (pressure-victim order)."""
        return {
            name: float(vec[0]) for name, vec in self._cached_fractions().items()
        }

    def access_fraction_vectors(self) -> dict[str, np.ndarray]:
        """Per-object per-tier access-weighted fraction vectors (copies).

        Each object's vector is cached and recomputed only after a write
        moved its pages.
        """
        return {name: vec.copy() for name, vec in self._cached_fractions().items()}

    # -- fastest-tier view (engine hooks) -------------------------------
    @property
    def fast_capacity_bytes(self) -> int:
        """Tier 0's capacity: the tier capacity-pressure spikes steal from."""
        return self.capacities_bytes[0]

    def fast_occupancy(self) -> float:
        """Used fraction of tier 0 (the engine's occupancy gauge)."""
        return self.tier_used_bytes(0) / max(self.capacities_bytes[0], 1)

    def apply_batch_under_pressure(
        self, batch: MigrationBatch, pressure_bytes: int
    ) -> int:
        """:meth:`apply_batch` with ``pressure_bytes`` of tier 0 stolen by an
        external allocation for the duration of the batch."""
        base = self.capacities_bytes
        self.capacities_bytes = (max(0, base[0] - pressure_bytes),) + base[1:]
        try:
            return self.apply_batch(batch)
        finally:
            self.capacities_bytes = base

    def plan_pressure_evictions(
        self, pressure_bytes: int
    ) -> MigrationBatch | None:
        """Moves of the coldest tier-0 pages to the nearest slower tier with
        free pages, so tier 0 fits what a pressure spike of
        ``pressure_bytes`` leaves over; ``None`` when nothing has to move.
        Pure planning (no mutation), so the choice can be journaled before
        it is applied.

        Victim order is a deterministic function of the placement: objects
        by ``(tier-0 access fraction, name)`` -- the name tie-break pins the
        order when fractions tie -- and pages coldest-first with stable id
        tie-breaks.  Destinations fill slower tiers in order (1, 2, ...),
        so demoted pages land as close to tier 0 as space allows.
        """
        if pressure_bytes <= 0:
            return None
        left_bytes = self.capacities_bytes[0] - pressure_bytes
        need = int(self.tier_used_pages(0)) - max(0, left_bytes // PAGE_SIZE)
        if need <= 0:
            return None
        free = [self._free(k) for k in range(self.n_tiers)]
        fractions = self._fast_fractions()
        moves: list[tuple[str, np.ndarray, int]] = []
        picked = 0
        dst = 1
        for obj in sorted(self, key=lambda o: (fractions[o.name], o.name)):
            if picked >= need:
                break
            cold = obj.coldest_pages_in(0, limit=need - picked)
            pos = 0
            while pos < len(cold):
                while dst < self.n_tiers and free[dst] <= 0:
                    dst += 1
                if dst >= self.n_tiers:
                    break
                take = cold[pos : pos + free[dst]]
                moves.append((obj.name, take, dst))
                free[dst] -= len(take)
                picked += len(take)
                pos += len(take)
            if dst >= self.n_tiers:
                break
        return MigrationBatch(moves=tuple(moves)) if moves else None

    def sample_pages(self, n: int, rng=None) -> tuple[np.ndarray, np.ndarray]:
        """Uniformly sample ``n`` pages across the whole space.

        This is the application-agnostic random page sampling that the paper
        identifies as a root cause of load imbalance: it knows nothing about
        tasks, only addresses.  Returns ``(obj, pages)`` with multiplicity:
        each sample's object number (table order, ascending) and page index
        within that object, each object's samples in draw order.
        """
        return _sample_uniform(self._page_bounds, self._page_owner, n, rng)


class PageTable(TieredPageTable):
    """The n = 2 front end of :class:`TieredPageTable`: tier 0 DRAM, tier 1
    PM, built from a DRAM capacity.

    PM holds :attr:`PM_PAGES` pages, an unbounded backing store surfaced as
    a huge-but-finite count so fill loops terminate, so every page starts
    there.

    The 2-tier read is :meth:`access_fractions`: one cached
    ``weight @ (page_tier == 0)`` dot per object, dropped by the shared
    write body.  It stays a dot rather than the N-tier one-hot GEMV because
    the GEMV adds in another order and would move every 2-tier result
    (PERFORMANCE.md section 4, rule 3); pressure-eviction victims are
    ordered by the same dot.

    ``apply_batch``, ``sample_pages``, ``access_fractions`` and
    ``dram_used_bytes`` are declared on this class, each over a body it
    shares with :class:`TieredPageTable`, because the benchmark's tracer
    times each class's own methods by name.
    """

    PM_PAGES = 2**62 // PAGE_SIZE

    def __init__(
        self,
        objects: Iterable[DataObject],
        dram_capacity_bytes: int,
        rng=None,
    ) -> None:
        super().__init__(
            objects, (dram_capacity_bytes, self.PM_PAGES * PAGE_SIZE), rng=rng
        )

    @property
    def dram_capacity_bytes(self) -> int:
        return self.capacities_bytes[0]

    def dram_used_bytes(self) -> int:
        return self._used[0] * PAGE_SIZE

    def dram_free_pages(self) -> int:
        return int((self.dram_capacity_bytes - self.dram_used_bytes()) // PAGE_SIZE)

    def apply_batch(self, batch: MigrationBatch) -> int:
        """Apply a migration batch, demotions first, promotions clamped to
        free DRAM (:meth:`TieredPageTable.apply_batch`)."""
        return self._apply(batch)

    def sample_pages(self, n: int, rng=None) -> tuple[np.ndarray, np.ndarray]:
        """Uniform page sampling (:meth:`TieredPageTable.sample_pages`)."""
        return _sample_uniform(self._page_bounds, self._page_owner, n, rng)

    def _fraction(self, obj: TieredPagedObject) -> float:
        return float(obj.weight @ (obj.page_tier == 0))

    def _fast_fractions(self) -> dict[str, float]:
        return self._cached_fractions()

    def access_fractions(self) -> dict[str, float]:
        """Per-object access-weighted DRAM fractions (``r_dram`` inputs)."""
        return dict(self._cached_fractions())

    def access_fraction_vectors(self) -> dict[str, np.ndarray]:
        """``(r, 1 - r)`` per object: the vectors the n = 2 tick kernel
        prices :meth:`access_fractions` as."""
        return {
            name: np.array([r, 1.0 - r])
            for name, r in self._cached_fractions().items()
        }

    def set_dram_shares(self, shares: Mapping[str, float]) -> None:
        """Memory Mode's DRAM hit share of each object: it stands in for the
        object's page dot in :meth:`access_fractions` until a write next
        moves that object's pages.  No page is written, so the share holds
        no DRAM capacity."""
        unknown = set(shares) - set(self._fractions)
        if unknown:
            raise KeyError(f"no such objects: {sorted(unknown)}")
        self._fractions.update(shares)
