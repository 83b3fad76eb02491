"""Page tables with per-page popularity and per-page placement.

Each managed :class:`~repro.tasks.task.DataObject` becomes a
:class:`PagedObject`: a vector of per-page access weights (how the object's
main-memory accesses distribute over its pages) plus a vector of DRAM
residency in ``[0, 1]`` per page.

Residency is *fractional* so that both software placement (pages are fully in
one tier: residency 0 or 1) and Memory Mode's hardware cache (a page is
resident for whatever fraction of its accesses hit the direct-mapped DRAM
cache) flow through the same accounting.  The task-level quantity everything
downstream consumes is the access-weighted DRAM fraction
(:meth:`PagedObject.dram_access_fraction`), the paper's ``r_dram_acc``.

The N-tier :class:`TieredPageTable` places software-managed pages only, so
its per-page state is one integer tier index per page; fractions per tier
are derived from it.

Both tables share one read interface (``n_tiers``, ``tier_capacity_pages``,
``tier_free_pages(k)``, each page's tier through ``object(name).page_tier``
or ``tier_arena[lanes]``) and one write interface: :meth:`apply_batch` of a
:class:`MigrationBatch` of ``(object, pages, destination tier)`` moves, tier
0 the fastest.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.common import PAGE_SIZE, make_rng, zipf_weights
from repro.tasks.task import DataObject

__all__ = [
    "PagedObject",
    "PageTable",
    "MigrationBatch",
    "PageRates",
    "TieredPagedObject",
    "TieredPageTable",
    "page_weights",
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
    bounds: np.ndarray, n: int, rng
) -> tuple[np.ndarray, np.ndarray]:
    """Draw ``n`` page ids uniformly over objects laid end to end (object
    ``i`` owns ids ``bounds[i]:bounds[i+1]``).

    Returns ``(obj, pages)``: each draw's object index and its page index
    within that object, grouped by object in table order, each group in
    draw order.
    """
    rng = make_rng(rng)
    total = bounds[-1]
    if total == 0 or n <= 0:
        return np.empty(0, dtype=np.intp), np.empty(0, dtype=np.int64)
    picks = rng.integers(0, total, size=n)
    which = np.searchsorted(bounds[1:], picks, side="right")
    # a stable sort on a narrow integer key is a radix sort
    key = which.astype(np.min_scalar_type(len(bounds) - 1))
    order = np.argsort(key, kind="stable")
    obj = which[order]
    return obj, picks[order] - bounds[obj]


def _page_bounds(objs: Iterable) -> np.ndarray:
    """Start of each object's page-id range when objects are laid end to
    end, followed by the total page count."""
    sizes = np.array([o.n_pages for o in objs], dtype=np.int64)
    return np.concatenate(([0], np.cumsum(sizes)))


class PagedObject:
    """Pages of one data object.

    Attributes
    ----------
    weight:
        Per-page fraction of the object's main-memory accesses (sums to 1).
    residency:
        Per-page DRAM residency in ``[0, 1]``, a read-only view.
        :meth:`set_pages` is its one writer, and it keeps the object's
        cached terms current: :meth:`dram_pages` is recounted at the write
        (free-DRAM checks read it before the next move anyway) and
        :meth:`dram_access_fraction` is dropped until its next reader.
    """

    __slots__ = (
        "spec",
        "n_pages",
        "weight",
        "residency",
        "_writable",
        "_pages",
        "_fraction",
    )

    def __init__(self, spec: DataObject, rng=None) -> None:
        self.spec = spec
        self.n_pages = spec.n_pages
        self.weight = page_weights(spec, rng)
        self._bind(np.zeros(self.n_pages, dtype=np.float64))

    def _bind(self, writable: np.ndarray) -> None:
        """Adopt ``writable`` as the residency storage; ``residency``
        becomes a read-only view of the same memory."""
        readonly = writable.view()
        readonly.flags.writeable = False
        self._writable = writable
        self.residency = readonly
        self._pages = float(readonly.sum())
        self._fraction = None

    # -- pickling: the two views would detach into two copies, so only the
    # values travel and unpickling binds fresh views
    def __getstate__(self) -> dict:
        return {
            "spec": self.spec,
            "n_pages": self.n_pages,
            "weight": self.weight,
            "residency": self._writable,
        }

    def __setstate__(self, state: dict) -> None:
        self.spec = state["spec"]
        self.n_pages = state["n_pages"]
        self.weight = state["weight"]
        self._bind(np.array(state["residency"], dtype=np.float64))

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def owner(self) -> str | None:
        return self.spec.owner

    def dram_pages(self) -> float:
        """Equivalent number of pages resident in DRAM (recounted at each
        write)."""
        return self._pages

    def dram_bytes(self) -> float:
        return self.dram_pages() * PAGE_SIZE

    @property
    def page_tier(self) -> np.ndarray:
        """Each page's tier (0 DRAM, 1 PM), derived from residency: a page
        Memory Mode's cache holds fractionally counts as DRAM only when
        more than half resident."""
        return (self.residency <= 0.5).astype(np.int8)

    def dram_access_fraction(self) -> float:
        """Access-weighted fraction of this object served from DRAM
        (cached until the next write)."""
        if self._fraction is None:
            self._fraction = float(self.weight @ self.residency)
        return self._fraction

    def set_pages(self, idx, value: float | np.ndarray) -> None:
        """``residency[idx] = value``: the one residency writer.

        Values are stored as given (callers write 0, 1, before-images or
        :meth:`set_residency`'s clipped vector).  The page count is
        recounted and the access fraction dropped.
        """
        self._writable[idx] = value
        self._pages = float(self.residency.sum())
        self._fraction = None

    def set_residency(self, value: float | np.ndarray) -> None:
        """Set residency for every page (scalar broadcast or full vector)."""
        arr = np.asarray(value, dtype=np.float64)
        if arr.ndim and arr.shape != (self.n_pages,):
            raise ValueError("residency vector has wrong length")
        if (arr < -1e-12).any() or (arr > 1 + 1e-12).any():
            raise ValueError("residency must be within [0, 1]")
        self.set_pages(slice(None), np.clip(arr, 0.0, 1.0))

    def hottest_pm_pages(self, limit: int | None = None) -> np.ndarray:
        """Indices of pages not yet (fully) in DRAM, hottest first.

        Ties are broken by page id (stable sort), so the ordering is a
        deterministic function of (rate, id) regardless of how candidates
        happen to be laid out.
        """
        candidates = np.flatnonzero(self.residency < 1.0 - 1e-12)
        order = np.argsort(-self.weight[candidates], kind="stable")
        idx = candidates[order]
        return idx if limit is None else idx[:limit]

    def coldest_dram_pages(self, limit: int | None = None) -> np.ndarray:
        """Indices of pages (partially) in DRAM, coldest first; ties broken
        by page id (stable sort)."""
        candidates = np.flatnonzero(self.residency > 1e-12)
        order = np.argsort(self.weight[candidates], kind="stable")
        idx = candidates[order]
        return idx if limit is None else idx[:limit]


@dataclass(frozen=True)
class MigrationBatch:
    """A set of page moves requested by a placement policy for one tick.

    Every move names its destination tier, fastest first, on either page
    table: on :class:`PageTable` tier 0 is DRAM and tier 1 is PM.  A
    destination is an ``int``; ``True``/``False`` promote flags would read
    as tiers 1 and 0, the opposite of what they meant.
    """

    #: (object name, page indices, destination tier index) triples
    moves: tuple[tuple[str, np.ndarray, int], ...]

    @property
    def n_pages(self) -> int:
        return int(sum(len(idx) for _, idx, _ in self.moves))

    @property
    def bytes_moved(self) -> int:
        return self.n_pages * PAGE_SIZE


class PageTable:
    """All paged objects of a workload plus DRAM capacity accounting.

    Page state is stored struct-of-arrays (PERFORMANCE.md): one contiguous
    weight arena and one residency arena cover every object, and each
    :class:`PagedObject`'s ``weight``/``residency`` are views into them.
    There is exactly one copy of the data, so per-object methods and bulk
    arena consumers (the sim's batched kernels, sampling profilers) read
    the same bits by construction.  Object segments are padded to
    :data:`_ARENA_ALIGN` float64 lanes (one cache line) so per-object views
    keep the alignment fresh allocations would have; padding lanes are
    never written and stay zero.

    Residency is read-only outside :meth:`PagedObject.set_pages`, so each
    object's cached DRAM page count and access fraction are current, and
    the table-wide aggregates re-sum those terms in table order
    (PERFORMANCE.md section 4, rule 3).
    """

    #: float64 lanes per arena segment boundary (8 * 8 B = one cache line)
    _ARENA_ALIGN = 8

    #: tier 0 is DRAM, tier 1 PM
    n_tiers = 2

    #: pages PM reports as capacity and as free: PM is an unbounded backing
    #: store, surfaced as a huge-but-finite count so fill loops terminate
    PM_PAGES = 2**62 // PAGE_SIZE

    def __init__(
        self,
        objects: Iterable[DataObject],
        dram_capacity_bytes: int,
        rng=None,
    ) -> None:
        rng = make_rng(rng)
        self._objects: dict[str, PagedObject] = {}
        for spec in objects:
            if spec.name in self._objects:
                raise ValueError(f"duplicate object {spec.name!r}")
            self._objects[spec.name] = PagedObject(spec, rng=rng)
        if dram_capacity_bytes < 0:
            raise ValueError("DRAM capacity must be non-negative")
        self.dram_capacity_bytes = dram_capacity_bytes
        self._build_arena()

    def _build_arena(self) -> None:
        """Adopt every object's page vectors into the shared arenas."""
        objs = list(self._objects.values())
        starts = _lane_starts(objs, self._ARENA_ALIGN)
        pos = starts[-1]
        self._weight_arena = np.zeros(pos, dtype=np.float64)
        self._residency_arena = np.zeros(pos, dtype=np.float64)
        readonly = self._residency_arena.view()
        readonly.flags.writeable = False
        self._residency_view = readonly
        self._page_bounds = _page_bounds(objs)
        self._starts = starts[:-1]
        self._slices: dict[str, slice] = {}
        for o, start in zip(objs, starts.tolist()):
            sl = slice(start, start + o.n_pages)
            self._slices[o.name] = sl
            self._weight_arena[sl] = o.weight
            self._residency_arena[sl] = o.residency
            o.weight = self._weight_arena[sl]
            o._bind(self._residency_arena[sl])

    # -- pickling: numpy views detach from their base under pickle, so the
    # arena is dropped and rebuilt from the objects' (copied) vectors
    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        for key in (
            "_weight_arena",
            "_residency_arena",
            "_residency_view",
            "_page_bounds",
            "_starts",
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
    def residency_arena(self) -> np.ndarray:
        """The shared per-page DRAM-residency arena, read-only.

        Object ``residency`` views are slices of the same memory; batched
        consumers may read it wholesale instead of walking objects.
        """
        return self._residency_view

    @property
    def tier_arena(self) -> np.ndarray:
        """Each arena lane's tier, as :attr:`PagedObject.page_tier` derives
        it (a fresh array; padding lanes read as PM)."""
        return (self._residency_view <= 0.5).astype(np.int8)

    def object_slice(self, name: str) -> slice:
        """Arena slice holding ``name``'s pages (exclusive of padding)."""
        return self._slices[name]

    def arena_lanes(self, obj: np.ndarray, pages: np.ndarray) -> np.ndarray:
        """Arena lane of page ``pages[i]`` of object number ``obj[i]``
        (table order)."""
        return self._starts[obj] + pages

    def __iter__(self) -> Iterator[PagedObject]:
        return iter(self._objects.values())

    def __len__(self) -> int:
        return len(self._objects)

    def __contains__(self, name: str) -> bool:
        return name in self._objects

    def object(self, name: str) -> PagedObject:
        return self._objects[name]

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(self._objects)

    @property
    def total_pages(self) -> int:
        return int(self._page_bounds[-1])

    @property
    def total_bytes(self) -> int:
        return sum(o.spec.size_bytes for o in self)

    def _dram_used(self) -> float:
        """Cached per-object DRAM bytes re-summed in table order;
        :meth:`apply_batch` calls it directly, so :meth:`dram_used_bytes`
        counts only the queries made by policies and the engine."""
        return sum(o.dram_bytes() for o in self._objects.values())

    def dram_used_bytes(self) -> float:
        return self._dram_used()

    def dram_free_bytes(self) -> float:
        return self.dram_capacity_bytes - self.dram_used_bytes()

    def dram_free_pages(self) -> int:
        return int(self.dram_free_bytes() // PAGE_SIZE)

    @property
    def tier_capacity_pages(self) -> tuple[int, int]:
        return (int(self.dram_capacity_bytes // PAGE_SIZE), self.PM_PAGES)

    def tier_free_pages(self, k: int) -> int:
        """Free pages on tier ``k``: :meth:`dram_free_pages` for DRAM,
        :attr:`PM_PAGES` for PM."""
        return self.dram_free_pages() if k == 0 else self.PM_PAGES

    def place_all(self, residency: float) -> None:
        """Blanket placement: residency for every page of every object.

        Raises if the result would not fit in DRAM (used by the DRAM-only
        baseline, which requires the footprint to fit).
        """
        need = residency * self.total_bytes
        if need > self.dram_capacity_bytes + PAGE_SIZE:
            raise ValueError(
                f"placement needs {need:.0f} B of DRAM, "
                f"capacity is {self.dram_capacity_bytes} B"
            )
        for obj in self:
            obj.set_residency(residency)

    def apply_batch(self, batch: MigrationBatch) -> int:
        """Apply a migration batch, clamping promotions to free DRAM.

        Returns the number of pages actually moved.  Demotions (destination
        1) are applied first so a batch can express swap traffic (demote
        cold, promote hot) without transiently exceeding capacity.  Free
        DRAM before each promotion (destination 0) is
        :meth:`dram_free_pages` bit for bit: the objects' cached page
        counts, recounted at each write, re-summed in table order.
        """
        moved = 0
        for name, idx, dst in batch.moves:
            if dst == 0:
                continue
            if dst != 1:
                raise ValueError(f"destination tier {dst} out of range")
            obj = self.object(name)
            sel = idx[obj.residency[idx] > 1e-12]
            # a no-op write would still drop the cached fraction
            if len(sel):
                obj.set_pages(sel, 0.0)
            moved += len(sel)
        for name, idx, dst in batch.moves:
            if dst != 0:
                continue
            obj = self.object(name)
            sel = idx[obj.residency[idx] < 1.0 - 1e-12]
            # capacity is re-read per move: the engine may shrink it for
            # the duration of one batch (memory pressure)
            free = int((self.dram_capacity_bytes - self._dram_used()) // PAGE_SIZE)
            if free <= 0:
                continue
            sel = sel[:free]
            if len(sel):
                obj.set_pages(sel, 1.0)
            moved += len(sel)
        return moved

    def access_fractions(self) -> dict[str, float]:
        """Per-object access-weighted DRAM fractions (``r_dram`` inputs)."""
        return {
            name: o.dram_access_fraction() for name, o in self._objects.items()
        }

    # -- fastest-tier view shared with TieredPageTable (engine hooks) ----
    @property
    def fast_capacity_bytes(self) -> int:
        """DRAM capacity: the tier capacity-pressure spikes steal from."""
        return self.dram_capacity_bytes

    def fast_occupancy(self) -> float:
        """Used fraction of DRAM (the engine's occupancy gauge)."""
        return self.dram_used_bytes() / max(self.dram_capacity_bytes, 1)

    def apply_batch_under_pressure(
        self, batch: MigrationBatch, pressure_bytes: int
    ) -> int:
        """:meth:`apply_batch` with ``pressure_bytes`` of DRAM stolen by an
        external allocation for the duration of the batch."""
        base = self.dram_capacity_bytes
        self.dram_capacity_bytes = max(0, base - pressure_bytes)
        try:
            return self.apply_batch(batch)
        finally:
            self.dram_capacity_bytes = base

    def plan_pressure_evictions(self, pressure_bytes: int) -> MigrationBatch | None:
        """Demotions of the coldest DRAM pages that make the table fit the
        capacity a pressure spike of ``pressure_bytes`` leaves over, or
        ``None`` when nothing has to move.  Pure planning (no mutation), so
        the choice can be journaled before it is applied.

        Victim order is a deterministic function of the placement: objects
        by ``(dram_access_fraction, name)`` -- the name tie-break pins the
        order when fractions tie, independent of dict insertion order --
        and pages within an object coldest-first with id tie-breaks
        (:meth:`PagedObject.coldest_dram_pages` uses a stable sort).
        """
        if pressure_bytes <= 0:
            return None
        left_bytes = self.dram_capacity_bytes - pressure_bytes
        used = int(sum(obj.dram_pages() for obj in self))
        need = used - max(0, left_bytes // PAGE_SIZE)
        if need <= 0:
            return None
        moves: list[tuple[str, np.ndarray, int]] = []
        picked = 0
        for obj in sorted(self, key=lambda o: (o.dram_access_fraction(), o.name)):
            if picked >= need:
                break
            cold = obj.coldest_dram_pages(limit=need - picked)
            if len(cold):
                moves.append((obj.name, cold, 1))
                picked += len(cold)
        return MigrationBatch(moves=tuple(moves)) if moves else None

    def sample_pages(self, n: int, rng=None) -> tuple[np.ndarray, np.ndarray]:
        """Uniformly sample ``n`` pages across the whole space.

        This is the application-agnostic random page sampling that the paper
        identifies as a root cause of load imbalance: it knows nothing about
        tasks, only addresses.  Returns ``(obj, pages)`` with multiplicity:
        each sample's object number (table order, ascending) and page index
        within that object, each object's samples in draw order.
        """
        return _sample_uniform(self._page_bounds, n, rng)


class PageRates:
    """Per-page main-memory access rates, kept as per-object terms.

    Page ``p`` of object ``o`` is accessed ``w[p]*c[0] + w[p]*c[1] + ...``
    times per second: its access weight times each accessing instance's
    ``acc.total / t``, added in active-instance order.  :meth:`arrays`
    evaluates every page of each object and :meth:`at` only the lanes a
    profiler sampled.  Both multiply and add elementwise in the same
    order, and :meth:`at`'s zero padding for objects with fewer terms adds
    ``+0.0``, so the two agree bit for bit (PERFORMANCE.md section 4,
    rules 1 and 3).  Works on either page-table kind.
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
        order); every object listed must have terms."""
        per_object = [self.terms.get(name, ()) for name in self.table.names]
        depth = max(len(c) for c in per_object)
        coef = np.array(
            [[c[d] if d < len(c) else 0.0 for c in per_object] for d in range(depth)]
        )
        weight = self.table.weight_arena[lanes]
        rates = weight * coef[0][obj]
        for row in coef[1:]:
            rates += weight * row[obj]
        return rates


def _lane_starts(objs: Sequence, align: int) -> np.ndarray:
    """Arena start lane of each object's segment, each padded to a
    multiple of ``align`` lanes, followed by the arena length."""
    padded = [-(-o.n_pages // align) * align for o in objs]
    return np.concatenate(([0], np.cumsum(padded, dtype=np.int64)))

# ----------------------------------------------------------------------
# N-tier placement (TopologySpec-backed)
# ----------------------------------------------------------------------

class TieredPagedObject:
    """Pages of one data object across N tiers.

    ``page_tier`` is each page's tier index (``int8``, fastest first).
    Software placement keeps every page wholly on one tier, so one index
    per page is the whole placement state, and the per-tier access
    fractions are the one-hot indicator of ``page_tier`` times ``weight``.
    Fractional, hardware-cache-style residency exists only on the 2-tier
    :class:`PagedObject` (Memory Mode); a future cache-style N-tier policy
    would model its share at object level, outside the page arena.
    """

    __slots__ = ("spec", "n_pages", "n_tiers", "weight", "page_tier")

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

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def owner(self) -> str | None:
        return self.spec.owner

    def tier_access_fractions(self) -> np.ndarray:
        """Access-weighted per-tier fraction vector (sums to 1).

        The one-hot matrix is materialized so the product is one BLAS
        matrix-vector call, bit for bit the sum a float residency matrix
        gives; ``bincount(weights=)`` and per-row dots add in other orders
        (PERFORMANCE.md section 4, rule 3).
        """
        onehot = self.page_tier[None, :] == np.arange(self.n_tiers)[:, None]
        return onehot.astype(np.float64) @ self.weight

    def hottest_pages_slower_than(
        self, k: int, limit: int | None = None
    ) -> np.ndarray:
        """Pages on a tier slower than ``k``, hottest first (ties broken by
        page id via stable sort)."""
        candidates = np.flatnonzero(self.page_tier > k)
        order = np.argsort(-self.weight[candidates], kind="stable")
        idx = candidates[order]
        return idx if limit is None else idx[:limit]

    def coldest_pages_in(self, k: int, limit: int | None = None) -> np.ndarray:
        """Pages on tier ``k``, coldest first."""
        candidates = np.flatnonzero(self.page_tier == k)
        order = np.argsort(self.weight[candidates], kind="stable")
        idx = candidates[order]
        return idx if limit is None else idx[:limit]


class TieredPageTable:
    """All paged objects of a workload plus per-tier capacity accounting.

    Mirrors :class:`PageTable`'s struct-of-arrays layout: one weight arena
    and one ``int8`` tier-index arena cover every object, with each
    object's ``weight``/``page_tier`` as views (padding lanes hold
    :attr:`NO_TIER`).  Every page is on exactly one tier, so the table
    keeps exact integer used-page counts per tier, updated from the tiers
    each move changes, and one cached fraction vector per object,
    recomputed only after a batch moves that object.  *Every* tier is
    capacity-checked -- including the slowest, which the 2-tier table
    treats as an unbounded backing store -- so the conformance harness's
    over-commit invariant is enforceable uniformly.

    Policies read either table through the same names (``n_tiers``,
    :attr:`tier_capacity_pages`, :meth:`tier_free_pages`, ``page_tier``,
    :attr:`tier_arena`) and write both with one :class:`MigrationBatch`
    type, so a policy runs on every tier count without asking which table
    it holds.
    """

    _ARENA_ALIGN = PageTable._ARENA_ALIGN

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
        # apply_batch's scratch for spotting a page listed twice in one
        # move; every lane it reads was written in the same move
        self._mark = np.empty(pos, dtype=np.intp)
        self._page_bounds = _page_bounds(objs)
        self._starts = starts[:-1]
        self._slices: dict[str, slice] = {}
        for o, start in zip(objs, starts.tolist()):
            sl = slice(start, start + o.n_pages)
            self._slices[o.name] = sl
            self._weight_arena[sl] = o.weight
            self._tier_arena[sl] = o.page_tier
            o.weight = self._weight_arena[sl]
            o.page_tier = self._tier_arena[sl]

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        for key in (
            "_weight_arena",
            "_tier_arena",
            "_mark",
            "_page_bounds",
            "_starts",
            "_slices",
        ):
            state.pop(key, None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._build_arena()

    @property
    def weight_arena(self) -> np.ndarray:
        return self._weight_arena

    @property
    def tier_arena(self) -> np.ndarray:
        """The shared ``int8`` per-page tier-index arena (read-only by
        convention: writing it bypasses the per-tier counts and the
        fraction cache)."""
        return self._tier_arena

    def object_slice(self, name: str) -> slice:
        return self._slices[name]

    def arena_lanes(self, obj: np.ndarray, pages: np.ndarray) -> np.ndarray:
        """Arena lane of page ``pages[i]`` of object number ``obj[i]``."""
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
        #: per-object fraction vectors; None marks one to recompute
        self._fractions: dict[str, np.ndarray | None] = dict.fromkeys(self.names)

    def apply_batch(self, batch: MigrationBatch) -> int:
        """Apply a migration batch, clamping every move to the destination
        tier's free pages.

        Moves toward slower tiers are applied first (mirroring the 2-tier
        table's demotions-first rule) so swap traffic never transiently
        over-commits a fast tier.  Returns pages actually moved, counting
        a page listed twice in one move twice; the per-tier counts change
        once per page.
        """
        moved = 0
        used = self._used
        order = sorted(
            range(len(batch.moves)),
            key=lambda i: -batch.moves[i][2],
        )
        for i in order:
            name, idx, dst = batch.moves[i]
            if not 0 <= dst < self.n_tiers:
                raise ValueError(f"destination tier {dst} out of range")
            tier = self.object(name).page_tier
            sel = idx[tier[idx] != dst]
            free = self.tier_free_pages(dst)
            if free <= 0:
                continue
            sel = sel[:free]
            moved += len(sel)
            if not len(sel):
                continue
            src = tier[sel]
            tier[sel] = dst
            # each distinct page keeps exactly one position of the scatter
            pos = np.arange(len(sel))
            mark = self._mark[self._slices[name]]
            mark[sel] = pos
            first = mark[sel] == pos
            left = np.bincount(src[first], minlength=self.n_tiers)
            for k, n_left in enumerate(left.tolist()):
                used[k] -= n_left
            used[dst] += int(np.count_nonzero(first))
            self._fractions[name] = None
        return moved

    # -- queries -------------------------------------------------------
    def access_fraction_vectors(self) -> dict[str, np.ndarray]:
        """Per-object per-tier access-weighted fraction vectors (copies).

        Each object's vector is cached and recomputed only after a batch
        moved its pages.
        """
        cache = self._fractions
        for name, vec in cache.items():
            if vec is None:
                cache[name] = self._objects[name].tier_access_fractions()
        return {name: vec.copy() for name, vec in cache.items()}

    # -- fastest-tier view shared with PageTable (engine hooks) ---------
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

        Same deterministic victim order as the 2-tier
        :meth:`PageTable.plan_pressure_evictions`: objects by ``(tier-0
        access fraction, name)``, pages coldest-first with stable id
        tie-breaks.  Destinations fill slower tiers in order
        (1, 2, ...), so demoted pages land as close to tier 0 as space
        allows.
        """
        if pressure_bytes <= 0:
            return None
        left_bytes = self.capacities_bytes[0] - pressure_bytes
        need = int(self.tier_used_pages(0)) - max(0, left_bytes // PAGE_SIZE)
        if need <= 0:
            return None
        free = [self.tier_free_pages(k) for k in range(self.n_tiers)]
        fractions = self.access_fraction_vectors()
        moves: list[tuple[str, np.ndarray, int]] = []
        picked = 0
        dst = 1
        for obj in sorted(self, key=lambda o: (float(fractions[o.name][0]), o.name)):
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
        """Uniform page sampling across the space (see PageTable)."""
        return _sample_uniform(self._page_bounds, n, rng)
