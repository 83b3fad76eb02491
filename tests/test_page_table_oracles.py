"""Differential tests: optimised page-table routines vs tests/oracles/pages.

Every case builds a seeded random table, runs the production routine and
the reference copy on identical inputs, and requires identical bits:
placements, moved counts, cached DRAM terms, pressure-eviction batches,
sampled pages, page access rates, PTE scan counts (with and without
injected faults), hot-page picks and the interval policy's move queue.
The 2-tier front end is shadowed by :class:`oracles.pages.Residency`, the
parent float residency form that recomputes every aggregate per call;
its cases run with and without Memory Mode object-level shares, and the
shares are checked against the parent per-page Memory Mode cache.
N-tier tables are shadowed by the float one-hot residency matrix of
:class:`oracles.pages.TieredResidency`: moved counts, per-tier used/free
pages, fraction-vector bytes, tier indices and candidate-page orders must
all agree after every batch.  The sampling, rate, scan and top-k cases
also run on a wide table (more than 255 objects, so a 16-bit page owner
key, and one object with more rate terms than any ``paper_merch``
object has).
"""

import pickle
import sys
import threading
from collections import OrderedDict
from types import SimpleNamespace

import numpy as np
import pytest

from repro.common import PAGE_SIZE, AccessPattern, make_rng
from repro.core.journal import _undo_moves
from repro.policies.interval import IntervalReconfigPolicy
from repro.profiling.hotpages import top_k_hot_pages
from repro.profiling.pte import PageSampleEstimate, PTESampleProfiler
from repro.sim import pages
from repro.sim.cache import DirectMappedPageCache
from repro.sim.engine import EngineContext
from repro.sim.faults import FaultConfig, FaultInjector
from repro.sim.pages import MigrationBatch, PageTable, TieredPageTable
from repro.tasks import DataObject, Footprint, ObjectAccess, TaskInstanceSpec
from tests.oracles import pages as oracle

SEEDS = range(12)


def _specs(rng, n_objects: int) -> list[DataObject]:
    return [
        DataObject(
            f"o{i}",
            int(rng.integers(1, 40)) * PAGE_SIZE - int(rng.integers(0, 2)) * 100,
            hotness="zipf" if rng.random() < 0.5 else "uniform",
        )
        for i in range(n_objects)
    ]


def _set_dram(table: PageTable, capacity_bytes: int) -> None:
    table.capacities_bytes = (capacity_bytes,) + table.capacities_bytes[1:]


def _shares(table: PageTable, seed: int) -> dict[str, float]:
    """Memory Mode-style object-level DRAM shares for about half the
    objects of ``table``."""
    rng = np.random.default_rng(500 + seed)
    return {name: float(rng.random()) for name in table.names if rng.random() < 0.6}


def _table(seed: int, shares: bool) -> PageTable:
    rng = np.random.default_rng(seed)
    specs = _specs(rng, int(rng.integers(1, 8)))
    table = PageTable(specs, sum(s.n_pages for s in specs) * PAGE_SIZE, rng=seed)
    table.place(
        MigrationBatch(
            moves=tuple(
                (obj.name, np.flatnonzero(rng.random(obj.n_pages) < 0.4), 0)
                for obj in table
            )
        )
    )
    if shares:
        table.set_dram_shares(_shares(table, seed))
    # capacity a little above current use: promotions run out mid-batch
    _set_dram(table, table.dram_used_bytes() + int(rng.integers(0, 30)) * PAGE_SIZE)
    return table


def _shadow(table: PageTable, seed: int, shares: bool) -> oracle.Residency:
    """The parent form of a fresh :func:`_table`."""
    return oracle.Residency(table, _shares(table, seed) if shares else None)


def _tiered(seed: int, n_tiers: int) -> TieredPageTable:
    rng = np.random.default_rng(seed)
    specs = _specs(rng, int(rng.integers(1, 8)))
    total = sum(s.n_pages for s in specs)
    caps = [int(rng.integers(1, total)) * PAGE_SIZE for _ in range(n_tiers - 1)]
    caps.append(total * PAGE_SIZE)
    return TieredPageTable(specs, caps, rng=seed)


def _tiered_batch(table: TieredPageTable, rng) -> MigrationBatch:
    moves = []
    names = table.names
    for _ in range(int(rng.integers(1, 10))):
        # repeated objects across moves, duplicate page ids within one,
        # pages already on the destination tier
        name = names[int(rng.integers(len(names)))]
        n_pages = table.object(name).n_pages
        idx = rng.integers(0, n_pages, size=int(rng.integers(1, 2 * n_pages + 1)))
        moves.append((name, idx.astype(np.intp), int(rng.integers(table.n_tiers))))
    return MigrationBatch(moves=tuple(moves))


def _onehot(table: TieredPageTable) -> np.ndarray:
    """The tier arena as a float one-hot ``(n_tiers, lanes)`` matrix."""
    tiers = np.arange(table.n_tiers)[:, None]
    return (table.tier_arena[None, :] == tiers).astype(np.float64)


def _assert_tiered_same(table: TieredPageTable, ref: oracle.TieredResidency) -> None:
    assert _onehot(table).tobytes() == ref.residency_arena.tobytes()
    for k in range(table.n_tiers):
        assert table.tier_used_pages(k) == ref.tier_used_pages(k)
        free, want = table.tier_free_pages(k), ref.tier_free_pages(k)
        assert type(free) is type(want) is int and free == want
    got, want = table.access_fraction_vectors(), ref.access_fraction_vectors()
    assert list(got) == list(want)
    for name in got:
        assert got[name].tobytes() == want[name].tobytes()
    for name in table.names:
        tiers = table.object(name).page_tier
        np.testing.assert_array_equal(tiers, oracle.page_tiers(ref, name))
        np.testing.assert_array_equal(
            table.tier_arena[table.object_slice(name)], tiers
        )
        obj, ref_obj = table.object(name), ref.object(name)
        for k in range(table.n_tiers):
            for limit in (None, 3):
                np.testing.assert_array_equal(
                    obj.coldest_pages_in(k, limit), ref_obj.coldest_pages_in(k, limit)
                )
                np.testing.assert_array_equal(
                    obj.hottest_pages_slower_than(k, limit),
                    ref_obj.hottest_pages_slower_than(k, limit),
                )


def _batch(table: PageTable, rng) -> MigrationBatch:
    moves = []
    names = table.names
    for _ in range(int(rng.integers(1, 10))):
        # repeated objects across moves, duplicate page ids within one
        name = names[int(rng.integers(len(names)))]
        n_pages = table.object(name).n_pages
        idx = rng.integers(0, n_pages, size=int(rng.integers(1, 2 * n_pages + 1)))
        # destination 0 (promote) with probability 0.7, else 1 (demote)
        moves.append((name, idx.astype(np.intp), int(rng.random() >= 0.7)))
    return MigrationBatch(moves=tuple(moves))


def _bits(x: float) -> bytes:
    return np.float64(x).tobytes()


def _assert_cache_current(table: PageTable, ref: oracle.Residency) -> None:
    """The placement equals the shadow's, the integer counts equal a
    recount, and the table aggregates equal the parent forms."""
    dram = (table.tier_arena == 0).astype(np.float64)
    assert dram.tobytes() == ref.residency_arena.tobytes()
    for obj in table:
        assert obj.pages_in(0) == ref.object(obj.name).dram_pages()
    assert table.tier_used_pages(0) == sum(o.pages_in(0) for o in table)
    assert table.tier_used_pages(1) == sum(o.pages_in(1) for o in table)
    assert _bits(table.dram_used_bytes()) == _bits(ref.dram_used_bytes())
    free, want = table.dram_free_pages(), ref.dram_free_pages()
    assert type(free) is type(want) is int and free == want
    got, want = table.access_fractions(), ref.access_fractions()
    assert list(got) == list(want)
    assert [_bits(v) for v in got.values()] == [_bits(v) for v in want.values()]


def _groups(names, obj: np.ndarray, pages: np.ndarray) -> list[tuple[str, np.ndarray]]:
    """A flat sample regrouped as (object name, pages) in table order."""
    cuts = np.flatnonzero(np.diff(obj)) + 1
    return [
        (names[int(ids[0])], grp)
        for ids, grp in zip(np.split(obj, cuts), np.split(pages, cuts))
        if len(ids)
    ]


def _assert_same_groups(got, want) -> None:
    assert [name for name, _ in got] == [name for name, _ in want]
    for (_, a), (_, b) in zip(got, want):
        assert a.dtype == b.dtype
        np.testing.assert_array_equal(a, b)


def _assert_same_samples(got: dict, want: dict) -> None:
    """Scan samples agree; an object whose samples were all dropped is a
    key with empty arrays in the reference and absent in production."""
    want = {name: v for name, v in want.items() if len(v[0])}
    assert list(got) == list(want)
    for name in got:
        for a, b in zip(got[name], want[name]):
            assert a.dtype == b.dtype
            assert a.tobytes() == b.tobytes()


def _instances_ctx(table, instances, times) -> SimpleNamespace:
    """Engine-context stand-in for the rate methods over active
    ``instances`` with time estimates ``times``."""
    ctx = SimpleNamespace(
        page_table=table,
        instance_times=times,
        active_instances=lambda: instances,
    )
    ctx.page_rates = lambda: EngineContext.page_rates(ctx)
    ctx.page_access_rates = lambda: EngineContext.page_access_rates(ctx)
    return ctx


def _rate_ctx(table, seed: int) -> SimpleNamespace:
    """Engine-context stand-in for the rate methods: random active
    instances over a subset of the objects (some objects get no rates,
    some several terms, one instance has no time estimate yet)."""
    rng = np.random.default_rng(seed)
    names = table.names
    instances = []
    for j in range(int(rng.integers(1, 5))):
        accesses = tuple(
            ObjectAccess(
                names[int(i)],
                AccessPattern.RANDOM,
                reads=int(rng.integers(0, 10**7)),
                writes=int(rng.integers(0, 10**5)),
            )
            for i in rng.integers(0, len(names), size=int(rng.integers(1, 4)))
            if rng.random() < 0.8
        )
        instances.append(
            TaskInstanceSpec(f"t{j}", Footprint(accesses=accesses, instructions=1))
        )
    times = {inst.task_id: float(rng.random() * 3) for inst in instances[1:]}
    return _instances_ctx(table, instances, times)


#: objects in the wide fixture: more than 255, so the page owner map needs
#: a 16-bit key
WIDE_OBJECTS = 300
#: tasks sharing the wide fixture's one shared object, so that object has
#: this many rate terms (paper_merch's deepest object has 24)
WIDE_SHARERS = 26
WIDE_SEEDS = range(4)


def _wide_table(seed: int) -> PageTable:
    """A :func:`_table`-like table with :data:`WIDE_OBJECTS` small objects."""
    rng = np.random.default_rng(seed)
    specs = [
        DataObject(
            f"w{i}",
            int(rng.integers(1, 6)) * PAGE_SIZE,
            hotness="zipf" if rng.random() < 0.5 else "uniform",
        )
        for i in range(WIDE_OBJECTS)
    ]
    table = PageTable(specs, sum(s.n_pages for s in specs) * PAGE_SIZE, rng=seed)
    table.place(
        MigrationBatch(
            moves=tuple(
                (obj.name, np.flatnonzero(rng.random(obj.n_pages) < 0.4), 0)
                for obj in table
            )
        )
    )
    return table


def _wide_rate_ctx(table, seed: int) -> SimpleNamespace:
    """:func:`_rate_ctx` over a wide table: :data:`WIDE_SHARERS` tasks all
    access the first object (one object with that many rate terms) and one
    private object each (single-term objects); the rest of the objects have
    no terms, and one task has no time estimate yet."""
    rng = np.random.default_rng(seed)
    names = table.names
    instances = [
        TaskInstanceSpec(
            f"t{j}",
            Footprint(
                accesses=(
                    ObjectAccess(
                        names[0], AccessPattern.RANDOM,
                        reads=int(rng.integers(1, 10**7)),
                    ),
                    ObjectAccess(
                        names[1 + 7 * j], AccessPattern.STREAM,
                        reads=int(rng.integers(1, 10**6)),
                        writes=int(rng.integers(0, 10**5)),
                    ),
                ),
                instructions=1,
            ),
        )
        for j in range(WIDE_SHARERS)
    ]
    times = {inst.task_id: float(rng.random() * 3) for inst in instances[1:]}
    return _instances_ctx(table, instances, times)


def _same_moves(got: MigrationBatch | None, want) -> None:
    if want is None:
        assert got is None
        return
    assert [(n, d) for n, _, d in got.moves] == [(n, d) for n, _, d in want]
    for (_, a, _), (_, b, _) in zip(got.moves, want):
        assert a.dtype == b.dtype
        np.testing.assert_array_equal(a, b)


class TestApplyBatch:
    @pytest.mark.parametrize("shares", [False, True])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_matches_reference(self, seed, shares):
        table = _table(seed, shares)
        resum, parent = _shadow(table, seed, shares), _shadow(table, seed, shares)
        _assert_cache_current(table, parent)
        rng = np.random.default_rng(1000 + seed)
        for _ in range(6):
            batch = _batch(table, rng)
            moved = table.apply_batch(batch)
            assert moved == oracle.apply_batch(resum, batch)
            assert moved == parent.apply_batch(batch)
            assert resum.residency_arena.tobytes() == parent.residency_arena.tobytes()
            assert resum.shares == parent.shares
            _assert_cache_current(table, parent)

    @pytest.mark.parametrize("shares", [False, True])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_pressure_evictions_match_reference(self, seed, shares):
        table = _table(seed, shares)
        ref = _shadow(table, seed, shares)
        rng = np.random.default_rng(6000 + seed)
        used = int(table.tier_used_pages(0))
        for pressure in (0, 1, used // 2, used, used + 3, int(rng.integers(0, used + 5))):
            # free pages range from none to a few, so some plans are empty
            for slack in (0, 2):
                _set_dram(table, (used + slack) * PAGE_SIZE)
                ref.dram_capacity_bytes = table.dram_capacity_bytes
                _same_moves(
                    table.plan_pressure_evictions(pressure * PAGE_SIZE),
                    ref.plan_pressure_evictions(pressure * PAGE_SIZE),
                )
        _set_dram(table, used * PAGE_SIZE)
        ref.dram_capacity_bytes = table.dram_capacity_bytes
        batch = table.plan_pressure_evictions(max(1, used // 3) * PAGE_SIZE)
        if batch is not None:
            assert table.apply_batch(batch) == ref.apply_batch(batch)
        _assert_cache_current(table, ref)

    def test_free_runs_out_mid_batch(self):
        table = PageTable(
            [DataObject("a", 8 * PAGE_SIZE), DataObject("b", 8 * PAGE_SIZE)],
            5 * PAGE_SIZE,
        )
        table.place(MigrationBatch(moves=(("a", np.arange(2), 0),)))
        ref = oracle.Residency(table)
        batch = MigrationBatch(
            moves=(
                ("b", np.arange(2), 0),
                ("a", np.arange(4), 0),
                ("b", np.arange(2, 8), 0),
            )
        )
        moved = table.apply_batch(batch)
        assert moved == oracle.apply_batch(ref, batch)
        _assert_cache_current(table, ref)
        assert table.dram_free_pages() <= 0

    def test_capacity_change_between_batches_is_seen(self):
        table = _table(3, shares=True)
        ref = _shadow(table, 3, shares=True)
        rng = np.random.default_rng(7)
        for shrink in (0, 3, 0, 10):
            batch = _batch(table, rng)
            _set_dram(table, table.dram_capacity_bytes - shrink * PAGE_SIZE)
            ref.dram_capacity_bytes -= shrink * PAGE_SIZE
            assert table.apply_batch(batch) == oracle.apply_batch(ref, batch)
            _assert_cache_current(table, ref)


class TestTwoTierInterface:
    """The 2-tier front end answers the N-tier table's tier-indexed reads:
    DRAM is tier 0, PM an unbounded tier 1."""

    @pytest.mark.parametrize("shares", [False, True])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_tier_counts(self, seed, shares):
        table = _table(seed, shares)
        rng = np.random.default_rng(3000 + seed)
        for _ in range(4):
            assert table.n_tiers == 2
            free, want = table.tier_free_pages(0), table.dram_free_pages()
            assert type(free) is type(want) is int and free == want
            # PM frees what its pages leave of its huge capacity
            pm_free = table.tier_free_pages(1)
            assert pm_free == PageTable.PM_PAGES - table.tier_used_pages(1)
            assert table.tier_capacity_pages == (
                table.dram_capacity_bytes // PAGE_SIZE,
                2**62 // PAGE_SIZE,
            )
            table.apply_batch(_batch(table, rng))

    def test_fractional_page_tiers(self):
        # a Memory Mode share is fractional at object level and moves no page
        table = PageTable(
            [DataObject("a", 4 * PAGE_SIZE), DataObject("b", 6 * PAGE_SIZE)],
            16 * PAGE_SIZE,
        )
        table.set_dram_shares({"b": 0.9})
        ref = oracle.Residency(table, {"b": 0.9})
        np.testing.assert_array_equal(table.object("b").page_tier, np.ones(6))
        np.testing.assert_array_equal(table.tier_arena[table.object_slice("b")], np.ones(6))
        np.testing.assert_array_equal(oracle.page_tiers(ref, "b"), np.ones(6))
        assert table.access_fractions() == {"a": 0.0, "b": 0.9}
        _assert_cache_current(table, ref)
        # moving any of b's pages drops its share for the page dot
        table.apply_batch(MigrationBatch(moves=(("b", np.arange(3), 0),)))
        oracle.apply_batch(ref, MigrationBatch(moves=(("b", np.arange(3), 0),)))
        assert ref.shares == {}
        _assert_cache_current(table, ref)

    @pytest.mark.parametrize("dst", [2, -1])
    def test_destination_out_of_range(self, dst):
        table = PageTable([DataObject("a", 4 * PAGE_SIZE)], 4 * PAGE_SIZE)
        tiered = TieredPageTable(
            [DataObject("a", 4 * PAGE_SIZE)], [4 * PAGE_SIZE] * 2, rng=0
        )
        batch = MigrationBatch(moves=(("a", np.arange(2), dst),))
        for t in (table, tiered):
            with pytest.raises(ValueError, match="out of range"):
                t.apply_batch(batch)


class TestResidencyCache:
    """The cached per-object terms after every kind of writer."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_journal_undo(self, seed):
        shares = seed % 2 == 1
        table = _table(seed, shares)
        ref = _shadow(table, seed, shares)
        before = table.tier_arena.copy()
        rng = np.random.default_rng(4000 + seed)
        records = []
        for _ in range(3):
            batch = _batch(table, rng)
            moves = [
                {
                    "obj": name,
                    "pages": idx,
                    "before": table.object(name).page_tier[idx].copy(),
                }
                for name, idx, _ in batch.moves
            ]
            records.append(SimpleNamespace(payload={"moves": moves}))
            table.apply_batch(batch)
            ref.apply_batch(batch)
            _assert_cache_current(table, ref)
        _undo_moves(table, records)
        assert table.tier_arena.tobytes() == before.tobytes()
        # objects the batches moved lost their shares; the rest keep them
        _assert_cache_current(table, oracle.Residency(table, ref.shares))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_memory_mode_update(self, seed):
        """The object-level share equals the parent per-page residency dot
        bit for bit."""
        table = _table(seed, shares=True)
        _set_dram(table, max(table.dram_capacity_bytes, 64 * PAGE_SIZE))
        table.place_all(1)
        ref = oracle.Residency(table)
        ctx = _rate_ctx(table, seed)
        cache = DirectMappedPageCache(table)
        rng = np.random.default_rng(seed)
        per_pass = {o.name: rng.random(o.n_pages) * 400 for o in table}
        for accesses in (None, per_pass):
            rates = ctx.page_access_rates()
            cache.update_shares(rates, accesses)
            oracle.memory_mode_residency(ref, rates, accesses, cache.n_sets)
            got, want = table.access_fractions(), ref.access_fractions()
            assert list(got) == list(want)
            assert [_bits(v) for v in got.values()] == [_bits(v) for v in want.values()]
            assert table.dram_used_bytes() == 0

    @pytest.mark.parametrize("seed", SEEDS)
    def test_pickle_round_trip(self, seed):
        shares = seed % 2 == 1
        table = _table(seed, shares)
        ref = _shadow(table, seed, shares)
        rng = np.random.default_rng(5000 + seed)
        for _ in range(3):
            batch = _batch(table, rng)
            table.apply_batch(batch)
            ref.apply_batch(batch)
            table.access_fractions()  # warm the fraction cache
            clone = pickle.loads(pickle.dumps(table))
            for obj in clone:
                assert obj.page_tier.base is clone.tier_arena
                assert obj.weight.base is clone.weight_arena
            _assert_cache_current(clone, ref)
            table = clone

    def test_rejected_set_residency_writes_nothing(self):
        # a whole-table reset that does not fit raises before any write
        table = _table(1, shares=True)
        ref = _shadow(table, 1, shares=True)
        before = table.tier_arena.copy()
        with pytest.raises(ValueError, match="capacity"):
            table.place_all(0)
        assert table.tier_arena.tobytes() == before.tobytes()
        _assert_cache_current(table, ref)


def _two_objects(caps_pages) -> TieredPageTable:
    specs = [DataObject("a", 8 * PAGE_SIZE), DataObject("b", 8 * PAGE_SIZE)]
    return TieredPageTable(specs, [c * PAGE_SIZE for c in caps_pages], rng=0)


class TestTieredApplyBatch:
    @pytest.mark.parametrize("n_tiers", [2, 3, 4])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_matches_reference(self, seed, n_tiers):
        table = _tiered(seed, n_tiers)
        ref = oracle.TieredResidency(table)
        _assert_tiered_same(table, ref)
        rng = np.random.default_rng(2000 + seed)
        for _ in range(8):
            batch = _tiered_batch(table, rng)
            assert table.apply_batch(batch) == ref.apply_batch(batch)
            _assert_tiered_same(table, ref)

    def _run(self, table, moves) -> tuple[TieredPageTable, int]:
        ref = oracle.TieredResidency(table)
        batch = MigrationBatch(moves=tuple(moves))
        moved = table.apply_batch(batch)
        assert moved == ref.apply_batch(batch)
        _assert_tiered_same(table, ref)
        return table, moved

    def test_page_listed_twice(self):
        # a duplicate moves and counts once
        table, moved = self._run(
            _two_objects((4, 4, 16)), [("a", np.array([3, 3, 5, 3]), 0)]
        )
        assert moved == 2
        assert table.tier_used_pages(0) == 2.0
        assert table.tier_free_pages(0) == 2
        # repeats are dropped before the clamp: with 2 pages free, the
        # repeated page 3 does not take page 5's place
        table, moved = self._run(
            _two_objects((2, 4, 16)), [("a", np.array([3, 3, 5]), 0)]
        )
        assert moved == 2
        fast = np.flatnonzero(table.object("a").page_tier == 0)
        np.testing.assert_array_equal(fast, [3, 5])

    def test_move_to_current_tier(self):
        table = _two_objects((4, 4, 16))
        before = table.access_fraction_vectors()
        table, moved = self._run(table, [("b", np.arange(8), 2)])
        assert moved == 0
        assert [table.tier_used_pages(k) for k in range(3)] == [0.0, 0.0, 16.0]
        for name, vec in table.access_fraction_vectors().items():
            assert vec.tobytes() == before[name].tobytes()

    def test_destination_fills_mid_batch(self):
        table, moved = self._run(
            _two_objects((3, 4, 16)),
            [("a", np.arange(2), 0), ("b", np.arange(3), 0), ("b", np.arange(4, 8), 1)],
        )
        assert moved == 3 + 4
        assert table.tier_free_pages(0) == 0
        assert table.tier_used_pages(1) == 4.0

    def test_full_slowest_tier(self):
        # the waterfall fills the slowest tier and spills b[4:] to tier 1
        table = _two_objects((4, 4, 12))
        assert table.tier_free_pages(2) == 0
        table, moved = self._run(
            table, [("b", np.array([4, 5]), 0), ("b", np.arange(4, 8), 2)]
        )
        # the demotion is applied first and finds no room
        assert moved == 2
        assert [table.tier_used_pages(k) for k in range(3)] == [2.0, 2.0, 12.0]

    def test_pickle_round_trip_between_batches(self):
        table = _tiered(5, 4)
        ref = oracle.TieredResidency(table)
        rng = np.random.default_rng(9)
        for _ in range(4):
            batch = _tiered_batch(table, rng)
            assert table.apply_batch(batch) == ref.apply_batch(batch)
            table = pickle.loads(pickle.dumps(table))
            for name in table.names:
                assert table.object(name).page_tier.base is table.tier_arena
            _assert_tiered_same(table, ref)

    def test_capacity_change_between_batches_is_seen(self):
        table = _tiered(3, 3)
        ref = oracle.TieredResidency(table)
        rng = np.random.default_rng(4)
        for shrink in (0, 5, 0, 20):
            for t in (table, ref):
                caps = t.capacities_bytes
                t.capacities_bytes = (max(0, caps[0] - shrink * PAGE_SIZE),) + caps[1:]
            batch = _tiered_batch(table, rng)
            assert table.apply_batch(batch) == ref.apply_batch(batch)
            _assert_tiered_same(table, ref)

    def test_fraction_vectors_are_copies(self):
        table = _tiered(1, 3)
        first = table.access_fraction_vectors()
        for vec in first.values():
            vec[:] = -1.0
        again = table.access_fraction_vectors()
        assert all((vec >= 0).all() for vec in again.values())


#: objects in the write body's wide fixtures
WRITE_OBJECTS = 24


def _write_table(seed: int, n_tiers: int) -> TieredPageTable:
    """:data:`WRITE_OBJECTS` objects of 10-120 pages; every tier but the
    slowest holds a twentieth to a quarter of the pages, so hundreds of
    moves run the fast tiers out of room mid-group."""
    rng = np.random.default_rng(seed)
    specs = [
        DataObject(
            f"w{i}",
            int(rng.integers(10, 120)) * PAGE_SIZE,
            hotness="zipf" if rng.random() < 0.5 else "uniform",
        )
        for i in range(WRITE_OBJECTS)
    ]
    total = sum(s.n_pages for s in specs)
    caps = [
        int(rng.integers(total // 20, total // 4)) * PAGE_SIZE
        for _ in range(n_tiers - 1)
    ]
    if n_tiers == 2:
        return PageTable(specs, caps[0], rng=seed)
    return TieredPageTable(specs, caps + [total * PAGE_SIZE], rng=seed)


def _write_batch(table: TieredPageTable, rng, n_moves: int) -> MigrationBatch:
    """``n_moves`` moves of 0-11 pages each (zero-length moves, repeated
    pages within and across moves, objects named by several moves to one
    tier), destinations drawn over every tier."""
    names = table.names
    moves = []
    for _ in range(n_moves):
        name = names[int(rng.integers(len(names)))]
        idx = rng.integers(0, table.object(name).n_pages, size=int(rng.integers(0, 12)))
        moves.append((name, idx.astype(np.intp), int(rng.integers(table.n_tiers))))
    return MigrationBatch(moves=tuple(moves))


def _table_state(table: TieredPageTable):
    return (
        table.tier_arena.tobytes(),
        [table.tier_used_pages(k) for k in range(table.n_tiers)],
        {name: vec.tobytes() for name, vec in table.access_fraction_vectors().items()},
    )


class TestWideWriteBody:
    """The per-destination write body against the move-by-move shadows on
    batches of hundreds of moves."""

    @pytest.mark.parametrize("n_tiers", [3, 4])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_tiered_matches_reference(self, seed, n_tiers):
        table = _write_table(seed, n_tiers)
        ref = oracle.TieredResidency(table)
        rng = np.random.default_rng(8000 + seed)
        filled = 0
        for n_moves in (200, 600, 300, 450):
            batch = _write_batch(table, rng, n_moves)
            dsts = [(name, dst) for name, _, dst in batch.moves]
            assert len(set(dsts)) < len(dsts)
            assert table.apply_batch(batch) == ref.apply_batch(batch)
            _assert_tiered_same(table, ref)
            filled += sum(table.tier_free_pages(k) == 0 for k in range(n_tiers - 1))
        # some group ran out of room, so the clamp was exercised
        assert filled

    @pytest.mark.parametrize("seed", SEEDS)
    def test_two_tier_matches_reference(self, seed):
        table = _write_table(seed, 2)
        shares = _shares(table, seed)
        table.set_dram_shares(shares)
        resum, parent = oracle.Residency(table, shares), oracle.Residency(table, shares)
        rng = np.random.default_rng(9000 + seed)
        for n_moves in (200, 600, 300):
            batch = _write_batch(table, rng, n_moves)
            moved = table.apply_batch(batch)
            assert moved == oracle.apply_batch(resum, batch)
            assert moved == parent.apply_batch(batch)
            _assert_cache_current(table, parent)

    def test_page_in_two_moves_after_a_clamp(self):
        # tier 0 has 3 free pages: the first move is clamped to a[0:3], so
        # a[4] (listed again by the third move) and b[0] stay where they are
        table = _two_objects((3, 4, 16))
        ref = oracle.TieredResidency(table)
        batch = MigrationBatch(
            moves=(
                ("a", np.arange(5), 0),
                ("b", np.array([0]), 0),
                ("a", np.array([4, 5]), 0),
            )
        )
        assert table.apply_batch(batch) == ref.apply_batch(batch) == 3
        _assert_tiered_same(table, ref)
        np.testing.assert_array_equal(
            np.flatnonzero(table.object("a").page_tier == 0), [0, 1, 2]
        )
        assert table.object("b").pages_in(0) == 0

    def test_zero_length_moves_and_settled_group(self):
        table = _two_objects((4, 4, 16))
        ref = oracle.TieredResidency(table)
        before = table.access_fraction_vectors()
        batch = MigrationBatch(
            moves=(
                ("a", np.empty(0, dtype=np.intp), 0),
                ("b", np.arange(8), 2),
                ("b", np.empty(0, dtype=np.intp), 1),
                ("a", np.array([1]), 1),
            )
        )
        assert table.apply_batch(batch) == ref.apply_batch(batch) == 1
        _assert_tiered_same(table, ref)
        # b was named but not moved: its cached vector is the one it had
        assert table._fractions["b"] is not None
        assert table.access_fraction_vectors()["b"].tobytes() == before["b"].tobytes()

    def test_share_survives_when_named_but_not_moved(self):
        table = PageTable(
            [DataObject(n, 6 * PAGE_SIZE) for n in ("a", "b", "c")], 8 * PAGE_SIZE
        )
        shares = {"a": 0.25, "b": 0.5, "c": 0.75}
        table.set_dram_shares(shares)
        ref = oracle.Residency(table, shares)
        batch = MigrationBatch(
            moves=(
                ("a", np.arange(6), 1),  # already in PM
                ("b", np.empty(0, dtype=np.intp), 0),
                ("c", np.array([2, 2]), 0),
            )
        )
        assert table.apply_batch(batch) == ref.apply_batch(batch) == 1
        assert ref.shares == {"a": 0.25, "b": 0.5}
        _assert_cache_current(table, ref)
        assert table.access_fractions()["a"] == 0.25
        assert table.access_fractions()["b"] == 0.5

    @pytest.mark.parametrize("bad", [-1, 3])
    def test_bad_destination_writes_nothing(self, bad):
        for table in (_write_table(1, 2), _write_table(1, 3)):
            name = table.names[0]
            table.place(MigrationBatch(moves=((name, np.arange(4), 0),)))
            before = _table_state(table)
            # a valid demotion sorts ahead of a negative destination
            batch = MigrationBatch(
                moves=((name, np.arange(4), 1), (table.names[1], np.arange(2), bad))
            )
            with pytest.raises(ValueError, match="out of range"):
                table.apply_batch(batch)
            assert _table_state(table) == before

    @pytest.mark.parametrize("page", [-1, 8])
    def test_bad_page_writes_nothing(self, page):
        table = _two_objects((4, 4, 16))
        before = _table_state(table)
        batch = MigrationBatch(
            moves=(("a", np.arange(3), 1), ("b", np.array([0, page]), 0))
        )
        with pytest.raises(IndexError, match="out of range"):
            table.apply_batch(batch)
        assert _table_state(table) == before


class TestColdestPages:
    """The partial selection equals the prefix of the full stable sort."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_matches_full_stable_sort(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 400))
        obj = pages.TieredPagedObject(DataObject("x", n * PAGE_SIZE), 3, rng=seed)
        # four distinct weights, so most cutoffs fall inside a run of ties
        obj.weight = rng.choice(rng.random(4), size=n)
        obj.page_tier = rng.integers(0, 3, size=n).astype(np.int8)
        tied = 0
        for k in range(3):
            cand = np.flatnonzero(obj.page_tier == k)
            full = cand[np.argsort(obj.weight[cand], kind="stable")]
            m = len(cand)
            for limit in (None, 0, 1, 2, m // 3, m // 2, m - 1, m, m + 5):
                want = full if limit is None else full[:limit]
                got = obj.coldest_pages_in(k, limit)
                assert got.dtype == want.dtype
                np.testing.assert_array_equal(got, want)
                if limit is not None and 0 < limit < m:
                    w = obj.weight[full]
                    tied += w[limit - 1] == w[limit]
        assert tied


class TestPagePool:
    """``PagePool`` against the string-array pool of the reference."""

    @staticmethod
    def _footprint(names, rng) -> Footprint:
        # access order is not name order, and one object is listed twice
        order = list(rng.permutation(len(names)))
        order.insert(int(rng.integers(len(order) + 1)), order[0])
        return Footprint(
            accesses=tuple(
                ObjectAccess(
                    names[i], AccessPattern.RANDOM, reads=int(rng.integers(1, 10**6))
                )
                for i in order
            ),
            instructions=1,
        )

    def _check(self, table, footprint, taken, rng) -> None:
        from repro.core.runtime import PagePool

        pool = PagePool.gather(table, footprint, taken)
        want = oracle.page_pool(table, footprint, taken)
        if want is None:
            assert pool is None
            return
        assert list(pool.names) == sorted(pool.names)
        want_names, want_pages, want_gains = want
        assert np.array(pool.names)[pool.owner].tolist() == want_names.tolist()
        assert pool.pages.tobytes() == want_pages.tobytes()
        assert pool.gains.tobytes() == want_gains.tobytes()
        n = len(pool.pages)
        for take in (
            np.argsort(-pool.gains, kind="stable"),
            rng.permutation(n)[: int(rng.integers(0, n + 1))],
            np.empty(0, dtype=np.intp),
        ):
            _assert_same_groups(pool.by_object(take), oracle.pool_by_object(want, take))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_matches_string_pool(self, seed):
        table = _write_table(seed, 3)
        rng = np.random.default_rng(seed)
        # names w0..w23: name order puts w10 before w2
        names = [table.names[i] for i in rng.choice(WRITE_OBJECTS, 14, replace=False)]
        taken = {obj.name: rng.random(obj.n_pages) < 0.3 for obj in table}
        self._check(table, self._footprint(names, rng), taken, rng)
        all_taken = {obj.name: np.ones(obj.n_pages, dtype=bool) for obj in table}
        self._check(table, self._footprint(names, rng), all_taken, rng)

    @pytest.mark.parametrize("seed", WIDE_SEEDS)
    def test_wide_pool(self, seed):
        # more than 256 pooled objects: a 16-bit owner key
        table = _wide_table(seed)
        rng = np.random.default_rng(seed)
        taken = {obj.name: rng.random(obj.n_pages) < 0.2 for obj in table}
        self._check(table, self._footprint(list(table.names), rng), taken, rng)


class TestDrainQueue:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_matches_pop_loop(self, seed):
        rng = np.random.default_rng(seed)
        queue = [
            (f"o{i % 5}", np.arange(int(rng.integers(0, 40))), int(rng.integers(3)))
            for i in range(int(rng.integers(0, 300)))
        ]
        # one move longer than a whole drain
        queue.insert(len(queue) // 2, ("big", np.arange(3 * pages.QUEUE_DRAIN_PAGES), 0))
        ref = list(queue)
        while queue or ref:
            budget = int(rng.integers(-2, 2 * pages.QUEUE_DRAIN_PAGES))
            got = pages.drain_queue(queue, budget)
            want = oracle.drain_queue(ref, budget, pages.QUEUE_DRAIN_PAGES)
            _same_moves(got, want)
            assert [(n, d) for n, _, d in queue] == [(n, d) for n, _, d in ref]
            for (_, a, _), (_, b, _) in zip(queue, ref):
                np.testing.assert_array_equal(a, b)


class TestSampling:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_page_table_sample(self, seed):
        self._check_sample(_table(seed, shares=False), seed)

    @pytest.mark.parametrize("seed", WIDE_SEEDS)
    def test_wide_page_table_sample(self, seed):
        table = _wide_table(seed)
        assert table._page_owner.dtype == np.uint16
        self._check_sample(table, seed)

    @staticmethod
    def _check_sample(table, seed):
        for n in (0, 1, 7, table.total_pages, 3 * table.total_pages):
            got_rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            obj, pages = table.sample_pages(n, rng=got_rng)
            assert obj.dtype == np.intp and len(obj) == len(pages) == max(n, 0)
            _assert_same_groups(
                _groups(table.names, obj, pages),
                oracle.sample_pages(table, n, rng=ref_rng),
            )
            assert got_rng.bit_generator.state == ref_rng.bit_generator.state
            lanes = table.arena_lanes(obj, pages)
            for i, page, lane in zip(obj, pages, lanes):
                assert lane == table.object_slice(table.names[i]).start + page

    @pytest.mark.parametrize("n_tiers", [2, 4])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_tiered_sample(self, seed, n_tiers):
        table = _tiered(seed, n_tiers)
        for n in (1, 64, 4096):
            obj, pages = table.sample_pages(n, rng=seed)
            _assert_same_groups(
                _groups(table.names, obj, pages),
                oracle.sample_pages(table, n, rng=seed),
            )

    @pytest.mark.parametrize("kind", ["two_tier", "wide", "tiered"])
    @pytest.mark.parametrize("seed", WIDE_SEEDS)
    def test_pickle_round_trip_samples_alike(self, seed, kind):
        """A table restored mid-run samples the same (object, page) arrays
        as the original from the same generator state: the sampling state
        derived from the arena is dropped from the pickle and rebuilt."""
        rng = np.random.default_rng(6000 + seed)
        if kind == "tiered":
            table = _tiered(seed, 4)
            table.apply_batch(_tiered_batch(table, rng))
        else:
            table = _wide_table(seed) if kind == "wide" else _table(seed, False)
            table.apply_batch(_batch(table, rng))
        state = table.__getstate__()
        assert "_page_owner" not in state and "_page_bounds" not in state
        clone = pickle.loads(pickle.dumps(table))
        for n in (1, 64, 4096):
            got_rng, want_rng = np.random.default_rng(n), np.random.default_rng(n)
            got = clone.sample_pages(n, rng=got_rng)
            want = table.sample_pages(n, rng=want_rng)
            for a, b in zip(got, want):
                assert a.dtype == b.dtype
                assert a.tobytes() == b.tobytes()
            assert got_rng.bit_generator.state == want_rng.bit_generator.state

    def test_empty_table(self):
        table = PageTable([], 0)
        obj, pages = table.sample_pages(10, rng=0)
        assert len(obj) == len(pages) == 0
        assert oracle.sample_pages(table, 10, rng=0) == []

    @pytest.mark.parametrize("seed", SEEDS)
    def test_top_k_hot_pages(self, seed):
        self._check_top_k(_table(seed, shares=False), seed)

    @pytest.mark.parametrize("seed", WIDE_SEEDS)
    def test_wide_top_k_hot_pages(self, seed):
        self._check_top_k(_wide_table(seed), seed)

    @staticmethod
    def _check_top_k(table, seed):
        rng = np.random.default_rng(seed)
        obj, pages = table.sample_pages(256, rng=rng)
        counts = rng.poisson(2.0, size=len(pages)).astype(np.float64)
        estimate = PageSampleEstimate(table.names, obj, pages, counts, scale=1.0)
        for k in (0, 1, 5, 64, 1000):
            for min_count in (1.0, 3.0):
                _assert_same_groups(
                    top_k_hot_pages(estimate, k, min_count),
                    oracle.top_k_hot_pages(estimate, k, min_count),
                )


    #: scan counts and the sort key each must take: whole counts below
    #: 2**16 sort as uint16, anything else as the float counts themselves
    COUNT_CASES = {
        "ties": np.uint16,
        "max_narrow": np.uint16,
        "fault_doubled": np.uint16,
        "past_narrow": np.float64,
        "non_whole": np.float64,
    }

    @staticmethod
    def _counts(case: str, n: int, rng) -> np.ndarray:
        if case == "ties":  # long runs of equal counts
            return rng.integers(1, 4, size=n).astype(np.float64)
        counts = rng.poisson(3.0, size=n).astype(np.float64)
        if case == "fault_doubled":
            counts[rng.random(n) < 0.3] *= 2.0
        elif case == "max_narrow":
            counts[rng.integers(0, n, size=20)] = 65535.0
        elif case == "past_narrow":
            counts[rng.integers(0, n, size=20)] = 65535.0
            counts[int(rng.integers(n))] = 65536.0
        elif case == "non_whole":
            counts[int(rng.integers(n))] = 4.5
        return counts

    @pytest.mark.parametrize("case", sorted(COUNT_CASES))
    @pytest.mark.parametrize("seed", WIDE_SEEDS)
    def test_top_k_sort_key(self, seed, case, monkeypatch):
        """Both sort keys give the reference's groups, and each count set
        takes the key it should."""
        rng = np.random.default_rng(seed)
        table = _wide_table(seed)
        obj, pages = table.sample_pages(2048, rng=rng)
        counts = self._counts(case, len(pages), rng)
        estimate = PageSampleEstimate(table.names, obj, pages, counts, scale=1.0)
        keys = []
        argsort = np.argsort

        def spy(a, *args, **kwargs):
            if kwargs.get("kind") == "stable":  # the hotness sort
                keys.append(np.asarray(a).dtype)
            return argsort(a, *args, **kwargs)

        for k in (1, 64, 1000, 4096):
            for min_count in (0.0, 1.0, 3.0):
                monkeypatch.setattr(np, "argsort", spy)
                got = top_k_hot_pages(estimate, k, min_count)
                monkeypatch.setattr(np, "argsort", argsort)
                assert keys == [self.COUNT_CASES[case]]
                keys.clear()
                _assert_same_groups(
                    got, oracle.top_k_hot_pages(estimate, k, min_count)
                )


class TestRates:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_page_access_rates(self, seed):
        table = _table(seed, shares=True)
        ctx = _rate_ctx(table, seed)
        got, want = ctx.page_access_rates(), oracle.page_access_rates(ctx)
        assert list(got) == list(want)
        for name in got:
            assert got[name].tobytes() == want[name].tobytes()

    @pytest.mark.parametrize("n_tiers", [2, 3, 4])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_rates_at_sampled_lanes(self, seed, n_tiers):
        table = _table(seed, shares=True) if n_tiers == 2 else _tiered(seed, n_tiers)
        self._check_rates_at(table, _rate_ctx(table, seed), seed)

    @pytest.mark.parametrize("seed", WIDE_SEEDS)
    def test_wide_rates_at_sampled_lanes(self, seed):
        table = _wide_table(seed)
        ctx = _wide_rate_ctx(table, seed)
        depth = {name: len(c) for name, c in ctx.page_rates().terms.items()}
        assert max(depth.values()) == WIDE_SHARERS
        assert 1 in depth.values() and len(depth) < len(table)
        self._check_rates_at(table, ctx, seed)

    @staticmethod
    def _check_rates_at(table, ctx, seed):
        rates, want = ctx.page_rates(), oracle.page_access_rates(ctx)
        obj, pages = table.sample_pages(500, rng=seed)
        live = np.array([table.names[i] in want for i in obj], dtype=bool)
        if not live.any():
            return
        got = rates.at(obj[live], table.arena_lanes(obj[live], pages[live]))
        ref = np.concatenate(
            [want[name][idx] for name, idx in _groups(table.names, obj[live], pages[live])]
        )
        assert got.tobytes() == ref.tobytes()


FAULTS = [
    None,
    FaultConfig(pte_drop_rate=1.0, pte_fault_fraction=0.4),
    FaultConfig(pte_duplicate_rate=1.0, pte_fault_fraction=0.3),
    FaultConfig(pte_drop_rate=0.5, pte_duplicate_rate=0.5),
]
FAULT_IDS = ["healthy", "drop", "duplicate", "mixed"]


class TestPTEScan:
    """One flat scan pass vs the per-object sample -> Poisson loop."""

    @staticmethod
    def _scan(seed, table, ctx, faults_cfg, max_pages, interval_s):
        prof = PTESampleProfiler(max_pages=max_pages, seed=seed)
        ref_rng = np.random.default_rng(seed)
        prof_faults = ref_faults = None
        if faults_cfg is not None:
            prof.faults = prof_faults = FaultInjector(faults_cfg, seed=seed)
            ref_faults = FaultInjector(faults_cfg, seed=seed)
        got = prof.sample(table, ctx.page_rates(), interval_s, now=1.0)
        samples, scale = oracle.pte_sample(
            ref_rng,
            max_pages,
            table,
            oracle.page_access_rates(ctx),
            interval_s,
            faults=ref_faults,
            now=1.0,
        )
        assert prof._rng.bit_generator.state == ref_rng.bit_generator.state
        if faults_cfg is not None:
            assert prof_faults._rng.bit_generator.state == ref_faults._rng.bit_generator.state
            assert [e.kind for e in prof_faults.log.events] == [
                e.kind for e in ref_faults.log.events
            ]
        return got, SimpleNamespace(samples=samples, scale=scale)

    @pytest.mark.parametrize("faults", FAULTS, ids=FAULT_IDS)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_matches_reference(self, seed, faults):
        table = _table(seed, shares=True)
        self._check(seed, table, _rate_ctx(table, seed), faults)

    @pytest.mark.parametrize("faults", FAULTS, ids=FAULT_IDS)
    @pytest.mark.parametrize("seed", WIDE_SEEDS)
    def test_wide_matches_reference(self, seed, faults):
        table = _wide_table(seed)
        self._check(seed, table, _wide_rate_ctx(table, seed), faults)

    def _check(self, seed, table, ctx, faults):
        for max_pages, interval_s in ((1, 0.5), (64, 1e-3), (4096, 0.25)):
            got, want = self._scan(seed, table, ctx, faults, max_pages, interval_s)
            assert got.counts.dtype == np.float64
            assert _bits(got.scale) == _bits(want.scale)
            _assert_same_samples(got.samples, want.samples)
            for k in (0, 1, 5, 64, 1000):
                for min_count in (1.0, 3.0):
                    _assert_same_groups(
                        top_k_hot_pages(got, k, min_count),
                        oracle.top_k_hot_pages(want, k, min_count),
                    )

    def test_objects_without_rates_draw_nothing(self):
        table = _table(2, shares=False)
        ctx = _rate_ctx(table, 2)
        ctx.instance_times.clear()
        ctx.active_instances = lambda: []
        got, want = self._scan(2, table, ctx, None, 256, 1.0)
        assert not got.counts.any()
        _assert_same_samples(got.samples, want.samples)


class TestIntervalReplan:
    @staticmethod
    def _ctx(table, seed):
        # some objects carry no rates (not touched by an active task)
        return _rate_ctx(table, seed)

    def _check(self, table, seed, sample_pages, ref=None, ctx=None):
        ctx = self._ctx(table, seed) if ctx is None else ctx
        policy = IntervalReconfigPolicy(sample_pages=sample_pages, seed=seed)
        policy._replan(ctx)
        sample = oracle.sample_pages(table, sample_pages, rng=seed)
        want = oracle.interval_replan(
            table if ref is None else ref, oracle.page_access_rates(ctx), sample
        )
        got = policy._queue
        assert [(n, d) for n, _, d in got] == [(n, d) for n, _, d in want]
        for (_, a, _), (_, b, _) in zip(got, want):
            assert a.dtype == b.dtype
            np.testing.assert_array_equal(a, b)
        return got

    @pytest.mark.parametrize("sample_pages", [1, 32, 4096])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_two_tier_table(self, seed, sample_pages):
        table = _table(seed, shares=True)
        self._check(table, seed, sample_pages, _shadow(table, seed, shares=True))

    @pytest.mark.parametrize("n_tiers", [2, 3, 4])
    @pytest.mark.parametrize("sample_pages", [1, 32, 4096])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_tiered_table(self, seed, sample_pages, n_tiers):
        table = _tiered(seed, n_tiers)
        ref = oracle.TieredResidency(table)
        # spread pages over the tiers before re-planning
        rng = np.random.default_rng(3000 + seed)
        for _ in range(3):
            batch = _tiered_batch(table, rng)
            assert table.apply_batch(batch) == ref.apply_batch(batch)
        self._check(table, seed, sample_pages, ref)

    @pytest.mark.parametrize("seed", range(3))
    def test_long_queue_four_tiers(self, seed):
        # every object has rates, so the ranked sample interleaves objects
        # and tiers: a queue of thousands of short runs
        rng = np.random.default_rng(seed)
        specs = [
            DataObject(f"q{i}", int(rng.integers(20, 80)) * PAGE_SIZE, hotness="zipf")
            for i in range(60)
        ]
        total = sum(s.n_pages for s in specs)
        caps = [total // 8, total // 6, total // 4, total]
        table = TieredPageTable(specs, [c * PAGE_SIZE for c in caps], rng=seed)
        ref = oracle.TieredResidency(table)
        names = table.names
        instances = [
            TaskInstanceSpec(
                f"t{j}",
                Footprint(
                    accesses=tuple(
                        ObjectAccess(
                            names[i], AccessPattern.RANDOM,
                            reads=int(rng.integers(1, 10**7)),
                        )
                        for i in range(j, len(names), 4)
                    ),
                    instructions=1,
                ),
            )
            for j in range(4)
        ]
        times = {inst.task_id: float(1 + rng.random()) for inst in instances}
        ctx = _instances_ctx(table, instances, times)
        queue = self._check(table, seed, 4096, ref, ctx)
        assert len(queue) >= 1000


class TestPageWeights:
    """``page_weights`` memoises Zipf draws on the generator's state; a hit
    must be indistinguishable from the parent draw it replaces."""

    ZIPF = DataObject("z", 40 * PAGE_SIZE, hotness="zipf")

    @pytest.fixture
    def draws(self, monkeypatch) -> dict:
        """An empty memo; counts the production Zipf draws."""
        monkeypatch.setattr(pages, "_weight_memo", OrderedDict())
        monkeypatch.setattr(pages, "_weight_memo_pages", 0)
        counter = {"calls": 0}
        draw = pages.zipf_weights

        def counted(*args, **kwargs):
            counter["calls"] += 1
            return draw(*args, **kwargs)

        monkeypatch.setattr(pages, "zipf_weights", counted)
        return counter

    @staticmethod
    def _check(spec, rng, ref_rng) -> np.ndarray:
        got = pages.page_weights(spec, rng)
        want = oracle.page_weights(spec, ref_rng)
        assert got.tobytes() == want.tobytes()
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert rng.random(8).tobytes() == ref_rng.random(8).tobytes()
        return got

    def test_miss_then_hit(self, draws):
        self._check(self.ZIPF, make_rng(5), make_rng(5))
        assert draws["calls"] == 1
        self._check(self.ZIPF, make_rng(5), make_rng(5))
        assert draws["calls"] == 1

    def test_generator_mid_stream(self, draws):
        for _ in range(2):
            rng, ref_rng = make_rng(9), make_rng(9)
            rng.random(13), ref_rng.random(13)
            rng.integers(0, 7, size=3), ref_rng.integers(0, 7, size=3)
            self._check(self.ZIPF, rng, ref_rng)
        assert draws["calls"] == 1

    def test_key_holds_size_and_exponent(self, draws):
        specs = [
            self.ZIPF,
            DataObject("z", 41 * PAGE_SIZE, hotness="zipf"),
            DataObject("z", 40 * PAGE_SIZE, hotness="zipf", zipf_s=0.8),
        ]
        for _ in range(2):
            for spec in specs:
                self._check(spec, make_rng(3), make_rng(3))
        assert draws["calls"] == len(specs)

    def test_hit_after_eviction(self, draws, monkeypatch):
        big = DataObject("b", 100 * PAGE_SIZE, hotness="zipf")
        monkeypatch.setattr(pages, "WEIGHT_MEMO_PAGES", 120)
        self._check(self.ZIPF, make_rng(1), make_rng(1))
        self._check(big, make_rng(2), make_rng(2))  # evicts the first entry
        assert pages._weight_memo_pages == 100
        self._check(self.ZIPF, make_rng(1), make_rng(1))  # redrawn, evicts big
        self._check(self.ZIPF, make_rng(1), make_rng(1))  # hit
        assert draws["calls"] == 3
        assert pages._weight_memo_pages == 40

    def test_mutated_result_does_not_poison_memo(self, draws):
        self._check(self.ZIPF, make_rng(4), make_rng(4))[:] = 0.0
        self._check(self.ZIPF, make_rng(4), make_rng(4)).sort()
        self._check(self.ZIPF, make_rng(4), make_rng(4))
        assert draws["calls"] == 1

    def test_fresh_entropy_is_not_memoised(self, draws):
        pages.page_weights(self.ZIPF)
        pages.page_weights(self.ZIPF)
        assert draws["calls"] == 2 and not pages._weight_memo

    @staticmethod
    def _expected_arena(table, specs, ref_rng) -> bytes:
        arena = np.zeros_like(table.weight_arena)
        for spec in specs:
            arena[table.object_slice(spec.name)] = oracle.page_weights(spec, ref_rng)
        return arena.tobytes()

    @pytest.mark.parametrize("seed", SEEDS)
    def test_mixed_table(self, draws, seed):
        specs = _specs(np.random.default_rng(seed), 7)
        n_zipf = sum(s.hotness == "zipf" for s in specs)
        for calls in (n_zipf, n_zipf):  # a miss, then a hit per Zipf object
            rng, ref_rng = make_rng(seed), make_rng(seed)
            table = PageTable(specs, 0, rng=rng)
            assert table.weight_arena.tobytes() == self._expected_arena(
                table, specs, ref_rng
            )
            assert rng.bit_generator.state == ref_rng.bit_generator.state
            assert rng.random(8).tobytes() == ref_rng.random(8).tobytes()
        assert draws["calls"] == n_zipf

    @pytest.mark.parametrize("n_tiers", [2, 4])
    def test_two_tier_and_n_tier_share_entries(self, draws, n_tiers):
        specs = [
            DataObject("u", 8 * PAGE_SIZE),
            DataObject("a", 24 * PAGE_SIZE, hotness="zipf"),
            DataObject("b", 10 * PAGE_SIZE, hotness="zipf", zipf_s=0.9),
        ]
        caps = [4 * PAGE_SIZE] * (n_tiers - 1) + [64 * PAGE_SIZE]
        for build in (
            lambda rng: PageTable(specs, 0, rng=rng),
            lambda rng: TieredPageTable(specs, caps, rng=rng),
        ):
            rng, ref_rng = make_rng(11), make_rng(11)
            rng.random(2), ref_rng.random(2)
            table = build(rng)
            assert table.weight_arena.tobytes() == self._expected_arena(
                table, specs, ref_rng
            )
            assert rng.bit_generator.state == ref_rng.bit_generator.state
            assert rng.random(8).tobytes() == ref_rng.random(8).tobytes()
        assert draws["calls"] == 2

    def test_concurrent_draws_keep_the_memo_consistent(self, draws, monkeypatch):
        """Threads sharing the memo, with eviction under way, still get the
        parent draw and leave the page count equal to what the memo holds."""
        # tiny objects and a tiny budget: threads spend their time in the
        # memo's bookkeeping, evicting all the while
        monkeypatch.setattr(pages, "WEIGHT_MEMO_PAGES", 5)
        specs = [DataObject(f"o{n}", n * PAGE_SIZE, hotness="zipf") for n in (1, 2, 3)]
        errors = []

        def work(worker: int) -> None:
            try:
                for i in range(1200):
                    spec, seed = specs[(worker + i) % 3], i % 7
                    rng, ref_rng = make_rng(seed), make_rng(seed)
                    got = pages.page_weights(spec, rng)
                    assert got.tobytes() == oracle.page_weights(spec, ref_rng).tobytes()
                    assert rng.bit_generator.state == ref_rng.bit_generator.state
            except Exception as exc:  # a lost update may raise; reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(w,)) for w in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors, errors[0]
        held = sum(len(w) for w, _ in pages._weight_memo.values())
        assert held == pages._weight_memo_pages <= 5
