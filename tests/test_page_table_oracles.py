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
all agree after every batch.
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
    ctx = SimpleNamespace(
        page_table=table,
        instance_times=times,
        active_instances=lambda: instances,
    )
    ctx.page_rates = lambda: EngineContext.page_rates(ctx)
    ctx.page_access_rates = lambda: EngineContext.page_access_rates(ctx)
    return ctx


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
        # a duplicate counts twice in the moved total, once in the tier
        table, moved = self._run(
            _two_objects((4, 4, 16)), [("a", np.array([3, 3, 5, 3]), 0)]
        )
        assert moved == 4
        assert table.tier_used_pages(0) == 2.0
        assert table.tier_free_pages(0) == 2

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


class TestSampling:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_page_table_sample(self, seed):
        table = _table(seed, shares=False)
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

    def test_empty_table(self):
        table = PageTable([], 0)
        obj, pages = table.sample_pages(10, rng=0)
        assert len(obj) == len(pages) == 0
        assert oracle.sample_pages(table, 10, rng=0) == []

    @pytest.mark.parametrize("seed", SEEDS)
    def test_top_k_hot_pages(self, seed):
        rng = np.random.default_rng(seed)
        table = _table(seed, shares=False)
        obj, pages = table.sample_pages(256, rng=rng)
        counts = rng.poisson(2.0, size=len(pages)).astype(np.float64)
        estimate = PageSampleEstimate(table.names, obj, pages, counts, scale=1.0)
        for k in (0, 1, 5, 64, 1000):
            for min_count in (1.0, 3.0):
                _assert_same_groups(
                    top_k_hot_pages(estimate, k, min_count),
                    oracle.top_k_hot_pages(estimate, k, min_count),
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
        ctx = _rate_ctx(table, seed)
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

    @pytest.mark.parametrize(
        "faults",
        [
            None,
            FaultConfig(pte_drop_rate=1.0, pte_fault_fraction=0.4),
            FaultConfig(pte_duplicate_rate=1.0, pte_fault_fraction=0.3),
            FaultConfig(pte_drop_rate=0.5, pte_duplicate_rate=0.5),
        ],
        ids=["healthy", "drop", "duplicate", "mixed"],
    )
    @pytest.mark.parametrize("seed", SEEDS)
    def test_matches_reference(self, seed, faults):
        table = _table(seed, shares=True)
        ctx = _rate_ctx(table, seed)
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

    def _check(self, table, seed, sample_pages, ref=None):
        ctx = self._ctx(table, seed)
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
