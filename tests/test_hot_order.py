"""Differential tests: each object's cached hotness order and the N-tier
paths that read it, against tests/oracles/pages.

``TieredPagedObject.hot_order`` is sorted once per table; the N-tier
Merchandiser queue, the learned-ranking policy's hot fraction and fill
order, and the interval policy's sample dedupe must give what the full
per-call sorts and ``np.unique`` of the reference give, array for array:
on uniform objects (every weight ties), a constructed rounding collision
(two distinct weights whose gains round to one value), partly claimed
pools, a footprint that lists one object twice, 2, 3 and 4 tiers and
samples with repeats.  The cache itself must be dropped when a weight
vector is rebound and left out of a pickle.
"""

import pickle
from types import SimpleNamespace

import numpy as np
import pytest

from repro.common import PAGE_SIZE, AccessPattern
from repro.ml.ranking import default_object_features
from repro.policies.interval import _distinct_samples
from repro.policies.ltr import LearnedRankingPolicy
from repro.policies.merchandiser import TieredMerchandiserPolicy, _hot_pool
from repro.sim import pages
from repro.sim.pages import MigrationBatch, PageTable, TieredPageTable
from repro.tasks import DataObject, Footprint, ObjectAccess, TaskInstanceSpec
from tests.oracles import pages as oracle

SEEDS = range(8)
TIERS = (2, 3, 4)


def _table(seed: int, n_tiers: int, hotness: str | None = None) -> TieredPageTable:
    """12 objects of 5-90 pages, Zipf or uniform (``hotness=None`` mixes
    both), with a random placement over every tier."""
    rng = np.random.default_rng(seed)
    specs = [
        DataObject(
            f"o{i}",
            int(rng.integers(5, 90)) * PAGE_SIZE,
            hotness=hotness or ("zipf" if rng.random() < 0.5 else "uniform"),
        )
        for i in range(12)
    ]
    total = sum(s.n_pages for s in specs)
    if n_tiers == 2:
        table = PageTable(specs, total * PAGE_SIZE, rng=seed)
    else:
        table = TieredPageTable(specs, [total * PAGE_SIZE] * n_tiers, rng=seed)
    table.place(
        MigrationBatch(
            moves=tuple(
                (obj.name, np.flatnonzero(rng.random(obj.n_pages) < 0.5), k)
                for obj in table
                for k in range(n_tiers - 1)
            )
        )
    )
    return table


def _set_weight(table: TieredPageTable, name: str, weight: np.ndarray) -> None:
    """Write ``weight`` into ``name``'s arena segment and rebind its view."""
    sl = table.object_slice(name)
    table.weight_arena[sl] = weight
    table.object(name).weight = table.weight_arena[sl]


def _collision(rng) -> tuple[float, float, float, int]:
    """``(c, w_lo, w_hi, reads)`` with ``w_hi > w_lo`` and
    ``w_hi * c == w_lo * c``, where ``c = reads / (reads + 1)`` is the
    gain scale of an object read ``reads`` times in a footprint whose
    other object is read once."""
    while True:
        reads = int(rng.integers(2, 10**6))
        c = reads / (reads + 1)
        w_lo = float(rng.random()) * 1e-2
        w_hi = float(np.nextafter(w_lo, 1.0))
        if w_hi * c == w_lo * c:
            return c, w_lo, w_hi, reads


def _colliding_table(seed: int, n_tiers: int) -> tuple[TieredPageTable, Footprint]:
    """A table whose first object has a run of equal gains in hotness
    order that is not in page-id order, and a footprint that reads it."""
    rng = np.random.default_rng(seed)
    table = _table(seed, n_tiers, hotness="uniform")
    c, w_lo, w_hi, reads = _collision(rng)
    name, other = table.names[:2]
    n = table.object(name).n_pages
    weight = np.full(n, w_lo / 4)
    # w_lo on low ids, w_hi on the highest: the hot order puts the
    # highest id first, but its gain ties the low ids' gains
    weight[: n // 3] = w_lo
    weight[-1] = w_hi
    _set_weight(table, name, weight)
    obj = table.object(name)
    gains = obj.weight[obj.hot_order] * c
    assert obj.hot_order[0] == n - 1 and gains[0] == gains[1]
    footprint = Footprint(
        accesses=(
            ObjectAccess(name, AccessPattern.RANDOM, reads=reads),
            ObjectAccess(other, AccessPattern.RANDOM, reads=1),
        ),
        instructions=1,
    )
    assert footprint.accesses[0].total / footprint.total_accesses == c
    return table, footprint


def _footprint(names, rng) -> Footprint:
    """Accesses to ``names`` in a random order, the first one listed twice."""
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


class TestHotOrder:
    @pytest.mark.parametrize("hotness", [None, "uniform"])
    @pytest.mark.parametrize("n_tiers", TIERS)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_matches_stable_sort(self, seed, n_tiers, hotness):
        table = _table(seed, n_tiers, hotness)
        for obj in table:
            order = obj.hot_order
            assert order.dtype == np.int32 and not order.flags.writeable
            np.testing.assert_array_equal(order, oracle.hot_order(obj.weight))
            assert obj.hot_order is order

    @pytest.mark.parametrize("n_tiers", TIERS)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_hottest_pages_filter_the_order(self, seed, n_tiers):
        table = _table(seed, n_tiers)
        for obj in table:
            for k in range(n_tiers):
                cand = np.flatnonzero(obj.page_tier > k)
                want = cand[np.argsort(-obj.weight[cand], kind="stable")]
                for limit in (None, 0, 1, 7, len(want)):
                    got = obj.hottest_pages_slower_than(k, limit)
                    np.testing.assert_array_equal(
                        got, want if limit is None else want[:limit]
                    )

    def test_each_table_sorts_its_own(self):
        a, b = _table(0, 3), _table(0, 3)
        for x, y in zip(a, b):
            assert x.hot_order is not y.hot_order
            np.testing.assert_array_equal(x.hot_order, y.hot_order)

    def test_rebinding_weight_drops_order(self):
        obj = pages.TieredPagedObject(DataObject("a", 8 * PAGE_SIZE), 2)
        assert obj.hot_order.tolist() == list(range(8))
        obj.weight = np.array([1, 8, 2, 7, 3, 6, 4, 5], dtype=float)
        assert obj.hot_order.tolist() == [1, 3, 5, 7, 6, 4, 2, 0]
        # an augmented assignment rebinds too
        obj.weight *= -1.0
        assert obj.hot_order.tolist() == [0, 2, 4, 6, 7, 5, 3, 1]
        obj.page_tier[:4] = 0
        assert obj.hottest_pages_slower_than(0).tolist() == [4, 6, 7, 5]

    @pytest.mark.parametrize("n_tiers", TIERS)
    def test_pickle_drops_cached_order(self, n_tiers):
        table = _table(1, n_tiers)
        orders = {obj.name: obj.hot_order.copy() for obj in table}
        blob = pickle.dumps(table)
        clone = pickle.loads(blob)
        for obj in clone:
            assert obj._hot is None
            assert obj.weight.base is clone.weight_arena
            np.testing.assert_array_equal(obj.hot_order, orders[obj.name])
        # the cache adds nothing to the pickle
        for obj in table:
            obj.weight = obj.weight
        assert len(pickle.dumps(table)) == len(blob)
        lone = pages.TieredPagedObject(DataObject("a", 5 * PAGE_SIZE), 3, rng=2)
        lone.hot_order
        back = pickle.loads(pickle.dumps(lone))
        assert back._hot is None
        np.testing.assert_array_equal(back.hot_order, lone.hot_order)

    @pytest.mark.parametrize("n_tiers", range(2, 9))
    @pytest.mark.parametrize("seed", SEEDS)
    def test_tier_fractions_match_int64_compare(self, seed, n_tiers):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 3000))
        spec = DataObject("x", n * PAGE_SIZE, hotness="zipf")
        obj = pages.TieredPagedObject(spec, n_tiers, rng=seed)
        obj.page_tier[:] = rng.integers(0, n_tiers, size=n)
        onehot = obj.page_tier[None, :] == np.arange(n_tiers)[:, None]
        want = onehot.astype(np.float64) @ obj.weight
        assert obj.tier_access_fractions().tobytes() == want.tobytes()


def _ranked(pool, rank):
    names, pages_, gains = pool
    return names[rank].tolist(), pages_[rank], gains[rank]


def _check_pool(table, footprint, taken) -> None:
    got = _hot_pool(table, footprint, taken)
    want = oracle.page_pool(table, footprint, taken)
    if want is None:
        assert got is None
        return
    g_names, g_pages, g_gains = _ranked(
        (np.array(got.names)[got.owner], got.pages, got.gains),
        np.argsort(-got.gains, kind="stable"),
    )
    w_names, w_pages, w_gains = _ranked(want, oracle.pool_rank(want))
    assert g_names == w_names
    np.testing.assert_array_equal(g_pages, w_pages)
    assert g_gains.tobytes() == w_gains.tobytes()


class TestHotPool:
    """The hot-ordered pool ranks as the page-id-ordered pool does."""

    @pytest.mark.parametrize("hotness", [None, "uniform"])
    @pytest.mark.parametrize("n_tiers", TIERS)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_matches_reference_rank(self, seed, n_tiers, hotness):
        table = _table(seed, n_tiers, hotness)
        rng = np.random.default_rng(100 + seed)
        names = [table.names[i] for i in rng.choice(len(table), 6, replace=False)]
        footprint = _footprint(names, rng)
        for p_taken in (0.0, 0.3, 0.9, 1.0):
            taken = {obj.name: rng.random(obj.n_pages) < p_taken for obj in table}
            _check_pool(table, footprint, taken)

    @pytest.mark.parametrize("n_tiers", TIERS)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_rounding_collision(self, seed, n_tiers):
        table, footprint = _colliding_table(seed, n_tiers)
        rng = np.random.default_rng(seed)
        for p_taken in (0.0, 0.2):
            taken = {obj.name: rng.random(obj.n_pages) < p_taken for obj in table}
            _check_pool(table, footprint, taken)


def _plan(instances, n_tiers: int, rng, pages_per_task: int) -> SimpleNamespace:
    """Random per-tier page quotas, some tasks without a tier-0 share and
    one quota for a task not in the region."""
    quotas = []
    for inst in list(instances) + [SimpleNamespace(task_id="absent")]:
        split = rng.multinomial(pages_per_task, rng.dirichlet(np.ones(n_tiers)))
        if rng.random() < 0.3:
            split[0] = 0
        fractions = tuple((split / max(split.sum(), 1)).tolist())
        quotas.append(
            SimpleNamespace(
                task_id=inst.task_id, fractions=fractions, pages=tuple(split.tolist())
            )
        )
    return SimpleNamespace(quotas=tuple(quotas))


def _check_queue(table, instances, plan) -> None:
    n = table.n_tiers
    ctx = SimpleNamespace(
        region=SimpleNamespace(instances=instances), page_table=table
    )
    policy = TieredMerchandiserPolicy(model=None)
    policy._build_queue(ctx, plan, n)
    want = oracle.build_queue(table, instances, plan, n)
    got = policy._queue
    assert [(name, k) for name, _, k in got] == [(name, k) for name, _, k in want]
    for (_, a, _), (_, b, _) in zip(got, want):
        np.testing.assert_array_equal(a, b)


class TestBuildQueue:
    """``TieredMerchandiserPolicy._build_queue`` against the full sorts."""

    @pytest.mark.parametrize("hotness", [None, "uniform"])
    @pytest.mark.parametrize("n_tiers", TIERS)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_matches_reference(self, seed, n_tiers, hotness):
        table = _table(seed, n_tiers, hotness)
        rng = np.random.default_rng(200 + seed)
        # tasks share objects, so later tasks pool partly claimed objects
        instances = [
            TaskInstanceSpec(
                f"t{j}",
                _footprint(
                    [table.names[i] for i in rng.choice(len(table), 4, replace=False)],
                    rng,
                ),
            )
            for j in range(5)
        ]
        for per_task in (10, 150, 2000):
            _check_queue(table, instances, _plan(instances, n_tiers, rng, per_task))

    @pytest.mark.parametrize("n_tiers", TIERS)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_rounding_collision(self, seed, n_tiers):
        table, footprint = _colliding_table(seed, n_tiers)
        rng = np.random.default_rng(seed)
        instances = [TaskInstanceSpec("t0", footprint)]
        for per_task in (1, 5, 40, 500):
            _check_queue(table, instances, _plan(instances, n_tiers, rng, per_task))


class TestLearnedRanking:
    """The ranking policy's hot fraction and fill order read the cached
    order; both must equal the per-region sorts they replaced."""

    @staticmethod
    def _ctx(table, seed):
        rng = np.random.default_rng(seed)
        names = table.names
        instances = [
            TaskInstanceSpec(
                f"t{j}",
                _footprint(
                    [names[i] for i in rng.choice(len(names), 3, replace=False)], rng
                ),
            )
            for j in range(4)
        ]
        sizes = {obj.name: obj.spec for obj in table}
        return SimpleNamespace(
            region=SimpleNamespace(instances=instances),
            page_table=table,
            workload=SimpleNamespace(object=sizes.__getitem__),
        )

    @pytest.mark.parametrize("hotness", [None, "uniform"])
    @pytest.mark.parametrize("n_tiers", TIERS)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_features_and_queue(self, seed, n_tiers, hotness, monkeypatch):
        table = _table(seed, n_tiers, hotness)
        ctx = self._ctx(table, seed)
        names, feats, _ = LearnedRankingPolicy()._region_features(ctx)
        totals: dict[str, float] = {}
        for inst in ctx.region.instances:
            for acc in inst.footprint.accesses:
                totals[acc.obj] = totals.get(acc.obj, 0.0) + acc.total
        want = np.asarray(
            [
                default_object_features(
                    table.object(nm).spec.size_bytes,
                    totals[nm],
                    oracle.ltr_hot_fraction(table.object(nm).weight),
                )
                for nm in names
            ],
            dtype=np.float64,
        )
        assert feats.tobytes() == want.tobytes()

        got = LearnedRankingPolicy(seed=seed)
        got.on_region_start(ctx)
        # the fill order as it was: a fresh stable sort per object and region
        monkeypatch.setattr(
            pages.TieredPagedObject,
            "hot_order",
            property(lambda self: oracle.hot_order(self.weight)),
        )
        ref = LearnedRankingPolicy(seed=seed)
        ref.on_region_start(ctx)
        assert [(nm, k) for nm, _, k in got._queue] == [
            (nm, k) for nm, _, k in ref._queue
        ]
        for (_, a, _), (_, b, _) in zip(got._queue, ref._queue):
            np.testing.assert_array_equal(a, b)


class TestDistinctSamples:
    """The interval policy's sort-and-mask dedupe against ``np.unique``."""

    @pytest.mark.parametrize("n_samples", [0, 1, 64, 5000])
    @pytest.mark.parametrize("n_tiers", TIERS)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_matches_unique(self, seed, n_tiers, n_samples):
        table = _table(seed, n_tiers)
        obj, pages_ = table.sample_pages(n_samples, rng=seed)
        if n_samples > table.total_pages:
            assert len(np.unique(table.arena_lanes(obj, pages_))) < n_samples
        keep = np.random.default_rng(seed).random(len(table)) < 0.7
        sel = keep[obj]
        got = _distinct_samples(table, obj[sel], pages_[sel])
        want = oracle.distinct_samples(table, obj[sel], pages_[sel])
        for a, b in zip(got, want):
            assert a.dtype == b.dtype
            assert a.tobytes() == b.tobytes()
