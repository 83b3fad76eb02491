"""Tests for memory-tier specs and page tables."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import PAGE_SIZE, make_rng
from repro.sim.memspec import HMConfig, TierSpec, optane_hm_config
from repro.sim.pages import MigrationBatch, PagedObject, PageTable
from repro.tasks import DataObject


class TestTierSpec:
    def test_rejects_tiny_capacity(self):
        with pytest.raises(ValueError):
            TierSpec("t", 100, 1, 1, 1, 1)

    def test_rejects_nonpositive_latency(self):
        with pytest.raises(ValueError):
            TierSpec("t", PAGE_SIZE, 0, 1, 1, 1)

    def test_latency_selector(self):
        t = TierSpec("t", PAGE_SIZE, 10, 20, 1, 1)
        assert t.latency_ns(random=False) == 10
        assert t.latency_ns(random=True) == 20

    def test_n_pages(self):
        t = TierSpec("t", 10 * PAGE_SIZE, 1, 1, 1, 1)
        assert t.n_pages == 10


class TestOptaneConfig:
    def test_capacity_ratio_matches_paper(self):
        hm = optane_hm_config()
        assert hm.pm.capacity_bytes / hm.dram.capacity_bytes == pytest.approx(8.0)

    def test_pm_latency_asymmetry(self):
        """Section 2: PM seq latency 2.08x, random 3.77x DRAM's."""
        hm = optane_hm_config()
        assert hm.pm.seq_read_latency_ns / hm.dram.seq_read_latency_ns == pytest.approx(2.08)
        assert hm.pm.rand_read_latency_ns / hm.dram.rand_read_latency_ns == pytest.approx(3.77)

    def test_pm_bandwidth_asymmetry(self):
        """Section 2: PM read bw 3.87x lower, write bw 4.74x lower."""
        hm = optane_hm_config()
        assert hm.dram.read_bandwidth / hm.pm.read_bandwidth == pytest.approx(3.87)
        assert hm.dram.write_bandwidth / hm.pm.write_bandwidth == pytest.approx(4.74)

    def test_scaling_preserves_time_invariants(self):
        """Latency x capacity scaling: latency-bound time of a fixed byte
        volume is scale-invariant (accesses scale with bytes, latency
        counter-scales)."""
        a = optane_hm_config(scale=1 / 1024)
        b = optane_hm_config(scale=1 / 512)
        # bytes_at_scale * latency = const  =>  latency ratio = inverse scale ratio
        assert a.pm.seq_read_latency_ns / b.pm.seq_read_latency_ns == pytest.approx(2.0)
        assert b.pm.capacity_bytes / a.pm.capacity_bytes == pytest.approx(2.0, rel=1e-6)

    def test_rejects_bad_scale(self):
        with pytest.raises(ValueError):
            optane_hm_config(scale=0)

    def test_tier_lookup(self):
        hm = optane_hm_config()
        assert hm.tier("dram") is hm.dram
        assert hm.tier("pm") is hm.pm
        with pytest.raises(KeyError):
            hm.tier("hbm")


def make_table(sizes=(10, 20), dram_pages=16, hotness="uniform", rng=None):
    objects = [
        DataObject(f"o{i}", n * PAGE_SIZE, hotness=hotness) for i, n in enumerate(sizes)
    ]
    return PageTable(objects, dram_pages * PAGE_SIZE, rng=rng or make_rng(0))


class TestPagedObject:
    def test_uniform_weights(self):
        obj = PagedObject(DataObject("a", 10 * PAGE_SIZE))
        np.testing.assert_allclose(obj.weight, 0.1)

    def test_zipf_weights_sum_to_one(self):
        obj = PagedObject(DataObject("a", 64 * PAGE_SIZE, hotness="zipf"), rng=make_rng(0))
        assert obj.weight.sum() == pytest.approx(1.0)

    def test_zipf_block_averaging_bounds_skew(self):
        """Page-level skew is damped by the 64-line average: at moderate
        skew the hottest page carries far less than the hottest raw
        per-page Zipf rank would."""
        from repro.common import zipf_weights

        obj = PagedObject(
            DataObject("a", 256 * PAGE_SIZE, hotness="zipf", zipf_s=0.5),
            rng=make_rng(0),
        )
        raw_top = zipf_weights(256, 0.5)[0]
        assert obj.weight.max() < raw_top / 2

    def test_residency_starts_zero(self):
        obj = PagedObject(DataObject("a", 4 * PAGE_SIZE))
        assert obj.dram_pages() == 0
        assert obj.dram_access_fraction() == 0

    def test_set_residency_scalar(self):
        obj = PagedObject(DataObject("a", 4 * PAGE_SIZE))
        obj.set_residency(0.5)
        assert obj.dram_pages() == pytest.approx(2.0)
        assert obj.dram_access_fraction() == pytest.approx(0.5)

    def test_set_residency_rejects_out_of_range(self):
        obj = PagedObject(DataObject("a", 4 * PAGE_SIZE))
        with pytest.raises(ValueError):
            obj.set_residency(1.5)

    def test_set_residency_rejects_wrong_length(self):
        obj = PagedObject(DataObject("a", 4 * PAGE_SIZE))
        with pytest.raises(ValueError):
            obj.set_residency(np.ones(3))

    def test_hottest_pm_pages_ordering(self):
        obj = PagedObject(DataObject("a", 8 * PAGE_SIZE))
        obj.weight = np.array([1, 8, 2, 7, 3, 6, 4, 5], dtype=float)
        obj.weight /= obj.weight.sum()
        idx = obj.hottest_pm_pages()
        assert list(idx[:2]) == [1, 3]

    def test_hottest_excludes_resident(self):
        obj = PagedObject(DataObject("a", 4 * PAGE_SIZE))
        obj.set_pages(slice(0, 2), 1.0)
        idx = obj.hottest_pm_pages()
        assert set(idx) == {2, 3}

    def test_coldest_dram_pages(self):
        obj = PagedObject(DataObject("a", 4 * PAGE_SIZE))
        obj.weight = np.array([0.4, 0.3, 0.2, 0.1])
        obj.set_residency(1.0)
        assert list(obj.coldest_dram_pages(limit=2)) == [3, 2]


class TestPageTable:
    def test_capacity_accounting(self):
        table = make_table(sizes=(10, 20), dram_pages=16)
        assert table.total_pages == 30
        assert table.dram_free_pages() == 16
        table.object("o0").set_residency(1.0)
        assert table.dram_free_pages() == 6

    def test_place_all_respects_capacity(self):
        table = make_table(sizes=(10, 20), dram_pages=16)
        with pytest.raises(ValueError):
            table.place_all(1.0)
        table.place_all(0.5)
        assert table.dram_used_bytes() == pytest.approx(15 * PAGE_SIZE)

    def test_apply_batch_promotes(self):
        table = make_table()
        batch = MigrationBatch(moves=(("o0", np.arange(5), 0),))
        moved = table.apply_batch(batch)
        assert moved == 5
        assert table.object("o0").dram_pages() == 5

    def test_apply_batch_clamps_to_capacity(self):
        table = make_table(sizes=(30,), dram_pages=8)
        batch = MigrationBatch(moves=(("o0", np.arange(30), 0),))
        moved = table.apply_batch(batch)
        assert moved == 8
        assert table.dram_free_pages() == 0

    def test_apply_batch_demotes_first(self):
        """A swap batch (demote cold + promote hot) fits in a full DRAM."""
        table = make_table(sizes=(8, 8), dram_pages=8)
        table.object("o0").set_residency(1.0)
        batch = MigrationBatch(
            moves=(
                ("o0", np.arange(4), 1),
                ("o1", np.arange(4), 0),
            )
        )
        moved = table.apply_batch(batch)
        assert moved == 8
        assert table.object("o1").dram_pages() == 4
        assert table.dram_free_pages() == 0

    def test_duplicate_object_rejected(self):
        with pytest.raises(ValueError):
            PageTable([DataObject("a", PAGE_SIZE)] * 2, PAGE_SIZE)

    def test_access_fractions_keys(self):
        table = make_table()
        assert set(table.access_fractions()) == {"o0", "o1"}

    def test_sample_pages_within_bounds(self):
        table = make_table(sizes=(10, 20))
        obj, idx = table.sample_pages(500, rng=make_rng(1))
        n_pages = np.array([o.n_pages for o in table])
        assert (idx >= 0).all()
        assert (idx < n_pages[obj]).all()

    def test_sample_pages_total_count(self):
        table = make_table(sizes=(10, 20))
        obj, idx = table.sample_pages(100, rng=make_rng(1))
        assert len(obj) == len(idx) == 100

    def test_sample_pages_roughly_proportional(self):
        table = make_table(sizes=(10, 90))
        obj, _ = table.sample_pages(5000, rng=make_rng(2))
        share = np.count_nonzero(obj == table.names.index("o1")) / 5000
        assert 0.8 < share / 0.9 < 1.2

    @given(residency=st.floats(0.0, 1.0))
    @settings(max_examples=30, deadline=None)
    def test_dram_used_matches_residency(self, residency):
        table = make_table(sizes=(10,), dram_pages=100)
        table.object("o0").set_residency(residency)
        assert table.dram_used_bytes() == pytest.approx(
            10 * PAGE_SIZE * residency
        )


class TestMigrationBatch:
    def test_page_and_byte_counts(self):
        b = MigrationBatch(
            moves=(("a", np.arange(3), 0), ("b", np.arange(2), 1))
        )
        assert b.n_pages == 5
        assert b.bytes_moved == 5 * PAGE_SIZE
