"""Tests for the on-chip cache filter and Memory Mode's DRAM cache model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import CACHE_LINE, PAGE_SIZE, AccessPattern, make_rng
from repro.sim.cache import DirectMappedPageCache, OnChipCacheModel
from repro.sim.pages import PageTable
from repro.tasks import DataObject

CACHE = OnChipCacheModel()


class TestLinesTouched:
    def test_unit_stride_packs_lines(self):
        # 64 doubles at stride 1 = 8 lines
        assert CACHE.lines_touched(64, 8, 1) == 8

    def test_large_stride_one_line_each(self):
        assert CACHE.lines_touched(100, 8, 16) == 100

    def test_zero_elements(self):
        assert CACHE.lines_touched(0, 8, 1) == 0

    def test_rejects_bad_stride(self):
        with pytest.raises(ValueError):
            CACHE.lines_touched(10, 8, 0)

    @given(n=st.integers(1, 10**6), esize=st.sampled_from([1, 2, 4, 8]), stride=st.integers(1, 64))
    @settings(max_examples=50, deadline=None)
    def test_bounded_by_access_count(self, n, esize, stride):
        lines = CACHE.lines_touched(n, esize, stride)
        assert 1 <= lines <= n


class TestMemAccesses:
    def test_stream_is_line_count(self):
        n = CACHE.mem_accesses(AccessPattern.STREAM, 640, 8, 640 * 8)
        assert n == 80

    def test_stencil_equals_single_pass(self):
        stream = CACHE.mem_accesses(AccessPattern.STREAM, 640, 8, 640 * 8)
        stencil = CACHE.mem_accesses(AccessPattern.STENCIL, 640, 8, 640 * 8)
        assert stencil == stream

    def test_random_miss_rate_grows_with_working_set(self):
        small = CACHE.mem_accesses(AccessPattern.RANDOM, 10000, 8, CACHE.llc_bytes)
        large = CACHE.mem_accesses(AccessPattern.RANDOM, 10000, 8, 100 * CACHE.llc_bytes)
        assert large > small

    def test_random_in_cache_mostly_hits(self):
        n = CACHE.mem_accesses(AccessPattern.RANDOM, 100_000, 8, CACHE.llc_bytes // 2)
        assert n < 1000

    def test_zero_accesses(self):
        assert CACHE.mem_accesses(AccessPattern.STREAM, 0, 8, 100) == 0

    def test_random_requires_working_set(self):
        with pytest.raises(ValueError):
            CACHE.mem_accesses(AccessPattern.RANDOM, 10, 8, 0)

    def test_llc_scaled_with_system(self):
        """The default LLC is the Xeon's 36 MB scaled by 1/1024 -- an
        unscaled cache would swallow the scaled working sets entirely."""
        assert CACHE.llc_bytes == 36 * (1 << 20) // 1024


def table_with_rates(n_pages=256, dram_pages=64, seed=0):
    table = PageTable(
        [DataObject("o", n_pages * PAGE_SIZE)], dram_pages * PAGE_SIZE, rng=make_rng(seed)
    )
    rates = {"o": np.full(n_pages, 10.0)}
    return table, rates


class TestDirectMappedCache:
    def test_zero_rates_zero_residency(self):
        table, _ = table_with_rates()
        cache = DirectMappedPageCache(table)
        cache.update_shares({})
        assert table.access_fractions()["o"] == 0.0
        assert table.dram_used_bytes() == 0

    def test_streaming_gains_nothing(self):
        """k = 64 accesses/page (one per line) => reuse factor 0."""
        table, rates = table_with_rates()
        cache = DirectMappedPageCache(table)
        per_pass = {"o": np.full(256, 64.0)}
        cache.update_shares(rates, per_pass)
        assert table.access_fractions()["o"] == pytest.approx(0.0)

    def test_heavy_reuse_gains(self):
        table, rates = table_with_rates()
        cache = DirectMappedPageCache(table)
        per_pass = {"o": np.full(256, 64.0 * 100)}
        cache.update_shares(rates, per_pass)
        assert table.access_fractions()["o"] > 0.1

    def test_hot_pages_more_resident(self):
        table = PageTable(
            [DataObject(n, 128 * PAGE_SIZE) for n in ("hot", "cold")],
            64 * PAGE_SIZE,
            rng=make_rng(0),
        )
        cache = DirectMappedPageCache(table)
        rates = {"hot": np.full(128, 1000.0), "cold": np.ones(128)}
        per_pass = {n: np.full(128, 64.0 * 50) for n in rates}
        cache.update_shares(rates, per_pass)
        shares = table.access_fractions()
        assert shares["hot"] > shares["cold"]
        # the hardware cache moves no page
        assert table.dram_used_bytes() == 0

    def test_residency_within_bounds(self):
        table, rates = table_with_rates()
        cache = DirectMappedPageCache(table)
        cache.update_shares(rates, {"o": np.full(256, 1e9)})
        assert 0.0 <= table.access_fractions()["o"] <= 1.0

    def test_no_reuse_info_uses_conflict_share_only(self):
        table, rates = table_with_rates()
        cache = DirectMappedPageCache(table)
        cache.update_shares(rates)
        assert table.access_fractions()["o"] > 0

    def test_more_dram_more_residency(self):
        """Larger DRAM = more sets = less conflict pressure."""
        fracs = []
        for dram_pages in (16, 512):
            table, rates = table_with_rates(dram_pages=dram_pages)
            cache = DirectMappedPageCache(table)
            cache.update_shares(rates, {"o": np.full(256, 64.0 * 50)})
            fracs.append(table.access_fractions()["o"])
        assert fracs[1] > fracs[0]
