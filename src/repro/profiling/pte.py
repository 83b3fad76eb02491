"""MemoryOptimizer-style PTE sampling profiler.

The real mechanism repeatedly clears and re-checks the accessed bit of a
*bounded random sample* of page-table entries -- bounding the sample keeps
overhead low on TB-scale PM, at the price of noise and, crucially, no notion
of which task the accesses belong to.  The paper identifies exactly this
in-discriminate sampling as a source of load imbalance (Section 2).

The simulated profiler draws the same bounded uniform page sample and
observes each sampled page's true access rate through a Poisson-sampled
count, then scales up by the inverse sampling fraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from repro.common import make_rng
from repro.sim.pages import PageRates, PageTable

__all__ = ["PTESampleProfiler", "PageSampleEstimate"]


@dataclass(frozen=True)
class PageSampleEstimate:
    """Result of one profiling interval: the sampled pages as flat arrays,
    grouped by object in table order (each object's samples in draw
    order, with multiplicity)."""

    #: object names of the profiled table, in table order
    names: tuple[str, ...]
    #: each sample's object number (index into ``names``, ascending)
    obj: np.ndarray
    #: each sample's page index within its object
    pages: np.ndarray
    #: each sample's estimated accesses in the interval
    counts: np.ndarray
    #: scale factor applied (total pages / sampled pages)
    scale: float

    @property
    def samples(self) -> dict[str, tuple[np.ndarray, np.ndarray]]:
        """Per-object (sampled page indices, counts), objects in table
        order; objects with no samples are absent."""
        cuts = np.flatnonzero(np.diff(self.obj)) + 1
        return {
            self.names[int(ids[0])]: (pages, counts)
            for ids, pages, counts in zip(
                np.split(self.obj, cuts),
                np.split(self.pages, cuts),
                np.split(self.counts, cuts),
            )
            if len(ids)
        }

    def estimated_object_accesses(self) -> dict[str, float]:
        """Scaled per-object access estimates for the interval."""
        return {
            name: float(counts.sum()) * self.scale
            for name, (_, counts) in self.samples.items()
        }


def _rates_at(
    table: PageTable,
    access_rates: PageRates | Mapping[str, np.ndarray],
    obj: np.ndarray,
    lanes: np.ndarray,
) -> np.ndarray:
    """Access rates at arena ``lanes`` of objects number ``obj``."""
    if isinstance(access_rates, PageRates):
        return access_rates.at(obj, lanes)
    # full per-page arrays: lay them out like the arena and gather
    arena = np.zeros(len(table.weight_arena))
    for name, rates in access_rates.items():
        if name in table:
            arena[table.object_slice(name)] = rates
    return arena[lanes]


class PTESampleProfiler:
    """Bounded random page sampling with accessed-bit semantics."""

    def __init__(self, max_pages: int = 4096, seed=None, faults=None) -> None:
        if max_pages < 1:
            raise ValueError("max_pages must be >= 1")
        self.max_pages = max_pages
        self._rng = make_rng(seed)
        #: optional :class:`~repro.sim.faults.FaultInjector` consulted per
        #: scan (dropped/double-counted accessed-bit samples)
        self.faults = faults

    def sample(
        self,
        page_table: PageTable,
        access_rates: PageRates | Mapping[str, np.ndarray],
        interval_s: float,
        now: float = 0.0,
    ) -> PageSampleEstimate:
        """Profile one interval of length ``interval_s`` seconds.

        ``access_rates`` gives per-page accesses/second (the engine's
        ground truth: :meth:`EngineContext.page_rates`, or full arrays by
        object name); the profiler sees a Poisson draw of each sampled
        page's expected count -- the accessed-bit scan is lossy, so
        counts are additionally clipped by the scan frequency.

        One pass over the whole sample: rates are evaluated at the sampled
        pages only, and one Poisson call covers every sample of an object
        that has rates, in table order -- the same stream, bit for bit,
        as one call per object (PERFORMANCE.md section 4, rule 7).
        Samples of objects without rates count zero and draw nothing.
        """
        if interval_s <= 0:
            raise ValueError("interval_s must be positive")
        total_pages = page_table.total_pages
        n = min(self.max_pages, total_pages)
        obj, pages = page_table.sample_pages(n, rng=self._rng)
        names = page_table.names
        counts = np.zeros(len(pages))
        has_rates = np.array([name in access_rates for name in names], dtype=bool)
        live = has_rates[obj]
        if live.any():
            live_obj = obj[live]
            lanes = page_table.arena_lanes(live_obj, pages[live])
            expected = _rates_at(page_table, access_rates, live_obj, lanes) * interval_s
            counts[live] = self._rng.poisson(np.maximum(expected, 0.0))
        if self.faults is not None:
            obj, pages, counts = self.faults.corrupt_pte_scan(obj, pages, counts, now)
        scale = total_pages / max(n, 1)
        return PageSampleEstimate(
            names=names, obj=obj, pages=pages, counts=counts, scale=scale
        )
