"""Cache models.

Two distinct caches matter in this system:

* the **on-chip SRAM hierarchy** (:class:`OnChipCacheModel`) filters a
  kernel's logical access stream down to main-memory accesses.  Applications
  use it to derive honest footprints, and the alpha machinery of Section 4
  uses it as the "performance counter measurement" in its offline stencil
  microbenchmark;
* the **direct-mapped DRAM page cache** (:class:`DirectMappedPageCache`)
  is what Optane's Memory Mode turns DRAM into.  It is task-agnostic and
  conflict-prone, which is exactly why the paper finds it causes load
  imbalance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.common import CACHE_LINE, MIB, AccessPattern
from repro.sim.pages import PageTable

__all__ = ["OnChipCacheModel", "DirectMappedPageCache"]


@dataclass(frozen=True)
class OnChipCacheModel:
    """Analytic filter from logical accesses to main-memory accesses.

    ``llc_bytes`` is the last-level-cache capacity.  The model captures the
    first-order effects the paper's alpha parameter exists for: spatial reuse
    within cache lines for regular patterns, and capacity misses for random
    ones.

    The default is the Xeon Gold 6252N's ~36 MB LLC scaled by the global
    1/1024 footprint scale (see ``repro.sim.memspec``): capacity-dependent
    quantities must scale together, or the shrunken working sets would fit
    in an unshrunken cache and main-memory traffic would vanish.
    """

    llc_bytes: int = 36 * MIB // 1024

    def __post_init__(self) -> None:
        if self.llc_bytes < CACHE_LINE:
            raise ValueError("cache smaller than one line")

    def lines_touched(self, n_elements: int, element_size: int, stride: int) -> int:
        """Distinct cache lines touched by a strided walk over an array."""
        if n_elements <= 0:
            return 0
        if element_size <= 0 or stride <= 0:
            raise ValueError("element_size and stride must be positive")
        stride_bytes = stride * element_size
        if stride_bytes >= CACHE_LINE:
            # every access lands on its own line
            return n_elements
        # several consecutive accesses share a line
        span_bytes = n_elements * stride_bytes
        return max(1, -(-span_bytes // CACHE_LINE))

    def mem_accesses(
        self,
        pattern: AccessPattern,
        n_accesses: int,
        element_size: int,
        working_set_bytes: int,
        stride: int = 1,
    ) -> int:
        """Main-memory accesses generated by ``n_accesses`` logical accesses.

        * STREAM / STRIDED: one memory access per distinct line touched
          (each line is fetched once; no temporal reuse beyond the line).
        * STENCIL: sequential walk with neighbour reuse -- the neighbouring
          reads hit in cache, so traffic equals the stream traffic of a
          single pass.
        * RANDOM: warm-cache miss rate ``max(0, 1 - llc/ws)`` applied to
          every access (independent-reference approximation).
        """
        if n_accesses <= 0:
            return 0
        if pattern is AccessPattern.RANDOM:
            if working_set_bytes <= 0:
                raise ValueError("working_set_bytes must be positive")
            miss_rate = max(0.005, 1.0 - self.llc_bytes / working_set_bytes)
            return max(1, int(round(n_accesses * miss_rate)))
        if pattern is AccessPattern.STENCIL:
            # all taps of the stencil coalesce into one sequential pass
            return self.lines_touched(n_accesses, element_size, 1)
        return self.lines_touched(n_accesses, element_size, stride)


class DirectMappedPageCache:
    """Steady-state model of Memory Mode's direct-mapped DRAM cache.

    Optane's Memory Mode manages DRAM as a direct-mapped cache of PM at
    64-byte-line granularity.  Two effects determine how much of a page's
    traffic is served from DRAM:

    * **conflicts** -- a line's access hits iff the previous access to its
      set was the same line.  Under the independent-reference model the hit
      probability equals the line's share of its set's access rate; with
      sets assigned pseudo-randomly, the expected set pressure on every line
      is the global mean rate per set, giving the closed form
      ``share = r_line / (r_line + total_rate / n_sets)``;
    * **cold/streaming misses** -- a line touched ``k`` times per pass hits
      at most ``1 - 1/k`` of the time; streamed data (each line once,
      ``k = 1``) gains nothing from the cache, which is why Memory Mode
      barely helps streaming HPC codes in the paper.

    A page's hit share is the average hit rate of its lines,
    ``share * max(0, 1 - 1/k_line)``.  What the rest of the stack consumes
    is one DRAM share per object, the access-weighted mean of its pages'
    shares, handed to :meth:`PageTable.set_dram_shares`; no page is moved,
    because the hardware cache, not software, decides what DRAM holds.

    The crucial property reproduced: the share follows *global* line
    hotness with no notion of tasks, so per-task DRAM fractions diverge.
    """

    #: Cache lines per page.
    LINES_PER_PAGE = 64

    def __init__(self, page_table: PageTable, seed: int = 0x5EED) -> None:
        self.page_table = page_table
        self.n_sets = max(1, page_table.dram_capacity_bytes // CACHE_LINE)
        self._seed = seed

    def update_shares(
        self,
        access_rates: dict[str, np.ndarray],
        accesses_per_pass: dict[str, np.ndarray] | None = None,
    ) -> None:
        """Recompute every object's DRAM share from current per-page access
        rates and hand the shares to the page table.

        ``access_rates[name][p]`` is page ``p``'s access rate (any common
        unit); ``accesses_per_pass[name][p]`` is how many times the page is
        accessed during one pass of the current region (bounds line reuse).
        """
        total_rate = 0.0
        for obj in self.page_table:
            rates = access_rates.get(obj.name)
            if rates is not None:
                total_rate += float(rates.sum())
        pressure = total_rate / self.n_sets  # mean competing rate per set
        shares: dict[str, float] = {}
        for obj in self.page_table:
            rates = access_rates.get(obj.name)
            if rates is None or total_rate <= 0:
                shares[obj.name] = 0.0
                continue
            r_line = rates / self.LINES_PER_PAGE
            share = r_line / (r_line + pressure + 1e-300)
            if accesses_per_pass is not None:
                k_page = accesses_per_pass.get(obj.name)
                if k_page is not None:
                    reuse = np.maximum(
                        0.0, 1.0 - self.LINES_PER_PAGE / np.maximum(k_page, 1e-9)
                    )
                    share = share * reuse
            shares[obj.name] = float(obj.weight @ np.clip(share, 0.0, 1.0))
        self.page_table.set_dram_shares(shares)
