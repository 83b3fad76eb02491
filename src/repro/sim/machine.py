"""Ground-truth execution-time model.

This is the simulator's stand-in for the physical machine: given a task
instance's :class:`~repro.tasks.task.Footprint` and the current per-object
access fractions across the memory tiers, it computes how long the
instance takes.

The model (DESIGN.md Section 5) is deliberately *nonlinear* in the DRAM
ratio ``r_dram``:

* regular patterns are bandwidth-bound and deeply pipelined (high
  memory-level parallelism), random patterns are latency-bound (MLP ~ 1.5);
* memory time overlaps with compute to a pattern-dependent degree;
* traffic to the tiers partially overlaps (q-norm combination).

The memory arithmetic is written once, in the tick kernel's body
(:mod:`repro.sim.kernels`): :meth:`MachineModel.breakdowns` prices
footprints under placements through a fresh kernel, and the other pricing
methods are one-footprint views of it.  ``tests/oracles/scalar.py`` keeps
the model's scalar form as the reference.

Merchandiser's learned correlation function ``f`` (Section 5 of the paper)
never sees these internals -- only synthetic performance counters and the two
homogeneous endpoints -- so learning ``f`` is an honest reconstruction
problem, just as learning it from real hardware is.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence, Union

from repro.common import AccessPattern
from repro.sim.memspec import HMConfig, TopologySpec
from repro.tasks.task import Footprint

__all__ = ["MachineSpec", "TieredBreakdown", "MachineModel", "Placement"]

#: per-object DRAM ratios (2 tiers) or fraction vectors (3+ tiers), or one
#: ratio / vector for every object
Placement = Union[
    Mapping[str, float], Mapping[str, Sequence[float]], float, Sequence[float]
]


@dataclass(frozen=True)
class MachineSpec:
    """CPU-side parameters of the simulated node."""

    frequency_ghz: float = 2.1          # Xeon Gold 6252N base clock
    base_cpi: float = 0.55              # cycles/instruction with no mem stalls
    #: Footprint scale of the paired HM config (see repro.sim.memspec): CPU
    #: frequency is scaled down by this factor so compute times keep the
    #: unscaled machine's magnitudes, like the counter-scaled latencies.
    scale: float = 1.0 / 1024.0
    #: Memory-level parallelism per access pattern: how many outstanding
    #: misses the pattern sustains, i.e. how well latency is amortised.
    #: Stream/stencil values include the hardware prefetcher's pipelining
    #: (per-core streaming throughput ~64B * 24 / 81ns ~ 19 GB/s).
    mlp: Mapping[AccessPattern, float] = field(
        default_factory=lambda: {
            AccessPattern.STREAM: 24.0,
            AccessPattern.STRIDED: 12.0,
            AccessPattern.STENCIL: 20.0,
            AccessPattern.RANDOM: 1.6,
        }
    )
    #: Compute/memory overlap per pattern (fraction of the shorter of the
    #: two that hides under the longer): prefetchable streams overlap well,
    #: dependent random chases do not.
    overlap: Mapping[AccessPattern, float] = field(
        default_factory=lambda: {
            AccessPattern.STREAM: 0.90,
            AccessPattern.STRIDED: 0.80,
            AccessPattern.STENCIL: 0.85,
            AccessPattern.RANDOM: 0.25,
        }
    )
    #: Cross-tier overlap exponent: per-tier memory times combine as a
    #: q-norm, between max (full overlap, q->inf) and sum (none, q=1).
    tier_overlap_q: float = 1.3

    def __post_init__(self) -> None:
        if self.frequency_ghz <= 0 or self.base_cpi <= 0:
            raise ValueError("frequency and CPI must be positive")
        if self.tier_overlap_q < 1.0:
            raise ValueError("tier_overlap_q must be >= 1")


@dataclass(frozen=True)
class TieredBreakdown:
    """Where an instance's time goes on an N-tier topology.

    Per-tier tuples are ordered like the topology (fastest first); on a
    2-tier :class:`HMConfig` tier 0 is DRAM and tier 1 is PM.
    """

    total_s: float
    cpu_s: float
    mem_s: float
    tier_s: tuple[float, ...]
    tier_read_bytes: tuple[float, ...]
    tier_write_bytes: tuple[float, ...]

    def tier_bytes(self, k: int) -> float:
        return self.tier_read_bytes[k] + self.tier_write_bytes[k]


class MachineModel:
    """Computes instance execution times on a given memory system."""

    def __init__(self, spec: MachineSpec | None = None) -> None:
        self.spec = spec or MachineSpec()

    # ------------------------------------------------------------------
    def cpu_time(self, footprint: Footprint) -> float:
        """Pure compute time (no memory stalls), seconds."""
        spec = self.spec
        prof = footprint.profile
        # branch mispredictions and poor vectorisation inflate the base CPI
        cpi = spec.base_cpi / min(prof.ilp, 4.0) * 2.0
        cpi *= 1.0 + 14.0 * prof.branch_rate * prof.branch_misp_rate
        cpi *= 1.0 - 0.35 * prof.vector_fraction
        cycles = footprint.instructions * cpi
        return cycles / (spec.frequency_ghz * spec.scale * 1e9)

    # ------------------------------------------------------------------
    def breakdowns(
        self,
        footprints: Sequence[Footprint],
        memory: TopologySpec,
        placements: Sequence[Placement],
    ) -> list[list[TieredBreakdown]]:
        """``out[p][i]`` prices ``footprints[i]`` under ``placements[p]``.

        On a 2-tier topology a placement maps objects to DRAM ratios (a
        float prices every object at that ratio); on 3+ tiers it maps
        objects to access-fraction vectors, fastest tier first (one vector
        prices every object with it).
        Missing objects are all-in-slowest, components clip to [0, 1] and
        NaN to 0.0.  Footprints that name the same object share its
        placement.  One fresh tick kernel prices the batch, one body run
        per placement; batching changes no bit of any breakdown.
        """
        # kernels imports this module
        from repro.sim.kernels import BreakdownKernel, TieredBreakdownKernel

        tiered = memory.n_tiers > 2
        ids = [str(i) for i in range(len(footprints))]
        kernel = (TieredBreakdownKernel if tiered else BreakdownKernel)(
            self, memory, list(zip(ids, footprints))
        )
        out = []
        for p in placements:
            if not isinstance(p, Mapping):
                p = dict.fromkeys(kernel.objects, p)
            out.append(kernel._price(ids, kernel._fractions(p)))
        return out

    def tier_endpoints(
        self, footprints: Sequence[Footprint], memory: TopologySpec
    ) -> list[tuple[float, ...]]:
        """Per footprint, the homogeneous execution times with *all*
        accesses served by each tier in turn, fastest first: on 2 tiers
        ``(T_dram_only, T_pm_only)``, the bounds of Equation 2; on more the
        N-tier endpoints that bracket the effective-ratio prediction."""
        if memory.n_tiers == 2:
            one_hot: list[Placement] = [1.0, 0.0]
        else:
            n = memory.n_tiers
            one_hot = [tuple(float(i == k) for i in range(n)) for k in range(n)]
        rows = self.breakdowns(footprints, memory, one_hot)
        return [tuple(bd.total_s for bd in col) for col in zip(*rows)]

    # -- one-footprint views of :meth:`breakdowns` ----------------------
    def breakdown(
        self, footprint: Footprint, memory: TopologySpec, placement: Mapping
    ) -> TieredBreakdown:
        """Breakdown under one per-object placement (see :meth:`breakdowns`;
        an empty one is all-in-slowest)."""
        return self.breakdowns([footprint], memory, [placement])[0][0]

    def instance_time(
        self, footprint: Footprint, memory: TopologySpec, placement: Mapping
    ) -> float:
        """Execution time in seconds under one per-object placement."""
        return self.breakdown(footprint, memory, placement).total_s

    def endpoint_times(self, footprint: Footprint, hm: HMConfig) -> tuple[float, float]:
        """(T_dram_only, T_pm_only) -- the bounds of Equation 2."""
        return self.tier_endpoints([footprint], hm)[0]

    def uniform_ratio_time(
        self, footprint: Footprint, hm: HMConfig, r_dram: float
    ) -> float:
        """Time when every object serves ``r_dram`` of accesses from DRAM."""
        if not 0.0 <= r_dram <= 1.0:
            raise ValueError("r_dram must be in [0, 1]")
        return self.breakdowns([footprint], hm, [r_dram])[0][0].total_s
