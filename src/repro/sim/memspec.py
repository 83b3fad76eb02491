"""Memory-tier specifications.

The performance asymmetries come straight from Section 2 of the paper
(Optane PM 100 series vs DDR4 DRAM):

* PM sequential-read latency is 2.08x DRAM's; random-read latency 3.77x;
* PM read bandwidth is 3.87x lower than DRAM's, write bandwidth 4.74x lower;
* the evaluation platform has 192 GB DRAM and 1.5 TB PM;
* Figure 6 shows peak bandwidths of ~180 GB/s (DRAM) and ~52 GB/s (PM).

Capacities and bandwidths are scaled by a common ``scale`` factor (default
1/1024: MiB instead of GiB) so simulated footprints stay laptop-sized while
execution times keep the paper's magnitudes.  Scaling consistency: a
bandwidth-bound phase takes ``traffic*s / (bw*s)`` -- unchanged -- while a
latency-bound phase takes ``accesses*s * latency``, so per-access latencies
are scaled *up* by ``1/s`` (and the machine model scales CPU frequency down
by ``s``).  With all three applied, every simulated time equals what the
unscaled system would produce, and the latency-vs-bandwidth balance of real
Optane (random access latency-bound at a few % of bandwidth, streams
bandwidth-bound) is preserved.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common import GIB, PAGE_SIZE

__all__ = [
    "TierSpec",
    "HMConfig",
    "TopologyError",
    "TopologySpec",
    "optane_hm_config",
    "cxl_hm_config",
    "dram_tier",
    "pm_tier",
    "cxl_tier",
    "hbm_tier",
    "topology_preset",
    "TOPOLOGY_PRESETS",
    "DEFAULT_SCALE",
]

#: Default footprint scale relative to the paper's platform (1/1024).
DEFAULT_SCALE: float = 1.0 / 1024.0


@dataclass(frozen=True)
class TierSpec:
    """One memory tier (DRAM or PM).

    Latencies are nanoseconds per cache-line access; bandwidths are bytes per
    (virtual) second.
    """

    name: str
    capacity_bytes: int
    seq_read_latency_ns: float
    rand_read_latency_ns: float
    read_bandwidth: float
    write_bandwidth: float

    def __post_init__(self) -> None:
        if self.capacity_bytes < PAGE_SIZE:
            raise ValueError(f"tier {self.name!r} smaller than one page")
        for attr in (
            "seq_read_latency_ns",
            "rand_read_latency_ns",
            "read_bandwidth",
            "write_bandwidth",
        ):
            if getattr(self, attr) <= 0:
                raise ValueError(f"tier {self.name!r}: {attr} must be positive")

    @property
    def n_pages(self) -> int:
        return self.capacity_bytes // PAGE_SIZE

    def latency_ns(self, random: bool) -> float:
        return self.rand_read_latency_ns if random else self.seq_read_latency_ns


# ----------------------------------------------------------------------
# Tier factories (shared by the 2-tier configs and the N-tier presets, so
# the same tier built either way has bit-identical floats)
# ----------------------------------------------------------------------

def dram_tier(scale: float = DEFAULT_SCALE) -> TierSpec:
    """DDR4 DRAM, the paper platform's fast tier."""
    if scale <= 0:
        raise ValueError("scale must be positive")
    lat = 1.0 / scale  # latency counter-scaling, see module docstring
    return TierSpec(
        name="dram",
        capacity_bytes=int(192 * GIB * scale),
        seq_read_latency_ns=81.0 * lat,
        rand_read_latency_ns=101.0 * lat,
        read_bandwidth=180.0 * GIB * scale,
        write_bandwidth=120.0 * GIB * scale,
    )


def pm_tier(scale: float = DEFAULT_SCALE, name: str = "pm") -> TierSpec:
    """Optane PM 100, the paper platform's slow tier (Section 2 ratios)."""
    if scale <= 0:
        raise ValueError("scale must be positive")
    lat = 1.0 / scale
    return TierSpec(
        name=name,
        capacity_bytes=int(1536 * GIB * scale),
        seq_read_latency_ns=81.0 * 2.08 * lat,
        rand_read_latency_ns=101.0 * 3.77 * lat,
        read_bandwidth=180.0 * GIB * scale / 3.87,
        write_bandwidth=120.0 * GIB * scale / 4.74,
    )


def cxl_tier(scale: float = DEFAULT_SCALE, name: str = "cxl") -> TierSpec:
    """A CXL.mem expander: ~one NUMA hop of latency (2.2x local DRAM,
    little sequential/random asymmetry) at about half the local bandwidth,
    symmetric reads/writes."""
    if scale <= 0:
        raise ValueError("scale must be positive")
    lat = 1.0 / scale
    return TierSpec(
        name=name,
        capacity_bytes=int(1024 * GIB * scale),
        seq_read_latency_ns=81.0 * 2.2 * lat,
        rand_read_latency_ns=101.0 * 2.2 * lat,
        read_bandwidth=180.0 * GIB * scale / 2.0,
        write_bandwidth=120.0 * GIB * scale / 2.0,
    )


def hbm_tier(scale: float = DEFAULT_SCALE) -> TierSpec:
    """On-package HBM: small, slightly faster per access than DRAM and far
    higher bandwidth (an idealised HBM2-class stack)."""
    if scale <= 0:
        raise ValueError("scale must be positive")
    lat = 1.0 / scale
    return TierSpec(
        name="hbm",
        capacity_bytes=int(16 * GIB * scale),
        seq_read_latency_ns=81.0 * 0.9 * lat,
        rand_read_latency_ns=101.0 * 0.95 * lat,
        read_bandwidth=180.0 * GIB * scale * 2.5,
        write_bandwidth=120.0 * GIB * scale * 2.5,
    )


def optane_hm_config(scale: float = DEFAULT_SCALE) -> HMConfig:
    """The paper's evaluation platform, scaled by ``scale``.

    With the default scale the system has 192 MiB DRAM and 1.5 GiB PM, and
    bandwidths of 180/52 MB-per-virtual-second -- the same capacity ratio and
    tier asymmetry as the real machine, so placement trade-offs (and the
    resulting execution-time *shapes*) are preserved.
    """
    return HMConfig(dram=dram_tier(scale), pm=pm_tier(scale))


def cxl_hm_config(scale: float = DEFAULT_SCALE) -> HMConfig:
    """A CXL-attached-memory heterogeneous system (Section 2 names CXL as
    the emerging HM trend; Section 5.3's extensibility workflow retargets
    Merchandiser to systems like this one).

    CXL.mem expanders are a very different trade-off surface from Optane,
    which is what makes retraining the correlation function necessary.
    The slow tier keeps the canonical name ``pm`` so 2-tier policies work
    unchanged.
    """
    return HMConfig(dram=dram_tier(scale), pm=cxl_tier(scale, name="pm"))


# ----------------------------------------------------------------------
# N-tier topologies
# ----------------------------------------------------------------------

class TopologyError(ValueError):
    """An invalid N-tier topology (ordering, duplicate names, bad counts)."""


@dataclass(frozen=True)
class TopologySpec:
    """An ordered N-tier memory system, fastest tier first.

    Tiers must be ordered by non-decreasing random-read latency and
    non-increasing read bandwidth -- the two asymmetries that drive
    placement.  (Sequential latency is deliberately *not* ordered: real
    CXL expanders have higher sequential latency than Optane PM while
    being faster on random access.)  :class:`HMConfig` is the n = 2
    front end.
    """

    tiers: tuple[TierSpec, ...]
    #: Fixed software cost of migrating one page, seconds (syscall + PTE
    #: update + TLB shootdown); the data copy itself is charged to bandwidth.
    page_migration_overhead_s: float = 2.0e-6

    def __post_init__(self) -> None:
        if not isinstance(self.tiers, tuple):
            object.__setattr__(self, "tiers", tuple(self.tiers))
        if len(self.tiers) < 2:
            raise TopologyError("a topology needs at least two tiers")
        names = [t.name for t in self.tiers]
        if len(set(names)) != len(names):
            raise TopologyError(f"duplicate tier names: {names}")
        for fast, slow in zip(self.tiers, self.tiers[1:]):
            if slow.rand_read_latency_ns < fast.rand_read_latency_ns:
                raise TopologyError(
                    f"tier {slow.name!r} has lower random latency than the "
                    f"faster-ordered tier {fast.name!r}"
                )
            if slow.read_bandwidth > fast.read_bandwidth:
                raise TopologyError(
                    f"tier {slow.name!r} has higher read bandwidth than the "
                    f"faster-ordered tier {fast.name!r}"
                )
        if self.page_migration_overhead_s < 0:
            raise TopologyError("migration overhead must be non-negative")

    @property
    def n_tiers(self) -> int:
        return len(self.tiers)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(t.name for t in self.tiers)

    @property
    def fastest(self) -> TierSpec:
        return self.tiers[0]

    @property
    def slowest(self) -> TierSpec:
        return self.tiers[-1]

    def tier(self, name: str) -> TierSpec:
        for t in self.tiers:
            if t.name == name:
                return t
        raise KeyError(name)

    def index(self, name: str) -> int:
        for i, t in enumerate(self.tiers):
            if t.name == name:
                return i
        raise KeyError(name)

    def capacity_vector(self) -> tuple[int, ...]:
        """Per-tier capacities in bytes, fastest first."""
        return tuple(t.capacity_bytes for t in self.tiers)

    def to_jsonable(self) -> dict:
        return {
            "page_migration_overhead_s": self.page_migration_overhead_s,
            "tiers": [
                {
                    "name": t.name,
                    "capacity_bytes": t.capacity_bytes,
                    "seq_read_latency_ns": t.seq_read_latency_ns,
                    "rand_read_latency_ns": t.rand_read_latency_ns,
                    "read_bandwidth": t.read_bandwidth,
                    "write_bandwidth": t.write_bandwidth,
                }
                for t in self.tiers
            ],
        }

    @classmethod
    def from_jsonable(cls, payload: dict) -> "TopologySpec":
        return cls(
            tiers=tuple(TierSpec(**t) for t in payload["tiers"]),
            page_migration_overhead_s=payload["page_migration_overhead_s"],
        )


class HMConfig(TopologySpec):
    """The n = 2 front end: a two-tier heterogeneous memory system (fast
    DRAM, tier 0, + slow PM, tier 1), checked by the topology's ordering
    rules."""

    def __init__(
        self, dram: TierSpec, pm: TierSpec, page_migration_overhead_s: float = 2.0e-6
    ) -> None:
        super().__init__((dram, pm), page_migration_overhead_s)

    @property
    def dram(self) -> TierSpec:
        return self.tiers[0]

    @property
    def pm(self) -> TierSpec:
        return self.tiers[1]


#: Named topology presets.  ``dram_pm`` is the paper's 2-tier platform; its
#: tiers equal ``optane_hm_config()``'s float for float because both build
#: them from the same factories.
TOPOLOGY_PRESETS: dict[str, tuple[str, ...]] = {
    "dram_pm": ("dram", "pm"),
    "hbm_dram_pm": ("hbm", "dram", "pm"),
    "hbm_dram_cxl_pm": ("hbm", "dram", "cxl", "pm"),
}

_TIER_FACTORIES = {
    "hbm": hbm_tier,
    "dram": dram_tier,
    "cxl": cxl_tier,
    "pm": pm_tier,
}


def topology_preset(name: str, scale: float = DEFAULT_SCALE) -> TopologySpec:
    """Build a named preset topology (see :data:`TOPOLOGY_PRESETS`)."""
    try:
        tier_names = TOPOLOGY_PRESETS[name]
    except KeyError:
        raise TopologyError(
            f"unknown topology preset {name!r}; "
            f"choices: {', '.join(sorted(TOPOLOGY_PRESETS))}"
        ) from None
    return TopologySpec(
        tiers=tuple(_TIER_FACTORIES[t](scale) for t in tier_names)
    )
