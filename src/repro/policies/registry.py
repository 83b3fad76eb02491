"""The placement-policy registry.

One place that knows every competing backend: the Merchandiser incumbent,
the static and hardware baselines, and the learned-ranking /
interval-reconfiguration alternatives.  The multitier experiment iterates
it to race policies, and the conformance harness iterates it to hold every
backend to the same invariants (no tier over-commit, determinism per seed,
plan serialisation round-trips).

Backends differ in which topologies they support: the registry records a
tier limit per spec, and :func:`registered_policies` can filter by the
topology under test instead of every caller re-encoding that knowledge.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.core.model import PerformanceModel
from repro.sim.engine import PlacementPolicy
from repro.sim.machine import MachineModel
from repro.sim.memspec import TopologySpec

__all__ = [
    "PolicyBuildContext",
    "PolicySpec",
    "register_policy",
    "registered_policies",
    "build_policy",
]


@dataclass(frozen=True)
class PolicyBuildContext:
    """Everything a backend factory may need to construct a policy."""

    machine: MachineModel
    topology: TopologySpec
    model: PerformanceModel
    seed: int = 0


@dataclass(frozen=True)
class PolicySpec:
    """A registered placement backend."""

    name: str
    description: str
    build: Callable[[PolicyBuildContext], PlacementPolicy]
    #: most tiers the backend supports (None = unbounded); every backend
    #: needs at least two
    max_tiers: int | None = None

    def supports(self, n_tiers: int) -> bool:
        return n_tiers >= 2 and (self.max_tiers is None or n_tiers <= self.max_tiers)


_REGISTRY: dict[str, PolicySpec] = {}


def register_policy(spec: PolicySpec) -> PolicySpec:
    if spec.name in _REGISTRY:
        raise ValueError(f"policy {spec.name!r} already registered")
    _REGISTRY[spec.name] = spec
    return spec


def registered_policies(n_tiers: int | None = None) -> tuple[PolicySpec, ...]:
    """All registered backends, optionally only those supporting a tier
    count, in registration order."""
    specs = tuple(_REGISTRY.values())
    if n_tiers is None:
        return specs
    return tuple(s for s in specs if s.supports(n_tiers))


def build_policy(name: str, ctx: PolicyBuildContext) -> PlacementPolicy:
    spec = _REGISTRY.get(name)
    if spec is None:
        raise KeyError(
            f"unknown policy {name!r}; registered: {sorted(_REGISTRY)}"
        )
    if not spec.supports(ctx.topology.n_tiers):
        raise ValueError(
            f"policy {name!r} does not support {ctx.topology.n_tiers}-tier "
            "topologies"
        )
    return spec.build(ctx)


# ----------------------------------------------------------------------
# built-in backends
# ----------------------------------------------------------------------
def _build_merchandiser(ctx: PolicyBuildContext) -> PlacementPolicy:
    from repro.policies.merchandiser import TieredMerchandiserPolicy

    return TieredMerchandiserPolicy(model=ctx.model, seed=ctx.seed)


def _build_ltr(ctx: PolicyBuildContext) -> PlacementPolicy:
    from repro.policies.ltr import LearnedRankingPolicy

    return LearnedRankingPolicy(seed=ctx.seed)


def _build_interval(ctx: PolicyBuildContext) -> PlacementPolicy:
    from repro.policies.interval import IntervalReconfigPolicy

    return IntervalReconfigPolicy(seed=ctx.seed)


def _build_static(ctx: PolicyBuildContext) -> PlacementPolicy:
    from repro.baselines.static import PMOnlyPolicy

    return PMOnlyPolicy()


def _build_memory_mode(ctx: PolicyBuildContext) -> PlacementPolicy:
    from repro.baselines.memorymode import MemoryModePolicy

    return MemoryModePolicy(seed=ctx.seed or 0x5EED)


def _build_memoptimizer(ctx: PolicyBuildContext) -> PlacementPolicy:
    from repro.baselines.memoptimizer import MemoryOptimizerPolicy

    return MemoryOptimizerPolicy(seed=ctx.seed)


register_policy(
    PolicySpec(
        name="merchandiser",
        description="Algorithm 1 generalised: per-task quotas over the "
        "capacity vector, bit-exact greedy_plan at 2 tiers",
        build=_build_merchandiser,
    )
)
register_policy(
    PolicySpec(
        name="static",
        description="everything stays in the slowest tier (normalisation "
        "baseline)",
        build=_build_static,
    )
)
register_policy(
    PolicySpec(
        name="memory-mode",
        description="hardware direct-mapped DRAM cache (Optane Memory Mode)",
        build=_build_memory_mode,
        max_tiers=2,
    )
)
register_policy(
    PolicySpec(
        name="memory-optimizer",
        description="sampling-based hot-page daemon (task-agnostic software "
        "baseline)",
        build=_build_memoptimizer,
        max_tiers=2,
    )
)
register_policy(
    PolicySpec(
        name="ltr",
        description="pairwise learned ranking of objects, tiers filled "
        "best-first (Moura et al.)",
        build=_build_ltr,
    )
)
register_policy(
    PolicySpec(
        name="interval",
        description="periodic hotness-ranked re-placement from sampled "
        "telemetry (Olson et al.)",
        build=_build_interval,
    )
)
