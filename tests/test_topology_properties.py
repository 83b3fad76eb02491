"""Property-based tests for N-tier topology validation and planning.

Three hard properties, each over >= 100 generated cases:

* **validate-or-raise** -- any randomly generated tier stack either
  constructs a valid :class:`TopologySpec` or raises the typed
  :class:`TopologyError`, exactly when an ordering/uniqueness rule is
  violated -- never a silent misconstruction, never another exception;
* **two-tier front end** -- every valid 2-tier stack built as an
  :class:`HMConfig` is that :class:`TopologySpec` float for float, with
  ``dram``/``pm`` reading tiers 0/1, and every invalid one raises the
  same :class:`TopologyError`;
* **no over-commit** -- :func:`tiered_greedy_plan` over random task
  sets and capacity vectors never grants more pages on any tier than
  the tier holds, and every task's fractions sum to 1.

Cases are generated from a seeded RNG; when ``hypothesis`` is installed
it drives (and shrinks) the seed space, otherwise a plain 100-seed
parametrization keeps the properties exercised with no extra dependency.
"""

import numpy as np
import pytest

from repro.common import PAGE_SIZE, make_rng
from repro.core.model import PerformanceModel, TieredTaskInputs
from repro.core.planner import tiered_greedy_plan
from repro.sim.memspec import HMConfig, TierSpec, TopologyError, TopologySpec
from tests.oracles.correlation import UnitCorrelation

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    def each_seed(test):
        """>= 100 hypothesis-driven seeds (shrinkable on failure)."""
        return settings(max_examples=100, deadline=None)(
            given(seed=st.integers(min_value=0, max_value=2**32 - 1))(test)
        )

except ImportError:  # pragma: no cover - exercised only without hypothesis

    def each_seed(test):
        """Fallback: a fixed 100-seed sweep, no dependency needed."""
        return pytest.mark.parametrize("seed", range(100))(test)


MB = 1 << 20


# ----------------------------------------------------------------------
# seeded generators (shared by both drivers)
# ----------------------------------------------------------------------
def gen_tiers(rng):
    """A random tier stack: sometimes ordered, sometimes deliberately not."""
    n = int(rng.integers(2, 6))
    shuffle_latency = rng.random() < 0.4
    shuffle_bandwidth = rng.random() < 0.4
    duplicate_name = rng.random() < 0.15
    rand_lat = np.sort(rng.uniform(20.0, 400.0, n))
    if shuffle_latency:
        rng.shuffle(rand_lat)
    bw = np.sort(rng.uniform(1e9, 1e11, n))[::-1]
    if shuffle_bandwidth:
        rng.shuffle(bw)
    tiers = []
    for k in range(n):
        name = "t0" if duplicate_name and k == n - 1 else f"t{k}"
        tiers.append(
            TierSpec(
                name=name,
                capacity_bytes=int(rng.integers(1, 1 << 12)) * PAGE_SIZE,
                seq_read_latency_ns=float(rng.uniform(5.0, 500.0)),
                rand_read_latency_ns=float(rand_lat[k]),
                read_bandwidth=float(bw[k]),
                write_bandwidth=float(rng.uniform(1e8, 1e11)),
            )
        )
    return tuple(tiers)


def orderings_hold(tiers) -> bool:
    names = [t.name for t in tiers]
    if len(set(names)) != len(names):
        return False
    for fast, slow in zip(tiers, tiers[1:]):
        if slow.rand_read_latency_ns < fast.rand_read_latency_ns:
            return False
        if slow.read_bandwidth > fast.read_bandwidth:
            return False
    return True


MODEL = PerformanceModel(UnitCorrelation())


def gen_plan_case(rng):
    """Random (tasks, capacities, task_bytes) for the tiered planner."""
    n_tiers = int(rng.integers(2, 5))
    n_tasks = int(rng.integers(1, 6))
    tasks, task_bytes = [], {}
    for i in range(n_tasks):
        t_fast = float(rng.uniform(0.5, 2.0))
        # slower tiers are strictly slower: cumulative positive increments
        times = t_fast + np.cumsum(
            np.concatenate([[0.0], rng.uniform(0.1, 2.0, n_tiers - 1)])
        )
        tasks.append(
            TieredTaskInputs(
                task_id=f"task{i}",
                tier_times=tuple(float(t) for t in times),
                total_accesses=float(rng.uniform(1e5, 1e7)),
                pmcs={"E": 0.0},
            )
        )
        task_bytes[f"task{i}"] = int(rng.integers(1, 64)) * MB
    total = sum(task_bytes.values())
    caps = [int(rng.integers(1, 33)) * MB for _ in range(n_tiers - 1)]
    caps.append(2 * total)  # the slowest tier always fits everything
    return tasks, tuple(caps), task_bytes


# ----------------------------------------------------------------------
# property 1: construct or raise the typed error, nothing else
# ----------------------------------------------------------------------
class TestValidateOrRaise:
    @each_seed
    def test_construction_matches_the_ordering_rules(self, seed):
        tiers = gen_tiers(make_rng(seed))
        if orderings_hold(tiers):
            topo = TopologySpec(tiers=tiers)
            assert topo.n_tiers == len(tiers)
            assert topo.fastest is tiers[0]
            assert topo.slowest is tiers[-1]
            assert topo.capacity_vector() == tuple(
                t.capacity_bytes for t in tiers
            )
        else:
            with pytest.raises(TopologyError):
                TopologySpec(tiers=tiers)

    @each_seed
    def test_negative_migration_overhead_rejected(self, seed):
        rng = make_rng(seed)
        tiers = gen_tiers(rng)
        if not orderings_hold(tiers):
            return
        with pytest.raises(TopologyError):
            TopologySpec(
                tiers=tiers,
                page_migration_overhead_s=-float(rng.uniform(1e-9, 1e-3)),
            )


# ----------------------------------------------------------------------
# property 2: HMConfig is the 2-tier topology
# ----------------------------------------------------------------------
class TestTwoTierFrontEnd:
    @each_seed
    def test_hm_config_is_the_two_tier_topology(self, seed):
        rng = make_rng(seed)
        tiers = gen_tiers(rng)[:2]
        overhead = float(rng.uniform(1e-7, 1e-5))
        if not orderings_hold(tiers):
            with pytest.raises(TopologyError):
                HMConfig(*tiers, page_migration_overhead_s=overhead)
            return
        hm = HMConfig(*tiers, page_migration_overhead_s=overhead)
        topo = TopologySpec(tiers=tiers, page_migration_overhead_s=overhead)
        assert isinstance(hm, TopologySpec)
        assert (hm.dram, hm.pm) == hm.tiers == topo.tiers
        assert hm.page_migration_overhead_s == topo.page_migration_overhead_s
        assert hm.to_jsonable() == topo.to_jsonable()


# ----------------------------------------------------------------------
# property 3: plans never exceed any tier
# ----------------------------------------------------------------------
class TestPlanNeverOvercommits:
    @each_seed
    def test_per_tier_grants_within_capacity(self, seed):
        tasks, caps, task_bytes = gen_plan_case(make_rng(seed))
        plan = tiered_greedy_plan(tasks, MODEL, caps, task_bytes, step=0.1)
        for k, cap in enumerate(caps):
            granted = sum(q.pages[k] for q in plan.quotas)
            assert granted <= cap // PAGE_SIZE
            assert plan.pages_used[k] <= cap // PAGE_SIZE

    @each_seed
    def test_fractions_are_a_distribution(self, seed):
        tasks, caps, task_bytes = gen_plan_case(make_rng(seed))
        plan = tiered_greedy_plan(tasks, MODEL, caps, task_bytes, step=0.1)
        assert len(plan.quotas) == len(tasks)
        for q in plan.quotas:
            assert len(q.fractions) == len(caps)
            assert all(-1e-9 <= f <= 1.0 + 1e-9 for f in q.fractions)
            assert sum(q.fractions) == pytest.approx(1.0, abs=1e-6)
