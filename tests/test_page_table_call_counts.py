"""Page-table aggregates are computed once per hook, not once per query.

``PageTable.access_fractions`` and ``PageTable.dram_used_bytes`` walk every
object.  The quota gate used to recompute the fractions for every hot
object x accessing task, and ``apply_batch`` re-summed residency before
every promotion; this guard bounds both by the number of hooks instead.
"""

import pytest

from repro.apps import SpGEMMApp
from repro.core import default_system
from repro.sim import Engine, MachineModel, optane_hm_config
from repro.sim.pages import PageTable


def _counting(monkeypatch, cls, name: str) -> dict:
    counter = {"calls": 0}
    original = getattr(cls, name)

    def wrapped(self, *args, **kwargs):
        counter["calls"] += 1
        return original(self, *args, **kwargs)

    monkeypatch.setattr(cls, name, wrapped)
    return counter


@pytest.fixture(scope="module")
def system():
    return default_system(seed=0, fast=True)


def test_aggregates_bounded_by_hooks(monkeypatch, system):
    app = SpGEMMApp.small(seed=0)
    wl = app.build_workload(seed=0)
    policy = system.policy(app.binding(wl), seed=3)
    fractions = _counting(monkeypatch, PageTable, "access_fractions")
    used = _counting(monkeypatch, PageTable, "dram_used_bytes")
    batches = _counting(monkeypatch, PageTable, "apply_batch")
    on_tick = _counting(monkeypatch, type(policy), "on_tick")

    res = Engine(MachineModel(), optane_hm_config()).run(wl, policy, seed=1)

    ticks = len(res.trace_time)
    assert res.pages_migrated > 0 and policy.plans
    assert on_tick["calls"] > 0 and batches["calls"] > 0
    assert fractions["calls"] <= ticks + on_tick["calls"]
    assert used["calls"] <= batches["calls"] + on_tick["calls"]
