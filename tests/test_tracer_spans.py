"""Every span of the benchmark's tracer resolves against the program.

``perfbench/tracer.py`` patches a traced method through its class's own
``__dict__`` and a traced function through every module that binds it, so
a renamed target, or a traced method hoisted into a base class, would only
fail when the benchmark runs.  These tests read the tracer's span table
(without changing it) and check every target here.  A front end such as
``PageTable`` re-declares its traced methods over a body it shares with
its base class; the last test checks that no traced call then runs inside
another traced span.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.common import PAGE_SIZE
from repro.sim.pages import MigrationBatch, PageTable
from repro.tasks import DataObject

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer_module():
    name = "perfbench_tracer"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, TRACER)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return sys.modules[name]


TARGETS = [
    (span.name, target)
    for span in _tracer_module().SPANS
    for target in span.targets
]


@pytest.mark.parametrize("span,target", TARGETS, ids=[t for _, t in TARGETS])
def test_span_target_resolves(span, target):
    module_name, _, qualname = target.partition(":")
    module = importlib.import_module(module_name)
    owner_name, _, attr = qualname.rpartition(".")
    if owner_name:
        owner = getattr(module, owner_name)
        assert attr in vars(owner), (
            f"{span}: {attr} is not defined on {owner_name} itself"
        )
        assert callable(getattr(owner, attr))
    else:
        assert callable(getattr(module, attr)), span


def test_front_end_spans_do_not_nest():
    """The 2-tier table's traced calls each record one top-level span."""
    table = PageTable(
        [DataObject("a", 8 * PAGE_SIZE), DataObject("b", 8 * PAGE_SIZE)],
        4 * PAGE_SIZE,
        rng=0,
    )
    batch = MigrationBatch(moves=(("a", np.arange(8), 0),))
    with _tracer_module().Tracer() as tracer:
        moved = table.apply_batch(batch)
        table.sample_pages(16, rng=0)
        table.access_fractions()
        table.dram_used_bytes()
        table.apply_batch_under_pressure(batch, PAGE_SIZE)
    spans = [(name, parent) for _, parent, name, _, _ in tracer.records]
    assert spans == [
        ("sim.pages.apply_batch", -1),
        ("sim.pages.sample_pages", -1),
        ("sim.pages.access_fractions", -1),
        ("sim.pages.dram_used_bytes", -1),
        ("sim.pages.apply_batch", -1),
    ]
    assert tracer.counts["sim.pages.pages_moved"] == moved == 4
