"""Microbenchmarks for the placement-service hot paths.

Quantifies the speedups the ``service_load`` experiment's acceptance
rests on, against the real trained model:

* **batched vs singleton planning** -- one stacked model call pricing a
  whole batch of tasks (`PerformanceModel.ratio_grids`) vs one model
  call per task;
* **planned vs cached batch** -- the server end to end, with and without
  a decision-cache hit.
"""

import numpy as np
import pytest

from repro.apps.codesamples import generate_corpus
from repro.common import make_rng, spawn_rng
from repro.core.model import TaskModelInputs
from repro.service import (
    PlacementRequest,
    PlacementServer,
    PredictionCache,
    TaskSpec,
)
from repro.sim import MachineModel, optane_hm_config
from repro.sim.counters import collect_pmcs

N_TASKS = 24


@pytest.fixture(scope="module")
def levels():
    return np.round(np.arange(0.0, 1.025, 0.05), 10)


@pytest.fixture(scope="module")
def tasks(ctx):
    machine, hm = MachineModel(), optane_hm_config()
    samples = generate_corpus(N_TASKS, seed=7)
    rng = make_rng(11)
    out = []
    for j, sample in enumerate(samples):
        fp = sample.footprint(1.0)
        t_dram, t_pm = machine.endpoint_times(fp, hm)
        out.append(
            TaskModelInputs(
                task_id=f"t{j}",
                t_pm_only=t_pm,
                t_dram_only=t_dram,
                total_accesses=fp.total_accesses,
                pmcs=collect_pmcs(fp, machine, hm, rng=spawn_rng(rng)),
            )
        )
    return out


# ----------------------------------------------------------------------
# planning: batched (stacked) vs singleton model evaluation
# ----------------------------------------------------------------------
def test_bench_grids_singleton(benchmark, ctx, tasks, levels):
    """One model call per task (what per-request planning pays)."""
    model = ctx.system.performance_model

    def per_task():
        return {t.task_id: model.ratio_grids([t], levels)[t.task_id] for t in tasks}

    benchmark(per_task)


def test_bench_grids_batched(benchmark, ctx, tasks, levels):
    """One stacked call for the whole batch (what the scheduler pays)."""
    model = ctx.system.performance_model
    grids = benchmark(model.ratio_grids, tasks, levels)
    reference = {t.task_id: model.ratio_grids([t], levels)[t.task_id] for t in tasks}
    assert all(np.array_equal(grids[k], reference[k]) for k in reference)


# ----------------------------------------------------------------------
# server end to end: planned batch vs cached batch
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def request_shape(tasks):
    machine, hm = MachineModel(), optane_hm_config()
    samples = generate_corpus(4, seed=13)
    specs = []
    for j, sample in enumerate(samples):
        fp = sample.footprint(1.0)
        t_dram, t_pm = machine.endpoint_times(fp, hm)
        specs.append(
            TaskSpec(
                task_id=f"task{j}",
                t_pm_only=t_pm,
                t_dram_only=t_dram,
                total_accesses=fp.total_accesses,
                pmcs=collect_pmcs(fp, machine, hm, rng=make_rng(17)),
                size_bytes=fp.total_bytes,
            )
        )
    return tuple(specs)


def test_bench_server_planned(benchmark, ctx, request_shape):
    hm = optane_hm_config()
    server = PlacementServer(
        ctx.system.performance_model, hm.dram.capacity_bytes, window_s=0.0
    )
    counter = iter(range(10**9))

    def fresh():
        return server.request(
            PlacementRequest(
                request_id=f"r{next(counter)}", tenant="bench", tasks=request_shape
            )
        )

    assert benchmark(fresh).status == "planned"


def test_bench_server_cached(benchmark, ctx, request_shape):
    hm = optane_hm_config()
    server = PlacementServer(
        ctx.system.performance_model,
        hm.dram.capacity_bytes,
        window_s=0.0,
        cache=PredictionCache(64),
    )
    counter = iter(range(10**9))

    def ask():
        return server.request(
            PlacementRequest(
                request_id=f"r{next(counter)}", tenant="bench", tasks=request_shape
            )
        )

    ask()  # warm the decision cache
    assert benchmark(ask).status == "cached"
