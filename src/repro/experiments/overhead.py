"""Section 7.2: runtime overhead and alpha values.

Three overhead sources are quantified in the paper:

1. online alpha refinement and base-input profiling use performance
   counters only (<0.1% slowdown);
2. one online performance prediction (Equations 1-2) takes 0.031 ms;
3. the per-app average refined alpha values are 1.9 (SpGEMM), 4.3 (WarpX),
   2.4 (BFS), 5.7 (DMRG) and 2.6 (NWChem-TC).
"""

from __future__ import annotations

import time

import numpy as np

from repro.apps import ALL_APPS
from repro.core.model import PerformanceModel, TaskModelInputs
from repro.profiling.pebs import PEBSProfiler
from repro.sim.counters import collect_pmcs
from repro.common import make_rng
from repro.experiments.common import ExperimentContext, format_table

PAPER_ALPHA = {"SpGEMM": 1.9, "WarpX": 4.3, "BFS": 2.4, "DMRG": 5.7, "NWChem-TC": 2.6}


def prediction_latency_ms(ctx: ExperimentContext, n: int = 2000) -> float:
    """Wall-clock cost of one Equation-2 prediction (paper: 0.031 ms):
    a single-ratio ``ratio_grids`` call, the model's only entry point."""
    machine, hm = ctx.engine.machine, ctx.engine.topology
    rng = make_rng(ctx.seed)
    from repro.apps.codesamples import generate_corpus

    fp = generate_corpus(3, seed=ctx.seed)[0].footprint()
    t_dram, t_pm = machine.endpoint_times(fp, hm)
    inputs = TaskModelInputs(
        task_id="t",
        t_pm_only=t_pm,
        t_dram_only=t_dram,
        total_accesses=fp.total_accesses,
        pmcs=collect_pmcs(fp, machine, hm, rng=rng, t_pm_only=t_pm),
    )
    model = PerformanceModel(ctx.system.correlation)
    ratios = rng.random(n) * 0.99
    start = time.perf_counter()
    for r in ratios:
        model.ratio_grids([inputs], [float(r)])
    return (time.perf_counter() - start) / n * 1e3


def run(ctx: ExperimentContext) -> dict[str, object]:
    latency = prediction_latency_ms(ctx)
    pebs = PEBSProfiler(period=512)
    profiling_overhead = pebs.overhead_fraction()

    rows = []
    alphas: dict[str, float] = {}
    planning: dict[str, float] = {}
    migration_spread: dict[str, float] = {}
    for app_cls in ALL_APPS:
        app = ctx.app(app_cls)
        res = ctx.run(app_cls, "merchandiser")
        policy = ctx.policy_used(app_cls, "merchandiser")
        mean_alpha = float(
            np.mean([est.alphas.mean_alpha() for est in policy._estimators.values()])
        ) if policy._estimators else 1.0
        alphas[app.name] = mean_alpha
        planning[app.name] = policy.planning_overhead_s
        per_task = [
            v for k, v in policy.pages_promoted_by_task.items() if k != "<shared>"
        ]
        spread = max(per_task) / max(min(per_task), 1) if per_task else 1.0
        migration_spread[app.name] = spread
        rows.append(
            [
                app.name,
                mean_alpha,
                PAPER_ALPHA[app.name],
                f"{policy.planning_overhead_s * 1e3:.1f} ms",
                f"{spread:.1f}x",
                f"{res.total_time_s:.0f} s",
            ]
        )
    print("Section 7.2: runtime overhead and alpha values")
    print(
        format_table(
            [
                "application",
                "mean alpha",
                "paper alpha",
                "planning (wall)",
                "mig. spread",
                "virtual run",
            ],
            rows,
        )
    )
    print(
        "  mig. spread = max/min pages migrated across tasks "
        "(paper observes up to 21.4x for the imbalanced apps)"
    )
    print(f"  one performance prediction: {latency:.4f} ms (paper 0.031 ms)")
    print(
        f"  PEBS profiling slowdown: {profiling_overhead:.2%} (paper <0.1%)"
    )
    return {
        "prediction_latency_ms": latency,
        "profiling_overhead": profiling_overhead,
        "alphas": alphas,
        "planning_overhead_s": planning,
        "migration_spread": migration_spread,
    }
