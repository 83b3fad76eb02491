"""Section 5.3, "Extensibility": retargeting Merchandiser to another HM.

The paper claims three steps move Merchandiser to a new heterogeneous
memory system: (1) re-collect training data against the new memories,
(2) re-construct the scaling function (13 minutes in their setup), and
(3) re-measure basic blocks.  This experiment executes the full recipe for
a CXL-attached-memory system and verifies two things:

* the retrained system still beats the task-agnostic baseline on the new
  memory (the workflow generalises);
* the Optane-trained f(.) mispredicts on CXL noticeably more than the
  retrained one (retraining is *necessary*, not ceremony).
"""

from __future__ import annotations

import time

import numpy as np

from repro.apps import SpGEMMApp
from repro.apps.codesamples import generate_corpus
from repro.baselines import MemoryOptimizerPolicy, PMOnlyPolicy
from repro.common import make_rng
from repro.core import Merchandiser
from repro.core.model import TaskModelInputs
from repro.ml import prediction_accuracy
from repro.sim import Engine, MachineModel
from repro.sim.counters import collect_pmcs
from repro.sim.memspec import cxl_hm_config, optane_hm_config
from repro.experiments.common import ExperimentContext, format_table


def model_accuracy_on(system: Merchandiser, hm, machine, seed=0) -> float:
    """Equation-2 accuracy of a trained system against one HM's ground truth."""
    rng = make_rng(seed)
    truths, preds = [], []
    model = system.performance_model
    for sample in generate_corpus(20, seed=seed + 40):
        fp = sample.footprint()
        t_dram, t_pm = machine.endpoint_times(fp, hm)
        inputs = TaskModelInputs(
            task_id="t",
            t_pm_only=t_pm,
            t_dram_only=t_dram,
            total_accesses=fp.total_accesses,
            pmcs=collect_pmcs(fp, machine, hm, rng=rng, t_pm_only=t_pm),
        )
        ratios = (0.2, 0.5, 0.8)
        truths.extend(bd.total_s for (bd,) in machine.breakdowns([fp], hm, ratios))
        preds.extend(model.ratio_grids([inputs], ratios)["t"].tolist())
    return prediction_accuracy(truths, preds)


def run(ctx: ExperimentContext) -> dict[str, object]:
    machine = MachineModel()
    optane = optane_hm_config()
    cxl = cxl_hm_config()

    # steps 1+2 of the recipe: re-collect and re-train against CXL
    t0 = time.perf_counter()
    cxl_system = Merchandiser.offline_setup(
        machine=machine,
        hm=cxl,
        n_samples=80 if ctx.fast else 281,
        placements_per_sample=8 if ctx.fast else 10,
        select_events=not ctx.fast,
        seed=ctx.seed,
    )
    retrain_s = time.perf_counter() - t0

    optane_system = ctx.system
    acc_matrix = {
        ("optane-trained", "optane"): model_accuracy_on(optane_system, optane, machine, ctx.seed),
        ("optane-trained", "cxl"): model_accuracy_on(optane_system, cxl, machine, ctx.seed),
        ("cxl-trained", "cxl"): model_accuracy_on(cxl_system, cxl, machine, ctx.seed),
    }

    # step 3 happens inside the policy (basic blocks re-measured against
    # the CXL machine); run the end-to-end comparison on the new memory
    app = SpGEMMApp.paper_scale(seed=ctx.seed)
    wl = app.build_workload(seed=ctx.seed)
    engine = Engine(machine, cxl)
    runs = {}
    for name, policy in {
        "pm-only": PMOnlyPolicy(),
        "memory-optimizer": MemoryOptimizerPolicy(seed=ctx.seed + 7),
        "merchandiser": cxl_system.policy(app.binding(wl), seed=ctx.seed + 5),
    }.items():
        runs[name] = engine.run(wl, policy, seed=ctx.seed + 1).total_time_s

    rows = [
        ["f(.) trained on Optane, asked about Optane", acc_matrix[("optane-trained", "optane")]],
        ["f(.) trained on Optane, asked about CXL", acc_matrix[("optane-trained", "cxl")]],
        ["f(.) retrained on CXL, asked about CXL", acc_matrix[("cxl-trained", "cxl")]],
    ]
    print("Section 5.3 extensibility: retargeting to a CXL-attached system")
    print(format_table(["configuration", "accuracy"], rows))
    print(f"  retraining time: {retrain_s:.1f}s (paper: ~13 minutes on their setup)")
    speedup = runs["pm-only"] / runs["merchandiser"]
    print(
        f"  on CXL: Merchandiser {speedup:.3f}x over slow-tier-only, "
        f"{runs['memory-optimizer'] / runs['merchandiser']:.3f}x over MemoryOptimizer"
    )
    return {
        "accuracy": {f"{k[0]}->{k[1]}": v for k, v in acc_matrix.items()},
        "retrain_seconds": retrain_s,
        "cxl_runs": runs,
    }
