#!/usr/bin/env python
"""A tour of Merchandiser's performance-modeling pipeline (Sections 4-6).

Shows each modeling stage in isolation, with ground truth alongside:

1. Equation 1 -- input-aware access estimation with pattern-specific alpha;
2. Section 5.2 -- homogeneous-endpoint prediction from basic blocks;
3. Equation 2 -- hybrid-placement time via the learned f(.);
4. Algorithm 1 -- greedy DRAM quotas, compared against the makespan optimum.

Run:  python examples/performance_model_tour.py
"""

import numpy as np

from repro.common import AccessPattern, make_rng
from repro.apps.codesamples import generate_corpus
from repro.core import Merchandiser
from repro.core.alpha import alpha_stream_strided
from repro.core.estimator import AccessEstimator, ObjectDescriptor
from repro.core.homogeneous import BasicBlock, HomogeneousPredictor
from repro.core.model import TaskModelInputs
from repro.core.planner import greedy_plan, optimal_quotas
from repro.sim import MachineModel, optane_hm_config
from repro.sim.counters import collect_pmcs

MIB = 1 << 20


def stage1_access_estimation() -> None:
    print("=" * 68)
    print("Stage 1: Equation 1 -- estimating accesses for a new input")
    print("=" * 68)
    # the paper's own worked example: ints, S_base=128 B, S_new=192 B
    a = alpha_stream_strided(128, 192, element_size=4, stride=1)
    print(f"paper's stream example: alpha = {a:.3f}  (paper: 1.0)")

    est = AccessEstimator(
        {
            "H": ObjectDescriptor("H", AccessPattern.STREAM),
            "PSI": ObjectDescriptor("PSI", AccessPattern.RANDOM),
        }
    )
    est.record_base_profile(
        sizes={"H": 64 * MIB, "PSI": 96 * MIB},
        counts={"H": 1_000_000, "PSI": 700_000},
    )
    grown = est.estimate({"H": 64 * MIB, "PSI": 144 * MIB})
    print(f"PSI grown 1.5x -> estimated accesses {grown['PSI']:,.0f} "
          "(alpha=1 until refined)")
    # online refinement: PEBS says random accesses did NOT grow linearly
    for _ in range(8):
        est.refine({"PSI": 144 * MIB}, {"PSI": 840_000})
    refined = est.estimate({"H": 64 * MIB, "PSI": 144 * MIB})
    print(f"after alpha refinement -> {refined['PSI']:,.0f} "
          f"(measured truth: 840,000)\n")


def stage2_homogeneous(machine, hm) -> None:
    print("=" * 68)
    print("Stage 2: Section 5.2 -- homogeneous endpoints from basic blocks")
    print("=" * 68)
    sample = generate_corpus(5, seed=11)[0]
    pred = HomogeneousPredictor(machine, hm)
    pred.measure_blocks([BasicBlock("body", sample.footprint())])
    pred.record_base("task", {"body": 1.0}, (1.0,))
    for scale in (1.0, 1.4):
        t_dram, t_pm = pred.predict("task", (scale,))
        truth_d, truth_p = machine.endpoint_times(sample.footprint(scale), hm)
        print(
            f"input x{scale}: predicted PM {t_pm:7.2f}s (truth {truth_p:7.2f}s), "
            f"DRAM {t_dram:6.2f}s (truth {truth_d:6.2f}s)"
        )
    print()


def stage3_equation2(system, machine, hm) -> TaskModelInputs:
    print("=" * 68)
    print("Stage 3: Equation 2 -- hybrid-placement prediction via f(.)")
    print("=" * 68)
    sample = generate_corpus(8, seed=21)[5]
    fp = sample.footprint()
    t_dram, t_pm = machine.endpoint_times(fp, hm)
    inputs = TaskModelInputs(
        task_id="demo",
        t_pm_only=t_pm,
        t_dram_only=t_dram,
        total_accesses=fp.total_accesses,
        pmcs=collect_pmcs(fp, machine, hm, rng=make_rng(2)),
    )
    model = system.performance_model
    print(f"{'r_dram':>7s} {'predicted':>10s} {'ground truth':>13s} {'error':>7s}")
    ratios = (0.0, 0.25, 0.5, 0.75, 1.0)
    grid = model.ratio_grids([inputs], ratios)["demo"]
    for r, pred in zip(ratios, grid.tolist()):
        truth = machine.uniform_ratio_time(fp, hm, r)
        print(f"{r:7.2f} {pred:9.2f}s {truth:12.2f}s {abs(pred-truth)/truth:7.1%}")
    print()
    return inputs


def stage4_planner(system, machine, hm) -> None:
    print("=" * 68)
    print("Stage 4: Algorithm 1 -- load-balance-aware DRAM quotas")
    print("=" * 68)
    rng = make_rng(5)
    tasks, task_bytes = [], {}
    for i, sample in enumerate(generate_corpus(8, seed=33)):
        fp = sample.footprint(float(rng.uniform(0.5, 2.0)))
        t_dram, t_pm = machine.endpoint_times(fp, hm)
        tasks.append(
            TaskModelInputs(
                task_id=f"task{i}",
                t_pm_only=t_pm,
                t_dram_only=t_dram,
                total_accesses=fp.total_accesses,
                pmcs=collect_pmcs(fp, machine, hm, rng=rng),
            )
        )
        task_bytes[f"task{i}"] = 48 * MIB
    model = system.performance_model
    capacity = hm.dram.capacity_bytes
    greedy = greedy_plan(tasks, model, capacity, task_bytes)
    optimal = optimal_quotas(tasks, model, capacity, task_bytes)
    pm_makespan = max(t.t_pm_only for t in tasks)
    print(f"PM-only makespan:  {pm_makespan:8.2f}s")
    print(f"greedy (Alg. 1):   {greedy.predicted_makespan_s:8.2f}s "
          f"using {greedy.dram_pages_used} pages in {greedy.rounds} rounds")
    print(f"makespan optimum:  {optimal.predicted_makespan_s:8.2f}s "
          f"(greedy within {greedy.predicted_makespan_s / optimal.predicted_makespan_s:.1%})")
    print("per-task quotas (greedy):",
          {q.task_id: round(q.r_dram, 2) for q in greedy.quotas})


def main() -> None:
    machine, hm = MachineModel(), optane_hm_config()
    print("training the correlation function once (offline)...\n")
    system = Merchandiser.offline_setup(
        n_samples=80, placements_per_sample=8, select_events=False, seed=0
    )
    stage1_access_estimation()
    stage2_homogeneous(machine, hm)
    stage3_equation2(system, machine, hm)
    stage4_planner(system, machine, hm)


if __name__ == "__main__":
    main()
