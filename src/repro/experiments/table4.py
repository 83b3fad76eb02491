"""Table 4: accuracy of the whole performance-modeling pipeline.

For every application, the base input of each (task, phase) is profiled
(PEBS-sampled access counts, PMCs, basic-block timing), then the pipeline
predicts the execution time of *later* instances (new inputs) under several
data placements; accuracy is ``1 - MAPE`` against the ground-truth machine
model.  The comparison baseline is the profiling-based regression of
Barnes et al. [8], which simply scales the base input's measured time by
the data-size ratio.

Paper values (ours / profiling-based regression): SpGEMM 74.2/37.4, WarpX
87.4/75.1, BFS 71.3/38.6, DMRG 89.2/83.9, NWChem-TC 83.0/62.5 (%).
"""

from __future__ import annotations

from repro.apps import ALL_APPS
from repro.core.estimator import AccessEstimator
from repro.core.homogeneous import HomogeneousPredictor, input_similarity_scale
from repro.core.model import PerformanceModel, TaskModelInputs
from repro.ml import prediction_accuracy
from repro.profiling.pebs import PEBSProfiler
from repro.sim.counters import collect_pmcs
from repro.common import make_rng
from repro.experiments.common import ExperimentContext, format_table

PAPER = {
    "SpGEMM": (0.742, 0.374),
    "WarpX": (0.874, 0.751),
    "BFS": (0.713, 0.386),
    "DMRG": (0.892, 0.839),
    "NWChem-TC": (0.830, 0.625),
}

PLACEMENT_RATIOS = (0.0, 0.3, 0.6)


def run(ctx: ExperimentContext) -> dict[str, object]:
    machine, hm = ctx.engine.machine, ctx.engine.topology
    model = PerformanceModel(ctx.system.correlation)
    rng = make_rng(ctx.seed + 23)
    pebs = PEBSProfiler(period=512, seed=rng)
    rows = []
    out: dict[str, dict[str, float]] = {}
    for app_cls in ALL_APPS:
        app = ctx.app(app_cls)
        wl = ctx.workload(app_cls)
        binding = app.binding(wl)
        homog = HomogeneousPredictor(machine, hm)
        # group instances by (task, kind) in region order
        series: dict[tuple[str, str], list] = {}
        for region in wl.regions:
            for inst in region.instances:
                series.setdefault((inst.task_id, region.kind), []).append(
                    (region, inst)
                )
        truths: list[float] = []
        preds: list[float] = []
        base_preds: list[float] = []
        for (tid, kind), items in series.items():
            if len(items) < 2 or tid not in binding.descriptors:
                continue
            base_region, base = items[0]
            desc = binding.descriptors[tid]
            est = AccessEstimator(desc)
            base_sizes = binding.object_sizes(wl, base, base_region.name)
            counts = {
                k: v
                for k, v in pebs.measure(base.footprint).items()
                if k in desc
            }
            est.record_base_profile(base_sizes, counts)
            base_t_dram, base_t_pm = machine.endpoint_times(base.footprint, hm)
            pmcs = collect_pmcs(
                base.footprint, machine, hm, rng=rng, t_pm_only=base_t_pm
            )
            block = f"{tid}|{kind}"
            homog.record_unit_times(block, base_t_dram, base_t_pm)
            homog.record_base(block, {block: 1.0}, base.input_vector or (1.0,))
            for region, inst in items[1:]:
                sizes = binding.object_sizes(wl, inst, region.name)
                total_est = est.estimate_total(sizes)
                if total_est <= 0:
                    continue
                new_vec = inst.input_vector or base.input_vector or (1.0,)
                t_dram, t_pm = homog.predict(block, new_vec)
                inputs = TaskModelInputs(
                    task_id=tid,
                    t_pm_only=t_pm,
                    t_dram_only=t_dram,
                    total_accesses=total_est,
                    pmcs=pmcs,
                )
                scale = input_similarity_scale(
                    base.input_vector or (1.0,), new_vec
                )
                # the regression baseline [8] scales the base input's one
                # profiled execution time (PM-only, where profiling runs) by
                # the data-size ratio; it has no notion of data placement,
                # which is exactly why the paper's model outperforms it
                priced = machine.breakdowns([inst.footprint], hm, PLACEMENT_RATIOS)
                for r, (bd,) in zip(PLACEMENT_RATIOS, priced):
                    truths.append(bd.total_s)
                    preds.append(model.predict_ratio(inputs, r))
                    base_preds.append(base_t_pm * scale)
                # online alpha refinement from this instance's PEBS
                # measurements (Section 4), improving later predictions
                est.refine(sizes, pebs.measure(inst.footprint))
        ours = prediction_accuracy(truths, preds)
        baseline = prediction_accuracy(truths, base_preds)
        out[app.name] = {"ours": ours, "baseline": baseline}
        paper_ours, paper_base = PAPER[app.name]
        rows.append([app.name, baseline, paper_base, ours, paper_ours])
    print("Table 4: whole-pipeline prediction accuracy (1 - MAPE)")
    print(
        format_table(
            ["application", "regression [8]", "paper [8]", "performance model", "paper model"],
            rows,
        )
    )
    return out
