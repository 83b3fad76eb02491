"""Ablation studies (ours, extending the paper's evaluation).

1. **Planner comparison**: Algorithm 1 is a greedy heuristic for an
   NP-hard allocation; we compare its predicted makespan against (a) the
   makespan-optimal allocation at the same 5% granularity
   (:func:`repro.core.planner.optimal_quotas`) and (b) a throughput-greedy
   knapsack that maximises total time saved with no balance awareness
   (:func:`repro.core.planner.throughput_plan`) -- isolating the value of
   the paper's load-balance objective from mere task awareness.
2. **Component knock-outs**: the runtime with Algorithm-1 planning
   disabled (pure gated daemon), with daemon gating disabled, and with
   alpha refinement disabled, on the most placement-sensitive apps.
"""

from __future__ import annotations

from repro.apps import BFSApp, NWChemTCApp, SpGEMMApp
from repro.core.model import PerformanceModel, TaskModelInputs
from repro.core.planner import greedy_plan, optimal_quotas, throughput_plan
from repro.sim.counters import collect_pmcs
from repro.common import make_rng
from repro.experiments.common import ExperimentContext, format_table

ABLATION_APPS = (SpGEMMApp, BFSApp, NWChemTCApp)


def _task_inputs(ctx: ExperimentContext, app_cls, region_index: int = 1):
    """Oracle TaskModelInputs for one region (isolates planner quality)."""
    machine, hm = ctx.engine.machine, ctx.engine.topology
    wl = ctx.workload(app_cls)
    region = wl.regions[region_index]
    rng = make_rng(ctx.seed + 11)
    tasks = []
    task_bytes = {}
    sharers: dict[str, int] = {}
    for inst in region.instances:
        for acc in inst.footprint.accesses:
            sharers[acc.obj] = sharers.get(acc.obj, 0) + 1
    endpoints = machine.tier_endpoints(
        [inst.footprint for inst in region.instances], hm
    )
    for inst, (t_dram, t_pm) in zip(region.instances, endpoints):
        fp = inst.footprint
        tasks.append(
            TaskModelInputs(
                task_id=inst.task_id,
                t_pm_only=t_pm,
                t_dram_only=t_dram,
                total_accesses=fp.total_accesses,
                pmcs=collect_pmcs(fp, machine, hm, rng=rng, t_pm_only=t_pm),
            )
        )
        task_bytes[inst.task_id] = int(
            sum(
                wl.object(acc.obj).size_bytes / sharers[acc.obj]
                for acc in fp.accesses
            )
        )
    return tasks, task_bytes


def run(ctx: ExperimentContext) -> dict[str, object]:
    model = PerformanceModel(ctx.system.correlation)
    capacity = ctx.engine.topology.fastest.capacity_bytes

    planner_rows = []
    planner_out = {}
    for app_cls in ABLATION_APPS:
        name = ctx.app(app_cls).name
        tasks, task_bytes = _task_inputs(ctx, app_cls)
        greedy = greedy_plan(tasks, model, capacity, task_bytes)
        optimal = optimal_quotas(tasks, model, capacity, task_bytes)
        throughput = throughput_plan(tasks, model, capacity, task_bytes)
        gap = greedy.predicted_makespan_s / max(optimal.predicted_makespan_s, 1e-12)
        planner_out[name] = {
            "greedy_makespan": greedy.predicted_makespan_s,
            "optimal_makespan": optimal.predicted_makespan_s,
            "throughput_makespan": throughput.predicted_makespan_s,
            "gap": gap,
            "greedy_pages": greedy.dram_pages_used,
            "optimal_pages": optimal.dram_pages_used,
        }
        planner_rows.append(
            [
                name,
                greedy.predicted_makespan_s,
                optimal.predicted_makespan_s,
                throughput.predicted_makespan_s,
                gap,
            ]
        )
    print("Ablation 1: Algorithm 1 vs makespan-optimal vs throughput-greedy")
    print(
        format_table(
            [
                "application",
                "Alg.1 makespan",
                "optimal",
                "throughput-greedy",
                "Alg.1/optimal",
            ],
            planner_rows,
        )
    )

    knockout_rows = []
    knockout_out = {}
    variants = {
        "full": {},
        "no-planning": {"enable_planning": False},
        "no-gating": {"enable_gating": False},
        "no-refinement": {"enable_refinement": False},
    }
    for app_cls in (SpGEMMApp, NWChemTCApp):
        app = ctx.app(app_cls)
        wl = ctx.workload(app_cls)
        times = {}
        for label, kwargs in variants.items():
            policy = ctx.system.policy(
                app.binding(wl), seed=ctx.seed + 5, **kwargs
            )
            res = ctx.engine.run(wl, policy, seed=ctx.seed + 1)
            times[label] = res.total_time_s
        knockout_out[app.name] = times
        knockout_rows.append(
            [app.name]
            + [times[v] for v in variants]
            + [times["no-planning"] / times["full"]]
        )
    print("\nAblation 2: Merchandiser component knock-outs (total time, s)")
    print(
        format_table(
            ["application", *variants.keys(), "planning benefit"], knockout_rows
        )
    )
    return {"planner": planner_out, "knockouts": knockout_out}
