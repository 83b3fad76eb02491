"""Figure 7: correlation-function accuracy vs number of performance events.

Section 5.1 ranks hardware events by Gini importance and eliminates them
recursively; Figure 7 plots the model's accuracy as a function of how many
events it consumes, separately for regular-pattern applications (WarpX,
DMRG) and irregular ones (SpGEMM, BFS, NWChem-TC).  The paper's takeaway:
with the top 8 events, accuracy reaches 93.7% / 93.2% (regular/irregular),
within a point of using all events -- the curve saturates at 8.
"""

from __future__ import annotations

import numpy as np

from repro.apps import ALL_APPS
from repro.core.correlation import CorrelationFunction
from repro.ml import GradientBoostedRegressor, prediction_accuracy
from repro.sim.counters import collect_pmcs, pmc_vector
from repro.core.correlation import placement_ratio, solve_f_target
from repro.common import make_rng
from repro.experiments.common import ExperimentContext, format_table
from repro.experiments.table3 import training_data

REGULAR = ("WarpX", "DMRG")


def app_eval_data(ctx: ExperimentContext, events: tuple[str, ...]):
    """True-f evaluation samples derived from the five applications.

    For each application, sample task footprints from its workload, run
    random placements through the ground-truth machine model, solve
    Equation 2 for f, and pair with PMC features -- the same procedure as
    training, but on the *applications*, which the corpus never saw.
    """
    machine, hm = ctx.engine.machine, ctx.engine.topology
    rng = make_rng(ctx.seed + 17)
    groups: dict[str, tuple[list, list]] = {"regular": ([], []), "irregular": ([], [])}
    for app_cls in ALL_APPS:
        app = ctx.app(app_cls)
        wl = ctx.workload(app_cls)
        group = "regular" if app.name in REGULAR else "irregular"
        X, y = groups[group]
        instances = [
            inst for region in wl.regions[:4] for inst in region.instances
        ]
        picks = rng.choice(len(instances), size=min(8, len(instances)), replace=False)
        for k in picks:
            fp = instances[int(k)].footprint
            t_dram, t_pm = machine.endpoint_times(fp, hm)
            pmcs = collect_pmcs(fp, machine, hm, rng=rng, t_pm_only=t_pm)
            vec = pmc_vector(pmcs, events)
            draws = [{o: float(rng.random()) for o in fp.objects} for _ in range(4)]
            for fracs, (bd,) in zip(draws, machine.breakdowns([fp], hm, draws)):
                r = min(placement_ratio(fp, fracs), 0.95)
                X.append(np.concatenate([vec, [r]]))
                y.append(solve_f_target(bd.total_s, t_pm, t_dram, r))
    return {g: (np.vstack(X), np.asarray(y)) for g, (X, y) in groups.items()}


def run(ctx: ExperimentContext) -> dict[str, object]:
    data = training_data(ctx)
    # rank events once by Gini importance of the full model
    selected, steps = CorrelationFunction.select_events(
        data, n_events=8, seed=ctx.seed
    )
    # importance ranking from the all-features step
    full = steps[0]
    pmc_idx = [i for i, f in enumerate(full.features) if f != "r_dram"]
    ranked = sorted(
        (full.features[i] for i in pmc_idx),
        key=lambda f: full.importances[full.features.index(f)],
        reverse=True,
    )
    eval_groups = app_eval_data(ctx, data.events)
    event_index = {e: i for i, e in enumerate(data.events)}

    counts = list(range(1, len(ranked) + 1)) if not ctx.fast else [1, 2, 4, 8, 12, 16, 20]
    counts = [c for c in counts if c <= len(ranked)]
    curves: dict[str, dict[int, float]] = {"regular": {}, "irregular": {}}
    rng = make_rng(ctx.seed + 3)
    for k in counts:
        use = ranked[:k]
        sub = data.restrict_events(use)
        model = GradientBoostedRegressor(
            n_estimators=150, max_depth=4, learning_rate=0.1, rng=rng
        )
        model.fit(sub.X, sub.y)
        for group, (Xg, yg) in eval_groups.items():
            cols = [event_index[e] for e in use] + [len(data.events)]
            pred = model.predict(Xg[:, cols])
            curves[group][k] = prediction_accuracy(yg, pred)

    rows = [[k, curves["regular"][k], curves["irregular"][k]] for k in counts]
    print("Figure 7: f(.) accuracy vs number of performance events")
    print(format_table(["events", "regular apps", "irregular apps"], rows))
    k8 = 8 if 8 in curves["regular"] else counts[-1]
    print(
        f"  top-8 accuracy: regular {curves['regular'][k8]:.1%} (paper 93.7%), "
        f"irregular {curves['irregular'][k8]:.1%} (paper 93.2%)"
    )
    print(f"  importance-ranked events: {ranked[:8]}")
    return {"curves": curves, "ranked_events": ranked, "selected": selected}
