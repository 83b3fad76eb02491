"""Table 3: statistical models for the correlation function.

Trains the six model families of the paper's Table 3 on the code-sample
corpus (70/30 split) and reports R-squared.  Paper values: DTR 78.1%, SVR
83.6%, KNR 72.9%, RFR 89.2%, GBR 94.1%, ANN 93.2% -- GBR wins, ANN close,
KNR worst.
"""

from __future__ import annotations

from repro.core.correlation import compare_models, generate_training_data
from repro.experiments.common import ExperimentContext, format_table

PAPER_R2 = {
    "DTR": 0.781,
    "SVR": 0.836,
    "KNR": 0.729,
    "RFR": 0.892,
    "GBR": 0.941,
    "ANN": 0.932,
}


def training_data(ctx: ExperimentContext):
    """Training data for f(.), cached on the context."""
    if not hasattr(ctx, "_table3_data"):
        from repro.apps.codesamples import generate_corpus

        n = 120 if ctx.fast else 281
        samples = generate_corpus(n, seed=ctx.seed)
        ctx._table3_data = generate_training_data(
            ctx.engine.machine,
            ctx.engine.topology,
            samples,
            placements_per_sample=10,
            seed=ctx.seed,
        )
    return ctx._table3_data


def run(ctx: ExperimentContext) -> dict[str, object]:
    data = training_data(ctx)
    reports = compare_models(data, test_fraction=0.3, seed=ctx.seed)
    reports.sort(key=lambda r: r.r2, reverse=True)
    rows = [
        [r.name, r.params, r.r2, PAPER_R2[r.name], f"{r.fit_seconds:.1f}s"]
        for r in reports
    ]
    print(f"Table 3: statistical models for f(.) ({len(data.y)} samples, 70/30 split)")
    print(format_table(["model", "parameters", "R2 (ours)", "R2 (paper)", "fit"], rows))
    best = reports[0].name
    print(f"  best model: {best} (paper selects GBR)")
    return {"reports": {r.name: r.r2 for r in reports}, "best": best}
