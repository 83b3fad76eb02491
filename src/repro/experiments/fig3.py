"""Figure 3: NWChem-TC phase sensitivity to the DRAM-access ratio.

The paper runs the five NWChem-TC execution phases with 0%, 50% and 100%
of memory accesses served from DRAM and reports execution time normalised
to the PM-only case.  Key observations to reproduce: moving half the
accesses to DRAM cuts Writeback by ~47.5% and Input Processing by ~26.2%,
while Index Search barely moves -- i.e. the response is phase-dependent and
*nonlinear*, which is why Equation 2 needs the learned f(.).
"""

from __future__ import annotations

from repro.apps import NWChemTCApp, TC_PHASES
from repro.experiments.common import ExperimentContext, format_table

RATIOS = (0.0, 0.5, 1.0)

#: paper-reported time reduction at ratio 0.5 for the headline phases
PAPER_REDUCTION_AT_HALF = {"writeback": 0.475, "input_processing": 0.262}


def run(ctx: ExperimentContext) -> dict[str, object]:
    app = ctx.app(NWChemTCApp)
    machine = ctx.engine.machine
    hm = ctx.engine.topology
    shares = app.tile_shares()
    budget = app.config.footprint_bytes
    index_bytes = int(0.15 * budget)
    # a representative (median-volume) task
    order = sorted(range(app.n_tasks), key=lambda t: shares[t])
    t = order[len(order) // 2]
    tile_bytes = max(int(0.85 * budget * shares[t]), 1 << 20)

    results: dict[str, dict[float, float]] = {}
    rows = []
    entire = {r: 0.0 for r in RATIOS}
    for phase in TC_PHASES:
        fp = app.phase_footprint(phase, t, tile_bytes, index_bytes)
        priced = machine.breakdowns([fp], hm, RATIOS)
        times = {r: bd.total_s for r, (bd,) in zip(RATIOS, priced)}
        for r in RATIOS:
            entire[r] += times[r]
        norm = {r: times[r] / times[0.0] for r in RATIOS}
        results[phase] = norm
        rows.append([phase, norm[0.0], norm[0.5], norm[1.0]])
    norm_entire = {r: entire[r] / entire[0.0] for r in RATIOS}
    results["entire_task"] = norm_entire
    rows.append(["entire task", norm_entire[0.0], norm_entire[0.5], norm_entire[1.0]])

    print("Figure 3: NWChem-TC phase time vs DRAM-access ratio (normalised to PM-only)")
    print(format_table(["phase", "ratio=0%", "ratio=50%", "ratio=100%"], rows))
    for phase, paper in PAPER_REDUCTION_AT_HALF.items():
        ours = 1.0 - results[phase][0.5]
        print(
            f"  {phase}: reduction at 50% DRAM = {ours:.1%} (paper: {paper:.1%})"
        )
    return results
