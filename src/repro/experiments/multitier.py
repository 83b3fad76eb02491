"""Multitier: competing placement policies on N-tier topologies.

Races the generalised Merchandiser incumbent against the two competing
backends from the literature -- pairwise learning-to-rank placement
(Moura et al.) and interval-based hotness reconfiguration (Olson et
al.) -- on the 2-tier paper machine and on 3- and 4-tier extensions of
it (HBM above DRAM, CXL between DRAM and PM).  All backends run through
the same :mod:`repro.policies` registry, the same engine, and the same
SpGEMM workload, so the comparison isolates the placement decision.

Two properties the conformance CI asserts from this experiment's JSON:

* on the paper's 2-tier config the incumbent beats or matches both
  competing backends (the load-balance-aware plan is the paper's claim);
* the ``dram_pm`` preset passed as ``topology=`` runs bit-exactly like
  its ``HMConfig`` front end (``optane_hm_config()``) passed as ``hm``:
  one memory description, one code path.
"""

from __future__ import annotations

from repro.core.model import PerformanceModel
from repro.experiments.common import ExperimentContext, format_table
from repro.apps import SpGEMMApp
from repro.policies import PolicyBuildContext, build_policy
from repro.sim import Engine, MachineModel, optane_hm_config
from repro.sim.memspec import topology_preset

#: the competing backends, raced on every topology
POLICIES = ("merchandiser", "ltr", "interval")

#: preset name -> topology under test, smallest first
TOPOLOGIES = ("dram_pm", "hbm_dram_pm", "hbm_dram_cxl_pm")


def run(ctx: ExperimentContext) -> dict[str, object]:
    machine = MachineModel()
    model = PerformanceModel(ctx.system.correlation)
    wl = ctx.workload(SpGEMMApp)
    seed = ctx.seed + 1

    # degenerate-case contract: the 2-tier preset must run bit-for-bit like
    # the HMConfig it equals tier for tier
    two_tier = topology_preset("dram_pm")
    bctx2 = PolicyBuildContext(
        machine=machine, topology=two_tier, model=model, seed=seed
    )
    classic = Engine(machine, optane_hm_config(), telemetry=ctx.telemetry).run(
        wl, build_policy("static", bctx2), seed=seed
    )
    via_topo = Engine(machine, topology=two_tier, telemetry=ctx.telemetry).run(
        wl, build_policy("static", bctx2), seed=seed
    )
    bitexact = classic.total_time_s == via_topo.total_time_s

    out: dict[str, object] = {
        "workload": wl.name,
        "seed": seed,
        "two_tier_bitexact": bitexact,
        "classic_hm_time_s": classic.total_time_s,
        "topology_path_time_s": via_topo.total_time_s,
        "topologies": {},
    }
    rows = []
    for preset in TOPOLOGIES:
        topo = topology_preset(preset)
        bctx = PolicyBuildContext(
            machine=machine, topology=topo, model=model, seed=seed
        )
        static = Engine(machine, topology=topo, telemetry=ctx.telemetry).run(
            wl, build_policy("static", bctx), seed=seed
        )
        per: dict[str, dict[str, float]] = {}
        for name in POLICIES:
            policy = build_policy(name, bctx)
            res = Engine(machine, topology=topo, telemetry=ctx.telemetry).run(
                wl, policy, seed=seed
            )
            per[name] = {
                "total_time_s": res.total_time_s,
                "pages_migrated": res.pages_migrated,
                "speedup_vs_static": static.total_time_s / res.total_time_s,
            }
            rows.append(
                [
                    preset,
                    topo.n_tiers,
                    name,
                    res.total_time_s,
                    static.total_time_s / res.total_time_s,
                    res.pages_migrated,
                ]
            )
        winner = min(per, key=lambda p: per[p]["total_time_s"])
        out["topologies"][preset] = {
            "n_tiers": topo.n_tiers,
            "tiers": [t.name for t in topo.tiers],
            "static_time_s": static.total_time_s,
            "policies": per,
            "winner": winner,
        }

    print(
        format_table(
            ["topology", "tiers", "policy", "time_s", "speedup", "migrated"],
            rows,
        )
    )
    print(
        f"\n2-tier bit-exactness (HMConfig vs dram_pm preset): "
        f"{'OK' if bitexact else 'MISMATCH'}"
    )
    for preset, data in out["topologies"].items():
        print(f"{preset}: winner = {data['winner']}")
    return out
