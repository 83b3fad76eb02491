"""Synthetic performance-monitor counters (PMCs).

The paper characterises workloads with hardware events collected once per
task from a PM-only execution, then selects the 8 most Gini-important ones
(Section 5.1): LLC_MPKI, IPC, PRF_Miss, MEM_WCY, L2_LD_Miss, BR_MSP,
VEC_INS, L3_LD_Miss.

Here the events are *derived* from the same latent workload characteristics
that drive the ground-truth machine model (pattern mix, intensity, footprint)
plus measurement noise -- which is precisely their role on real hardware:
observable, noisy projections of the latent behaviour.  Events the paper does
not select are included too, some informative, some mostly noise, so that
feature selection (Figure 7) has a real job to do.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.common import AccessPattern, make_rng
from repro.sim.machine import MachineModel
from repro.sim.memspec import TopologySpec
from repro.tasks.task import Footprint

__all__ = ["PMC_EVENTS", "TOP8_EVENTS", "collect_pmcs", "pmc_vector"]

#: All collectable events, in a fixed order (feature vector layout).
PMC_EVENTS: tuple[str, ...] = (
    "LLC_MPKI",
    "IPC",
    "PRF_Miss",
    "MEM_WCY",
    "L2_LD_Miss",
    "BR_MSP",
    "VEC_INS",
    "L3_LD_Miss",
    "L1_LD_Miss",
    "DTLB_MPKI",
    "ITLB_MPKI",
    "STALL_FRONTEND",
    "STALL_BACKEND",
    "UOPS_RETIRED_PKI",
    "MEM_RD_RATIO",
    "SW_PREFETCH_PKI",
    "FP_ARITH_PKI",
    "CTX_SWITCH_RATE",
    "PAGE_FAULT_RATE",
    "RS_EMPTY_CYCLES",
)

#: The 8 events the paper selects (Section 5.1), most important first.
TOP8_EVENTS: tuple[str, ...] = (
    "LLC_MPKI",
    "IPC",
    "PRF_Miss",
    "MEM_WCY",
    "L2_LD_Miss",
    "BR_MSP",
    "VEC_INS",
    "L3_LD_Miss",
)


def collect_pmcs(
    footprint: Footprint,
    machine: MachineModel,
    topology: TopologySpec,
    rng=None,
    noise: float = 0.03,
    t_pm_only: float | None = None,
) -> dict[str, float]:
    """Collect the full event set for one task instance (PM-only run:
    every access served by ``topology``'s slowest tier).

    ``noise`` is the relative sampling noise applied to every event
    (real PMC multiplexing is similarly noisy).  A caller that already
    priced ``footprint``'s slowest-tier time (the last of
    ``MachineModel.tier_endpoints``) passes it as ``t_pm_only`` instead of
    having it priced again.
    """
    rng = make_rng(rng)
    prof = footprint.profile
    instr = float(footprint.instructions)
    mix = footprint.pattern_mix()
    rnd = mix.get(AccessPattern.RANDOM, 0.0)
    strided = mix.get(AccessPattern.STRIDED, 0.0)
    mem_acc = float(footprint.total_accesses)

    # The counters are measured on the PM-only configuration (Algorithm 1's
    # inputs are "measured hardware events ... using PM-only configuration").
    t_pm = t_pm_only
    if t_pm is None:
        t_pm = machine.instance_time(footprint, topology, {})
    cycles = t_pm * machine.spec.frequency_ghz * 1e9

    llc_mpki = 1000.0 * mem_acc / instr
    ipc = instr / max(cycles, 1.0)
    # prefetchers fail on irregular access: miss ratio tracks random share
    prf_miss = min(1.0, 0.05 + 0.85 * rnd + 0.10 * strided)
    mem_wcy = footprint.write_fraction * llc_mpki * 40.0  # write stall cycles/ki
    l2_ld_miss = llc_mpki * (2.2 + 1.5 * rnd)
    br_msp = 1000.0 * prof.branch_rate * prof.branch_misp_rate
    vec_ins = 1000.0 * prof.vector_fraction
    l3_ld_miss = llc_mpki * (1.0 + 0.3 * rnd)
    l1_ld_miss = l2_ld_miss * (3.0 + 2.0 * strided)
    dtlb = 0.2 + llc_mpki * 0.08 * (1.0 + 4.0 * rnd)
    itlb = 0.05 + 0.4 * prof.branch_rate
    stall_fe = 0.05 + 0.5 * prof.branch_rate * prof.branch_misp_rate * 10.0
    stall_be = min(0.95, 0.1 + 0.8 * (1.0 - ipc / 4.0))
    uops = 1000.0 * (1.0 + 0.3 * prof.vector_fraction)
    rd_ratio = 1.0 - footprint.write_fraction
    sw_pref = 1000.0 * 0.02 * (1.0 - rnd)
    fp_arith = 1000.0 * (0.2 + 0.5 * prof.vector_fraction)
    # the last three are genuinely uninformative noise floors
    ctx = 0.5
    pf = 1.0
    rs_empty = 0.1

    raw = {
        "LLC_MPKI": llc_mpki,
        "IPC": ipc,
        "PRF_Miss": prf_miss,
        "MEM_WCY": mem_wcy,
        "L2_LD_Miss": l2_ld_miss,
        "BR_MSP": br_msp,
        "VEC_INS": vec_ins,
        "L3_LD_Miss": l3_ld_miss,
        "L1_LD_Miss": l1_ld_miss,
        "DTLB_MPKI": dtlb,
        "ITLB_MPKI": itlb,
        "STALL_FRONTEND": stall_fe,
        "STALL_BACKEND": stall_be,
        "UOPS_RETIRED_PKI": uops,
        "MEM_RD_RATIO": rd_ratio,
        "SW_PREFETCH_PKI": sw_pref,
        "FP_ARITH_PKI": fp_arith,
        "CTX_SWITCH_RATE": ctx,
        "PAGE_FAULT_RATE": pf,
        "RS_EMPTY_CYCLES": rs_empty,
    }
    noise_factors = {
        # noise-floor events fluctuate far more than their signal
        "CTX_SWITCH_RATE": 0.8,
        "PAGE_FAULT_RATE": 0.8,
        "RS_EMPTY_CYCLES": 0.8,
    }
    out: dict[str, float] = {}
    for name in PMC_EVENTS:
        sigma = noise * noise_factors.get(name, 1.0) / max(noise, 1e-9) * noise
        val = raw[name] * (1.0 + rng.normal(0.0, max(sigma, noise)))
        out[name] = float(max(val, 0.0))
    return out


def pmc_vector(
    pmcs: Mapping[str, float], events: tuple[str, ...] = PMC_EVENTS
) -> np.ndarray:
    """Flatten an event dict into a feature vector in canonical order."""
    return np.array([pmcs[e] for e in events], dtype=np.float64)
