"""Heterogeneous-memory machine simulator (substrate).

The paper evaluates on a real 192 GB DRAM + 1.5 TB Optane PM server; this
package is its software stand-in (see DESIGN.md Section 2).  It provides:

* :mod:`repro.sim.memspec` -- tier specifications with the paper's measured
  DRAM/PM asymmetries (Section 2 of the paper);
* :mod:`repro.sim.pages` -- page tables with per-page access popularity and
  one tier index per page;
* :mod:`repro.sim.cache` -- on-chip cache filtering and the direct-mapped
  page cache used by Memory Mode;
* :mod:`repro.sim.machine` -- the ground-truth execution-time model;
* :mod:`repro.sim.counters` -- synthetic performance-monitor counters;
* :mod:`repro.sim.engine` -- the virtual-time tick engine that runs
  workloads under a placement policy, with bandwidth accounting and barriers;
* :mod:`repro.sim.faults` -- seeded fault injection (dropped samples,
  corrupted PMCs, failed migrations, bandwidth/capacity disturbances).
"""

from repro.sim.memspec import HMConfig, TierSpec, cxl_hm_config, optane_hm_config
from repro.sim.pages import PageTable
from repro.sim.machine import MachineModel, MachineSpec, TieredBreakdown
from repro.sim.counters import PMC_EVENTS, collect_pmcs
from repro.sim.engine import Engine, EngineConfig, PlacementPolicy, RunResult
from repro.sim.faults import (
    FaultConfig,
    FaultInjector,
    RobustnessEvent,
    RobustnessLog,
    RobustnessReport,
)

__all__ = [
    "TierSpec",
    "HMConfig",
    "optane_hm_config",
    "cxl_hm_config",
    "PageTable",
    "MachineSpec",
    "MachineModel",
    "TieredBreakdown",
    "PMC_EVENTS",
    "collect_pmcs",
    "Engine",
    "EngineConfig",
    "PlacementPolicy",
    "RunResult",
    "FaultConfig",
    "FaultInjector",
    "RobustnessEvent",
    "RobustnessLog",
    "RobustnessReport",
]
