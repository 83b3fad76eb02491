"""Shared machinery for the experiment harness.

The expensive artefacts -- the trained Merchandiser system and the engine
runs of every (application, policy) pair -- are built once per
:class:`ExperimentContext` and shared by all figures/tables (the paper's
Figures 4, 5 and 6 and Section 7.2 all read the same runs).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from repro.apps import Application, SpGEMMApp, WarpXApp
from repro.baselines import (
    MemoryModePolicy,
    MemoryOptimizerPolicy,
    PMOnlyPolicy,
    SpartaPolicy,
    WarpXPMPolicy,
)
from repro.core import Merchandiser
from repro.core.telemetry import Telemetry
from repro.sim import Engine, MachineModel, RunResult, optane_hm_config

__all__ = ["ExperimentContext", "acv", "format_table"]

#: canonical policy order for the comparison figures
POLICY_ORDER = ("pm-only", "memory-mode", "memory-optimizer", "merchandiser")


def acv(values: Iterable[float]) -> float:
    """Average coefficient of variation -- the paper's load-imbalance metric
    (Section 7.2): std/mean of per-task execution times."""
    arr = np.asarray(list(values), dtype=np.float64)
    if arr.size == 0:
        raise ValueError("no values")
    mean = arr.mean()
    if mean == 0:
        return 0.0
    return float(arr.std() / mean)


def format_table(headers: list[str], rows: list[list[object]]) -> str:
    """Fixed-width ASCII table."""
    cols = [[str(h)] for h in headers]
    for row in rows:
        for c, cell in enumerate(row):
            cols[c].append(f"{cell:.3f}" if isinstance(cell, float) else str(cell))
    widths = [max(len(v) for v in col) for col in cols]
    lines = []
    for r in range(len(rows) + 1):
        lines.append(
            "  ".join(cols[c][r].ljust(widths[c]) for c in range(len(cols)))
        )
        if r == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


@dataclass
class ExperimentContext:
    """Caches the trained system and the engine runs all experiments share.

    ``fast=True`` shrinks the offline corpus and skips the feature-selection
    sweep so the whole suite runs in a couple of minutes; ``fast=False``
    reproduces the paper's full 281-sample / top-8-event setup.
    """

    seed: int = 0
    fast: bool = True
    #: shared telemetry sink for every engine the harness builds; ``None``
    #: (the default) keeps all runs bit-identical to the uninstrumented
    #: harness.  The runner sets this when ``--metrics-out``/``--trace-out``
    #: is requested.
    telemetry: Telemetry | None = None
    _system: Merchandiser | None = None
    _runs: dict = field(default_factory=dict)
    _workloads: dict = field(default_factory=dict)
    _apps: dict = field(default_factory=dict)
    _policies: dict = field(default_factory=dict)

    # ------------------------------------------------------------------
    @property
    def engine(self) -> Engine:
        return Engine(MachineModel(), optane_hm_config(), telemetry=self.telemetry)

    @property
    def system(self) -> Merchandiser:
        if self._system is None:
            if self.fast:
                self._system = Merchandiser.offline_setup(
                    n_samples=80,
                    placements_per_sample=8,
                    select_events=False,
                    seed=self.seed,
                )
            else:
                self._system = Merchandiser.offline_setup(seed=self.seed)
        return self._system

    def app(self, app_cls) -> Application:
        if app_cls not in self._apps:
            self._apps[app_cls] = app_cls.paper_scale(seed=self.seed)
        return self._apps[app_cls]

    def workload(self, app_cls):
        if app_cls not in self._workloads:
            self._workloads[app_cls] = self.app(app_cls).build_workload(
                seed=self.seed
            )
        return self._workloads[app_cls]

    # ------------------------------------------------------------------
    def policies(self, app_cls) -> dict[str, object]:
        """The comparison set for one app (+ its app-specific baseline)."""
        app = self.app(app_cls)
        wl = self.workload(app_cls)
        out: dict[str, object] = {
            "pm-only": PMOnlyPolicy(),
            "memory-mode": MemoryModePolicy(),
            "memory-optimizer": MemoryOptimizerPolicy(seed=self.seed + 7),
            "merchandiser": self.system.policy(
                app.binding(wl), seed=self.seed + 5
            ),
        }
        if app_cls is SpGEMMApp:
            out["sparta"] = SpartaPolicy(app.sparta_input_objects())
        if app_cls is WarpXApp:
            out["warpx-pm"] = WarpXPMPolicy(app.warpx_pm_priorities(wl))
        return out

    def run(self, app_cls, policy_name: str) -> RunResult:
        """Cached engine run of (application, policy)."""
        key = (app_cls, policy_name)
        if key not in self._runs:
            wl = self.workload(app_cls)
            policy = self.policies(app_cls)[policy_name]
            result = self.engine.run(wl, policy, seed=self.seed + 1)
            self._runs[key] = result
            self._policies[key] = policy
        return self._runs[key]

    def policy_used(self, app_cls, policy_name: str):
        """The policy object of a cached run (for plan/overhead inspection)."""
        self.run(app_cls, policy_name)
        return self._policies[(app_cls, policy_name)]
