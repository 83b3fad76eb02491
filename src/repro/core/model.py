"""The assembled performance model (Section 5, Equation 2).

Predicts the execution time of a task instance with a new input when a
chosen number of its memory accesses is served from DRAM::

    T_hybrid = T_pm_only * (1 - r_dram) * f(PMCs, r_dram)
             + T_dram_only * r_dram

where ``r_dram = dram_acc / esti_mem_acc``.  The three ingredients come from
the other core modules: ``esti_mem_acc`` from the input-aware estimator
(Equation 1), the homogeneous endpoints from the basic-block predictor
(Section 5.2), and f(.) from the trained correlation function (Section 5.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.core.correlation import CorrelationFunction

__all__ = [
    "TaskModelInputs",
    "PerformanceModel",
    "TieredTaskInputs",
]


@dataclass(frozen=True)
class TaskModelInputs:
    """Everything Algorithm 1 needs to know about one task.

    Matches the algorithm's input list: PM-only execution time ``D_i``,
    measured hardware events ``PCs_i``, and total (estimated) accesses
    ``Total_Acc_i``; plus the DRAM-only endpoint the model interpolates
    toward.
    """

    task_id: str
    t_pm_only: float
    t_dram_only: float
    total_accesses: float
    pmcs: Mapping[str, float]

    def __post_init__(self) -> None:
        if self.t_pm_only <= 0 or self.t_dram_only <= 0:
            raise ValueError("endpoint times must be positive")
        if self.total_accesses <= 0:
            raise ValueError("total_accesses must be positive")


class PerformanceModel:
    """Equation 2, bound to a trained correlation function."""

    def __init__(self, correlation: CorrelationFunction) -> None:
        self.correlation = correlation

    def predict_ratio(self, task: TaskModelInputs, r_dram: float) -> float:
        """T_hybrid when fraction ``r_dram`` of accesses hits DRAM."""
        if not 0.0 <= r_dram <= 1.0:
            raise ValueError("r_dram must be in [0, 1]")
        if r_dram >= 1.0:
            return task.t_dram_only
        f_val = self.correlation.predict(task.pmcs, r_dram)
        return (
            task.t_pm_only * (1.0 - r_dram) * f_val
            + task.t_dram_only * r_dram
        )

    def predict(self, task: TaskModelInputs, dram_accesses: float) -> float:
        """Algorithm 1's ``Model(D_i, PCs_i, DRAM_Acc)`` callable form."""
        if dram_accesses < 0:
            raise ValueError("dram_accesses must be non-negative")
        r = min(1.0, dram_accesses / task.total_accesses)
        return self.predict_ratio(task, r)

    def ratio_grid(self, task: TaskModelInputs, ratios) -> "np.ndarray":
        """Vectorised Equation 2 over a grid of DRAM ratios.

        One stacked f(.) evaluation; the r = 1 entries collapse to the
        DRAM-only endpoint exactly, as in :meth:`predict_ratio`.
        """
        import numpy as np

        ratios = np.asarray(ratios, dtype=np.float64)
        f_vals = self.correlation.predict_batch(task.pmcs, ratios)
        times = (
            task.t_pm_only * (1.0 - ratios) * f_vals
            + task.t_dram_only * ratios
        )
        return np.where(ratios >= 1.0, task.t_dram_only, times)

    def ratio_grids(self, tasks, ratios) -> "dict[str, np.ndarray]":
        """Equation 2 grids for *many* tasks with one stacked f(.) call.

        Numerically identical to calling :meth:`ratio_grid` per task, but
        the underlying model walks its estimator list once for the whole
        batch instead of once per task -- the amortisation the placement
        service's batched planning relies on.  Falls back to per-task
        calls when the correlation object lacks ``predict_stacked`` (any
        drop-in f(.) only has to provide ``predict_batch``).
        """
        import numpy as np

        tasks = list(tasks)
        stacked = getattr(self.correlation, "predict_stacked", None)
        if stacked is None:
            return {t.task_id: self.ratio_grid(t, ratios) for t in tasks}
        ratios = np.asarray(ratios, dtype=np.float64)
        f_rows = stacked([t.pmcs for t in tasks], ratios)
        # one (tasks, ratios) expression with ratio_grid's per-element
        # operation order, so every row keeps its per-task bits
        t_pm = np.array([t.t_pm_only for t in tasks], dtype=np.float64)[:, None]
        t_dram = np.array([t.t_dram_only for t in tasks], dtype=np.float64)[:, None]
        times = t_pm * (1.0 - ratios) * f_rows + t_dram * ratios
        grids = np.where(ratios >= 1.0, t_dram, times)
        return {t.task_id: row for t, row in zip(tasks, grids)}

# ----------------------------------------------------------------------
# N-tier generalisation (effective-ratio reduction)
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class TieredTaskInputs:
    """A task's model inputs on an N-tier topology.

    ``tier_times[k]`` is the homogeneous endpoint: execution time with all
    accesses served by tier ``k`` (fastest first).  The 2-tier case is
    ``(t_dram_only, t_pm_only)``.
    """

    task_id: str
    tier_times: tuple[float, ...]
    total_accesses: float
    pmcs: Mapping[str, float]

    def __post_init__(self) -> None:
        if len(self.tier_times) < 2:
            raise ValueError("need endpoints for at least two tiers")
        for t in self.tier_times:
            if t <= 0:
                raise ValueError("endpoint times must be positive")
        if self.total_accesses <= 0:
            raise ValueError("total_accesses must be positive")

    @property
    def n_tiers(self) -> int:
        return len(self.tier_times)

    def slowdown_weights(self) -> tuple[float, ...]:
        """Per-tier speed weight ``s_k`` in [0, 1]: 1 for the fastest tier,
        0 for the slowest, interpolated by where the tier's homogeneous
        endpoint sits between the two extremes.  An access to tier ``k``
        counts as ``s_k`` of a fastest-tier access in the effective ratio.
        """
        t_fast = self.tier_times[0]
        t_slow = self.tier_times[-1]
        span = t_slow - t_fast
        if span <= 0.0:
            # degenerate machine: every tier equally fast; any placement
            # behaves like r = 1 on the fastest tier
            return (1.0,) + (0.0,) * (self.n_tiers - 1)
        weights = [1.0]
        for t in self.tier_times[1:-1]:
            w = (t_slow - t) / span
            weights.append(min(1.0, max(0.0, w)))
        weights.append(0.0)
        return tuple(weights)

    def as_two_tier(self) -> TaskModelInputs:
        """The Equation-2 view: fastest tier as DRAM, slowest as PM."""
        return TaskModelInputs(
            task_id=self.task_id,
            t_pm_only=self.tier_times[-1],
            t_dram_only=self.tier_times[0],
            total_accesses=self.total_accesses,
            pmcs=self.pmcs,
        )
