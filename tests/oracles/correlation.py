"""A deterministic f(.) stand-in for planner and service tests.

With f == 1, Equation 2 reduces to straight-line interpolation between
the endpoints, ``t_pm * (1 - r) + t_dram * r``, so planner behaviour is
analytically checkable and planning costs microseconds.
"""

from __future__ import annotations

import numpy as np


class UnitCorrelation:
    """f(.) == 1 for every counter set and ratio; counts evaluations.

    Implements only ``predict_stacked``, the one f(.) entry point
    ``PerformanceModel.ratio_grids`` calls.
    """

    def __init__(self) -> None:
        self.calls = 0

    def predict_stacked(self, pmcs_seq, ratios) -> np.ndarray:
        self.calls += 1
        return np.ones((len(pmcs_seq), len(np.asarray(ratios))))
