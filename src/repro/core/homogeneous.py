"""Performance prediction on homogeneous memory (Section 5.2).

Equation 2 needs the execution time of the task on DRAM-only and PM-only
(``T_new_dram_only``, ``T_new_pm_only``) for an input it has never run.
Following the paper (which builds on Monteil's profile+history method):

1. *offline*, input-independent basic blocks are identified and their unit
   execution times measured on each homogeneous memory;
2. *online*, the number of times each block executes is counted for the
   base input;
3. for a new input, the block counts are scaled by the similarity between
   the input-size vectors, and the homogeneous times are the weighted sums
   of unit block times.

The paper scales by the cosine similarity of the two size vectors; a raw
cosine is magnitude-blind, so we use the projection coefficient
``cos(base,new) * |new|/|base|`` -- equal to the cosine for proportionally
scaled inputs, and carrying the magnitude the count scaling needs.  (This
reading makes their DMRG/WarpX accuracy numbers reproducible; a pure cosine
would predict constant time for all inputs.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.sim.machine import MachineModel
from repro.sim.memspec import HMConfig
from repro.tasks.task import Footprint

__all__ = ["BasicBlock", "input_similarity_scale", "HomogeneousPredictor"]


@dataclass(frozen=True)
class BasicBlock:
    """An input-independent basic block of a task program.

    ``unit_footprint`` describes one execution of the block (its
    instructions and main-memory accesses); blocks whose *content* varies
    with the input are flagged ``input_independent=False`` and excluded from
    offline timing, as in [55].
    """

    name: str
    unit_footprint: Footprint
    input_independent: bool = True


def input_similarity_scale(base: Sequence[float], new: Sequence[float]) -> float:
    """Projection-coefficient similarity between two input-size vectors.

    ``cos(base, new) * ||new|| / ||base||`` = ``<base, new> / ||base||^2``.
    Returns 1.0 for identical vectors and scales linearly for proportional
    inputs.
    """
    b = np.asarray(base, dtype=np.float64)
    n = np.asarray(new, dtype=np.float64)
    if b.shape != n.shape:
        raise ValueError("input vectors must have the same length")
    bb = float(b @ b)
    if bb == 0.0:
        raise ValueError("base input vector is all zeros")
    return float(b @ n) / bb


class HomogeneousPredictor:
    """Predicts T_dram_only / T_pm_only for new inputs of known tasks."""

    def __init__(self, machine: MachineModel, hm: HMConfig) -> None:
        self.machine = machine
        self.hm = hm
        self._unit_times: dict[str, tuple[float, float]] = {}
        self._base_counts: dict[str, dict[str, float]] = {}
        self._base_inputs: dict[str, np.ndarray] = {}

    # -- offline -------------------------------------------------------
    def measure_blocks(self, blocks: Iterable[BasicBlock]) -> None:
        """Offline step 2 of Section 5.3: unit block times on each tier.

        On the real system this is a one-time profiled measurement; here the
        measurement device is the ground-truth machine model run with
        everything placed on a single tier.
        """
        timed = [b for b in blocks if b.input_independent]
        times = self.machine.tier_endpoints([b.unit_footprint for b in timed], self.hm)
        for block, (t_dram, t_pm) in zip(timed, times):
            self.record_unit_times(block.name, t_dram, t_pm)

    def record_unit_times(self, name: str, t_dram: float, t_pm: float) -> None:
        """A block's unit times on each tier, measured by the caller."""
        self._unit_times[name] = (t_dram, t_pm)

    def has_block(self, name: str) -> bool:
        return name in self._unit_times

    # -- online --------------------------------------------------------
    def record_base(
        self,
        task_id: str,
        block_counts: Mapping[str, float],
        input_vector: Sequence[float],
    ) -> None:
        """Online step 1: block execution counts under the base input."""
        unknown = [b for b in block_counts if b not in self._unit_times]
        if unknown:
            raise KeyError(f"blocks not measured offline: {unknown}")
        self._base_counts[task_id] = {k: float(v) for k, v in block_counts.items()}
        self._base_inputs[task_id] = np.asarray(input_vector, dtype=np.float64)

    def predict(
        self, task_id: str, new_input_vector: Sequence[float]
    ) -> tuple[float, float]:
        """(T_new_dram_only, T_new_pm_only) for a new input of ``task_id``."""
        if task_id not in self._base_counts:
            raise KeyError(f"no base profile recorded for task {task_id!r}")
        scale = input_similarity_scale(self._base_inputs[task_id], new_input_vector)
        t_dram = 0.0
        t_pm = 0.0
        for block, count in self._base_counts[task_id].items():
            ud, up = self._unit_times[block]
            t_dram += count * scale * ud
            t_pm += count * scale * up
        return t_dram, t_pm

    # -- crash-consistency checkpoints (repro.core.journal) ------------
    def snapshot_state(self) -> dict:
        """JSON-able profile-history state (offline unit times are cheap to
        re-measure, but checkpointing them keeps recovery deterministic even
        if the binding's block list changed between incarnations)."""
        return {
            "unit_times": {
                name: [float(td), float(tp)]
                for name, (td, tp) in self._unit_times.items()
            },
            "base_counts": {
                task: dict(counts) for task, counts in self._base_counts.items()
            },
            "base_inputs": {
                task: [float(v) for v in vec]
                for task, vec in self._base_inputs.items()
            },
        }

    def restore_state(self, state: dict) -> None:
        self._unit_times = {
            name: (float(td), float(tp))
            for name, (td, tp) in state["unit_times"].items()
        }
        self._base_counts = {
            task: {k: float(v) for k, v in counts.items()}
            for task, counts in state["base_counts"].items()
        }
        self._base_inputs = {
            task: np.asarray(vec, dtype=np.float64)
            for task, vec in state["base_inputs"].items()
        }
