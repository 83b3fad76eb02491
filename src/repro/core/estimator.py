"""Input-aware memory-access quantification (Section 4, Equation 1).

Given per-object profiled access counts from the task's *base input* and the
data-object sizes of a *new* input (known right before task execution via the
``LB_HM_config`` API), estimate the new input's per-object main-memory access
counts:

    esti_mem_acc = S_new / (S_base * alpha) * prof_mem_acc
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.common import AccessPattern, seq_sum
from repro.core.alpha import AlphaTable

__all__ = ["ObjectDescriptor", "AccessEstimator"]


@dataclass(frozen=True)
class ObjectDescriptor:
    """Static-analysis facts about one managed object in one task.

    Produced by the pattern classifier plus the API call: pattern, stride,
    element size, and whether the pattern's shape depends on the input (an
    input-dependent stencil or any random pattern relies on runtime alpha
    refinement).
    """

    name: str
    pattern: AccessPattern
    element_size: int = 8
    stride: int = 1
    stencil_taps: int = 3
    input_dependent: bool = False

    @property
    def needs_refinement(self) -> bool:
        return self.pattern is AccessPattern.RANDOM or (
            self.pattern is AccessPattern.STENCIL and self.input_dependent
        )


class AccessEstimator:
    """Per-task estimator state: base profile, sizes, and alpha values."""

    def __init__(self, descriptors: Mapping[str, ObjectDescriptor], alpha: AlphaTable | None = None):
        self.descriptors = dict(descriptors)
        self.alphas = alpha or AlphaTable()
        self._base_sizes: dict[str, int] = {}
        self._base_counts: dict[str, float] = {}

    # ------------------------------------------------------------------
    def record_base_profile(
        self, sizes: Mapping[str, int], counts: Mapping[str, float]
    ) -> None:
        """Store the base input's sizes and profiled access counts.

        ``counts`` comes from the first instance's memory profiling
        (PTE-sampling on PM, Thermostat on DRAM -- Section 4).
        """
        for name in counts:
            if name not in self.descriptors:
                raise KeyError(f"no descriptor for profiled object {name!r}")
        self._base_sizes = {k: int(v) for k, v in sizes.items()}
        self._base_counts = {k: float(v) for k, v in counts.items()}

    @property
    def has_base_profile(self) -> bool:
        return bool(self._base_counts)

    # ------------------------------------------------------------------
    def estimate(self, new_sizes: Mapping[str, int]) -> dict[str, float]:
        """Equation 1 for every profiled object under the new sizes."""
        if not self.has_base_profile:
            raise RuntimeError("base profile not recorded yet")
        out: dict[str, float] = {}
        for name, prof in self._base_counts.items():
            desc = self.descriptors[name]
            s_base = self._base_sizes[name]
            s_new = int(new_sizes.get(name, s_base))
            a = self.alphas.alpha(
                name,
                desc.pattern,
                s_base,
                s_new,
                element_size=desc.element_size,
                stride=desc.stride,
                stencil_taps=desc.stencil_taps,
                input_dependent=desc.input_dependent,
            )
            out[name] = s_new / (s_base * a) * prof
        return out

    def estimate_total(self, new_sizes: Mapping[str, int]) -> float:
        """Total estimated accesses (Equation 2's ``esti_mem_acc``)."""
        return seq_sum(self.estimate(new_sizes).values())

    # -- crash-consistency checkpoints (repro.core.journal) ------------
    def snapshot_state(self) -> dict:
        """JSON-able learned state: base profile plus refined alphas.

        Descriptors are static-analysis facts the binding regenerates, so
        they are not checkpointed; restore assumes the same descriptors.
        """
        return {
            "base_sizes": dict(self._base_sizes),
            "base_counts": dict(self._base_counts),
            "alphas": self.alphas.snapshot_state(),
        }

    def restore_state(self, state: dict) -> None:
        self._base_sizes = {k: int(v) for k, v in state["base_sizes"].items()}
        self._base_counts = {k: float(v) for k, v in state["base_counts"].items()}
        self.alphas.restore_state(state["alphas"])

    # ------------------------------------------------------------------
    def refine(
        self, new_sizes: Mapping[str, int], measured: Mapping[str, float]
    ) -> int:
        """Online alpha refinement after an instance ran (Section 4).

        ``measured`` holds PEBS-measured per-object access counts for the
        instance that just executed with ``new_sizes``.  Returns the number
        of objects whose alpha actually absorbed a measurement (telemetry's
        ``merch_policy_alpha_refinements_total``).
        """
        refined = 0
        for name, measured_acc in measured.items():
            desc = self.descriptors.get(name)
            if desc is None or not desc.needs_refinement:
                continue
            if name not in self._base_counts:
                continue
            self.alphas.refine(
                name,
                self._base_sizes[name],
                int(new_sizes.get(name, self._base_sizes[name])),
                self._base_counts[name],
                measured_acc,
            )
            refined += 1
        return refined
