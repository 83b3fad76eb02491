"""The alpha parameter of Equation 1: caching-aware access scaling.

Equation 1 estimates the main-memory accesses of a new input from the
profiled accesses of the base input::

    esti_mem_acc = S_new / (S_base * alpha) * prof_mem_acc

``alpha`` absorbs the non-proportional part of the scaling -- the access
pattern may hit a different number of cache lines per byte as sizes change.
Following Section 4:

* **stream / strided**: alpha is computed analytically from the stride and
  data type against the 64-byte line size, enumerated offline
  (:func:`alpha_stream_strided`), with non-line-divisible sizes rounded up;
* **input-independent stencil**: alpha is measured offline by a
  microbenchmark that runs the stencil and compares program-level access
  counts against counter-measured memory accesses
  (:func:`alpha_stencil_offline`); here the "performance counter" is the
  on-chip cache model;
* **random / input-dependent stencil**: alpha starts at 1 and is refined
  online across task instances from PEBS-measured access counts
  (:class:`AlphaRefiner`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common import CACHE_LINE, AccessPattern, seq_sum
from repro.sim.cache import OnChipCacheModel

__all__ = [
    "round_to_line",
    "line_accesses",
    "alpha_stream_strided",
    "alpha_stencil_offline",
    "AlphaRefiner",
    "AlphaTable",
]


def round_to_line(size_bytes: int) -> int:
    """Round a size up to a multiple of the cache-line size (Section 4:
    "if S_new or S_base is not divisible by the cache line size, it is
    rounded to a slightly larger, divisible size")."""
    if size_bytes <= 0:
        raise ValueError("size must be positive")
    return -(-size_bytes // CACHE_LINE) * CACHE_LINE


def line_accesses(size_bytes: int, element_size: int, stride: int) -> int:
    """Distinct cache lines touched walking ``size_bytes`` at ``stride``."""
    if element_size <= 0 or stride <= 0:
        raise ValueError("element_size and stride must be positive")
    size = round_to_line(size_bytes)
    n_elements = size // element_size
    n_touched = -(-n_elements // stride)
    stride_bytes = stride * element_size
    if stride_bytes >= CACHE_LINE:
        return max(1, n_touched)
    return max(1, (n_touched * stride_bytes + CACHE_LINE - 1) // CACHE_LINE)


def alpha_stream_strided(
    s_base: int, s_new: int, element_size: int, stride: int = 1
) -> float:
    """Alpha for stream/strided patterns (exact, analytic).

    Defined so that Equation 1 reproduces the true line count of the new
    size: ``alpha = (S_new * acc(S_base)) / (S_base * acc(S_new))``.  For
    the paper's worked example (S_base=128 B, S_new=192 B, 4-byte ints,
    stream) this gives alpha = 1.
    """
    acc_base = line_accesses(s_base, element_size, stride)
    acc_new = line_accesses(s_new, element_size, stride)
    sb, sn = round_to_line(s_base), round_to_line(s_new)
    return (sn * acc_base) / (sb * acc_new)


def alpha_stencil_offline(
    taps: int,
    element_size: int,
    probe_bytes: int = 1 << 20,
    cache: OnChipCacheModel | None = None,
) -> float:
    """Offline stencil microbenchmark (Section 4).

    Runs a ``taps``-point stencil over a probe array, counts program-level
    accesses (every tap of every element) and counter-measured main-memory
    accesses (through the cache model), and returns their ratio -- how many
    program accesses one memory access represents.  Equation 1 divides by
    alpha, so a profiled *program-level* count scaled by 1/alpha lands on
    the memory-access count.
    """
    if taps < 2:
        raise ValueError("a stencil has at least 2 taps")
    cache = cache or OnChipCacheModel()
    n_elements = probe_bytes // element_size
    program_accesses = n_elements * taps
    counter_accesses = cache.mem_accesses(
        AccessPattern.STENCIL, n_elements, element_size, probe_bytes
    )
    return program_accesses / max(counter_accesses, 1)


@dataclass
class AlphaRefiner:
    """Online alpha refinement for input-dependent patterns (Section 4).

    Starts at ``alpha = 1``; after each task instance the PEBS-measured
    access count yields the alpha that would have made Equation 1 exact,
    and an exponential moving average tracks it across instances.
    """

    eta: float = 0.5
    alpha: float = 1.0
    updates: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.eta <= 1.0:
            raise ValueError("eta must be in (0, 1]")

    def implied_alpha(
        self, s_base: int, s_new: int, prof_acc: float, measured_acc: float
    ) -> float:
        """Alpha that makes Equation 1 reproduce ``measured_acc`` exactly."""
        if min(s_base, s_new) <= 0:
            raise ValueError("sizes must be positive")
        if prof_acc <= 0 or measured_acc <= 0:
            return self.alpha  # nothing learnable from empty measurements
        return (s_new * prof_acc) / (s_base * measured_acc)

    def update(
        self, s_base: int, s_new: int, prof_acc: float, measured_acc: float
    ) -> float:
        """Fold one instance's measurement into alpha; returns new alpha."""
        implied = self.implied_alpha(s_base, s_new, prof_acc, measured_acc)
        self.alpha = (1.0 - self.eta) * self.alpha + self.eta * implied
        self.updates += 1
        return self.alpha


class AlphaTable:
    """Per-object alpha state for one task (the runtime's view).

    Dispatches to the right mechanism per pattern and records refiners for
    input-dependent objects.
    """

    def __init__(self, cache: OnChipCacheModel | None = None, eta: float = 0.5):
        self._cache = cache or OnChipCacheModel()
        self._eta = eta
        self._refiners: dict[str, AlphaRefiner] = {}
        self._stencil_cache: dict[tuple[int, int], float] = {}

    def refiner(self, obj: str) -> AlphaRefiner:
        if obj not in self._refiners:
            self._refiners[obj] = AlphaRefiner(eta=self._eta)
        return self._refiners[obj]

    def alpha(
        self,
        obj: str,
        pattern: AccessPattern,
        s_base: int,
        s_new: int,
        element_size: int = 8,
        stride: int = 1,
        stencil_taps: int = 3,
        input_dependent: bool = False,
    ) -> float:
        """Alpha for one object under Equation 1's conventions.

        Note the stencil case: offline alpha calibrates *program-level*
        profiled counts.  Our profilers already measure memory-level counts,
        so for input-independent stencils the residual alpha is the analytic
        line-ratio (same as stream) -- the taps factor cancels between
        profile and estimate.  Input-dependent stencils and randoms use the
        online refiner.
        """
        if pattern in (AccessPattern.STREAM, AccessPattern.STRIDED):
            return alpha_stream_strided(s_base, s_new, element_size, stride)
        if pattern is AccessPattern.STENCIL and not input_dependent:
            return alpha_stream_strided(s_base, s_new, element_size, 1)
        return self.refiner(obj).alpha

    def stencil_microbench_alpha(self, taps: int, element_size: int) -> float:
        """The paper's offline stencil alpha (cached per configuration)."""
        key = (taps, element_size)
        if key not in self._stencil_cache:
            self._stencil_cache[key] = alpha_stencil_offline(
                taps, element_size, cache=self._cache
            )
        return self._stencil_cache[key]

    def refine(
        self,
        obj: str,
        s_base: int,
        s_new: int,
        prof_acc: float,
        measured_acc: float,
    ) -> float:
        """Online refinement step after a task instance executes."""
        return self.refiner(obj).update(s_base, s_new, prof_acc, measured_acc)

    def mean_alpha(self) -> float:
        """Average refined alpha (Section 7.3 reports per-app averages)."""
        if not self._refiners:
            return 1.0
        return seq_sum(r.alpha for r in self._refiners.values()) / len(self._refiners)

    # -- crash-consistency checkpoints (repro.core.journal) ------------
    def snapshot_state(self) -> dict:
        """JSON-able refiner state (the online-learned part of the table;
        analytic and microbenchmark alphas are recomputable)."""
        return {
            "eta": self._eta,
            "refiners": {
                name: {"eta": r.eta, "alpha": r.alpha, "updates": r.updates}
                for name, r in self._refiners.items()
            },
        }

    def restore_state(self, state: dict) -> None:
        self._eta = float(state["eta"])
        self._refiners = {
            name: AlphaRefiner(
                eta=float(r["eta"]),
                alpha=float(r["alpha"]),
                updates=int(r["updates"]),
            )
            for name, r in state["refiners"].items()
        }
