"""Shared low-level vocabulary for the Merchandiser reproduction.

This module defines the handful of concepts that every layer of the stack
(simulator, task runtime, profilers, Merchandiser core) needs to agree on:
the memory-access-pattern taxonomy of the paper (Section 4), byte-level
constants, and seeding helpers so that every stochastic component is
reproducible.
"""

from __future__ import annotations

import enum
from typing import Iterable, Union

import numpy as np

__all__ = [
    "AccessPattern",
    "PAGE_SIZE",
    "CACHE_LINE",
    "KIB",
    "MIB",
    "GIB",
    "make_rng",
    "spawn_rng",
    "zipf_weights",
    "seq_sum",
]

#: Floor version for numpy (also declared in pyproject.toml).  The batched
#: kernels (PERFORMANCE.md) rely on ordered ``np.add.at`` accumulation,
#: stable argsort kinds, and ``np.random.Generator.spawn`` -- all present
#: well before this floor, which simply matches the declared dependency.
NUMPY_FLOOR = (1, 23)


def _check_numpy_capabilities() -> None:
    """Import-time capability check with an actionable error message.

    The vectorized plan/predict kernels need a real numpy (not a stub) at
    or above the declared floor.  Failing fast here beats a cryptic
    AttributeError deep inside a kernel.
    """
    version = getattr(np, "__version__", "0")
    try:
        parts = tuple(int(p) for p in version.split(".")[:2])
    except ValueError:  # pragma: no cover - exotic dev builds ("2.x.dev0")
        parts = NUMPY_FLOOR
    problems = []
    if parts < NUMPY_FLOOR:
        problems.append(
            f"numpy {version} is older than the declared floor "
            f"{'.'.join(map(str, NUMPY_FLOOR))}"
        )
    for attr in ("add", "random", "argsort"):
        if not hasattr(np, attr):
            problems.append(f"numpy is missing `np.{attr}` (stubbed install?)")
    if hasattr(np, "add") and not hasattr(np.add, "at"):
        problems.append(
            "numpy lacks `np.add.at` (ordered scatter-add), required for "
            "bit-identical batched kernels"
        )
    if problems:
        raise ImportError(
            "repro's vectorized kernels cannot run on this numpy: "
            + "; ".join(problems)
            + ". Install `numpy>="
            + ".".join(map(str, NUMPY_FLOOR))
            + "` (see pyproject.toml and PERFORMANCE.md)."
        )


_check_numpy_capabilities()

#: Size of a memory page in bytes (4 KiB, matching Linux / the paper).
PAGE_SIZE: int = 4096

#: Size of a CPU cache line in bytes (Section 4 uses 64 B in its alpha example).
CACHE_LINE: int = 64

KIB: int = 1024
MIB: int = 1024 * 1024
GIB: int = 1024 * 1024 * 1024


class AccessPattern(str, enum.Enum):
    """The four object-level memory-access patterns of the paper (Section 4).

    * ``STREAM``  -- ``A[i] = B[i] + C[i]``; includes delta, reduction and
      transpose forms.
    * ``STRIDED`` -- ``A[i*stride] = B[i*stride]`` with a compile-time-known
      constant stride.
    * ``STENCIL`` -- ``A[i] = A[i-1] + A[i+1]``; sequential walk with
      loop-carried neighbour reuse (5/7/9-point stencils and friends).
    * ``RANDOM``  -- indirect addressing: pointer chase, gather
      (``A[i] = B[C[i]]``) and scatter (``A[B[i]] = C[i]``).

    Unknown patterns are treated as ``RANDOM`` (Section 4, "Handling unknown
    patterns").
    """

    STREAM = "stream"
    STRIDED = "strided"
    STENCIL = "stencil"
    RANDOM = "random"

    @property
    def is_regular(self) -> bool:
        """Whether the hardware prefetcher can follow this pattern."""
        return self is not AccessPattern.RANDOM


SeedLike = Union[int, None, np.random.Generator]


def make_rng(seed: SeedLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` from a seed or pass one through.

    Every stochastic component in the library takes a ``seed`` argument and
    funnels it through here, so a single integer makes an entire experiment
    reproducible.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn_rng(rng: np.random.Generator) -> np.random.Generator:
    """Derive an independent child generator from ``rng``.

    Uses the SeedSequence spawn mechanism, which guarantees statistical
    independence between parent and children; drawing integers from the
    parent to reseed children does not, and silently correlates streams.
    """
    return rng.spawn(1)[0]


def seq_sum(values: Iterable[float]) -> float:
    """Left-to-right float sum from 0.0.

    The builtin ``sum`` compensates rounding for Python floats from
    CPython 3.12 on, which would make every result that sums floats depend
    on the interpreter; this loop adds in order, as ``sum`` did up to 3.11.
    """
    total = 0.0
    for v in values:
        total += v
    return total


def zipf_weights(n: int, s: float = 1.1, rng: SeedLike = None) -> np.ndarray:
    """Normalised Zipf-like popularity weights over ``n`` items.

    Used to model the skewed page-hotness distribution of RANDOM-pattern
    objects: a few pages absorb most indirect accesses.  When ``rng`` is
    given the rank order is shuffled so hot pages are scattered through the
    address range (as they are in a real heap) rather than sorted.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    ranks = np.arange(1, n + 1, dtype=np.float64)
    w = ranks ** (-s)
    if rng is not None:
        make_rng(rng).shuffle(w)
    return w / w.sum()
