"""The benchmark's clock, and the host speed it is read at.

The benchmark runs on shared hosts whose speed drifts: a neighbour's load
on the same core or cache slows every instruction, so on a shared 2-vCPU
Xeon the same pass took up to twice the CPU time from one minute to the
next.  To report the
program's cost rather than the host's mood, a run interleaves short slices
of a fixed *reference kernel* with its work: a CPU-time timer fires every
``SLICE_EVERY_S`` CPU seconds and runs one slice from the signal handler.
The slices see the same host as the work around them, so

    factor = REF_SLICE_S / (mean CPU seconds of one slice during the run)

turns the run's CPU seconds into seconds at a fixed reference speed (the
speed at which one slice takes ``REF_SLICE_S``).  A pass or a setup is
read with the slices that ran inside it; a single decision, too short to
hold many, with the slices nearest to it (``local_factors``).  The kernel
is plain numpy and Python, no code of the program, so a change to the
program moves the work and never the yardstick.

``clock()`` is CPU seconds of the calling thread (the benchmark is single
threaded) minus those spent in slices, so every interval the benchmark
times excludes the slices that fired inside it.  It reads the thread's
clock because, while a process CPU timer is armed, Linux only updates the
process clock at scheduler ticks (every 4 ms at HZ=250).
"""

from __future__ import annotations

import signal
import time

import numpy as np

__all__ = ["REF_SLICE_S", "SLICE_EVERY_S", "Calibration", "clock", "local_factors"]

#: CPU seconds of work between two slices
SLICE_EVERY_S = 0.1
#: nominal CPU seconds of one slice: reported times are scaled to the host
#: speed at which a slice takes this long
REF_SLICE_S = 0.0025

_rng = np.random.default_rng(20231)
_INDEX = _rng.integers(0, 256, size=1024)
_WEIGHT = _rng.random(1024)
#: kernel repetitions in one slice (about ``REF_SLICE_S`` on a 2.1 GHz Xeon)
_REPS = 130

_probe_s = 0.0
_slices = 0
#: ``clock()`` at the end of each slice, and the slice's CPU seconds
_ends: list[float] = []
_durations: list[float] = []


def clock() -> float:
    """CPU seconds of this thread, minus those spent in reference slices."""
    return time.thread_time() - _probe_s


def _reference_kernel() -> float:
    """Small-array numpy and interpreter work, in the program's proportions."""
    acc = 0.0
    table: dict[int, float] = {}
    for r in range(_REPS):
        a = np.zeros(256)
        np.add.at(a, _INDEX, _WEIGHT)
        order = np.argsort(a)
        acc += float(a[order[-1]]) + float(a[a > 2.0].sum())
        for j in range(40):
            key = (r * 7 + j) % 53
            table[key] = table.get(key, 0.0) + j * 0.5
            acc += (j * 1.0001) ** 0.5
    return acc


def _slice(signum, frame) -> None:
    global _probe_s, _slices
    t0 = time.thread_time()
    _reference_kernel()
    t1 = time.thread_time()
    _probe_s += t1 - t0
    _slices += 1
    _ends.append(t1 - _probe_s)
    _durations.append(t1 - t0)


class Calibration:
    """Runs reference slices while entered; ``factor()`` reads them.

    ``mark()`` starts a new reading: ``factor()`` covers the slices since.
    """

    def __enter__(self) -> "Calibration":
        self._previous = signal.signal(signal.SIGPROF, _slice)
        signal.setitimer(signal.ITIMER_PROF, SLICE_EVERY_S, SLICE_EVERY_S)
        self.mark()
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous)

    def mark(self) -> None:
        self._since = (_probe_s, _slices)

    def reading(self) -> tuple[float, int]:
        """(CPU seconds in slices, slices) since the last ``mark()``."""
        return _probe_s - self._since[0], _slices - self._since[1]

    def factor(self) -> float:
        """Reference seconds per measured CPU second since the last mark."""
        probe_s, slices = self.reading()
        if slices == 0:
            return 1.0
        return REF_SLICE_S * slices / probe_s


def local_factors(starts, ends, nearest: int = 16) -> np.ndarray:
    """Reference seconds per CPU second around each ``[start, end]`` clock
    interval, read from the ``nearest`` slices to its midpoint."""
    if not _ends:
        return np.ones(len(starts))
    slice_ends = np.asarray(_ends)
    csum = np.concatenate(([0.0], np.cumsum(_durations)))
    mid = (np.asarray(starts) + np.asarray(ends)) / 2
    lo = np.searchsorted(slice_ends, mid) - nearest // 2
    lo = np.clip(lo, 0, max(len(slice_ends) - nearest, 0))
    hi = np.minimum(lo + nearest, len(slice_ends))
    return REF_SLICE_S * (hi - lo) / (csum[hi] - csum[lo])
