"""Worker pool for running independent experiments in parallel.

``python -m repro.experiments.runner all --jobs N`` fans independent
experiments out to processes (``mode="process"`` -- full isolation, one
:class:`~repro.experiments.common.ExperimentContext` per worker, built by
the ``initializer``).  ``mode="serial"`` runs inline.
"""

from __future__ import annotations

import concurrent.futures
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.telemetry import Telemetry

__all__ = ["WorkerPool", "JobResult"]

_MODES = ("serial", "process")


@dataclass(frozen=True)
class JobResult:
    """Outcome of one pooled job: the value, or the captured failure.

    Failure isolation is the pool's contract with the runner: one broken
    job never takes down its siblings, and the traceback survives the
    process boundary as text.
    """

    index: int
    ok: bool
    value: object = None
    error_type: str = ""
    error: str = ""
    traceback: str = ""

    def failure_payload(self) -> dict:
        """The failure in the runner's canonical shape
        (``{"failed", "error_type", "error", "traceback"}``), so pool
        deaths and in-experiment exceptions serialize identically."""
        if self.ok:
            raise ValueError("failure_payload() on a successful JobResult")
        return {
            "failed": True,
            "error_type": self.error_type,
            "error": self.error,
            "traceback": self.traceback,
        }


def _guarded(fn: Callable, index: int, args: tuple) -> JobResult:
    import traceback as _traceback

    try:
        return JobResult(index=index, ok=True, value=fn(*args))
    except Exception as exc:
        return JobResult(
            index=index,
            ok=False,
            error_type=type(exc).__name__,
            error=str(exc),
            traceback=_traceback.format_exc(),
        )


class WorkerPool:
    """Order-preserving map over an executor, with per-job failure capture.

    ``mode="serial"`` runs inline (no executor at all): it is the
    deterministic baseline the parallel modes are tested against, and the
    automatic fallback for ``workers <= 1``.
    """

    def __init__(
        self,
        workers: int = 4,
        mode: str = "process",
        initializer: Callable | None = None,
        initargs: tuple = (),
        telemetry: "Telemetry | None" = None,
    ) -> None:
        if mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if workers == 1:
            mode = "serial"
        self.workers = workers
        self.mode = mode
        self.telemetry = telemetry
        self._initializer = initializer
        self._initargs = initargs
        self._executor: concurrent.futures.Executor | None = None

    # ------------------------------------------------------------------
    def __enter__(self) -> "WorkerPool":
        if self.mode == "process":
            self._executor = concurrent.futures.ProcessPoolExecutor(
                max_workers=self.workers,
                initializer=self._initializer,
                initargs=self._initargs,
            )
        elif self._initializer is not None:
            self._initializer(*self._initargs)
        return self

    def __exit__(self, *exc_info) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    # ------------------------------------------------------------------
    def map(self, fn: Callable, items: Iterable[tuple] | Iterable[object]) -> list[JobResult]:
        """Run ``fn(*item)`` for every item; results in submission order.

        Non-tuple items are treated as single arguments.  Each job's
        exception (if any) is captured in its :class:`JobResult` rather
        than raised, so a batch always yields one result per item.
        """
        jobs: list[tuple] = [
            item if isinstance(item, tuple) else (item,) for item in items
        ]
        if self.telemetry is not None and jobs:
            self.telemetry.inc(
                "merch_service_pool_jobs_total", len(jobs), mode=self.mode
            )
        if self.mode == "serial" or self._executor is None:
            return [_guarded(fn, i, args) for i, args in enumerate(jobs)]
        futures = [
            self._executor.submit(_guarded, fn, i, args)
            for i, args in enumerate(jobs)
        ]
        results = [f.result() for f in futures]
        return sorted(results, key=lambda r: r.index)
