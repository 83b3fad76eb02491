"""Runtime guardrails: keep Merchandiser sane under imperfect information.

The policy trusts three external information sources -- profiler samples,
PMC reads and the migration syscall path -- and each can fail (see
:mod:`repro.sim.faults`).  Four guardrails bound the damage:

* :class:`MigrationRetrier` -- failed migration batches are retried with
  exponential backoff, a bounded number of times, then dropped and logged;
* :class:`QuotaValidator` -- estimator/model outputs that are NaN,
  non-positive, or more than ``max_ratio`` times away from the last known
  good value for the same task are replaced with the last known good (or
  the task is sent back to base profiling when none exists yet);
* :class:`MispredictionWatchdog` -- predicted region time is compared with
  the measured one; after ``trip_after`` consecutive regions above the
  error threshold the policy *degrades* to the MemoryOptimizer-style
  hot-page daemon (planning and gating off), and re-arms once
  ``rearm_after`` consecutive regions predict well again;
* alpha quarantine -- refinement windows flagged by the fault injector are
  discarded instead of being folded into the alpha table (implemented in
  the policy, counted here).

Every activation is a typed ``guardrail.*`` event in a
:class:`~repro.sim.faults.RobustnessLog`, surfaced through ``RunResult``;
a fault-free run emits none.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.sim.faults import RobustnessLog
from repro.sim.pages import MigrationBatch

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.telemetry import Telemetry

__all__ = [
    "GuardrailConfig",
    "Guardrails",
    "MigrationRetrier",
    "QuotaValidator",
    "MispredictionWatchdog",
]


@dataclass(frozen=True)
class GuardrailConfig:
    """Thresholds of the guardrail layer (defaults documented in DESIGN.md)."""

    #: migration retry: bounded attempts with exponential backoff
    max_retry_attempts: int = 3
    retry_backoff_s: float = 0.02

    #: sanity validation: reject values > max_ratio x (or < 1/max_ratio x)
    #: away from the last known good
    max_ratio: float = 10.0

    #: watchdog: one-sided *under-delivery* error per region,
    #: max(0, measured - predicted) / predicted.  Healthy plans on the
    #: bundled apps systematically over-predict (migration lag and
    #: contention are not in the planner's model), so under-delivery is the
    #: distinctive signature of a broken model or a disturbed environment
    watchdog_error_threshold: float = 0.5
    #: consecutive bad regions before degrading to the hot-page daemon
    watchdog_trip_after: int = 3
    #: consecutive good regions (while degraded) before re-arming
    watchdog_rearm_after: int = 2
    #: per-key cap on base-profile re-collections after flagged windows
    max_base_reprofiles: int = 2


def _finite_positive(*values: float) -> bool:
    return all(math.isfinite(v) and v > 0.0 for v in values)


class MigrationRetrier:
    """Retry failed migration batches with bounded exponential backoff."""

    def __init__(self, config: GuardrailConfig, log: RobustnessLog) -> None:
        self.config = config
        self.log = log
        self.telemetry: "Telemetry | None" = None
        #: (moves, attempt number, not-before virtual time)
        self._queue: list[tuple[MigrationBatch, int, float]] = []
        #: attempt count of the most recently emitted tick batch (0 = all
        #: fresh moves); a failure reported next tick is charged against it
        self._emitted_attempts = 0

    def note_emitted(self, attempts: int) -> None:
        self._emitted_attempts = attempts

    def on_failure(self, batch: MigrationBatch, now: float) -> None:
        attempts = self._emitted_attempts + 1
        if attempts > self.config.max_retry_attempts:
            self.log.record(
                "guardrail.retry_dropped", now, pages=batch.n_pages, attempts=attempts
            )
            if self.telemetry is not None:
                self.telemetry.inc(
                    "merch_guardrail_retries_total", outcome="dropped"
                )
            return
        delay = self.config.retry_backoff_s * (2.0 ** (attempts - 1))
        self._queue.append((batch, attempts, now + delay))
        self.log.record(
            "guardrail.retry_scheduled",
            now,
            pages=batch.n_pages,
            attempt=attempts,
            at_s=now + delay,
        )
        if self.telemetry is not None:
            self.telemetry.inc("merch_guardrail_retries_total", outcome="scheduled")

    def pop_due(self, now: float) -> tuple[list[tuple[str, np.ndarray, int]], int]:
        """Moves whose backoff has elapsed, plus their max attempt count."""
        due = [entry for entry in self._queue if entry[2] <= now]
        if not due:
            return [], 0
        self._queue = [entry for entry in self._queue if entry[2] > now]
        moves: list[tuple[str, np.ndarray, int]] = []
        for batch, _, _ in due:
            moves.extend(batch.moves)
        return moves, max(attempt for _, attempt, _ in due)

    @property
    def pending(self) -> int:
        return sum(batch.n_pages for batch, _, _ in self._queue)

    # -- crash-consistency checkpoints ---------------------------------
    def snapshot_state(self) -> dict:
        return {
            "emitted_attempts": self._emitted_attempts,
            "queue": [
                {
                    "attempt": attempt,
                    "not_before_s": not_before,
                    "moves": [
                        {
                            "obj": name,
                            "pages": [int(p) for p in idx],
                            "dst": int(dst),
                        }
                        for name, idx, dst in batch.moves
                    ],
                }
                for batch, attempt, not_before in self._queue
            ],
        }

    def restore_state(self, state: dict) -> None:
        self._emitted_attempts = int(state["emitted_attempts"])
        self._queue = [
            (
                MigrationBatch(
                    moves=tuple(
                        (
                            move["obj"],
                            np.asarray(move["pages"], dtype=np.intp),
                            int(move["dst"]),
                        )
                        for move in entry["moves"]
                    )
                ),
                int(entry["attempt"]),
                float(entry["not_before_s"]),
            )
            for entry in state["queue"]
        ]


class QuotaValidator:
    """Clamp insane estimator/model outputs to the last known good."""

    def __init__(self, config: GuardrailConfig, log: RobustnessLog) -> None:
        self.config = config
        self.log = log
        self.telemetry: "Telemetry | None" = None
        #: per profile key: last validated (t_dram, t_pm, total_accesses)
        self._lkg: dict[str, tuple[float, float, float]] = {}

    def validate_inputs(
        self, key: str, t_dram: float, t_pm: float, total_acc: float, now: float
    ) -> tuple[float, float, float] | None:
        """Validated (t_dram, t_pm, total_accesses) for one task instance.

        Healthy values become the new last-known-good.  Insane values are
        replaced by the last known good; ``None`` means there is none yet
        and the caller should re-run base profiling for the task.
        """
        vals = (t_dram, t_pm, total_acc)
        lkg = self._lkg.get(key)
        insane = not _finite_positive(*vals)
        if not insane and lkg is not None:
            ratio = self.config.max_ratio
            insane = any(
                v > r * ratio or v < r / ratio for v, r in zip(vals, lkg)
            )
        if not insane:
            self._lkg[key] = vals
            return vals
        self.log.record(
            "guardrail.quota_clamp",
            now,
            key=key,
            t_dram=float(t_dram),
            t_pm=float(t_pm),
            total_accesses=float(total_acc),
            recovered=lkg is not None,
        )
        if self.telemetry is not None:
            self.telemetry.inc(
                "merch_guardrail_quota_clamps_total",
                recovered="yes" if lkg is not None else "no",
            )
        return lkg

    # -- N-tier forms of the quota sanity checks -----------------------
    # ``validate_inputs`` bakes in the 2-tier (t_dram, t_pm) endpoint pair;
    # these take the per-tier vectors the generalised planner produces.
    def validate_tier_inputs(
        self,
        key: str,
        tier_times: "tuple[float, ...] | list[float]",
        total_acc: float,
        now: float,
    ) -> tuple[tuple[float, ...], float] | None:
        """Validated ``(tier_times, total_accesses)`` for one task instance.

        The same last-known-good protocol as :meth:`validate_inputs`,
        elementwise over the per-tier endpoint times; on 2-tier vectors it
        makes exactly the decisions the scalar form makes.
        """
        vals = tuple(float(t) for t in tier_times) + (float(total_acc),)
        lkg = self._lkg.get(key)
        insane = not _finite_positive(*vals)
        if not insane and lkg is not None and len(lkg) == len(vals):
            ratio = self.config.max_ratio
            insane = any(
                v > r * ratio or v < r / ratio for v, r in zip(vals, lkg)
            )
        if not insane:
            self._lkg[key] = vals
            return vals[:-1], vals[-1]
        self.log.record(
            "guardrail.quota_clamp",
            now,
            key=key,
            tier_times=[float(t) for t in tier_times],
            total_accesses=float(total_acc),
            recovered=lkg is not None,
        )
        if self.telemetry is not None:
            self.telemetry.inc(
                "merch_guardrail_quota_clamps_total",
                recovered="yes" if lkg is not None else "no",
            )
        if lkg is None or len(lkg) != len(vals):
            return None
        return lkg[:-1], lkg[-1]

    def validate_plan_pages(
        self,
        pages_by_tier: "dict[str, tuple[int, ...] | list[int]]",
        capacities_pages: "tuple[int, ...] | list[int]",
        now: float,
    ) -> dict[str, tuple[int, ...]]:
        """Clamp a plan's per-tier page grants to the tier capacities.

        ``pages_by_tier`` maps each task to its per-tier page grants
        (fastest tier first).  Any tier whose summed grants exceed its
        capacity gets every task's grant for that tier scaled down
        proportionally (floored), and the over-commit is logged as a
        ``guardrail.tier_overcommit`` event.  The scalar 2-tier DRAM
        budget check is the ``len(capacities_pages) == 2`` case.
        """
        caps = [int(c) for c in capacities_pages]
        n = len(caps)
        out = {
            task: [int(p) for p in grants]
            for task, grants in pages_by_tier.items()
        }
        for grants in out.values():
            if len(grants) != n:
                raise ValueError(
                    "per-task grants must have one entry per tier"
                )
        for k in range(n):
            total = sum(grants[k] for grants in out.values())
            if total <= caps[k]:
                continue
            scale = caps[k] / total
            for grants in out.values():
                grants[k] = int(grants[k] * scale)
            self.log.record(
                "guardrail.tier_overcommit",
                now,
                tier=k,
                requested_pages=total,
                capacity_pages=caps[k],
            )
            if self.telemetry is not None:
                self.telemetry.inc(
                    "merch_guardrail_tier_overcommits_total", tier=str(k)
                )
        return {task: tuple(grants) for task, grants in out.items()}

    # -- crash-consistency checkpoints ---------------------------------
    def snapshot_state(self) -> dict:
        return {"lkg": {k: [float(x) for x in v] for k, v in self._lkg.items()}}

    def restore_state(self, state: dict) -> None:
        # entries are (t_dram, t_pm, total) on 2-tier and one-per-tier
        # plus total from validate_tier_inputs; keep whatever length
        # was checkpointed
        self._lkg = {
            k: tuple(float(x) for x in v) for k, v in state["lkg"].items()
        }


class MispredictionWatchdog:
    """Degrade to the hot-page daemon while predictions are unusable.

    State machine::

        ARMED --(trip_after consecutive bad regions)--> DEGRADED
        DEGRADED --(rearm_after consecutive good regions)--> ARMED

    While DEGRADED the policy stops planning and gating (pure
    MemoryOptimizer-style behaviour) but keeps predicting each region so
    recovery is observable.
    """

    def __init__(self, config: GuardrailConfig, log: RobustnessLog) -> None:
        self.config = config
        self.log = log
        self.telemetry: "Telemetry | None" = None
        self.degraded = False
        self._bad_streak = 0
        self._good_streak = 0

    def observe(self, predicted_s: float, measured_s: float, now: float) -> None:
        """Feed one region's (predicted, measured) execution time.

        The error is one-sided: running *slower* than promised is the
        failure the watchdog guards against (finishing early just means the
        conservative planner left margin, which is healthy behaviour).
        """
        if measured_s <= 0.0:
            return
        if math.isfinite(predicted_s) and predicted_s > 0.0:
            error = max(0.0, measured_s - predicted_s) / predicted_s
        else:
            error = math.inf
        bad = error > self.config.watchdog_error_threshold
        if not self.degraded:
            self._bad_streak = self._bad_streak + 1 if bad else 0
            if self._bad_streak >= self.config.watchdog_trip_after:
                self.degraded = True
                self._bad_streak = 0
                self._good_streak = 0
                self.log.record(
                    "guardrail.watchdog_degrade", now, error=float(error)
                )
                if self.telemetry is not None:
                    self.telemetry.inc(
                        "merch_guardrail_watchdog_transitions_total", to="degraded"
                    )
        else:
            self._good_streak = 0 if bad else self._good_streak + 1
            if self._good_streak >= self.config.watchdog_rearm_after:
                self.degraded = False
                self._good_streak = 0
                self._bad_streak = 0
                self.log.record(
                    "guardrail.watchdog_rearm", now, error=float(error)
                )
                if self.telemetry is not None:
                    self.telemetry.inc(
                        "merch_guardrail_watchdog_transitions_total", to="armed"
                    )

    # -- crash-consistency checkpoints ---------------------------------
    def snapshot_state(self) -> dict:
        return {
            "degraded": self.degraded,
            "bad_streak": self._bad_streak,
            "good_streak": self._good_streak,
        }

    def restore_state(self, state: dict) -> None:
        self.degraded = bool(state["degraded"])
        self._bad_streak = int(state["bad_streak"])
        self._good_streak = int(state["good_streak"])


class Guardrails:
    """The assembled guardrail layer one policy instance owns."""

    def __init__(self, config: GuardrailConfig | None = None) -> None:
        self.config = config or GuardrailConfig()
        self.log = RobustnessLog()
        self.telemetry: "Telemetry | None" = None
        self.retrier = MigrationRetrier(self.config, self.log)
        self.validator = QuotaValidator(self.config, self.log)
        self.watchdog = MispredictionWatchdog(self.config, self.log)
        self._reprofiles: dict[str, int] = {}

    def attach_telemetry(self, telemetry: "Telemetry | None") -> None:
        """Share one telemetry object with every guardrail component."""
        self.telemetry = telemetry
        self.retrier.telemetry = telemetry
        self.validator.telemetry = telemetry
        self.watchdog.telemetry = telemetry

    # -- alpha quarantine ----------------------------------------------
    def quarantine_alpha(self, key: str, now: float) -> None:
        """Record that a fault-flagged PEBS window was discarded."""
        self.log.record("guardrail.alpha_quarantine", now, key=key)
        if self.telemetry is not None:
            self.telemetry.inc("merch_guardrail_alpha_quarantines_total")

    # -- base-profile retry bookkeeping --------------------------------
    def may_requeue_base(self, key: str, now: float, reason: str) -> bool:
        """Whether a suspect base profile may be re-collected (bounded)."""
        used = self._reprofiles.get(key, 0)
        if used >= self.config.max_base_reprofiles:
            return False
        self._reprofiles[key] = used + 1
        self.log.record(
            "guardrail.base_profile_requeued", now, key=key, reason=reason
        )
        if self.telemetry is not None:
            self.telemetry.inc("merch_guardrail_base_reprofiles_total")
        return True

    # -- crash-consistency checkpoints ---------------------------------
    def snapshot_state(self) -> dict:
        """JSON-able guardrail state.  The event log is deliberately not
        checkpointed: events are per-incarnation observability, and a
        recovered run reports its own."""
        return {
            "retrier": self.retrier.snapshot_state(),
            "validator": self.validator.snapshot_state(),
            "watchdog": self.watchdog.snapshot_state(),
            "reprofiles": dict(self._reprofiles),
        }

    def restore_state(self, state: dict) -> None:
        self.retrier.restore_state(state["retrier"])
        self.validator.restore_state(state["validator"])
        self.watchdog.restore_state(state["watchdog"])
        self._reprofiles = {k: int(v) for k, v in state["reprofiles"].items()}
