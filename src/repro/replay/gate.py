"""SLO regression gate: replay + backtest vs committed thresholds.

:func:`evaluate_gate` checks two surfaces against
``.github/slo-baseline.json``:

* **replay** -- divergence / lost / duplicated counts from a
  :class:`~repro.replay.replayer.ReplayReport` (the bit-exact contract;
  all baselines are 0);
* **slo** -- the candidate's backtested SLO relative to the incumbent's
  on the *same* recording (latency ratios, shed-rate increase, migration
  and quota-high-water ratios).

Every violation is structured -- ``{"threshold", "limit", "observed"}``
plus detail -- so CI logs name exactly which contract broke.

The module is also the ``replay-gate`` CLI: replay a recording, backtest
incumbent vs candidate overrides, evaluate, emit JSON, exit non-zero on
any violation.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Mapping

from repro.replay.backtest import CostModel, backtest
from repro.replay.config import ServiceConfig
from repro.replay.recorder import Recording
from repro.replay.replayer import ReplayReport, replay_recording

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.model import PerformanceModel
    from repro.core.telemetry import Telemetry

__all__ = ["DEFAULT_BASELINE_PATH", "evaluate_gate", "load_baseline", "main"]

#: The checkout this module runs from (``src/repro/replay/gate.py`` ->
#: repository root): committed inputs are found from here, not from the
#: working directory, so results do not depend on where a run starts.
CHECKOUT_ROOT = Path(__file__).resolve().parents[3]
DEFAULT_BASELINE_PATH = CHECKOUT_ROOT / ".github" / "slo-baseline.json"


def load_baseline(path: str | Path = DEFAULT_BASELINE_PATH) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _ratio(candidate: float, incumbent: float) -> float:
    if incumbent > 0:
        return candidate / incumbent
    return math.inf if candidate > 0 else 1.0


def evaluate_gate(
    baseline: Mapping,
    *,
    replay: ReplayReport | Mapping | None = None,
    incumbent: Mapping | None = None,
    candidate: Mapping | None = None,
    telemetry: "Telemetry | None" = None,
) -> list[dict]:
    """All threshold violations (empty list == gate passes).

    ``replay`` gates the bit-exact contract; ``incumbent``/``candidate``
    are per-config SLO dicts from :func:`~repro.replay.backtest.backtest`
    and gate the relative SLO thresholds.  Either surface may be omitted.
    """
    violations: list[dict] = []

    def violate(threshold: str, limit, observed, **detail) -> None:
        violations.append(
            {"threshold": threshold, "limit": limit, "observed": observed, **detail}
        )
        if telemetry is not None:
            telemetry.inc(
                "merch_replay_gate_violations_total", threshold=threshold
            )

    replay_limits = baseline.get("replay", {})
    if replay is not None:
        rep = replay.to_dict() if isinstance(replay, ReplayReport) else dict(replay)
        checks = (
            ("divergence_max", rep.get("divergent", 0)),
            ("lost_max", rep.get("lost", 0)),
            ("duplicated_max", rep.get("duplicated", 0)),
        )
        for name, observed in checks:
            limit = replay_limits.get(name)
            if limit is not None and observed > limit:
                detail = {}
                if name == "divergence_max" and rep.get("first_divergence"):
                    detail["first_divergence"] = rep["first_divergence"]
                violate(f"replay.{name}", limit, observed, **detail)

    slo_limits = baseline.get("slo", {})
    if incumbent is not None and candidate is not None:
        ratios = (
            ("p50_latency_ratio_max", "p50_s"),
            ("p95_latency_ratio_max", "p95_s"),
            ("migration_pages_ratio_max", "migration_pages"),
            ("quota_highwater_ratio_max", "quota_highwater_pages"),
        )
        for name, key in ratios:
            limit = slo_limits.get(name)
            if limit is None:
                continue
            observed = _ratio(float(candidate[key]), float(incumbent[key]))
            if observed > limit:
                violate(
                    f"slo.{name}",
                    limit,
                    observed,
                    incumbent=incumbent[key],
                    candidate=candidate[key],
                )
        limit = slo_limits.get("shed_rate_increase_max")
        if limit is not None:
            observed = float(candidate["shed_rate"]) - float(incumbent["shed_rate"])
            if observed > limit:
                violate(
                    "slo.shed_rate_increase_max",
                    limit,
                    observed,
                    incumbent=incumbent["shed_rate"],
                    candidate=candidate["shed_rate"],
                )
    return violations


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def _coerce_override(incumbent: ServiceConfig, key: str, raw: str):
    """Parse a ``--candidate key=value`` string to the field's type."""
    fields = {f.name: f for f in dataclasses.fields(ServiceConfig)}
    if key not in fields:
        raise SystemExit(
            f"unknown ServiceConfig field {key!r} "
            f"(choose from {sorted(fields)})"
        )
    current = getattr(incumbent, key)
    if key == "faults":
        return json.loads(raw) if raw.lower() != "none" else None
    if isinstance(current, bool):
        return raw.lower() in ("1", "true", "yes")
    if isinstance(current, int):
        return int(raw)
    if isinstance(current, float) or raw.lower() in ("inf", "infinity"):
        return float(raw)
    return raw


def _build_model(meta: Mapping, seed: int | None, full: bool) -> "PerformanceModel":
    from repro.experiments.common import ExperimentContext

    model_seed = int(meta.get("model_seed", seed if seed is not None else 0))
    fast = bool(meta.get("fast", not full))
    ctx = ExperimentContext(seed=model_seed, fast=fast)
    return ctx.system.performance_model


def main(argv: list[str] | None = None, *, model: "PerformanceModel | None" = None) -> int:
    parser = argparse.ArgumentParser(
        prog="replay-gate",
        description="Replay a flight recording, A/B-backtest candidate "
        "config overrides, and gate against SLO baselines.",
    )
    parser.add_argument("recording", help="flight recording file (.mfr)")
    parser.add_argument(
        "--baseline",
        default=str(DEFAULT_BASELINE_PATH),
        help="threshold file (default: %(default)s)",
    )
    parser.add_argument(
        "--candidate",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="candidate config override vs the recorded incumbent "
        "(repeatable, e.g. --candidate cache_capacity=1024)",
    )
    parser.add_argument("--json", dest="json_out", help="write the report here")
    parser.add_argument(
        "--seed", type=int, default=None,
        help="model seed fallback when the recording's meta lacks one",
    )
    parser.add_argument(
        "--full", action="store_true",
        help="full-strength model fallback when the meta lacks 'fast'",
    )
    args = parser.parse_args(argv)

    recording = Recording.load(args.recording)
    baseline = load_baseline(args.baseline)
    if model is None:
        model = _build_model(recording.meta, args.seed, args.full)
    incumbent_config = ServiceConfig.from_dict(recording.meta["config"])

    replay = replay_recording(recording, model)

    overrides = {}
    for item in args.candidate:
        key, _, raw = item.partition("=")
        if not _:
            raise SystemExit(f"--candidate expects KEY=VALUE, got {item!r}")
        overrides[key] = _coerce_override(incumbent_config, key, raw)
    configs = {"incumbent": incumbent_config}
    if overrides:
        configs["candidate"] = incumbent_config.with_overrides(**overrides)
    ab = backtest(recording, model, configs, cost=CostModel())

    incumbent_slo = ab["configs"]["incumbent"]
    candidate_slo = ab["configs"].get("candidate")
    violations = evaluate_gate(
        baseline,
        replay=replay,
        incumbent=incumbent_slo if candidate_slo is not None else None,
        candidate=candidate_slo,
    )
    report = {
        "recording": str(args.recording),
        "baseline": str(args.baseline),
        "candidate_overrides": overrides,
        "replay": replay.to_dict(),
        "backtest": ab,
        "violations": violations,
        "ok": not violations,
    }
    if args.json_out:
        out = Path(args.json_out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(report, indent=2, sort_keys=True))

    print(
        f"replay: {replay.requests} requests, {replay.matched} matched, "
        f"{replay.divergent} divergent, {replay.lost} lost, "
        f"{replay.duplicated} duplicated"
    )
    if candidate_slo is not None:
        print(
            "backtest: incumbent p95 "
            f"{incumbent_slo['p95_s']:.4f}s shed {incumbent_slo['shed_rate']:.3f} | "
            f"candidate p95 {candidate_slo['p95_s']:.4f}s "
            f"shed {candidate_slo['shed_rate']:.3f}"
        )
    if violations:
        print("GATE FAILED -- violated thresholds:", file=sys.stderr)
        for v in violations:
            print(
                f"  {v['threshold']}: observed {v['observed']} "
                f"> limit {v['limit']}",
                file=sys.stderr,
            )
        return 1
    print("gate passed: no divergence, no SLO regression")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
