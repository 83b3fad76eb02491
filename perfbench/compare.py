"""Compare two result sets (parent vs change) metric by metric.

    python3 perfbench/compare.py parent.json change.json

Runs are paired by (workload, seed); ``collect.py --against`` makes the
pairs and alternates which side runs first.  Each (metric, workload) is
reported as

* ``improved``   -- at least ten pairs, the change wins at least 9 of 10 of
  them (ties count for neither side), and the medians differ, in the
  better direction, by more than the parent's interquartile distance;
* ``worse``      -- the change's median is worse than the parent's by more
  than the metric's bound from ``BENCHMARK.json``;
* ``unresolved`` -- fewer than ten pairs, or the parent's own spread is
  wider than the bound (unless every change run beats every parent run);
* ``unchanged``  -- otherwise.

Per-layer metrics carry no bound: ``worse`` there is the win rule with the
sides swapped.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

from collect import BENCHMARK, quartiles

MIN_PAIRS = 10
WIN_SHARE = 0.9


@dataclass(frozen=True)
class Verdict:
    status: str
    pairs: int
    wins: int
    losses: int
    parent_median: float
    change_median: float
    parent_iqr: float

    @property
    def delta(self) -> float:
        if self.parent_median == 0:
            return 0.0
        return (self.change_median - self.parent_median) / abs(self.parent_median)


def judge(parent: list[float], change: list[float], better: str, bound: float | None) -> Verdict:
    """Apply the rule to paired samples (``parent[i]`` pairs ``change[i]``)."""
    sign = 1.0 if better == "higher" else -1.0
    pairs = min(len(parent), len(change))
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    losses = sum(1 for p, c in zip(parent, change) if sign * (c - p) < 0)
    p_q1, p_med, p_q3 = quartiles(parent)
    _, c_med, _ = quartiles(change)
    iqr = p_q3 - p_q1

    def verdict(status: str) -> Verdict:
        return Verdict(status, pairs, wins, losses, p_med, c_med, iqr)

    if pairs < MIN_PAIRS:
        return verdict("unresolved")
    gap = sign * (c_med - p_med)
    if wins >= WIN_SHARE * pairs and gap > iqr:
        return verdict("improved")
    if bound is None:
        if losses >= WIN_SHARE * pairs and -gap > iqr:
            return verdict("worse")
        return verdict("unchanged")
    scale = abs(p_med)
    if scale and iqr / scale > bound:
        if all(sign * (c - p) > 0 for c in change for p in parent):
            return verdict("improved")
        return verdict("unresolved")
    if -gap > bound * scale:
        return verdict("worse")
    return verdict("unchanged")


def _paired(parent_set: dict, change_set: dict):
    """workload -> metric -> (parent values, change values), seed-aligned."""
    def index(s):
        return {(r["workload"], r["seed"], r["trace"]): r for r in s["runs"]}

    p_runs, c_runs = index(parent_set), index(change_set)
    out: dict = {}
    for key in sorted(set(p_runs) & set(c_runs)):
        workload = key[0]
        p_metrics = p_runs[key]["result"]["metrics"]
        c_metrics = c_runs[key]["result"]["metrics"]
        for name in p_metrics.keys() & c_metrics.keys():
            p_vals, c_vals = out.setdefault(workload, {}).setdefault(name, ([], []))
            p_vals.append(p_metrics[name]["value"])
            c_vals.append(c_metrics[name]["value"])
    return out


def compare(parent_set: dict, change_set: dict) -> dict:
    specs = {m["name"]: m for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}
    out: dict = {}
    for workload, metrics in _paired(parent_set, change_set).items():
        for name, (p_vals, c_vals) in sorted(metrics.items()):
            spec = specs.get(name)
            if spec is None:
                continue
            out.setdefault(workload, {})[name] = judge(
                p_vals, c_vals, spec["better"], spec.get("bound")
            )
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    result = compare(json.loads(args.parent.read_text()), json.loads(args.change.read_text()))
    regressions = 0
    for workload, metrics in result.items():
        for name, v in metrics.items():
            regressions += v.status == "worse"
            print(
                f"{workload:12s} {name:42s} {v.status:10s} pairs={v.pairs:3d} "
                f"wins={v.wins:3d} parent={v.parent_median:.6g} change={v.change_median:.6g} "
                f"({v.delta:+.1%}, parent IQR {v.parent_iqr:.3g})"
            )
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
