"""Run the benchmark over many seeds and write a result set.

    python3 perfbench/collect.py --seeds 0-9 --out .bench_out/sets
    python3 perfbench/collect.py --seeds 0-9 --against ../parent --out .bench_out/ab

Each run is its own process (``run.py``).  With ``--against TREE`` every
seed is run on both source trees, alternating which side goes first, and
two sets are written (``parent.json`` for TREE, ``change.json`` for this
checkout) for ``compare.py``; otherwise one set, ``<label>.json``.  A set
holds every run's result line and provenance, per workload and metric the
median and quartiles, and the layer map (``tracer.SPANS``) it was measured
with.  ``trajectory/BENCH_<n>.json`` are such sets.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        v = float(values[0])
        return v, v, v
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def summarize(runs: list[dict]) -> dict:
    """workload -> metric -> median, quartiles and spread (IQR / median)."""
    values: dict[str, dict[str, list[float]]] = {}
    for run in runs:
        per = values.setdefault(run["workload"], {})
        for name, m in run["result"]["metrics"].items():
            per.setdefault(name, []).append(m["value"])
    out: dict = {}
    for workload, metrics in values.items():
        out[workload] = {}
        for name, vals in metrics.items():
            q1, med, q3 = quartiles(vals)
            out[workload][name] = {
                "n": len(vals),
                "median": med,
                "q1": q1,
                "q3": q3,
                "spread": (q3 - q1) / abs(med) if med else 0.0,
            }
    return out


def run_one(root: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [
        sys.executable, str(HERE / "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace), "--root", str(root),
    ]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    elapsed = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(
            f"{workload} seed {seed} on {root} exited {proc.returncode}:\n{proc.stderr[-2000:]}"
        )
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "elapsed_s": elapsed,
        "provenance": json.loads(lines[-2])["provenance"],
        "result": json.loads(lines[-1]),
    }


def write_set(path: Path, label: str, runs: list[dict]) -> None:
    from tracer import SPANS

    layers = {s.name: {"targets": s.targets, "moves": s.moves, "on": s.on} for s in SPANS}
    path.write_text(
        json.dumps(
            {"label": label, "runs": runs, "summary": summarize(runs), "layers": layers},
            indent=1,
        )
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in BENCHMARK["workloads"]))
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--seconds", type=int, default=BENCHMARK["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--against", default=None, help="parent source tree to alternate with")
    parser.add_argument("--label", default="change", help="set name without --against")
    parser.add_argument("--out", required=True, help="directory for the result sets")
    args = parser.parse_args(argv)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    this = HERE.parent
    sides = {args.label: this}
    if args.against:
        sides = {"parent": Path(args.against).resolve(), "change": this}
    runs: dict[str, list[dict]] = {label: [] for label in sides}
    for workload in args.workloads.split(","):
        for i, seed in enumerate(parse_seeds(args.seeds)):
            order = list(sides) if i % 2 == 0 else list(reversed(sides))
            for label in order:
                run = run_one(sides[label], workload, seed, args.seconds, args.trace)
                run["first"] = label == order[0]
                runs[label].append(run)
                metrics = run["result"]["metrics"]
                shown = " ".join(
                    f"{k}={v['value']:.4g}" for k, v in list(metrics.items())[:8]
                )
                print(
                    f"{label:6s} {workload:12s} seed {seed:3d} {run['elapsed_s']:6.1f}s "
                    f"correct={run['result']['correct']} {shown}",
                    flush=True,
                )
            for label in sides:
                write_set(out / f"{label}.json", label, runs[label])
    for label in sides:
        print(f"\n{label}: median [q1, q3] spread")
        for workload, metrics in summarize(runs[label]).items():
            for name, s in metrics.items():
                print(
                    f"  {workload:12s} {name:40s} {s['median']:12.6g} "
                    f"[{s['q1']:.6g}, {s['q3']:.6g}] {s['spread']:.3f}"
                )
    return 0


if __name__ == "__main__":
    sys.exit(main())
