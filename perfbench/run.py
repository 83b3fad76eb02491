"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload paper_merch --seed 0 --seconds 10 --trace 0

The process is single-threaded: BLAS/OpenMP pools are pinned to one thread
before numpy loads.  A run sets the workload up ``SETUP_REPS`` times
(training plus input construction; ``setup_s`` is the median), runs one
untimed warm-up pass at small size, then timed passes for as long as the
next one still ends within ``--seconds`` (at least one).  Every pass's
simulated outputs must equal the first pass's bit for bit, and on seed 0
the committed ``results/`` values; an op that raises or fails a check
counts as failed.

Times are CPU seconds of the process (``workloads.CLOCK``) scaled to a
fixed reference host speed, read from reference slices interleaved with
the work (``hostspeed``): one factor for each setup and each pass, and for
each decision the factor of the slices nearest to it.  The raw CPU
seconds, host wall seconds and pass factors are in the provenance line.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` instead prints
the per-layer metrics: after the untraced passes it runs one traced setup
and one traced pass with spans around every layer's public calls
(``tracer.SPANS``), and writes the spans to ``.bench_out/``.  The last
stdout line is the result object; the line before it stamps the provenance
(source digest, git sha, host, seed, sample counts, per-pass times).
"""

from __future__ import annotations

import os

for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_var] = "1"
# the benchmark measures the production kernels, never the scalar twin
os.environ.pop("MERCH_SCALAR_KERNELS", None)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
#: setup repetitions per run; ``setup_s`` is their median
SETUP_REPS = {"paper": 2, "smoke": 1}


def _percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def _source_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _git_sha(root: Path) -> str | None:
    """HEAD of ``root`` when it is itself a git work tree, else None."""
    try:
        out = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != root:
        return None
    return lines[1]


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Run:
    """Measurement state of one workload run."""

    def __init__(self, workload_cls, seed: int, size: str, root: Path) -> None:
        from workloads import CLOCK

        self.clock = CLOCK
        self.cls = workload_cls
        self.seed = seed
        self.size = size
        self.root = root
        self.reference: dict | None = None
        self.attempted = 0
        self.failed = 0
        #: first failure reason per op
        self.failures: dict[str, str] = {}
        #: host wall seconds per pass, for the provenance line
        self.host_walls: list[float] = []

    def new(self):
        return self.cls(self.seed, self.size, self.root)

    def setup(self, cal) -> list[float]:
        """Set the workload up ``SETUP_REPS`` times; each in reference seconds."""
        times = []
        for _ in range(SETUP_REPS[self.size]):
            wl = self.new()
            cal.mark()
            t0 = self.clock()
            wl.setup()
            times.append((self.clock() - t0) * cal.factor())
        self.wl = wl
        return times

    def one_pass(self, recorder) -> float:
        """Run and check one pass; returns its CPU seconds."""
        h0, t0 = time.perf_counter(), self.clock()
        outputs, failed = self.wl.run_pass(recorder)
        cpu = self.clock() - t0
        self.host_walls.append(time.perf_counter() - h0)
        if self.reference is None:
            self.reference = outputs
        for key, out in outputs.items():
            if key not in failed and self.reference.get(key) != out:
                failed[key] = "simulated outputs differ from the first pass"
        self.attempted += len(set(outputs) | set(failed))
        self.failed += len(failed)
        for key, why in failed.items():
            self.failures.setdefault(key, why)
        return cpu


def measure(args, root: Path) -> tuple[dict, dict]:
    from hostspeed import Calibration

    with Calibration() as cal:
        return _measure(args, root, cal)


def _measure(args, root: Path, cal) -> tuple[dict, dict]:
    import numpy as np

    from hostspeed import local_factors
    from tracer import COUNTS, SPANS, Tracer
    from workloads import CLOCK, WORKLOADS, Recorder

    run = Run(WORKLOADS[args.workload], args.seed, args.size, root)
    setup_times = run.setup(cal)
    run.wl.warmup()

    walls: list[float] = []
    cpu_walls: list[float] = []
    factors: list[float] = []
    decisions: list[tuple[float, float]] = []
    counts: dict[str, float] = {}
    # passes while the next one, as long as the slowest so far, still ends
    # within --seconds of host time (at least one)
    t_start = time.perf_counter()
    while not walls or (
        time.perf_counter() - t_start + max(run.host_walls) <= args.seconds
    ):
        rec = Recorder()
        cal.mark()
        cpu_walls.append(run.one_pass(rec))
        factors.append(cal.factor())
        walls.append(cpu_walls[-1] * factors[-1])
        decisions.extend(rec.decision_s)
        counts = counts or rec.counts
    # each decision in reference seconds at the host speed around it
    starts, spans = np.array(decisions, dtype=np.float64).reshape(-1, 2).T
    decision_s = spans * local_factors(starts, starts + spans)
    virt_makespan, mean_acv = run.wl.summarize(run.reference)
    wall_s = statistics.median(walls)

    if not args.trace:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "wall_s": (wall_s, "s"),
            "peak_rss_mb": (_peak_rss_mb(), "MB"),
            "decision_p50_ms": (1e3 * _percentile(decision_s, 50), "ms"),
            "decision_p95_ms": (1e3 * _percentile(decision_s, 95), "ms"),
            "ops_per_s": (run.attempted / sum(walls), "1/s"),
        }
        extra = {"virt_makespan_s": virt_makespan, "acv": mean_acv, "pass_counts": counts}
    else:
        # one traced setup for the training spans, then one traced pass on
        # the warmed instance; per-layer numbers are their sum
        cal.mark()
        with Tracer(clock=CLOCK) as setup_tracer:
            run.new().setup()
        rec = Recorder()
        with Tracer(clock=CLOCK) as pass_tracer:
            traced_wall = run.one_pass(rec)
        traced_factor = cal.factor()
        per_layer = pass_tracer.per_layer()
        for name, (calls, self_s) in setup_tracer.per_layer().items():
            c, s = per_layer.get(name, (0, 0.0))
            per_layer[name] = (c + calls, s + self_s)
        counts = {name: 0 for name in COUNTS}
        counts.update(rec.counts)
        counts.update(pass_tracer.counts)
        metrics = {}
        for span in SPANS:
            calls, self_s = per_layer.get(span.name, (0, 0.0))
            metrics[f"{span.name}.calls"] = (calls, "count")
            metrics[f"{span.name}.self_s"] = (self_s * traced_factor, "s")
        for name, (unit, _better) in COUNTS.items():
            metrics[name] = (counts[name], unit)
        metrics["virt_makespan_s"] = (virt_makespan, "virt_s")
        metrics["acv"] = (mean_acv, "ratio")
        metrics["trace.overhead_s"] = (traced_wall * traced_factor - wall_s, "s")
        out_dir = HERE.parent / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        trace_path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
        trace_path.write_text(
            json.dumps({"setup": setup_tracer.columns(), "pass": pass_tracer.columns()})
        )
        top = sorted(
            pass_tracer.per_layer().items(), key=lambda kv: kv[1][1], reverse=True
        )[:3]
        extra = {
            "top_pass_self_s": {
                name: round(s * traced_factor, 6) for name, (_c, s) in top
            },
            "spans": len(setup_tracer.records) + len(pass_tracer.records),
            "trace_file": str(trace_path.relative_to(HERE.parent)),
        }
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "trace": args.trace,
        "git_sha": _git_sha(root),
        "source_digest": _source_digest(root),
        "host": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": __import__("numpy").__version__,
            "machine": platform.machine(),
        },
        "samples": {
            "setup_reps": len(setup_times),
            "passes": len(walls),
            "decisions": len(decision_s),
            "attempted_ops": run.attempted,
            "failed_ops": run.failed,
        },
        "fail_ratio": run.failed / max(run.attempted, 1),
        "setup_times_s": setup_times,
        "pass_cpu_s": cpu_walls,
        "pass_host_walls_s": run.host_walls,
        "pass_factors": factors,
        "failures": dict(list(run.failures.items())[:10]),
        **extra,
    }
    return metrics, provenance


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=tuple(SETUP_REPS), default="paper",
        help="smoke: test-sized apps and corpus, for the self-tests",
    )
    parser.add_argument(
        "--root", default=None,
        help="source tree to measure (default: the checkout holding this file)",
    )
    args = parser.parse_args(argv)
    root = Path(args.root).resolve() if args.root else HERE.parent
    if not (root / "src" / "repro").is_dir():
        print(f"no source tree at {root / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; have {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    metrics, provenance = measure(args, root)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:12s} {name:42s} {value:>16.6g} {unit}")
    print(f"{args.workload:12s} {'fail_ratio':42s} {provenance['fail_ratio']:>16.6g} ratio")
    for why in provenance["failures"].items():
        print("FAILED", *why, file=sys.stderr)
    print(json.dumps({"provenance": provenance}))
    samples = provenance["samples"]
    result = {
        "correct": samples["failed_ops"] == 0,
        "attempted": samples["attempted_ops"],
        "failed": samples["failed_ops"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
