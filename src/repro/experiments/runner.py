"""Experiment runner CLI.

Usage::

    python -m repro.experiments.runner all            # every experiment
    python -m repro.experiments.runner fig4 table3    # a selection
    python -m repro.experiments.runner all --full     # paper-sized corpus
    python -m repro.experiments.runner all --jobs 4   # process-parallel

``--full`` uses the paper's 281-region training corpus and the complete
feature-selection sweep (minutes); the default fast mode reproduces every
shape in a fraction of that.

``--jobs N`` fans the selected experiments out to ``N`` worker processes
through the service subsystem's :class:`~repro.service.pool.WorkerPool`.
Each worker builds one :class:`ExperimentContext` (trained system + run
cache) and keeps it across every experiment it is handed; submission
keeps the cheap-first ordering, results and failure payloads are
identical to a sequential run, and the exit code still reflects any
failure.

With ``--metrics-out``/``--trace-out`` and more than one experiment, each
experiment gets its *own* telemetry sink written to a per-experiment
suffixed file (``metrics.prom`` -> ``metrics-fig4.prom``), so experiments
no longer overwrite or conflate each other's series.  A single
experiment keeps the exact filename given.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import traceback
from pathlib import Path

from repro.experiments import (
    ablation,
    dag_apps,
    extensibility,
    fig3,
    fig4,
    fig5,
    fig6,
    fig7,
    multitier,
    observability,
    overhead,
    recovery,
    replay_gate,
    robustness,
    sensitivity,
    service_load,
    table1,
    table2,
    table3,
    table4,
    transport_load,
)
from repro.experiments.common import ExperimentContext

EXPERIMENTS = {
    "table1": table1.run,
    "table2": table2.run,
    "fig3": fig3.run,
    "fig4": fig4.run,
    "fig5": fig5.run,
    "fig6": fig6.run,
    "fig7": fig7.run,
    "table3": table3.run,
    "table4": table4.run,
    "overhead": overhead.run,
    "ablation": ablation.run,
    "extensibility": extensibility.run,
    "sensitivity": sensitivity.run,
    "robustness": robustness.run,
    "recovery": recovery.run,
    "multitier": multitier.run,
    "observability": observability.run,
    "service_load": service_load.run,
    "transport_load": transport_load.run,
    "replay_gate": replay_gate.run,
    "dag_apps": dag_apps.run,
}

#: cheap-first ordering so failures surface early
DEFAULT_ORDER = (
    "table1",
    "table2",
    "fig3",
    "table3",
    "fig7",
    "table4",
    "fig4",
    "fig5",
    "fig6",
    "overhead",
    "ablation",
    "extensibility",
    "sensitivity",
    "robustness",
    "recovery",
    "multitier",
    "observability",
    "service_load",
    "transport_load",
    "replay_gate",
    "dag_apps",
)


def _failure_payload(exc: Exception) -> dict:
    return {
        "failed": True,
        "error_type": type(exc).__name__,
        "error": str(exc),
        "traceback": traceback.format_exc(),
    }


def suffixed_path(path: str, name: str) -> str:
    """``metrics.prom`` -> ``metrics-fig4.prom`` (per-experiment outputs)."""
    p = Path(path)
    if p.suffix:
        return str(p.with_name(f"{p.stem}-{name}{p.suffix}"))
    return str(p.with_name(f"{p.name}-{name}"))


# ----------------------------------------------------------------------
# process-parallel execution (--jobs N)
# ----------------------------------------------------------------------
#: per-worker-process state: one ExperimentContext shared by every
#: experiment dispatched to that worker
_WORKER: dict = {}


def _init_worker(seed: int, fast: bool) -> None:
    _WORKER["ctx"] = ExperimentContext(seed=seed, fast=fast)


def _run_worker(name: str, want_metrics: bool, want_trace: bool) -> dict:
    """Run one experiment inside a pool worker.

    stdout is captured and replayed by the parent (in submission order,
    so interleaved workers do not scramble the report), and telemetry is
    rendered to text/JSON here because registries do not cross the
    process boundary.
    """
    import contextlib
    import io

    ctx = _WORKER["ctx"]
    telemetry = None
    if want_metrics or want_trace:
        from repro.core.telemetry import Telemetry

        telemetry = Telemetry()
    ctx.telemetry = telemetry
    buf = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        try:
            result = EXPERIMENTS[name](ctx)
            failed = False
        except Exception as exc:
            result = _failure_payload(exc)
            failed = True
    payload = {
        "result": result,
        "failed": failed,
        "stdout": buf.getvalue(),
        "elapsed_s": time.perf_counter() - start,
        "metrics_text": None,
        "trace": None,
    }
    if telemetry is not None:
        from repro.core.telemetry import render_exposition
        from repro.core.telemetry.exporters import chrome_trace

        if want_metrics:
            payload["metrics_text"] = render_exposition(telemetry.registry)
        if want_trace:
            payload["trace"] = chrome_trace(telemetry.tracer)
    return payload


def _run_parallel(names: list[str], args) -> tuple[dict, list[str]]:
    from repro.service import WorkerPool

    results: dict = {}
    failed: list[str] = []
    with WorkerPool(
        workers=args.jobs,
        mode="process",
        initializer=_init_worker,
        initargs=(args.seed, not args.full),
    ) as pool:
        job_results = pool.map(
            _run_worker,
            [
                (name, bool(args.metrics_out), bool(args.trace_out))
                for name in names
            ],
        )
    multi = len(names) > 1
    for name, job in zip(names, job_results):
        print("=" * 72)
        print(f"== {name}")
        print("=" * 72)
        if job.ok:
            payload = job.value
            print(payload["stdout"], end="")
            results[name] = payload["result"]
            if payload["failed"]:
                print(payload["result"]["traceback"], file=sys.stderr, end="")
                failed.append(name)
                print(f"[{name} FAILED after {payload['elapsed_s']:.1f}s]\n")
            else:
                print(f"[{name} done in {payload['elapsed_s']:.1f}s]\n")
            if payload["metrics_text"] is not None:
                out = (
                    suffixed_path(args.metrics_out, name)
                    if multi
                    else args.metrics_out
                )
                Path(out).parent.mkdir(parents=True, exist_ok=True)
                Path(out).write_text(payload["metrics_text"])
                print(f"[metrics written to {out}]")
            if payload["trace"] is not None:
                out = (
                    suffixed_path(args.trace_out, name)
                    if multi
                    else args.trace_out
                )
                Path(out).parent.mkdir(parents=True, exist_ok=True)
                with Path(out).open("w") as fh:
                    json.dump(payload["trace"], fh, indent=1)
                print(f"[trace written to {out}]")
        else:
            # the worker process itself died before returning a payload
            print(job.traceback, file=sys.stderr, end="")
            failed.append(name)
            results[name] = job.failure_payload()
            print(f"[{name} FAILED in a pool worker]\n")
        if args.json:
            from repro.experiments.export import write_result

            path = write_result(args.json, name, results[name])
            print(f"[result written to {path}]")
    return results, failed


# ----------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "experiments",
        nargs="*",
        help=f"experiment names or 'all'; choices: {', '.join(DEFAULT_ORDER)}",
    )
    parser.add_argument(
        "--list",
        action="store_true",
        help="print the registered experiment names and exit",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--full",
        action="store_true",
        help="paper-sized training corpus and full feature selection",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="run experiments in N worker processes (default: sequential)",
    )
    parser.add_argument(
        "--json",
        metavar="DIR",
        default=None,
        help="write each experiment's result as JSON into DIR",
    )
    parser.add_argument(
        "--metrics-out",
        metavar="FILE",
        default=None,
        help="write Prometheus-style text exposition to FILE "
        "(per-experiment suffixed files when several experiments run)",
    )
    parser.add_argument(
        "--trace-out",
        metavar="FILE",
        default=None,
        help="write a Chrome trace_event JSON (about:tracing / Perfetto) to "
        "FILE (per-experiment suffixed files when several experiments run)",
    )
    args = parser.parse_args(argv)
    if args.list:
        for name in DEFAULT_ORDER:
            print(name)
        return 0
    if not args.experiments:
        parser.error("no experiments given (or use --list / 'all')")
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")

    names = list(DEFAULT_ORDER) if "all" in args.experiments else args.experiments
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        parser.error(
            f"unknown experiments: {', '.join(unknown)} "
            f"(valid choices: all, {', '.join(DEFAULT_ORDER)})"
        )

    if args.jobs > 1:
        results, failed = _run_parallel(names, args)
    else:
        results, failed = _run_sequential(names, args)
    if failed:
        print(f"FAILED experiments: {', '.join(failed)}")
        return 1
    return 0


def _run_sequential(names: list[str], args) -> tuple[dict, list[str]]:
    want_telemetry = bool(args.metrics_out or args.trace_out)
    multi = len(names) > 1
    ctx = ExperimentContext(seed=args.seed, fast=not args.full)
    results: dict = {}
    failed: list[str] = []
    for name in names:
        print("=" * 72)
        print(f"== {name}")
        print("=" * 72)
        if want_telemetry:
            from repro.core.telemetry import Telemetry

            # a fresh sink per experiment so several experiments cannot
            # conflate (or overwrite) each other's series
            ctx.telemetry = Telemetry()
        start = time.perf_counter()
        # one broken experiment must not take down the rest of the suite:
        # record the traceback in the result payload (and the JSON, when
        # requested), keep going, and exit non-zero at the end
        try:
            results[name] = EXPERIMENTS[name](ctx)
        except Exception as exc:
            traceback.print_exc()
            failed.append(name)
            results[name] = _failure_payload(exc)
            print(f"[{name} FAILED after {time.perf_counter() - start:.1f}s]\n")
        else:
            print(f"[{name} done in {time.perf_counter() - start:.1f}s]\n")
        if args.json:
            from repro.experiments.export import write_result

            path = write_result(args.json, name, results[name])
            print(f"[result written to {path}]")
        if want_telemetry:
            from repro.core.telemetry import write_metrics, write_trace

            if args.metrics_out:
                out = suffixed_path(args.metrics_out, name) if multi else args.metrics_out
                write_metrics(out, ctx.telemetry.registry)
                print(f"[metrics written to {out}]")
            if args.trace_out:
                out = suffixed_path(args.trace_out, name) if multi else args.trace_out
                write_trace(out, ctx.telemetry.tracer)
                print(f"[trace written to {out}]")
    return results, failed


if __name__ == "__main__":
    sys.exit(main())
