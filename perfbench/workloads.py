"""The benchmark's four workloads.

Each workload is set up from its seed alone (offline training plus input
construction), then runs *passes*: one pass is a fixed list of *ops* (one
engine run, or one placement request), always the same for a seed.  Every
op's simulated outputs are checked: against the first pass bit for bit,
and on seed 0 at paper size against the committed ``results/`` values.

Why these workloads (see also ``BENCHMARK.json``):

* ``paper_merch`` -- the paper's pipeline on the classic 2-tier loop; page
  table walks and the quota-gated daemon dominate, planning does little.
* ``tiered_race`` -- the only traffic through the N-tier engine twin.
* ``dag_gated`` -- the only traffic through the DAG runtime's
  critical-path planner and the engine's gated dependency release.
* ``service_mix`` -- plan/predict/ml carry nearly all the work; a cache
  smaller than the Zipf-popular catalogue makes some lookups hit and the
  rest run Algorithm 1, so a change trading one for the other shows.

The seed varies everything the program is handed (training corpus, app
inputs, catalogues, policy and engine streams), except where one input's
cost swings so much with it that a run could not tell a change from the
seed: there a pass averages several inputs (``service_mix``) or keeps the
experiments' app instances (``paper_merch``, ``dag_gated``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import hostspeed
from repro.apps import ALL_APPS, DAG_APPS, SpGEMMApp
from repro.baselines import PMOnlyPolicy
from repro.common import PAGE_SIZE, make_rng
from repro.core import Merchandiser
from repro.core.model import PerformanceModel
from repro.experiments.common import ExperimentContext, acv
from repro.experiments.service_load import TENANTS, _region_catalogue
from repro.policies import PolicyBuildContext, build_policy
from repro.runtime import DAGExecutor, DAGMerchandiserPolicy
from repro.service import PlacementRequest, PlacementServer, PredictionCache
from repro.sim import Engine, MachineModel, optane_hm_config
from repro.sim.memspec import topology_preset

__all__ = ["CLOCK", "WORKLOADS", "Recorder"]

#: The benchmark's clock: CPU seconds of its one thread, less the
#: reference slices ``hostspeed`` runs.  On a shared host, wall time also
#: counts the time the scheduler gives other processes.
CLOCK = hostspeed.clock

#: offline corpus of the smoke size; "paper" trains as
#: ``ExperimentContext(fast=True)`` does
_SMOKE_TRAINING = {"n_samples": 16, "placements_per_sample": 3, "select_events": False}


@dataclass
class Op:
    """One unit of attempted work inside a pass."""

    name: str
    #: ``run(recorder, outputs_so_far) -> outputs``
    run: Callable[["Recorder", dict], dict]
    #: committed seed-0 values the op's outputs must equal (paper size only)
    expected: dict | None = None


@dataclass
class Recorder:
    """Decision latencies and counts a pass collects while it runs."""

    #: ``(start, seconds)`` by ``CLOCK`` of each decision: submit to
    #: decision of each request of the service; each placement an engine
    #: run's policy hands the engine, which waits for it: a region-start
    #: placement, or a tick's migration batch (a tick that returns none
    #: decided nothing)
    decision_s: list[tuple[float, float]] = field(default_factory=list)
    counts: dict[str, float] = field(default_factory=dict)

    def add(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def time_policy(self, policy) -> None:
        """Time the policy's decisions.  The class attributes are looked up
        per call, so spans patched onto the class stay visible."""
        cls = type(policy)
        out = self.decision_s
        clock = CLOCK

        def on_region_start(ctx):
            t0 = clock()
            cls.on_region_start(policy, ctx)
            out.append((t0, clock() - t0))

        def on_tick(ctx, dt):
            t0 = clock()
            batch = cls.on_tick(policy, ctx, dt)
            if batch is not None:
                out.append((t0, clock() - t0))
            return batch

        policy.on_region_start = on_region_start
        policy.on_tick = on_tick


def _load(root: Path, name: str) -> dict:
    with open(root / "results" / f"{name}.json") as fh:
        return json.load(fh)


def _run_outputs(res, placement: bool, rec: Recorder, busy) -> dict:
    """The simulated numbers of one engine run that must repeat exactly."""
    rec.add("sim.engine.ticks", len(res.trace_time))
    wait = sum(res.task_wait_times().values())
    rec.add("sim.engine.barrier_wait_virt_s", wait)
    return {
        "total_time_s": res.total_time_s,
        "pages_migrated": res.pages_migrated,
        "ticks": len(res.trace_time),
        "acv": acv(busy.values()),
        "barrier_wait_s": wait,
        "placement": placement,
    }


class Workload:
    """Set up from a seed; a pass runs the same ops every time.

    The placement runs (not the PM-only baselines) give ``virt_makespan_s``,
    ``acv`` and the timed decisions.
    """

    name = ""

    def __init__(self, seed: int, size: str, root: Path) -> None:
        self.seed = seed
        self.size = size
        self.root = root
        self._ops: list[Op] | None = None

    def context(self) -> ExperimentContext:
        """The trained system, as the experiments build it."""
        ctx = ExperimentContext(seed=self.seed, fast=True)
        if self.size == "smoke":
            ctx._system = Merchandiser.offline_setup(seed=self.seed, **_SMOKE_TRAINING)
        else:
            ctx.system
        return ctx

    def app(self, app_cls, seed: int | None = None):
        scale = app_cls.small if self.size == "smoke" else app_cls.paper_scale
        return scale(seed=self.seed if seed is None else seed)

    def check_expected(self) -> bool:
        return self.seed == 0 and self.size == "paper"

    def run_pass(self, rec: Recorder) -> tuple[dict, dict]:
        """Run every op once: (outputs by op, failure reason by op)."""
        if self._ops is None:
            self._ops = self.ops()
        outputs: dict[str, dict] = {}
        failed: dict[str, str] = {}
        for op in self._ops:
            try:
                out = op.run(rec, outputs)
            except Exception as exc:  # an op that raises is a failed op
                failed[op.name] = f"{type(exc).__name__}: {exc}"
                continue
            for key, want in (op.expected or {}).items():
                if out.get(key) != want:
                    failed[op.name] = f"{key} {out.get(key)!r} != committed {want!r}"
            outputs[op.name] = out
        return outputs, failed

    def summarize(self, outputs: dict) -> tuple[float, float]:
        placed = [o for o in outputs.values() if o["placement"]]
        if not placed:
            return float("nan"), float("nan")
        return (
            float(sum(o["total_time_s"] for o in placed)),
            float(np.mean([o["acv"] for o in placed])),
        )


class PaperMerch(Workload):
    """The five paper apps under PM-only and Merchandiser, 2-tier Optane.

    The app instances are the experiments' (app seed ``APP_SEED``): which
    regions an instance has, and so which decisions make the tail, swings
    with its seed.  The run seed varies the trained model and the policy
    and engine streams.
    """

    name = "paper_merch"
    APP_SEED = 0

    def setup(self) -> None:
        self.ctx = self.context()
        self.inputs = []
        for app_cls in ALL_APPS:
            app = self.app(app_cls, seed=self.APP_SEED)
            wl = app.build_workload(seed=self.APP_SEED)
            self.inputs.append((app, wl, app.binding(wl)))

    def ops(self) -> list[Op]:
        fig4 = _load(self.root, "fig4") if self.check_expected() else None
        fig5 = _load(self.root, "fig5") if self.check_expected() else None
        out = []
        for app, wl, binding in self.inputs:
            for policy_name in ("pm-only", "merchandiser"):
                expected = None
                if fig4 is not None:
                    expected = {"acv": fig5["stats"][app.name][policy_name]["acv"]}
                    if policy_name == "merchandiser":
                        expected["speedup_vs_pm"] = fig4["speedups"][app.name]["merchandiser"]
                out.append(
                    Op(f"{app.name}/{policy_name}",
                       self._op(wl, binding, policy_name, app.name), expected)
                )
        return out

    def _op(self, wl, binding, policy_name, app_name):
        def run(rec: Recorder, prior: dict) -> dict:
            if policy_name == "pm-only":
                policy = PMOnlyPolicy()
            else:
                policy = self.ctx.system.policy(binding, seed=self.seed + 5)
                rec.time_policy(policy)
            engine = Engine(MachineModel(), optane_hm_config())
            res = engine.run(wl, policy, seed=self.seed + 1)
            out = _run_outputs(res, policy_name != "pm-only", rec, res.task_busy_times())
            if policy_name != "pm-only":
                pm = prior[f"{app_name}/pm-only"]["total_time_s"]
                out["speedup_vs_pm"] = pm / res.total_time_s
            return out

        return run

    def warmup(self) -> None:
        app = SpGEMMApp.small(seed=self.seed)
        wl = app.build_workload(seed=self.seed)
        for policy in (PMOnlyPolicy(), self.ctx.system.policy(app.binding(wl), seed=self.seed + 5)):
            Engine(MachineModel(), optane_hm_config()).run(wl, policy, seed=self.seed + 1)


class TieredRace(Workload):
    """SpGEMM on the 4-tier preset under three registry backends."""

    name = "tiered_race"
    POLICIES = ("merchandiser", "ltr", "interval")
    PRESET = "hbm_dram_cxl_pm"

    def setup(self) -> None:
        self.ctx = ctx = self.context()
        self.machine = MachineModel()
        self.topology = topology_preset(self.PRESET)
        self.bctx = PolicyBuildContext(
            machine=self.machine,
            topology=self.topology,
            model=PerformanceModel(ctx.system.correlation),
            seed=self.seed + 1,
        )
        self.wl = self.app(SpGEMMApp).build_workload(seed=self.seed)

    def ops(self) -> list[Op]:
        expected = None
        if self.check_expected():
            expected = _load(self.root, "multitier")["topologies"][self.PRESET]["policies"]
        return [
            Op(name, self._op(self.wl, name),
               None if expected is None else {
                   "total_time_s": expected[name]["total_time_s"],
                   "pages_migrated": expected[name]["pages_migrated"],
               })
            for name in self.POLICIES
        ]

    def _op(self, wl, policy_name):
        def run(rec: Recorder, prior: dict) -> dict:
            policy = build_policy(policy_name, self.bctx)
            rec.time_policy(policy)
            res = Engine(self.machine, topology=self.topology).run(
                wl, policy, seed=self.seed + 1
            )
            return _run_outputs(res, True, rec, res.task_busy_times())

        return run

    def warmup(self) -> None:
        wl = SpGEMMApp.small(seed=self.seed).build_workload(seed=self.seed)
        for name in self.POLICIES:
            Engine(self.machine, topology=self.topology).run(
                wl, build_policy(name, self.bctx), seed=self.seed + 1
            )


class DagGated(Workload):
    """Fox and Cholesky through the DAG executor, gated lowering.

    The DAGs are the ``dag_apps`` instances (app seed ``APP_SEED``): one
    instance's cost swings by a fifth with its app seed (random
    per-iteration block scales), which would drown any change under test.
    The run seed varies the trained model and the policy and engine
    streams, as everywhere else.
    """

    name = "dag_gated"
    APP_SEED = 0

    def setup(self) -> None:
        self.ctx = self.context()
        self.inputs = []
        for app_cls in DAG_APPS:
            app = self.app(app_cls, seed=self.APP_SEED)
            dags = app.build_dags()
            self.inputs.append((app.name, dags, app.binding(dags)))

    def ops(self) -> list[Op]:
        committed = _load(self.root, "dag_apps") if self.check_expected() else None
        return [
            Op(name, self._op(dags, binding),
               None if committed is None else {
                   "total_time_s": committed[name]["merchandiser-dag"]["makespan_s"],
                   "acv": committed[name]["merchandiser-dag"]["acv"],
               })
            for name, dags, binding in self.inputs
        ]

    def _op(self, dags, binding):
        def run(rec: Recorder, prior: dict) -> dict:
            policy = self.ctx.system.policy(
                binding, seed=self.seed + 5, policy_cls=DAGMerchandiserPolicy
            )
            rec.time_policy(policy)
            engine = Engine(MachineModel(), optane_hm_config())
            res = DAGExecutor(engine).run(dags, policy, seed=self.seed + 1)
            out = _run_outputs(res.run, True, rec, res.node_busy_times())
            out["mode"] = res.mode
            if res.mode != "gated":
                raise RuntimeError(f"expected gated lowering, got {res.mode!r}")
            return out

        return run

    def warmup(self) -> None:
        for app_cls in DAG_APPS:
            app = app_cls.small(seed=self.seed)
            dags = app.build_dags()
            policy = self.ctx.system.policy(
                app.binding(dags), seed=self.seed + 5, policy_cls=DAGMerchandiserPolicy
            )
            DAGExecutor(Engine(MachineModel(), optane_hm_config())).run(
                dags, policy, seed=self.seed + 1
            )


class ServiceMix(Workload):
    """Closed loop from one thread against in-process placement servers.

    ``WINDOW`` requests are outstanding at all times; the loop fires the
    oldest batch (up to ``MAX_BATCH``), and each answered request is
    replaced at once by the next one of its stream.  Each catalogue has
    ``N_SHAPES`` region shapes (built as ``service_load`` builds its own),
    drawn Zipf-popular (exponent ``ZIPF``) against a cache of
    ``CACHE_CAPACITY`` decisions, so about two thirds of lookups hit and
    the rest run Algorithm 1.

    How often cached grants use up a batch's DRAM ledger (and so skip
    planning) depends on which shapes are popular, which makes one
    catalogue's cost swing with the seed; a pass therefore streams
    ``STREAMS`` catalogues, each against a fresh server and cache.
    """

    name = "service_mix"
    N_SHAPES = 48
    TASKS_PER_SHAPE = 4
    CACHE_CAPACITY = 16
    ZIPF = 1.1
    WINDOW = 16
    MAX_BATCH = 8
    STREAMS = 16
    REQUESTS = {"paper": 400, "smoke": 48}

    def setup(self) -> None:
        self.ctx = ctx = self.context()
        n_shapes = self.N_SHAPES if self.size == "paper" else 8
        self.streams = []
        for k in range(self.STREAMS):
            sub = ExperimentContext(seed=self.seed + 1000 * k, _system=ctx.system)
            catalogue = _region_catalogue(sub, n_shapes, self.TASKS_PER_SHAPE)
            rng = make_rng(sub.seed + 31)
            weights = 1.0 / np.arange(1, n_shapes + 1) ** self.ZIPF
            popularity = rng.permutation(n_shapes)
            picks = rng.choice(n_shapes, size=self.REQUESTS[self.size], p=weights / weights.sum())
            tenants = rng.integers(len(TENANTS), size=len(picks))
            self.streams.append([
                PlacementRequest(
                    request_id=f"s{k}-{i:05d}",
                    tenant=TENANTS[int(t)],
                    tasks=catalogue[int(popularity[int(s)])],
                )
                for i, (s, t) in enumerate(zip(picks, tenants))
            ])
        self.capacity_bytes = optane_hm_config().dram.capacity_bytes
        self.model = ctx.system.performance_model

    def run_pass(self, rec: Recorder, streams=None) -> tuple[dict, dict]:
        """Every stream once, each from a fresh server and cache; each
        request is one op."""
        outputs: dict[str, object] = {}
        failed: dict[str, str] = {}
        waits: list[float] = []
        hits = lookups = batches = shed = 0
        for requests in self.streams if streams is None else streams:
            cache = PredictionCache(capacity=self.CACHE_CAPACITY)
            server = PlacementServer(
                self.model,
                dram_capacity_bytes=self.capacity_bytes,
                window_s=0.0,
                max_batch=self.MAX_BATCH,
                cache=cache,
            )
            batches += self._stream(server, requests, rec, outputs, failed, waits)
            hits += cache.hits
            lookups += cache.hits + cache.misses
            shed += server.admission.shed_count
        rec.add("service.cache.hit_ratio", hits / max(lookups, 1))
        rec.add("service.batch_size_mean", len(outputs) / max(batches, 1))
        rec.add("service.queue_wait_ms", 1e3 * float(np.mean(waits)) if waits else 0.0)
        rec.add("service.admission.shed", shed)
        return outputs, failed

    def _stream(self, server, requests, rec, outputs, failed, waits) -> int:
        """Drive one closed-loop stream to completion; returns its batches."""
        capacity_pages = self.capacity_bytes // PAGE_SIZE
        clock = CLOCK
        submitted_at: dict[str, float] = {}
        stream = iter(requests)
        batches = 0

        def submit_next() -> None:
            req = next(stream, None)
            if req is None:
                return
            submitted_at[req.request_id] = clock()
            shed = server.submit(req)
            if shed is not None:
                failed[req.request_id] = f"status {shed.status}"

        for _ in range(self.WINDOW):
            submit_next()
        while server.scheduler.pending_depth:
            t_fire = clock()
            decisions = server.step()
            t_done = clock()
            batches += 1
            # duplicates share their primary's grant; planned and cached
            # decisions both hold pages of the one DRAM ledger.  The
            # scheduler caps fresh plans by that ledger but not a batch of
            # cache hits, so this is counted, not failed.
            granted = sum(
                d.dram_pages_granted for d in decisions if d.status != "deduplicated"
            )
            if granted > capacity_pages:
                rec.add("service.overcommit_batches", 1)
            for dec in decisions:
                rid = dec.request_id
                waits.append(t_fire - submitted_at[rid])
                rec.decision_s.append((submitted_at[rid], t_done - submitted_at[rid]))
                if dec.status not in ("planned", "cached", "deduplicated"):
                    failed[rid] = f"status {dec.status}"
                elif dec.dram_pages_granted > capacity_pages:
                    failed[rid] = "DRAM grant exceeds capacity"
                outputs[rid] = (
                    dec.status,
                    dec.placements,
                    dec.predicted_makespan_s,
                    dec.dram_pages_granted,
                    dec.batch_size,
                )
            for _ in decisions:
                submit_next()
        return batches

    def summarize(self, outputs: dict) -> tuple[float, float]:
        makespans = [o[2] for o in outputs.values()]
        acvs = [acv(p.predicted_time_s for p in o[1]) for o in outputs.values()]
        return float(np.sum(makespans)), float(np.mean(acvs))

    def warmup(self) -> None:
        self.run_pass(Recorder(), [s[: 2 * self.WINDOW] for s in self.streams])


WORKLOADS = {
    cls.name: cls for cls in (PaperMerch, TieredRace, DagGated, ServiceMix)
}
