"""Timed spans around calls into the program's layers.

The tracer wraps public functions and methods of ``repro`` from outside the
package: a method is patched on its class, a module-level function is
rebound in every loaded ``repro`` module that binds it (``greedy_plan``,
for instance, is bound separately in ``repro.core.runtime``,
``repro.service.scheduler`` and ``repro.runtime.planning``).  Spans are kept
in memory with the id of the enclosing span and written out once, at the
end of a traced run.

``SPANS`` is the layer table: span name, the ``module:qualname`` it times,
and which end-to-end metric it should move on which workload.  Span names
are the per-layer metric names (``<span>.calls`` and ``<span>.self_s``).
"""

from __future__ import annotations

import importlib
import sys
import time
from dataclasses import dataclass
from typing import Callable

__all__ = ["SPANS", "COUNTS", "Span", "Tracer", "self_times"]


@dataclass(frozen=True)
class Span:
    name: str
    #: ``module:qualname`` targets timed under this span name
    targets: tuple[str, ...]
    #: end-to-end metric this layer should move, and on which workloads
    moves: str
    on: str
    #: count incremented by the wrapped call's integer return value
    sums_result_into: str | None = None


SPANS: tuple[Span, ...] = (
    # -- sim ------------------------------------------------------------
    Span("sim.engine.run", ("repro.sim.engine:Engine.run",),
         "wall_s", "paper_merch tiered_race dag_gated"),
    Span("sim.kernels.breakdown", ("repro.sim.kernels:BreakdownKernel.breakdown_batch",),
         "wall_s", "paper_merch dag_gated"),
    Span("sim.kernels.tiered_breakdown",
         ("repro.sim.kernels:TieredBreakdownKernel.breakdown_batch",),
         "wall_s", "tiered_race"),
    Span("sim.pages.access_fractions", ("repro.sim.pages:PageTable.access_fractions",),
         "wall_s", "paper_merch dag_gated"),
    Span("sim.pages.dram_used_bytes", ("repro.sim.pages:PageTable.dram_used_bytes",),
         "wall_s", "paper_merch dag_gated"),
    Span("sim.pages.apply_batch", ("repro.sim.pages:PageTable.apply_batch",),
         "wall_s", "paper_merch dag_gated", sums_result_into="sim.pages.pages_moved"),
    Span("sim.pages.sample_pages",
         ("repro.sim.pages:PageTable.sample_pages",
          "repro.sim.pages:TieredPageTable.sample_pages"),
         "wall_s", "paper_merch tiered_race dag_gated"),
    Span("sim.pages.tier_free_pages", ("repro.sim.pages:TieredPageTable.tier_free_pages",),
         "wall_s", "tiered_race"),
    Span("sim.pages.tiered_apply_batch", ("repro.sim.pages:TieredPageTable.apply_batch",),
         "wall_s", "tiered_race", sums_result_into="sim.pages.pages_moved"),
    Span("sim.pages.access_fraction_vectors",
         ("repro.sim.pages:TieredPageTable.access_fraction_vectors",),
         "wall_s", "tiered_race"),
    # -- core -----------------------------------------------------------
    Span("core.runtime.on_region_start",
         ("repro.core.runtime:MerchandiserPolicy.on_region_start",),
         "wall_s, decision_p95_ms", "paper_merch dag_gated"),
    Span("core.runtime.on_tick", ("repro.core.runtime:MerchandiserPolicy.on_tick",),
         "wall_s, decision_p50_ms", "paper_merch dag_gated"),
    Span("core.runtime.on_region_end",
         ("repro.core.runtime:MerchandiserPolicy.on_region_end",),
         "wall_s", "paper_merch dag_gated"),
    Span("core.estimator.estimate", ("repro.core.estimator:AccessEstimator.estimate",),
         "wall_s", "paper_merch dag_gated"),
    Span("core.homogeneous.predict",
         ("repro.core.homogeneous:HomogeneousPredictor.predict",),
         "wall_s", "paper_merch dag_gated"),
    Span("core.planner.greedy_plan", ("repro.core.planner:greedy_plan",),
         "decision_p50_ms, ops_per_s", "service_mix"),
    Span("core.planner.tiered_greedy_plan", ("repro.core.planner:tiered_greedy_plan",),
         "wall_s", "tiered_race"),
    Span("core.model.ratio_grids", ("repro.core.model:PerformanceModel.ratio_grids",),
         "decision_p50_ms, ops_per_s", "service_mix"),
    Span("core.correlation.predict_stacked",
         ("repro.core.correlation:CorrelationFunction.predict_stacked",),
         "decision_p50_ms, ops_per_s", "service_mix"),
    Span("core.correlation.generate_training_data",
         ("repro.core.correlation:generate_training_data",),
         "setup_s", "all"),
    Span("core.correlation.train", ("repro.core.correlation:CorrelationFunction.train",),
         "setup_s", "all"),
    # -- ml -------------------------------------------------------------
    Span("ml.kernels.forest_predict", ("repro.ml.kernels:forest_predict",),
         "decision_p50_ms", "service_mix"),
    # -- profiling ------------------------------------------------------
    Span("profiling.pte.sample", ("repro.profiling.pte:PTESampleProfiler.sample",),
         "wall_s", "paper_merch dag_gated"),
    Span("profiling.hotpages.top_k_hot_pages",
         ("repro.profiling.hotpages:top_k_hot_pages",),
         "wall_s", "paper_merch dag_gated"),
    # -- policies -------------------------------------------------------
    Span("policies.merchandiser.on_region_start",
         ("repro.policies.merchandiser:TieredMerchandiserPolicy.on_region_start",),
         "wall_s", "tiered_race"),
    Span("policies.merchandiser.on_tick",
         ("repro.policies.merchandiser:TieredMerchandiserPolicy.on_tick",),
         "wall_s", "tiered_race"),
    Span("policies.ltr.on_tick", ("repro.policies.ltr:LearnedRankingPolicy.on_tick",),
         "wall_s", "tiered_race"),
    Span("policies.interval.on_tick",
         ("repro.policies.interval:IntervalReconfigPolicy.on_tick",),
         "wall_s", "tiered_race"),
    # -- runtime --------------------------------------------------------
    Span("runtime.executor.run", ("repro.runtime.executor:DAGExecutor.run",),
         "wall_s", "dag_gated"),
    Span("runtime.planning.critical_path_plan",
         ("repro.runtime.planning:critical_path_plan",),
         "wall_s", "dag_gated"),
    # -- service --------------------------------------------------------
    Span("service.server.submit", ("repro.service.server:PlacementServer.submit",),
         "decision_p95_ms, ops_per_s", "service_mix"),
    Span("service.scheduler.plan_batch",
         ("repro.service.scheduler:BatchScheduler.plan_batch",),
         "decision_p95_ms, ops_per_s", "service_mix"),
    Span("service.cache.get", ("repro.service.cache:PredictionCache.get",),
         "decision_p50_ms", "service_mix"),
)

#: counts recorded at the same boundaries: name -> (unit, better)
COUNTS: dict[str, tuple[str, str]] = {
    "sim.engine.ticks": ("count", "lower"),
    "sim.pages.pages_moved": ("count", "lower"),
    "sim.engine.barrier_wait_virt_s": ("virt_s", "lower"),
    "service.cache.hit_ratio": ("ratio", "higher"),
    "service.batch_size_mean": ("requests", "higher"),
    "service.queue_wait_ms": ("ms", "lower"),
    "service.admission.shed": ("count", "lower"),
    "service.overcommit_batches": ("count", "lower"),
}


def self_times(records) -> dict[str, tuple[int, float]]:
    """Per span name: (calls, self seconds).

    ``records`` are ``(span_id, parent_id, name, start, end)`` with
    ``parent_id`` -1 at the top.  Spans nest strictly (one thread), so the
    part of a span covered by its children is the sum of their durations.
    """
    child = {}
    for _sid, parent, _name, start, end in records:
        if parent >= 0:
            child[parent] = child.get(parent, 0.0) + (end - start)
    out: dict[str, tuple[int, float]] = {}
    for sid, _parent, name, start, end in records:
        calls, total = out.get(name, (0, 0.0))
        out[name] = (calls + 1, total + (end - start) - child.get(sid, 0.0))
    return out


def _resolve(target: str):
    module_name, _, qualname = target.partition(":")
    module = importlib.import_module(module_name)
    owner, _, attr = qualname.rpartition(".")
    return module, (getattr(module, owner) if owner else None), attr


class Tracer:
    """Records spans around the targets of ``SPANS`` while installed."""

    def __init__(self, spans=SPANS, clock: Callable[[], float] = time.perf_counter):
        self.spans = spans
        self.clock = clock
        #: ``[span_id, parent_id, name, start, end]``; id == list index
        self.records: list[list] = []
        self.counts: dict[str, float] = {}
        self._open: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------
    def wrap(self, name: str, fn, sums_into: str | None = None):
        records, stack, clock, counts = self.records, self._open, self.clock, self.counts

        def traced(*args, **kwargs):
            sid = len(records)
            rec = [sid, stack[-1] if stack else -1, name, 0.0, 0.0]
            records.append(rec)
            stack.append(sid)
            rec[3] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[4] = clock()
                stack.pop()
            if sums_into is not None:
                counts[sums_into] = counts.get(sums_into, 0) + int(result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- patching -------------------------------------------------------
    def install(self) -> "Tracer":
        for span in self.spans:
            for target in span.targets:
                module, owner, attr = _resolve(target)
                if owner is not None:
                    self._patch_method(owner, attr, span)
                else:
                    self._patch_function(getattr(module, attr), span)
        return self

    def _patch_method(self, cls, attr: str, span: Span) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            new = classmethod(self.wrap(span.name, raw.__func__, span.sums_result_into))
        elif isinstance(raw, staticmethod):
            new = staticmethod(self.wrap(span.name, raw.__func__, span.sums_result_into))
        else:
            new = self.wrap(span.name, raw, span.sums_result_into)
        self._undo.append((cls, attr, raw))
        setattr(cls, attr, new)

    def _patch_function(self, fn, span: Span) -> None:
        wrapped = self.wrap(span.name, fn, span.sums_result_into)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._undo.append((mod, attr, fn))
                    setattr(mod, attr, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results --------------------------------------------------------
    def per_layer(self) -> dict[str, tuple[int, float]]:
        return self_times(self.records)

    def columns(self) -> dict:
        """The spans, columnar (span id = row), for writing out once."""
        names = sorted({r[2] for r in self.records})
        index = {n: i for i, n in enumerate(names)}
        return {
            "names": names,
            "parent": [r[1] for r in self.records],
            "name": [index[r[2]] for r in self.records],
            "start": [r[3] for r in self.records],
            "end": [r[4] for r in self.records],
            "counts": self.counts,
        }
