"""The time model's one pricing body, batched (PERFORMANCE.md).

:meth:`TieredBreakdownKernel._price_fields` is the only code that computes
per-tier times, their q-norm and the compute/memory overlap.  The engine
builds one kernel per region and prices every tick through the traced
``breakdown_batch``; :meth:`MachineModel.breakdowns
<repro.sim.machine.MachineModel.breakdowns>` builds a fresh one per batch
of footprints and calls ``_price``, so the engine's span counts stay its
own.  Everything that does not depend on the placement is hoisted to
construction:

* access tensors -- flat arrays of (instance row, pattern slot, object
  column, reads, writes) covering every ``ObjectAccess``, in footprint
  order;
* per-(tier, instance, slot) latency and per-(instance, slot) MLP
  constants, where a "slot" is a pattern's first-appearance rank within
  its footprint (<= 4 slots, one per :class:`~repro.common.AccessPattern`);
* per-instance ``cpu_s`` and overlap ``beta`` scalars.

Per priced placement, one ordered ``np.add.at`` scatter-add each for reads
and writes rebuilds the buckets of every tier and instance at once, and the
rest of the model is elementwise over tiers and instances.  Each float
reduction keeps the order of the scalar oracle in ``tests/oracles/scalar.py``
(a per-pattern dict walk per tier), so the two agree bit for bit, and an
instance's price never depends on the others in its batch: ``np.add.at``
adds in element order (= access order within a tier), slot accumulation
walks slots in first-appearance order, and unused slots contribute an exact
``+0.0``.  The q-norm across tiers stays a scalar Python ``pow`` per
instance (PERFORMANCE.md §4).

Between migrations a region's placement does not change, and neither does
any instance's price.  The kernel keeps every instance's price until it is
handed a different clipped fraction matrix (keyed on the matrix's bytes),
returning the same frozen :class:`TieredBreakdown` row per instance.

A 2-tier DRAM/PM placement is the n = 2 case of the same body:
:class:`BreakdownKernel` turns per-object DRAM ratios ``r`` into fraction
vectors ``(r, 1.0 - r)``.  Bandwidth contention is not priced here; the
engine applies it after the breakdown.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.common import CACHE_LINE, seq_sum
from repro.sim.machine import MachineModel, TieredBreakdown
from repro.sim.memspec import TopologySpec
from repro.tasks.task import Footprint

__all__ = ["BreakdownKernel", "TieredBreakdownKernel"]

#: Upper bound on pattern slots per footprint (one per AccessPattern).
_MAX_SLOTS = 4


class TieredBreakdownKernel:
    """Batched breakdowns of a fixed set of footprints.

    Built from ``(task_id, footprint)`` pairs; each :meth:`breakdown_batch`
    call then prices any subset of those instances under one placement,
    given as per-object *fraction vectors* (fastest tier first), with a
    handful of numpy passes over a ``(tier, instance, slot)`` bucket
    tensor.  A call whose clipped placement equals the previous call's
    returns the rows that call priced.
    """

    def __init__(
        self,
        machine: MachineModel,
        topo: TopologySpec,
        footprints: Sequence[tuple[str, Footprint]],
    ) -> None:
        spec = machine.spec
        n_tiers = topo.n_tiers
        self._rows: dict[str, int] = {}
        self._obj_cols: dict[str, int] = {}
        n_inst = len(footprints)

        inst_idx: list[int] = []
        slot_idx: list[int] = []
        obj_idx: list[int] = []
        reads: list[float] = []
        writes: list[float] = []
        lat = np.zeros((n_tiers, n_inst, _MAX_SLOTS))
        mlp = np.ones((n_inst, _MAX_SLOTS))
        cpu = np.zeros(n_inst)
        beta = np.zeros(n_inst)

        for i, (task_id, fp) in enumerate(footprints):
            if task_id in self._rows:
                raise ValueError(f"duplicate task id {task_id!r}")
            self._rows[task_id] = i
            slots: dict = {}
            for a in fp.accesses:
                s = slots.setdefault(a.pattern, len(slots))
                inst_idx.append(i)
                slot_idx.append(s)
                obj_idx.append(self._obj_cols.setdefault(a.obj, len(self._obj_cols)))
                reads.append(float(a.reads))
                writes.append(float(a.writes))
            for pattern, s in slots.items():
                random = pattern.value == "random"
                for k, tier in enumerate(topo.tiers):
                    lat[k, i, s] = tier.latency_ns(random=random)
                mlp[i, s] = spec.mlp[pattern]
            cpu[i] = machine.cpu_time(fp)
            mix = fp.pattern_mix()
            beta[i] = (
                seq_sum(spec.overlap[p] * w for p, w in mix.items()) if mix else 0.0
            )

        # scatter targets for every (tier, access) pair, tier-major so each
        # (tier, instance, slot) bucket receives its accesses in order
        n_acc = len(inst_idx)
        self._at = (
            np.repeat(np.arange(n_tiers, dtype=np.intp), n_acc),
            np.tile(np.asarray(inst_idx, dtype=np.intp), n_tiers),
            np.tile(np.asarray(slot_idx, dtype=np.intp), n_tiers),
        )
        self._obj_idx = np.asarray(obj_idx, dtype=np.intp)
        self._reads = np.asarray(reads, dtype=np.float64)
        self._writes = np.asarray(writes, dtype=np.float64)
        self._lat = lat
        self._mlp = mlp
        self._cpu = cpu
        self._cpu_list = cpu.tolist()
        self._beta = beta
        self._q = spec.tier_overlap_q
        self._rbw = np.array([[t.read_bandwidth] for t in topo.tiers])
        self._wbw = np.array([[t.write_bandwidth] for t in topo.tiers])
        self._n_tiers = n_tiers
        #: bytes of the last priced fraction matrix, the six per-instance
        #: TieredBreakdown fields priced under it (in row order), and the
        #: rows built from them so far, by task id
        self._memo_key: bytes | None = None
        self._memo_fields: tuple[list, ...] = ()
        self._memo_rows: dict[str, TieredBreakdown] = {}

    @property
    def task_ids(self) -> tuple[str, ...]:
        return tuple(self._rows)

    @property
    def objects(self) -> tuple[str, ...]:
        """Every object the footprints access, in column order."""
        return tuple(self._obj_cols)

    def _fractions(
        self, tier_fractions: Mapping[str, Sequence[float]]
    ) -> np.ndarray:
        """(n_obj, n_tiers) clipped fraction matrix in column order.

        Missing objects default to all-in-slowest and NaN components clip
        to 0.0, like the scalar ``min(1.0, max(0.0, v))``.
        """
        n = self._n_tiers
        default = (0.0,) * (n - 1) + (1.0,)
        mat = np.empty((len(self._obj_cols), n), dtype=np.float64)
        for row, name in enumerate(self._obj_cols):
            f = tier_fractions.get(name, default)
            if len(f) != n:
                raise ValueError(
                    f"object {name!r}: fraction vector has {len(f)} entries "
                    f"for a {n}-tier topology"
                )
            mat[row, :] = f
        return _clip_unit(mat)

    def breakdown_batch(
        self,
        task_ids: Sequence[str],
        tier_fractions: Mapping[str, Sequence[float]],
    ) -> list[TieredBreakdown]:
        """Tiered breakdowns for ``task_ids`` under per-object fraction
        vectors."""
        return self._price(task_ids, self._fractions(tier_fractions))

    def _price(
        self, task_ids: Sequence[str], f_obj: np.ndarray
    ) -> list[TieredBreakdown]:
        """Breakdowns for ``task_ids`` from the clipped ``(n_obj, n_tiers)``
        fraction matrix, one :class:`TieredBreakdown` per id, in order.

        Memoised on ``f_obj``'s bytes: a miss prices every instance, and
        until the matrix changes each instance's row is built once, on its
        first request, and returned to every later one."""
        key = f_obj.tobytes()
        if key != self._memo_key:
            self._memo_fields = self._price_fields(f_obj)
            self._memo_rows = {}
            self._memo_key = key
        rows = self._memo_rows
        total, cpu, mem, tier_s, tier_rb, tier_wb = self._memo_fields
        out = []
        for tid in task_ids:
            bd = rows.get(tid)
            if bd is None:
                i = self._rows[tid]
                bd = rows[tid] = TieredBreakdown(
                    total_s=total[i],
                    cpu_s=cpu[i],
                    mem_s=mem[i],
                    tier_s=tier_s[i],
                    tier_read_bytes=tier_rb[i],
                    tier_write_bytes=tier_wb[i],
                )
            out.append(bd)
        return out

    def _price_fields(self, f_obj: np.ndarray) -> tuple[list, ...]:
        """Every instance's :class:`TieredBreakdown` fields, in field order,
        each a list in row order."""
        f_acc = f_obj.T[:, self._obj_idx]
        shape = self._lat.shape
        reads = np.zeros(shape)
        writes = np.zeros(shape)
        # ordered scatter-add: element order == footprint access order
        # within each tier, like the scalar loop
        np.add.at(reads, self._at, (self._reads * f_acc).ravel())
        np.add.at(writes, self._at, (self._writes * f_acc).ravel())
        tier_t, tier_rb, tier_wb = self._tier_costs(reads, writes)

        # the q-norm stays scalar per instance: numpy's SIMD pow differs
        # from libm pow in the last bit for ~5% of inputs.  The sum starts
        # at 0 and adds tiers in order; everything else here is
        # exactly-rounded IEEE arithmetic (add/mul/div/min/max), where
        # vector and scalar agree.
        q = self._q
        inv_q = 1.0 / q
        inst_t = list(map(tuple, tier_t.T.tolist()))
        mem = [
            seq_sum([t**q for t in ts]) ** inv_q if any(ts) else 0.0 for ts in inst_t
        ]
        t_mem = np.array(mem)
        total = (
            np.maximum(self._cpu, t_mem) + (1.0 - self._beta) * np.minimum(self._cpu, t_mem)
        ).tolist()
        inst_rb = list(map(tuple, tier_rb.T.tolist()))
        inst_wb = list(map(tuple, tier_wb.T.tolist()))
        return total, self._cpu_list, mem, inst_t, inst_rb, inst_wb

    def _tier_costs(
        self, reads: np.ndarray, writes: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-tier time of every instance: ``(n_tiers, n_inst)`` times, read
        bytes, write bytes.  A tier's time is the max of the latency-bound
        estimate (accesses serialised by the pattern's limited MLP) and the
        bandwidth-bound estimate.

        Slots are reduced sequentially, in first-appearance order like the
        scalar oracle's dict walk; its leading ``0.0 + term`` is exact, so
        the sums start at slot 0.  Empty slots have zero counts, so their
        terms are an exact ``+0.0``; the per-term expression keeps the
        scalar's operation order ``((n * lat) * 1e-9) / mlp``.
        """
        terms = (reads + writes) * self._lat * 1e-9 / self._mlp
        rb = reads * CACHE_LINE
        wb = writes * CACHE_LINE
        latency = terms[..., 0]
        read_bytes = rb[..., 0]
        write_bytes = wb[..., 0]
        for s in range(1, _MAX_SLOTS):
            latency = latency + terms[..., s]
            read_bytes = read_bytes + rb[..., s]
            write_bytes = write_bytes + wb[..., s]
        bandwidth = read_bytes / self._rbw + write_bytes / self._wbw
        return np.maximum(latency, bandwidth), read_bytes, write_bytes


class BreakdownKernel(TieredBreakdownKernel):
    """The n = 2 front end: prices per-object DRAM ratios ``r`` on a
    2-tier topology as fraction vectors ``(r, 1.0 - r)``."""

    def breakdown_batch(
        self,
        task_ids: Sequence[str],
        dram_fractions: Mapping[str, float],
    ) -> list[TieredBreakdown]:
        # defined on this class too, so profilers that wrap each class's
        # own entry point time the two front ends apart
        return self._price(task_ids, self._fractions(dram_fractions))

    def _fractions(self, dram_fractions: Mapping[str, float]) -> np.ndarray:
        """(n_obj, 2) matrix ``(r, 1.0 - r)`` of the clipped DRAM ratios;
        missing objects are all-PM."""
        # _obj_cols maps names to 0..n-1 in insertion order, so iterating
        # its keys fills column order directly
        n_obj = len(self._obj_cols)
        r = np.fromiter(
            (dram_fractions.get(name, 0.0) for name in self._obj_cols),
            dtype=np.float64,
            count=n_obj,
        )
        f = np.empty((n_obj, 2))
        f[:, 0] = _clip_unit(r)
        np.subtract(1.0, f[:, 0], out=f[:, 1])
        return f


def _clip_unit(values: np.ndarray) -> np.ndarray:
    """Clip to [0, 1] like the scalar ``min(1.0, max(0.0, v))``: ``np.clip``
    for every non-NaN input (it keeps -0.0, which prices like the scalar's
    0.0), and 0.0 for a NaN, which ``np.clip`` would pass through."""
    out = np.clip(values, 0.0, 1.0)
    out[np.isnan(out)] = 0.0
    return out
