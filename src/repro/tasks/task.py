"""Core task-parallel data structures.

Terminology follows Section 2 of the paper:

* a *task* is the unit of parallelism (an MPI rank or an OpenMP thread);
* a *task instance* is one execution of a task, typically one iteration of an
  outer loop, possibly with a new input;
* tasks synchronise at barriers -- a :class:`ParallelRegion` is the set of
  task instances between two consecutive barriers;
* each task accesses a handful of major *data objects* (H/PSI in DMRG,
  A/B/C in SpGEMM) that account for almost all memory consumption.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.common import CACHE_LINE, PAGE_SIZE, AccessPattern, seq_sum

__all__ = [
    "DataObject",
    "ObjectAccess",
    "KernelProfile",
    "Footprint",
    "TaskInstanceSpec",
    "ParallelRegion",
    "Workload",
]


@dataclass(frozen=True)
class DataObject:
    """A user-visible data object managed on heterogeneous memory.

    ``owner`` names the task that predominantly accesses the object, or
    ``None`` for objects shared by all tasks (e.g. the B matrix in SpGEMM).
    ``hotness`` selects the within-object page-popularity distribution:
    ``"uniform"`` for sequentially walked objects, ``"zipf"`` for objects
    reached through indirect addressing.
    """

    name: str
    size_bytes: int
    owner: str | None = None
    element_size: int = 8
    hotness: str = "uniform"
    zipf_s: float = 1.1

    def __post_init__(self) -> None:
        if self.size_bytes <= 0:
            raise ValueError(f"object {self.name!r} must have positive size")
        if self.element_size <= 0:
            raise ValueError("element_size must be positive")
        if self.hotness not in ("uniform", "zipf"):
            raise ValueError(f"unknown hotness model {self.hotness!r}")

    @property
    def n_pages(self) -> int:
        """Number of 4 KiB pages the object occupies."""
        return max(1, -(-self.size_bytes // PAGE_SIZE))


@dataclass(frozen=True)
class ObjectAccess:
    """Main-memory traffic of one task instance to one data object.

    ``reads``/``writes`` count *main-memory* accesses at cache-line
    granularity, i.e. after the on-chip caches have filtered the logical
    access stream (the paper's ``prof_mem_acc`` / ``esti_mem_acc`` are these
    counts).
    """

    obj: str
    pattern: AccessPattern
    reads: int
    writes: int = 0

    def __post_init__(self) -> None:
        if self.reads < 0 or self.writes < 0:
            raise ValueError("access counts must be non-negative")

    @property
    def total(self) -> int:
        return self.reads + self.writes

    @property
    def bytes_read(self) -> int:
        return self.reads * CACHE_LINE

    @property
    def bytes_written(self) -> int:
        return self.writes * CACHE_LINE

    def scaled(self, factor: float) -> "ObjectAccess":
        """Return a copy with access counts scaled by ``factor``."""
        if factor < 0:
            raise ValueError("scale factor must be non-negative")
        return ObjectAccess(
            obj=self.obj,
            pattern=self.pattern,
            reads=int(round(self.reads * factor)),
            writes=int(round(self.writes * factor)),
        )


@dataclass(frozen=True)
class KernelProfile:
    """Microarchitecture-facing characteristics of a task's kernel.

    These latent characteristics drive both the ground-truth machine model
    and the synthetic performance-counter vectors; Merchandiser itself only
    ever sees the counters.
    """

    branch_rate: float = 0.05       # branches per instruction
    branch_misp_rate: float = 0.02  # mispredictions per branch
    vector_fraction: float = 0.3    # fraction of instructions that are SIMD
    ilp: float = 2.0                # exploitable instruction-level parallelism

    def __post_init__(self) -> None:
        for name in ("branch_rate", "branch_misp_rate", "vector_fraction"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {v}")
        if self.ilp <= 0:
            raise ValueError("ilp must be positive")


@dataclass(frozen=True)
class Footprint:
    """Everything the machine model needs about one task instance.

    ``instructions`` is the retired-instruction count; ``accesses`` lists the
    main-memory traffic per (object, pattern) pair.
    """

    accesses: tuple[ObjectAccess, ...]
    instructions: int
    profile: KernelProfile = field(default_factory=KernelProfile)

    def __post_init__(self) -> None:
        if self.instructions <= 0:
            raise ValueError("instructions must be positive")
        object.__setattr__(self, "accesses", tuple(self.accesses))

    @property
    def total_accesses(self) -> int:
        return sum(a.total for a in self.accesses)

    @property
    def total_bytes(self) -> int:
        return self.total_accesses * CACHE_LINE

    @property
    def objects(self) -> tuple[str, ...]:
        return tuple(dict.fromkeys(a.obj for a in self.accesses))

    def accesses_by_object(self) -> dict[str, int]:
        """Total main-memory accesses per object name."""
        out: dict[str, int] = {}
        for a in self.accesses:
            out[a.obj] = out.get(a.obj, 0) + a.total
        return out

    def dram_ratio(self, fractions: Mapping[str, float]) -> float:
        """Access-weighted DRAM ratio of the instance, given per-object
        DRAM access ``fractions`` (missing objects count as all-PM)."""
        total = self.total_accesses
        if total <= 0:
            return 0.0
        return (
            seq_sum(a.total * fractions.get(a.obj, 0.0) for a in self.accesses)
            / total
        )

    def pattern_mix(self) -> dict[AccessPattern, float]:
        """Fraction of main-memory accesses per pattern (sums to 1)."""
        total = self.total_accesses
        mix: dict[AccessPattern, float] = {}
        if total == 0:
            return mix
        for a in self.accesses:
            mix[a.pattern] = mix.get(a.pattern, 0.0) + a.total / total
        return mix

    @property
    def random_fraction(self) -> float:
        return self.pattern_mix().get(AccessPattern.RANDOM, 0.0)

    @property
    def write_fraction(self) -> float:
        total = self.total_accesses
        if total == 0:
            return 0.0
        return sum(a.writes for a in self.accesses) / total

    def scaled(self, access_factors: Mapping[str, float], instr_factor: float = 1.0) -> "Footprint":
        """Return a new footprint with per-object access counts rescaled.

        Used by the input-aware estimator: the paper predicts the access
        counts of a new input by scaling the profiled counts of the base
        input (Equation 1).
        """
        new_accesses = tuple(
            a.scaled(access_factors.get(a.obj, 1.0)) for a in self.accesses
        )
        return Footprint(
            accesses=new_accesses,
            instructions=max(1, int(round(self.instructions * instr_factor))),
            profile=self.profile,
        )


@dataclass(frozen=True)
class TaskInstanceSpec:
    """One execution of a task inside a parallel region.

    ``input_vector`` holds the sizes of the instance's input data objects and
    is what Section 5.2 computes cosine similarity over.
    """

    task_id: str
    footprint: Footprint
    input_vector: tuple[float, ...] = ()


@dataclass(frozen=True)
class ParallelRegion:
    """A set of task instances separated from the next set by a barrier.

    ``kind`` labels the program phase the region executes (e.g. the symbolic
    vs numeric passes of SpGEMM).  Per Section 2 of the paper, task instances
    whose algorithm or access patterns differ must be classified as different
    tasks -- Merchandiser therefore profiles and predicts per (task, kind).

    ``gates`` generalises the barrier to intra-region dependencies (the DAG
    runtime, ``repro.runtime``): a gated instance makes no progress until
    every named instance has finished.  ``None`` keeps classic barrier
    semantics -- every instance starts at the region start.  Gate edges must
    stay within the region and form a DAG.
    """

    name: str
    instances: tuple[TaskInstanceSpec, ...]
    kind: str = ""
    #: normalised ``((task_id, (dep_id, ...)), ...)``; accepts a mapping
    gates: tuple[tuple[str, tuple[str, ...]], ...] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "instances", tuple(self.instances))
        if not self.instances:
            raise ValueError(f"region {self.name!r} has no task instances")
        ids = [i.task_id for i in self.instances]
        if len(set(ids)) != len(ids):
            raise ValueError(f"region {self.name!r} has duplicate task ids")
        if self.gates is not None:
            items = (
                self.gates.items()
                if isinstance(self.gates, Mapping)
                else self.gates
            )
            norm = tuple(
                (str(tid), tuple(str(d) for d in deps)) for tid, deps in items
            )
            object.__setattr__(self, "gates", norm)
            self._validate_gates(norm, set(ids))

    def _validate_gates(
        self,
        gates: tuple[tuple[str, tuple[str, ...]], ...],
        known: set[str],
    ) -> None:
        seen: set[str] = set()
        deps_of: dict[str, tuple[str, ...]] = {}
        for tid, deps in gates:
            if tid in seen:
                raise ValueError(f"region {self.name!r}: duplicate gate for {tid!r}")
            seen.add(tid)
            if tid not in known:
                raise ValueError(f"region {self.name!r}: gate for unknown task {tid!r}")
            for dep in deps:
                if dep not in known:
                    raise ValueError(
                        f"region {self.name!r}: task {tid!r} gated on unknown "
                        f"task {dep!r}"
                    )
                if dep == tid:
                    raise ValueError(
                        f"region {self.name!r}: task {tid!r} gated on itself"
                    )
            deps_of[tid] = deps
        # Kahn's algorithm over the gate edges: anything left is a cycle
        indeg = {tid: len(deps_of.get(tid, ())) for tid in known}
        ready = [tid for tid, d in indeg.items() if d == 0]
        done = 0
        succ: dict[str, list[str]] = {}
        for tid, deps in deps_of.items():
            for dep in deps:
                succ.setdefault(dep, []).append(tid)
        while ready:
            done += 1
            tid = ready.pop()
            for nxt in succ.get(tid, ()):
                indeg[nxt] -= 1
                if indeg[nxt] == 0:
                    ready.append(nxt)
        if done != len(known):
            raise ValueError(f"region {self.name!r}: gates contain a cycle")

    def gate_map(self) -> dict[str, tuple[str, ...]]:
        """Gates as a plain mapping (empty when the region is a barrier)."""
        if self.gates is None:
            return {}
        return {tid: deps for tid, deps in self.gates if deps}

    @property
    def task_ids(self) -> tuple[str, ...]:
        return tuple(i.task_id for i in self.instances)


@dataclass(frozen=True)
class Workload:
    """A complete task-parallel application run: objects + region sequence."""

    name: str
    objects: tuple[DataObject, ...]
    regions: tuple[ParallelRegion, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "objects", tuple(self.objects))
        object.__setattr__(self, "regions", tuple(self.regions))
        names = [o.name for o in self.objects]
        if len(set(names)) != len(names):
            raise ValueError("duplicate data-object names")
        known = set(names)
        for region in self.regions:
            for inst in region.instances:
                for acc in inst.footprint.accesses:
                    if acc.obj not in known:
                        raise ValueError(
                            f"region {region.name!r} task {inst.task_id!r} "
                            f"references undeclared object {acc.obj!r}"
                        )

    @property
    def total_footprint_bytes(self) -> int:
        return sum(o.size_bytes for o in self.objects)

    @property
    def task_ids(self) -> tuple[str, ...]:
        seen: dict[str, None] = {}
        for region in self.regions:
            for inst in region.instances:
                seen.setdefault(inst.task_id, None)
        return tuple(seen)

    def object(self, name: str) -> DataObject:
        for o in self.objects:
            if o.name == name:
                return o
        raise KeyError(name)
