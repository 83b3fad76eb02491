"""Task-DAG graph layer for the Parla-style runtime frontend.

A :class:`TaskDAG` records a general dependency graph of task instances over
the existing :mod:`repro.tasks` data-object vocabulary.  Where the paper's
:class:`~repro.tasks.task.ParallelRegion` expresses "everything between two
barriers runs concurrently", a DAG node carries its own
:class:`~repro.tasks.task.Footprint` plus the edges that must finish before
it may start -- Fox's algorithm and blocked Cholesky (the Parla examples)
are the canonical shapes.

Construction validates everything up front so the executor and planner can
trust the graph: unique node ids, known dependency ids, declared data
objects, and acyclicity (Kahn's algorithm).  Topological *levelling* is the
deterministic backbone of both lowering modes: ``level(n) = 1 + max(level of
deps)``, with nodes inside a level ordered by task id so the result is
independent of insertion order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.tasks.task import DataObject, Footprint

__all__ = ["TaskNode", "TaskDAG"]


@dataclass(frozen=True)
class TaskNode:
    """One task instance in a DAG.

    ``explicit_deps`` were named by the programmer (the ``deps=[...]``
    argument of ``@spawn``); ``inferred_deps`` were derived from declared
    ``reads``/``writes`` object sets (RAW/WAW/WAR ordering).  The executor
    honours the union, deduplicated with explicit edges first.
    """

    task_id: str
    footprint: Footprint
    explicit_deps: tuple[str, ...] = ()
    inferred_deps: tuple[str, ...] = ()
    reads: tuple[str, ...] = ()
    writes: tuple[str, ...] = ()
    input_vector: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if not self.task_id:
            raise ValueError("task_id must be non-empty")
        object.__setattr__(self, "explicit_deps", tuple(self.explicit_deps))
        object.__setattr__(self, "inferred_deps", tuple(self.inferred_deps))
        object.__setattr__(self, "reads", tuple(self.reads))
        object.__setattr__(self, "writes", tuple(self.writes))
        object.__setattr__(self, "input_vector", tuple(self.input_vector))

    @property
    def deps(self) -> tuple[str, ...]:
        """All dependencies, explicit first, deduplicated."""
        return tuple(dict.fromkeys(self.explicit_deps + self.inferred_deps))


@dataclass(frozen=True)
class TaskDAG:
    """A validated task dependency graph plus its data objects."""

    name: str
    objects: tuple[DataObject, ...]
    nodes: tuple[TaskNode, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "objects", tuple(self.objects))
        object.__setattr__(self, "nodes", tuple(self.nodes))
        if not self.nodes:
            raise ValueError(f"DAG {self.name!r} is empty: it has no task nodes")
        ids = [n.task_id for n in self.nodes]
        if len(set(ids)) != len(ids):
            dupes = sorted({t for t in ids if ids.count(t) > 1})
            raise ValueError(f"DAG {self.name!r} has duplicate task ids: {dupes}")
        known = set(ids)
        declared = {o.name for o in self.objects}
        if len(declared) != len(self.objects):
            raise ValueError(f"DAG {self.name!r} declares duplicate objects")
        for node in self.nodes:
            for dep in node.deps:
                if dep == node.task_id:
                    raise ValueError(
                        f"DAG {self.name!r}: task {node.task_id!r} depends on itself"
                    )
                if dep not in known:
                    raise ValueError(
                        f"DAG {self.name!r}: task {node.task_id!r} depends on "
                        f"unknown task {dep!r}"
                    )
            for obj in node.footprint.objects + node.reads + node.writes:
                if obj not in declared:
                    raise ValueError(
                        f"DAG {self.name!r}: task {node.task_id!r} touches "
                        f"undeclared object {obj!r}"
                    )
        # levels() runs Kahn-style longest-path labelling; it raises on
        # cycles, so computing it here completes validation
        object.__setattr__(self, "_levels", self._compute_levels())

    # ------------------------------------------------------------------
    def node(self, task_id: str) -> TaskNode:
        for n in self.nodes:
            if n.task_id == task_id:
                return n
        raise KeyError(task_id)

    @property
    def task_ids(self) -> tuple[str, ...]:
        return tuple(n.task_id for n in self.nodes)

    def successors(self) -> dict[str, tuple[str, ...]]:
        """Forward adjacency, successor lists sorted for determinism."""
        succ: dict[str, list[str]] = {n.task_id: [] for n in self.nodes}
        for node in self.nodes:
            for dep in node.deps:
                succ[dep].append(node.task_id)
        return {tid: tuple(sorted(out)) for tid, out in succ.items()}

    def edges(self) -> tuple[tuple[str, str], ...]:
        """All ``(dep, task)`` edges in deterministic order."""
        out: list[tuple[str, str]] = []
        for node in sorted(self.nodes, key=lambda n: n.task_id):
            for dep in sorted(node.deps):
                out.append((dep, node.task_id))
        return tuple(out)

    def edge_sources(self) -> dict[str, int]:
        """Edge counts by origin; an edge both named and inferred counts
        as explicit."""
        explicit = 0
        inferred = 0
        for node in self.nodes:
            explicit += len(set(node.explicit_deps))
            inferred += len(set(node.inferred_deps) - set(node.explicit_deps))
        return {"explicit": explicit, "inferred": inferred}

    # ------------------------------------------------------------------
    def _compute_levels(self) -> tuple[tuple[TaskNode, ...], ...]:
        by_id = {n.task_id: n for n in self.nodes}
        level: dict[str, int] = {}
        indeg = {n.task_id: len(n.deps) for n in self.nodes}
        succ: dict[str, list[str]] = {n.task_id: [] for n in self.nodes}
        for node in self.nodes:
            for dep in node.deps:
                succ[dep].append(node.task_id)
        frontier = sorted(tid for tid, d in indeg.items() if d == 0)
        for tid in frontier:
            level[tid] = 0
        queue = list(frontier)
        while queue:
            tid = queue.pop()
            for nxt in succ[tid]:
                level[nxt] = max(level.get(nxt, 0), level[tid] + 1)
                indeg[nxt] -= 1
                if indeg[nxt] == 0:
                    queue.append(nxt)
        if len(level) != len(self.nodes):
            stuck = sorted(set(by_id) - set(level))
            raise ValueError(
                f"DAG {self.name!r} contains a dependency cycle through {stuck}"
            )
        depth = max(level.values()) + 1
        out: list[list[TaskNode]] = [[] for _ in range(depth)]
        for tid, lvl in level.items():
            out[lvl].append(by_id[tid])
        return tuple(
            tuple(sorted(lvl, key=lambda n: n.task_id)) for lvl in out
        )

    def levels(self) -> tuple[tuple[TaskNode, ...], ...]:
        """Deterministic topological levelling.

        A node's level is the length of its longest dependency chain from
        any root; nodes within a level are sorted by task id, so the result
        does not depend on insertion order.
        """
        return self._levels  # type: ignore[attr-defined]

    def is_level_sequence(self) -> bool:
        """True when the DAG is semantically a barrier program: every node
        of level ``k`` depends on *every* node of level ``k-1``.  The
        executor then lowers to classic barrier regions and the planner's
        decisions reproduce the barrier objective bit-exactly."""
        levels = self.levels()
        for k in range(1, len(levels)):
            prev = {n.task_id for n in levels[k - 1]}
            for node in levels[k]:
                if not prev <= set(node.deps):
                    return False
        return True

    # ------------------------------------------------------------------
    def tails(
        self,
        weights: Mapping[str, float],
        within: set[str] | None = None,
    ) -> dict[str, float]:
        """Downstream critical-path length per node, *excluding* the node's
        own weight: ``tail(n) = max over successors s of (w(s) + tail(s))``,
        zero for sinks.  ``within`` restricts the graph to a node subset
        (edges leaving the subset are ignored) -- the planner uses it to
        scope tails to the tasks actually being planned."""
        succ = self.successors()
        order = [n.task_id for lvl in self.levels() for n in lvl]
        if within is not None:
            order = [tid for tid in order if tid in within]
        tails: dict[str, float] = {}
        for tid in reversed(order):
            best = 0.0
            for s in succ[tid]:
                if within is not None and s not in within:
                    continue
                cand = float(weights.get(s, 0.0)) + tails.get(s, 0.0)
                if cand > best:
                    best = cand
            tails[tid] = best
        return tails
