"""BFS: level-synchronous breadth-first search (com-Orkut stand-in).

Table 2: com-Orkut (3.07E+9 edges after symmetrisation), 731.9 GB, 12
OpenMP threads.  The graph is vertex-partitioned across threads; each BFS
level is a parallel region ending in the frontier-exchange barrier.  The
intrinsic load imbalance the paper attributes to "the uneven graph
partitioning approach" shows up as wildly different per-partition frontier
edge counts per level.

Layers:

* :func:`bfs_levels` -- a real level-synchronous BFS on a CSR adjacency
  matrix (validated against networkx in the tests), which also reports the
  per-partition edges traversed at every level;
* :class:`BFSApp` -- workload builder: the per-level, per-partition edge
  counts of an actual R-MAT graph drive the footprints, so imbalance comes
  from genuine graph structure;
* kernel IR: stream over the frontier and row pointers, random gather on
  neighbour/visited state -- Table 1's "Stream + Random".
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.common import AccessPattern, MIB, make_rng
from repro.apps.base import AppConfig, Application
from repro.apps.synth import rmat_graph
from repro.core.patterns import Affine, ArrayRef, Indirect, Loop
from repro.tasks.task import (
    DataObject,
    Footprint,
    KernelProfile,
    ObjectAccess,
    Workload,
)
from repro.tasks.frontends import OpenMPProgram

if TYPE_CHECKING:  # pragma: no cover
    from scipy import sparse

__all__ = ["bfs_levels", "partition_vertices", "BFSApp"]


def partition_vertices(n_vertices: int, n_parts: int) -> np.ndarray:
    """Contiguous vertex partition bounds (n_parts + 1 entries)."""
    if n_parts < 1:
        raise ValueError("need at least one partition")
    return np.linspace(0, n_vertices, n_parts + 1).astype(np.int64)


def bfs_levels(
    graph: sparse.csr_matrix, source: int, n_parts: int
) -> tuple[np.ndarray, np.ndarray]:
    """Level-synchronous BFS.

    Returns ``(distances, work)`` where ``distances[v]`` is the BFS level of
    vertex ``v`` (-1 if unreachable) and ``work[l, p]`` counts the edges
    partition ``p`` traverses while expanding level ``l``'s frontier.
    """
    n = graph.shape[0]
    if not 0 <= source < n:
        raise IndexError("source out of range")
    bounds = partition_vertices(n, n_parts)
    part_of = np.searchsorted(bounds, np.arange(n), side="right") - 1
    dist = np.full(n, -1, dtype=np.int64)
    dist[source] = 0
    frontier = np.array([source], dtype=np.int64)
    work_rows: list[np.ndarray] = []
    level = 0
    indptr, indices = graph.indptr, graph.indices
    while len(frontier):
        # per-partition edge work for this level: owners expand their
        # frontier vertices
        degrees = indptr[frontier + 1] - indptr[frontier]
        row = np.bincount(part_of[frontier], weights=degrees, minlength=n_parts)
        work_rows.append(row)
        # expand
        neigh = np.concatenate(
            [indices[indptr[v] : indptr[v + 1]] for v in frontier]
        ) if len(frontier) else np.empty(0, dtype=np.int64)
        neigh = np.unique(neigh)
        new = neigh[dist[neigh] < 0]
        dist[new] = level + 1
        frontier = new
        level += 1
    return dist, np.vstack(work_rows) if work_rows else np.zeros((0, n_parts))


class BFSApp(Application):
    """Task-parallel BFS at simulated scale."""

    name = "BFS"
    paper_memory_gb = 731.9
    paper_problem = "com-Orkut with 3.07E+9 edges (after symmetrisation)"

    @classmethod
    def small_config(cls) -> AppConfig:
        return AppConfig(
            n_tasks=4,
            footprint_bytes=96 * MIB,
            iterations=2,
            mpi_processes=1,
            openmp_threads=4,
            reference_scale=10,
        )

    @classmethod
    def paper_config(cls) -> AppConfig:
        return AppConfig(
            n_tasks=12,
            footprint_bytes=int(731.9 * MIB),
            iterations=3,
            mpi_processes=1,
            openmp_threads=12,
            reference_scale=12,
        )

    # ------------------------------------------------------------------
    def _level_statistics(self, seed) -> tuple[np.ndarray, np.ndarray]:
        """(per-partition edge shares per level, partition vertex shares).

        Runs real BFS instances from a few sources on an R-MAT graph and
        keeps the level-by-partition work matrix of the deepest run.
        """
        rng = make_rng(seed)
        g = rmat_graph(self.config.reference_scale, seed=seed)
        deg = np.diff(g.indptr)
        candidates = np.flatnonzero(deg > 0)
        best: np.ndarray | None = None
        for _ in range(3):
            src = int(rng.choice(candidates))
            _, work = bfs_levels(g, src, self.n_tasks)
            if best is None or work.shape[0] > best.shape[0]:
                best = work
        assert best is not None
        # drop levels with negligible work, keep at most 6 meaty levels
        totals = best.sum(axis=1)
        keep = totals > totals.max() * 1e-3
        best = best[keep][:6]
        bounds = partition_vertices(g.shape[0], self.n_tasks)
        vertex_share = np.diff(bounds) / g.shape[0]
        shares = best / np.maximum(best.sum(axis=1, keepdims=True), 1.0)
        # hub partitions dominate every sizeable frontier level, so blend
        # each level's share toward the run-average share (stabilises which
        # partition is the heavy one); temper the small-R-MAT extremes
        mean_share = shares.mean(axis=0, keepdims=True)
        shares = 0.5 * mean_share + 0.5 * shares
        uniform = np.full(self.n_tasks, 1.0 / self.n_tasks)
        shares = 0.8 * uniform[None, :] + 0.2 * shares
        shares /= shares.sum(axis=1, keepdims=True)
        return shares, vertex_share

    # ------------------------------------------------------------------
    def build_workload(self, seed=None) -> Workload:
        seed = self.seed if seed is None else seed
        rng = make_rng(seed)
        cfg = self.config
        level_shares, vertex_share = self._level_statistics(seed)
        n_levels = level_shares.shape[0]

        prog = OpenMPProgram(self.name, cfg.n_tasks)
        budget = cfg.footprint_bytes
        # CSR adjacency dominates (~75%); visited/frontier state is shared
        graph_bytes = (0.75 * budget * vertex_share).astype(np.int64)
        state_bytes = int(0.25 * budget)
        prog.declare_object(
            DataObject(
                "visited", size_bytes=state_bytes, owner=None,
                hotness="zipf", zipf_s=0.5,
            )
        )
        for t in range(cfg.n_tasks):
            prog.declare_object(
                DataObject(
                    f"graph_part{t}",
                    size_bytes=max(int(graph_bytes[t]), MIB),
                    owner=prog.task_id(t),
                    hotness="zipf",
                    # per-partition locality differs with community
                    # structure: hub-heavy partitions cache well, others not
                    zipf_s=float(rng.uniform(0.1, 0.5)),
                )
            )

        # one BFS run traverses every edge once: budget the whole traversal
        # at ~0.9x footprint in line accesses, split across levels
        traversal_accesses = 0.9 * budget / 64
        level_weight = np.array(
            [0.05, 0.25, 0.45, 0.15, 0.07, 0.03][:n_levels]
        )
        level_weight /= level_weight.sum()

        profile = KernelProfile(
            branch_rate=0.18, branch_misp_rate=0.06, vector_fraction=0.02, ilp=1.5
        )
        for it in range(cfg.iterations):
            scale = float(rng.uniform(0.85, 1.2)) if it > 0 else 1.0
            # each run starts from a different source: the frontier shape
            # (and hence random traffic per edge) drifts non-proportionally
            density = float(rng.uniform(0.7, 1.4)) if it > 0 else 1.0
            for lvl in range(n_levels):
                fps = []
                vecs = []
                region_name = f"bfs{it}.level{lvl}"
                lvl_acc = traversal_accesses * level_weight[lvl] * scale
                for t in range(cfg.n_tasks):
                    edges = max(int(lvl_acc * level_shares[lvl, t]), 64)
                    g_reads = self.mem_accesses(
                        AccessPattern.STREAM, edges, 8, int(graph_bytes[t])
                    )
                    v_acc = self.mem_accesses(
                        AccessPattern.RANDOM, max(int(edges * density), 64), 4, state_bytes
                    )
                    fp = Footprint(
                        accesses=(
                            ObjectAccess(
                                f"graph_part{t}", AccessPattern.STREAM, reads=g_reads
                            ),
                            ObjectAccess(
                                "visited",
                                AccessPattern.RANDOM,
                                reads=max(v_acc * 3 // 4, 1),
                                writes=max(v_acc // 4, 1),
                            ),
                        ),
                        instructions=max(int(edges * 120), 1000),
                        profile=profile,
                    )
                    fps.append(fp)
                    sizes = {
                        f"graph_part{t}": max(int(graph_bytes[t]), MIB),
                        "visited": state_bytes,
                    }
                    # the graph does not change across runs; the frontier
                    # (captured in the input vector) does
                    self._instance_sizes[(prog.task_id(t), region_name)] = {
                        k: max(int(v * scale), 1) for k, v in sizes.items()
                    }
                    vecs.append((edges * 64.0, state_bytes * scale))
                prog.parallel_region(
                    region_name, fps, input_vectors=vecs, kind=f"level{lvl}"
                )
        return prog.build()

    # ------------------------------------------------------------------
    def task_kernels(self) -> dict[str, list[Loop]]:
        kernels = {}
        for t in range(self.n_tasks):
            tid = f"thread{t}"
            expand = Loop(
                "f",
                (
                    Loop(
                        "e",
                        (
                            ArrayRef(f"graph_part{t}", Affine("e")),
                            ArrayRef(
                                "visited",
                                Indirect(f"graph_part{t}", Affine("e")),
                                is_write=True,
                            ),
                        ),
                    ),
                ),
            )
            kernels[tid] = [expand]
        return kernels

    def managed_objects(self, workload: Workload) -> dict[str, list[DataObject]]:
        return {
            f"thread{t}": [
                workload.object(f"graph_part{t}"),
                workload.object("visited"),
            ]
            for t in range(self.n_tasks)
        }

    def input_dependent_objects(self) -> dict[str, tuple[str, ...]]:
        # the frontier (and thus which parts of 'visited' are touched)
        # changes with every input: alpha must be refined online
        return {f"thread{t}": ("visited",) for t in range(self.n_tasks)}

    def sparta_input_objects(self) -> list[str] | None:
        return None  # Sparta is SpGEMM-specific; not used for BFS
