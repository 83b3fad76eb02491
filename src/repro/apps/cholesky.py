"""Blocked Cholesky factorisation on the DAG runtime.

Port of the Parla ``blocked_cholesky`` example: a right-looking tiled
factorisation whose task graph is the classic POTRF / TRSM / GEMM-update
triangle.  Unlike Fox, the graph is irregular -- panel tasks gate whole
columns of updates, trailing updates for step ``k+1`` can start while step
``k`` updates still run -- so this is the app that exercises the gated
lowering and the critical-path objective hardest ("more complex
dependencies", per the Parla examples).

Layers:

* :func:`blocked_cholesky` -- runnable numpy reference, validated against
  ``np.linalg.cholesky`` in the tests;
* :class:`CholeskyApp` -- the simulated-scale DAG: the matrix is tiled
  into *uneven* block columns (as a fill-reducing ordering produces), so
  panel and update costs are skewed -- the intrinsic load imbalance;
* kernel IR -- panels and solves stream, trailing updates scatter into
  the target tile through the panels' index structure (supernodal sparse
  update): the tiles being updated are Random and input-dependent.

Outer iterations factor a sequence of drifted matrices with the same
sparsity structure (a simulation refactoring as values evolve), which
gives the planner its base-profile-then-plan lifecycle.
"""

from __future__ import annotations

import numpy as np

from repro.apps.base import AppConfig
from repro.apps.dag_base import DAGApplication
from repro.common import AccessPattern, MIB, make_rng
from repro.core.patterns import Affine, ArrayRef, Indirect, Loop
from repro.runtime.api import DAGBuilder
from repro.runtime.dag import TaskDAG
from repro.tasks.task import DataObject, Footprint, KernelProfile, ObjectAccess

__all__ = ["blocked_cholesky", "CholeskyApp"]


# ---------------------------------------------------------------------------
# reference kernel
# ---------------------------------------------------------------------------
def blocked_cholesky(A: np.ndarray, block_size: int) -> np.ndarray:
    """Right-looking blocked Cholesky; returns the lower factor ``L``.

    The loop structure mirrors the task graph one-to-one: per step ``k``,
    factor the diagonal tile (POTRF), solve the panel below it (TRSM),
    then apply the trailing update (SYRK/GEMM) tile by tile.
    """
    from scipy.linalg import solve_triangular

    n = A.shape[0]
    if A.shape != (n, n):
        raise ValueError("matrix must be square")
    L = np.tril(A.copy())
    L[np.triu_indices(n, 1)] = 0.0
    A = A.copy()
    bounds = list(range(0, n, block_size)) + [n]
    nb = len(bounds) - 1

    def tile(M, i, j):
        return M[bounds[i] : bounds[i + 1], bounds[j] : bounds[j + 1]]

    for k in range(nb):
        tile(A, k, k)[:] = np.linalg.cholesky(tile(A, k, k))
        for i in range(k + 1, nb):
            # A_ik <- A_ik L_kk^{-T}
            tile(A, i, k)[:] = solve_triangular(
                tile(A, k, k), tile(A, i, k).T, lower=True
            ).T
        for i in range(k + 1, nb):
            for j in range(k + 1, i + 1):
                tile(A, i, j)[:] -= tile(A, i, k) @ tile(A, j, k).T
    return np.tril(A)


# ---------------------------------------------------------------------------
# workload
# ---------------------------------------------------------------------------
class CholeskyApp(DAGApplication):
    """Blocked Cholesky at simulated scale on the DAG runtime."""

    name = "Cholesky"

    @classmethod
    def small_config(cls) -> AppConfig:
        return AppConfig(
            n_tasks=3,  # 3x3 tile triangle -> 10 tasks per factorisation
            footprint_bytes=96 * MIB,
            iterations=3,
            mpi_processes=1,
            openmp_threads=4,
            reference_scale=8,
        )

    @classmethod
    def paper_config(cls) -> AppConfig:
        return AppConfig(
            n_tasks=4,  # 4x4 tile triangle -> 20 tasks per factorisation
            footprint_bytes=430 * MIB,
            iterations=8,  # refactorisation sequence: profile early, plan the rest
            mpi_processes=1,
            openmp_threads=8,
            reference_scale=9,
        )

    @property
    def nb(self) -> int:
        return self.config.n_tasks

    def _tile_pairs(self) -> list[tuple[int, int]]:
        return [(i, j) for i in range(self.nb) for j in range(i + 1)]

    def _widths(self, seed) -> np.ndarray:
        """Relative block-column widths: uneven, as a fill-reducing
        ordering's supernode partition produces."""
        rng = make_rng(seed ^ 0x5EED)
        raw = rng.dirichlet(np.full(self.nb, 2.0))
        uniform = np.full(self.nb, 1.0 / self.nb)
        w = 0.45 * uniform + 0.55 * raw
        return w / w.sum()

    # -- DAG builder --------------------------------------------------------
    def build_dags(self, seed=None) -> list[TaskDAG]:
        seed = self.seed if seed is None else seed
        rng = make_rng(seed)
        nb = self.nb
        cfg = self.config
        w = self._widths(seed)
        pairs = self._tile_pairs()

        # tile (i, j) holds a w_i x w_j slab of the matrix
        wsum = sum(w[i] * w[j] for i, j in pairs)
        tile_bytes = {
            (i, j): max(int(cfg.footprint_bytes * (w[i] * w[j]) / wsum), MIB)
            for i, j in pairs
        }
        objects = [
            DataObject(
                f"A_{i}_{j}",
                size_bytes=tile_bytes[(i, j)],
                owner=None,  # tiles are shared across POTRF/TRSM/update tasks
                hotness="zipf",
                zipf_s=float(rng.uniform(0.3, 0.8)),
            )
            for i, j in pairs
        ]

        total_accesses = int(0.9 * cfg.footprint_bytes / 64)
        flop_unit = sum(w[i] * w[j] * w[k] for i, j in pairs for k in range(j))
        flop_unit = max(flop_unit, 1e-9)
        panel_profile = KernelProfile(
            branch_rate=0.08, branch_misp_rate=0.02, vector_fraction=0.4, ilp=2.4
        )
        upd_profile = KernelProfile(
            branch_rate=0.11, branch_misp_rate=0.045, vector_fraction=0.2, ilp=1.8
        )

        dags: list[TaskDAG] = []
        self._node_sizes = {}
        for it in range(cfg.iterations):
            scale = float(rng.uniform(0.85, 1.2)) if it > 0 else 1.0
            density = float(rng.uniform(0.8, 1.3)) if it > 0 else 1.0
            # per-tile fill drift: each factorisation in the sequence has
            # different numeric fill inside every supernode tile, so the
            # expensive tiles move between iterations -- input-dependent
            # behaviour a one-shot hand placement cannot follow
            fill = {
                pair: (float(rng.uniform(0.6, 1.55)) if it > 0 else 1.0)
                for pair in pairs
            }
            b = DAGBuilder(self.name)
            for obj in objects:
                b.declare_object(obj)

            def acc_count(work: float, frac: float, dens: float = 1.0) -> float:
                return work / max(flop_unit, 1e-12) * total_accesses * frac * dens

            for k in range(nb):
                # POTRF on the diagonal tile
                tid = f"potrf_{k}"
                kk = tile_bytes[(k, k)]
                work = w[k] ** 3 * fill[(k, k)]
                reads = self.mem_accesses(
                    AccessPattern.STREAM,
                    max(int(acc_count(work, 0.35) * scale), 64), 8, kk,
                )
                fp = Footprint(
                    accesses=(
                        ObjectAccess(
                            f"A_{k}_{k}", AccessPattern.STREAM,
                            reads=reads, writes=max(reads // 2, 32),
                        ),
                    ),
                    instructions=max(int(acc_count(work, 12.0) * scale), 1000),
                    profile=panel_profile,
                )
                sizes = {f"A_{k}_{k}": max(int(kk * scale * fill[(k, k)]), MIB)}
                self._node_sizes[(tid, it)] = sizes
                b.add_task(
                    tid, fp,
                    reads=[f"A_{k}_{k}"], writes=[f"A_{k}_{k}"],
                    input_vector=tuple(float(v) for v in sizes.values()),
                )
                # TRSM panel solves below the diagonal
                for i in range(k + 1, nb):
                    tid = f"trsm_{i}_{k}"
                    ik = tile_bytes[(i, k)]
                    work = w[i] * w[k] ** 2 * fill[(i, k)]
                    kk_reads = self.mem_accesses(
                        AccessPattern.STREAM,
                        max(int(acc_count(work, 0.2) * scale), 64), 8, kk,
                    )
                    ik_reads = self.mem_accesses(
                        AccessPattern.STREAM,
                        max(int(acc_count(work, 0.4) * scale), 64), 8, ik,
                    )
                    fp = Footprint(
                        accesses=(
                            ObjectAccess(
                                f"A_{k}_{k}", AccessPattern.STREAM, reads=kk_reads
                            ),
                            ObjectAccess(
                                f"A_{i}_{k}", AccessPattern.STREAM,
                                reads=ik_reads, writes=max(ik_reads // 2, 32),
                            ),
                        ),
                        instructions=max(int(acc_count(work, 10.0) * scale), 1000),
                        profile=panel_profile,
                    )
                    sizes = {
                        f"A_{k}_{k}": max(int(kk * scale * fill[(k, k)]), MIB),
                        f"A_{i}_{k}": max(int(ik * scale * fill[(i, k)]), MIB),
                    }
                    self._node_sizes[(tid, it)] = sizes
                    b.add_task(
                        tid, fp,
                        reads=[f"A_{k}_{k}", f"A_{i}_{k}"], writes=[f"A_{i}_{k}"],
                        input_vector=tuple(float(v) for v in sizes.values()),
                    )
                # trailing updates: scatter-accumulate into the target tile
                # through the panels' index structure (supernodal update)
                for i in range(k + 1, nb):
                    for j in range(k + 1, i + 1):
                        tid = f"upd_{i}_{j}_{k}"
                        ij = tile_bytes[(i, j)]
                        work = w[i] * w[j] * w[k] * fill[(i, j)]
                        p_reads = self.mem_accesses(
                            AccessPattern.STREAM,
                            max(int(acc_count(work, 0.3) * scale), 64), 8,
                            tile_bytes[(i, k)],
                        )
                        q_reads = self.mem_accesses(
                            AccessPattern.STREAM,
                            max(int(acc_count(work, 0.3) * scale), 64), 8,
                            tile_bytes[(j, k)],
                        )
                        scatter = self.mem_accesses(
                            AccessPattern.RANDOM,
                            max(int(acc_count(work, 0.5, density) * scale), 64),
                            8, ij,
                        )
                        fp = Footprint(
                            accesses=(
                                ObjectAccess(
                                    f"A_{i}_{k}", AccessPattern.STREAM, reads=p_reads
                                ),
                                ObjectAccess(
                                    f"A_{j}_{k}", AccessPattern.STREAM, reads=q_reads
                                ),
                                ObjectAccess(
                                    f"A_{i}_{j}", AccessPattern.RANDOM,
                                    reads=scatter, writes=scatter,
                                ),
                            ),
                            instructions=max(int(acc_count(work, 16.0) * scale), 1000),
                            profile=upd_profile,
                        )
                        sizes = {
                            f"A_{i}_{k}": max(
                                int(tile_bytes[(i, k)] * scale * fill[(i, k)]), MIB
                            ),
                            f"A_{j}_{k}": max(
                                int(tile_bytes[(j, k)] * scale * fill[(j, k)]), MIB
                            ),
                            f"A_{i}_{j}": max(
                                int(ij * scale * fill[(i, j)]), MIB
                            ),
                        }
                        self._node_sizes[(tid, it)] = sizes
                        b.add_task(
                            tid, fp,
                            reads=[f"A_{i}_{k}", f"A_{j}_{k}", f"A_{i}_{j}"],
                            writes=[f"A_{i}_{j}"],
                            input_vector=tuple(float(v) for v in sizes.values()),
                        )
            dags.append(b.build())
        return dags

    # -- Merchandiser registration ------------------------------------------
    def task_kernels(self) -> dict[str, list[Loop]]:
        nb = self.nb
        kernels: dict[str, list[Loop]] = {}
        for k in range(nb):
            kk = f"A_{k}_{k}"
            kernels[f"potrf_{k}"] = [
                Loop(
                    "t",
                    (
                        ArrayRef(kk, Affine("t")),
                        ArrayRef(kk, Affine("t"), is_write=True),
                    ),
                )
            ]
            for i in range(k + 1, nb):
                ik = f"A_{i}_{k}"
                kernels[f"trsm_{i}_{k}"] = [
                    Loop(
                        "t",
                        (
                            ArrayRef(kk, Affine("t")),
                            ArrayRef(ik, Affine("t")),
                            ArrayRef(ik, Affine("t"), is_write=True),
                        ),
                    )
                ]
            for i in range(k + 1, nb):
                for j in range(k + 1, i + 1):
                    ik, jk, ij = f"A_{i}_{k}", f"A_{j}_{k}", f"A_{i}_{j}"
                    kernels[f"upd_{i}_{j}_{k}"] = [
                        Loop(
                            "t",
                            (
                                ArrayRef(ik, Affine("t")),
                                ArrayRef(jk, Affine("t")),
                                # scatter through the panel's index structure
                                ArrayRef(ij, Indirect(ik, Affine("t"))),
                                ArrayRef(
                                    ij, Indirect(ik, Affine("t")), is_write=True
                                ),
                            ),
                        )
                    ]
        return kernels

    def managed_objects(self, dag: TaskDAG) -> dict[str, list[DataObject]]:
        by_name = {o.name: o for o in dag.objects}
        return {
            node.task_id: [by_name[name] for name in node.footprint.objects]
            for node in dag.nodes
        }

    def input_dependent_objects(self) -> dict[str, tuple[str, ...]]:
        out: dict[str, tuple[str, ...]] = {}
        for k in range(self.nb):
            for i in range(k + 1, self.nb):
                for j in range(k + 1, i + 1):
                    out[f"upd_{i}_{j}_{k}"] = (f"A_{i}_{j}",)
        return out

    def hand_priority(self) -> list[str]:
        """The developer's static ranking: diagonal tiles first (they gate
        every step), then the first panel column, then the rest by size."""
        diag = [f"A_{k}_{k}" for k in range(self.nb)]
        panel0 = [f"A_{i}_0" for i in range(1, self.nb)]
        tile_order = sorted(
            (
                (i, j)
                for i, j in self._tile_pairs()
                if i != j and not (j == 0 and i > 0)
            ),
        )
        rest = [f"A_{i}_{j}" for i, j in tile_order]
        return diag + panel0 + rest
