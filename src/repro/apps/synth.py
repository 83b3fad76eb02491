"""Synthetic input generators (stand-ins for the paper's datasets).

The paper's inputs -- GAP-kron (SpGEMM), com-Orkut (BFS), a 512^3 plasma box
(WarpX), a 320x320 Hubbard model (DMRG) and a Cytosine tensor (NWChem-TC) --
are hundreds of GB.  These generators produce laptop-sized instances with
the *structural* properties that drive placement behaviour: power-law degree
skew for the Kronecker/social graphs, beam density profiles for the plasma,
and uneven tile dimensions for the tensors.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.common import make_rng

if TYPE_CHECKING:  # pragma: no cover
    from scipy import sparse

__all__ = ["rmat_matrix", "rmat_graph", "beam_density", "uneven_partition"]


def rmat_matrix(
    scale: int,
    edge_factor: int = 16,
    a: float = 0.57,
    b: float = 0.19,
    c: float = 0.19,
    seed=0,
) -> sparse.csr_matrix:
    """R-MAT / Kronecker sparse matrix (the GAP-kron family's generator).

    ``scale`` is log2 of the dimension; ``edge_factor`` the average nonzeros
    per row.  Returns a binary CSR matrix with the characteristic power-law
    row-degree distribution.
    """
    from scipy import sparse

    if scale < 2 or scale > 24:
        raise ValueError("scale must be in [2, 24] for a laptop-sized matrix")
    if a + b + c >= 1.0:
        raise ValueError("R-MAT probabilities must sum below 1")
    rng = make_rng(seed)
    n = 1 << scale
    m = n * edge_factor
    rows = np.zeros(m, dtype=np.int64)
    cols = np.zeros(m, dtype=np.int64)
    # vectorised R-MAT: one quadrant decision per bit level for all edges
    for level in range(scale):
        r = rng.random(m)
        # quadrants: a=(0,0) b=(0,1) c=(1,0) d=(1,1)
        bit_row = r >= a + b
        bit_col = ((r >= a) & (r < a + b)) | (r >= a + b + c)
        rows |= (bit_row.astype(np.int64) << level)
        cols |= (bit_col.astype(np.int64) << level)
    data = np.ones(m, dtype=np.float64)
    mat = sparse.coo_matrix((data, (rows, cols)), shape=(n, n))
    mat.sum_duplicates()
    csr = mat.tocsr()
    csr.data[:] = 1.0
    return csr


def rmat_graph(scale: int, edge_factor: int = 16, seed=0) -> sparse.csr_matrix:
    """Symmetrised R-MAT adjacency matrix (the com-Orkut stand-in)."""
    m = rmat_matrix(scale, edge_factor, seed=seed)
    sym = m + m.T
    sym.data[:] = 1.0
    sym.setdiag(0)
    sym.eliminate_zeros()
    return sym.tocsr()


def beam_density(n_slabs: int, particles_total: int, spread: float = 0.25, seed=0) -> np.ndarray:
    """Per-slab particle counts for a beam-plasma box.

    A Gaussian beam density across the domain: slabs near the beam core
    carry more particles.  ``spread`` controls how uneven the distribution
    is (the paper notes WarpX has little intrinsic imbalance, so the default
    is mild).
    """
    if n_slabs < 1 or particles_total < n_slabs:
        raise ValueError("need at least one particle per slab")
    x = np.linspace(-1.0, 1.0, n_slabs)
    density = np.exp(-0.5 * (x / max(spread, 1e-6)) ** 2) + 0.6
    density /= density.sum()
    counts = np.floor(density * particles_total).astype(np.int64)
    counts[: particles_total - counts.sum()] += 1
    rng = make_rng(seed)
    jitter = rng.normal(1.0, 0.02, size=n_slabs)
    counts = np.maximum(1, (counts * jitter).astype(np.int64))
    return counts


def uneven_partition(total: int, n_parts: int, skew: float, seed=0) -> np.ndarray:
    """Split ``total`` units into ``n_parts`` with controllable skew.

    ``skew=0`` gives equal parts; larger skews approach a power-law split
    (the "inequable tensors" of NWChem-TC and the uneven graph partitions
    of BFS).
    """
    if n_parts < 1 or total < n_parts:
        raise ValueError("need at least one unit per part")
    if skew < 0:
        raise ValueError("skew must be non-negative")
    rng = make_rng(seed)
    if skew == 0:
        weights = np.ones(n_parts)
    else:
        weights = rng.pareto(max(0.5, 3.0 / (1.0 + skew)), size=n_parts) + 1.0
        weights = weights ** min(skew, 3.0)
    weights /= weights.sum()
    counts = np.floor(weights * total).astype(np.int64)
    counts[: total - counts.sum()] += 1
    return np.maximum(counts, 1)
