"""Batched numpy kernels for decision-tree and GBR inference.

This module is the compute core of the plan/predict hot path
(PERFORMANCE.md is the reference).  A fitted CART tree is frozen into a
struct-of-arrays encoding (:class:`TreeArrays`); a fitted boosted ensemble
is frozen into one flat node arena (:class:`ForestArrays`).  Inference then
never touches Python node objects:

* :func:`tree_apply` descends one tree for a whole sample batch with a
  per-sample cursor vector (one numpy pass per tree level);
* :func:`forest_apply` descends *every* tree of an ensemble for the whole
  batch at once with a ``(n_trees, n_samples)`` cursor matrix -- the loop
  count drops from ``n_trees`` Python iterations to ``max_depth`` numpy
  iterations;
* :func:`forest_predict` turns the leaf matrix into predictions with the
  exact float-accumulation order of the scalar boosting loop
  (``pred += learning_rate * tree_k(X)`` for k = 0, 1, ...), which is what
  keeps the vectorized path bit-identical to the scalar one;
* :func:`stacked_features` builds the tasks x ratio-grid feature matrix
  the correlation function feeds the ensemble (the batching contract:
  predictions are row-wise independent, so stacking k tasks' grids into
  one call returns the same bits as k separate calls).

These kernels are the only production path.  The scalar forms they
replaced live in ``tests/oracles/scalar.py`` as the differential
specification ``tests/test_kernels.py`` compares them against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from repro.ml.tree import DecisionTreeRegressor

__all__ = [
    "TreeArrays",
    "ForestArrays",
    "pack_tree",
    "pack_forest",
    "tree_apply",
    "forest_apply",
    "forest_predict",
    "stacked_features",
    "KERNEL_ENTRY_POINTS",
]


@dataclass(frozen=True)
class TreeArrays:
    """Struct-of-arrays encoding of one fitted CART tree.

    ``feature[i] < 0`` marks node ``i`` as a leaf.  ``left``/``right`` are
    node indices into the same arrays; ``value`` is the leaf mean.  The
    arrays are read-only views conceptually -- kernels never mutate them.

    ``split_feature``/``split_threshold``/``children``/``depth`` are the
    descent-form encoding (leaves as self-loops that always compare
    "left" against ``+inf``), shared with :class:`ForestArrays` -- see
    there for why it removes all per-level leaf bookkeeping and why the
    index arrays are intp.
    """

    feature: np.ndarray          # (n_nodes,) int64, -1 for leaves
    threshold: np.ndarray        # (n_nodes,) float64
    left: np.ndarray             # (n_nodes,) int64
    right: np.ndarray            # (n_nodes,) int64
    value: np.ndarray            # (n_nodes,) float64
    split_feature: np.ndarray    # (n_nodes,) intp, 0 at leaves
    split_threshold: np.ndarray  # (n_nodes,) float64, +inf at leaves
    children: np.ndarray         # (2 * n_nodes,) intp, self-loop at leaves
    depth: int                   # edge-count depth (a lone root: 0)

    @property
    def n_nodes(self) -> int:
        return int(self.feature.shape[0])


@dataclass(frozen=True)
class ForestArrays:
    """Flat node arena for a whole ensemble of trees.

    Every tree's nodes are concatenated; ``roots[k]`` is the arena index of
    tree ``k``'s root and ``left``/``right`` hold arena-global indices, so
    one cursor matrix can descend all trees at once (:func:`forest_apply`).

    The descent itself reads the derived arrays, which encode leaves as
    self-loops so the inner loop needs no is-a-leaf bookkeeping: a leaf's
    ``split_feature`` is 0 and its ``split_threshold`` is ``+inf`` (every
    comparison routes "left"), and ``children[2 * i]`` / ``children[2 * i + 1]``
    are the left/right child of node ``i`` -- a leaf's both children are the
    leaf itself.  After ``depth`` iterations every lane provably rests on a
    leaf.  Index arrays are intp on purpose: numpy silently casts any other
    integer dtype to intp on every fancy-index, which would add a full
    cursor-matrix conversion pass to each of the descent's gathers.
    """

    roots: np.ndarray            # (n_trees,) int64
    feature: np.ndarray          # (total_nodes,) int64, -1 for leaves
    threshold: np.ndarray        # (total_nodes,) float64
    left: np.ndarray             # (total_nodes,) int64
    right: np.ndarray            # (total_nodes,) int64
    value: np.ndarray            # (total_nodes,) float64
    split_feature: np.ndarray    # (total_nodes,) intp, 0 at leaves
    split_threshold: np.ndarray  # (total_nodes,) float64, +inf at leaves
    children: np.ndarray         # (2 * total_nodes,) intp, self-loop at leaves
    depth: int                   # max tree depth (root-only tree: 0)

    @property
    def n_trees(self) -> int:
        return int(self.roots.shape[0])


def pack_tree(nodes: Sequence) -> TreeArrays:
    """Freeze a fitted tree's ``_Node`` list into :class:`TreeArrays`.

    Called once at fit time; inference reuses the arrays on every call
    instead of re-walking the Python node objects.
    """
    feature = np.array([nd.feature for nd in nodes], dtype=np.int64)
    threshold = np.array([nd.threshold for nd in nodes], dtype=np.float64)
    left = np.array([nd.left for nd in nodes], dtype=np.int64)
    right = np.array([nd.right for nd in nodes], dtype=np.int64)
    is_leaf = feature < 0
    node_ids = np.arange(feature.shape[0], dtype=np.int64)
    children = np.empty(2 * feature.shape[0], dtype=np.intp)
    children[0::2] = np.where(is_leaf, node_ids, left)
    children[1::2] = np.where(is_leaf, node_ids, right)
    return TreeArrays(
        feature=feature,
        threshold=threshold,
        left=left,
        right=right,
        value=np.array([nd.value for nd in nodes], dtype=np.float64),
        split_feature=np.where(is_leaf, 0, feature).astype(np.intp),
        split_threshold=np.where(is_leaf, np.inf, threshold),
        children=children,
        depth=_tree_depth(feature, left, right),
    )


def pack_forest(trees: Sequence["DecisionTreeRegressor"]) -> ForestArrays:
    """Concatenate fitted trees into one :class:`ForestArrays` arena.

    ``left``/``right`` are rebased to arena-global indices.  Packing is a
    one-time cost per fitted ensemble (the GBR caches the result).
    """
    if not trees:
        raise ValueError("cannot pack an empty forest")
    parts = [t.arrays() for t in trees]
    sizes = np.array([p.n_nodes for p in parts], dtype=np.int64)
    offsets = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    feature = np.concatenate([p.feature for p in parts])
    threshold = np.concatenate([p.threshold for p in parts])
    value = np.concatenate([p.value for p in parts])
    # child indices are -1 at leaves; rebasing must leave those alone
    left = np.concatenate(
        [np.where(p.left >= 0, p.left + off, p.left) for p, off in zip(parts, offsets)]
    ).astype(np.int64)
    right = np.concatenate(
        [np.where(p.right >= 0, p.right + off, p.right) for p, off in zip(parts, offsets)]
    ).astype(np.int64)

    # descent-form encoding: leaves become self-loops with an always-left
    # comparison, so forest_apply can run a fixed number of unmasked levels
    is_leaf = feature < 0
    nodes = np.arange(feature.shape[0], dtype=np.int64)
    children = np.empty(2 * feature.shape[0], dtype=np.intp)
    children[0::2] = np.where(is_leaf, nodes, left)
    children[1::2] = np.where(is_leaf, nodes, right)
    return ForestArrays(
        roots=offsets.astype(np.int64),
        feature=feature,
        threshold=threshold,
        left=left,
        right=right,
        value=value,
        split_feature=np.where(is_leaf, 0, feature).astype(np.intp),
        split_threshold=np.where(is_leaf, np.inf, threshold),
        children=children,
        depth=max(p.depth for p in parts),
    )


def _tree_depth(feature: np.ndarray, left: np.ndarray, right: np.ndarray) -> int:
    """Edge-count depth of a packed tree (a lone root has depth 0)."""
    depth = np.zeros(feature.shape[0], dtype=np.int64)
    deepest = 0
    # children always come after their parent in the fit-order node list,
    # so one forward pass assigns every node its root distance
    for i in range(feature.shape[0]):
        if feature[i] >= 0:
            d = depth[i] + 1
            depth[left[i]] = d
            depth[right[i]] = d
            if d > deepest:
                deepest = int(d)
    return deepest


def tree_apply(tree: TreeArrays, X: np.ndarray) -> np.ndarray:
    """Leaf values of one tree for every row of ``X`` (shape ``(n,)``).

    Iterative vectorized descent: a per-sample cursor walks the node
    arrays until every sample rests on a leaf.  Split comparisons are
    exact (``x <= threshold``), so the routing -- and therefore the leaf
    value -- is bit-identical to a scalar per-sample walk.  Uses the same
    self-looping descent encoding as :func:`forest_apply` (fixed ``depth``
    levels, four gathers per level, no leaf masking).
    """
    n, d = X.shape
    Xf = np.ascontiguousarray(X, dtype=np.float64).ravel()
    cursor = np.zeros(n, dtype=np.intp)
    rowbase = np.arange(n, dtype=np.intp) * d
    for _ in range(tree.depth):
        f = tree.split_feature[cursor]
        f += rowbase
        xv = Xf[f]
        go_right = xv > tree.split_threshold[cursor]
        cursor <<= 1
        cursor += go_right
        cursor = tree.children[cursor]
    return tree.value[cursor]


def forest_apply(forest: ForestArrays, X: np.ndarray) -> np.ndarray:
    """Leaf-value matrix ``(n_trees, n_samples)`` for the whole ensemble.

    One ``(n_trees, n_samples)`` cursor matrix descends all trees
    simultaneously; the loop runs ``max(tree depth)`` times, not
    ``n_trees`` times.  Each (tree, sample) lane routes exactly as the
    per-tree descent would, so the leaf matrix is bit-identical to
    stacking :func:`tree_apply` results.

    The inner loop is four gathers and two elementwise passes per level,
    all through the self-looping descent encoding (see
    :class:`ForestArrays`): lanes already on a leaf compare against
    ``+inf``, route "left", and stay put, so no activity mask is needed
    and the level count is the packed ``depth``.  The feature-value
    gather goes through the flattened row-major ``X`` with fused
    ``row * d + feature`` indices -- one take instead of a broadcast
    double fancy-index.
    """
    n, d = X.shape
    Xf = np.ascontiguousarray(X, dtype=np.float64).ravel()
    cursor = np.repeat(
        forest.roots.astype(np.intp)[:, None], n, axis=1
    )  # (T, n) intp
    rowbase = (np.arange(n, dtype=np.intp) * d)[None, :]
    for _ in range(forest.depth):
        f = forest.split_feature[cursor]
        f += rowbase
        xv = Xf[f]
        go_right = xv > forest.split_threshold[cursor]
        cursor <<= 1
        cursor += go_right
        cursor = forest.children[cursor]
    return forest.value[cursor]


def forest_predict(
    forest: ForestArrays,
    X: np.ndarray,
    init: float,
    learning_rate: float,
) -> np.ndarray:
    """Boosted-ensemble predictions with scalar-identical accumulation.

    The scalar GBR computes ``pred = init; pred += lr * tree_k(X)`` one
    tree at a time.  Float addition is not associative, so the kernel
    must NOT sum the leaf matrix with a (pairwise) ``np.sum``; it replays
    the same tree-ordered accumulation over the batched leaf matrix.
    The per-tree vector adds are elementwise, so the result is
    bit-identical to the scalar loop for every row.
    """
    leaves = forest_apply(forest, X)
    # scaling first is elementwise (exactly rounded per lane), so one 2-D
    # multiply equals the scalar's per-tree ``lr * tree_k(X)`` products;
    # only the ADDITION order must stay sequential in k
    scaled = learning_rate * leaves
    pred = np.full(X.shape[0], init, dtype=np.float64)
    for k in range(scaled.shape[0]):
        pred += scaled[k]
    return pred


def stacked_features(base: np.ndarray, ratios: np.ndarray) -> np.ndarray:
    """Tasks x grid feature matrix: ``(k * len(ratios), d + 1)``.

    ``base`` holds one row of counter features per task; each row is
    repeated across the shared ratio grid and the grid becomes the last
    column.  Values are placed, never recomputed, so the matrix is
    byte-identical to the per-task construction loop it replaces.  This
    is the batching contract's input side: because ensemble inference is
    row-wise independent, evaluating this one matrix returns the same
    bits as evaluating each task's grid separately.
    """
    base = np.asarray(base, dtype=np.float64)
    ratios = np.asarray(ratios, dtype=np.float64)
    if base.ndim != 2:
        raise ValueError("base must be 2-D (tasks x counter features)")
    if ratios.ndim != 1:
        raise ValueError("ratios must be 1-D")
    k, d = base.shape
    n_r = ratios.shape[0]
    X = np.empty((k * n_r, d + 1), dtype=np.float64)
    X[:, :-1] = np.repeat(base, n_r, axis=0)
    X[:, -1] = np.tile(ratios, k)
    return X


#: Public kernel entry points of the vectorized hot path.  Every dotted
#: name here must resolve to a real object AND be documented in
#: PERFORMANCE.md -- enforced by ``tests/test_performance_docs.py`` (the
#: same diff-against-the-doc pattern ``test_observability_docs.py`` uses
#: for the metric catalogue).
KERNEL_ENTRY_POINTS: tuple[str, ...] = (
    "repro.ml.kernels.pack_tree",
    "repro.ml.kernels.pack_forest",
    "repro.ml.kernels.tree_apply",
    "repro.ml.kernels.forest_apply",
    "repro.ml.kernels.forest_predict",
    "repro.ml.kernels.stacked_features",
    "repro.ml.tree.DecisionTreeRegressor.arrays",
    "repro.ml.gbr.GradientBoostedRegressor.forest",
    "repro.core.correlation.CorrelationFunction.predict_batch",
    "repro.core.correlation.CorrelationFunction.predict_stacked",
    "repro.core.model.PerformanceModel.ratio_grids",
    "repro.core.planner.greedy_plan",
    "repro.core.planner.optimal_quotas",
    "repro.core.planner.throughput_plan",
    "repro.sim.kernels.BreakdownKernel",
    "repro.sim.kernels.TieredBreakdownKernel",
    "repro.sim.pages.PageTable.weight_arena",
    "repro.sim.pages.PageTable.residency_arena",
    "repro.sim.pages.PageTable.object_slice",
    "repro.sim.pages.TieredPageTable.tier_arena",
)
