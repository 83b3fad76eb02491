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
* :func:`pack_leaf_masks` / :func:`forest_predict_grid` evaluate the
  ensemble over a tasks x ratio grid -- k rows of base features, each
  paired with every value of one shared grid column -- without building
  the ``(k * n_grid, d + 1)`` matrix: a split tests one feature, so each
  node is compared once per task or once per grid value, and a tree's
  leaf for (task, grid value) is the one leaf both sets of decisions
  keep.  Predictions are row-wise independent, so stacking k tasks'
  grids into one call returns the same bits as k separate calls.

These kernels are the only production path.  The scalar forms they
replaced live in ``tests/oracles/scalar.py`` as the differential
specification ``tests/test_kernels.py`` compares them against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
    "LeafMaskForest",
    "pack_leaf_masks",
    "forest_predict_grid",
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
    must NOT sum the leaf matrix with a (pairwise) ``np.sum``; it stacks
    ``init`` over the scaled leaf matrix and adds the rows in tree order
    (:func:`_sum_rows_in_order`), so the result is bit-identical to the
    scalar loop for every row.
    """
    leaves = forest_apply(forest, X)
    # scaling first is elementwise (exactly rounded per lane), so one 2-D
    # multiply equals the scalar's per-tree ``lr * tree_k(X)`` products;
    # only the ADDITION order must stay sequential in k
    terms = np.empty((leaves.shape[0] + 1, leaves.shape[1]), dtype=np.float64)
    terms[0] = init
    np.multiply(learning_rate, leaves, out=terms[1:])
    return _sum_rows_in_order(terms)


def _sum_rows_in_order(terms: np.ndarray) -> np.ndarray:
    """``((terms[0] + terms[1]) + terms[2]) + ...`` per column.

    ``terms`` is a C-ordered ``(n_terms, n)`` matrix whose row 0 is the
    boosting ``init`` and row ``t + 1`` tree ``t``'s scaled leaf values.
    With at least two columns, ``np.add.reduce(axis=0)`` adds whole rows
    one after the other, the scalar loop's order.  A single column is one
    contiguous run, which numpy sums pairwise (PERFORMANCE.md §4 rule 2),
    so that case takes the last partial sum of ``np.add.accumulate``.
    """
    if terms.shape[1] == 1:
        return np.add.accumulate(terms, axis=0)[-1]
    return np.add.reduce(terms, axis=0)


#: The widest leaf mask: a tree packed by :func:`pack_leaf_masks` may have
#: at most this many leaves (depth <= 6 for a binary tree).
MASK_BITS = 64
#: Mask width -> (word dtype, de Bruijn multiplier, shift).  For a word
#: with exactly one bit set, ``(word * multiplier) >> shift`` (modulo
#: 2**width) is a distinct slot per bit position -- a branch-free
#: count-trailing-zeros up to a fixed permutation, which the packed value
#: table absorbs.  A forest packs at the narrowest width its widest tree
#: fits: depth-4 trees use 16-bit words, a quarter of the memory traffic
#: and value table of 64-bit ones.
_DEBRUIJN: dict[int, tuple[type, int, int]] = {
    16: (np.uint16, 0x09AF, 12),
    32: (np.uint32, 0x077CB531, 27),
    64: (np.uint64, 0x03F79D71B4CB0A89, 58),
}
#: Distinct grids whose grid-side masks a :class:`LeafMaskForest` keeps.
GRID_MEMO_SIZE = 8


def _leaf_slot(bit: int, width: int) -> int:
    """Value-table slot of the leaf that owns mask bit ``bit``."""
    _, multiplier, shift = _DEBRUIJN[width]
    return (((1 << bit) * multiplier) & ((1 << width) - 1)) >> shift


@dataclass(frozen=True)
class LeafMaskForest:
    """Leaf-mask encoding of an ensemble for tasks x grid inputs.

    Each tree numbers its leaves in node order; bit ``j`` of a mask is the
    tree's ``j``-th leaf.  Every split node carries two masks: the leaves
    still reachable after a "left" decision there (all leaves but the
    right subtree's) and after a "right" decision (all but the left
    subtree's).  ANDing the chosen mask of every split node of a tree
    leaves exactly one bit set, the leaf a descent reaches: the descent's
    leaf loses no decision, and any other leaf loses the decision at the
    node where its path leaves the descent's.

    The nodes are split by feature.  ``base_*`` nodes test one of the
    ``grid_feature`` base columns, ``grid_*`` nodes test the grid column
    (the last feature).  Each side is a flat node list with one pad node
    at the front of every tree's segment (``*_starts[t]``); a pad's left
    and right masks both hold all of the tree's leaves, so a tree without
    nodes on one side still reduces to its full leaf set.

    Masks are ``mask_width``-bit words.  ``value`` holds the leaf values,
    ``mask_width`` slots per tree, each leaf at the slot
    :func:`_leaf_slot` gives its bit; unused slots are never read.

    The grid side depends on the grid alone, and the planners price one
    fixed ratio grid call after call, so its ``(n_trees, n_grid)`` masks
    are memoised per grid (by its bytes, at most ``GRID_MEMO_SIZE``
    grids) in ``grid_memo``.
    """

    base_feature: np.ndarray     # (n_base,) intp, 0 at pads
    base_threshold: np.ndarray   # (n_base,) float64, +inf at pads
    base_left: np.ndarray        # (n_base,) mask words, leaves kept going left
    base_right: np.ndarray       # (n_base,) mask words, leaves kept going right
    base_starts: np.ndarray      # (n_trees,) intp, each tree's pad
    grid_threshold: np.ndarray   # (n_grid,) float64, +inf at pads
    grid_left: np.ndarray        # (n_grid,) mask words
    grid_right: np.ndarray       # (n_grid,) mask words
    grid_starts: np.ndarray      # (n_trees,) intp
    value: np.ndarray            # (n_trees * mask_width,) float64, slot order
    mask_width: int              # 16, 32 or 64
    grid_feature: int            # index of the grid column = base columns
    grid_memo: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def n_trees(self) -> int:
        return int(self.base_starts.shape[0])

    def grid_masks(self, grid: np.ndarray) -> np.ndarray:
        """``(n_trees, n_grid)`` AND of each tree's grid-node masks."""
        key = grid.tobytes()
        masks = self.grid_memo.get(key)
        if masks is None:
            go_right = grid[:, None] > self.grid_threshold
            masks = np.bitwise_and.reduceat(
                np.where(go_right, self.grid_right, self.grid_left),
                self.grid_starts,
                axis=1,
            ).T.copy()
            masks.flags.writeable = False
            if len(self.grid_memo) >= GRID_MEMO_SIZE:
                self.grid_memo.clear()
            self.grid_memo[key] = masks
        return masks


def pack_leaf_masks(forest: ForestArrays, grid_feature: int) -> LeafMaskForest:
    """Freeze a packed forest into :class:`LeafMaskForest`.

    ``grid_feature`` is the index of the grid column, which must be the
    forest's last feature.  Raises ``ValueError`` when a tree has more
    than ``MASK_BITS`` leaves or a node splits on a column after the grid
    column.  A one-time cost per fitted ensemble (the GBR caches it).
    """
    feature = forest.feature.tolist()
    left = forest.left.tolist()
    right = forest.right.tolist()
    threshold = forest.threshold.tolist()
    values = forest.value.tolist()
    if max(feature) > grid_feature:
        raise ValueError("the grid column must be the forest's last feature")
    roots = forest.roots.tolist()
    ends = roots[1:] + [len(feature)]
    leaf_nodes = [
        [i for i in range(lo, hi) if feature[i] < 0]
        for lo, hi in zip(roots, ends)
    ]
    widest = max(len(nodes) for nodes in leaf_nodes)
    if widest > MASK_BITS:
        raise ValueError(
            f"a tree has {widest} leaves; a leaf mask holds {MASK_BITS}"
        )
    width = min(w for w in _DEBRUIJN if w >= widest)
    leaves = [0] * len(feature)  # leaf bits under each node
    value = np.zeros(forest.n_trees * width, dtype=np.float64)
    base_feature: list[int] = []
    base_threshold: list[float] = []
    base_left: list[int] = []
    base_right: list[int] = []
    base_starts: list[int] = []
    grid_threshold: list[float] = []
    grid_left: list[int] = []
    grid_right: list[int] = []
    grid_starts: list[int] = []
    for t, (lo, hi) in enumerate(zip(roots, ends)):
        for bit, i in enumerate(leaf_nodes[t]):
            leaves[i] = 1 << bit
            value[t * width + _leaf_slot(bit, width)] = values[i]
        # children follow their parent in fit order, so a reverse pass
        # reaches both children of a node before the node itself
        for i in range(hi - 1, lo - 1, -1):
            if feature[i] >= 0:
                leaves[i] = leaves[left[i]] | leaves[right[i]]
        every = leaves[lo]
        base_starts.append(len(base_feature))
        base_feature.append(0)
        base_threshold.append(np.inf)
        base_left.append(every)
        base_right.append(every)
        grid_starts.append(len(grid_threshold))
        grid_threshold.append(np.inf)
        grid_left.append(every)
        grid_right.append(every)
        for i in range(lo, hi):
            f = feature[i]
            if f < 0:
                continue
            go_left = every & ~leaves[right[i]]
            go_right = every & ~leaves[left[i]]
            if f == grid_feature:
                grid_threshold.append(threshold[i])
                grid_left.append(go_left)
                grid_right.append(go_right)
            else:
                base_feature.append(f)
                base_threshold.append(threshold[i])
                base_left.append(go_left)
                base_right.append(go_right)
    word = _DEBRUIJN[width][0]
    return LeafMaskForest(
        base_feature=np.array(base_feature, dtype=np.intp),
        base_threshold=np.array(base_threshold, dtype=np.float64),
        base_left=np.array(base_left, dtype=word),
        base_right=np.array(base_right, dtype=word),
        base_starts=np.array(base_starts, dtype=np.intp),
        grid_threshold=np.array(grid_threshold, dtype=np.float64),
        grid_left=np.array(grid_left, dtype=word),
        grid_right=np.array(grid_right, dtype=word),
        grid_starts=np.array(grid_starts, dtype=np.intp),
        value=value,
        mask_width=width,
        grid_feature=grid_feature,
    )


def forest_predict_grid(
    packed: LeafMaskForest,
    base: np.ndarray,
    grid: np.ndarray,
    init: float,
    learning_rate: float,
) -> np.ndarray:
    """Boosted predictions over a tasks x grid surface: ``(k, len(grid))``.

    Entry ``[i, j]`` is the prediction for base row ``i`` with the grid
    column set to ``grid[j]`` -- row ``i * len(grid) + j`` of the
    repeat/tile stacked matrix -- and has the same bits as
    :func:`forest_predict` over that matrix.  Every split compares
    ``x > threshold`` as the descent does (NaN goes left), each base node
    once per task and each grid node once per grid value (memoised per
    grid, see :class:`LeafMaskForest`).  The AND of a tree's chosen masks
    (``np.bitwise_and.reduceat`` over its segment) gives one base mask
    per (task, tree) and one grid mask per (tree, grid value), and their
    AND per (tree, task, grid value) has exactly the reached leaf's bit
    set.  Its de Bruijn slot indexes the scaled value table directly, one
    gather fills the ``(T + 1, k * len(grid))`` term matrix (row 0 reads
    ``init`` from a pad slot after the table), and the rows are summed
    in tree order, as in :func:`forest_predict`.
    """
    base = np.asarray(base, dtype=np.float64)
    grid = np.asarray(grid, dtype=np.float64)
    if base.ndim != 2 or base.shape[1] != packed.grid_feature:
        raise ValueError(
            f"base must be 2-D with {packed.grid_feature} feature columns"
        )
    if grid.ndim != 1:
        raise ValueError("grid must be 1-D")
    k, n_grid = base.shape[0], grid.shape[0]
    n_trees, width = packed.n_trees, packed.mask_width
    word, multiplier, shift = _DEBRUIJN[width]
    go_right = base[:, packed.base_feature] > packed.base_threshold
    base_masks = np.bitwise_and.reduceat(
        np.where(go_right, packed.base_right, packed.base_left),
        packed.base_starts,
        axis=1,
    )  # (k, T)
    grid_masks = packed.grid_masks(grid)  # (T, n_grid)
    # (T, k, n_grid); C order, or numpy lays the result out like the
    # transposed base masks and every pass below strides through memory
    leaf = np.bitwise_and(
        base_masks.T[:, :, None], grid_masks[:, None, :], order="C"
    )
    leaf *= word(multiplier)
    leaf >>= word(shift)
    pad = n_trees * width
    slot = np.empty((n_trees + 1, k * n_grid), dtype=np.int64)
    slot[0] = pad
    np.add(
        leaf.reshape(n_trees, k * n_grid),
        (np.arange(n_trees, dtype=np.int64) * width)[:, None],
        out=slot[1:],
        dtype=np.int64,
    )
    # scaling the value table is elementwise, so it gives the bits of
    # scaling the gathered leaf matrix (forest_predict's ``lr * leaves``)
    table = np.empty(pad + 1, dtype=np.float64)
    np.multiply(learning_rate, packed.value, out=table[:pad])
    table[pad] = init
    return _sum_rows_in_order(table.take(slot)).reshape(k, n_grid)


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
    "repro.ml.kernels.pack_leaf_masks",
    "repro.ml.kernels.forest_predict_grid",
    "repro.ml.tree.DecisionTreeRegressor.arrays",
    "repro.ml.gbr.GradientBoostedRegressor.forest",
    "repro.ml.gbr.GradientBoostedRegressor.leaf_masks",
    "repro.core.correlation.CorrelationFunction.predict_batch",
    "repro.core.correlation.CorrelationFunction.predict_stacked",
    "repro.core.model.PerformanceModel.ratio_grids",
    "repro.core.planner.greedy_plan",
    "repro.core.planner.optimal_quotas",
    "repro.core.planner.throughput_plan",
    "repro.sim.kernels.BreakdownKernel",
    "repro.sim.kernels.TieredBreakdownKernel",
    "repro.sim.machine.MachineModel.breakdowns",
    "repro.sim.pages.PageTable.weight_arena",
    "repro.sim.pages.PageTable.object_slice",
    "repro.sim.pages.TieredPageTable.tier_arena",
)
