"""CART regression trees with variance-reduction splits.

The tree is the workhorse of Table 3: the paper's best model (GBR) boosts
these, and the Random Forest bags them.  Each tree sorts its rows by every
feature once, stably, and splits those sorted row lists down the recursion,
so a node never sorts.  Split finding is one vectorised pass per node over
all candidate features at once: prefix sums of ``y`` and ``y**2`` along each
feature's ordering give every threshold's SSE reduction.

Feature importance is the variance-reduction ("Gini") importance the paper
uses to select performance events (Section 5.1, citing Louppe et al.).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.common import make_rng
from repro.ml.kernels import TreeArrays, pack_tree, tree_apply

__all__ = ["DecisionTreeRegressor"]


@dataclass
class _Node:
    feature: int = -1          # -1 => leaf
    threshold: float = 0.0
    left: int = -1
    right: int = -1
    value: float = 0.0
    n_samples: int = 0


def _best_split(
    X: np.ndarray,
    y: np.ndarray,
    idx: np.ndarray,
    order: np.ndarray,
    features: np.ndarray,
    min_samples_leaf: int,
) -> tuple[int, float, float]:
    """Return (feature, threshold, impurity_decrease) or (-1, 0, 0).

    ``idx`` holds the node's rows in ascending order and ``order[f]`` the
    same rows stably sorted by feature ``f``.  Impurity decrease is measured
    as reduction of total SSE within the node, i.e.
    ``SSE(node) - SSE(left) - SSE(right)``.
    """
    n = len(idx)
    y_node = y[idx]
    sse_node = float(np.sum((y_node - y_node.mean()) ** 2))
    if sse_node <= 1e-18:
        return (-1, 0.0, 0.0)
    # one row per candidate feature, in that feature's sorted order; a
    # cumsum along a row adds in the same order as the 1-D cumsum would
    rows = order[features]
    xs = X[rows, features[:, None]]
    ys = y[rows]
    # candidate split after position i (1-based counts)
    c1 = np.cumsum(ys, axis=1)
    c2 = np.cumsum(ys * ys, axis=1)
    total1, total2 = c1[:, -1:], c2[:, -1:]
    counts = np.arange(1, n, dtype=np.float64)  # left sizes 1..n-1
    l1, l2 = c1[:, :-1], c2[:, :-1]
    r1, r2 = total1 - l1, total2 - l2
    sse_l = l2 - l1 * l1 / counts
    sse_r = r2 - r1 * r1 / (n - counts)
    gain = sse_node - (sse_l + sse_r)
    # a split is valid only between distinct feature values and with
    # enough samples on both sides
    valid = xs[:, 1:] != xs[:, :-1]
    k = min_samples_leaf
    if k > 1:
        valid[:, : k - 1] = False
        valid[:, n - k:] = False
    gain = np.where(valid, gain, -np.inf)
    top = gain.max(axis=1)
    # the first feature with the greatest gain wins, as when features were
    # scanned in turn and only a strictly greater gain replaced the best; a
    # feature whose best gain does not clear 1e-12 (or is NaN) never wins
    top[~(top > 1e-12)] = -np.inf
    j = int(np.argmax(top))
    if not top[j] > 1e-12:
        return (-1, 0.0, 0.0)
    pos = int(np.argmax(gain[j]))
    threshold = 0.5 * (xs[j, pos] + xs[j, pos + 1])
    return (int(features[j]), float(threshold), float(top[j]))


class DecisionTreeRegressor:
    """CART regressor (mean-leaf, SSE splits).

    Parameters mirror scikit-learn where Table 3 sets them:
    ``max_depth=10`` is the paper's DTR configuration.
    """

    def __init__(
        self,
        max_depth: int = 10,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: int | float | None = None,
        rng=None,
    ) -> None:
        if max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if min_samples_split < 2:
            raise ValueError("min_samples_split must be >= 2")
        if min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self._rng = make_rng(rng)
        self._nodes: list[_Node] = []
        self._arrays: TreeArrays | None = None
        self.n_features_: int | None = None
        self.feature_importances_: np.ndarray | None = None

    # ------------------------------------------------------------------
    def _n_candidate_features(self, d: int) -> int:
        mf = self.max_features
        if mf is None:
            return d
        if isinstance(mf, float):
            if not 0.0 < mf <= 1.0:
                raise ValueError("max_features fraction must be in (0, 1]")
            return max(1, int(round(mf * d)))
        return max(1, min(int(mf), d))

    def fit(self, X, y) -> "DecisionTreeRegressor":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64).ravel()
        if X.ndim != 2:
            raise ValueError("X must be 2-D")
        if X.shape[0] != y.shape[0]:
            raise ValueError("X and y disagree on sample count")
        if X.shape[0] == 0:
            raise ValueError("cannot fit on empty data")
        n, d = X.shape
        self.n_features_ = d
        self._nodes = []
        importances = np.zeros(d)
        n_cand = self._n_candidate_features(d)
        # row -> goes-left flags shared by every split; a split writes and
        # reads only its own rows
        goes_left = np.zeros(n, dtype=bool)

        def build(idx: np.ndarray, order: np.ndarray, depth: int) -> int:
            node_id = len(self._nodes)
            node = _Node(value=float(y[idx].mean()), n_samples=len(idx))
            self._nodes.append(node)
            if (
                depth >= self.max_depth
                or len(idx) < self.min_samples_split
                or len(idx) < 2 * self.min_samples_leaf
            ):
                return node_id
            if n_cand == d:
                features = np.arange(d)
            else:
                features = self._rng.choice(d, size=n_cand, replace=False)
            f, thr, gain = _best_split(
                X, y, idx, order, features, self.min_samples_leaf
            )
            if f < 0:
                return node_id
            mask = X[idx, f] <= thr
            left_idx, right_idx = idx[mask], idx[~mask]
            if len(left_idx) == 0 or len(right_idx) == 0:
                return node_id
            importances[f] += gain
            node.feature = f
            node.threshold = thr
            # split every feature's sorted row list stably in one pass
            goes_left[idx] = mask
            left = goes_left[order]
            left_order = order[left].reshape(d, len(left_idx))
            right_order = order[~left].reshape(d, len(right_idx))
            node.left = build(left_idx, left_order, depth + 1)
            node.right = build(right_idx, right_order, depth + 1)
            return node_id

        # each row of ``order`` lists the rows stably sorted by one feature;
        # restricted to a node's ascending ``idx`` it is the node's own
        # stable order, so no node sorts again
        build(np.arange(n), np.argsort(X, axis=0, kind="stable").T, 0)
        self._arrays = pack_tree(self._nodes)
        total = importances.sum()
        self.feature_importances_ = importances / total if total > 0 else importances
        return self

    # ------------------------------------------------------------------
    def arrays(self) -> TreeArrays:
        """Struct-of-arrays encoding of the fitted tree (PERFORMANCE.md).

        Packed once at fit time; every inference call reuses it instead
        of re-walking the Python ``_Node`` list.
        """
        if self._arrays is None:
            if not self._nodes:
                raise RuntimeError("tree not fitted")
            # trees fitted before the arrays cache existed (e.g. unpickled
            # from an old artifact) pack lazily
            self._arrays = pack_tree(self._nodes)
        return self._arrays

    # ------------------------------------------------------------------
    def predict(self, X) -> np.ndarray:
        if not self._nodes:
            raise RuntimeError("tree not fitted")
        X = np.asarray(X, dtype=np.float64)
        if X.ndim == 1:
            X = X[None, :]
        if X.shape[1] != self.n_features_:
            raise ValueError("feature-count mismatch")
        return tree_apply(self.arrays(), X)

    @property
    def n_nodes(self) -> int:
        return len(self._nodes)

    @property
    def depth(self) -> int:
        if not self._nodes:
            return 0

        def d(i: int) -> int:
            nd = self._nodes[i]
            if nd.feature < 0:
                return 0
            return 1 + max(d(nd.left), d(nd.right))

        return d(0)
