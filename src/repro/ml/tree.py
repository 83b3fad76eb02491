"""CART regression trees with variance-reduction splits.

The tree is the workhorse of Table 3: the paper's best model (GBR) boosts
these, and the Random Forest bags them.  Split finding is fully vectorised:
per candidate feature, targets are sorted by feature value and the best
threshold is found from prefix sums of ``y`` and ``y**2`` in one pass.

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
    features: np.ndarray,
    min_samples_leaf: int,
) -> tuple[int, float, float]:
    """Return (feature, threshold, impurity_decrease) or (-1, 0, 0).

    Impurity decrease is measured as reduction of total SSE within the node,
    i.e. ``SSE(node) - SSE(left) - SSE(right)``.
    """
    n = len(idx)
    y_node = y[idx]
    sse_node = float(np.sum((y_node - y_node.mean()) ** 2))
    best = (-1, 0.0, 0.0)
    if sse_node <= 1e-18:
        return best
    best_gain = 1e-12
    for f in features:
        x = X[idx, f]
        order = np.argsort(x, kind="stable")
        xs = x[order]
        ys = y_node[order]
        # candidate split after position i (1-based counts)
        c1 = np.cumsum(ys)
        c2 = np.cumsum(ys * ys)
        total1, total2 = c1[-1], c2[-1]
        counts = np.arange(1, n, dtype=np.float64)  # left sizes 1..n-1
        l1, l2 = c1[:-1], c2[:-1]
        r1, r2 = total1 - l1, total2 - l2
        sse_l = l2 - l1 * l1 / counts
        sse_r = r2 - r1 * r1 / (n - counts)
        gain = sse_node - (sse_l + sse_r)
        # a split is valid only between distinct feature values and with
        # enough samples on both sides
        valid = xs[1:] != xs[:-1]
        if min_samples_leaf > 1:
            k = min_samples_leaf
            valid = valid.copy()
            valid[: k - 1] = False
            if k > 1:
                valid[len(valid) - (k - 1):] = False
        gain = np.where(valid, gain, -np.inf)
        pos = int(np.argmax(gain))
        if gain[pos] > best_gain:
            best_gain = float(gain[pos])
            threshold = 0.5 * (xs[pos] + xs[pos + 1])
            best = (int(f), float(threshold), best_gain)
    return best


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

    def fit(self, X, y, sample_weight=None) -> "DecisionTreeRegressor":
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

        def build(idx: np.ndarray, depth: int) -> int:
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
            f, thr, gain = _best_split(X, y, idx, features, self.min_samples_leaf)
            if f < 0:
                return node_id
            mask = X[idx, f] <= thr
            left_idx, right_idx = idx[mask], idx[~mask]
            if len(left_idx) == 0 or len(right_idx) == 0:
                return node_id
            importances[f] += gain
            node.feature = f
            node.threshold = thr
            node.left = build(left_idx, depth + 1)
            node.right = build(right_idx, depth + 1)
            return node_id

        build(np.arange(n), 0)
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
